//! # wtm-harness — experiment drivers that regenerate the paper's figures
//!
//! One driver per artifact:
//!
//! | driver | paper artifact |
//! |---|---|
//! | [`figures::fig2`] | Fig. 2 — throughput of the five window variants, thread sweep, four benchmarks |
//! | [`figures::fig34`] | Fig. 3 — throughput of the best window variants vs Polka/Greedy/Priority; Fig. 4 — aborts per commit of the same runs |
//! | [`figures::fig5`] | Fig. 5 — total time to commit a fixed budget of transactions at three contention levels |
//! | [`theory::makespan_tables`] | §II-C — simulator validation of the Offline/Online makespan bounds and the window-vs-one-shot claim |
//!
//! The [`runner`] module executes one `(workload, manager, threads)`
//! cell: spawn `M` workers, run the deterministic operation stream until
//! the stop rule fires, aggregate [`wtm_stm::StatsSnapshot`]s. Workloads
//! are resolved by name through the [`wtm_workloads::registry`]; managers
//! through [`managers::build_manager`], which understands parameterized
//! names (`Online-Dynamic@phi=2,c=8,n=16`).
//!
//! The [`experiment`] module is the declarative layer above the runner:
//! an [`experiment::ExperimentSpec`] describes a grid (workloads ×
//! managers × thread sweep × contention × stop rule × repetitions) and
//! the shared [`experiment::Executor`] expands it into deterministic
//! cells, owns repetition and mean ± stddev aggregation, prints
//! progress/ETA, and checkpoints every finished cell into a
//! schema-versioned `results.json` ([`json`] is the vendored-free JSON
//! layer) so interrupted suites resume instead of restarting. The
//! [`report`] module renders aligned text tables and CSV files.
//!
//! Presets scale every experiment: `--smoke`/`--quick` (CI-sized) up to
//! `--paper` (the paper's 10 s × 6 repetitions × 32 threads).

pub mod ablation;
pub mod experiment;
pub mod figures;
pub mod json;
pub mod managers;
pub mod metrics;
pub mod preset;
pub mod report;
pub mod runner;
pub mod sim;
pub mod simtrace;
pub mod theory;
pub mod trace;

pub use experiment::{aggregate, Agg, CellResult, Executor, ExperimentSpec, ResultsStore};
pub use json::Json;
pub use managers::{
    all_manager_names, build_manager, comparison_manager_names, BuildError, BuiltManager,
};
pub use preset::Preset;
pub use report::{slugify, Table};
pub use runner::{run_one, RunOutcome, RunSpec, StopRule};
pub use sim::{sim_spec, sim_tables};
