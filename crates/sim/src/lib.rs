//! # wtm-sim — deterministic discrete-event transaction-scheduling simulator
//!
//! The paper's theory (§II) reasons about an abstract model: an `M × N`
//! window of transactions over an explicit **conflict graph**, scheduled
//! in discrete steps. Two of its algorithms need that model directly:
//!
//! * **Offline** (§II-B1) resolves conflicts by greedy-coloring the
//!   conflict graph inside each frame — impossible in a real STM (it
//!   requires global knowledge), natural in a simulator.
//! * The makespan theorems 2.1–2.4 predict scaling shapes
//!   (`O(τ·(C + N·log MN))` etc.) that wall-clock runs on a noisy host
//!   cannot cleanly exhibit.
//!
//! The crate is layered, dslab-style:
//!
//! 1. **Event core** ([`event`]) — a deterministic priority-queue event
//!    loop: virtual clock, `(time, class, seeded-tiebreak)` total order,
//!    and an append-only byte [`EventLog`] that makes two runs comparable
//!    bit for bit and recorded runs [`replay`]able.
//! 2. **Topology layer** ([`net`]) — threads pinned to nodes, per-node
//!    window clocks with configurable skew, and a pluggable
//!    [`NetworkModel`] between conflict detection and CM-verdict
//!    delivery: [`ZeroLatency`] (the paper's instantaneous-verdict
//!    assumption, bit-identical to the old discrete-time stepper),
//!    [`FixedLatency`], and [`SeededJitter`] with optional message drop.
//! 3. **Scenario layer** ([`scenario`]) — registry-named, `@k=v`-
//!    parameterized setups ([`params`] is the one `name@k=v,…` parser,
//!    shared with the network spec and the harness's manager names): the paper-shaped graphs ([`graph`]) plus
//!    beyond-paper distributed scenarios (multi-node windows with skew,
//!    K-way replicated transactions with commit-ack gating, participant
//!    crash/recovery mid-window), all runnable through one
//!    [`SimRunSpec`].
//!
//! The schedulers ([`sched`]) — one-shot, free-running RandomizedRounds,
//! Greedy timestamps, Polka, and the `wtm-policy` window family (Online,
//! Online-Dynamic, Adaptive, which never adapts under dynamic frames, and
//! coloring-based Offline) — run unchanged on the event core; [`engine::simulate`] is the zero-latency single-node
//! entry point the theory tables and property tests use.
//!
//! Everything is seeded and deterministic: the same [`SimRunSpec`]
//! produces the same event log, which the replay gate in CI enforces.
//!
//! ```
//! use wtm_sim::graph::ConflictGraph;
//! use wtm_sim::engine::{simulate, SimConfig};
//! use wtm_sim::sched::{OneShotScheduler, OnlineWindowScheduler, WindowMode};
//!
//! let g = ConflictGraph::per_column_random(8, 10, 0.5, 42);
//! let cfg = SimConfig::new(8, 10, 1);
//! let one_shot = simulate(&g, &cfg, &mut OneShotScheduler::new(&cfg, 1));
//! let window = simulate(
//!     &g,
//!     &cfg,
//!     &mut OnlineWindowScheduler::new(&cfg, &g, WindowMode::Dynamic, 1),
//! );
//! assert!(one_shot.all_committed && window.all_committed);
//! ```
//!
//! And the event-core surface the harness sweeps:
//!
//! ```
//! use wtm_sim::{replay, record_run, run_sim, SimRunSpec};
//!
//! let spec = SimRunSpec {
//!     scenario: "distributed@nodes=2,skew=1".into(),
//!     scheduler: "Online-Dynamic".into(),
//!     m: 4,
//!     n: 3,
//!     tau: 2,
//!     net: "fixed:2".into(),
//!     seed: 7,
//! };
//! let run = run_sim(&spec, false).unwrap();
//! assert!(run.outcome.all_committed);
//! let recorded = record_run(&spec).unwrap();
//! assert_eq!(replay(&recorded).unwrap(), run.outcome);
//! ```

pub mod coloring;
pub mod engine;
pub mod error;
pub mod event;
pub mod graph;
pub mod net;
pub mod params;
pub mod scenario;
pub mod sched;

pub use coloring::greedy_coloring;
pub use engine::{run_events, simulate, SimConfig, SimOutcome, SimSetup};
pub use error::SimError;
pub use event::{EventLog, EventQueue, Record};
pub use graph::ConflictGraph;
pub use net::{
    CrashEvent, FixedLatency, NetSpec, NetworkModel, NodeId, SeededJitter, Topology, ZeroLatency,
};
pub use params::{ParamError, Params};
pub use scenario::{
    build_scenario, build_sim_scheduler, record_run, replay, run_sim, scenario_infos, Scenario,
    ScenarioInfo, SimRun, SimRunSpec, SIM_SCHEDULER_NAMES,
};
pub use sched::{
    FreeRandomizedScheduler, GreedyTimestampScheduler, OfflineWindowScheduler, OneShotScheduler,
    OnlineWindowScheduler, PolkaProgressScheduler, SimScheduler, WindowMode,
};
