//! The one table of constants: workloads, metrics, bounds, durations.
//!
//! `BENCHMARK.json` mirrors the names, units, directions and bounds
//! here; `wtm-benchmark list` prints them and the contract test compares
//! the two. Nothing in this file is settable from the command line.

use wtm_stm::EngineKind;

/// Worker threads of every STM workload: the host's CPU count, never more.
pub const THREADS: usize = 2;
/// `N`, transactions per thread per window (window managers only).
pub const WINDOW_N: usize = 50;
/// `--seconds` of a `run` / `trace` set; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 12.0;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xBEEF;
/// `--seconds` and repetitions under `--smoke`.
pub const SMOKE_SECONDS: f64 = 0.4;
pub const SMOKE_REPS: u64 = 2;
/// Repetitions inside one run, each in a process of its own: speed
/// differs from one process to the next by a tenth and more on this host
/// and hardly at all inside one, so a run reports the median over many
/// short processes. An STM rep is one pass A and one pass B,
/// `seconds / (2 * STM_REPS)` long each.
pub const STM_REPS: u64 = 20;
/// A `sim-grid` rep is one set of the grid each way; the grid fixes its
/// length (about 0.6 s each way here), so there are fewer of them.
pub const SIM_REPS: u64 = 15;
/// Length of the discarded warm-up pass of each rep.
pub const WARMUP_SECONDS: f64 = 0.1;
/// Set-ups timed per rep (it reports their median): the one the rep
/// needs, then more while [`SETUP_BUDGET_SECONDS`] lasts. A set-up of
/// microseconds is timed 15 times, one of 0.1 s once.
pub const SETUP_SAMPLES: usize = 15;
pub const SETUP_BUDGET_SECONDS: f64 = 0.05;
/// Leading share of each bare pass whose samples are not recorded.
pub const DROP_LEADING: f64 = 0.05;
/// Single-thread calibration steps of a traced run.
pub const CALIBRATION_STEPS: u64 = 200_000;

pub struct StmWorkload {
    /// Registry name in `wtm_workloads`.
    pub workload: &'static str,
    pub key_range: i64,
    pub update_pct: u32,
    pub engine: EngineKind,
    pub manager: &'static str,
}

/// The simulator grid of `sim-grid`.
pub struct SimGrid {
    pub scenarios: &'static [&'static str],
    pub nets: &'static [&'static str],
    pub m: usize,
    pub n: usize,
    pub tau: u32,
    pub reps: usize,
}

pub enum Kind {
    Stm(StmWorkload),
    Sim(SimGrid),
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

impl Workload {
    /// Repetitions of one end-to-end run.
    pub fn reps(&self) -> u64 {
        match self.kind {
            Kind::Stm(_) => STM_REPS,
            Kind::Sim(_) => SIM_REPS,
        }
    }
}

const fn stm(
    workload: &'static str,
    key_range: i64,
    update_pct: u32,
    engine: EngineKind,
    manager: &'static str,
) -> Kind {
    Kind::Stm(StmWorkload {
        workload,
        key_range,
        update_pct,
        engine,
        manager,
    })
}

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "list-polka",
        why: "High contention: ~30 visible-read opens per txn and real conflicts load the eager read path, reader registry, conflict detection and classic-CM backoff; no window code runs.",
        kind: stm("List", 64, 100, EngineKind::Eager, "Polka"),
    },
    Workload {
        name: "list-window",
        why: "list-polka with Online-Dynamic: only the CM differs (frame clock, on_begin barrier and frame waits), so a window change moves this alone and an engine change moves both.",
        kind: stm("List", 64, 100, EngineKind::Eager, "Online-Dynamic"),
    },
    Workload {
        name: "rbtree-readmostly",
        why: "Read-dominated tree of 65536 keys, ~33 MiB working set past L2, ~2 % aborts, 0.1 s prepopulate: the snapshot read path, setup_s and peak_rss_mb show here; the CM is nearly idle.",
        kind: stm("RBTree", 65_536, 10, EngineKind::Eager, "Greedy"),
    },
    Workload {
        name: "vacation-lazy",
        why: "The lazy engine: invisible reads, buffered multi-object write sets, commit-time locking, validation and the version clock. A change that helps eager at lazy's cost shows here.",
        kind: stm("Vacation", 128, 100, EngineKind::Lazy, "Polka"),
    },
    Workload {
        name: "hashmap-short",
        why: "~0.3 us transactions with ~0 aborts: per-transaction fixed cost (begin, registry publish, epoch quiesce, stats) and the harness loop are nearly all the time; body and CM are not.",
        kind: stm("HashMap", 4096, 50, EngineKind::Eager, "Polka"),
    },
    Workload {
        name: "sim-grid",
        why: "Executor over 5 scenarios x 3 nets x 8 sim schedulers: event core, schedulers, network models and the per-cell checkpoint path. Shares no hot code with the STM, so STM changes predict no movement.",
        kind: Kind::Sim(SimGrid {
            scenarios: &[
                "fig2-shape",
                "clustered",
                "distributed@nodes=4,skew=1",
                "replicated@nodes=2",
                "crash-recovery@nodes=2,node=1,at=8,down=16",
            ],
            nets: &["zero", "fixed:4", "jitter:2,j=2,drop=50"],
            m: 32,
            n: 50,
            tau: 2,
            reps: 1,
        }),
    },
];

/// The grid `--smoke` swaps in for `sim-grid`'s.
pub static SMOKE_GRID: SimGrid = SimGrid {
    scenarios: &["fig2-shape", "replicated@nodes=2"],
    nets: &["zero", "fixed:4"],
    m: 4,
    n: 6,
    tau: 2,
    reps: 2,
};

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A difference (and a spread) smaller than this, in the metric's
    /// unit, counts as none, whatever share of the median it is: set-ups
    /// of microseconds and a few pages of memory differ by more than any
    /// share from one process to the next. `BENCHMARK.json` has no key
    /// for it, so it is `agree`'s alone.
    pub floor: f64,
    pub what: &'static str,
}

pub static END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
        what: "committed transactions per wall second through run_one (sim-grid: simulated commits per wall second of Executor::run); median over the reps",
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        what: "median response time of OpStream::step in the bare pass (sim-grid: per-cell run_sim wall / (commits + aborts)); median over the reps",
    },
    EndToEnd {
        name: "txn_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
        what: "95th percentile of the same samples, the highest that repeats on this host; median over the reps",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.005,
        what: "build_manager + Stm::with_engine + build_workload + prepopulate (sim-grid: build_scenario over the grid); median over the reps",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        floor: 2.0,
        what: "VmHWM of a rep's process when it ends; median over the reps",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workloads this should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics; the part of a name before the first `.` is the
/// layer (a crate of the repository). Every workload reports every one,
/// as 0 where the layer does no work on it.
pub static PER_LAYER: [PerLayer; 59] = [
    // wtm-harness
    layer("harness.bare_txn_per_s", "1/s", Higher, "reference for loop_ns_per_txn"),
    layer("harness.loop_ns_per_txn", "ns", Lower, "txn_per_s on hashmap-short; flat on list-*"),
    layer("harness.executor_ms_per_cell", "ms", Lower, "txn_per_s on sim-grid only"),
    layer("harness.results_json_bytes", "count", Lower, "txn_per_s on sim-grid only"),
    // wtm-workloads
    layer("workloads.opens_per_txn", "count", Lower, "txn_p50_us on list-polka, rbtree-readmostly"),
    layer("workloads.step_ns_1t", "ns", Lower, "txn_p50_us on every STM workload"),
    layer("workloads.residual_ns_per_txn", "ns", Lower, "estimate; txn_p50_us on rbtree-readmostly, list-polka"),
    layer("workloads.build_s", "s", Lower, "setup_s on rbtree-readmostly, vacation-lazy"),
    layer("workloads.prepopulate_s", "s", Lower, "setup_s on rbtree-readmostly"),
    // wtm-stm engine
    layer("stm.empty_txn_ns", "ns", Lower, "txn_per_s, txn_p50_us on hashmap-short"),
    layer("stm.read_ns_per_open", "ns", Lower, "txn_p50_us on list-polka, rbtree-readmostly"),
    layer("stm.write_ns_per_open", "ns", Lower, "txn_p50_us on vacation-lazy"),
    layer("stm.contention_ns_per_txn", "ns", Lower, "txn_per_s on list-*, hashmap-short"),
    layer("stm.scaling_eff", "ratio", Higher, "txn_per_s on hashmap-short"),
    layer("stm.aborts_per_commit", "ratio", Lower, "txn_per_s, txn_p95_us on list-*, vacation-lazy"),
    layer("stm.commit_ratio", "ratio", Higher, "txn_per_s on list-*, vacation-lazy"),
    layer("stm.conflicts_per_commit", "ratio", Lower, "txn_p95_us on list-*, vacation-lazy"),
    layer("stm.repeat_conflict_frac", "ratio", Lower, "txn_p95_us on list-*"),
    layer("stm.wasted_work_frac", "ratio", Lower, "txn_per_s on list-*, vacation-lazy"),
    layer("stm.txn_p99_us", "us", Lower, "tail beyond txn_p95_us: backoff sleeps and window barrier waits; follows the host's timer latency, so not gated"),
    layer("stm.txn_p999_us", "us", Lower, "further tail; not gated for the same reason"),
    // contention managers, through the TimedCm wrapper
    layer("cm.resolve_calls_per_txn", "ratio", Lower, "txn_p95_us on list-polka, vacation-lazy; ~0 on hashmap-short"),
    layer("cm.resolve_ns_per_call", "ns", Lower, "txn_p95_us on list-polka (backoff is inside resolve)"),
    layer("cm.resolve_ns_per_txn", "ns", Lower, "txn_p95_us on list-polka, vacation-lazy"),
    layer("cm.hooks_ns_per_txn", "ns", Lower, "txn_p50_us on list-window"),
    layer("cm.abort_self_frac", "ratio", Lower, "stm.aborts_per_commit on list-*"),
    layer("cm.abort_enemy_frac", "ratio", Lower, "stm.aborts_per_commit on list-*"),
    layer("cm.retry_frac", "ratio", Lower, "cm.resolve_calls_per_txn on list-polka"),
    layer("cm.wait_ns_frac", "ratio", Lower, "txn_p95_us on list-polka, vacation-lazy"),
    // wtm-window
    layer("window.on_begin_ns_per_txn", "ns", Lower, "txn_per_s, txn_p95_us on list-window; 0 elsewhere"),
    layer("window.resolve_ns_per_call", "ns", Lower, "txn_p95_us on list-window; 0 elsewhere"),
    layer("window.windows_per_s", "1/s", Higher, "txn_per_s on list-window; 0 elsewhere"),
    layer("window.contention_estimate", "count", Lower, "frame length on list-window; 0 elsewhere"),
    layer("window.errors", "count", Lower, "must stay 0"),
    // wtm-sim, direct calls without the harness
    layer("sim.run_sim_txn_per_s", "1/s", Higher, "txn_per_s on sim-grid"),
    layer("sim.events_per_s", "1/s", Higher, "txn_per_s on sim-grid"),
    layer("sim.log_overhead_frac", "ratio", Lower, "nothing end to end (logging is off there)"),
    layer("sim.build_scenario_ms", "ms", Lower, "setup_s on sim-grid"),
    layer("sim.replay_s", "s", Lower, "nothing end to end"),
    layer("sim.wall_s.fig2-shape", "s", Lower, "txn_per_s, txn_p95_us on sim-grid"),
    layer("sim.wall_s.clustered", "s", Lower, "txn_per_s, txn_p95_us on sim-grid"),
    layer("sim.wall_s.distributed", "s", Lower, "txn_per_s, txn_p95_us on sim-grid"),
    layer("sim.wall_s.replicated", "s", Lower, "txn_per_s, txn_p95_us on sim-grid"),
    layer("sim.wall_s.crash-recovery", "s", Lower, "txn_per_s, txn_p95_us on sim-grid"),
    layer("sim.sched_s.OneShot", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.sched_s.RandomizedRounds", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.sched_s.Greedy", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.sched_s.Polka", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.sched_s.Online", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.sched_s.Online-Dynamic", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.sched_s.Adaptive-Dynamic", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.sched_s.Offline", "s", Lower, "txn_per_s on sim-grid"),
    layer("sim.commits", "count", Higher, "exact-repeat count"),
    layer("sim.aborts", "count", Lower, "exact-repeat count; txn_per_s on sim-grid"),
    layer("sim.makespan_sum", "count", Lower, "exact-repeat count"),
    layer("sim.zombie_commits", "count", Lower, "exact-repeat count"),
    layer("sim.events", "count", Lower, "exact-repeat count; sim.events_per_s"),
    // wtm-trace and the benchmark's own tracing
    layer("trace.rings_on_ratio", "ratio", Higher, "nothing end to end (rings are off there)"),
    layer("trace.bench_overhead_frac", "ratio", Lower, "nothing end to end; the price of TimedCm"),
];

/// Every per-layer metric in table order, with the value `found` has for
/// it, or 0 where the layer did no work on the workload.
pub fn per_layer_values(found: impl Fn(&str) -> Option<f64>) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|def| (def.name, found(def.name).unwrap_or(0.0)))
        .collect()
}
