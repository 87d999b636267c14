//! Execute one experiment cell: `(workload, manager, threads, stop rule)`.
//!
//! The runner mirrors the paper's §III setup: `M` worker threads issue a
//! deterministic stream of workload operations, one transaction each,
//! until either a wall-clock deadline (Figs. 2–4: "we run the experiments
//! for 10 seconds") or a shared transaction budget (Fig. 5: "commit 20000
//! transactions") fires. Workers synchronize their start on a barrier so
//! the measured interval is common.
//!
//! The workers read no clock: each checks the shared `stop` flag (and,
//! under a budget, decrements the budget) before every transaction, and
//! the coordinating thread owns the deadline. It sleeps until the timed
//! run's end, or until a budget run's safety deadline, and then sets
//! `stop`; the worker that spends a budget sets `stop` itself and wakes
//! the coordinator, so a budget run returns as soon as its budget is
//! spent.
//!
//! Workloads are resolved by name through the
//! [`wtm_workloads::registry`]; the runner itself knows nothing about any
//! particular benchmark. The registry returns each workload already
//! populated, built in plain memory, so the measured engine and manager
//! run the cell's first transaction.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use wtm_stm::{EngineKind, StatsSnapshot, Stm};
use wtm_workloads::{build_workload, default_key_range, WorkloadParams};

use crate::managers::build_manager;

/// When a run stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopRule {
    /// Run for a fixed wall-clock interval (Figs. 2–4).
    Timed(Duration),
    /// Run until this many transactions committed in total (Fig. 5).
    Budget(u64),
}

/// Full description of one run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Workload name (see [`wtm_workloads::workload_names`]).
    pub workload: String,
    /// Manager name (see [`crate::managers::all_manager_names`]),
    /// optionally parameterized (`Online-Dynamic@phi=2`).
    pub manager: String,
    /// `M`, the number of worker threads.
    pub threads: usize,
    pub stop: StopRule,
    /// Workload size knob: key range for the IntSet workloads, row count
    /// for Vacation. `0` means the registry's per-workload default.
    pub key_range: i64,
    /// Percentage of updating operations (Fig. 5's contention knob).
    pub update_pct: u32,
    /// `N`, transactions per thread per window (window managers only).
    pub window_n: usize,
    /// Which STM engine executes the run: the paper's eager substrate or
    /// the TL2-style lazy backend.
    pub engine: EngineKind,
    pub seed: u64,
    /// Hard wall-clock cap on a [`StopRule::Budget`] run. A pathological
    /// manager/workload combination that cannot reach the commit budget
    /// used to hang the harness forever; now the run stops here, reports
    /// the partial stats, and the outcome is flagged
    /// [`RunOutcome::truncated`]. Generous by default — a healthy budget
    /// run finishes orders of magnitude sooner.
    pub safety_deadline: Duration,
    /// Record transaction events into the trace rings (`wtm_stm::trace`)
    /// for the measured interval (construction runs no transaction to
    /// trace).
    pub trace: bool,
}

impl RunSpec {
    /// A spec with the paper's defaults for the given cell.
    pub fn new(workload: &str, manager: &str, threads: usize, stop: StopRule) -> Self {
        RunSpec {
            key_range: default_key_range(workload).unwrap_or(0),
            workload: workload.to_string(),
            manager: manager.to_string(),
            threads,
            stop,
            update_pct: 100, // Figs. 2–4 use the high-contention config
            window_n: 50,    // the paper's N
            engine: EngineKind::Eager,
            seed: 0xBEEF,
            safety_deadline: Duration::from_secs(60),
            trace: false,
        }
    }
}

/// Aggregated result of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOutcome {
    /// Merged thread counters; `wall` is the measured interval.
    pub stats: StatsSnapshot,
    /// Wall time from the start barrier to the last worker exit.
    pub total_time: Duration,
    /// A budget run hit [`RunSpec::safety_deadline`] before committing its
    /// budget; `stats` are partial and reports must flag the row.
    pub truncated: bool,
    /// Under a window manager, what its boundaries did over the run
    /// (whether a waiter ever parked says how many CPUs an oversubscribed
    /// run really had).
    pub boundaries: Option<wtm_window::BoundaryCounts>,
}

/// Execute the run described by `spec`. Panics on unknown workload or
/// manager names — drivers validate names up front via the registries.
pub fn run_one(spec: &RunSpec) -> RunOutcome {
    let built = build_manager(&spec.manager, spec.threads, spec.window_n, spec.seed)
        .unwrap_or_else(|e| panic!("{e}"));
    let stm = Stm::with_engine(built.cm.clone(), spec.threads, spec.engine);

    let params = WorkloadParams {
        key_range: spec.key_range,
        update_pct: spec.update_pct,
        seed: spec.seed,
        threads: spec.threads,
    };
    // Built populated, in plain memory: no transaction runs before the
    // measured ones, so the engine under test is the only one any object
    // of the run has met.
    let workload = build_workload(&spec.workload, &params)
        .unwrap_or_else(|| panic!("unknown workload {:?}", spec.workload));

    let stop = AtomicBool::new(false);
    let mut truncated = false;
    // The shared commit budget exists only under `StopRule::Budget`, where
    // one shared decrement per transaction is the definition of a global
    // budget. A timed run has nothing to count down: a counter here would
    // be a cache line every worker writes once per transaction, contention
    // the measuring loop itself injects into what it measures.
    let remaining = match spec.stop {
        StopRule::Budget(b) => Some(AtomicI64::new(b.min(i64::MAX as u64) as i64)),
        StopRule::Timed(_) => None,
    };
    // Budget runs used to have no deadline at all: if the budget was
    // unreachable, the harness hung silently forever. The safety deadline
    // bounds them; hitting it marks the outcome as truncated.
    let run_for = match spec.stop {
        StopRule::Timed(d) => d,
        StopRule::Budget(_) => spec.safety_deadline,
    };
    let start_barrier = Barrier::new(spec.threads + 1);

    if spec.trace {
        wtm_stm::trace::set_enabled(true);
    }

    let coordinator = std::thread::current();
    let mut total_time = Duration::ZERO;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(spec.threads);
        for t in 0..spec.threads {
            let ctx = stm.thread(t);
            let stop = &stop;
            let remaining = remaining.as_ref();
            let start_barrier = &start_barrier;
            let workload = &workload;
            let built = &built;
            let coordinator = &coordinator;
            handles.push(s.spawn(move || {
                let mut stream = workload.stream(t);
                start_barrier.wait();
                let t0 = Instant::now();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(budget) = remaining {
                        if budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
                            stop.store(true, Ordering::Relaxed);
                            coordinator.unpark();
                            break;
                        }
                    }
                    stream.step(&ctx);
                }
                // Release any sibling parked at a window barrier; without
                // this, a thread that exits while others wait for the next
                // window would deadlock the run.
                built.cancel();
                t0.elapsed()
            }));
        }
        start_barrier.wait();
        // The deadline is this thread's alone. `park_timeout` may return
        // early (an unpark, or spuriously), so it loops until the
        // deadline passes or a worker has spent the budget; whoever sets
        // `stop` first decides whether a budget run was truncated.
        let deadline = Instant::now() + run_for;
        while !stop.load(Ordering::Relaxed) {
            let now = Instant::now();
            if now >= deadline {
                truncated = !stop.swap(true, Ordering::Relaxed) && remaining.is_some();
                break;
            }
            std::thread::park_timeout(deadline - now);
        }
        for h in handles {
            total_time = total_time.max(h.join().expect("worker panicked"));
        }
    });

    if spec.trace {
        wtm_stm::trace::set_enabled(false);
    }

    if truncated {
        eprintln!(
            "wtm-harness: budget run ({} on {}, {} threads) hit its safety deadline \
             ({:?}) before committing the budget; reporting partial stats",
            spec.workload, spec.manager, spec.threads, spec.safety_deadline,
        );
    }

    let mut stats = stm.aggregate();
    stats.wall = match spec.stop {
        // The common measured interval; workers stop within one
        // transaction of the coordinator's wake-up at the deadline.
        StopRule::Timed(d) => d,
        StopRule::Budget(_) => total_time,
    };
    RunOutcome {
        stats,
        total_time,
        truncated,
        boundaries: built.window.as_ref().map(|w| w.boundary_counts()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtm_workloads::workload_names;

    fn quick_spec(workload: &str, manager: &str, threads: usize) -> RunSpec {
        let mut s = RunSpec::new(
            workload,
            manager,
            threads,
            StopRule::Timed(Duration::from_millis(80)),
        );
        s.window_n = 8;
        s.key_range = 32;
        s
    }

    #[test]
    fn timed_run_commits_on_every_registered_workload() {
        for name in workload_names() {
            let out = run_one(&quick_spec(name, "Greedy", 2));
            assert!(out.stats.commits > 0, "{name} must commit something");
            assert!(out.stats.wall >= Duration::from_millis(80));
        }
    }

    #[test]
    fn lazy_engine_run_commits_on_every_registered_workload() {
        for name in workload_names() {
            let mut spec = quick_spec(name, "Greedy", 2);
            spec.engine = EngineKind::Lazy;
            let out = run_one(&spec);
            assert!(out.stats.commits > 0, "{name} must commit under lazy");
        }
    }

    #[test]
    fn lazy_engine_budget_run_with_window_manager_terminates() {
        let mut spec = quick_spec("SkipList", "Online-Dynamic", 3);
        spec.stop = StopRule::Budget(150);
        spec.engine = EngineKind::Lazy;
        let out = run_one(&spec);
        assert!(out.stats.commits >= 140);
    }

    #[test]
    fn window_manager_run_completes() {
        for manager in ["Online-Dynamic", "Adaptive-Improved-Dynamic"] {
            let out = run_one(&quick_spec("List", manager, 2));
            assert!(out.stats.commits > 0, "{manager}");
        }
    }

    #[test]
    fn parameterized_manager_run_completes() {
        let out = run_one(&quick_spec("List", "Online-Dynamic@phi=2,n=4", 2));
        assert!(out.stats.commits > 0);
    }

    #[test]
    fn budget_run_commits_exactly_budget_or_slightly_more() {
        let mut spec = quick_spec("RBTree", "Polka", 2);
        spec.stop = StopRule::Budget(200);
        let out = run_one(&spec);
        // Each worker checks the budget before issuing, so overshoot is
        // bounded by the thread count.
        assert!(out.stats.commits >= 200 - 2);
        assert!(out.stats.commits <= 200 + 2);
        assert!(out.total_time > Duration::ZERO);
    }

    #[test]
    fn budget_run_with_window_manager_terminates() {
        let mut spec = quick_spec("SkipList", "Online-Dynamic", 3);
        spec.stop = StopRule::Budget(150);
        let out = run_one(&spec);
        assert!(out.stats.commits >= 140);
    }

    #[test]
    fn budget_run_hits_safety_deadline_and_reports_partial() {
        // An effectively unreachable budget: without the safety deadline
        // this run would hang forever.
        let mut spec = quick_spec("List", "Greedy", 2);
        spec.stop = StopRule::Budget(u64::MAX / 2);
        spec.safety_deadline = Duration::from_millis(100);
        let t0 = Instant::now();
        let out = run_one(&spec);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "run must stop at the safety deadline, took {:?}",
            t0.elapsed()
        );
        assert!(out.truncated, "deadline-hit run must be flagged");
        assert!(
            out.stats.commits > 0,
            "partial stats must still be reported"
        );
    }

    #[test]
    fn completed_budget_run_returns_long_before_its_safety_deadline() {
        // The coordinator sleeps toward the 60 s safety deadline; the
        // worker that spends the budget must wake it.
        let mut spec = quick_spec("RBTree", "Polka", 2);
        spec.stop = StopRule::Budget(200);
        assert_eq!(spec.safety_deadline, Duration::from_secs(60));
        let t0 = Instant::now();
        let out = run_one(&spec);
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "a spent budget must end the run, took {:?}",
            t0.elapsed()
        );
        assert!(!out.truncated);
    }

    #[test]
    fn timed_run_stops_promptly() {
        // Workers read no clock; the coordinator's wake-up at the deadline
        // is what stops them.
        let d = Duration::from_millis(80);
        let out = run_one(&quick_spec("List", "Greedy", 2));
        eprintln!(
            "timed run of {d:?}: overshoot {:?}",
            out.total_time.saturating_sub(d)
        );
        assert!(
            out.total_time < d + Duration::from_millis(20),
            "stopped late: {:?}",
            out.total_time
        );
    }

    #[test]
    fn completed_budget_run_is_not_truncated() {
        let mut spec = quick_spec("RBTree", "Polka", 2);
        spec.stop = StopRule::Budget(200);
        let out = run_one(&spec);
        assert!(!out.truncated);
    }
}
