//! One repetition of an STM workload, end to end: pass A through
//! `run_one` (the path users run), pass B the benchmark's own bare loop
//! over `OpStream::step` with one clock read per step.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use wtm_harness::{build_manager, run_one, BuiltManager, RunSpec, StopRule};
use wtm_stm::{CmDispatch, Stm};
use wtm_workloads::{build_workload, Workload, WorkloadParams};

use crate::hist::Hist;
use crate::summary::{median, Outcome};
use crate::table::{self, StmWorkload, THREADS, WINDOW_N};

pub fn run_spec(def: &StmWorkload, seed: u64, stop: Duration, trace: bool) -> RunSpec {
    RunSpec {
        key_range: def.key_range,
        update_pct: def.update_pct,
        window_n: WINDOW_N,
        engine: def.engine,
        seed,
        trace,
        ..RunSpec::new(def.workload, def.manager, THREADS, StopRule::Timed(stop))
    }
}

/// A manager, an engine and a prepopulated workload, built the way
/// `run_one` builds them.
pub struct Rig {
    pub built: BuiltManager,
    pub stm: Stm,
    pub workload: Box<dyn Workload>,
}

#[derive(Clone, Copy)]
pub struct SetupTimes {
    pub manager_s: f64,
    /// `Stm::with_engine` + `build_workload`.
    pub workload_s: f64,
    pub prepopulate_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.manager_s + self.workload_s + self.prepopulate_s
    }
}

/// Build a rig for `threads` workers; `wrap` may put an instrument
/// around the manager before the engine takes it.
pub fn set_up(
    def: &StmWorkload,
    seed: u64,
    threads: usize,
    wrap: impl FnOnce(CmDispatch) -> CmDispatch,
) -> (Rig, SetupTimes) {
    let t0 = Instant::now();
    let built = build_manager(def.manager, threads, WINDOW_N, seed)
        .unwrap_or_else(|e| panic!("workload table names a bad manager: {e}"));
    let t1 = Instant::now();
    let stm = Stm::with_engine(wrap(built.cm.clone()), threads, def.engine);
    let params = WorkloadParams {
        key_range: def.key_range,
        update_pct: def.update_pct,
        seed,
        threads,
    };
    let workload = build_workload(def.workload, &params)
        .unwrap_or_else(|| panic!("workload table names unknown workload {}", def.workload));
    let t2 = Instant::now();
    {
        let prep = Stm::with_engine(CmDispatch::AbortSelf, 1, def.engine);
        workload.prepopulate(&prep.thread(0));
    }
    let t3 = Instant::now();
    let rig = Rig {
        built,
        stm,
        workload,
    };
    let times = SetupTimes {
        manager_s: (t1 - t0).as_secs_f64(),
        workload_s: (t2 - t1).as_secs_f64(),
        prepopulate_s: (t3 - t2).as_secs_f64(),
    };
    (rig, times)
}

/// One worker's side of a bare pass.
pub struct ThreadLoop {
    pub steps: u64,
    pub start: Instant,
    pub end: Instant,
    /// Step response times, the leading [`table::DROP_LEADING`] left out.
    pub hist: Hist,
}

pub struct BarePass {
    pub threads: Vec<ThreadLoop>,
    /// Commits the engine counted over the pass.
    pub commits: u64,
}

impl BarePass {
    pub fn steps(&self) -> u64 {
        self.threads.iter().map(|t| t.steps).sum()
    }

    pub fn txn_per_s(&self) -> f64 {
        let wall = self
            .threads
            .iter()
            .map(|t| t.end - t.start)
            .max()
            .unwrap_or_default();
        self.steps() as f64 / wall.as_secs_f64()
    }

    pub fn hist(&self) -> Hist {
        let mut all = Hist::new();
        for t in &self.threads {
            all.merge(&t.hist);
        }
        all
    }

    /// The per-rep output checks; failures are charged to the pass's steps.
    pub fn check(&self, rig: &Rig, label: &str, out: &mut Outcome) {
        out.attempted += self.steps();
        if self.commits != self.steps() {
            out.fail(
                self.steps().abs_diff(self.commits),
                format!(
                    "{label}: {} steps but {} commits",
                    self.steps(),
                    self.commits
                ),
            );
        }
        if let Some(e) = rig.built.window.as_ref().and_then(|w| w.window_error()) {
            out.fail(self.steps(), format!("{label}: window error: {e}"));
        }
    }
}

/// Closed loop, one worker per engine slot, `dur` long: step, read the
/// clock once, record the time since the previous step ended.
pub fn bare_pass(rig: &Rig, dur: Duration) -> BarePass {
    let threads = rig.stm.num_threads();
    let before = rig.stm.aggregate().commits;
    let barrier = Barrier::new(threads);
    let loops = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = &barrier;
                s.spawn(move || {
                    let ctx = rig.stm.thread(t);
                    let mut stream = rig.workload.stream(t);
                    let mut hist = Hist::new();
                    let mut steps = 0u64;
                    barrier.wait();
                    let start = Instant::now();
                    let record_from = start + dur.mul_f64(table::DROP_LEADING);
                    let deadline = start + dur;
                    let mut prev = start;
                    loop {
                        stream.step(&ctx);
                        let now = Instant::now();
                        steps += 1;
                        if now >= record_from {
                            hist.record((now - prev).as_nanos() as u64);
                        }
                        prev = now;
                        if now >= deadline {
                            break;
                        }
                    }
                    // Release a sibling parked at a window barrier.
                    rig.built.cancel();
                    ThreadLoop {
                        steps,
                        start,
                        end: prev,
                        hist,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });
    BarePass {
        threads: loops,
        commits: rig.stm.aggregate().commits - before,
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of up to [`table::SETUP_SAMPLES`] set-up times: `first`, then
/// fresh ones while [`table::SETUP_BUDGET_SECONDS`] lasts.
pub fn setup_seconds(first: f64, mut set_up_once: impl FnMut() -> f64) -> f64 {
    let mut samples = vec![first];
    while samples.len() < table::SETUP_SAMPLES
        && samples.iter().sum::<f64>() < table::SETUP_BUDGET_SECONDS
    {
        samples.push(set_up_once());
    }
    median(&samples)
}

/// One repetition, in a process of its own: pass A through `run_one`,
/// pass B the bare loop, each `pass` long.
pub fn rep(def: &StmWorkload, seed: u64, rep: u64, pass: Duration) -> Outcome {
    let mut out = Outcome::default();
    let seed = seed.wrapping_add(rep);
    let (mut txn_per_s, mut p50, mut p95, mut setup) = (0.0, 0.0, 0.0, 0.0);

    // Warm-up, discarded: first-touch page faults, allocator arenas, the
    // coarse clock's calibration.
    let warmup = Duration::from_secs_f64(table::WARMUP_SECONDS).min(pass);
    run_one(&run_spec(def, seed, warmup, false));

    let mut pass_a = |out: &mut Outcome| {
        let a = run_one(&run_spec(def, seed, pass, false));
        out.attempted += a.stats.commits;
        if a.truncated || a.stats.commits == 0 {
            out.fail(
                a.stats.commits.max(1),
                "pass A: truncated or no commits".into(),
            );
        }
        txn_per_s = a.stats.throughput();
    };
    let mut pass_b = |out: &mut Outcome| {
        let (rig, times) = set_up(def, seed, THREADS, |cm| cm);
        setup = times.total();
        let b = bare_pass(&rig, pass);
        b.check(&rig, "pass B", out);
        let hist = b.hist();
        p50 = hist.quantile_ns(0.50) / 1e3;
        p95 = hist.quantile_ns(0.95) / 1e3;
    };
    // Alternate which pass runs first, so neither always inherits the
    // other's cache and allocator state.
    if rep.is_multiple_of(2) {
        pass_a(&mut out);
        pass_b(&mut out);
    } else {
        pass_b(&mut out);
        pass_a(&mut out);
    }
    let setup = setup_seconds(setup, || set_up(def, seed, THREADS, |cm| cm).1.total());
    out.metrics = vec![
        ("txn_per_s", txn_per_s),
        ("txn_p50_us", p50),
        ("txn_p95_us", p95),
        ("setup_s", setup),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    out
}
