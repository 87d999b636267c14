//! The traced run of an STM workload: where a transaction's time goes,
//! layer by layer, measured from outside the crates.
//!
//! Three instruments, none of them in program source: [`TimedCm`], a
//! contention manager that forwards to the real one and times every
//! call; a single-thread calibration on the workload's own engine kind
//! and manager; and `run_one` once more with the `wtm-trace` rings on.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wtm_harness::run_one;
use wtm_stm::{clockns, CmDispatch, ConflictKind, ContentionManager, Resolution, TVar, TxState};

use crate::span::Spans;
use crate::stm_run::{bare_pass, run_spec, set_up};
use crate::summary::Outcome;
use crate::table::{self, StmWorkload, THREADS};

/// One worker's counters; only that worker writes them.
#[repr(align(128))]
#[derive(Default)]
struct Tally {
    resolve_calls: AtomicU64,
    resolve_ns: AtomicU64,
    abort_self: AtomicU64,
    abort_enemy: AtomicU64,
    retry: AtomicU64,
    begin_ns: AtomicU64,
    /// `on_open` + `on_commit` + `on_abort`.
    other_hooks_ns: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Relaxed) + by, Relaxed);
}

/// Forwards every call to the built manager and accumulates, per
/// thread, call counts, nanoseconds and verdict kinds.
pub struct TimedCm {
    inner: CmDispatch,
    tallies: Box<[Tally]>,
}

#[derive(Default)]
pub struct CmTotals {
    pub resolve_calls: u64,
    pub resolve_ns: u64,
    pub abort_self: u64,
    pub abort_enemy: u64,
    pub retry: u64,
    pub begin_ns: u64,
    pub other_hooks_ns: u64,
}

impl TimedCm {
    pub fn new(inner: CmDispatch, threads: usize) -> Self {
        TimedCm {
            inner,
            tallies: (0..threads).map(|_| Tally::default()).collect(),
        }
    }

    pub fn totals(&self) -> CmTotals {
        let mut t = CmTotals::default();
        for c in self.tallies.iter() {
            t.resolve_calls += c.resolve_calls.load(Relaxed);
            t.resolve_ns += c.resolve_ns.load(Relaxed);
            t.abort_self += c.abort_self.load(Relaxed);
            t.abort_enemy += c.abort_enemy.load(Relaxed);
            t.retry += c.retry.load(Relaxed);
            t.begin_ns += c.begin_ns.load(Relaxed);
            t.other_hooks_ns += c.other_hooks_ns.load(Relaxed);
        }
        t
    }

    fn hook(&self, tx: &TxState, f: impl FnOnce(&CmDispatch)) {
        let t0 = clockns::now();
        f(&self.inner);
        bump(
            &self.tallies[tx.thread_id].other_hooks_ns,
            clockns::now() - t0,
        );
    }
}

impl ContentionManager for TimedCm {
    fn resolve(&self, me: &TxState, enemy: &TxState, kind: ConflictKind) -> Resolution {
        let t0 = clockns::now();
        let verdict = self.inner.resolve(me, enemy, kind);
        let tally = &self.tallies[me.thread_id];
        bump(&tally.resolve_ns, clockns::now() - t0);
        bump(&tally.resolve_calls, 1);
        bump(
            match verdict {
                Resolution::AbortSelf => &tally.abort_self,
                Resolution::AbortEnemy => &tally.abort_enemy,
                Resolution::Retry => &tally.retry,
            },
            1,
        );
        verdict
    }

    fn on_begin(&self, tx: &Arc<TxState>, is_retry: bool) {
        let t0 = clockns::now();
        self.inner.on_begin(tx, is_retry);
        bump(&self.tallies[tx.thread_id].begin_ns, clockns::now() - t0);
    }

    fn on_open(&self, tx: &TxState) {
        self.hook(tx, |cm| cm.on_open(tx));
    }

    fn on_commit(&self, tx: &TxState) {
        self.hook(tx, |cm| cm.on_commit(tx));
    }

    fn on_abort(&self, tx: &TxState) {
        self.hook(tx, |cm| cm.on_abort(tx));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// What the single-thread calibration found.
struct Calibration {
    step_ns_1t: f64,
    opens_per_txn: f64,
    writes_per_txn: f64,
    empty_txn_ns: f64,
    read_ns_per_open: f64,
    write_ns_per_open: f64,
}

fn calibrate(def: &StmWorkload, seed: u64, steps: u64) -> Calibration {
    let (rig, _) = set_up(def, seed, 1, |cm| cm);
    let mut stream = rig.workload.stream(0);
    let step_ns_1t = {
        let ctx = rig.stm.thread(0);
        let t0 = Instant::now();
        for _ in 0..steps {
            stream.step(&ctx);
        }
        t0.elapsed().as_nanos() as f64 / steps as f64
    };
    let stats = rig.stm.aggregate();
    let ctx = rig.stm.thread(0);

    // The committed footprints of a sample of steps give the write share.
    let sample = (steps / 100).max(1);
    let writes: usize = (0..sample)
        .map(|_| stream.step_traced(&ctx).iter().filter(|(_, w)| *w).count())
        .sum();

    // Engine cost on private objects: nothing else touches them, so the
    // difference between 33 and 1 reads (9 and 1 writes) is per-open cost.
    let reads: Vec<TVar<u64>> = (0..33).map(TVar::new).collect();
    let written: Vec<TVar<u64>> = (0..9).map(TVar::new).collect();
    let iters = (steps / 4).max(1);
    let probe = |r: usize, w: usize| {
        let t0 = Instant::now();
        for i in 0..iters {
            ctx.atomic(|tx| {
                for v in &reads[..r] {
                    std::hint::black_box(tx.read(v)?);
                }
                for v in &written[..w] {
                    tx.write(v, i)?;
                }
                Ok(())
            });
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    let empty_txn_ns = probe(0, 0);
    let read_ns_per_open = (probe(33, 0) - probe(1, 0)) / 32.0;
    let write_ns_per_open = (probe(0, 9) - probe(0, 1)) / 8.0;
    rig.built.cancel();
    Calibration {
        step_ns_1t,
        opens_per_txn: stats.opens as f64 / stats.commits.max(1) as f64,
        writes_per_txn: writes as f64 / sample as f64,
        empty_txn_ns,
        read_ns_per_open,
        write_ns_per_open,
    }
}

/// `a / b`, 0 when `b` is 0.
fn per(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

pub fn traced(
    def: &StmWorkload,
    seed: u64,
    seconds: f64,
    steps: u64,
    spans: &mut Spans,
) -> Outcome {
    let mut out = Outcome::default();
    // Four timed passes: TimedCm on, TimedCm off, run_one rings off and on.
    let pass = Duration::from_secs_f64(seconds / 4.0);
    let threads = THREADS as f64;
    let rep = spans.open("rep", None);

    // Set-up, one span per public call; the rig it builds runs `measure`.
    let mut timed = None;
    let t0 = Instant::now();
    let (rig, times) = set_up(def, seed, THREADS, |cm| {
        let t = Arc::new(TimedCm::new(cm, THREADS));
        timed = Some(t.clone());
        CmDispatch::Dyn(t)
    });
    let timed = timed.expect("set_up wraps the manager");
    let mut at = spans.at(t0);
    for (name, s) in [
        ("setup.build_manager", times.manager_s),
        ("setup.build_workload", times.workload_s),
        ("setup.prepopulate", times.prepopulate_s),
    ] {
        let end = at + (s * 1e9) as u64;
        spans.add(name, Some(rep), 0, at, end);
        at = end;
    }

    let cal = spans.timed("calibrate", Some(rep), || calibrate(def, seed, steps));

    let measure = spans.open("measure", Some(rep));
    let traced = bare_pass(&rig, pass);
    spans.close(measure);
    for (t, l) in traced.threads.iter().enumerate() {
        let (a, b) = (spans.at(l.start), spans.at(l.end));
        let id = spans.add("thread.loop", Some(measure), 1 + t as u32, a, b);
        spans.arg(id, "steps", l.steps as f64);
        spans.arg(id, "step_ns_sum", l.hist.mean_ns() * l.hist.count() as f64);
    }
    traced.check(&rig, "measure", &mut out);

    let id = spans.open("stats.aggregate", Some(rep));
    let cm = timed.totals();
    let window = rig.built.window.as_ref().map(|w| {
        let done: u64 = (0..THREADS).map(|t| w.windows_completed(t)).sum();
        let estimate: f64 = (0..THREADS).map(|t| w.contention_estimate(t)).sum();
        (done, estimate / threads, w.window_error().is_some())
    });
    spans.close(id);
    drop(rig);

    let (rig, _) = set_up(def, seed, THREADS, |cm| cm);
    let id = spans.open("reference", Some(rep));
    let bare = bare_pass(&rig, pass);
    spans.close(id);
    bare.check(&rig, "reference", &mut out);
    drop(rig);

    let id = spans.open("run_one.rings_off", Some(rep));
    let off = run_one(&run_spec(def, seed, pass, false));
    spans.close(id);
    let id = spans.open("run_one.rings_on", Some(rep));
    let on = run_one(&run_spec(def, seed, pass, true));
    spans.close(id);
    spans.close(rep);
    for (label, o) in [("rings off", &off), ("rings on", &on)] {
        out.attempted += o.stats.commits;
        if o.truncated || o.stats.commits == 0 {
            out.fail(
                o.stats.commits.max(1),
                format!("run_one {label}: truncated or no commits"),
            );
        }
    }

    let txns = traced.steps() as f64;
    let bare_hist = bare.hist();
    let step_ns_2t = bare_hist.mean_ns();
    let (txn_per_s, bare_txn_per_s) = (off.stats.throughput(), bare.txn_per_s());
    let st = off.stats;
    let commits = st.commits as f64;
    let resolve_ns_per_txn = per(cm.resolve_ns as f64, txns);
    let hooks_ns_per_txn = per((cm.begin_ns + cm.other_hooks_ns) as f64, txns);
    let modelled_engine_ns = cal.empty_txn_ns
        + (cal.opens_per_txn - cal.writes_per_txn).max(0.0) * cal.read_ns_per_open
        + cal.writes_per_txn * cal.write_ns_per_open;
    let verdicts = cm.resolve_calls as f64;
    let is_window = window.is_some();
    let (windows_done, estimate, window_error) = window.unwrap_or((0, 0.0, false));

    let m: Vec<(&str, f64)> = vec![
        ("harness.bare_txn_per_s", bare_txn_per_s),
        (
            "harness.loop_ns_per_txn",
            threads * (1e9 / txn_per_s - 1e9 / bare_txn_per_s),
        ),
        ("workloads.opens_per_txn", cal.opens_per_txn),
        ("workloads.step_ns_1t", cal.step_ns_1t),
        (
            "workloads.residual_ns_per_txn",
            step_ns_2t - resolve_ns_per_txn - hooks_ns_per_txn - modelled_engine_ns,
        ),
        ("workloads.build_s", times.workload_s),
        ("workloads.prepopulate_s", times.prepopulate_s),
        ("stm.empty_txn_ns", cal.empty_txn_ns),
        ("stm.read_ns_per_open", cal.read_ns_per_open),
        ("stm.write_ns_per_open", cal.write_ns_per_open),
        ("stm.contention_ns_per_txn", step_ns_2t - cal.step_ns_1t),
        (
            "stm.scaling_eff",
            txn_per_s / (threads * 1e9 / cal.step_ns_1t),
        ),
        ("stm.aborts_per_commit", st.aborts_per_commit()),
        ("stm.commit_ratio", per(commits, commits + st.aborts as f64)),
        (
            "stm.conflicts_per_commit",
            per(st.conflicts() as f64, commits),
        ),
        (
            "stm.repeat_conflict_frac",
            per(st.repeat_conflicts as f64, st.conflicts() as f64),
        ),
        ("stm.wasted_work_frac", st.wasted_work()),
        ("stm.txn_p99_us", bare_hist.quantile_ns(0.99) / 1e3),
        ("stm.txn_p999_us", bare_hist.quantile_ns(0.999) / 1e3),
        ("cm.resolve_calls_per_txn", per(verdicts, txns)),
        (
            "cm.resolve_ns_per_call",
            per(cm.resolve_ns as f64, verdicts),
        ),
        ("cm.resolve_ns_per_txn", resolve_ns_per_txn),
        ("cm.hooks_ns_per_txn", hooks_ns_per_txn),
        ("cm.abort_self_frac", per(cm.abort_self as f64, verdicts)),
        ("cm.abort_enemy_frac", per(cm.abort_enemy as f64, verdicts)),
        ("cm.retry_frac", per(cm.retry as f64, verdicts)),
        (
            "cm.wait_ns_frac",
            st.wait_ns as f64 / (threads * st.wall.as_nanos() as f64),
        ),
        (
            "window.on_begin_ns_per_txn",
            if is_window {
                per(cm.begin_ns as f64, txns)
            } else {
                0.0
            },
        ),
        (
            "window.resolve_ns_per_call",
            if is_window {
                per(cm.resolve_ns as f64, verdicts)
            } else {
                0.0
            },
        ),
        (
            "window.windows_per_s",
            windows_done as f64 / pass.as_secs_f64(),
        ),
        ("window.contention_estimate", estimate),
        ("window.errors", f64::from(u8::from(window_error))),
        ("trace.rings_on_ratio", on.stats.throughput() / txn_per_s),
        (
            "trace.bench_overhead_frac",
            1.0 - traced.txn_per_s() / bare_txn_per_s,
        ),
    ];
    // The simulator's and the executor's metrics read 0 on an STM workload.
    out.metrics =
        table::per_layer_values(|name| m.iter().find(|(n, _)| *n == name).map(|(_, v)| *v));
    out
}
