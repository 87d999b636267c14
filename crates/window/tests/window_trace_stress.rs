//! Multi-thread stress of the lock-free dynamic frame clock, checked
//! through the trace layer: every executed window must drain and contract
//! to the end of its schedule, the window barrier must never time out
//! when `m` matches the thread count and is waited at once per window per
//! thread, each thread's windows must start at generations 1, 2, … in
//! order, and the who-killed-whom accounting
//! must balance (every contention-manager kill recorded in the conflict
//! stream corresponds to exactly one abort of the matching reason).

use std::sync::Arc;

use wtm_stm::{Stm, TVar};
use wtm_trace::collect::ConflictMatrix;
use wtm_trace::{unpack_conflict, EventKind};
use wtm_window::{WindowConfig, WindowManager, WindowRun, WindowVariant};

#[test]
fn online_dynamic_contraction_and_kill_accounting_under_contention() {
    const M: usize = 4;
    const N: usize = 8;
    const TXNS_PER_THREAD: u64 = 64; // 8 windows per thread

    wtm_trace::reset();
    wtm_trace::set_enabled(true);

    let cfg = WindowConfig::new(M, N).with_seed(1234);
    let wm = Arc::new(WindowManager::new(WindowVariant::OnlineDynamic, cfg));
    let stm = Stm::new(wm.clone(), M);
    // Two shared counters: every transaction touches both, so most
    // attempts conflict and the contention manager works hard.
    let a: TVar<u64> = TVar::new(0);
    let b: TVar<u64> = TVar::new(0);

    // Every dynamic frame clock any thread ever ran under, deduplicated
    // by pointer so each barrier generation is checked once.
    let runs: Vec<Arc<WindowRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..M)
            .map(|t| {
                let ctx = stm.thread(t);
                let wm = Arc::clone(&wm);
                let a = a.clone();
                let b = b.clone();
                s.spawn(move || {
                    let mut seen: Vec<Arc<WindowRun>> = Vec::new();
                    for _ in 0..TXNS_PER_THREAD {
                        ctx.atomic(|tx| {
                            let va = *tx.read(&a)?;
                            let vb = *tx.read(&b)?;
                            tx.write(&a, va + 1)?;
                            tx.write(&b, vb + 1)
                        });
                        if let Some(run) = wm.current_run(t) {
                            if !seen.iter().any(|r| Arc::ptr_eq(r, &run)) {
                                seen.push(run);
                            }
                        }
                    }
                    seen
                })
            })
            .collect();
        let mut all: Vec<Arc<WindowRun>> = Vec::new();
        for h in handles {
            for run in h.join().unwrap() {
                if !all.iter().any(|r| Arc::ptr_eq(r, &run)) {
                    all.push(run);
                }
            }
        }
        all
    });
    wm.cancel();
    wtm_trace::set_enabled(false);

    assert_eq!(
        *a.sample(),
        M as u64 * TXNS_PER_THREAD,
        "every transaction must commit exactly once"
    );
    assert!(
        wm.window_error().is_none(),
        "no barrier may time out when m matches the thread count"
    );

    // The contraction invariant, across every window generation observed:
    // each executed window drained every registration and its cursor
    // contracted exactly to the end of the schedule.
    let dynamic_runs: Vec<_> = runs.iter().filter(|r| r.is_dynamic()).collect();
    assert!(
        !dynamic_runs.is_empty(),
        "an Online-Dynamic workload must have run under dynamic frame clocks"
    );
    for run in &dynamic_runs {
        assert!(
            run.outstanding() == 0 && run.current_frame() == run.high_water(),
            "a dynamic window ended with pending work or an unfinished clock: {run:?}"
        );
    }

    assert_eq!(wtm_trace::dropped_total(), 0, "ring buffers must not wrap");
    let events = wtm_trace::drain();

    // No window barrier timed out (outcome word of BarrierWait spans).
    let timed_out = events
        .iter()
        .filter(|e| e.kind == EventKind::BarrierWait && e.b == wtm_trace::BARRIER_TIMED_OUT)
        .count();
    assert_eq!(timed_out, 0, "no BARRIER_TIMED_OUT events expected");

    // A window boundary is one barrier: each thread waited exactly once
    // per window it started, with the phase word at 0, and the manager's
    // own boundary counters tell the same story.
    let windows = TXNS_PER_THREAD / N as u64;
    for t in 0..M as u32 {
        let of = |kind| events.iter().filter(move |e| e.kind == kind && e.tid == t);
        assert_eq!(of(EventKind::WindowStart).count() as u64, windows);
        // The barrier generation is the completed-window count plus one.
        let generations: Vec<u64> = of(EventKind::WindowStart).map(|e| e.a).collect();
        assert_eq!(
            generations,
            (1..=windows).collect::<Vec<_>>(),
            "thread {t}: window generations in order"
        );
        assert_eq!(
            of(EventKind::BarrierWait).count() as u64,
            windows,
            "thread {t}: one BarrierWait span per window"
        );
        assert!(of(EventKind::BarrierWait).all(|e| e.a == 0 && e.b == wtm_trace::BARRIER_RELEASED));
    }
    let counts = wm.boundary_counts();
    assert_eq!(counts.windows_started, windows);
    assert_eq!(counts.barrier_timeouts, 0);
    assert_eq!(
        counts.free_mode_entries, 0,
        "nobody began a txn after cancel"
    );

    // The dynamic clock advanced and said so.
    let advances = events
        .iter()
        .filter(|e| e.kind == EventKind::FrameAdvance)
        .count();
    assert!(advances > 0, "dynamic contraction must emit FrameAdvance");

    // Who-killed-whom bookkeeping balances: each AbortSelf verdict in the
    // conflict stream produced exactly one ABORT_CM_SELF abort, no thread
    // ever kills itself, and the matrix total equals the killed-verdict
    // conflict count it is built from.
    let matrix = ConflictMatrix::from_events(&events, M);
    for t in 0..M {
        assert_eq!(matrix.get(t, t), 0, "thread {t} cannot kill itself");
    }
    let killed_conflicts = events
        .iter()
        .filter(|e| e.kind == EventKind::Conflict && unpack_conflict(e.b).2)
        .count() as u64;
    assert_eq!(
        matrix.total(),
        killed_conflicts,
        "every killed-verdict conflict must land in the matrix"
    );
    let self_abort_verdicts = events
        .iter()
        .filter(|e| {
            e.kind == EventKind::Conflict && {
                let (_, verdict, killed) = unpack_conflict(e.b);
                killed && verdict == wtm_trace::VERDICT_ABORT_SELF
            }
        })
        .count();
    let cm_self_aborts = events
        .iter()
        .filter(|e| e.kind == EventKind::Abort && e.b == wtm_trace::ABORT_CM_SELF)
        .count();
    assert_eq!(
        self_abort_verdicts, cm_self_aborts,
        "each AbortSelf verdict must record exactly one ABORT_CM_SELF abort"
    );
}
