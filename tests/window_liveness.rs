//! Liveness and window-mechanics tests for the window-based managers:
//! every transaction of every window commits, windows cycle, adaptive
//! estimates move, and the barrier protocol survives shutdown.

use std::sync::Arc;
use std::time::Duration;

use windowtm::stm::{EngineKind, Stm, TVar};
use windowtm::window::{WindowConfig, WindowManager, WindowVariant};
use windowtm::workloads::{TxIntSet, TxList};

/// Drive `windows` full windows on `m` threads over a hot list under each
/// engine and check every transaction committed. One manager per engine,
/// labelled `"<variant> on <engine>"`.
fn drive_windows(
    variant: WindowVariant,
    m: usize,
    n: usize,
    windows: usize,
) -> Vec<(String, Arc<WindowManager>)> {
    EngineKind::ALL
        .iter()
        .map(|&engine| {
            let what = format!("{} on {engine}", variant.name());
            let cfg = WindowConfig::new(m, n).with_seed(0xA11CE);
            let wm = Arc::new(WindowManager::new(variant, cfg));
            let stm = Stm::with_engine(wm.clone(), m, engine);
            let list = Arc::new(TxList::new());
            std::thread::scope(|s| {
                for t in 0..m {
                    let ctx = stm.thread(t);
                    let list = Arc::clone(&list);
                    s.spawn(move || {
                        for i in 0..n * windows {
                            let k = ((t * 31 + i * 7) % 24) as i64;
                            ctx.atomic(|tx| {
                                if i % 2 == 0 {
                                    list.insert(tx, k).map(|_| ())
                                } else {
                                    list.remove(tx, k).map(|_| ())
                                }
                            });
                        }
                    });
                }
            });
            wm.cancel();
            assert_eq!(
                stm.aggregate().commits,
                (m * n * windows) as u64,
                "{what}: every issued transaction must commit"
            );
            (what, wm)
        })
        .collect()
}

#[test]
fn every_variant_completes_multiple_windows() {
    for &variant in WindowVariant::all() {
        for (what, wm) in drive_windows(variant, 3, 6, 3) {
            for t in 0..3 {
                assert!(
                    wm.windows_completed(t) >= 2,
                    "{what}: thread {t} should have cycled windows"
                );
            }
        }
    }
}

#[test]
fn every_variant_crosses_window_boundaries_at_one_two_and_eight_threads() {
    // One thread (a barrier of one), as many threads as this host has
    // CPUs, and four times as many: the polling barrier must hand the CPU
    // to the thread it waits for. Four windows each, so three boundaries
    // are crossed with a window's transactions on both sides, under both
    // engines' commit paths.
    for &variant in WindowVariant::all() {
        for m in [1, 2, 8] {
            for (what, wm) in drive_windows(variant, m, 4, 4) {
                let what = format!("{what} at m = {m}");
                assert_eq!(wm.window_error(), None, "{what}");
                for t in 0..m {
                    assert!(wm.windows_completed(t) >= 3, "{what}: thread {t}");
                }
                let counts = wm.boundary_counts();
                assert_eq!(counts.windows_started, 4, "{what}");
                assert_eq!(counts.barrier_timeouts, 0, "{what}");
            }
        }
    }
}

#[test]
fn single_thread_window_degenerates_gracefully() {
    // M = 1: no contention, barrier of one party, q drawn from α(C)≥1.
    drive_windows(WindowVariant::OnlineDynamic, 1, 10, 4);
}

#[test]
fn adaptive_improved_tracks_contention() {
    // Under a hot single counter the CI estimator must push C above its
    // floor on at least one thread... unless the host schedules threads so
    // apart that no aborts happen at all (possible on one core), in which
    // case the estimate legitimately stays at the floor. Accept either,
    // but require the runs to complete and the estimate to stay finite.
    let m = 3;
    let cfg = WindowConfig::new(m, 8).with_seed(99);
    let wm = Arc::new(WindowManager::new(
        WindowVariant::AdaptiveImprovedDynamic,
        cfg,
    ));
    let stm = Stm::new(wm.clone(), m);
    let counter: TVar<u64> = TVar::new(0);
    std::thread::scope(|s| {
        for t in 0..m {
            let ctx = stm.thread(t);
            let counter = counter.clone();
            s.spawn(move || {
                for _ in 0..32 {
                    ctx.atomic(|tx| {
                        let v = *tx.read(&counter)?;
                        // Lengthen the window of vulnerability a little.
                        std::hint::black_box(v);
                        tx.write(&counter, v + 1)
                    });
                }
            });
        }
    });
    wm.cancel();
    assert_eq!(*counter.sample(), (m * 32) as u64);
    for t in 0..m {
        let c = wm.contention_estimate(t);
        assert!(c.is_finite() && c >= 1.0, "estimate must stay sane: {c}");
    }
}

#[test]
fn cancel_before_any_transaction_is_safe() {
    let cfg = WindowConfig::new(2, 4);
    let wm = Arc::new(WindowManager::new(WindowVariant::Online, cfg));
    wm.cancel();
    let stm = Stm::new(wm.clone(), 2);
    // Free mode: transactions still run correctly.
    let v: TVar<u32> = TVar::new(0);
    std::thread::scope(|s| {
        for t in 0..2 {
            let ctx = stm.thread(t);
            let v = v.clone();
            s.spawn(move || {
                for _ in 0..20 {
                    ctx.atomic(|tx| {
                        let x = *tx.read(&v)?;
                        tx.write(&v, x + 1)
                    });
                }
            });
        }
    });
    assert_eq!(*v.sample(), 40);
}

#[test]
fn mid_run_cancel_releases_barrier_waiters() {
    // One thread runs fewer windows than the other; after it exits and
    // cancels, the slower thread's barrier waits must not deadlock.
    let m = 2;
    let cfg = WindowConfig::new(m, 4).with_seed(5);
    let wm = Arc::new(WindowManager::new(WindowVariant::OnlineDynamic, cfg));
    let stm = Stm::new(wm.clone(), m);
    let v: TVar<u64> = TVar::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        {
            let ctx = stm.thread(0);
            let v = v.clone();
            let wm = Arc::clone(&wm);
            let done = &done;
            s.spawn(move || {
                for _ in 0..4 {
                    ctx.atomic(|tx| {
                        let x = *tx.read(&v)?;
                        tx.write(&v, x + 1)
                    });
                }
                done.store(true, std::sync::atomic::Ordering::Release);
                wm.cancel(); // simulate early exit
            });
        }
        {
            let ctx = stm.thread(1);
            let v = v.clone();
            s.spawn(move || {
                for _ in 0..12 {
                    ctx.atomic(|tx| {
                        let x = *tx.read(&v)?;
                        tx.write(&v, x + 1)
                    });
                }
            });
        }
    });
    assert_eq!(*v.sample(), 16);
    assert!(done.load(std::sync::atomic::Ordering::Acquire));
}

#[test]
fn a_body_that_panics_mid_window_cancels_the_barrier_at_once() {
    // Thread 1's first body panics inside window 1 and its thread stops
    // there. Thread 0 runs on into window 2, whose barrier thread 1 will
    // never reach: it must find the barrier cancelled, not wait out the
    // default 5 s timeout.
    let (m, n) = (2, 4);
    let cfg = WindowConfig::new(m, n).with_seed(17);
    let wm = Arc::new(WindowManager::new(WindowVariant::OnlineDynamic, cfg));
    let stm = Stm::new(wm.clone(), m);
    let v: TVar<u64> = TVar::new(0);
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        let panicker = stm.thread(1);
        let v1 = v.clone();
        s.spawn(move || {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                panicker.atomic(|tx| -> windowtm::stm::TxResult<()> {
                    tx.write(&v1, 1000)?;
                    panic!("body gives up mid-window")
                })
            }));
            assert!(unwound.is_err());
        });
        let (ctx, v0) = (stm.thread(0), v.clone());
        s.spawn(move || {
            for _ in 0..3 * n {
                ctx.atomic(|tx| {
                    let x = *tx.read(&v0)?;
                    tx.write(&v0, x + 1)
                });
            }
        });
    });
    let took = t0.elapsed();
    assert_eq!(
        *v.sample(),
        3 * n as u64,
        "the panicked write is rolled back"
    );
    assert!(took < Duration::from_secs(1), "thread 0 waited {took:?}");
    let counts = wm.boundary_counts();
    assert_eq!(counts.barrier_timeouts, 0);
    assert!(counts.free_mode_entries >= 1, "{counts:?}");
    let err = wm.window_error().expect("the abandonment is recorded");
    assert!(
        err.contains("panicked on thread 1"),
        "the error names the thread: {err}"
    );
}

#[test]
fn window_run_respects_fixed_tau_configuration() {
    // With calibration off and a fixed τ, the frame length is exactly
    // phi_factor · ln(MN) · τ.
    let cfg = WindowConfig::new(4, 16).with_fixed_tau(Duration::from_micros(100));
    let expect = cfg.frame_len_ns(100_000.0);
    assert_eq!(expect, cfg.frame_len_ns(cfg.tau_initial.as_nanos() as f64));
    assert!(expect > 0);
}
