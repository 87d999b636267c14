//! Seeded determinism of the window schedule.
//!
//! The lock-free hot-path rewrite must not change a single scheduling
//! decision: with a fixed seed, the sequence of (assigned frame Fᵢⱼ,
//! rank π₂) pairs each thread produces is a pure function of the
//! per-thread RNG streams and the window protocol, independent of barrier
//! interleaving (Online mode never re-randomizes, and fixed τ keeps frame
//! lengths deterministic). The golden vector below was captured from the
//! mutex-based implementation before the rewrite; this test pins the
//! lock-free implementation to it bit for bit.

use std::sync::Arc;
use std::time::Duration;

use wtm_stm::clockns;
use wtm_stm::{ContentionManager, TxState};
use wtm_window::{WindowConfig, WindowManager, WindowVariant};

/// (assigned frame, rank) per transaction, captured from the pre-rewrite
/// implementation at seed 42, m = 4, n = 4, 2 windows, Online variant.
const GOLDEN: [[(u64, u32); 8]; 4] = [
    [
        (1, 2),
        (2, 4),
        (3, 3),
        (4, 4),
        (1, 1),
        (2, 3),
        (3, 1),
        (4, 4),
    ],
    [
        (1, 2),
        (2, 4),
        (3, 1),
        (4, 3),
        (0, 4),
        (1, 2),
        (2, 3),
        (3, 2),
    ],
    [
        (0, 2),
        (1, 4),
        (2, 2),
        (3, 4),
        (0, 3),
        (1, 2),
        (2, 1),
        (3, 2),
    ],
    [
        (1, 3),
        (2, 2),
        (3, 1),
        (4, 4),
        (1, 1),
        (2, 2),
        (3, 4),
        (4, 4),
    ],
];

#[test]
fn golden_frame_and_rank_sequence_is_stable() {
    let m = 4usize;
    let n = 4usize;
    let windows = 2usize;
    let cfg = WindowConfig::new(m, n)
        .with_seed(42)
        .with_fixed_tau(Duration::from_micros(10));
    let wm = Arc::new(WindowManager::new(WindowVariant::Online, cfg));
    let mut per_thread: Vec<Vec<(u64, u32)>> = vec![Vec::new(); m];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..m)
            .map(|t| {
                let wm = Arc::clone(&wm);
                s.spawn(move || {
                    let mut seq = Vec::new();
                    for i in 0..(windows * n) as u64 {
                        let tx = Arc::new(TxState::new(
                            (t as u64) * 1000 + i + 1,
                            (t as u64) * 1000 + i + 1,
                            t,
                            0,
                            clockns::now(),
                            0,
                        ));
                        wm.on_begin(&tx, false);
                        seq.push((tx.assigned_frame(), tx.rank()));
                        tx.try_commit();
                        tx.set_commit_ns(clockns::now());
                        wm.on_commit(&tx);
                    }
                    seq
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            per_thread[t] = h.join().unwrap();
        }
    });
    wm.cancel();
    for (t, seq) in per_thread.iter().enumerate() {
        assert_eq!(
            seq.as_slice(),
            &GOLDEN[t][..],
            "thread {t}: the seeded (frame, rank) schedule diverged from the \
             pre-rewrite golden vector"
        );
    }
    assert!(
        wm.window_error().is_none(),
        "a healthy 4-thread run must never hit the barrier timeout"
    );
}

#[test]
fn golden_run_is_reproducible_within_the_same_build() {
    // Belt and braces for the golden test: two runs of the same seed in
    // this build agree with each other (catches nondeterminism that
    // happens to drift away from the golden vector and back).
    let run_once = || {
        let cfg = WindowConfig::new(2, 3)
            .with_seed(7)
            .with_fixed_tau(Duration::from_micros(10));
        let wm = Arc::new(WindowManager::new(WindowVariant::Online, cfg));
        let mut out: Vec<Vec<(u64, u32)>> = vec![Vec::new(); 2];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let wm = Arc::clone(&wm);
                    s.spawn(move || {
                        let mut seq = Vec::new();
                        for i in 0..6u64 {
                            let tx = Arc::new(TxState::new(
                                (t as u64) * 1000 + i + 1,
                                (t as u64) * 1000 + i + 1,
                                t,
                                0,
                                clockns::now(),
                                0,
                            ));
                            wm.on_begin(&tx, false);
                            seq.push((tx.assigned_frame(), tx.rank()));
                            tx.try_commit();
                            tx.set_commit_ns(clockns::now());
                            wm.on_commit(&tx);
                        }
                        seq
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                out[t] = h.join().unwrap();
            }
        });
        wm.cancel();
        out
    };
    assert_eq!(run_once(), run_once());
}
