//! A writer's reader scan walks the rows of the slot indices held now, not
//! every index the process ever handed out (`wtm_stm::slots`, "The live
//! bound and its handshake"). A binary of its own: the index table is
//! process-global, and another test's threads would hold indices.
//!
//! Debug builds only: the word count is the `probe` counter.

#![cfg(debug_assertions)]

use std::sync::Barrier;

use wtm_stm::{probe, CmDispatch, Stm, TVar};

/// The width of a past run whose threads have all exited.
const WIDE: usize = 32;
const WORKERS: usize = 2;

#[test]
fn a_scan_walks_only_the_rows_of_held_indices() {
    // A wide run: WIDE threads hold an index at once, then exit. Joined
    // one by one: `join` returns after the thread's exit released its
    // index, the end of a scope need not.
    let wide = Stm::new(CmDispatch::AbortSelf, WIDE);
    let all_hold_one = Barrier::new(WIDE);
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..WIDE)
            .map(|t| {
                let (ctx, all_hold_one) = (wide.thread(t), &all_hold_one);
                s.spawn(move || {
                    ctx.atomic(|_| Ok(()));
                    all_hold_one.wait();
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
    });

    // A narrow engine afterwards: one worker reads the fresh object and
    // commits, then the other opens it for writing while both hold their
    // index.
    let stm = Stm::new(CmDispatch::AbortSelf, WORKERS);
    let fresh = TVar::new(0u64);
    let read = Barrier::new(WORKERS);
    let written = Barrier::new(WORKERS);
    let loads = std::thread::scope(|s| {
        let reader = {
            let (ctx, fresh, read, written) = (stm.thread(1), &fresh, &read, &written);
            s.spawn(move || {
                ctx.atomic(|tx| tx.read(fresh).map(|_| ()));
                read.wait();
                written.wait();
            })
        };
        let ctx = stm.thread(0);
        read.wait();
        let loads = ctx.atomic(|tx| {
            probe::take_scan_word_loads();
            tx.write(&fresh, 1)?;
            Ok(probe::take_scan_word_loads())
        });
        written.wait();
        reader.join().unwrap();
        loads
    });
    assert_eq!(*fresh.sample(), 1);
    // At least the two workers' rows (which shows the counter is live),
    // and slack for a thread of the test harness that holds an index.
    assert!(
        (WORKERS as u64..=(WORKERS + 2) as u64).contains(&loads),
        "a write open loaded {loads} reader words after a {WIDE}-thread run had exited"
    );
}
