//! Drop-order regression test for thread teardown.
//!
//! A worker thread exits in the middle of a steady transaction loop. At
//! that point its most recent `TxState`s are referenced by two
//! thread-local owners whose destructors run in an order libstd does not
//! specify: the `TxState` ring (`stm.rs`) and the reader-slot guard
//! (`slots.rs`, which withdraws the still-published state). Whatever the
//! order, nothing is deferred past the thread: once `join` returns, every
//! state the worker ran is gone, with nothing left for a survivor to
//! collect.

use std::sync::{Arc, Weak};

use wtm_stm::{CmDispatch, Stm, TVar, TxState};

#[test]
fn an_exiting_thread_releases_its_states_before_join_returns() {
    let stm = Arc::new(Stm::new(CmDispatch::AbortSelf, 2));
    let tv: TVar<u64> = TVar::new(0);

    // The worker returns a Weak for every attempt it ran; it exits
    // immediately after the last commit, with the final state still
    // published in the registry and earlier ones parked in its ring.
    let weaks: Vec<Weak<TxState>> = std::thread::scope(|s| {
        s.spawn(|| {
            let ctx = stm.thread(1);
            let mut weaks = Vec::new();
            for i in 0..8u64 {
                ctx.atomic(|tx| {
                    weaks.push(Arc::downgrade(tx.state()));
                    tx.write(&tv, i)
                });
            }
            weaks
        })
        .join()
        .unwrap()
    });
    assert_eq!(weaks.len(), 8);
    let alive = weaks.iter().filter(|w| w.upgrade().is_some()).count();
    assert_eq!(
        alive, 0,
        "{alive}/8 of the exited thread's TxStates are still reachable"
    );

    // The engine itself must still be fully usable from the survivor.
    let ctx = stm.thread(0);
    let v = ctx.atomic(|tx| tx.read(&tv).map(|v| *v));
    assert_eq!(v, 7);
}
