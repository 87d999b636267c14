//! Drop-order regression test for thread teardown.
//!
//! A worker thread exits in the middle of a steady transaction loop. At
//! that point its two most recent `TxState`s are referenced by its
//! `ThreadCtx`'s spare (`stm.rs`), dropped with the context when the
//! worker's closure returns, and by the registry record that the
//! thread-local reader-slot guard withdraws in its destructor
//! (`slots.rs`). Nothing is deferred past the thread: once `join`
//! returns, every state the worker ran is gone, with nothing left for a
//! survivor to collect.

use std::sync::{Arc, Weak};

use wtm_stm::{CmDispatch, Stm, TVar, TxState};

#[test]
fn an_exiting_thread_releases_its_states_before_join_returns() {
    let stm = Arc::new(Stm::new(CmDispatch::AbortSelf, 2));
    let tv: TVar<u64> = TVar::new(0);

    // The worker returns a Weak for every attempt it ran; it exits
    // immediately after the last commit, with the final state still
    // published in the registry and the one before it its context's spare.
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
