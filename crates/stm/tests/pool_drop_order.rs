//! Drop-order regression test for thread teardown.
//!
//! A worker thread exits in the middle of a steady transaction loop. At
//! that point its most recent `TxState`s are referenced by three
//! thread-local owners whose destructors run in an order libstd does not
//! specify: the `TxState` pool (`stm.rs`), the reader-slot guard
//! (`slots.rs`, which retires the still-published state), and the epoch
//! participant (`epoch.rs`, which owns the bag those retirements sit
//! in). Whatever the order, nothing may leak: every deferred reference
//! must reach the epoch layer's orphan list and be released by a
//! *surviving* thread's quiescence. The regression this pins down is the
//! pool dropping its slots without flushing the thread's epoch bag — the
//! retired registry references would then sit in a dead thread's TLS
//! forever and the `Weak` upgrades below would never fail.

use std::sync::{Arc, Weak};

use wtm_stm::{epoch, CmDispatch, Stm, TVar, TxState};

/// Quiesce from the surviving thread until `cond` holds (bounded).
fn drain_until(cond: impl Fn() -> bool) -> bool {
    for _ in 0..100_000 {
        if cond() {
            return true;
        }
        epoch::quiesce();
        std::thread::yield_now();
    }
    cond()
}

#[test]
fn exiting_thread_hands_its_deferred_states_to_survivors() {
    let stm = Arc::new(Stm::new(CmDispatch::AbortSelf, 2));
    let tv: TVar<u64> = TVar::new(0);

    // The worker returns a Weak for every attempt it ran; it exits
    // immediately after the last commit, with the final state still
    // published in the registry and earlier retirements still in its
    // epoch bag.
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

    // The worker is gone; only this thread can run quiescence now. Every
    // one of the worker's attempts — including the last, whose registry
    // reference was retired by the slot guard at thread exit — must
    // become unreachable once the orphaned bags drain.
    let all_dead = drain_until(|| weaks.iter().all(|w| w.upgrade().is_none()));
    let alive = weaks.iter().filter(|w| w.upgrade().is_some()).count();
    assert!(
        all_dead,
        "{alive}/8 of the dead thread's TxStates are still reachable — \
         its deferred references leaked instead of draining through the \
         epoch orphan list"
    );
    assert_eq!(
        epoch::orphan_count(),
        0,
        "orphaned bag items must be consumed, not accumulate"
    );

    // The engine itself must still be fully usable from the survivor.
    let ctx = stm.thread(0);
    let v = ctx.atomic(|tx| tx.read(&tv).map(|v| *v));
    assert_eq!(v, 7);
}
