//! Multi-thread stress for the epoch reclamation layer.
//!
//! A writer republishes a shared canary object at full speed, retiring
//! each displaced one through [`wtm_stm::epoch`]; reader threads
//! continuously dereference the current canary under an epoch pin. The
//! canary's `Drop` poisons its magic word, so any reclamation that runs
//! while a pinned reader can still reach the object trips the readers'
//! magic assertion (with address reuse the poisoned word is typically
//! overwritten, but the assertion plus the drop-count reconciliation
//! below still catch double frees and lost retirements deterministically).
//!
//! The test also bounds the garbage backlog: with readers pinning and
//! unpinning around every dereference, epoch advance must keep making
//! progress, so retired-but-not-freed objects may not accumulate without
//! bound. This is the liveness half of the reclamation contract — the
//! safety half (no premature free) is the magic word plus the exhaustive
//! interleaving model in `epoch_model.rs`.
//!
//! Everything here runs in one test function: integration tests in one
//! file share the process-global epoch, and a second test's pins would
//! make the backlog bound meaningless.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use wtm_stm::epoch;

const MAGIC: u64 = 0x5ca1_ab1e_c0ff_ee00;
const POISON: u64 = 0xdead_beef_dead_beef;

static DROPS: AtomicUsize = AtomicUsize::new(0);

struct Canary {
    magic: u64,
    seq: u64,
}

impl Drop for Canary {
    fn drop(&mut self) {
        assert_eq!(
            self.magic, MAGIC,
            "canary {} dropped twice or corrupted",
            self.seq
        );
        self.magic = POISON;
        DROPS.fetch_add(1, Ordering::SeqCst);
    }
}

/// Releases the readers when the writer is done — or has panicked: a
/// failed writer assertion used to leave them spinning forever, turning a
/// test failure into a hang with its message swallowed.
struct StopReaders<'a>(&'a AtomicBool);

impl Drop for StopReaders<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn readers_never_observe_reclaimed_canaries() {
    const WRITES: usize = 20_000;
    const READERS: usize = 3;
    // The writer's bag collects every 64 retires; a few batches may pile
    // up while a preempted reader holds a pin, but once the writer yields
    // and the reader unpins, the backlog must drain below this bound.
    const BACKLOG_BOUND: u64 = 1024;

    let shared = Arc::new(AtomicPtr::new(
        Arc::into_raw(Arc::new(Canary {
            magic: MAGIC,
            seq: 0,
        }))
        .cast_mut(),
    ));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let shared = Arc::clone(&shared);
            let done = Arc::clone(&done);
            s.spawn(move || {
                let mut last_seq = 0u64;
                while !done.load(Ordering::Acquire) {
                    let _g = epoch::pin();
                    let p = shared.load(Ordering::Acquire);
                    // SAFETY: `p` was published from `Arc::into_raw` and
                    // is retired only after being unlinked; the pin above
                    // was taken before the load, so the epoch free rule
                    // keeps the allocation alive for this dereference.
                    let c = unsafe { &*p };
                    assert_eq!(c.magic, MAGIC, "reader saw a reclaimed canary");
                    // The single writer publishes in order, so each
                    // reader must observe a non-decreasing sequence.
                    assert!(
                        c.seq >= last_seq,
                        "canary sequence went backwards: {} -> {}",
                        last_seq,
                        c.seq
                    );
                    last_seq = c.seq;
                }
            });
        }

        let _stop = StopReaders(&done);
        let retired_before = epoch::retired_count();
        let freed_before = epoch::freed_count();
        for seq in 1..=WRITES as u64 {
            let fresh = Arc::into_raw(Arc::new(Canary { magic: MAGIC, seq })).cast_mut();
            let prev = shared.swap(fresh, Ordering::AcqRel);
            // SAFETY: `prev` is the unique unlinked publication reference.
            epoch::retire_arc(unsafe { Arc::from_raw(prev) });
            if seq % 256 == 0 {
                // Liveness with bounded patience: a single-CPU scheduler
                // can park a reader mid-pin for a whole writer timeslice,
                // so the backlog is allowed to spike — but it must drain
                // once the writer yields, because readers unpin around
                // every dereference. Only a genuinely stuck pin keeps the
                // backlog high through 10k advance attempts — and only
                // every `QUIESCE_STRIDE`-th quiesce is one. (A yield that
                // finds nothing better to run returns in well under a
                // microsecond, so the bound is a few scheduler timeslices,
                // not seconds: 10k bare quiesce calls went by inside one
                // preempted reader's wait about once in 200 debug runs.)
                let backlog = || {
                    (epoch::retired_count() - retired_before)
                        .saturating_sub(epoch::freed_count() - freed_before)
                };
                let mut patience = 0;
                while backlog() > BACKLOG_BOUND {
                    epoch::quiesce();
                    std::thread::yield_now();
                    patience += 1;
                    assert!(
                        patience < 10_000 * epoch::QUIESCE_STRIDE,
                        "garbage backlog stuck at {} after {} retires",
                        backlog(),
                        seq
                    );
                }
            }
        }
    });

    // Reconciliation: every canary except the still-published last one
    // must eventually drop, once the readers are gone and quiescence
    // drains the bags.
    let mut spins = 0;
    while DROPS.load(Ordering::SeqCst) < WRITES {
        epoch::quiesce();
        spins += 1;
        assert!(spins < 100_000, "retired canaries never drained");
        std::thread::yield_now();
    }
    assert_eq!(DROPS.load(Ordering::SeqCst), WRITES);
    // Alone in this process, the folded accounting is exact: every retire
    // and every free was counted once, whichever shard took the bump.
    assert_eq!(epoch::retired_count(), WRITES as u64);
    assert_eq!(epoch::freed_count(), epoch::retired_count());

    // Drop the final publication and confirm the total: no canary was
    // leaked, none was dropped twice (the Drop impl asserts the magic).
    let last = shared.swap(std::ptr::null_mut(), Ordering::AcqRel);
    // SAFETY: the writer is done; `last` is the unique publication ref.
    drop(unsafe { Arc::from_raw(last) });
    assert_eq!(DROPS.load(Ordering::SeqCst), WRITES + 1);
}
