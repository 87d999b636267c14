//! Global reader-slot indices and the per-thread transaction registry.
//!
//! The lock-free read path (see [`crate::tvar`]) gives every OS thread a
//! small, stable *slot index*. A `TVar` carries one atomic word per slot
//! index; a reader registers itself on an object by storing its attempt id
//! into its slot — one `SeqCst` store, no lock, no allocation. A writer
//! discovers read-write conflicts by scanning those words.
//!
//! A slot value alone is just a number, so liveness is decided against the
//! **registry**: each slot index has a record publishing the attempt the
//! thread is currently running (`current` id plus the `Arc<TxState>` a
//! contention manager needs). A slot word matches a *live* reader iff its
//! value equals the registry's `current` id for that index and the
//! registered state is still `Active`. Attempt ids are process-global and
//! never reused, so a stale slot can never be mistaken for a live one —
//! even across engine instances or after a slot index is recycled by
//! another thread.
//!
//! ## Lifetime protocol: a lock on the record
//!
//! The record's `Arc<TxState>` sits under a mutex of its own. The owner
//! replaces it under that lock once per attempt (the line is its own, so
//! the lock is uncontended unless a scanner is resolving this very
//! record) and takes the displaced reference back after letting go, to
//! reuse as its next attempt's state or to drop: that drop can release
//! loans whose last handle drops an object, and the object's scan looks
//! this record up again. A scanner checks `current` without
//! the lock, then re-checks the id under it and works on the state there
//! ([`with_live_reader`]), so nothing is deferred and no reference is
//! handed out unless the caller asks for one. Attempt ids are never
//! reused, so a state that is no longer the one for the id asked is
//! rejected, not mistaken.
//!
//! Indices are allocated from a table, lowest-free-first, and released by
//! a thread-local destructor when the thread exits, so long-running
//! processes stay within a compact index range.
//!
//! ## How many words an object carries
//!
//! A `TVar` carries exactly [`slot_capacity`] words when it is created:
//! the floor [`reserve_reader_slots`] raised, or the high-water mark of
//! indices handed out so far, whichever is larger. Nothing pads it past
//! that, because every word is a load in every writer's scan and eight
//! bytes of every object. An engine reserves its worker count *on top of
//! the indices held when it is built* ([`crate::Stm::new`]): lowest-free-
//! first hands n new threads n indices below that sum, so every worker of
//! an engine built before its objects has a word in each of them. A
//! thread whose index lies past an object's array — one past
//! [`MAX_SLOTS`], or one that took an index after the object was sized
//! and above every index reserved for — falls back to the
//! mutex-protected overflow reader list: slower, never wrong. A thread
//! past [`MAX_SLOTS`] has no record either, so [`republish`] hands it no
//! state back and each of its attempts allocates one: the declared slow
//! path.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sync::Mutex;
use crate::txstate::TxState;

/// Upper bound on concurrently registered OS threads with fast-path slots.
pub const MAX_SLOTS: usize = 256;

/// Sentinel index for threads without a slot (all indices taken).
pub(crate) const NO_SLOT: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Attempt ids
// ---------------------------------------------------------------------------

/// Process-global attempt id source. Ids start at 1; 0 is the "empty slot"
/// sentinel. Handed out in thread-local blocks so the hot loop does not
/// contend on one cache line.
static NEXT_ATTEMPT_BLOCK: AtomicU64 = AtomicU64::new(1);

const ATTEMPT_BLOCK: u64 = 1 << 12;

thread_local! {
    /// (next id, end of block) for this thread.
    static ATTEMPT_IDS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// A fresh, process-globally unique attempt id (never 0, never reused).
pub(crate) fn next_attempt_id() -> u64 {
    ATTEMPT_IDS.with(|c| {
        let (next, end) = c.get();
        if next < end {
            c.set((next + 1, end));
            next
        } else {
            let start = NEXT_ATTEMPT_BLOCK.fetch_add(ATTEMPT_BLOCK, Ordering::Relaxed);
            c.set((start + 1, start + ATTEMPT_BLOCK));
            start
        }
    })
}

// ---------------------------------------------------------------------------
// Slot index allocation
// ---------------------------------------------------------------------------

/// Which slot indices live threads hold. Locked once when a thread first
/// asks for its index and once when it exits, so a plain lock does.
static ALLOCATED: Mutex<[bool; MAX_SLOTS]> = Mutex::new([false; MAX_SLOTS]);

/// How many entries of [`ALLOCATED`] are taken, changed under its lock and
/// read without it by [`reserve_reader_slots`].
static HELD: AtomicUsize = AtomicUsize::new(0);

/// The slot-array length of `TVar`s created from now on.
static CAPACITY: Capacity = Capacity::new();

/// Two monotone counts whose maximum is [`slot_capacity`]. Both only
/// grow: an index freed by an exiting thread is handed out again before
/// any higher one, so the objects sized for it still cover its next
/// holder.
struct Capacity {
    /// Raised by [`reserve_reader_slots`].
    floor: AtomicUsize,
    /// `index + 1` over all slot indices ever allocated.
    hwm: AtomicUsize,
}

impl Capacity {
    const fn new() -> Self {
        Capacity {
            floor: AtomicUsize::new(0),
            hwm: AtomicUsize::new(0),
        }
    }

    fn reserve(&self, words: usize) {
        self.floor
            .fetch_max(words.min(MAX_SLOTS), Ordering::Release);
    }

    fn allocated(&self, idx: usize) {
        self.hwm.fetch_max(idx + 1, Ordering::Release);
    }

    fn words(&self) -> usize {
        self.floor
            .load(Ordering::Acquire)
            .max(self.hwm.load(Ordering::Acquire))
            .min(MAX_SLOTS)
    }
}

/// Make `TVar`s created from now on carry a fast-path word for `n`
/// threads that do not hold a slot index yet: the floor rises to the
/// number of indices held now plus `n`. Lowest-free-first hands `n` new
/// threads indices below that sum, whichever indices are held.
///
/// [`crate::Stm::new`] calls this with its worker count, so engines built
/// before their workload give every worker a word in every object, even
/// when the building thread (or any other) already holds an index. A
/// thread that takes an index between this call and the workers' first
/// transactions can push the last worker past the reservation; that
/// worker reads through the overflow list.
///
/// Ordering contract with [`slot_capacity`]: the `Release` max pairs with
/// the `Acquire` loads there, so once any observer sees a `TVar` created
/// after this call returns *through a synchronizing edge*, it also sees
/// the raised floor. In the common single-path case no edge is even
/// needed: `Stm::new` reserves before its worker threads exist, and
/// `thread::spawn`/`scope` already synchronize the spawning thread's
/// writes into the workers. The fallback for a racing thread that still
/// loads a stale floor is benign by construction — its `TVar` merely has
/// fewer fast-path words, and indices beyond an array's length use the
/// mutex-protected overflow list (slower, never wrong).
pub fn reserve_reader_slots(n: usize) {
    CAPACITY.reserve(held_indices().saturating_add(n));
}

/// How many slot indices live threads hold right now.
pub(crate) fn held_indices() -> usize {
    HELD.load(Ordering::Acquire)
}

/// Number of slot words a freshly created `TVar` carries: the reserved
/// floor or the slot high-water mark, whichever is larger, and no more.
pub(crate) fn slot_capacity() -> usize {
    CAPACITY.words()
}

/// Allocate the lowest free slot index.
fn alloc_index() -> usize {
    let mut allocated = ALLOCATED.lock();
    let Some(idx) = allocated.iter().position(|&taken| !taken) else {
        return NO_SLOT;
    };
    allocated[idx] = true;
    HELD.fetch_add(1, Ordering::Release);
    CAPACITY.allocated(idx);
    idx
}

/// Release a slot index. Callers ([`SlotGuard::drop`]) unpublish first,
/// so by the time the index is free every slot word still carrying one
/// of this thread's attempt ids is verifiably dead (its attempts can never
/// be live again — ids are not reused).
fn free_index(idx: usize) {
    let mut allocated = ALLOCATED.lock();
    allocated[idx] = false;
    HELD.fetch_sub(1, Ordering::Release);
}

struct SlotGuard {
    idx: usize,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if self.idx != NO_SLOT {
            // The thread is exiting: clear `current` so every stale slot
            // word is verifiably dead, and release the published state.
            unpublish(self.idx);
            free_index(self.idx);
        }
    }
}

thread_local! {
    static MY_SLOT: SlotGuard = SlotGuard { idx: alloc_index() };
}

/// This OS thread's slot index, allocated on first use ([`NO_SLOT`] if the
/// indices are all taken or the thread is shutting down).
pub(crate) fn my_slot_index() -> usize {
    MY_SLOT.try_with(|g| g.idx).unwrap_or(NO_SLOT)
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One thread's published attempt. Padded to its own cache line: the
/// owner republishes here every transaction, and without the alignment
/// four neighbouring threads' records would share a line and turn every
/// transaction boundary into cross-core traffic.
#[repr(align(128))]
struct ThreadRec {
    /// Attempt id currently running on this slot's thread (0 = none).
    current: AtomicU64,
    /// The matching state, for contention-manager hand-off. Replaced by
    /// the owner and read by scanners, both under the lock.
    state: Mutex<Option<Arc<TxState>>>,
}

impl ThreadRec {
    const fn new() -> Self {
        ThreadRec {
            current: AtomicU64::new(0),
            state: Mutex::new(None),
        }
    }

    /// Install `state` (`None` withdraws) with its id, and return the
    /// displaced reference for the caller to drop after the lock is gone.
    fn replace(&self, state: Option<&Arc<TxState>>) -> Option<Arc<TxState>> {
        let mut slot = self.state.lock();
        let prev = std::mem::replace(&mut *slot, state.cloned());
        self.current
            .store(state.map_or(0, |st| st.attempt_id), Ordering::SeqCst);
        prev
    }
}

static REGISTRY: [ThreadRec; MAX_SLOTS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const R: ThreadRec = ThreadRec::new();
    [R; MAX_SLOTS]
};

/// Withdraw the attempt published on slot `idx` (attempt over) and
/// release the registry's reference to it.
pub(crate) fn unpublish(idx: usize) {
    if idx < MAX_SLOTS {
        drop(REGISTRY[idx].replace(None));
    }
}

/// Publish `state` as the attempt running on slot `idx`, withdrawing
/// whatever the slot still publishes — the previous attempt of this retry
/// loop, or the *committed* attempt of the previous `atomic` call (the
/// commit path leaves it published rather than paying a withdrawal of its
/// own). Must happen before the attempt's first object access: a writer
/// that finds our slot word on an object must be able to resolve it here.
/// The displaced reference is handed back outside the lock: the owner
/// keeps it as its next spare state ([`crate::stm`]). A thread past
/// [`MAX_SLOTS`] has no record, so it is handed nothing.
pub(crate) fn republish(idx: usize, state: &Arc<TxState>) -> Option<Arc<TxState>> {
    REGISTRY.get(idx)?.replace(Some(state))
}

/// Resolve a slot word: run `f` on the state of attempt `attempt_id` on
/// slot `idx`, if that attempt is still the one running there, and
/// `None` otherwise. `f` runs under the record's lock, so it must not
/// drop a `TxState` or an object (a drop can come back here); clone what
/// it needs to keep. A state handed to `f` may have just committed or
/// aborted: the caller still checks its status.
#[inline]
pub(crate) fn with_live_reader<R>(
    idx: usize,
    attempt_id: u64,
    f: impl FnOnce(&Arc<TxState>) -> R,
) -> Option<R> {
    let rec = REGISTRY.get(idx)?;
    if rec.current.load(Ordering::SeqCst) != attempt_id {
        return None;
    }
    // The id is re-checked under the lock: a republish between the load
    // above and the lock installs a newer attempt, never the one asked.
    let state = rec.state.lock();
    state
        .as_ref()
        .filter(|st| st.attempt_id == attempt_id)
        .map(f)
}

/// The state of attempt `attempt_id` on slot `idx`, if that attempt is
/// still the one running there ([`with_live_reader`], cloned out).
pub(crate) fn live_reader(idx: usize, attempt_id: u64) -> Option<Arc<TxState>> {
    with_live_reader(idx, attempt_id, Arc::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockns;

    fn state(attempt_id: u64) -> Arc<TxState> {
        Arc::new(TxState::new(
            attempt_id,
            attempt_id,
            0,
            0,
            attempt_id,
            clockns::now(),
            0,
        ))
    }

    #[test]
    fn attempt_ids_are_unique_across_threads() {
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..1000).map(|_| next_attempt_id()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(before, all.len(), "attempt ids must never repeat");
        assert!(all.iter().all(|&a| a != 0), "0 is the empty-slot sentinel");
    }

    #[test]
    fn slot_indices_are_distinct_while_threads_live() {
        let barrier = std::sync::Barrier::new(4);
        let indices: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let idx = my_slot_index();
                        barrier.wait(); // hold all four slots concurrently
                        idx
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "live threads share a slot: {indices:?}");
    }

    #[test]
    fn registry_roundtrip_and_staleness() {
        let idx = my_slot_index();
        assert_ne!(idx, NO_SLOT);
        let st = state(next_attempt_id());
        republish(idx, &st);
        let got = live_reader(idx, st.attempt_id).expect("published reader is live");
        assert_eq!(got.attempt_id, st.attempt_id);
        assert_eq!(
            with_live_reader(idx, st.attempt_id, |tx| tx.attempt_id),
            Some(st.attempt_id)
        );
        // A different attempt id on the same slot is dead.
        assert!(live_reader(idx, st.attempt_id + 1).is_none());
        unpublish(idx);
        assert!(live_reader(idx, st.attempt_id).is_none());
    }

    #[test]
    fn republish_releases_the_displaced_state_at_once() {
        let idx = my_slot_index();
        assert_ne!(idx, NO_SLOT);
        let first = state(next_attempt_id());
        republish(idx, &first);
        assert_eq!(Arc::strong_count(&first), 2, "registry holds a clone");
        let second = state(next_attempt_id());
        let displaced = republish(idx, &second).expect("the first attempt is handed back");
        assert!(Arc::ptr_eq(&displaced, &first));
        drop(displaced);
        // Old attempt: unresolvable, and its registry reference is gone.
        assert!(live_reader(idx, first.attempt_id).is_none());
        assert_eq!(Arc::strong_count(&first), 1, "nothing is deferred");
        // New attempt: live.
        let got = live_reader(idx, second.attempt_id).expect("republished attempt is live");
        assert_eq!(got.attempt_id, second.attempt_id);
        drop(got);
        unpublish(idx);
        assert!(live_reader(idx, second.attempt_id).is_none());
        assert_eq!(Arc::strong_count(&second), 1, "unpublish releases it too");
    }

    #[test]
    fn a_resolved_state_outlives_the_owners_republish() {
        // The clone a scanner takes under the lock is its own count: the
        // owner moving on releases the registry's, not the scanner's.
        let idx = my_slot_index();
        assert_ne!(idx, NO_SLOT);
        let first = state(next_attempt_id());
        republish(idx, &first);
        let held = live_reader(idx, first.attempt_id).expect("live before republish");
        let second = state(next_attempt_id());
        republish(idx, &second);
        assert_eq!(held.attempt_id, first.attempt_id);
        assert_eq!(
            Arc::strong_count(&held),
            2,
            "the scanner's + the test's own"
        );
        drop(held);
        unpublish(idx);
        assert_eq!(Arc::strong_count(&second), 1);
    }

    #[test]
    fn a_resolver_racing_the_owners_republish_gets_the_id_it_asked_for() {
        // The owner republishes back to back while a second thread
        // resolves each id it publishes: a state comes back only under
        // its own id, and every reference the registry or the resolver
        // took is gone once both are done. The owner waits for the first
        // resolution, so the two overlap however the host schedules them.
        const REPUBLISHES: usize = 100_000;
        let idx = my_slot_index();
        assert_ne!(idx, NO_SLOT);
        let latest = AtomicU64::new(0);
        let resolved = AtomicU64::new(0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let states: Vec<Arc<TxState>> =
            (0..REPUBLISHES).map(|_| state(next_attempt_id())).collect();
        std::thread::scope(|s| {
            let resolver = s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    let id = latest.load(Ordering::Acquire);
                    if let Some(st) = live_reader(idx, id) {
                        assert_eq!(st.attempt_id, id, "a state under another id");
                        resolved.fetch_add(1, Ordering::Release);
                    }
                    let seen = with_live_reader(idx, id, |st| st.attempt_id);
                    assert!(seen.is_none_or(|seen| seen == id));
                }
            });
            for (i, st) in states.iter().enumerate() {
                republish(idx, st);
                latest.store(st.attempt_id, Ordering::Release);
                while i == 0 && resolved.load(Ordering::Acquire) == 0 {
                    assert!(!resolver.is_finished(), "the resolver failed");
                    std::thread::yield_now();
                }
            }
            unpublish(idx);
            done.store(true, Ordering::Release);
        });
        let held = states
            .iter()
            .filter(|st| Arc::strong_count(st) != 1)
            .count();
        assert_eq!(held, 0, "references outlived both threads");
    }

    #[test]
    fn reserve_raises_capacity() {
        reserve_reader_slots(33);
        assert!(slot_capacity() >= 33);
        // Clamped to the hard bound.
        reserve_reader_slots(100_000);
        assert!(slot_capacity() <= MAX_SLOTS);
    }

    #[test]
    fn unreserved_capacity_is_the_high_water_mark() {
        // A fresh count, as the process starts: with nothing reserved an
        // object carries one word per index handed out, no hidden floor.
        let cap = Capacity::new();
        assert_eq!(cap.words(), 0);
        cap.allocated(0);
        cap.allocated(1);
        assert_eq!(cap.words(), 2);
        cap.reserve(5);
        assert_eq!(cap.words(), 5);
        cap.allocated(6);
        assert_eq!(cap.words(), 7);
        cap.reserve(2 * MAX_SLOTS);
        assert_eq!(cap.words(), MAX_SLOTS);
    }
}
