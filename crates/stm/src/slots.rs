//! Global reader-slot indices, the reader rows, and the per-thread
//! transaction registry.
//!
//! The lock-free read path (see [`crate::tvar`]) gives every OS thread a
//! small, stable *slot index*. Each index owns a **row**: one atomic word
//! per object *position*, a dense `u32` every `TVar` draws when it is
//! built. A reader registers itself on an object by storing its attempt id
//! into its own row's word at the object's position — one `SeqCst` store,
//! no lock, no allocation. A writer discovers read-write conflicts by
//! loading the object's word in every live row.
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
//! (`with_live_reader`), so nothing is deferred and no reference is
//! handed out unless the caller asks for one. Attempt ids are never
//! reused, so a state that is no longer the one for the id asked is
//! rejected, not mistaken.
//!
//! Indices are allocated from a table, lowest-free-first, and released by
//! a thread-local destructor when the thread exits, so long-running
//! processes stay within a compact index range.
//!
//! ## Reader rows
//!
//! Thread t's words for neighbouring positions share t's cache lines and
//! no other reader's, so a visible read writes a line nobody else writes;
//! two readers of one object store into two rows, never one line. The
//! words live outside the objects, so an object costs no allocation of
//! its own for them and no object's words follow the widest engine the
//! process ever ran.
//!
//! * **Segments.** A row is cut into fixed segments of `SEGMENT_WORDS`
//!   words (4 KiB), one heap block each, addressed through a static
//!   table of segment pointers by (segment, index). Segments never move,
//!   shrink or go away, and the table's one lock installs them: when the
//!   position space grows, a new segment for every held index; when an
//!   index is handed out, every segment it lacks. So a thread holding an
//!   index finds a segment for every position an object was built with,
//!   and a read open is one segment-pointer load plus the store.
//! * **Positions.** A thread draws positions from a thread-local cache
//!   refilled in blocks of `POSITION_BLOCK` from the table's free list
//!   (objects built together get neighbouring positions). An object's
//!   drop returns its position to the dropping thread's cache, and a
//!   thread's exit returns the cache to the table, so the position space
//!   is as wide as the most objects alive at once. Past
//!   `MAX_POSITIONS` an object gets no words, and every reader of it
//!   takes the overflow list.
//! * **Drop clears before reuse.** An object's drop, after its lending
//!   scan, zeroes its word in every live row before the position goes
//!   back: a reused position never shows the new object an attempt that
//!   read only the old one.
//!
//! ## The live bound and its handshake
//!
//! A scan walks rows `0..bound` only, where the bound is one past the
//! highest index held now: an index handed out raises it before its
//! thread's first read, the exit of the top holder lowers it. Both are
//! `SeqCst` stores under the table lock, and a scan loads it `SeqCst`
//! after its writer flipped the object's `seq` odd. That completes the
//! Dekker handshake of [`crate::tvar`]: a reader raises the bound, then
//! stores its word, then loads `seq`; a writer flips `seq`, then loads the
//! bound, then loads the words. In the single `SeqCst` order either the
//! bound load comes after the raise — the scan walks the reader's row and
//! the word/`seq` pair decides as before — or it comes before it, and
//! then the flip precedes the reader's `seq` load, which sees `seq` odd
//! and takes the mutex path. A row above a lowered bound belongs to no
//! live thread: its exit unpublished first, so whatever its words still
//! hold names an attempt the registry no longer runs.
//!
//! A thread past [`MAX_SLOTS`], or reading an object built with fewer
//! rows ([`crate::TVar::new_with_slots_for_test`]), registers on the
//! mutex-protected overflow list instead: slower, never wrong. A thread
//! past [`MAX_SLOTS`] has no record either, so `republish` hands it no
//! state back and each of its attempts allocates one: the declared slow
//! path.

use std::cell::RefCell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
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
// Slot indices, reader rows and positions
// ---------------------------------------------------------------------------

/// Words per row segment: 4 KiB, so a small workload's rows stay small.
const SEGMENT_WORDS: usize = 512;

/// Segments per row.
const MAX_SEGMENTS: usize = 8192;

/// Positions the rows cover; objects past it read through the overflow
/// list.
const MAX_POSITIONS: usize = SEGMENT_WORDS * MAX_SEGMENTS;

/// Positions a thread takes from, or hands back to, the table at once.
const POSITION_BLOCK: usize = 64;

/// One row's words for [`SEGMENT_WORDS`] consecutive positions.
type Segment = [AtomicU64; SEGMENT_WORDS];

/// Rows whose segment pointers share a cache line.
const ROW_GROUP: usize = 8;

/// One segment's pointers for [`ROW_GROUP`] neighbouring indices: one line.
#[repr(align(64))]
struct Line([AtomicPtr<Segment>; ROW_GROUP]);

/// Index `idx`'s row segment for positions `s * SEGMENT_WORDS ..` sits at
/// `SEGMENTS[idx / ROW_GROUP][s].0[idx % ROW_GROUP]` ([`segment`]), null
/// until installed. Written only under [`TABLE`]'s lock, never cleared. A
/// scan of up to eight rows reads one line of pointers, and a process that
/// never holds more than eight indices touches 64 bytes per segment.
static SEGMENTS: [[Line; MAX_SEGMENTS]; MAX_SLOTS / ROW_GROUP] = [const {
    [const { Line([const { AtomicPtr::new(std::ptr::null_mut()) }; ROW_GROUP]) }; MAX_SEGMENTS]
}; MAX_SLOTS / ROW_GROUP];

/// The cell of index `idx`'s segment `s`.
#[inline]
fn segment(s: usize, idx: usize) -> &'static AtomicPtr<Segment> {
    &SEGMENTS[idx / ROW_GROUP][s].0[idx % ROW_GROUP]
}

/// One past the highest slot index held now: the rows a scan walks.
static BOUND: AtomicUsize = AtomicUsize::new(0);

/// The index table: which indices live threads hold, how far the position
/// space reaches, and the positions nobody uses. One lock, taken when a
/// thread first asks for its index or exits, and once per
/// [`POSITION_BLOCK`] objects a thread builds or drops.
struct Table {
    held: [bool; MAX_SLOTS],
    /// Segments installed for every held row.
    segments: usize,
    /// Positions below this were handed out at some point.
    fresh: usize,
    /// Positions handed back.
    free: Vec<u32>,
}

static TABLE: Mutex<Table> = Mutex::new(Table {
    held: [false; MAX_SLOTS],
    segments: 0,
    fresh: 0,
    free: Vec::new(),
});

impl Table {
    /// Give row `idx` segment `s`, if it has none yet.
    fn install(s: usize, idx: usize) {
        let cell = segment(s, idx);
        if cell.load(Ordering::Relaxed).is_null() {
            let words: Box<Segment> = Box::new([const { AtomicU64::new(0) }; SEGMENT_WORDS]);
            // Release, paired with the Acquire load in `row_word`: whoever
            // sees the pointer sees the zeroed words. (A reader reaches a
            // position only after the lock that installed it, anyway.)
            cell.store(Box::into_raw(words), Ordering::Release);
        }
    }

    /// Publish one past the highest held index as the scan bound.
    fn set_bound(&self) {
        let bound = self.held.iter().rposition(|&h| h).map_or(0, |i| i + 1);
        BOUND.store(bound, Ordering::SeqCst);
    }

    /// Up to [`POSITION_BLOCK`] positions into `cache`: handed-back ones
    /// first, then fresh ones, growing every held row by a segment when
    /// they run past the installed ones. None once the space is spent.
    fn take_positions(&mut self, cache: &mut Vec<u32>) {
        if !self.free.is_empty() {
            let from = self.free.len().saturating_sub(POSITION_BLOCK);
            cache.extend(self.free.drain(from..));
            return;
        }
        let (start, end) = (self.fresh, (self.fresh + POSITION_BLOCK).min(MAX_POSITIONS));
        while self.segments * SEGMENT_WORDS < end {
            for idx in (0..MAX_SLOTS).filter(|&i| self.held[i]) {
                Self::install(self.segments, idx);
            }
            self.segments += 1;
        }
        self.fresh = end;
        // Popped from the back: the lowest position goes first.
        cache.extend((start..end).rev().map(|p| p as u32));
    }
}

/// Allocate the lowest free slot index, with a segment of its row for
/// every position handed out so far, and raise the scan bound before the
/// thread can read.
fn alloc_index() -> usize {
    let mut table = TABLE.lock();
    let Some(idx) = table.held.iter().position(|&h| !h) else {
        return NO_SLOT;
    };
    table.held[idx] = true;
    for s in 0..table.segments {
        Table::install(s, idx);
    }
    table.set_bound();
    idx
}

/// Release a slot index. Callers ([`SlotGuard::drop`]) unpublish first,
/// so by the time the index is free every slot word still carrying one
/// of this thread's attempt ids is verifiably dead (its attempts can never
/// be live again — ids are not reused). The row keeps its segments for
/// the index's next holder.
fn free_index(idx: usize) {
    let mut table = TABLE.lock();
    table.held[idx] = false;
    table.set_bound();
}

/// The rows a scan walks now: `0..row_bound()`.
#[inline]
pub(crate) fn row_bound() -> usize {
    BOUND.load(Ordering::SeqCst)
}

/// An object's place in the rows: its position and how many rows (slot
/// indices from 0) read through their word there. 0 rows: every reader
/// takes the overflow list.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowPosition {
    pos: u32,
    rows: u32,
}

/// A thread's cache of free positions; handed back to the table when the
/// thread exits.
struct PositionCache(RefCell<Vec<u32>>);

impl Drop for PositionCache {
    fn drop(&mut self) {
        let cache = self.0.get_mut();
        if !cache.is_empty() {
            TABLE.lock().free.append(cache);
        }
    }
}

thread_local! {
    static POSITIONS: PositionCache = const { PositionCache(RefCell::new(Vec::new())) };
}

impl RowPosition {
    /// A fresh position whose words rows `0..rows` read through (clamped
    /// to [`MAX_SLOTS`]); none, and 0 rows, for 0 rows or once the
    /// position space is spent.
    pub(crate) fn take(rows: usize) -> Self {
        let none = RowPosition { pos: 0, rows: 0 };
        if rows == 0 {
            return none;
        }
        let pos = POSITIONS.try_with(|c| {
            let mut cache = c.0.borrow_mut();
            if cache.is_empty() {
                cache.reserve_exact(2 * POSITION_BLOCK);
                TABLE.lock().take_positions(&mut cache);
            }
            cache.pop()
        });
        // A thread whose cache is gone (exiting) takes one straight from
        // the table.
        let pos = pos.unwrap_or_else(|_| {
            let mut table = TABLE.lock();
            let mut block = Vec::new();
            table.take_positions(&mut block);
            let pos = block.pop();
            table.free.append(&mut block);
            pos
        });
        pos.map_or(none, |pos| RowPosition {
            pos,
            rows: rows.min(MAX_SLOTS) as u32,
        })
    }

    /// Row `idx`'s word at this position, if that row reads through one.
    #[inline]
    pub(crate) fn word(self, idx: usize) -> Option<&'static AtomicU64> {
        if idx >= self.rows as usize {
            return None;
        }
        self.row_word(idx)
    }

    /// Row `idx`'s word at this position, if the row has that segment.
    #[inline]
    fn row_word(self, idx: usize) -> Option<&'static AtomicU64> {
        let pos = self.pos as usize;
        let words = segment(pos / SEGMENT_WORDS, idx).load(Ordering::Acquire);
        // SAFETY: a non-null segment pointer came from `Box::into_raw` and
        // is never freed.
        unsafe { words.as_ref() }.map(|s| &s[pos % SEGMENT_WORDS])
    }

    /// `(index, word)` for every live row that reads through a word here,
    /// lowest index first. The bound is loaded once, `SeqCst` (module
    /// docs, "The live bound and its handshake").
    #[inline]
    pub(crate) fn live_words(self) -> impl Iterator<Item = (usize, &'static AtomicU64)> {
        let rows = row_bound().min(self.rows as usize);
        (0..rows).filter_map(move |idx| {
            let word = self.word(idx)?;
            #[cfg(debug_assertions)]
            crate::probe::count_scan_word_loads(1);
            Some((idx, word))
        })
    }

    /// Hand the position back for the next object: zero its word in every
    /// live row first, so that object starts with no reader. Called by
    /// the object's drop after its lending scan.
    pub(crate) fn release(self) {
        if self.rows == 0 {
            return;
        }
        // The lending scan has cleared the words of attempts that are over,
        // so most are 0 already and their line need not leave its reader.
        // Relaxed: no handle to this object is left, so nobody stores here
        // now, and the next object here reaches other threads only after
        // this thread hands the position on (its cache, or the table lock).
        for word in (0..row_bound()).filter_map(|idx| self.row_word(idx)) {
            if word.load(Ordering::Relaxed) != 0 {
                word.store(0, Ordering::Relaxed);
            }
        }
        let give_back = |cache: &mut Vec<u32>| {
            cache.push(self.pos);
            if cache.len() >= 2 * POSITION_BLOCK {
                // The oldest go: the next object built here takes the
                // position just handed back, its words warm in cache.
                TABLE.lock().free.extend(cache.drain(..POSITION_BLOCK));
            }
        };
        if POSITIONS
            .try_with(|c| give_back(&mut c.0.borrow_mut()))
            .is_err()
        {
            TABLE.lock().free.push(self.pos);
        }
    }
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
    fn the_scan_bound_covers_every_held_index() {
        // Other tests take and free indices concurrently, so only what a
        // holder is owed is asserted: while an index is held, the rows a
        // scan walks include it.
        let mine = my_slot_index();
        assert_ne!(mine, NO_SLOT);
        assert!(row_bound() > mine);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let other = my_slot_index();
                assert!(row_bound() > other.max(mine));
                barrier.wait();
            });
            barrier.wait();
        });
        assert!(row_bound() > mine);
    }

    #[test]
    fn two_readers_words_never_share_a_line() {
        // This thread's index and a second live thread's: each row's
        // segment is a heap block of its own.
        let at = RowPosition::take(MAX_SLOTS);
        let mine = my_slot_index();
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let other = s.spawn(|| {
                let word = at.word(my_slot_index()).expect("a held row") as *const _ as usize;
                barrier.wait();
                word
            });
            let word = at.word(mine).expect("a held row") as *const _ as usize;
            barrier.wait();
            (word, other.join().unwrap())
        });
        assert!(a.abs_diff(b) >= 64, "words {a:#x} and {b:#x} share a line");
        // One thread's words for two neighbouring positions of one segment
        // sit side by side.
        let even = RowPosition {
            pos: at.pos & !1,
            ..at
        };
        let odd = RowPosition {
            pos: even.pos + 1,
            ..at
        };
        let addr = |p: RowPosition| p.word(mine).expect("a held row") as *const _ as usize;
        assert_eq!(addr(odd) - addr(even), 8);
        at.release();
    }
}
