//! The shared per-attempt transaction record.
//!
//! Every transaction *attempt* runs under a [`TxState`] behind an `Arc`.
//! Locators and the reader registry hold clones of that `Arc`, which is
//! what lets any thread inspect a competitor's status, priority, and age —
//! and abort it with a single CAS.
//!
//! Attempt identity is the `attempt_id`: process-globally unique and never
//! reused, so any stale reference (a locator pointing at an old writer, a
//! reader-slot word from a finished attempt) is detectable by id mismatch.
//! The *allocation* behind a `TxState` may be recycled by its thread
//! context's spare in [`crate::stm`], but only via [`reset_for_attempt`]
//! (`Arc::get_mut`), i.e. only when no other reference exists — a
//! competitor that still holds an old attempt therefore sees it
//! permanently `Aborted`/`Committed`, exactly as if the record were
//! freshly allocated. The reader registry's reference ([`crate::slots`])
//! is the one that outlives the attempt: the owner's next republish hands
//! it back as the spare, so a steady loop cycles two records.
//!
//! The record is also where a competitor parks what an attempt may still
//! be reading: reads are uncounted borrows, so whoever displaces a version
//! or frees an object lends a count of it to every registered attempt
//! whose body or commit may still run ([`TxState::lend`]; the invariant is
//! stated in [`crate::tvar`]).
//!
//! Fields that must *survive* retries of the same logical transaction (the
//! age key `(first_start_ns, txn_id)`, Polka's accumulated karma) are
//! seeded from the logical-transaction context in [`crate::stm`] when each
//! attempt starts.
//!
//! Timestamps (`first_start_ns`, `attempt_start_ns`, `commit_ns`) are
//! nanoseconds from the cheap coarse clock in [`crate::clockns`]. They
//! feed metrics and τ calibration, and `first_start_ns` is a
//! transaction's age ([`TxState::age_key`]).

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::clockns;
use crate::status::{AtomicStatus, TxStatus};
use crate::sync::Mutex;

/// Sentinel for [`TxState::assigned_frame`]: the transaction is not running
/// under a window-based contention manager.
pub const NOT_WINDOWED: u64 = u64::MAX;

/// Object versions (and, from an object's drop, allocations) lent to an
/// attempt that may still be reading them through uncounted borrows (see
/// [`TxState::lend`]).
#[derive(Debug, Default)]
struct Lent {
    /// The attempt's body has returned, bailed out or unwound and its
    /// commit, if it got that far, has failed: none of its borrows can be
    /// used again, so nothing more is lent.
    body_over: bool,
    versions: Vec<Arc<dyn Any + Send + Sync>>,
}

/// Shared record describing one attempt of one transaction.
///
/// Cheap to create, immutable except for the atomics. All cross-thread
/// communication about a transaction (status, priorities, window frame)
/// goes through this record.
#[derive(Debug)]
pub struct TxState {
    /// Unique id of this attempt (process-global, never reused, never 0).
    pub attempt_id: u64,
    /// Id of the logical transaction (stable across retries).
    pub txn_id: u64,
    /// Index of the thread running the transaction.
    pub thread_id: usize,
    /// Coarse-clock start of the first attempt, kept by every retry: the
    /// response-time metric and the transaction's age ([`Self::age_key`]).
    pub first_start_ns: u64,
    /// Coarse-clock start of this attempt (wasted-work metric, τ samples).
    pub attempt_start_ns: u64,

    status: AtomicStatus,
    /// Coarse-clock time the committed attempt ended (0 until then),
    /// stamped by the engine before `on_commit` so a manager's duration
    /// sample needs no clock read of its own.
    commit_ns: AtomicU64,
    /// Polka priority (karma): number of objects opened, accumulated
    /// across attempts of the logical transaction.
    karma: AtomicU64,
    /// Set while the transaction is blocked inside a contention manager
    /// wait. Greedy aborts an *older* enemy iff it is waiting.
    waiting: AtomicBool,
    /// Window CM: frame in which this transaction turns high-priority
    /// (`NOT_WINDOWED` when no window manager is installed).
    assigned_frame: AtomicU64,
    /// Window CM: the random rank π₂ ∈ [1, M], re-rolled after every abort.
    rank: AtomicU32,
    /// Versions kept alive for this attempt's borrowed reads. Touched by
    /// whoever displaces a version the attempt is registered on while it
    /// may still run, and by the owner once on the abort arm
    /// ([`Self::finish_body`]); the owner's commit path never locks it —
    /// what a lazy attempt was lent while `Active` and still holds when it
    /// commits is released by the record's reuse (or its drop).
    lent: Mutex<Lent>,
}

// 112 bytes, so a field added to the record fails the build: every attempt
// initialises one, and what only the owning thread reads (a window
// thread's frame clock, the retry count) lives with the owner instead.
const _: () = assert!(std::mem::size_of::<TxState>() <= 112);

impl TxState {
    /// Create the record for a new attempt; `attempt` is the retry count
    /// (0 for the first attempt), which decides whether to read the clock.
    pub fn new(
        attempt_id: u64,
        txn_id: u64,
        thread_id: usize,
        attempt: u32,
        first_start_ns: u64,
        karma_carryover: u64,
    ) -> Self {
        TxState {
            attempt_id,
            txn_id,
            thread_id,
            first_start_ns,
            // The first attempt starts when the transaction does; only
            // retries need a fresh clock read.
            attempt_start_ns: if attempt == 0 {
                first_start_ns
            } else {
                clockns::now()
            },
            status: AtomicStatus::new(),
            commit_ns: AtomicU64::new(0),
            karma: AtomicU64::new(karma_carryover),
            waiting: AtomicBool::new(false),
            assigned_frame: AtomicU64::new(NOT_WINDOWED),
            rank: AtomicU32::new(0),
            lent: Mutex::default(),
        }
    }

    /// Reinitialize a recycled record as [`TxState::new`] would build it,
    /// keeping only the capacity of its loan list.
    ///
    /// Requires exclusive access (`Arc::get_mut`): the caller proves no
    /// locator, registry entry, or contention manager still references the
    /// old attempt, so rewriting the identity fields cannot confuse anyone.
    pub(crate) fn reset_for_attempt(
        &mut self,
        attempt_id: u64,
        txn_id: u64,
        thread_id: usize,
        attempt: u32,
        first_start_ns: u64,
        karma_carryover: u64,
    ) {
        let mut versions = std::mem::take(&mut self.lent.get_mut().versions);
        versions.clear();
        *self = TxState::new(
            attempt_id,
            txn_id,
            thread_id,
            attempt,
            first_start_ns,
            karma_carryover,
        );
        self.lent.get_mut().versions = versions;
    }

    /// The transaction's age: its first attempt's start stamp, ties broken
    /// by `txn_id` (never reused), so the order is total and every retry
    /// keeps its place. Smaller = older. Greedy and Priority order by it.
    #[inline]
    pub fn age_key(&self) -> (u64, u64) {
        (self.first_start_ns, self.txn_id)
    }

    /// Current status.
    #[inline]
    pub fn status(&self) -> TxStatus {
        self.status.load()
    }

    /// True iff still `Active`.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.status() == TxStatus::Active
    }

    /// Try to abort this transaction (any thread may call this on an
    /// enemy). Returns `true` iff this call performed the abort.
    #[inline]
    pub fn abort(&self) -> bool {
        self.status.try_transition(TxStatus::Aborted)
    }

    /// Try to commit (only the owning thread calls this).
    /// Returns `true` iff the commit CAS won.
    #[inline]
    pub fn try_commit(&self) -> bool {
        self.status.try_transition(TxStatus::Committed)
    }

    /// Coarse-clock time the attempt committed, 0 before it has: the
    /// engine stamps it before [`ContentionManager::on_commit`].
    ///
    /// [`ContentionManager::on_commit`]: crate::ContentionManager::on_commit
    #[inline]
    pub fn commit_ns(&self) -> u64 {
        self.commit_ns.load(Ordering::Relaxed)
    }

    /// Stamp the commit time (the owner, after its commit succeeded; a
    /// test that drives `on_commit` itself stamps it the same way).
    #[inline]
    pub fn set_commit_ns(&self, ns: u64) {
        self.commit_ns.store(ns, Ordering::Relaxed);
    }

    // ---- versions lent to borrowed reads ----------------------------------

    /// Give this attempt a count of `loan` — a version it may be reading
    /// through an uncounted borrow and which the caller is about to
    /// displace, or that version together with the allocation of the
    /// object the caller is freeing — unless its body and commit are
    /// already over; returns whether it was taken. The count is dropped by
    /// [`Self::finish_body`] or by the record's reuse: a read stays valid
    /// until the body that made it has returned and its commit has
    /// validated, whatever happens to the object meanwhile. See the
    /// invariant in [`crate::tvar`].
    pub(crate) fn lend(&self, loan: &Arc<dyn Any + Send + Sync>) -> bool {
        let mut lent = self.lent.lock();
        if !lent.body_over {
            lent.versions.push(Arc::clone(loan));
        }
        !lent.body_over
    }

    /// The attempt's body is over and so is its commit's validation: stop
    /// accepting loans and drop the ones held. Owner only, after the last
    /// borrow and the read set are out of reach.
    pub(crate) fn finish_body(&self) {
        let versions = {
            let mut lent = self.lent.lock();
            lent.body_over = true;
            std::mem::take(&mut lent.versions)
        };
        // Outside the lock: a version can own the last handle of an object
        // this attempt read, whose drop looks this record up again.
        drop(versions);
    }

    /// Whether [`Self::finish_body`] has run for this attempt.
    pub(crate) fn body_over(&self) -> bool {
        self.lent.lock().body_over
    }

    /// Number of versions currently lent (test introspection).
    #[cfg(test)]
    pub(crate) fn lent_len(&self) -> usize {
        self.lent.lock().versions.len()
    }

    /// Whether every loan held is an `X` (test introspection).
    #[cfg(test)]
    pub(crate) fn lent_all<X: Any>(&self) -> bool {
        self.lent.lock().versions.iter().all(|l| l.is::<X>())
    }

    // ---- contention-manager metadata ------------------------------------

    /// Polka's karma (objects opened, accumulated across retries).
    #[inline]
    pub fn karma(&self) -> u64 {
        self.karma.load(Ordering::Relaxed)
    }

    /// Bump karma by one (called on every successful object open).
    /// Single-writer: only the attempt's own thread bumps it, so a `load`
    /// and a `store` replace an atomic RMW; other threads only read it.
    #[inline]
    pub fn add_karma(&self) {
        let karma = self.karma.load(Ordering::Relaxed);
        self.karma.store(karma + 1, Ordering::Relaxed);
    }

    /// Whether the transaction is currently blocked in a CM wait loop.
    #[inline]
    pub fn is_waiting(&self) -> bool {
        self.waiting.load(Ordering::Acquire)
    }

    /// Mark entry/exit of a CM wait loop.
    #[inline]
    pub fn set_waiting(&self, w: bool) {
        self.waiting.store(w, Ordering::Release);
    }

    // ---- window-manager metadata -----------------------------------------

    /// Frame in which the transaction becomes high priority, or
    /// [`NOT_WINDOWED`].
    #[inline]
    pub fn assigned_frame(&self) -> u64 {
        self.assigned_frame.load(Ordering::Acquire)
    }

    /// Set the assigned frame (window CM bookkeeping).
    #[inline]
    pub fn set_assigned_frame(&self, f: u64) {
        self.assigned_frame.store(f, Ordering::Release);
    }

    /// The random rank π₂ used by the window Online algorithm.
    #[inline]
    pub fn rank(&self) -> u32 {
        self.rank.load(Ordering::Acquire)
    }

    /// Re-roll π₂ (done at frame entry and after every abort).
    #[inline]
    pub fn set_rank(&self, r: u32) {
        self.rank.store(r, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> TxState {
        TxState::new(1, 1, 0, 0, clockns::now(), 0)
    }

    #[test]
    fn fresh_state_is_active_not_windowed() {
        let s = mk();
        assert!(s.is_active());
        assert_eq!(s.assigned_frame(), NOT_WINDOWED);
        assert_eq!(s.karma(), 0);
        assert!(!s.is_waiting());
    }

    #[test]
    fn abort_then_commit_fails() {
        let s = mk();
        assert!(s.abort());
        assert!(!s.try_commit());
        assert_eq!(s.status(), TxStatus::Aborted);
        // Double abort is a no-op returning false.
        assert!(!s.abort());
    }

    #[test]
    fn commit_then_abort_fails() {
        let s = mk();
        assert!(s.try_commit());
        assert!(!s.abort());
        assert_eq!(s.status(), TxStatus::Committed);
    }

    #[test]
    fn karma_accumulates_with_carryover() {
        let s = TxState::new(2, 1, 0, 1, clockns::now(), 7);
        assert_eq!(s.karma(), 7);
        s.add_karma();
        s.add_karma();
        assert_eq!(s.karma(), 9);
    }

    #[test]
    fn window_fields_roundtrip() {
        let s = mk();
        s.set_assigned_frame(42);
        s.set_rank(17);
        assert_eq!(s.assigned_frame(), 42);
        assert_eq!(s.rank(), 17);
    }

    #[test]
    fn waiting_flag_roundtrip() {
        let s = mk();
        s.set_waiting(true);
        assert!(s.is_waiting());
        s.set_waiting(false);
        assert!(!s.is_waiting());
    }

    #[test]
    fn reset_restores_a_terminal_recycled_state() {
        let mut s = TxState::new(5, 5, 1, 2, clockns::now(), 4);
        s.add_karma();
        s.set_assigned_frame(9);
        s.set_rank(3);
        s.set_waiting(true);
        // Lent to while `Active`, then committed: the commit path never
        // looks at the loan, the record's reuse drops it.
        let version: Arc<dyn Any + Send + Sync> = Arc::new(7u64);
        assert!(s.lend(&version));
        assert!(s.try_commit());
        assert_eq!((s.lent_len(), Arc::strong_count(&version)), (1, 2));
        s.reset_for_attempt(77, 70, 2, 0, 40, 1);
        assert_eq!((s.lent_len(), Arc::strong_count(&version)), (0, 1));
        assert!(
            s.lent.lock().versions.capacity() >= 1,
            "the loan list keeps its capacity"
        );
        assert!(!s.body_over());
        assert_eq!(s.attempt_id, 77);
        assert_eq!(s.txn_id, 70);
        assert_eq!(s.thread_id, 2);
        assert_eq!(s.age_key(), (40, 70));
        assert!(s.is_active(), "reset must restore Active");
        assert_eq!(s.karma(), 1);
        assert_eq!(s.assigned_frame(), NOT_WINDOWED);
        assert_eq!(s.rank(), 0);
        assert!(!s.is_waiting());
    }
}
