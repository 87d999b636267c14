//! Transactional objects and the DSTM locator protocol.
//!
//! Every [`TVar<T>`] owns a *locator*: the triple `(writer, old, new)`.
//! The **current value** of the object is decided by the writer's status:
//!
//! * writer `Committed` → `new` (its shadow copy became the version),
//! * writer `Active` / `Aborted` / absent → `old`.
//!
//! Acquiring an object for writing *collapses* the locator first (folds the
//! previous writer's outcome into `old`) and then installs the acquiring
//! transaction as `writer` with a fresh shadow copy. Because a
//! transaction's fate is decided by one status CAS (see
//! [`crate::status`]), this interpretation is race-free: whoever reads the
//! locator after the CAS sees the right version.
//!
//! Reads are **visible**: readers enroll on the object, so writers discover
//! read-write conflicts eagerly — the configuration the paper uses
//! ("default shadow factory and visible reads", §III).
//!
//! ## The lock-free read path
//!
//! Uncontended reads — the overwhelming majority in the paper's read-mostly
//! workloads — never touch the object mutex. Two pieces make that work:
//!
//! * **Reader slots.** Each object carries one atomic word per global
//!   thread-slot index (see [`crate::slots`]). A reader registers by
//!   storing its attempt id into its own word: one `SeqCst` store replaces
//!   the old lock + `Vec<Weak>` enrollment. A writer scans the words after
//!   raising `seq` (below); the `SeqCst` store/scan pair is a Dekker-style
//!   handshake — either the reader observes the writer's odd `seq` and
//!   falls back to the mutex, or the writer's scan observes the reader's
//!   slot and reports the conflict. Slot words hold plain ids; liveness is
//!   decided against the registry, and because attempt ids are never
//!   reused a stale word can never impersonate a live reader. Threads
//!   without a slot (bitmap exhausted, or the object's array was sized
//!   before the thread appeared) use the mutex-protected overflow list —
//!   slower, never wrong.
//!
//! * **A seqlock snapshot.** `seq` is even exactly while no writer is
//!   installed, and then `snapshot` points at the same version as the
//!   locator's `old` (the cell owns one strong count of it). The odd
//!   period lasts for the writer's whole ownership; the next
//!   locator-collapse restores the even state. An eager read is slot-word
//!   store → `seq` load → `snapshot` load and takes the version *by
//!   address*: it writes the one word its reader owns and nothing else.
//!   Readers that do not register — the lazy engine's invisible reads and
//!   [`TVar::sample`] — clone the snapshot `Arc` instead, between a raise
//!   and a drop of `guards`, which a writer drains right after flipping
//!   `seq` odd so it never drops a count somebody is in the middle of
//!   bumping.
//!
//! ## The borrowed-read invariant
//!
//! An eager read holds no count of the version it returns, so the version
//! must outlive the reader's *body* (the closure run of one attempt) some
//! other way. The invariant, kept entirely inside this crate:
//!
//! > Whoever displaces the current version of an object first gives a
//! > count of it ([`TxState::lend`]) to every registered attempt whose
//! > body may still be running.
//!
//! A version is displaced by a writer's commit, and a writer installs only
//! after [`TVarInner::conflicting_reader`] — slot words *and* the overflow
//! list — found no other `Active` reader. What the scan does find is
//! `Committed` (the status CAS comes after the body, so the body is over),
//! an attempt the registry no longer names (its thread has moved on), or
//! `Aborted`: a body that may still be running until its next open notices.
//! That last one is lent the current version; the owner drops what it was
//! lent when its body is over ([`TxState::finish_body`], called on the
//! abort arm of the retry loop right after the `Txn` is dropped). A read
//! returns its borrow only after a final `check_alive`, so the reader was `Active` — and no writer got past it —
//! from its registration to that check, and the version it holds is the
//! one every later scan lends. An aborted attempt never gets a new borrow
//! (the same check fails), so one loan per object is enough and the scan
//! clears the word it served. The three displacements that are not a
//! writer's install — [`TVar::store_direct`], a lazy-engine write-back
//! while an eager engine exists (driving one object from both at once is
//! unsupported, but it must stay memory-safe) and the drop of the
//! object's last handle — lend to `Active` readers
//! too. Recycling through `spare` needs no change: `Arc::get_mut` refuses
//! a version that is on loan.
//!
//! Lock discipline: each object has one short `parking_lot::Mutex`; the
//! engine never calls a contention manager, blocks, or takes another
//! object's lock while holding it. `lock_snapshot`/`unlock_snapshot` are
//! only called with the object mutex held, so `seq` transitions are
//! serialized.

use std::any::Any;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::slots;
use crate::status::TxStatus;
use crate::txstate::TxState;
use crate::TxObject;

/// Engine-global id source for transactional objects. Handed out to
/// threads in blocks of [`TVAR_ID_BLOCK`] (see [`next_tvar_id`]) so
/// object-allocation-heavy workloads don't all RMW one cache line.
static NEXT_TVAR_ID: AtomicU64 = AtomicU64::new(1);

/// Ids per thread-local block. Commit-time lock ordering sorts by id, so
/// ids need only be unique, not dense or globally ordered by creation.
const TVAR_ID_BLOCK: u64 = 1 << 10;

thread_local! {
    /// `(next, end)` of this thread's current id block; empty when equal.
    static TVAR_ID_CURSOR: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// A fresh process-unique object id. One shared `fetch_add` per
/// [`TVAR_ID_BLOCK`] allocations per thread, amortizing the shared-line
/// RMW the same way attempt ids do (`slots::NEXT_ATTEMPT_BLOCK`).
fn next_tvar_id() -> u64 {
    TVAR_ID_CURSOR.with(|c| {
        let (next, end) = c.get();
        if next < end {
            c.set((next + 1, end));
            return next;
        }
        let start = NEXT_TVAR_ID.fetch_add(TVAR_ID_BLOCK, Ordering::Relaxed);
        c.set((start + 1, start + TVAR_ID_BLOCK));
        start
    })
}

/// A transactional object holding values of type `T`.
///
/// Cloning a `TVar` clones the *handle*, not the value: both handles refer
/// to the same object (like `Arc`).
pub struct TVar<T: TxObject> {
    inner: Arc<TVarInner<T>>,
}

impl<T: TxObject> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: TxObject + std::fmt::Debug> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar").field("id", &self.inner.id).finish()
    }
}

pub(crate) struct TVarInner<T: TxObject> {
    pub(crate) id: u64,
    /// Seqlock word: even ⇔ no writer installed ∧ `snapshot` matches the
    /// locator's `old`. Flipped only under the object mutex.
    seq: AtomicU64,
    /// Number of unregistered readers ([`Self::lazy_read`],
    /// [`TVar::sample`]) currently between their `seq` re-check and the
    /// completion of their snapshot clone. A writer drains this to zero
    /// right after flipping `seq` odd. Eager reads never touch it.
    guards: AtomicU64,
    /// One owned strong count of the version fast readers clone.
    /// Valid (never null) for the whole life of the object.
    snapshot: AtomicPtr<T>,
    /// One reader-registration word per global thread-slot index
    /// (0 = empty, otherwise the attempt id of a — possibly finished —
    /// reader). Sized at creation from [`slots::slot_capacity`].
    reader_slots: Box<[AtomicU64]>,
    /// Lazy engine: version stamp of the committed value — the write
    /// version of the transaction that installed it (0 = initial value).
    /// Compared against read watermarks; see [`crate::engine::lazy`].
    version: AtomicU64,
    /// Lazy engine: reader-slot index of the commit-lock holder, for
    /// enemy lookup through the attempt registry.
    owner_slot: AtomicU64,
    /// Lazy engine: attempt id of the commit-lock holder (0 = unlocked or
    /// mid write-back).
    owner_attempt: AtomicU64,
    pub(crate) state: Mutex<ObjState<T>>,
}

impl<T: TxObject> Drop for TVarInner<T> {
    fn drop(&mut self) {
        // The last handle is gone, but a body that read the object through
        // one (a node just unlinked, a handle local to the closure) may
        // still hold its borrow: the version outlives the object.
        self.state.get_mut().lend_to_readers(&self.reader_slots);
        // Release the snapshot cell's strong count.
        let p = *self.snapshot.get_mut();
        // SAFETY: `snapshot` always holds a pointer produced by
        // `Arc::into_raw` whose count the cell owns.
        unsafe { drop(Arc::from_raw(p)) };
    }
}

/// A registered visible reader on the overflow list.
pub(crate) struct ReaderEntry {
    pub(crate) attempt_id: u64,
    pub(crate) tx: Weak<TxState>,
}

/// The locator plus the overflow reader list, all behind the object lock.
pub(crate) struct ObjState<T: TxObject> {
    pub(crate) writer: Option<Arc<TxState>>,
    pub(crate) old: Arc<T>,
    pub(crate) new: Option<Arc<T>>,
    /// Visible readers without a fast-path slot. Rare; pruned on access.
    pub(crate) readers: Vec<ReaderEntry>,
    /// A retired version kept for recycling: locator collapses stash the
    /// displaced `Arc` here (when its strong count has dropped to one) and
    /// the next publish reuses the allocation via `Arc::get_mut` +
    /// `clone_from` instead of `Arc::new`. Purely an allocation cache —
    /// never read as a value.
    pub(crate) spare: Option<Arc<T>>,
}

impl<T: TxObject> ObjState<T> {
    /// The currently visible version per the locator rule.
    pub(crate) fn effective(&self) -> Arc<T> {
        match &self.writer {
            Some(w) if w.status() == TxStatus::Committed => self
                .new
                .clone()
                .expect("committed writer must have published its shadow"),
            _ => Arc::clone(&self.old),
        }
    }

    /// Drop overflow entries whose bodies are over. An `Aborted` attempt
    /// whose body is still running stays: the next displacement of the
    /// version it borrowed has to find it (module docs, "The borrowed-read
    /// invariant").
    pub(crate) fn prune_readers(&mut self) {
        self.readers.retain(|r| {
            r.tx.upgrade().is_some_and(|tx| match tx.status() {
                TxStatus::Active => true,
                TxStatus::Committed => false,
                TxStatus::Aborted => !tx.body_over(),
            })
        });
    }

    /// Register `tx` on the overflow list (idempotent per attempt).
    pub(crate) fn register_reader(&mut self, tx: &Arc<TxState>) {
        self.prune_readers();
        if !self.readers.iter().any(|r| r.attempt_id == tx.attempt_id) {
            self.readers.push(ReaderEntry {
                attempt_id: tx.attempt_id,
                tx: Arc::downgrade(tx),
            });
        }
    }

    /// Stash a version `Arc` displaced by a locator collapse for later
    /// recycling, if the cache is empty and the `Arc` is not an alias of
    /// the surviving version. (An `Arc` still shared with readers is fine
    /// to stash — `Arc::get_mut` at recycle time refuses it.)
    #[inline]
    pub(crate) fn retire(&mut self, prev: Arc<T>) {
        if self.spare.is_none() && !Arc::ptr_eq(&prev, &self.old) {
            self.spare = Some(prev);
        }
    }

    /// Take the spare version `Arc` for recycling if it is unshared; used
    /// by the boxed write path to build its shadow copy without a fresh
    /// allocation.
    #[inline]
    pub(crate) fn take_unshared_spare(&mut self) -> Option<Arc<T>> {
        match self.spare.take() {
            Some(a) if Arc::strong_count(&a) == 1 => Some(a),
            _ => None,
        }
    }

    /// Walk every registered reader — the words of `slots` at *currently
    /// allocated* slot indices, then the overflow list — for a caller that
    /// is about to displace the current version. Returns the first
    /// `Active` reader other than attempt `me` when `stop_at_active` (a
    /// writer's conflict scan), nothing otherwise. On the way it lends the
    /// current version to each reader that is `Aborted` — and, without
    /// `stop_at_active`, `Active` — which keeps what that reader's body
    /// borrowed alive (module docs, "The borrowed-read invariant"), and
    /// clears the registrations it has served or found stale. Caller holds
    /// the object mutex (or `&mut` to the object), and — for the Dekker
    /// handshake with [`TVarInner::fast_read`] — has `seq` odd.
    ///
    /// The slot part iterates set bits of the global allocation shard
    /// masks ([`slots::shard_mask`]): one `SeqCst` load decides 64
    /// indices, so the cost is O(active threads), not O(capacity).
    ///
    /// ## Why filtering by mask preserves the Dekker handshake
    ///
    /// A word at an *unallocated* index may be skipped unread: its value
    /// was stored by an attempt of a thread that has since freed the
    /// index, and that thread unpublished (cleared `current`) before
    /// freeing — with ids never reused, no attempt of a freed index can
    /// ever be live again. The racy direction is a reader whose bit the
    /// scan *misses*: the reader's order is mask CAS `M` (its thread's
    /// slot allocation) → slot-word store `W` → `seq` load `L`; the
    /// writer's is `seq` flip `F` (odd) → mask load `LM` → word loads.
    /// All `SeqCst`. If `LM` misses the bit, `LM <S M` in the SC total
    /// order, so `F <S LM <S M <S W <S L` — the reader's `seq` check
    /// observes the odd word (the word stays odd for the writer's whole
    /// ownership) and declines the fast path; it then registers through
    /// the mutex this writer is holding, and is found by a later scan or
    /// blocks until the writer is done. Either the writer sees the
    /// reader, or the reader sees the writer — never neither.
    fn scan_readers(
        &mut self,
        slots: &[AtomicU64],
        me: u64,
        stop_at_active: bool,
    ) -> Option<Arc<TxState>> {
        // The version on loan, cloned at the first reader that needs it.
        let mut cur: Option<Arc<T>> = None;
        // `true`: `tx` is the conflict to report. Otherwise `tx` has been
        // served and its registration can go.
        let mut conflicts = |st: &Self, tx: &TxState| match tx.status() {
            TxStatus::Active if stop_at_active => true,
            // The status CAS comes after the body: nothing left to protect.
            TxStatus::Committed => false,
            _ => {
                tx.lend(cur.get_or_insert_with(|| st.effective()));
                false
            }
        };
        let cap = slots.len();
        let shards = cap.div_ceil(slots::SHARD_SLOTS).min(slots::SLOT_SHARDS);
        for s in 0..shards {
            let mut mask = slots::shard_mask(s);
            let base = s << slots::SHARD_BITS;
            if cap - base < slots::SHARD_SLOTS {
                // Indices beyond this object's array have no words here
                // (those readers use the overflow list).
                mask &= (1u64 << (cap - base)) - 1;
            }
            while mask != 0 {
                let bit = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let idx = base | bit;
                #[cfg(debug_assertions)]
                crate::probe::count_reader_slot_load();
                let slot = &slots[idx];
                let a = slot.load(Ordering::SeqCst);
                if a == 0 || a == me {
                    continue;
                }
                // `None`: attempt `a` is no longer the one running on this
                // slot, so its body is over.
                if let Some(tx) = slots::live_reader(idx, a) {
                    if conflicts(self, &tx) {
                        return Some(tx);
                    }
                    if tx.is_active() {
                        // A loan without `stop_at_active`: the reader goes
                        // on, and so does its registration.
                        continue;
                    }
                }
                // Served or stale: clear the word so future scans stay
                // cheap. CAS so a newly arrived reader's store is never
                // wiped.
                let _ = slot.compare_exchange(a, 0, Ordering::SeqCst, Ordering::SeqCst);
            }
        }
        if self.readers.is_empty() {
            return None;
        }
        let mut readers = std::mem::take(&mut self.readers);
        let mut enemy = None;
        readers.retain(|r| {
            let Some(tx) = r.tx.upgrade() else {
                return false;
            };
            if r.attempt_id == me || enemy.is_some() {
                return true;
            }
            if conflicts(self, &tx) {
                enemy = Some(tx);
                return true;
            }
            tx.is_active() // as for the slot words
        });
        self.readers = readers;
        enemy
    }

    /// Lend the current version to every registered reader whose body may
    /// still be running, `Active` ones included: for the displacements
    /// that no conflict scan precedes.
    fn lend_to_readers(&mut self, slots: &[AtomicU64]) {
        self.scan_readers(slots, 0, false);
    }
}

impl<T: TxObject> TVarInner<T> {
    /// Lock-free read attempt for the reader on slot `slot_idx` running
    /// attempt `attempt_id`. Registers the reader and, if no writer is
    /// installed, returns the address of the current version. `None` means
    /// "take the mutex path" (writer installed, or no slot).
    ///
    /// The address is only a candidate: a writer may have installed,
    /// committed and let go of the version between the `seq` load and the
    /// `snapshot` load. The caller dereferences it only if its attempt is
    /// still `Active` *after* this returns — a writer cannot get past a
    /// registered `Active` reader, so then the version is the current one,
    /// and from there the borrowed-read invariant (module docs) covers it.
    #[inline]
    pub(crate) fn fast_read(&self, slot_idx: usize, attempt_id: u64) -> Option<*const T> {
        let slot = self.reader_slots.get(slot_idx)?;
        // Register. Skipping the store when our id is already in place is
        // sound: the first store performed the Dekker handshake, and the
        // word can only have been overwritten by a *later* event that a
        // writer's scan orders correctly anyway (a scan clears the word of
        // an attempt it found aborted; that attempt's next read fails its
        // final `check_alive` whatever it registers).
        if slot.load(Ordering::Relaxed) != attempt_id {
            #[cfg(debug_assertions)]
            crate::probe::count_read_slot_store();
            slot.store(attempt_id, Ordering::SeqCst);
        }
        if self.seq.load(Ordering::SeqCst) & 1 != 0 {
            return None; // writer installed → mutex path
        }
        Some(self.snapshot.load(Ordering::Acquire))
    }

    /// Begin a writer period: flip `seq` odd and wait out the guarded
    /// readers in flight ([`TVar::sample`]; eager reads raise no guard).
    /// Caller must hold the object mutex and `seq` must be even (i.e. no
    /// writer currently installed).
    pub(crate) fn lock_snapshot(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        while self.guards.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
    }

    /// End a writer period: point the snapshot at `val` (the locator's
    /// freshly collapsed `old`) and flip `seq` back to even. Caller must
    /// hold the object mutex and `seq` must be odd.
    pub(crate) fn unlock_snapshot(&self, val: &Arc<T>) {
        let fresh = Arc::into_raw(Arc::clone(val)).cast_mut();
        let prev = self.snapshot.swap(fresh, Ordering::AcqRel);
        // SAFETY: guards drained to zero when this odd period began and
        // guarded readers re-checking `seq` while it is odd never touch
        // the pointer, so nobody else can be cloning `prev` now. Eager
        // readers may still hold `prev`'s address, never its count: what
        // they read through it is covered by the loans of the scan that
        // let this period's writer in (module docs).
        unsafe { drop(Arc::from_raw(prev)) };
        self.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Abandon a just-started writer period without having installed a
    /// writer (conflict found): flip `seq` back to even, snapshot intact.
    pub(crate) fn unlock_snapshot_unchanged(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// First `Active` reader that is not `me`, with the current version
    /// lent to the aborted-but-running readers met on the way
    /// ([`ObjState::scan_readers`]). Caller must hold the object mutex,
    /// and must have flipped `seq` odd first.
    pub(crate) fn conflicting_reader(
        &self,
        st: &mut ObjState<T>,
        me: &TxState,
    ) -> Option<Arc<TxState>> {
        st.scan_readers(&self.reader_slots, me.attempt_id, true)
    }

    /// Diagnostic snapshot of the hot-path state for opacity-violation
    /// reports (debug builds only).
    #[cfg(debug_assertions)]
    pub(crate) fn debug_dump(&self, slot_idx: usize, attempt_id: u64) -> String {
        let seq = self.seq.load(Ordering::SeqCst);
        let word = self
            .reader_slots
            .get(slot_idx)
            .map(|s| s.load(Ordering::SeqCst));
        let live = slots::live_reader(slot_idx, attempt_id).map(|tx| tx.is_active());
        let st = self.state.try_lock().map(|st| {
            (
                st.writer
                    .as_ref()
                    .map(|w| (w.attempt_id, format!("{:?}", w.status()))),
                st.readers.len(),
            )
        });
        format!(
            "seq={seq} my_word={word:?} my_registry_live={live:?} locator={st:?} \
             slot_idx={slot_idx} attempt={attempt_id}"
        )
    }

    /// Fold `me`'s terminal outcome into the locator, if `me` is still the
    /// installed writer. Called by the owner itself right after its status
    /// CAS on the *abort* rollback path: committed → `new` becomes the
    /// version; aborted → `old` stays. Collapsing eagerly (instead of
    /// leaving it to the next accessor) re-arms the lock-free read path
    /// immediately and drops the locator's `TxState` reference, so the
    /// attempt's allocation is recyclable by the very next transaction.
    /// (Multi-object *commits* skip this and leave the collapse to the
    /// next accessor — see `Txn::commit` — because an extra lock round per
    /// object costs more than lazy collapse does.)
    ///
    /// Races are benign: a competitor that collapses first (its own
    /// read/acquire path folds terminal writers too) leaves `writer` empty
    /// and this becomes a no-op.
    pub(crate) fn collapse_terminal(&self, me: &TxState) {
        let mut st = self.state.lock();
        let mine = st
            .writer
            .as_ref()
            .is_some_and(|w| w.attempt_id == me.attempt_id);
        if !mine {
            return;
        }
        debug_assert!(me.status() != TxStatus::Active);
        let cur = st.effective();
        let prev = std::mem::replace(&mut st.old, cur);
        let orphan = st.new.take();
        st.writer = None;
        self.unlock_snapshot(&st.old);
        st.retire(prev);
        if let Some(orphan) = orphan {
            st.retire(orphan);
        }
    }

    /// Single-object commit, fused: publish `value`, decide the
    /// transaction's fate with its status CAS, and collapse the locator —
    /// all under one acquisition of the object lock. Only sound when this
    /// object is the transaction's *entire* write set: the status CAS is
    /// what makes multi-object commits atomic, so a multi-entry write set
    /// must stage every `new` version before the CAS (the two-pass path).
    ///
    /// Returns the CAS verdict (`true` = committed). On `false` (an enemy
    /// aborted us first) the locator is left untouched; the abort path's
    /// rollback collapses it.
    pub(crate) fn commit_value_fused(&self, value: &T, me: &TxState) -> bool {
        let mut st = self.state.lock();
        let still_owner = st
            .writer
            .as_ref()
            .is_some_and(|w| w.attempt_id == me.attempt_id);
        if !still_owner {
            // Only a terminal writer can be collapsed past, so we were
            // already aborted; the CAS below just confirms it.
            return me.try_commit();
        }
        if !me.try_commit() {
            return false;
        }
        // Committed while holding the lock: install the value directly as
        // the current version (recycling the retired version's allocation)
        // and re-arm the lock-free read path.
        let arc = match st.spare.take() {
            Some(mut a) => match Arc::get_mut(&mut a) {
                Some(slot) => {
                    slot.clone_from(value);
                    a
                }
                None => Arc::new(value.clone()),
            },
            None => Arc::new(value.clone()),
        };
        let prev = std::mem::replace(&mut st.old, arc);
        st.new = None;
        st.writer = None;
        self.unlock_snapshot(&st.old);
        st.retire(prev);
        true
    }

    /// Commit-time publish of an inline write-set value: install `value`
    /// as the locator's `new` version iff `me` still owns the object,
    /// recycling the spare version `Arc` when it is unshared so the
    /// steady-state publish performs no heap allocation.
    pub(crate) fn publish_value(&self, value: &T, me: &TxState) {
        let mut st = self.state.lock();
        let still_owner = st
            .writer
            .as_ref()
            .is_some_and(|w| w.attempt_id == me.attempt_id);
        if !still_owner {
            return;
        }
        let arc = match st.spare.take() {
            Some(mut a) => match Arc::get_mut(&mut a) {
                Some(slot) => {
                    slot.clone_from(value);
                    a
                }
                // Still shared with a reader snapshot: give up on this one
                // (dropping it sheds our count) and allocate.
                None => Arc::new(value.clone()),
            },
            None => Arc::new(value.clone()),
        };
        st.new = Some(arc);
    }

    /// Register a reader through the mutex path (no slot, or fast path
    /// declined). Caller must hold the object mutex.
    pub(crate) fn register_reader_locked(
        &self,
        st: &mut ObjState<T>,
        slot_idx: usize,
        tx: &Arc<TxState>,
    ) {
        if let Some(slot) = self.reader_slots.get(slot_idx) {
            if slot.load(Ordering::Relaxed) != tx.attempt_id {
                #[cfg(debug_assertions)]
                crate::probe::count_read_slot_store();
                slot.store(tx.attempt_id, Ordering::SeqCst);
            }
        } else {
            st.register_reader(tx);
        }
    }
}

/// Lazy-engine protocol primitives (see [`crate::engine::lazy`]).
///
/// These repurpose the seqlock word as the per-object **commit lock**:
/// the committer CASes it even→odd directly instead of flipping it under
/// the object mutex. That CAS is only sound against other CAS-based
/// lockers — which is why one `TVar` must never be driven by the eager
/// and the lazy engine concurrently (the eager engine's transitions are
/// serialized by the mutex, not the word itself). Sequential reuse across
/// runs is supported, but takes one extra step: eager multi-object
/// commits deliberately leave the locator uncollapsed (word odd, terminal
/// writer installed) for the *next accessor's* mutex path to fold — see
/// [`Self::collapse_terminal`]. A lazy accessor that meets such a word
/// has no eager acquire path to do the folding, so it calls
/// [`Self::collapse_eager_leftover`] instead of waiting for an owner
/// that will never release.
impl<T: TxObject> TVarInner<T> {
    /// Invisible read: the committed value plus the seqlock word and
    /// version it was sampled at, all mutually consistent. `None` while a
    /// committer holds the object (word odd) or on a transient word
    /// change — the caller loops.
    #[inline]
    pub(crate) fn lazy_read(&self) -> Option<(Arc<T>, u64, u64)> {
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 != 0 {
            return None;
        }
        #[cfg(debug_assertions)]
        crate::probe::count_read_shared_rmws(3); // guard up, count, guard down
        self.guards.fetch_add(1, Ordering::SeqCst);
        let result = if self.seq.load(Ordering::SeqCst) == s {
            let version = self.version.load(Ordering::SeqCst);
            let p = self.snapshot.load(Ordering::Acquire);
            // SAFETY: the word was even at the re-check while our guard
            // was raised, so a committer that wants to swap/drop the
            // snapshot is still draining `guards` — the pointee and its
            // strong count stay alive until our `fetch_sub` below; and it
            // stores `version` only after that drain, so the version we
            // just loaded belongs to this snapshot.
            unsafe {
                Arc::increment_strong_count(p);
                Some((Arc::from_raw(p), s, version))
            }
        } else {
            None
        };
        self.guards.fetch_sub(1, Ordering::SeqCst);
        result
    }

    /// Try to take the commit lock for attempt `attempt_id` running on
    /// reader slot `slot_idx`. On success returns the pre-lock seqlock
    /// word (for own-write read validation) and the object's committed
    /// version, with all in-flight guarded readers drained; `None` means
    /// the word is odd (a competitor holds the lock) or moved under the
    /// CAS. The version is loaded *under the held lock*, so the maximum
    /// over a locked write set is exactly the `maxv` input that
    /// [`crate::engine::write_version`] needs for its per-object
    /// monotonicity clamp.
    pub(crate) fn lazy_try_lock(&self, slot_idx: usize, attempt_id: u64) -> Option<(u64, u64)> {
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 != 0 {
            return None;
        }
        if self
            .seq
            .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return None;
        }
        // Advertise ownership before the drain so a reader that hits the
        // odd word can resolve us through the registry right away.
        self.owner_slot.store(slot_idx as u64, Ordering::SeqCst);
        self.owner_attempt.store(attempt_id, Ordering::SeqCst);
        while self.guards.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        Some((s, self.version.load(Ordering::SeqCst)))
    }

    /// The current commit-lock holder, if it is still a live registered
    /// attempt. `None` also covers "mid write-back" and "owner on an
    /// overflow slot" — callers just wait those out.
    pub(crate) fn lazy_owner(&self) -> Option<Arc<TxState>> {
        let attempt = self.owner_attempt.load(Ordering::SeqCst);
        if attempt == 0 {
            return None;
        }
        let slot = self.owner_slot.load(Ordering::SeqCst) as usize;
        // Attempt ids are never reused, so a racing owner change at worst
        // yields an id the registry no longer maps — `None`, never a
        // wrong transaction.
        slots::live_reader(slot, attempt).filter(|tx| tx.is_active())
    }

    /// Fold an eager engine's *leftover* terminal writer into the locator
    /// and re-arm the word. Eager multi-object commits leave the locator
    /// uncollapsed (word odd, terminal writer installed) for the next
    /// accessor's eager mutex path to fold; a lazy accessor meeting that
    /// word would otherwise wait forever for a lock holder that no longer
    /// exists. Returns `true` if a leftover was collapsed (the word is now
    /// even), `false` if there was nothing to collapse — the word is odd
    /// for some other reason (a real lazy commit lock, or an *active*
    /// eager writer, which unsupported concurrent cross-engine use would
    /// produce) and the caller should keep waiting.
    pub(crate) fn collapse_eager_leftover(&self) -> bool {
        let mut st = self.state.lock();
        match &st.writer {
            Some(w) if !w.is_active() => {}
            _ => return false,
        }
        let cur = st.effective();
        let prev = std::mem::replace(&mut st.old, cur);
        let orphan = st.new.take();
        st.writer = None;
        self.unlock_snapshot(&st.old);
        st.retire(prev);
        if let Some(orphan) = orphan {
            st.retire(orphan);
        }
        true
    }

    /// Release the commit lock without having written (failed commit):
    /// value, snapshot, and version stay; the word flips back to even.
    pub(crate) fn lazy_unlock(&self) {
        self.owner_attempt.store(0, Ordering::SeqCst);
        self.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Commit-time write-back under the held commit lock: install `value`
    /// as the committed version, stamp write version `wv`, and release
    /// the lock. The version store precedes the final even flip, so any
    /// reader that samples the new snapshot also sees `wv`.
    pub(crate) fn lazy_writeback_value(&self, value: &T, wv: u64) {
        let mut st = self.state.lock();
        let arc = match st.spare.take() {
            Some(mut a) => match Arc::get_mut(&mut a) {
                Some(slot) => {
                    slot.clone_from(value);
                    a
                }
                None => Arc::new(value.clone()),
            },
            None => Arc::new(value.clone()),
        };
        self.finish_writeback(&mut st, arc, wv);
    }

    /// As [`Self::lazy_writeback_value`], for a boxed shadow: the shadow
    /// `Arc` itself becomes the committed version (no clone).
    pub(crate) fn lazy_writeback_arc(&self, shadow: &Arc<T>, wv: u64) {
        let mut st = self.state.lock();
        let arc = Arc::clone(shadow);
        self.finish_writeback(&mut st, arc, wv);
    }

    fn finish_writeback(&self, st: &mut ObjState<T>, arc: Arc<T>, wv: u64) {
        // No conflict scan precedes a lazy commit. Its own readers are
        // counted; an eager engine's driven over the same object (never
        // supported, see above) are not.
        if crate::engine::eager_readers_possible() {
            st.lend_to_readers(&self.reader_slots);
        }
        let prev = std::mem::replace(&mut st.old, arc);
        st.new = None;
        self.version.store(wv, Ordering::SeqCst);
        self.owner_attempt.store(0, Ordering::SeqCst);
        self.unlock_snapshot(&st.old);
        st.retire(prev);
    }
}

/// Type-erased view of a [`TVarInner`] for the lazy engine's read set:
/// commit-time validation needs the identity, seqlock word, and version of
/// each read object, but not its value type.
pub(crate) trait LazySource: Send + Sync {
    /// The object's id.
    fn source_id(&self) -> u64;
    /// Current seqlock word.
    fn seq_now(&self) -> u64;
    /// Current committed-version stamp.
    fn version_now(&self) -> u64;
}

impl<T: TxObject> LazySource for TVarInner<T> {
    fn source_id(&self) -> u64 {
        self.id
    }

    fn seq_now(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    fn version_now(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }
}

impl<T: TxObject> TVar<T> {
    /// Create a new transactional object with initial value `value`.
    pub fn new(value: T) -> Self {
        Self::with_slot_count(value, slots::slot_capacity())
    }

    /// For tests (this crate's and `tests/borrowed_read_stress.rs`): a TVar
    /// whose fast-path slot array has exactly `slot_count` entries
    /// regardless of the global capacity. Threads with higher slot indices
    /// are forced onto the mutex/overflow path, which is what production
    /// code hits when the thread count exceeds the slot capacity a TVar
    /// was created under.
    #[doc(hidden)]
    pub fn new_with_slots_for_test(value: T, slot_count: usize) -> Self {
        Self::with_slot_count(value, slot_count)
    }

    fn with_slot_count(value: T, slot_count: usize) -> Self {
        let old = Arc::new(value);
        let snapshot = Arc::into_raw(Arc::clone(&old)).cast_mut();
        TVar {
            inner: Arc::new(TVarInner {
                id: next_tvar_id(),
                seq: AtomicU64::new(0),
                guards: AtomicU64::new(0),
                snapshot: AtomicPtr::new(snapshot),
                reader_slots: (0..slot_count).map(|_| AtomicU64::new(0)).collect(),
                version: AtomicU64::new(0),
                owner_slot: AtomicU64::new(0),
                owner_attempt: AtomicU64::new(0),
                state: Mutex::new(ObjState {
                    writer: None,
                    old,
                    new: None,
                    readers: Vec::new(),
                    spare: None,
                }),
            }),
        }
    }

    /// Unique id of the object.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Non-transactional peek at the current committed version.
    ///
    /// Safe at any time but only *meaningful* when no transaction is
    /// mutating the object (e.g. validation between experiment phases).
    /// Takes the lock-free snapshot when no writer is installed.
    pub fn sample(&self) -> Arc<T> {
        let inner = &*self.inner;
        let s = inner.seq.load(Ordering::SeqCst);
        if s & 1 == 0 {
            inner.guards.fetch_add(1, Ordering::SeqCst);
            let r = if inner.seq.load(Ordering::SeqCst) == s {
                let p = inner.snapshot.load(Ordering::Acquire);
                // SAFETY: same argument as in `lazy_read`.
                unsafe {
                    Arc::increment_strong_count(p);
                    Some(Arc::from_raw(p))
                }
            } else {
                None
            };
            inner.guards.fetch_sub(1, Ordering::SeqCst);
            if let Some(v) = r {
                return v;
            }
        }
        inner.state.lock().effective()
    }

    /// Non-transactional replacement of the value. Intended for
    /// initialization and between-run resets; it discards any in-flight
    /// writer by overwriting the locator wholesale and wipes all reader
    /// registrations (in-flight readers are *not* aborted — don't race
    /// this against live transactions: what they already read stays
    /// valid memory, but no longer one consistent snapshot).
    pub fn store_direct(&self, value: T) {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        if st.writer.is_none() {
            // No writer installed ⇒ seq currently even; claim the odd
            // period ourselves. (With a writer installed seq is already
            // odd from its acquire — unlock below folds both cases.)
            inner.lock_snapshot();
        }
        st.lend_to_readers(&inner.reader_slots);
        st.writer = None;
        st.old = Arc::new(value);
        st.new = None;
        st.spare = None;
        st.readers.clear();
        for slot in inner.reader_slots.iter() {
            slot.store(0, Ordering::SeqCst);
        }
        inner.unlock_snapshot(&st.old);
    }

    pub(crate) fn inner(&self) -> &TVarInner<T> {
        &self.inner
    }

    /// The inner object as a type-erased lazy-validation source (clones
    /// the handle `Arc`).
    pub(crate) fn inner_arc(&self) -> Arc<dyn LazySource> {
        Arc::clone(&self.inner) as Arc<dyn LazySource>
    }

    /// Number of currently *live* registered readers — diagnostics only.
    pub fn reader_count(&self) -> usize {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        let live_slots = inner
            .reader_slots
            .iter()
            .enumerate()
            .filter(|(idx, slot)| {
                let a = slot.load(Ordering::SeqCst);
                a != 0 && slots::live_reader(*idx, a).is_some_and(|tx| tx.is_active())
            })
            .count();
        st.prune_readers();
        let live_overflow = st
            .readers
            .iter()
            .filter(|r| r.tx.upgrade().is_some_and(|tx| tx.is_active()));
        live_slots + live_overflow.count()
    }
}

impl<T: TxObject + Default> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

// ---------------------------------------------------------------------------
// Type-erased write-set entries
// ---------------------------------------------------------------------------

/// A write-set entry, type-erased so one list can hold writes to objects
/// of different types.
pub(crate) trait ErasedWrite: Send {
    /// Install the shadow copy as the locator's `new` version, iff the
    /// committing transaction still owns the object.
    fn publish(&self, me: &TxState);
    /// Fold `me`'s terminal outcome into the locator
    /// ([`TVarInner::collapse_terminal`]).
    fn release(&self, me: &TxState);
    /// Single-entry fused commit ([`TVarInner::commit_value_fused`]):
    /// publish + status CAS + collapse under one object lock. Only called
    /// when this entry is the transaction's entire write set.
    fn commit_fused(&self, me: &TxState) -> bool;
    /// Lazy engine: try to take the object's commit lock
    /// ([`TVarInner::lazy_try_lock`]).
    fn lazy_lock(&self, slot_idx: usize, attempt_id: u64) -> Option<(u64, u64)>;
    /// Lazy engine: the live commit-lock holder ([`TVarInner::lazy_owner`]).
    fn lazy_owner(&self) -> Option<Arc<TxState>>;
    /// Lazy engine: fold an eager run's leftover terminal writer
    /// ([`TVarInner::collapse_eager_leftover`]).
    fn collapse_eager_leftover(&self) -> bool;
    /// Lazy engine: release the commit lock without writing
    /// ([`TVarInner::lazy_unlock`]).
    fn lazy_unlock(&self);
    /// Lazy engine: write the shadow back under the held lock
    /// ([`TVarInner::lazy_writeback_arc`]).
    fn lazy_writeback(&self, wv: u64);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Typed write-set entry: the object handle plus the private shadow copy.
pub(crate) struct TypedWrite<T: TxObject> {
    pub(crate) tvar: TVar<T>,
    pub(crate) shadow: Arc<T>,
}

impl<T: TxObject> ErasedWrite for TypedWrite<T> {
    fn release(&self, me: &TxState) {
        self.tvar.inner().collapse_terminal(me);
    }

    fn commit_fused(&self, me: &TxState) -> bool {
        let inner = self.tvar.inner();
        let mut st = inner.state.lock();
        let still_owner = st
            .writer
            .as_ref()
            .is_some_and(|w| w.attempt_id == me.attempt_id);
        if !still_owner {
            return me.try_commit();
        }
        if !me.try_commit() {
            return false;
        }
        let prev = std::mem::replace(&mut st.old, Arc::clone(&self.shadow));
        st.new = None;
        st.writer = None;
        inner.unlock_snapshot(&st.old);
        st.retire(prev);
        true
    }

    fn publish(&self, me: &TxState) {
        let mut st = self.tvar.inner().state.lock();
        let still_owner = st
            .writer
            .as_ref()
            .is_some_and(|w| w.attempt_id == me.attempt_id);
        if still_owner {
            st.new = Some(Arc::clone(&self.shadow));
        }
    }

    fn lazy_lock(&self, slot_idx: usize, attempt_id: u64) -> Option<(u64, u64)> {
        self.tvar.inner().lazy_try_lock(slot_idx, attempt_id)
    }

    fn lazy_owner(&self) -> Option<Arc<TxState>> {
        self.tvar.inner().lazy_owner()
    }

    fn collapse_eager_leftover(&self) -> bool {
        self.tvar.inner().collapse_eager_leftover()
    }

    fn lazy_unlock(&self) {
        self.tvar.inner().lazy_unlock();
    }

    fn lazy_writeback(&self, wv: u64) {
        self.tvar.inner().lazy_writeback_arc(&self.shadow, wv);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockns;
    use crate::slots::MAX_SLOTS;

    fn state(id: u64) -> Arc<TxState> {
        Arc::new(TxState::new(id, id, 0, 0, id, id, clockns::now(), 0))
    }

    /// A state with a fresh, globally unique attempt id, published on this
    /// thread's slot so the slot-scan paths treat it as live.
    fn published_state() -> (usize, Arc<TxState>) {
        let idx = slots::my_slot_index();
        assert_ne!(idx, crate::slots::NO_SLOT);
        let id = slots::next_attempt_id();
        let st = state(id);
        slots::publish(idx, &st);
        (idx, st)
    }

    /// The value a fast read points at.
    fn fast_value(tv: &TVar<u32>, idx: usize, attempt_id: u64) -> Option<u32> {
        // SAFETY: the calling test holds `tv` and displaces nothing while
        // this runs.
        tv.inner().fast_read(idx, attempt_id).map(|p| unsafe { *p })
    }

    /// TVars created by these tests must cover every possible slot index,
    /// or fast-path assertions would depend on which worker thread the
    /// test harness runs them on.
    fn covered_tvar(v: u32) -> TVar<u32> {
        crate::slots::reserve_reader_slots(MAX_SLOTS);
        TVar::new(v)
    }

    #[test]
    fn new_tvar_has_value_and_unique_id() {
        let a: TVar<u32> = TVar::new(7);
        let b: TVar<u32> = TVar::new(9);
        assert_ne!(a.id(), b.id());
        assert_eq!(*a.sample(), 7);
        assert_eq!(*b.sample(), 9);
    }

    #[test]
    fn clone_shares_object() {
        let a: TVar<u32> = TVar::new(1);
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        a.store_direct(5);
        assert_eq!(*b.sample(), 5);
    }

    #[test]
    fn effective_follows_writer_status() {
        let tv: TVar<u32> = TVar::new(10);
        let w = state(1);
        {
            let mut st = tv.inner().state.lock();
            tv.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&w));
            st.new = Some(Arc::new(20));
        }
        // Active writer: old version visible.
        assert_eq!(*tv.sample(), 10);
        // Aborted writer: still old.
        assert!(w.abort());
        assert_eq!(*tv.sample(), 10);

        let tv2: TVar<u32> = TVar::new(10);
        let w2 = state(2);
        {
            let mut st = tv2.inner().state.lock();
            tv2.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&w2));
            st.new = Some(Arc::new(20));
        }
        assert!(w2.try_commit());
        assert_eq!(*tv2.sample(), 20);
    }

    #[test]
    fn fast_read_registers_and_returns_snapshot() {
        let tv = covered_tvar(33);
        let (idx, st) = published_state();
        let v = fast_value(&tv, idx, st.attempt_id);
        assert_eq!(v, Some(33), "no writer installed → fast path must succeed");
        assert_eq!(tv.reader_count(), 1, "fast read must register visibly");
        // Re-reading does not double-register.
        let _ = tv.inner().fast_read(idx, st.attempt_id);
        assert_eq!(tv.reader_count(), 1);
        slots::unpublish(idx);
        assert_eq!(tv.reader_count(), 0, "unpublished attempt is not live");
    }

    #[test]
    fn fast_read_declines_while_writer_installed() {
        let tv = covered_tvar(5);
        let w = state(900);
        {
            let mut st = tv.inner().state.lock();
            tv.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&w));
        }
        let (idx, st) = published_state();
        assert!(
            tv.inner().fast_read(idx, st.attempt_id).is_none(),
            "odd seq (writer installed) must force the mutex path"
        );
        // Collapse back: writer aborted, locator folds to old.
        {
            let mut obj = tv.inner().state.lock();
            w.abort();
            obj.writer = None;
            obj.new = None;
            let cur = Arc::clone(&obj.old);
            tv.inner().unlock_snapshot(&cur);
        }
        assert_eq!(fast_value(&tv, idx, st.attempt_id), Some(5));
        slots::unpublish(idx);
    }

    #[test]
    fn conflicting_reader_sees_slot_registrations() {
        let tv = covered_tvar(0);
        let (idx, reader) = published_state();
        assert!(tv.inner().fast_read(idx, reader.attempt_id).is_some());

        let me = state(slots::next_attempt_id());
        let mut st = tv.inner().state.lock();
        let c = tv
            .inner()
            .conflicting_reader(&mut st, &me)
            .expect("live slot reader must conflict");
        assert_eq!(c.attempt_id, reader.attempt_id);

        // The reader itself must not conflict with its own registration.
        assert!(tv.inner().conflicting_reader(&mut st, &reader).is_none());

        // Once the attempt is over it is stale, and the scan clears it.
        drop(st);
        reader.try_commit();
        slots::unpublish(idx);
        let mut st = tv.inner().state.lock();
        assert!(tv.inner().conflicting_reader(&mut st, &me).is_none());
        drop(st);
        assert_eq!(tv.reader_count(), 0);
    }

    #[test]
    fn conflicting_reader_finds_last_shard_and_overflow_readers() {
        // A reader whose slot index lands in the LAST shard (index 255):
        // only reachable through the shard-mask walk covering every
        // shard, since lowest-free-first allocation never hands out 255
        // organically.
        let claim = slots::TestSlotClaim::claim(MAX_SLOTS - 1)
            .expect("index 255 is never organically allocated");
        let tv = covered_tvar(0);
        assert_eq!(tv.inner().reader_slots.len(), MAX_SLOTS);
        let reader = state(slots::next_attempt_id());
        slots::publish(claim.idx, &reader);
        assert!(
            tv.inner().fast_read(claim.idx, reader.attempt_id).is_some(),
            "a claimed last-shard index must work like any other slot"
        );
        let me = state(slots::next_attempt_id());
        {
            let mut st = tv.inner().state.lock();
            let c = tv
                .inner()
                .conflicting_reader(&mut st, &me)
                .expect("a live reader in the last shard must be found");
            assert_eq!(c.attempt_id, reader.attempt_id);
        }
        drop(claim); // unpublishes + frees index 255
        {
            let mut st = tv.inner().state.lock();
            assert!(
                tv.inner().conflicting_reader(&mut st, &me).is_none(),
                "a freed high index must no longer surface a reader"
            );
            // An overflow-list reader must be found by the same scan.
            let ovf = state(slots::next_attempt_id());
            st.register_reader(&ovf);
            let c = tv
                .inner()
                .conflicting_reader(&mut st, &me)
                .expect("overflow reader must be found after the shard walk");
            assert_eq!(c.attempt_id, ovf.attempt_id);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn reader_scan_is_bounded_by_active_threads() {
        // Full-capacity slot array (256 words): the old scan loaded every
        // word; the active-set scan loads only words of allocated slot
        // indices. Other tests hold slots concurrently, but far fewer
        // than the bound below.
        let tv = covered_tvar(0);
        assert_eq!(tv.inner().reader_slots.len(), MAX_SLOTS);
        let (idx, reader) = published_state();
        assert!(tv.inner().fast_read(idx, reader.attempt_id).is_some());
        let me = state(slots::next_attempt_id());
        let mut st = tv.inner().state.lock();
        crate::probe::take_reader_slot_loads();
        let found = tv.inner().conflicting_reader(&mut st, &me);
        let loads = crate::probe::take_reader_slot_loads();
        drop(st);
        assert_eq!(
            found.map(|c| c.attempt_id),
            Some(reader.attempt_id),
            "the bounded scan must still find the live reader"
        );
        assert!(loads >= 1, "the registered reader's word must be loaded");
        assert!(
            loads <= (MAX_SLOTS / 4) as u64,
            "reader scan must be O(active threads), not O(capacity): {loads} word loads"
        );
        slots::unpublish(idx);
    }

    #[test]
    fn overflow_registration_is_idempotent_and_pruned_once_the_body_is_over() {
        let tv: TVar<u32> = TVar::new(0);
        let r = state(1);
        {
            let mut st = tv.inner().state.lock();
            st.register_reader(&r);
            st.register_reader(&r);
            assert_eq!(st.readers.len(), 1);
        }
        r.abort();
        {
            let mut st = tv.inner().state.lock();
            st.prune_readers();
            assert_eq!(
                st.readers.len(),
                1,
                "aborted under a running body: the next writer must still find it"
            );
        }
        assert_eq!(tv.reader_count(), 0, "but it is no live reader");
        r.finish_body();
        {
            let mut st = tv.inner().state.lock();
            st.prune_readers();
            assert_eq!(st.readers.len(), 0);
        }
        let done = state(2);
        {
            let mut st = tv.inner().state.lock();
            st.register_reader(&done);
            done.try_commit();
            st.prune_readers();
            assert_eq!(st.readers.len(), 0, "committed means the body is over");
        }
    }

    /// Install-scan `tv` as a fresh writer and return the conflict found.
    fn writer_scan(tv: &TVar<u32>) -> Option<u64> {
        let me = state(slots::next_attempt_id());
        let mut st = tv.inner().state.lock();
        tv.inner().lock_snapshot();
        let enemy = tv.inner().conflicting_reader(&mut st, &me);
        tv.inner().unlock_snapshot_unchanged();
        enemy.map(|e| e.attempt_id)
    }

    /// Strong counts of `tv`'s current version beyond the locator's and
    /// the snapshot cell's.
    fn counts_on_loan(tv: &TVar<u32>) -> usize {
        Arc::strong_count(&tv.inner().state.lock().old) - 2
    }

    #[test]
    fn scan_lends_the_version_to_an_aborted_reader_whose_body_still_runs() {
        for slot_count in [MAX_SLOTS, 0] {
            // 0: the same through the overflow list.
            crate::slots::reserve_reader_slots(MAX_SLOTS);
            let tv = TVar::new_with_slots_for_test(9u32, slot_count);
            let (idx, reader) = published_state();
            {
                let mut st = tv.inner().state.lock();
                tv.inner().register_reader_locked(&mut st, idx, &reader);
            }
            assert_eq!(
                writer_scan(&tv),
                Some(reader.attempt_id),
                "Active: a conflict"
            );
            assert_eq!((reader.lent_len(), counts_on_loan(&tv)), (0, 0));

            reader.abort();
            assert_eq!(writer_scan(&tv), None, "aborted: the writer may install");
            assert_eq!(
                (reader.lent_len(), counts_on_loan(&tv)),
                (1, 1),
                "slots={slot_count}: the version it may be reading is now its own"
            );
            // One loan is enough: an aborted attempt gets no new borrow.
            assert_eq!(writer_scan(&tv), None);
            assert_eq!((reader.lent_len(), counts_on_loan(&tv)), (1, 1));

            reader.finish_body();
            assert_eq!((reader.lent_len(), counts_on_loan(&tv)), (0, 0));
            slots::unpublish(idx);
        }
    }

    #[test]
    fn scan_lends_nothing_to_committed_finished_or_departed_readers() {
        for slot_count in [MAX_SLOTS, 0] {
            crate::slots::reserve_reader_slots(MAX_SLOTS);
            let register = |tv: &TVar<u32>, idx: usize, tx: &Arc<TxState>| {
                let mut st = tv.inner().state.lock();
                tv.inner().register_reader_locked(&mut st, idx, tx);
            };

            // Committed: the status CAS comes after the body.
            let tv = TVar::new_with_slots_for_test(1u32, slot_count);
            let (idx, committed) = published_state();
            register(&tv, idx, &committed);
            committed.try_commit();
            assert_eq!(writer_scan(&tv), None);
            assert_eq!((committed.lent_len(), counts_on_loan(&tv)), (0, 0));
            slots::unpublish(idx);

            // Aborted and finished: the owner has dropped its borrows.
            let (idx, finished) = published_state();
            register(&tv, idx, &finished);
            finished.abort();
            finished.finish_body();
            assert_eq!(writer_scan(&tv), None);
            assert_eq!((finished.lent_len(), counts_on_loan(&tv)), (0, 0));
            slots::unpublish(idx);

            // Aborted, never marked finished, but its thread already runs
            // the next attempt (slot readers only: the registry is what
            // says so).
            if slot_count > 0 {
                let (idx, departed) = published_state();
                register(&tv, idx, &departed);
                departed.abort();
                let next = state(slots::next_attempt_id());
                slots::republish(idx, &next);
                assert_eq!(writer_scan(&tv), None);
                assert_eq!((departed.lent_len(), counts_on_loan(&tv)), (0, 0));
                slots::unpublish(idx);
            }
        }
    }

    #[test]
    fn displacements_without_a_conflict_scan_lend_to_active_readers_too() {
        // A lazy write-back looks for eager readers only while an eager
        // engine exists.
        let _eager = crate::Stm::new(crate::CmDispatch::AbortSelf, 1);
        let tv = covered_tvar(4);
        let (idx, reader) = published_state();
        assert_eq!(fast_value(&tv, idx, reader.attempt_id), Some(4));
        let v4 = Arc::clone(&tv.inner().state.lock().old);
        tv.store_direct(5);
        assert_eq!(reader.lent_len(), 1, "store_direct");
        assert_eq!(Arc::strong_count(&v4), 2, "ours and the reader's");

        assert_eq!(fast_value(&tv, idx, reader.attempt_id), Some(5));
        let v5 = Arc::clone(&tv.inner().state.lock().old);
        assert_eq!(tv.inner().lazy_try_lock(idx, 1).map(|(_, v)| v), Some(0));
        tv.inner().lazy_writeback_value(&6, 1);
        assert_eq!(reader.lent_len(), 2, "lazy write-back");
        assert!(Arc::strong_count(&v5) >= 2);

        assert_eq!(fast_value(&tv, idx, reader.attempt_id), Some(6));
        let v6 = Arc::clone(&tv.inner().state.lock().old);
        drop(tv);
        assert_eq!(reader.lent_len(), 3, "drop of the last handle");
        assert_eq!((*v6, Arc::strong_count(&v6)), (6, 2));

        reader.try_commit();
        slots::unpublish(idx);
    }

    #[test]
    fn conflicting_reader_covers_the_overflow_list() {
        let tv: TVar<u32> = TVar::new(0);
        let me = state(1);
        let other = state(2);
        let done = state(3);
        done.try_commit();
        let mut st = tv.inner().state.lock();
        st.register_reader(&me);
        st.register_reader(&other);
        // A terminal attempt on the list must be filtered out.
        st.readers.push(ReaderEntry {
            attempt_id: done.attempt_id,
            tx: Arc::downgrade(&done),
        });
        let c = tv
            .inner()
            .conflicting_reader(&mut st, &me)
            .expect("other should conflict");
        assert_eq!(c.attempt_id, other.attempt_id);
        let c2 = tv
            .inner()
            .conflicting_reader(&mut st, &other)
            .expect("me should conflict");
        assert_eq!(c2.attempt_id, me.attempt_id);
    }

    #[test]
    fn no_slot_tvar_forces_overflow_path_with_same_conflicts() {
        // A TVar built with zero fast-path slots models the situation where
        // a thread's slot index exceeds the capacity the TVar was created
        // under: every access must take the mutex/overflow path.
        let tv = TVar::new_with_slots_for_test(7u32, 0);
        let (idx, reader) = published_state();
        assert!(
            tv.inner().fast_read(idx, reader.attempt_id).is_none(),
            "no slot for this thread → fast path must decline"
        );
        {
            let mut st = tv.inner().state.lock();
            tv.inner().register_reader_locked(&mut st, idx, &reader);
            assert_eq!(
                st.readers.len(),
                1,
                "registration must fall back to the overflow list"
            );
            // Idempotent, like the slot path.
            tv.inner().register_reader_locked(&mut st, idx, &reader);
            assert_eq!(st.readers.len(), 1);
        }
        // A writer scanning for conflicts must find the overflow reader
        // exactly as it would find a slot reader.
        let writer = state(slots::next_attempt_id());
        let mut st = tv.inner().state.lock();
        tv.inner().lock_snapshot();
        let enemy = tv.inner().conflicting_reader(&mut st, &writer);
        tv.inner().unlock_snapshot_unchanged();
        assert_eq!(
            enemy.map(|e| e.attempt_id),
            Some(reader.attempt_id),
            "overflow reader must raise the same conflict as a slot reader"
        );
        // The reader does not conflict with itself on the overflow list.
        assert!(tv.inner().conflicting_reader(&mut st, &reader).is_none());
        drop(st);
        slots::unpublish(idx);
    }

    #[test]
    fn engine_preserves_atomicity_on_overflow_only_tvar() {
        use crate::cm::AbortEnemyManager;
        use crate::stm::Stm;
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 200;
        let stm = Stm::new(Arc::new(AbortEnemyManager), THREADS);
        // Zero slots: every read from every thread is an overflow reader,
        // as when the thread count exceeds the reader-slot capacity.
        let tv = TVar::new_with_slots_for_test(0u64, 0);
        std::thread::scope(|s| {
            for i in 0..THREADS {
                let ctx = stm.thread(i);
                let tv = tv.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        ctx.atomic(|tx| {
                            let v = *tx.read(&tv)?;
                            tx.write(&tv, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(*tv.sample(), THREADS as u64 * PER_THREAD);
        assert_eq!(stm.aggregate().commits, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn publish_only_when_still_owner() {
        let tv: TVar<u32> = TVar::new(1);
        let w1 = state(1);
        {
            let mut st = tv.inner().state.lock();
            tv.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&w1));
        }
        let entry = TypedWrite {
            tvar: tv.clone(),
            shadow: Arc::new(42),
        };
        entry.publish(&w1);
        assert!(tv.inner().state.lock().new.is_some());

        // A stale owner must not clobber a newer writer's locator.
        let tv2: TVar<u32> = TVar::new(1);
        let w2 = state(2);
        {
            let mut st = tv2.inner().state.lock();
            tv2.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&w2));
        }
        let stale = TypedWrite {
            tvar: tv2.clone(),
            shadow: Arc::new(99),
        };
        stale.publish(&w1); // w1 is not the owner of tv2
        assert!(tv2.inner().state.lock().new.is_none());
    }

    #[test]
    fn store_direct_resets_locator_and_slots() {
        let tv = covered_tvar(1);
        let (idx, reader) = published_state();
        assert!(tv.inner().fast_read(idx, reader.attempt_id).is_some());
        let w = state(1);
        {
            let mut st = tv.inner().state.lock();
            tv.inner().lock_snapshot();
            st.writer = Some(w);
            st.new = Some(Arc::new(50));
        }
        tv.store_direct(7);
        assert_eq!(*tv.sample(), 7);
        assert_eq!(tv.reader_count(), 0);
        // Fast path works again after the reset.
        assert_eq!(fast_value(&tv, idx, reader.attempt_id), Some(7));
        slots::unpublish(idx);
    }
}
