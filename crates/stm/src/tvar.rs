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
//! locator after the CAS sees the right version. The writer itself folds
//! every locator it holds once the CAS has decided — at commit
//! ([`TVarInner::commit_fused`] on the last entry, then
//! [`TVarInner::collapse_terminal`] on the others) or on the abort path's
//! rollback — so an attempt that is over leaves no locator behind; an
//! accessor folds a terminal writer only when it gets there first.
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
//! * **Reader rows.** Each object carries a dense *position*, and each
//!   global thread-slot index a row with one atomic word per position
//!   (see [`crate::slots`]), so a thread's words for neighbouring objects
//!   share its own cache lines and no other reader's. A reader registers
//!   by storing its attempt id into its row's word at the object's
//!   position: one `SeqCst` store replaces the old lock + `Vec<Weak>`
//!   enrollment. A writer scans the object's word in every live row after
//!   raising `seq` (below); the `SeqCst` store/scan pair is a Dekker-style
//!   handshake — either the reader observes the writer's odd `seq` and
//!   falls back to the mutex, or the writer's scan observes the reader's
//!   word and reports the conflict. Words hold plain ids; liveness is
//!   decided against the registry, and because attempt ids are never
//!   reused a stale word can never impersonate a live reader. Threads
//!   without a row (all indices taken, or an object built with fewer
//!   rows) use the mutex-protected overflow list — slower, never wrong.
//!
//! * **A seqlock snapshot.** `seq` is even exactly while no writer is
//!   installed, and then `snapshot` points at the same version as the
//!   locator's `old` (the cell owns one strong count of it). The odd
//!   period lasts for the writer's whole ownership; the collapse that
//!   ends it restores the even state. An eager read is slot-word
//!   store → `seq` load → `snapshot` load and takes the version *by
//!   address*: it writes the one word its reader owns and nothing else.
//!   A lazy read is the same registration followed by the seqlock
//!   sandwich `seq` → `version`/`snapshot` → `seq` ([`TVarInner::lazy_sample`]):
//!   invisible to conflict detection — no committer waits for, aborts or
//!   asks a contention manager about a registered lazy reader — and
//!   visible to reclamation, below. [`TVar::sample`], which has no attempt
//!   to register, takes the object mutex.
//!
//! ## The borrowed-read invariant
//!
//! A read holds no count of the version it returns, and a lazy read-set
//! entry holds no count of the object whose `seq` and `version` words
//! commit validation re-reads, so both must outlive their reader some
//! other way. The invariant, kept entirely inside this crate:
//!
//! > Whoever displaces the current version of an object, or frees the
//! > object's allocation, first gives a count of it ([`TxState::lend`]) to
//! > every registered attempt whose body or commit may still run.
//!
//! *Registered* is a slot word or an overflow entry naming the attempt the
//! registry says its thread is running. *May still run* is `Active`, or
//! `Aborted` before [`TxState::finish_body`] — called on the abort arm of
//! the retry loop right after the `Txn` is dropped, so after the body *and*
//! a failed commit's validation. `Committed` comes after both (the status
//! CAS is the last thing a commit reads shared state for), and an attempt
//! the registry no longer names has left its thread. A registration is
//! cleared only when it is one of those two: while the attempt may run,
//! every displacement finds it and lends again.
//!
//! Who displaces: an eager writer's commit, which installs only after
//! [`TVarInner::conflicting_reader`] — slot words *and* the overflow list —
//! found no other `Active` reader and lent to the aborted-but-running ones
//! on the way; a lazy write-back and the drop of the object's last
//! handle, which no conflict scan precedes and which lend to `Active`
//! readers too. The drop lends the object's allocation along with the
//! version (`TVarInner::this`): dropping the fields of a `TVarInner`
//! leaves its two validation words readable for as long as a `Weak` holds
//! the memory.
//!
//! A read returns its borrow only after a final `check_alive`, so an
//! eager reader was `Active` — and no writer got past it — from its
//! registration to that check, and the version it holds is the one every
//! later scan lends; a lazy reader's `seq` sandwich proves the same of the
//! version it loaded. A loan is dropped by `finish_body` or, for an
//! attempt that commits while holding some (only a lazy one can), by the
//! record's reuse. Recycling through `spare` needs no change:
//! `Arc::get_mut` refuses a version that is on loan — which is why a
//! committer must not lend to itself.
//!
//! Lock discipline: each object has one short [`Mutex`]; the
//! engine never calls a contention manager, blocks, or takes another
//! object's lock while holding it. `lock_snapshot`/`unlock_snapshot` are
//! only called with the object mutex held, so `seq` transitions are
//! serialized.

use std::any::Any;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use crate::slots;
use crate::status::TxStatus;
use crate::sync::Mutex;
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
    /// One owned strong count of the version fast readers take the
    /// address of. Valid (never null) for the whole life of the object.
    snapshot: AtomicPtr<T>,
    /// Where the object's reader-registration words sit: one per slot
    /// index's row (0 = empty, otherwise the attempt id of a — possibly
    /// finished — reader). Handed back, zeroed, by the drop.
    words: slots::RowPosition,
    /// Lazy engine: version stamp of the committed value — the write
    /// version of the transaction that installed it (0 = initial value).
    /// Compared against read watermarks; see [`crate::engine::lazy`].
    version: AtomicU64,
    /// Lazy engine: the commit-lock holder, for enemy lookup through the
    /// attempt registry — its slot index in the top bits and its attempt
    /// id below ([`owner_word`]); 0 = unlocked or mid write-back. One
    /// word, so a reader never pairs one holder's slot with another's id.
    owner: AtomicU64,
    /// The allocation this object lives in, for its drop to lend: a lazy
    /// reader's commit validation reads `seq` and `version` through plain
    /// pointers ([`crate::engine::LazyRead`]).
    this: Weak<Self>,
    pub(crate) state: Mutex<ObjState<T>>,
}

// 104 bytes: `Arc`'s two counts make a 120-byte `ArcInner`, which with
// glibc's 8-byte chunk header fills a 128-byte chunk; one word more and
// every object takes a 144-byte one. The benchmark's read-mostly tree
// holds 65 546 objects.
const _: () = assert!(std::mem::size_of::<TVarInner<u64>>() <= 104);

/// Bits of the lazy commit-lock owner word below its slot field: the
/// holder's attempt id.
const OWNER_ATTEMPT_BITS: u32 = 55;

/// The attempt-id field of the owner word.
const OWNER_ATTEMPT_MASK: u64 = (1 << OWNER_ATTEMPT_BITS) - 1;

/// The owner word's slot field for a holder without a slot index; the
/// nine bits above the attempt id hold `0..=MAX_SLOTS`.
const OWNER_NO_SLOT: u64 = slots::MAX_SLOTS as u64;

const _: () = assert!(OWNER_NO_SLOT < 1 << (64 - OWNER_ATTEMPT_BITS));

/// The lazy commit-lock owner word of attempt `attempt_id` running on
/// slot index `slot_idx` (`>= MAX_SLOTS`: none).
fn owner_word(slot_idx: usize, attempt_id: u64) -> u64 {
    debug_assert!(attempt_id != 0 && attempt_id <= OWNER_ATTEMPT_MASK);
    let slot = (slot_idx as u64).min(OWNER_NO_SLOT);
    slot << OWNER_ATTEMPT_BITS | attempt_id
}

impl<T: TxObject> Drop for TVarInner<T> {
    fn drop(&mut self) {
        // The last handle is gone, but a body that read the object through
        // one (a node just unlinked, a handle local to the closure) may
        // still hold its borrow, and its commit will validate the read:
        // the version and the allocation outlive the object.
        self.state
            .get_mut()
            .scan_readers(self.words, 0, false, Some(&self.this));
        self.words.release();
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
    next: Overflow,
}

/// Visible readers without a fast-path slot: a singly linked list of
/// boxed entries, so an object its readers reach through their row words
/// pays one null pointer for it, and the removal of the last entry frees
/// the last box. Rare and short; pruned on access.
#[derive(Default)]
pub(crate) struct Overflow(Option<Box<ReaderEntry>>);

impl Overflow {
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn len(&self) -> usize {
        self.iter().count()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    pub(crate) fn iter(&self) -> OverflowIter<'_> {
        std::iter::successors(self.0.as_deref(), |r| r.next.0.as_deref())
    }

    pub(crate) fn push(&mut self, attempt_id: u64, tx: Weak<TxState>) {
        let next = Overflow(self.0.take());
        self.0 = Some(Box::new(ReaderEntry {
            attempt_id,
            tx,
            next,
        }));
    }

    /// Keep the entries `keep` accepts, in order, freeing the others.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&ReaderEntry) -> bool) {
        let mut rest = self.0.take();
        let mut tail = &mut self.0;
        while let Some(mut r) = rest {
            rest = r.next.0.take();
            if keep(&r) {
                tail = &mut tail.insert(r).next.0;
            }
        }
    }
}

/// [`Overflow::iter`]'s type, named because it has no destructor: an
/// `impl Iterator` ending a block would be held to outlive the lock guard
/// the list is borrowed from.
pub(crate) type OverflowIter<'a> =
    std::iter::Successors<&'a ReaderEntry, fn(&&'a ReaderEntry) -> Option<&'a ReaderEntry>>;

/// The locator plus the overflow reader list, all behind the object lock.
pub(crate) struct ObjState<T: TxObject> {
    pub(crate) writer: Option<Arc<TxState>>,
    pub(crate) old: Arc<T>,
    pub(crate) new: Option<Arc<T>>,
    pub(crate) readers: Overflow,
    /// A retired version kept for recycling: locator collapses stash the
    /// displaced `Arc` here, and [`Self::version_of`] — the one place a
    /// commit, publish or lazy write-back builds a version, for an inline
    /// and a boxed write-set entry alike — rewrites it in place via
    /// `Arc::get_mut` + `clone_from` instead of calling `Arc::new`. Purely
    /// an allocation cache — never read as a value.
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
            self.readers.push(tx.attempt_id, Arc::downgrade(tx));
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

    /// Whether `me` is the installed writer.
    pub(crate) fn owned_by(&self, me: &TxState) -> bool {
        self.writer
            .as_ref()
            .is_some_and(|w| w.attempt_id == me.attempt_id)
    }

    /// A version holding `value`: the `spare` allocation rewritten in
    /// place when nobody else holds it, so that a steady-state commit
    /// allocates no version; a fresh one otherwise (a spare still on loan
    /// is dropped, which sheds our count). Every write-set entry installs
    /// its value through here ([`crate::writeset`]).
    pub(crate) fn version_of(&mut self, value: &T) -> Arc<T> {
        let mut spare = self.spare.take();
        if let Some(slot) = spare.as_mut().and_then(Arc::get_mut) {
            slot.clone_from(value);
            return spare.expect("just rewritten");
        }
        Arc::new(value.clone())
    }

    /// Walk every registered reader — the object's word `words` in each
    /// live row, then the overflow list — for a caller that is about to
    /// displace the current version. Returns the first `Active` reader
    /// other than attempt `me` when `stop_at_active` (a writer's conflict
    /// scan), nothing otherwise. On the way it lends the current version —
    /// from the object's drop, which passes `object`, the allocation with
    /// it — to each reader that is `Aborted` under a running body or
    /// commit and, without `stop_at_active`, `Active` (module docs, "The
    /// borrowed-read invariant"), and clears the registrations of attempts
    /// that can use them no more. Caller holds the object mutex (or `&mut`
    /// to the object) and has `seq` odd: a reader stores its word before
    /// it loads `seq`, the caller flipped `seq` before this loads the
    /// words, all `SeqCst` — so either the reader sees the odd word and
    /// takes the mutex path, or this walk sees the reader (the Dekker
    /// handshake of [`TVarInner::fast_read`]).
    ///
    /// The rows walked are those below the live bound ([`crate::slots`],
    /// "The live bound and its handshake"); one of a freed index below it
    /// holds an id the registry no longer names, and is cleared like any
    /// other stale one.
    fn scan_readers(
        &mut self,
        words: slots::RowPosition,
        me: u64,
        stop_at_active: bool,
        object: Option<&Weak<TVarInner<T>>>,
    ) -> Option<Arc<TxState>> {
        /// What a scan found an attempt to be.
        enum Reader {
            /// The conflict to report.
            Conflict,
            /// May still use its registration (and holds a fresh loan,
            /// unless it is `Active` under a conflict scan's writer — who
            /// is `me`).
            Running,
            /// Committed, or aborted and finished: the registration can go.
            Over,
        }
        // The loan, built at the first reader that needs it.
        let mut loan: Option<Arc<dyn Any + Send + Sync>> = None;
        let mut meet = |st: &Self, tx: &TxState| match tx.status() {
            TxStatus::Active if stop_at_active => Reader::Conflict,
            // The status CAS comes after the body and the validation.
            TxStatus::Committed => Reader::Over,
            _ => {
                let loan = loan.get_or_insert_with(|| match object {
                    None => st.effective(),
                    Some(alloc) => Arc::new((st.effective(), Weak::clone(alloc))),
                });
                if tx.lend(loan) {
                    Reader::Running
                } else {
                    Reader::Over
                }
            }
        };
        for (idx, slot) in words.live_words() {
            let a = slot.load(Ordering::SeqCst);
            if a == 0 || a == me {
                continue;
            }
            // `None`: attempt `a` is no longer the one running on this
            // slot, so its body and commit are over. `meet` runs under the
            // record's lock; only a conflict takes a count.
            let met = slots::with_live_reader(idx, a, |tx| match meet(self, tx) {
                Reader::Conflict => Err(Arc::clone(tx)),
                seen => Ok(seen),
            });
            match met {
                Some(Err(enemy)) => return Some(enemy),
                Some(Ok(Reader::Running)) => continue,
                _ => {}
            }
            // Over or stale: clear the word so future scans skip the
            // registry. CAS so a newly arrived reader's store is never
            // wiped.
            let _ = slot.compare_exchange(a, 0, Ordering::SeqCst, Ordering::SeqCst);
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
            match meet(self, &tx) {
                Reader::Conflict => {
                    enemy = Some(tx);
                    true
                }
                Reader::Running => true,
                Reader::Over => false,
            }
        });
        self.readers = readers;
        enemy
    }

    /// Lend the current version to every registered reader but attempt
    /// `me` whose body or commit may still run, `Active` ones included:
    /// for the displacements that no conflict scan precedes.
    fn lend_to_readers(&mut self, words: slots::RowPosition, me: u64) {
        self.scan_readers(words, me, false, None);
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
        if !self.register_in_slot(slot_idx, attempt_id) {
            return None;
        }
        if self.seq.load(Ordering::SeqCst) & 1 != 0 {
            return None; // writer installed → mutex path
        }
        Some(self.snapshot.load(Ordering::Acquire))
    }

    /// Store `attempt_id` into slot `slot_idx`'s word of this object;
    /// `false` when that row has none here (overflow list instead). Skipping the
    /// store when the id is already in place is sound: the first store
    /// performed the Dekker handshake, and a scan clears the word of no
    /// attempt that may still run.
    #[inline]
    fn register_in_slot(&self, slot_idx: usize, attempt_id: u64) -> bool {
        let Some(slot) = self.words.word(slot_idx) else {
            return false;
        };
        if slot.load(Ordering::Relaxed) != attempt_id {
            #[cfg(debug_assertions)]
            crate::probe::count_read_slot_store();
            slot.store(attempt_id, Ordering::SeqCst);
        }
        true
    }

    /// Begin a writer period: flip `seq` odd. Caller must hold the object
    /// mutex and `seq` must be even (i.e. no writer currently installed).
    pub(crate) fn lock_snapshot(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// End a writer period: point the snapshot at `val` (the locator's
    /// freshly collapsed `old`) and flip `seq` back to even. Caller must
    /// hold the object mutex and `seq` must be odd.
    fn unlock_snapshot(&self, val: &Arc<T>) {
        let fresh = Arc::into_raw(Arc::clone(val)).cast_mut();
        let prev = self.snapshot.swap(fresh, Ordering::AcqRel);
        // SAFETY: the cell owns this count and nobody takes one through
        // the cell. Readers may still hold `prev`'s address, never the
        // cell's count: what they read through it is covered by the loans
        // of the scan that came with this period (module docs).
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
        st.scan_readers(self.words, me.attempt_id, true, None)
    }

    /// Diagnostic snapshot of the hot-path state for opacity-violation
    /// reports (debug builds only).
    #[cfg(debug_assertions)]
    pub(crate) fn debug_dump(&self, slot_idx: usize, attempt_id: u64) -> String {
        let seq = self.seq.load(Ordering::SeqCst);
        let word = self.words.word(slot_idx).map(|s| s.load(Ordering::SeqCst));
        let live = slots::with_live_reader(slot_idx, attempt_id, |tx| tx.is_active());
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
    /// installed writer. Called by the owner itself once its status CAS
    /// has decided: on every entry but the last after a commit (the last
    /// one folds in [`Self::commit_fused`]), and on every entry on the
    /// abort path's rollback. Committed → `new` becomes the version;
    /// aborted → `old` stays. Either way the lock-free read path is
    /// re-armed at once and the locator drops its `TxState` reference, so
    /// the attempt's allocation is recyclable by the very next transaction.
    ///
    /// Races are benign: a competitor that collapses first (its own
    /// read/acquire path folds terminal writers too) leaves `writer` empty
    /// and this becomes a no-op.
    pub(crate) fn collapse_terminal(&self, me: &TxState) {
        let mut st = self.state.lock();
        if st.owned_by(me) {
            debug_assert!(me.status() != TxStatus::Active);
            self.collapse(&mut st);
        }
    }

    /// Fold the installed, terminal writer's outcome into `old`, re-arm
    /// the lock-free read path and offer what was displaced (and an
    /// aborted writer's orphaned shadow) for recycling. Caller holds the
    /// object mutex.
    pub(crate) fn collapse(&self, st: &mut ObjState<T>) {
        let cur = st.effective();
        let orphan = st.new.take();
        self.install(st, cur);
        if let Some(orphan) = orphan {
            st.retire(orphan);
        }
    }

    /// Make `version` the current one with no writer installed, re-arm the
    /// lock-free read path and offer the displaced version for recycling.
    /// Caller holds the object mutex and `seq` is odd.
    fn install(&self, st: &mut ObjState<T>, version: Arc<T>) {
        let prev = std::mem::replace(&mut st.old, version);
        st.new = None;
        st.writer = None;
        self.unlock_snapshot(&st.old);
        st.retire(prev);
    }

    /// The commit of the write set's last entry, fused: decide the
    /// transaction's fate with its status CAS and, committed, install a
    /// version holding `value` and collapse the locator — all under one
    /// acquisition of the object lock. Called after every other entry is
    /// published: the status CAS is what makes a multi-object commit
    /// atomic, so every other `new` version must be in place before it.
    ///
    /// Returns the CAS verdict (`true` = committed). On `false` (an enemy
    /// aborted us first) the locator is left untouched; the abort path's
    /// rollback collapses it.
    pub(crate) fn commit_fused(&self, me: &TxState, value: &T) -> bool {
        let mut st = self.state.lock();
        if !st.owned_by(me) {
            // Only a terminal writer can be collapsed past, so we were
            // already aborted; the CAS just confirms it.
            return me.try_commit();
        }
        if !me.try_commit() {
            return false;
        }
        let version = st.version_of(value);
        self.install(&mut st, version);
        true
    }

    /// Commit-time publish of a write-set value: install `value`
    /// as the locator's `new` version iff `me` still owns the object.
    pub(crate) fn publish_value(&self, value: &T, me: &TxState) {
        let mut st = self.state.lock();
        if st.owned_by(me) {
            st.new = Some(st.version_of(value));
        }
    }

    /// Register a reader through the mutex path (no slot, or fast path
    /// declined). Caller must hold the object mutex.
    pub(crate) fn register_reader_locked(
        &self,
        st: &mut ObjState<T>,
        slot_idx: usize,
        tx: &Arc<TxState>,
    ) {
        if !self.register_in_slot(slot_idx, tx.attempt_id) {
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
/// runs needs nothing more: an eager attempt that is over has folded
/// every locator it wrote, so the word is even again.
impl<T: TxObject> TVarInner<T> {
    /// One lazy read by attempt `tx` running on slot `slot_idx`: register,
    /// then sample the committed version's address together with the
    /// seqlock word and the version stamp it was committed under, all
    /// mutually consistent. `None` while the word is odd (a committer
    /// holds the object) or moved under the sample — the caller resolves
    /// the conflict and loops.
    ///
    /// The registration is what makes the address usable: the word was
    /// even and unchanged around the loads, so the version was current at
    /// the re-check, and whoever displaces it later — every displacer
    /// flips the word first, then scans — finds this reader and lends it a
    /// count (module docs). A thread without a word on this object
    /// registers on the overflow list under the mutex a write-back holds
    /// for its whole scan-and-swap, which gives the same order.
    #[inline]
    pub(crate) fn lazy_sample(
        &self,
        slot_idx: usize,
        tx: &Arc<TxState>,
    ) -> Option<(*const T, u64, u64)> {
        if !self.register_in_slot(slot_idx, tx.attempt_id) {
            return self.lazy_sample_locked(tx);
        }
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 != 0 {
            return None;
        }
        // A committer stores `version` before it swaps `snapshot`, both
        // inside its odd period.
        let version = self.version.load(Ordering::SeqCst);
        let p = self.snapshot.load(Ordering::Acquire);
        (self.seq.load(Ordering::SeqCst) == s).then_some((p, s, version))
    }

    /// [`Self::lazy_sample`] for a thread without a slot word here.
    #[cold]
    fn lazy_sample_locked(&self, tx: &Arc<TxState>) -> Option<(*const T, u64, u64)> {
        #[cfg(debug_assertions)]
        crate::probe::count_read_shared_rmws(1); // the object lock
        let mut st = self.state.lock();
        st.register_reader(tx);
        // The commit lock is taken without the mutex, but a write-back
        // holds it: while we do, an even word stays the word of `old`.
        let s = self.seq.load(Ordering::SeqCst);
        (s & 1 == 0).then(|| (Arc::as_ptr(&st.old), s, self.version.load(Ordering::SeqCst)))
    }

    /// Try to take the commit lock for attempt `attempt_id` running on
    /// reader slot `slot_idx`; `false` means the word is odd (a competitor
    /// holds the lock) or moved under the CAS.
    pub(crate) fn lazy_try_lock(&self, slot_idx: usize, attempt_id: u64) -> bool {
        let s = self.seq.load(Ordering::SeqCst);
        if s & 1 != 0 {
            return false;
        }
        if self
            .seq
            .compare_exchange(s, s + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        // Advertise ownership so a reader that hits the odd word can
        // resolve us through the registry.
        self.owner
            .store(owner_word(slot_idx, attempt_id), Ordering::SeqCst);
        true
    }

    /// The commit-lock holder's `(slot index, attempt id)`, from one load
    /// of the owner word; `None` while unlocked or mid write-back, and for
    /// a holder without a slot index.
    fn lock_holder(&self) -> Option<(usize, u64)> {
        let word = self.owner.load(Ordering::SeqCst);
        let attempt = word & OWNER_ATTEMPT_MASK;
        let slot = word >> OWNER_ATTEMPT_BITS;
        (attempt != 0 && slot != OWNER_NO_SLOT).then_some((slot as usize, attempt))
    }

    /// The current commit-lock holder, if it is still a live registered
    /// attempt. `None` also covers "mid write-back" and "owner without a
    /// slot index" — callers just wait those out.
    pub(crate) fn lazy_owner(&self) -> Option<Arc<TxState>> {
        let (slot, attempt) = self.lock_holder()?;
        // Attempt ids are never reused, so a racing owner change at worst
        // yields an id the registry no longer maps — `None`, never a
        // wrong transaction.
        slots::live_reader(slot, attempt).filter(|tx| tx.is_active())
    }

    /// The seqlock word and the version stamp, for a read-set entry to
    /// point at ([`crate::engine::LazyRead`]).
    pub(crate) fn validation_words(&self) -> (&AtomicU64, &AtomicU64) {
        (&self.seq, &self.version)
    }

    /// Release the commit lock without having written (failed commit):
    /// value, snapshot, and version stay; the word flips back to even.
    pub(crate) fn lazy_unlock(&self) {
        self.owner.store(0, Ordering::SeqCst);
        self.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Commit-time write-back under the held commit lock: install `value`
    /// as the committed version, stamp write version `wv`, and release
    /// the lock. The version store precedes the final even flip, so any
    /// reader that samples the new snapshot also sees `wv`.
    pub(crate) fn lazy_writeback(&self, value: &T, wv: u64) {
        let mut st = self.state.lock();
        let version = st.version_of(value);
        // No conflict scan precedes a lazy commit: the displaced version
        // goes on loan to every registered reader, `Active` ones included
        // — but the committer, who may have read the object before
        // writing it and whose loan would keep `spare` from recycling.
        let me = self.owner.load(Ordering::SeqCst) & OWNER_ATTEMPT_MASK;
        st.lend_to_readers(self.words, me);
        self.version.store(wv, Ordering::SeqCst);
        self.owner.store(0, Ordering::SeqCst);
        self.install(&mut st, version);
    }
}

impl<T: TxObject> TVar<T> {
    /// Create a new transactional object with initial value `value`.
    pub fn new(value: T) -> Self {
        Self::with_slot_count(value, slots::MAX_SLOTS)
    }

    /// For tests (this crate's and `tests/borrowed_read_stress.rs`): a TVar
    /// whose words only the rows of slot indices below `slot_count` read
    /// through. Threads with higher slot indices are forced onto the
    /// mutex/overflow path, which is what production code hits past
    /// [`slots::MAX_SLOTS`] threads.
    #[doc(hidden)]
    pub fn new_with_slots_for_test(value: T, slot_count: usize) -> Self {
        Self::with_slot_count(value, slot_count)
    }

    fn with_slot_count(value: T, slot_count: usize) -> Self {
        let old = Arc::new(value);
        let snapshot = Arc::into_raw(Arc::clone(&old)).cast_mut();
        TVar {
            inner: Arc::new_cyclic(|this| TVarInner {
                id: next_tvar_id(),
                seq: AtomicU64::new(0),
                snapshot: AtomicPtr::new(snapshot),
                words: slots::RowPosition::take(slot_count),
                version: AtomicU64::new(0),
                owner: AtomicU64::new(0),
                this: Weak::clone(this),
                state: Mutex::new(ObjState {
                    writer: None,
                    old,
                    new: None,
                    readers: Overflow::default(),
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
    /// Takes the object mutex: a caller outside any attempt has nothing to
    /// register, so nobody would keep a borrowed version alive for it.
    pub fn sample(&self) -> Arc<T> {
        self.inner.state.lock().effective()
    }

    pub(crate) fn inner(&self) -> &TVarInner<T> {
        &self.inner
    }

    /// Number of currently *live* registered readers — diagnostics only.
    pub fn reader_count(&self) -> usize {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        let live_slots = inner
            .words
            .live_words()
            .filter(|(idx, slot)| {
                let a = slot.load(Ordering::SeqCst);
                a != 0 && slots::with_live_reader(*idx, a, |tx| tx.is_active()) == Some(true)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockns;
    use crate::slots::MAX_SLOTS;

    fn state(id: u64) -> Arc<TxState> {
        Arc::new(TxState::new(id, id, 0, 0, clockns::now(), 0))
    }

    /// A state with a fresh, globally unique attempt id, published on this
    /// thread's slot so the slot-scan paths treat it as live.
    fn published_state() -> (usize, Arc<TxState>) {
        let idx = slots::my_slot_index();
        assert_ne!(idx, crate::slots::NO_SLOT);
        let id = slots::next_attempt_id();
        let st = state(id);
        slots::republish(idx, &st);
        (idx, st)
    }

    /// Slot `idx`'s word of `tv` (0 for a row with none).
    fn word_of(tv: &TVar<u32>, idx: usize) -> u64 {
        let word = tv.inner().words.word(idx);
        word.map_or(0, |w| w.load(Ordering::SeqCst))
    }

    /// The value a fast read points at.
    fn fast_value(tv: &TVar<u32>, idx: usize, attempt_id: u64) -> Option<u32> {
        // SAFETY: the calling test holds `tv` and displaces nothing while
        // this runs.
        tv.inner().fast_read(idx, attempt_id).map(|p| unsafe { *p })
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
        // A commit through one handle is what the other reads.
        lazy_commit(&a, 0, 1, 5, 1);
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
        let tv = TVar::<u32>::new(33);
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
        let tv = TVar::<u32>::new(5);
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
        let tv = TVar::<u32>::new(0);
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
    fn conflicting_reader_finds_the_last_word_and_overflow_readers() {
        // A reader on a second live thread, which lowest-free-first puts on
        // a row above this thread's unless a lower index was free: the
        // walk goes up to the highest held row, whichever that is.
        let tv = TVar::<u32>::new(0);
        let me = state(slots::next_attempt_id());
        let step = std::sync::Barrier::new(2);
        let scan = || {
            let mut st = tv.inner().state.lock();
            tv.inner().conflicting_reader(&mut st, &me)
        };
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (idx, reader) = published_state();
                assert!(tv.inner().fast_read(idx, reader.attempt_id).is_some());
                step.wait(); // registered
                step.wait(); // scanned
                slots::unpublish(idx);
                step.wait(); // withdrawn
                step.wait(); // scanned again
                (idx, reader.attempt_id)
            });
            step.wait();
            let found = scan();
            step.wait();
            step.wait();
            let again = scan();
            step.wait();
            let (idx, attempt_id) = reader.join().unwrap();
            let c = found.expect("a live reader on another thread's row must be found");
            assert_eq!(c.attempt_id, attempt_id);
            assert!(
                again.is_none(),
                "a withdrawn attempt must no longer surface a reader"
            );
            assert_eq!(word_of(&tv, idx), 0, "and its word is cleared");
        });
        let mut st = tv.inner().state.lock();
        // An overflow-list reader must be found by the same scan.
        let ovf = state(slots::next_attempt_id());
        st.register_reader(&ovf);
        let c = tv
            .inner()
            .conflicting_reader(&mut st, &me)
            .expect("overflow reader must be found after the slot words");
        assert_eq!(c.attempt_id, ovf.attempt_id);
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
            // The registration stays while the body or a commit's
            // validation may run (the object's drop must still find it),
            // so the next displacement lends again.
            assert_eq!(writer_scan(&tv), None);
            assert_eq!((reader.lent_len(), counts_on_loan(&tv)), (2, 2));

            reader.finish_body();
            assert_eq!((reader.lent_len(), counts_on_loan(&tv)), (0, 0));
            // Finished: nothing more is lent, and the registration goes.
            assert_eq!(writer_scan(&tv), None);
            assert_eq!((reader.lent_len(), counts_on_loan(&tv)), (0, 0));
            assert_eq!(word_of(&tv, idx), 0);
            assert!(tv.inner().state.lock().readers.is_empty());
            slots::unpublish(idx);
        }
    }

    #[test]
    fn scan_lends_nothing_to_committed_finished_or_departed_readers() {
        for slot_count in [MAX_SLOTS, 0] {
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
        let tv = TVar::<u32>::new(4);
        let (idx, reader) = published_state();
        assert_eq!(fast_value(&tv, idx, reader.attempt_id), Some(4));
        let v4 = Arc::clone(&tv.inner().state.lock().old);
        assert!(tv.inner().lazy_try_lock(idx, 1));
        tv.inner().lazy_writeback(&6, 1);
        assert_eq!(reader.lent_len(), 1, "lazy write-back");
        assert!(Arc::strong_count(&v4) >= 2, "ours and the reader's");

        assert_eq!(fast_value(&tv, idx, reader.attempt_id), Some(6));
        let v6 = Arc::clone(&tv.inner().state.lock().old);
        drop(tv);
        assert_eq!(reader.lent_len(), 2, "drop of the last handle");
        assert_eq!((*v6, Arc::strong_count(&v6)), (6, 2));

        reader.try_commit();
        slots::unpublish(idx);
    }

    /// Lazy-commit `value` into `tv` as attempt `me` on slot `idx`.
    fn lazy_commit(tv: &TVar<u32>, idx: usize, me: u64, value: u32, wv: u64) {
        assert!(tv.inner().lazy_try_lock(idx, me));
        tv.inner().lazy_writeback(&value, wv);
    }

    #[test]
    fn a_write_back_lends_to_an_active_lazy_reader_and_not_to_its_committer() {
        for slot_count in [MAX_SLOTS, 0] {
            let tv = TVar::new_with_slots_for_test(1u32, slot_count);
            let (idx, me) = published_state();
            // The committer read the object before writing it.
            let (p, seq, version) = tv.inner().lazy_sample(idx, &me).expect("unlocked");
            // SAFETY: nothing has displaced the version yet.
            assert_eq!((unsafe { *p }, seq, version), (1, 0, 0));
            lazy_commit(&tv, idx, me.attempt_id, 2, 7);
            assert_eq!(me.lent_len(), 0, "slots={slot_count}: no loan to itself");
            // ... so what it displaced recycles: the next write-back builds
            // its version in that allocation.
            let v1 = Arc::as_ptr(tv.inner().state.lock().spare.as_ref().expect("retired"));
            lazy_commit(&tv, idx, me.attempt_id, 3, 8);
            assert_eq!(Arc::as_ptr(&tv.inner().state.lock().old), v1);
            assert_eq!(me.lent_len(), 0);

            // Another attempt's commit lends to it, `Active` as it is, and
            // goes on lending: it stays registered.
            let other = slots::next_attempt_id();
            lazy_commit(&tv, idx, other, 4, 9);
            lazy_commit(&tv, idx, other, 5, 10);
            assert_eq!((me.lent_len(), counts_on_loan(&tv)), (2, 0));
            assert_eq!(
                tv.inner().lazy_sample(idx, &me).map(|(_, s, v)| (s, v)),
                Some((8, 10)),
                "four commits, each an odd and an even flip"
            );

            // Committed with loans in hand: nothing more is lent, the
            // registration goes, and the loans wait for the record's reuse.
            assert!(me.try_commit());
            lazy_commit(&tv, idx, other, 6, 11);
            assert_eq!(me.lent_len(), 2);
            assert_eq!(tv.reader_count(), 0);
            assert!(tv.inner().state.lock().readers.is_empty());
            slots::unpublish(idx);

            // Aborted and finished: as for the eager scan.
            let (idx, finished) = published_state();
            assert!(tv.inner().lazy_sample(idx, &finished).is_some());
            finished.abort();
            finished.finish_body();
            lazy_commit(&tv, idx, other, 7, 12);
            assert_eq!(finished.lent_len(), 0);
            slots::unpublish(idx);
        }
    }

    #[test]
    fn dropping_the_object_lends_its_allocation_to_registered_lazy_readers() {
        for slot_count in [MAX_SLOTS, 0] {
            let tv = TVar::new_with_slots_for_test(9u32, slot_count);
            let (idx, reader) = published_state();
            let (p, seq, _) = tv.inner().lazy_sample(idx, &reader).expect("unlocked");
            let read = crate::engine::LazyRead::new(tv.inner(), seq);
            let alloc = Arc::downgrade(&tv.inner);
            // Aborted mid-validation: the body is not over until the
            // owner says so.
            reader.abort();
            drop(tv);
            assert_eq!(alloc.strong_count(), 0, "slots={slot_count}");
            assert_eq!(reader.lent_len(), 1, "version and allocation, one loan");
            assert!(reader.lent_all::<(Arc<u32>, Weak<TVarInner<u32>>)>());
            drop(alloc);
            // SAFETY: the loan holds the allocation and the version; the
            // reader is aborted, not finished.
            unsafe {
                assert_eq!((*p, read.seq_now(), read.version_now()), (9, seq, 0));
            }
            reader.finish_body();
            slots::unpublish(idx);
        }
    }

    #[test]
    fn the_owner_word_names_a_slot_holders_attempt_and_nothing_else() {
        let tv = TVar::<u32>::new(0);
        assert_eq!(tv.inner().lock_holder(), None, "unlocked");
        assert!(tv.inner().lazy_try_lock(3, 77));
        assert_eq!(tv.inner().lock_holder(), Some((3, 77)));
        tv.inner().lazy_unlock();
        assert_eq!(tv.inner().lock_holder(), None, "unlocked again");

        // The widest attempt id leaves the slot field alone.
        assert!(tv.inner().lazy_try_lock(slots::NO_SLOT, OWNER_ATTEMPT_MASK));
        assert_eq!(tv.inner().lock_holder(), None, "no slot to resolve");
        tv.inner().lazy_writeback(&1, 1);
        assert_eq!(tv.inner().lock_holder(), None, "written back");

        // The registry resolves a live holder through the word.
        let (idx, me) = published_state();
        assert!(tv.inner().lazy_try_lock(idx, me.attempt_id));
        assert_eq!(tv.inner().lock_holder(), Some((idx, me.attempt_id)));
        let owner = tv.inner().lazy_owner().map(|tx| tx.attempt_id);
        assert_eq!(owner, Some(me.attempt_id));
        tv.inner().lazy_unlock();
        assert!(tv.inner().lazy_owner().is_none());
        slots::unpublish(idx);
    }

    #[test]
    fn an_overflow_list_that_empties_frees_its_box() {
        let tv: TVar<u32> = TVar::new(0);
        let rs: Vec<_> = (1..=3).map(state).collect();
        let mut st = tv.inner().state.lock();
        assert!(st.readers.0.is_none(), "a new object has no list");
        rs.iter().for_each(|r| st.register_reader(r));
        assert!(rs[1].try_commit());
        st.prune_readers();
        let left: Vec<u64> = st.readers.iter().map(|r| r.attempt_id).collect();
        assert_eq!(left, [3, 1], "the entries on both sides stay");
        assert!(rs[0].try_commit() && rs[2].try_commit());
        st.prune_readers();
        assert!(st.readers.0.is_none(), "the last entry's removal frees it");
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
        st.readers.push(done.attempt_id, Arc::downgrade(&done));
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
        // A TVar no row reads through models a thread past the rows (an
        // index past `MAX_SLOTS`, or a spent position space): every access
        // must take the mutex/overflow path.
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
        // No rows: every read from every thread is an overflow reader, as
        // for threads past `MAX_SLOTS`.
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
    fn every_worker_of_an_engine_built_by_a_slot_holder_reads_through_its_word() {
        // This thread holds a slot index, and the object is built before
        // the engine and before any worker holds an index: every worker
        // still reads through its own row's word, since an index handed
        // out gets a segment for every position built so far.
        use crate::stm::Stm;
        use crate::CmDispatch;
        const WORKERS: usize = 16;
        Stm::new(CmDispatch::AbortSelf, 1)
            .thread(0)
            .atomic(|_| Ok(()));
        assert_ne!(slots::my_slot_index(), slots::NO_SLOT);
        let tv = TVar::new(0u32);
        let stm = Stm::new(CmDispatch::AbortSelf, WORKERS);
        let all_hold_an_index = std::sync::Barrier::new(WORKERS);
        let reads: Vec<(usize, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|t| {
                    let (ctx, tv, all_hold_an_index) = (stm.thread(t), &tv, &all_hold_an_index);
                    s.spawn(move || {
                        let on_overflow = ctx.atomic(|tx| {
                            tx.read(tv)?;
                            let me = tx.state().attempt_id;
                            let st = tv.inner().state.lock();
                            Ok(st.readers.iter().any(|r| r.attempt_id == me))
                        });
                        // Hold the index until every worker has one, so no
                        // two workers share an index.
                        all_hold_an_index.wait();
                        (slots::my_slot_index(), on_overflow)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let overflowed: Vec<usize> = reads
            .iter()
            .filter(|&&(_, on_overflow)| on_overflow)
            .map(|&(idx, _)| idx)
            .collect();
        assert!(
            overflowed.is_empty(),
            "workers on indices {overflowed:?} read through the overflow list"
        );
    }

    #[test]
    fn a_reused_position_starts_clean() {
        // An `Active` attempt registered on X; X drops (lending to it) and
        // hands its position back; the next object built on this thread
        // takes that position. A writer of the new object meets no reader,
        // and lends the attempt nothing.
        let (idx, reader) = published_state();
        let x = TVar::<u32>::new(1);
        assert_eq!(fast_value(&x, idx, reader.attempt_id), Some(1));
        let word = |tv: &TVar<u32>| tv.inner().words.word(idx).map(|w| w as *const AtomicU64);
        let x_word = word(&x);
        drop(x);
        assert_eq!(reader.lent_len(), 1, "the drop lends to the reader");
        let y = TVar::<u32>::new(2);
        assert_eq!(word(&y), x_word, "the position is reused");
        assert_eq!(word_of(&y, idx), 0);
        assert_eq!(writer_scan(&y), None, "no reader of the new object");
        assert_eq!(reader.lent_len(), 1, "and no loan for the old one's reader");
        assert_eq!(y.reader_count(), 0);
        reader.abort();
        reader.finish_body();
        slots::unpublish(idx);
    }
}
