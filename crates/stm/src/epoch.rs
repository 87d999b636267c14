//! Epoch-based reclamation: the one lifetime protocol for every
//! deferred-free structure in the engine.
//!
//! Two hand-offs rest on it: the reader registry's published attempt
//! states (`slots.rs`, where a republish retires the displaced
//! reference) and the attempt states the retry loop parks in its ring
//! (`stm.rs`, recycled once that reference is gone). Both are one problem
//! — *drop this reference once no concurrent reader can still hold a raw
//! pointer into it* — solved once, crossbeam-style, for `Arc`s:
//!
//! * A global epoch counter ([`global_epoch`]) advances by CAS when every
//!   *pinned* thread is pinned in the current epoch.
//! * A reader [`pin`]s before dereferencing shared raw pointers: one
//!   store to its own cache-line-padded epoch slot, one `SeqCst` fence,
//!   one recheck load. No RMW, no lock, no shared-line write.
//! * A writer unlinks a pointer, then [`retire_arc`]s it into its
//!   thread-local *bag*, stamped with the current epoch `r`. The reference
//!   is dropped once the global epoch reaches `r + 2`: any reader that
//!   could have loaded the old pointer
//!   was pinned at an epoch `<= r` (and blocks advance past `r + 1`),
//!   while a reader pinned at `>= r + 1` is ordered after the unlink by
//!   the `SeqCst` fences in [`pin`] and `retire` and can only see the new
//!   pointer.
//! * Freeing is amortized twice over: [`quiesce`] runs at every attempt
//!   boundary (the engine is trivially quiescent there), but only every
//!   [`QUIESCE_STRIDE`]-th call of a thread tries an advance and drains
//!   the front of the bag; the others bump a thread-local counter and
//!   return. The advance CAS lands on the one line every thread CASes, so
//!   paying it per attempt made two threads re-synchronise on it once per
//!   ~0.3 µs transaction (EXPERIMENTS.md, O-series). A collecting call
//!   costs one *active-set* scan — a `SeqCst` load per 64-slot shard mask
//!   plus one slot load per allocated slot, O(active threads) rather than
//!   O(capacity) — one CAS and a few `VecDeque` operations; no allocation
//!   (the bag's capacity is reserved up front), no lock, which is what
//!   keeps the `write_path_allocs` and `lockstat` gates green. The stride
//!   changes *how often* an advance is attempted, never *when a free is
//!   legal*: the `r + 2` rule, the pin recheck and the mask filter are as
//!   above. What it does change is how long garbage waits — an item now
//!   drains two to three strides of attempts after its retire instead of
//!   two attempts — which the `TxState` ring in [`crate::stm`] is sized
//!   for (a compile-time assertion there ties its capacity to the
//!   stride), and `retire`'s `COLLECT_THRESHOLD` back-pressure still
//!   collects on every retire once a bag backs up.
//!
//! ## Thread exit
//!
//! A thread's bag must not die with it: its TLS destructor hands any
//! un-freed items to the global *orphan* list, drained by whichever
//! surviving thread quiesces next. The orphan list is behind a `Mutex`,
//! but the hot path only reads an atomic count (zero in steady state) —
//! the lock is touched exclusively during teardown hand-off. If TLS is
//! already gone (destructor ordering), [`pin`] falls back to a global
//! pin counter that blocks all advance — correct, and only reachable on
//! the cold teardown path.
//!
//! Global retired/freed accounting uses [`ShardedU64`] so the counters
//! themselves don't become the process-wide cache line this module
//! exists to remove.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::stats::ShardedU64;

/// One call of [`quiesce`] in this many (per thread) attempts an epoch
/// advance and drains the bag; the rest return after a thread-local
/// increment. Well under `COLLECT_THRESHOLD`, so a thread retiring once per
/// attempt never reaches the back-pressure path in steady state.
pub const QUIESCE_STRIDE: usize = 8;

/// Upper bound on threads with fast-path epoch slots; later threads fall
/// back to the advance-blocking global pin counter (correct, cold).
pub const MAX_EPOCH_THREADS: usize = 256;

/// Epochs start at 2 so `item.epoch + 2 <= global` never underflows and
/// slot value 0 can mean "unpinned".
static GLOBAL: AtomicU64 = AtomicU64::new(2);

/// One per-thread epoch announcement, padded so pin/unpin traffic from
/// neighbouring threads never false-shares.
#[repr(align(128))]
struct EpochSlot {
    /// 0 = unpinned; otherwise the global epoch observed at pin time.
    epoch: AtomicU64,
}

static SLOTS: [EpochSlot; MAX_EPOCH_THREADS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const S: EpochSlot = EpochSlot {
        epoch: AtomicU64::new(0),
    };
    [S; MAX_EPOCH_THREADS]
};

/// Slots are grouped into shards of 64; each shard's *active-set mask*
/// (one bit per allocated slot) lives on its own cache line so that
/// allocation churn in one thread group never invalidates the line the
/// advance scan of another group reads.
pub(crate) const SHARD_BITS: usize = 6;
const SHARD_SLOTS: usize = 1 << SHARD_BITS;
const EPOCH_SHARDS: usize = MAX_EPOCH_THREADS / SHARD_SLOTS;

#[repr(align(128))]
struct EpochShard {
    /// Bit `b` set ⇔ slot `shard * 64 + b` is allocated to a live thread.
    /// All operations are `SeqCst`: the mask is the advance scan's
    /// active-set filter, and skipping a shard on `mask == 0` is only
    /// sound inside the SC total order (see [`try_advance`]).
    mask: AtomicU64,
}

static SHARDS: [EpochShard; EPOCH_SHARDS] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const S: EpochShard = EpochShard {
        mask: AtomicU64::new(0),
    };
    [S; EPOCH_SHARDS]
};

const NO_EPOCH_SLOT: usize = usize::MAX;

/// Pins taken after this thread's TLS was destroyed (or with the slot
/// bitmap exhausted). Any nonzero value blocks every advance — the
/// maximally conservative reader.
static FALLBACK_PINS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide retired/freed accounting (diagnostics + garbage-bound
/// tests), sharded so bumps from different threads stay off one line.
static RETIRED: ShardedU64 = ShardedU64::new();
static FREED: ShardedU64 = ShardedU64::new();

/// Allocate the lowest free slot index. The mask CAS is `SeqCst` so the
/// bit set is ordered, in the SC total order, before every later `SeqCst`
/// operation of the owning thread — in particular before its first epoch
/// store, which is what lets [`try_advance`] trust a zero mask.
fn alloc_index() -> usize {
    for (s, shard) in SHARDS.iter().enumerate() {
        let mut cur = shard.mask.load(Ordering::Relaxed);
        while cur != u64::MAX {
            let bit = cur.trailing_ones() as usize;
            match shard.mask.compare_exchange_weak(
                cur,
                cur | (1 << bit),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (s << SHARD_BITS) | bit,
                Err(actual) => cur = actual,
            }
        }
    }
    NO_EPOCH_SLOT
}

/// Release a slot index. Callers clear the slot's epoch word (store 0)
/// first, so a scanner that still sees the bit finds an unpinned slot and
/// one that misses it skips a slot that was provably unpinned.
fn free_index(idx: usize) {
    SHARDS[idx >> SHARD_BITS]
        .mask
        .fetch_and(!(1 << (idx % SHARD_SLOTS)), Ordering::SeqCst);
}

/// Test-only: a directly claimed slot index, bypassing the thread-local
/// participant. Allocation is lowest-free-first and tests never run 256
/// concurrently live threads, so a *high* index (e.g. 255, the last
/// shard) is never handed out organically — claiming it exercises the
/// shard-boundary paths deterministically. Dropping the claim unpins the
/// slot and returns the index.
#[cfg(test)]
pub(crate) struct RawSlotClaim {
    idx: usize,
}

#[cfg(test)]
impl RawSlotClaim {
    /// Claim slot `idx` if free. `None` if another claimant holds it.
    pub(crate) fn claim(idx: usize) -> Option<Self> {
        assert!(idx < MAX_EPOCH_THREADS);
        let shard = &SHARDS[idx >> SHARD_BITS];
        let bit = 1u64 << (idx % SHARD_SLOTS);
        let mut cur = shard.mask.load(Ordering::SeqCst);
        loop {
            if cur & bit != 0 {
                return None;
            }
            match shard
                .mask
                .compare_exchange(cur, cur | bit, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => return Some(RawSlotClaim { idx }),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Pin the claimed slot at `epoch`, as a stalled reader would.
    pub(crate) fn pin_at(&self, epoch: u64) {
        SLOTS[self.idx].epoch.store(epoch, Ordering::SeqCst);
    }
}

#[cfg(test)]
impl Drop for RawSlotClaim {
    fn drop(&mut self) {
        SLOTS[self.idx].epoch.store(0, Ordering::SeqCst);
        free_index(self.idx);
    }
}

// ---------------------------------------------------------------------------
// Deferred-drop bags
// ---------------------------------------------------------------------------

/// One retired reference, type-erased; `Send + Sync` lets whichever thread
/// drains it (including the orphan path) drop it.
struct BagItem {
    /// Global epoch at retire time; freeable once `global >= epoch + 2`.
    epoch: u64,
    item: Arc<dyn Send + Sync>,
}

impl BagItem {
    /// Drop the reference, accounting it on `FREED`'s shard `shard` (the
    /// draining participant's index, so the hot path bumps its own line).
    fn free(self, shard: usize) {
        FREED.add(shard, 1);
        drop(self.item);
    }
}

/// Garbage of exited threads, drained by survivors' [`quiesce`] calls.
static ORPHANS: Mutex<Vec<BagItem>> = Mutex::new(Vec::new());
/// Mirror of `ORPHANS.len()`, maintained under the lock; lets the hot
/// path skip the mutex entirely while the list is empty.
static ORPHAN_COUNT: AtomicUsize = AtomicUsize::new(0);

fn orphan_push(items: impl IntoIterator<Item = BagItem>) {
    let mut v = ORPHANS.lock().unwrap_or_else(|e| e.into_inner());
    v.extend(items);
    ORPHAN_COUNT.store(v.len(), Ordering::Release);
}

fn drain_orphans(global: u64) {
    // Collect eligible items under the lock, free them outside it: an
    // item's drop is allowed to retire again (which takes the lock on the
    // orphan fallback path).
    let eligible: Vec<BagItem> = {
        let Ok(mut v) = ORPHANS.try_lock() else {
            return; // another thread is already draining
        };
        let mut out = Vec::new();
        let mut i = 0;
        while i < v.len() {
            if v[i].epoch + 2 <= global {
                out.push(v.swap_remove(i));
            } else {
                i += 1;
            }
        }
        ORPHAN_COUNT.store(v.len(), Ordering::Release);
        out
    };
    for it in eligible {
        it.free(0); // cold, one drainer at a time: any shard will do
    }
}

/// Reserved bag capacity: steady state retires and frees one item per
/// transaction, so the queue depth stays around the two-epoch lag and
/// never reallocates (the zero-alloc write path depends on this).
const BAG_RESERVE: usize = 64;

/// Once the bag backs up this far (readers stalling the advance), every
/// further retire also attempts a collection.
const COLLECT_THRESHOLD: usize = 64;
const _: () = assert!(
    4 * QUIESCE_STRIDE <= COLLECT_THRESHOLD,
    "a steady one-retire-per-quiesce loop (backlog <= 3 strides) must stay under the threshold"
);

struct Participant {
    idx: usize,
    /// Pin nesting depth; the slot is cleared at the outermost unpin.
    depth: Cell<usize>,
    /// Unpinned [`quiesce`] calls so far; every [`QUIESCE_STRIDE`]-th
    /// collects.
    quiesces: Cell<usize>,
    bag: RefCell<VecDeque<BagItem>>,
}

impl Drop for Participant {
    fn drop(&mut self) {
        let items: Vec<BagItem> = self.bag.borrow_mut().drain(..).collect();
        if !items.is_empty() {
            orphan_push(items);
        }
        if self.idx != NO_EPOCH_SLOT {
            SLOTS[self.idx].epoch.store(0, Ordering::SeqCst);
            free_index(self.idx);
        }
    }
}

thread_local! {
    static PARTICIPANT: Participant = Participant {
        idx: alloc_index(),
        depth: Cell::new(0),
        quiesces: Cell::new(0),
        bag: RefCell::new(VecDeque::with_capacity(BAG_RESERVE)),
    };
}

// ---------------------------------------------------------------------------
// Pinning
// ---------------------------------------------------------------------------

/// An active pin: while any [`Guard`] lives on a thread, no allocation
/// retired at the pinned epoch (or later) can be freed. Cheap, reentrant,
/// and deliberately `!Send` — the pin lives in this thread's slot.
pub struct Guard {
    fallback: bool,
    _not_send: PhantomData<*mut ()>,
}

/// Pin the current thread into the global epoch. Dereference shared raw
/// pointers (registry states) only while the returned guard is alive.
pub fn pin() -> Guard {
    let slot_pinned = PARTICIPANT.try_with(|p| {
        if p.idx == NO_EPOCH_SLOT {
            return false;
        }
        let depth = p.depth.get();
        p.depth.set(depth + 1);
        if depth == 0 {
            let slot = &SLOTS[p.idx].epoch;
            let mut e = GLOBAL.load(Ordering::Relaxed);
            loop {
                slot.store(e, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                // Recheck: if the global moved between the load and our
                // announcement, re-announce the newer epoch so an
                // in-flight advance can't strand us one epoch behind
                // without noticing us.
                let g = GLOBAL.load(Ordering::SeqCst);
                if g == e {
                    break;
                }
                e = g;
            }
        }
        true
    });
    match slot_pinned {
        Ok(true) => Guard {
            fallback: false,
            _not_send: PhantomData,
        },
        // TLS destroyed (thread teardown) or slot bitmap exhausted: block
        // every advance for the guard's lifetime instead.
        _ => {
            FALLBACK_PINS.fetch_add(1, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            Guard {
                fallback: true,
                _not_send: PhantomData,
            }
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.fallback {
            FALLBACK_PINS.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _ = PARTICIPANT.try_with(|p| {
            let depth = p.depth.get() - 1;
            p.depth.set(depth);
            if depth == 0 {
                SLOTS[p.idx].epoch.store(0, Ordering::Release);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Advance + retire
// ---------------------------------------------------------------------------

/// The current global epoch (diagnostics/tests).
pub fn global_epoch() -> u64 {
    GLOBAL.load(Ordering::SeqCst)
}

/// Try to advance the global epoch by one; returns the (possibly
/// unchanged) epoch afterwards. Succeeds iff every pinned slot is pinned
/// in the current epoch and no fallback pin is active. Lock-free; safe to
/// race from any number of threads.
///
/// The scan is O(active threads), not O(capacity): one `SeqCst` load of
/// each shard's allocation mask decides 64 slots at once (an empty shard
/// costs exactly that one load), and only set bits dereference a padded
/// slot line.
///
/// ## Why skipping by mask is safe
///
/// The hazard is an advance that misses a *newly allocated* pin because
/// its mask load ran before the allocating CAS in the SC total order.
/// Every operation involved is `SeqCst`, and the pinning thread's order
/// is: mask CAS `M` → epoch store `S(e)` → fence → recheck load `R` of
/// `GLOBAL`. Suppose a pin stabilized at epoch `e` (its final `R`
/// observed `e`) and an advance `e → e+1` (CAS `C1`) missed its mask bit,
/// i.e. its mask load `L1 <S M`. Then `L1 <S M <S S <S R`; and `C1 <S R`
/// is impossible (`R` observed `e`, and `GLOBAL` is monotonic), so
/// `C1 >S R`. At worst the epoch is now `e+1` with our slot pinned at `e`
/// — the exact race the pin recheck loop already budgets for, and freeing
/// needs `retired + 2 <= global`, so nothing retired while we could hold
/// its pointer is freeable yet. The *next* advance `e+1 → e+2` cannot
/// also miss us: it first loads `GLOBAL` and must observe `e+1`, which
/// puts that load SC-after `C1`, hence SC-after `R >S M` — so its mask
/// load sees our bit, and the slot load that follows sees our store
/// `S(e)` (`S <S R <S C1`), a pin at `e != e+1`, which blocks it. A pin
/// therefore stalls the epoch at most one step past its epoch, exactly
/// the slack the two-epoch free rule provides.
pub fn try_advance() -> u64 {
    let cur = GLOBAL.load(Ordering::SeqCst);
    if FALLBACK_PINS.load(Ordering::SeqCst) != 0 {
        return cur;
    }
    for (s, shard) in SHARDS.iter().enumerate() {
        let mut mask = shard.mask.load(Ordering::SeqCst);
        while mask != 0 {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            #[cfg(debug_assertions)]
            crate::probe::count_epoch_slot_load();
            let e = SLOTS[(s << SHARD_BITS) | bit].epoch.load(Ordering::SeqCst);
            if e != 0 && e != cur {
                return cur;
            }
        }
    }
    #[cfg(debug_assertions)]
    crate::probe::count_epoch_cas();
    match GLOBAL.compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst) {
        Ok(_) => cur + 1,
        Err(seen) => seen,
    }
}

/// Retire an `Arc` reference: the strong count drops once every thread
/// that could have loaded the raw pointer before it was unlinked has left
/// its critical section.
pub fn retire_arc<T: Send + Sync + 'static>(arc: Arc<T>) {
    // Order the caller's unlink before the epoch read: an advance that a
    // later reader pins into is then ordered after the unlink, so that
    // reader cannot see the retired pointer (the second half of the
    // `r + 2` free rule; the first half is pinned readers at `<= r`
    // blocking advance past `r + 1`).
    fence(Ordering::SeqCst);
    let mut item = Some(BagItem {
        epoch: GLOBAL.load(Ordering::SeqCst),
        item: arc,
    });
    let pushed = PARTICIPANT.try_with(|p| {
        RETIRED.add(p.idx, 1);
        let len = {
            let mut bag = p.bag.borrow_mut();
            bag.push_back(item.take().expect("retire item consumed once"));
            bag.len()
        };
        if len >= COLLECT_THRESHOLD {
            collect_local(p);
        }
    });
    if pushed.is_err() {
        // TLS gone (thread teardown): `try_with` never ran the closure,
        // so the item is still here — hand it straight to the orphans.
        RETIRED.add(0, 1);
        orphan_push(item.take());
    }
}

/// Drain the front of `p`'s bag after one advance attempt.
fn collect_local(p: &Participant) {
    let global = try_advance();
    loop {
        // Pop outside the free call: an item's drop may legally retire
        // more garbage, which re-borrows the bag.
        let item = {
            let mut bag = p.bag.borrow_mut();
            match bag.front() {
                Some(it) if it.epoch + 2 <= global => bag.pop_front(),
                _ => None,
            }
        };
        match item {
            Some(it) => it.free(p.idx),
            None => break,
        }
    }
}

/// Attempt-boundary hook: the calling thread holds no pins and no shared
/// raw pointers. Every [`QUIESCE_STRIDE`]-th call of a thread tries one
/// epoch advance and frees whatever became eligible — one advance scan
/// (one mask load per shard plus one slot load per *allocated* slot), one
/// CAS on the global epoch and a few deque ops; no lock unless orphans
/// exist, no allocation. The calls in between touch nothing shared: a
/// thread-local increment and out. Callers that need garbage gone (tests,
/// teardown) loop until their condition holds.
pub fn quiesce() {
    let _ = PARTICIPANT.try_with(|p| {
        if p.depth.get() != 0 {
            // Called under an active pin (reentrant engine path): epochs
            // only advance at genuine quiescence, skip.
            return;
        }
        let n = p.quiesces.get().wrapping_add(1);
        p.quiesces.set(n);
        if n % QUIESCE_STRIDE != 0 {
            return;
        }
        collect_local(p);
        if ORPHAN_COUNT.load(Ordering::Acquire) != 0 {
            drain_orphans(GLOBAL.load(Ordering::SeqCst));
        }
    });
}

/// Hand this thread's whole bag to the orphan list immediately, so
/// survivors can free it without waiting for this thread's TLS
/// destructors (used by the `TxState` ring's drop hook — robust to any
/// TLS destructor ordering).
pub(crate) fn flush_thread() {
    let _ = PARTICIPANT.try_with(|p| {
        let items: Vec<BagItem> = p.bag.borrow_mut().drain(..).collect();
        if !items.is_empty() {
            orphan_push(items);
        }
    });
}

/// Total allocations ever retired (process-wide, diagnostics/tests).
pub fn retired_count() -> u64 {
    RETIRED.sum()
}

/// Total retired allocations already freed (process-wide).
pub fn freed_count() -> u64 {
    FREED.sum()
}

/// Items waiting in this thread's bag (tests).
pub fn pending_local() -> usize {
    PARTICIPANT.try_with(|p| p.bag.borrow().len()).unwrap_or(0)
}

/// Items waiting on the orphan list (tests/diagnostics).
pub fn orphan_count() -> usize {
    ORPHAN_COUNT.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    /// Heap payload whose drop is observable.
    struct Canary(Arc<AtomicBool>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn canary() -> (Arc<Canary>, Arc<AtomicBool>) {
        let dropped = Arc::new(AtomicBool::new(false));
        (Arc::new(Canary(Arc::clone(&dropped))), dropped)
    }

    /// Retry helper: other unit tests in this binary pin transiently, so
    /// single advance attempts may fail spuriously; loop with yields.
    fn quiesce_until(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..100_000 {
            quiesce();
            if cond() {
                return true;
            }
            std::thread::yield_now();
        }
        false
    }

    #[test]
    fn retired_arc_is_freed_after_two_advances() {
        let (c, dropped) = canary();
        retire_arc(c);
        assert!(!dropped.load(Ordering::SeqCst), "free must be deferred");
        assert!(
            quiesce_until(|| dropped.load(Ordering::SeqCst)),
            "retired arc must be freed once the epoch advances twice"
        );
    }

    #[test]
    fn pinned_reader_blocks_the_free() {
        // A stalled thread pinned in epoch e blocks advance past e + 1,
        // so anything retired at >= e stays allocated while it stalls.
        let (stall_tx, stall_rx) = mpsc::channel::<()>();
        let (pinned_tx, pinned_rx) = mpsc::channel::<u64>();
        let stalled = std::thread::spawn(move || {
            let _g = pin();
            pinned_tx.send(global_epoch()).unwrap();
            stall_rx.recv().unwrap(); // hold the pin until released
        });
        let pin_epoch = pinned_rx.recv().unwrap();
        let (c, dropped) = canary();
        retire_arc(c);
        // Drive advances hard: the stalled pin caps the epoch.
        for _ in 0..1000 {
            quiesce();
        }
        assert!(
            global_epoch() <= pin_epoch + 1,
            "a pinned slot must stop the epoch one step past its pin"
        );
        assert!(
            !dropped.load(Ordering::SeqCst),
            "garbage must not be freed while a pinned reader stalls"
        );
        stall_tx.send(()).unwrap();
        stalled.join().unwrap();
        assert!(
            quiesce_until(|| dropped.load(Ordering::SeqCst)),
            "garbage must drain once the stalled reader unpins"
        );
    }

    #[test]
    fn pins_are_reentrant() {
        let g1 = pin();
        let e = global_epoch();
        let g2 = pin();
        drop(g2);
        // Outer pin still active: advance past e + 1 must be impossible.
        for _ in 0..100 {
            try_advance();
        }
        assert!(global_epoch() <= e + 1);
        drop(g1);
    }

    #[test]
    fn thread_exit_hands_garbage_to_survivors() {
        let (c, dropped) = canary();
        std::thread::spawn(move || {
            retire_arc(c);
            // Exit immediately: the TLS destructor must orphan the bag.
        })
        .join()
        .unwrap();
        assert!(
            quiesce_until(|| dropped.load(Ordering::SeqCst)),
            "an exited thread's garbage must be freed by survivors"
        );
    }

    #[test]
    fn stalled_pin_in_the_highest_shard_still_blocks_advance() {
        // Slot 255 lives in the last shard; organic lowest-free-first
        // allocation never reaches it in a test process, so a pin there
        // is only visible to the advance scan if the scan truly covers
        // every shard's mask — a scan that stopped at the populated low
        // shards would sail past it.
        let claim = RawSlotClaim::claim(MAX_EPOCH_THREADS - 1)
            .expect("index 255 is never organically allocated");
        // Announce like pin() does — re-announce until stable, so a
        // concurrent test's advance can't leave the pin already stale.
        let mut e = global_epoch();
        loop {
            claim.pin_at(e);
            let g = global_epoch();
            if g == e {
                break;
            }
            e = g;
        }
        for _ in 0..1000 {
            try_advance();
        }
        assert!(
            global_epoch() <= e + 1,
            "a pin in the last shard must stop the epoch one step past its pin"
        );
        drop(claim);
        // Released: the epoch can move again.
        let before = global_epoch();
        assert!(
            quiesce_until(|| global_epoch() > before),
            "advance must resume once the high-shard pin is released"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn advance_scan_is_bounded_by_active_threads() {
        // Pin once so this thread's slot is allocated, then count the
        // slot loads of a single advance attempt. Other tests in this
        // binary hold slots too, but far fewer than the 256-slot
        // capacity a flat scan would walk: the bound below fails for the
        // O(capacity) scan and passes with head-room for the O(active)
        // one.
        let g = pin();
        drop(g);
        crate::probe::take_epoch_slot_loads();
        try_advance();
        let loads = crate::probe::take_epoch_slot_loads();
        assert!(loads >= 1, "our own allocated slot must be scanned");
        assert!(
            loads <= (MAX_EPOCH_THREADS / 4) as u64,
            "advance scan must be O(active threads), not O(capacity): {loads} slot loads"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn only_every_stride_th_quiesce_attempts_an_advance() {
        // Sibling tests advance the epoch too, so count this thread's own
        // CAS attempts rather than watching the global. (That the stride
        // delays collection without starving it is what every
        // `quiesce_until` in this module shows.)
        crate::probe::take_epoch_cases();
        for _ in 0..4 * QUIESCE_STRIDE {
            quiesce();
        }
        assert!(
            crate::probe::take_epoch_cases() <= 4,
            "at most one advance CAS per QUIESCE_STRIDE quiesce calls"
        );
    }

    #[test]
    fn freed_is_counted_whichever_shard_the_drainer_bumps() {
        // Two threads (two participant indices, so two `FREED` shards)
        // retire and quiesce in a loop, then exit, which flushes what is
        // left to the orphan list (drained on shard 0). Every one of their
        // frees must show in the folded count. Sibling unit tests retire
        // concurrently in this process, so the deltas are bounded from
        // below here; `tests/epoch_stress.rs`, alone in its process,
        // reconciles the two counters exactly.
        const PER_THREAD: usize = 200;
        let retired_before = retired_count();
        let freed_before = freed_count();
        let drops = Arc::new(AtomicUsize::new(0));
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait(); // both participants live at once
                    for _ in 0..PER_THREAD {
                        retire_arc(Arc::new(Counted(Arc::clone(&drops))));
                        quiesce();
                    }
                });
            }
        });
        assert!(
            quiesce_until(|| drops.load(Ordering::SeqCst) == 2 * PER_THREAD),
            "every retired item must be freed by its thread or by a survivor"
        );
        let freed = freed_count() - freed_before;
        let retired = retired_count() - retired_before;
        assert!(retired >= 2 * PER_THREAD as u64);
        assert!(
            freed >= 2 * PER_THREAD as u64,
            "{freed} frees counted for {} drops",
            2 * PER_THREAD
        );
        assert!(freed_count() <= retired_count());
    }

    #[test]
    fn accounting_freed_never_exceeds_retired() {
        let (c, _dropped) = canary();
        retire_arc(c);
        quiesce_until(|| freed_count() > 0);
        assert!(freed_count() <= retired_count());
        assert!(retired_count() >= 1);
    }
}
