//! Thread-local operation counters.
//!
//! The lazy clock ("a lazy commit performs one `VERSION_CLOCK` RMW if it
//! writes, none if it only reads"), the fixed path's shared-line budget
//! ("no logical-clock `fetch_add` unless the manager orders by timestamp") and
//! both engines' read path ("a first open is one store to the reader's own
//! slot word and no read-modify-write on a line other readers write; a
//! re-open stores nothing") and the writer's scan ("it loads the words of
//! held indices' rows only") are asserted by tests that count the actual
//! operations, not by inspection. The counters are thread-local `Cell`s —
//! tests in one binary run concurrently, and a process-global counter
//! would make every assertion racy. These hot-path counters exist only
//! under `debug_assertions`, so release hot paths carry zero probe cost.
//!
//! One counter is on in release too:
//! [`count_lock`](crate::probe::count_lock), which the window manager
//! calls before each of its mutex acquisitions. Those sit on window
//! boundaries and failure paths only, so it costs nothing per
//! transaction, and the test that no steady-state window hook takes a
//! lock runs against the same build the benchmarks measure.
//!
//! Each `take_*` returns the calling thread's count since its previous
//! `take_*` call (read-and-reset), which is the natural shape for a
//! before/after delta around one probed operation.

use std::cell::Cell;

#[cfg(debug_assertions)]
thread_local! {
    static CLOCK_RMWS: Cell<u64> = const { Cell::new(0) };
    static LOGICAL_CLOCK_RMWS: Cell<u64> = const { Cell::new(0) };
    static READ_SLOT_STORES: Cell<u64> = const { Cell::new(0) };
    static READ_SHARED_RMWS: Cell<u64> = const { Cell::new(0) };
    static SCAN_WORD_LOADS: Cell<u64> = const { Cell::new(0) };
}

/// Record one RMW operation on the lazy engine's global version clock.
#[cfg(debug_assertions)]
#[inline]
pub(crate) fn count_clock_rmw() {
    let _ = CLOCK_RMWS.try_with(|c| c.set(c.get() + 1));
}

/// Record one `fetch_add` on an engine's [`crate::LogicalClock`].
#[cfg(debug_assertions)]
#[inline]
pub(crate) fn count_logical_clock_rmw() {
    let _ = LOGICAL_CLOCK_RMWS.try_with(|c| c.set(c.get() + 1));
}

/// Record one store of a reader's attempt id into its slot word of an
/// object (the registration of a visible read).
#[cfg(debug_assertions)]
#[inline]
pub(crate) fn count_read_slot_store() {
    let _ = READ_SLOT_STORES.try_with(|c| c.set(c.get() + 1));
}

/// Record `n` read-modify-writes a transactional read performs on lines
/// every reader of the object writes: a version's or the object's strong
/// count, the object lock.
#[cfg(debug_assertions)]
#[inline]
pub(crate) fn count_read_shared_rmws(n: u64) {
    let _ = READ_SHARED_RMWS.try_with(|c| c.set(c.get() + n));
}

/// Record `n` reader words a writer's scan (or an object's drop) loads.
#[cfg(debug_assertions)]
#[inline]
pub(crate) fn count_scan_word_loads(n: u64) {
    let _ = SCAN_WORD_LOADS.try_with(|c| c.set(c.get() + n));
}

/// Version-clock RMW ops by this thread since the last call; resets to 0.
#[cfg(debug_assertions)]
pub fn take_clock_rmws() -> u64 {
    CLOCK_RMWS.with(|c| c.replace(0))
}

/// Logical-clock RMW ops by this thread since the last call; resets to 0.
#[cfg(debug_assertions)]
pub fn take_logical_clock_rmws() -> u64 {
    LOGICAL_CLOCK_RMWS.with(|c| c.replace(0))
}

/// Reader-slot registration stores by this thread since the last call;
/// resets to 0.
#[cfg(debug_assertions)]
pub fn take_read_slot_stores() -> u64 {
    READ_SLOT_STORES.with(|c| c.replace(0))
}

/// Shared-line RMWs of transactional reads by this thread since the last
/// call; resets to 0.
#[cfg(debug_assertions)]
pub fn take_read_shared_rmws() -> u64 {
    READ_SHARED_RMWS.with(|c| c.replace(0))
}

/// Reader words this thread's scans loaded since the last call; resets
/// to 0.
#[cfg(debug_assertions)]
pub fn take_scan_word_loads() -> u64 {
    SCAN_WORD_LOADS.with(|c| c.replace(0))
}

thread_local! {
    static LOCKS: Cell<u64> = const { Cell::new(0) };
}

/// Record one mutex acquisition on a window boundary or failure path.
#[inline]
pub fn count_lock() {
    let _ = LOCKS.try_with(|c| c.set(c.get() + 1));
}

/// Mutex acquisitions [`count_lock`] saw on this thread since the last
/// call; resets to 0.
pub fn take_locks() -> u64 {
    LOCKS.with(|c| c.replace(0))
}
