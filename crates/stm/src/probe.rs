//! Debug-build hot-path operation counters.
//!
//! The lazy clock ("a lazy commit performs one `VERSION_CLOCK` RMW if it
//! writes, none if it only reads"), the fixed path's shared-line budget
//! ("no logical-clock `fetch_add` unless the manager orders by timestamp") and
//! both engines' read path ("a first open is one store to the reader's own
//! slot word and no read-modify-write on a line other readers write; a
//! re-open stores nothing") are asserted by unit tests that count the actual
//! operations, not by inspection. The counters are thread-local `Cell`s —
//! tests in one binary run concurrently, and a process-global counter
//! would make every assertion racy — and exist only under
//! `debug_assertions`, so release hot paths carry zero probe cost.
//!
//! Each `take_*` returns the calling thread's count since its previous
//! `take_*` call (read-and-reset), which is the natural shape for a
//! before/after delta around one probed operation.

use std::cell::Cell;

thread_local! {
    static CLOCK_RMWS: Cell<u64> = const { Cell::new(0) };
    static LOGICAL_CLOCK_RMWS: Cell<u64> = const { Cell::new(0) };
    static READ_SLOT_STORES: Cell<u64> = const { Cell::new(0) };
    static READ_SHARED_RMWS: Cell<u64> = const { Cell::new(0) };
}

/// Record one RMW operation on the lazy engine's global version clock.
#[inline]
pub(crate) fn count_clock_rmw() {
    let _ = CLOCK_RMWS.try_with(|c| c.set(c.get() + 1));
}

/// Record one `fetch_add` on an engine's [`crate::LogicalClock`].
#[inline]
pub(crate) fn count_logical_clock_rmw() {
    let _ = LOGICAL_CLOCK_RMWS.try_with(|c| c.set(c.get() + 1));
}

/// Record one store of a reader's attempt id into its slot word of an
/// object (the registration of a visible read).
#[inline]
pub(crate) fn count_read_slot_store() {
    let _ = READ_SLOT_STORES.try_with(|c| c.set(c.get() + 1));
}

/// Record `n` read-modify-writes a transactional read performs on lines
/// every reader of the object writes: a version's or the object's strong
/// count, the object lock.
#[inline]
pub(crate) fn count_read_shared_rmws(n: u64) {
    let _ = READ_SHARED_RMWS.try_with(|c| c.set(c.get() + n));
}

/// Version-clock RMW ops by this thread since the last call; resets to 0.
pub fn take_clock_rmws() -> u64 {
    CLOCK_RMWS.with(|c| c.replace(0))
}

/// Logical-clock RMW ops by this thread since the last call; resets to 0.
pub fn take_logical_clock_rmws() -> u64 {
    LOGICAL_CLOCK_RMWS.with(|c| c.replace(0))
}

/// Reader-slot registration stores by this thread since the last call;
/// resets to 0.
pub fn take_read_slot_stores() -> u64 {
    READ_SLOT_STORES.with(|c| c.replace(0))
}

/// Shared-line RMWs of transactional reads by this thread since the last
/// call; resets to 0.
pub fn take_read_shared_rmws() -> u64 {
    READ_SHARED_RMWS.with(|c| c.replace(0))
}
