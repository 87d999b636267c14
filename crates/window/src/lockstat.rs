//! Lock-acquisition accounting for the window manager.
//!
//! The PR 4 rewrite's contract is *zero mutex acquisitions on the
//! steady-state path* (`resolve`, `on_begin` mid-window, `on_commit`,
//! `on_abort`). Locks are still allowed at window boundaries (run
//! creation, mirror publication) and on failure paths (barrier-timeout
//! diagnostics). To make the contract testable instead of aspirational,
//! every mutex acquisition the crate performs goes through [`bump`], and
//! the steady-state test asserts a zero delta across a burst of
//! mid-window hooks.
//!
//! The counter is a single process-global relaxed `fetch_add` on paths
//! that are boundary-only by design, so it stays on in release builds —
//! benches run with the same accounting the tests verify.

use std::sync::atomic::{AtomicU64, Ordering};

static LOCK_ACQUISITIONS: AtomicU64 = AtomicU64::new(0);

/// Record one mutex acquisition (crate-internal call sites only).
#[inline]
pub(crate) fn bump() {
    LOCK_ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
}

/// Total mutex acquisitions performed by this crate, process-wide.
///
/// Take a snapshot before and after the region of interest and compare
/// deltas; the absolute value is meaningless across tests running in one
/// process.
pub fn lock_acquisitions() -> u64 {
    LOCK_ACQUISITIONS.load(Ordering::Relaxed)
}
