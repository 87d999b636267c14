//! Per-thread window bookkeeping.
//!
//! Each worker owns a `ThreadWindow`: its [`Schedule`] (`Cᵢ` and the
//! random delay `qᵢ` for the current window), its progress `j` through the
//! window, and the RNG for delays and π₂ ranks. It sits in a
//! `ThreadCell`, not behind a lock: even an uncontended mutex is an
//! atomic RMW per hook, a measured slice of Fig. 5's window overhead.
//!
//! * the `ThreadWindow` itself lives in an `UnsafeCell` and is accessed
//!   **only by the owning thread** through `ThreadCell::with`. The
//!   single-owner contract is the windowed execution model itself — every
//!   manager hook runs on the thread whose transaction it concerns — and
//!   is enforced by a debug-only reentrancy flag;
//! * what the owner keeps in atomics beside it has one home there: the
//!   τ estimate that run creation averages, the contention-intensity
//!   EWMA, and the completed-window count, which the owner bumps at a
//!   window's last commit and reads back (+1) as the next barrier
//!   generation;
//! * the fields other threads read only for diagnostics and tests (`Cᵢ`,
//!   the live frame clock) are *mirrors*: the owner publishes them at
//!   window boundaries and never reads them on its own hot path;
//! * each cell is aligned to 128 bytes (two lines: adjacent-line
//!   prefetcher) so neighbouring threads' cells never false-share.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wtm_policy::Schedule;
use wtm_stm::sync::{AtomicF64, Mutex};

use crate::run::WindowRun;

/// Mutable per-thread window state (see module docs). Owner-private:
/// nothing outside [`ThreadCell::with`] may touch it.
pub(crate) struct ThreadWindow {
    /// Contention estimate `Cᵢ`, delay `qᵢ` and the frames they assign.
    pub sched: Schedule,
    /// Transactions committed so far in the current window (`0..=N`).
    pub j: usize,
    /// Per-thread RNG (delays and π₂ ranks).
    pub rng: SmallRng,
    /// The frame clock of the window currently executing, which this
    /// `Arc` keeps alive. Only the owner's `on_begin` replaces it, and the
    /// owner's `resolve` reads the current frame through it.
    pub run: Option<Arc<WindowRun>>,
    /// Set once the window machinery is bypassed (experiment shutdown).
    pub free_mode: bool,
}

impl ThreadWindow {
    pub(crate) fn new(thread_id: usize, seed: u64, c_init: f64, n: usize) -> Self {
        ThreadWindow {
            sched: Schedule::undelayed(c_init),
            // Start "at the end of a window" so the first transaction
            // triggers window setup.
            j: n,
            rng: SmallRng::seed_from_u64(
                seed ^ (thread_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            run: None,
            free_mode: false,
        }
    }
}

/// One thread's window state plus its shared mirrors, padded to two cache
/// lines. See module docs for the single-owner contract.
#[repr(align(128))]
pub(crate) struct ThreadCell {
    inner: UnsafeCell<ThreadWindow>,
    /// Contention-intensity EWMA (Adaptive-Improved). Lives *only* here —
    /// `on_abort` updates it with two atomic ops and no `ThreadWindow`
    /// access at all. Single writer (the owner); racing readers are
    /// diagnostics and get a consistent f64 either way.
    pub ci: AtomicF64,
    /// τ estimate (ns, 0 = no sample yet), the EWMA of this thread's
    /// committed attempt durations. Written by the owner's `on_commit`,
    /// read when a window's frame clock is created: an atomic, so run
    /// creation never enters another thread's cell.
    pub tau: AtomicU64,
    /// Mirror of `ThreadWindow::sched`'s `Cᵢ`, published at window start.
    pub c_mirror: AtomicF64,
    /// Windows completed. The owner bumps it at a window's last commit;
    /// one more is the generation of the barrier it meets next.
    pub windows_done: AtomicU64,
    /// Mirror of `ThreadWindow::run`, updated only at window boundaries
    /// (begin_window / free-mode entry). Lets tests and diagnostics hold
    /// a safe `Arc` to the live frame clock without entering the cell.
    /// Boundary-only ⇒ never on the steady-state path.
    run_mirror: Mutex<Option<Arc<WindowRun>>>,
    /// Debug-only reentrancy/ownership tripwire: set while inside
    /// [`Self::with`]. Catches a second thread (or a reentrant call)
    /// entering the same cell — the bug class the old mutex would have
    /// silently serialized instead of exposing.
    #[cfg(debug_assertions)]
    entered: std::sync::atomic::AtomicBool,
}

// SAFETY: `inner` is only accessed through `with`, whose contract (module
// docs) is owner-thread-only, checked in debug builds; every other field
// is an atomic or a mutex.
unsafe impl Sync for ThreadCell {}

impl ThreadCell {
    pub(crate) fn new(thread_id: usize, seed: u64, c_init: f64, n: usize) -> Self {
        ThreadCell {
            inner: UnsafeCell::new(ThreadWindow::new(thread_id, seed, c_init, n)),
            ci: AtomicF64::new(0.0),
            tau: AtomicU64::new(0),
            c_mirror: AtomicF64::new(c_init),
            windows_done: AtomicU64::new(0),
            run_mirror: Mutex::new(None),
            #[cfg(debug_assertions)]
            entered: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Enter the owner-private state. MUST only be called from the owning
    /// thread (every window-CM hook already is: each hook runs on the
    /// thread whose transaction it handles). No lock, no RMW in release
    /// builds — just the `UnsafeCell` dereference.
    #[inline]
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut ThreadWindow) -> R) -> R {
        #[cfg(debug_assertions)]
        {
            assert!(
                !self.entered.swap(true, Ordering::Acquire),
                "ThreadCell entered concurrently: the single-owner contract is broken"
            );
        }
        // SAFETY: single-owner contract (asserted above in debug builds);
        // `f` cannot re-enter because the flag would trip.
        let r = f(unsafe { &mut *self.inner.get() });
        #[cfg(debug_assertions)]
        self.entered.store(false, Ordering::Release);
        r
    }

    /// Publish the boundary mirrors (run + c). Called by the owner at
    /// window start / free-mode entry only.
    pub(crate) fn publish_boundary(&self, run: Option<Arc<WindowRun>>, c: f64) {
        wtm_stm::probe::count_lock();
        *self.run_mirror.lock() = run;
        self.c_mirror.store(c, Ordering::Release);
    }

    /// The live frame clock, safely (diagnostics/tests; not the hot path).
    pub(crate) fn run_snapshot(&self) -> Option<Arc<WindowRun>> {
        wtm_stm::probe::count_lock();
        self.run_mirror.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_window_end() {
        let tw = ThreadWindow::new(0, 1, 4.0, 50);
        assert_eq!(tw.j, 50, "first transaction must trigger window setup");
        assert!(tw.run.is_none());
    }

    #[test]
    fn distinct_threads_get_distinct_rng_streams() {
        use rand::Rng;
        let mut a = ThreadWindow::new(0, 7, 1.0, 10);
        let mut b = ThreadWindow::new(1, 7, 1.0, 10);
        let sa: Vec<u32> = (0..8).map(|_| a.rng.random_range(0..1000)).collect();
        let sb: Vec<u32> = (0..8).map(|_| b.rng.random_range(0..1000)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn cell_roundtrips_owner_state_and_mirrors() {
        let cell = ThreadCell::new(3, 9, 2.5, 8);
        cell.with(|tw| tw.sched = Schedule::undelayed(5.0));
        cell.windows_done.store(2, Ordering::Relaxed);
        // Mirrors lag until published — that's the contract.
        assert_eq!(cell.c_mirror.load(Ordering::Acquire), 2.5);
        cell.publish_boundary(None, 5.0);
        assert_eq!(cell.c_mirror.load(Ordering::Acquire), 5.0);
        assert_eq!(
            cell.windows_done.load(Ordering::Acquire),
            2,
            "a boundary publishes mirrors, not the completed-window count"
        );
        assert!(cell.run_snapshot().is_none());
    }

    #[test]
    fn cell_is_two_cache_lines_and_padded() {
        assert_eq!(std::mem::align_of::<ThreadCell>(), 128);
        assert!(std::mem::size_of::<ThreadCell>().is_multiple_of(128));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "single-owner contract")]
    fn reentrant_cell_access_trips_the_guard() {
        let cell = ThreadCell::new(0, 1, 1.0, 4);
        cell.with(|_| cell.with(|_| ()));
    }
}
