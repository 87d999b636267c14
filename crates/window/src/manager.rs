//! The window-based contention manager.
//!
//! Implements [`wtm_stm::ContentionManager`] for all five variants of the
//! paper. The policy (α, the frame schedule, the `Cᵢ` rules, the bad event
//! and the key) is [`wtm_policy`]'s; this module drives it:
//!
//! * **window boundaries** — a thread that finishes window g rolls its
//!   random delay `qᵢ` for window g+1 and registers its frame assignments
//!   with that window's [`WindowRun`] frame clock *on the way to* the one
//!   cancellable barrier all `M` threads meet at, then seals the clock and
//!   starts executing. Registering early is invisible: no transaction
//!   reads run g+1's clock until its thread has passed the barrier, and by
//!   then every thread has registered. (The wait for the slowest thread is
//!   real and intentional: it is the "execution window overhead" the paper
//!   measures in Fig. 5; see DESIGN.md "Window boundary".)
//! * **priorities** — `resolve` compares the two (π₁, π₂, id) keys, π₁
//!   read off the frame clock, π₂ re-rolled on every attempt. The key is
//!   total, so every conflict kills exactly one side — the manager never
//!   waits, and the *pending-commit* property holds: the globally smallest
//!   active transaction can never be aborted.
//! * **adaptivity** — the contention-intensity EWMA that
//!   Adaptive-Improved reads is updated on every commit and abort.
//! * **calibration** — frame lengths are `Φ = c · ln(MN) · τ̂` where `τ̂`
//!   is an EWMA of committed attempt durations, so "frame ≈ Θ(ln MN)
//!   transaction durations" holds without knowing τ a priori.
//!
//! ## The lock-free hot path
//!
//! Fig. 5 charges the window algorithms for their *per-transaction
//! overhead*; an implementation that pays a mutex round-trip per hook
//! inflates exactly the quantity under study. The four steady-state hooks
//! are therefore lock-free end to end:
//!
//! * **`resolve`**, **`on_begin`** and **`on_commit`** enter the
//!   owner-private `ThreadCell` of the transaction's own thread (an
//!   `UnsafeCell` with a debug-only ownership tripwire — no lock in
//!   release builds). The engine calls `resolve` from the conflicting
//!   attempt itself, so `me`'s thread runs it, and it reads the current
//!   frame through that thread's `ThreadWindow::run`: no `Arc` refcount
//!   traffic, one atomic/coarse-clock read. `on_begin` and `on_commit` talk to the
//!   frame clock through its wait-free registration/contraction API.
//! * **`on_abort`** is two atomic f64 operations on the
//!   contention-intensity cell and touches neither the `ThreadWindow` nor
//!   any lock — unless the abort is a panicking body's unwind, which
//!   abandons the windows (below).
//!
//! Mutexes remain only at window *boundaries* (creating the next
//! generation's frame clock, publishing the diagnostic mirrors). The two
//! failure paths, a barrier timeout and a body that panics mid-window
//! (its thread may never reach the next boundary, so the barrier is
//! cancelled at once instead of timing out), set a write-once error.
//! `wtm_stm::probe::count_lock` counts every acquisition on the calling
//! thread, so the steady-state zero-lock property is asserted by a test
//! rather than claimed by a comment.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use wtm_policy::{Policy, Schedule};
use wtm_stm::sync::{BarrierWait, CancellableBarrier, Mutex};
use wtm_stm::trace::{self, Event, EventKind};
use wtm_stm::txstate::NOT_WINDOWED;
use wtm_stm::{clockns, probe, ConflictKind, ContentionManager, Resolution, TxState};

use crate::config::WindowConfig;
use crate::run::WindowRun;
use crate::thread::{ThreadCell, ThreadWindow};
use crate::WindowVariant;

/// Cap on a single calibration sample so one descheduled attempt cannot
/// blow up the frame length.
const TAU_SAMPLE_CAP_NS: u64 = 10_000_000; // 10 ms

/// EWMA weight of the previous τ estimate.
const TAU_EWMA_OLD: f64 = 0.8;

/// EWMA weight of the previous contention-intensity value
/// (`ContentionIntensity` mode). The ATS paper suggests 0.3–0.5 for the
/// *new sample*.
const CI_ALPHA: f64 = 0.7;

struct RunSlot {
    generation: u64,
    run: Arc<WindowRun>,
}

/// See module docs. One instance drives all `M` worker threads of an
/// [`wtm_stm::Stm`]; `cfg.m` **must** equal the number of threads actively
/// running transactions. A mismatch no longer deadlocks: window barriers
/// are timed ([`WindowConfig::barrier_timeout`]), and a timeout cancels
/// the window machinery, records a descriptive error (see
/// [`Self::window_error`]), and degrades every thread to free mode.
pub struct WindowManager {
    cfg: WindowConfig,
    variant: WindowVariant,
    policy: Policy,
    barrier: CancellableBarrier,
    threads: Box<[ThreadCell]>,
    runs: Mutex<RunSlot>,
    /// The shared free-mode frame clock: a static run with 1 ns frames,
    /// created once so free-mode entry allocates nothing and every thread
    /// caches the same immortal pointer. Its frame index is astronomically
    /// large immediately, so free-mode transactions are always high
    /// priority and the manager degenerates to RandomizedRounds.
    free_run: Arc<WindowRun>,
    /// The first abandonment's diagnostic (a barrier timeout or a
    /// panicking body), kept for callers to surface; later ones are dropped.
    last_error: OnceLock<String>,
    /// Boundary-only event counters for [`Self::boundary_counts`].
    barrier_timeouts: AtomicU64,
    free_mode_entries: AtomicU64,
}

/// What the window boundaries of one manager have done so far
/// ([`WindowManager::boundary_counts`]). A healthy run has no timeouts and
/// one free-mode entry per thread, at shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryCounts {
    /// Windows whose barrier released all `m` threads.
    pub windows_started: u64,
    /// Barrier waits that outlasted the polling budget and slept.
    pub barrier_parks: u64,
    /// Barrier waits that ran into `cfg.barrier_timeout`.
    pub barrier_timeouts: u64,
    /// Threads that left the window protocol for free mode.
    pub free_mode_entries: u64,
}

impl WindowManager {
    /// Build a manager for `variant` with the given window configuration.
    pub fn new(variant: WindowVariant, cfg: WindowConfig) -> Self {
        // Pay the coarse clock's one-time calibration here, not inside the
        // first window's frame computation.
        clockns::warmup();
        let (mode, dynamic) = (variant.adaptive_mode(), variant.dynamic_frames());
        let policy = Policy::new(cfg.m, cfg.n, mode, dynamic);
        let c_init = policy.start_c(cfg.c_init, 0.0);
        let threads: Box<[ThreadCell]> = (0..cfg.m)
            .map(|t| ThreadCell::new(t, cfg.seed, c_init, cfg.n))
            .collect();
        let initial_run = Arc::new(WindowRun::new(
            dynamic,
            cfg.frame_len_ns(cfg.tau_initial.as_nanos() as f64),
            policy.frames_per_window(),
        ));
        WindowManager {
            barrier: CancellableBarrier::new(cfg.m),
            threads,
            runs: Mutex::new(RunSlot {
                generation: 0,
                run: initial_run,
            }),
            free_run: {
                let run = WindowRun::new(false, 1, 0);
                run.seal_registration(); // its clock runs from here on
                Arc::new(run)
            },
            last_error: OnceLock::new(),
            barrier_timeouts: AtomicU64::new(0),
            free_mode_entries: AtomicU64::new(0),
            cfg,
            variant,
            policy,
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> WindowVariant {
        self.variant
    }

    /// The window configuration.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Release every thread parked at a window barrier and put the manager
    /// into *free mode* (plain RandomizedRounds behaviour). Call this when
    /// an experiment's measurement interval ends, before joining workers.
    pub fn cancel(&self) {
        self.barrier.cancel();
    }

    /// The diagnostic recorded when the window machinery was abandoned: a
    /// window barrier timed out (a configuration mismatch between `cfg.m`
    /// and the number of threads actually running transactions), or a
    /// transaction body panicked, so its thread will not reach the next
    /// boundary. `None` while the window machinery is healthy.
    pub fn window_error(&self) -> Option<String> {
        self.last_error.get().cloned()
    }

    /// Window-boundary event counts (diagnostics/tests): reads of atomics
    /// that only boundaries write, nothing per transaction.
    pub fn boundary_counts(&self) -> BoundaryCounts {
        BoundaryCounts {
            windows_started: self.barrier.generation(),
            barrier_parks: self.barrier.parks(),
            barrier_timeouts: self.barrier_timeouts.load(Ordering::Relaxed),
            free_mode_entries: self.free_mode_entries.load(Ordering::Relaxed),
        }
    }

    /// Current contention estimate of a thread (diagnostics/tests; reads
    /// the mirror published at the last window boundary).
    pub fn contention_estimate(&self, thread_id: usize) -> f64 {
        self.threads[thread_id].c_mirror.load(Ordering::Acquire)
    }

    /// Current contention-intensity EWMA of a thread (diagnostics/tests).
    pub fn contention_intensity(&self, thread_id: usize) -> f64 {
        self.threads[thread_id].ci.load(Ordering::Acquire)
    }

    /// Number of completed windows on a thread (diagnostics/tests).
    pub fn windows_completed(&self, thread_id: usize) -> u64 {
        self.threads[thread_id].windows_done.load(Ordering::Acquire)
    }

    /// Mean τ estimate across threads, falling back to the configured
    /// initial value when no calibration data exists yet.
    fn mean_tau_ns(&self) -> f64 {
        let mut sum = 0u64;
        let mut cnt = 0u64;
        for cell in self.threads.iter() {
            let v = cell.tau.load(Ordering::Relaxed);
            if v > 0 {
                sum += v;
                cnt += 1;
            }
        }
        if cnt == 0 {
            self.cfg.tau_initial.as_nanos() as f64
        } else {
            sum as f64 / cnt as f64
        }
    }

    /// Get (or create) the frame clock for barrier generation `generation`.
    /// Window-boundary only: the lock here is once per window per thread,
    /// never per transaction.
    fn run_for_generation(&self, generation: u64) -> Arc<WindowRun> {
        probe::count_lock();
        let mut slot = self.runs.lock();
        if slot.generation < generation {
            slot.run = Arc::new(WindowRun::new(
                self.variant.dynamic_frames(),
                self.cfg.frame_len_ns(self.mean_tau_ns()),
                self.policy.frames_per_window(),
            ));
            slot.generation = generation;
        }
        Arc::clone(&slot.run)
    }

    /// The window barrier, with a deadline. A thread that waits out
    /// `cfg.barrier_timeout` concludes the window is misconfigured
    /// (`cfg.m` ≠ number of running threads), records a descriptive error,
    /// and cancels the barrier so the remaining waiters fail fast too
    /// instead of hanging until their own deadlines.
    fn window_barrier(&self, thread_id: usize) -> BarrierWait {
        let t0 = clockns::now();
        let res = self.barrier.wait_timeout(self.cfg.barrier_timeout);
        let now = clockns::now();
        trace::emit(Event::span(
            EventKind::BarrierWait,
            now,
            now.saturating_sub(t0),
            thread_id as u32,
            0, // phase word: a window has one barrier
            res as u64,
        ));
        if res == BarrierWait::TimedOut {
            self.fail_window(thread_id);
        }
        res
    }

    /// Record the barrier-timeout diagnostic and cancel the window
    /// machinery ([`Self::abandon_windows`]).
    fn fail_window(&self, thread_id: usize) {
        self.barrier_timeouts.fetch_add(1, Ordering::Relaxed);
        // We already withdrew our own arrival; count ourselves back in for
        // the message. Racing timeouts make this approximate — it is a
        // diagnostic, not an invariant.
        let arrived = (self.barrier.arrived() + 1).min(self.cfg.m);
        self.abandon_windows(format!(
            "window barrier timed out after {:?} (thread {thread_id}): \
             only {arrived} of m = {} threads reached the window boundary. \
             WindowConfig.m must equal the number of threads running transactions",
            self.cfg.barrier_timeout, self.cfg.m,
        ));
    }

    /// Record `why` as the window error (first one wins) and cancel the
    /// barrier, so every thread degrades to free mode at its next window
    /// boundary and none waits at one.
    #[cold]
    fn abandon_windows(&self, why: String) {
        let msg = format!("{why}; continuing in free mode (RandomizedRounds).");
        if self.last_error.set(msg).is_ok() {
            eprintln!("wtm-window: {}", self.last_error.get().expect("just set"));
        }
        self.barrier.cancel();
    }

    /// Window-boundary protocol: roll `qᵢ`, register assignments into the
    /// next generation's run → barrier → seal → go. Registration comes
    /// *before* the one barrier: the next run is a fresh object no
    /// transaction reads until its thread is past that barrier, by which
    /// time every thread has registered, so the dynamic frame clock still
    /// sees the complete pending table before it first moves.
    fn begin_window(&self, thread_id: usize, cell: &ThreadCell, tw: &mut ThreadWindow) {
        if tw.free_mode {
            self.enter_free_mode(cell, tw);
            return;
        }
        // A fresh estimate and delay for this window.
        let ci = cell.ci.load(Ordering::Relaxed);
        let c = self.policy.start_c(self.cfg.c_init, ci);
        tw.sched = Schedule::start(&self.policy, c, &mut tw.rng);
        let generation = cell.windows_done.load(Ordering::Relaxed) + 1;
        let run = self.run_for_generation(generation);
        // Whole schedule segment in one wait-free batch (one high-water
        // publication instead of N).
        run.register_all((0..self.cfg.n).map(|j| tw.sched.frame(j)));
        if self.window_barrier(thread_id) != BarrierWait::Released {
            // Our registrations stay behind in a run nobody will execute:
            // a failed barrier is cancelled, so every thread ends up here.
            self.enter_free_mode(cell, tw);
            return;
        }
        // Everyone registered: start the clock (static) or skip leading
        // empty frames (dynamic).
        run.seal_registration();
        tw.j = 0;
        tw.run = Some(run);
        cell.publish_boundary(tw.run.clone(), tw.sched.c());
        trace::emit_now(
            EventKind::WindowStart,
            thread_id as u32,
            generation,
            tw.sched.frame(0), // qᵢ: the window's first frame
        );
    }

    fn enter_free_mode(&self, cell: &ThreadCell, tw: &mut ThreadWindow) {
        if !tw.free_mode {
            self.free_mode_entries.fetch_add(1, Ordering::Relaxed);
        }
        tw.free_mode = true;
        tw.j = 0;
        tw.sched = Schedule::undelayed(tw.sched.c());
        // The shared pre-built free-mode clock (see field docs): its frame
        // index is already astronomically large, so every transaction is
        // high priority and the manager degenerates to RandomizedRounds.
        tw.run = Some(Arc::clone(&self.free_run));
        cell.publish_boundary(tw.run.clone(), tw.sched.c());
    }

    /// The (π₁, π₂, id) key of a transaction given the current frame.
    #[inline]
    fn key(tx: &TxState, cur_frame: u64) -> u128 {
        let f = tx.assigned_frame();
        let low = f == NOT_WINDOWED || wtm_policy::is_low(f, cur_frame);
        wtm_policy::key(low, tx.rank(), tx.attempt_id)
    }

    /// The live frame clock of a thread (diagnostics/tests; reads the
    /// boundary-published mirror, never the owner-private state).
    pub fn current_run(&self, thread_id: usize) -> Option<Arc<WindowRun>> {
        self.threads[thread_id].run_snapshot()
    }
}

impl ContentionManager for WindowManager {
    fn resolve(&self, me: &TxState, enemy: &TxState, _kind: ConflictKind) -> Resolution {
        // `me`'s own thread runs this (module docs): the current frame
        // comes from its cell, zero before its first window. No lock, no
        // Arc clone.
        let cur =
            self.threads[me.thread_id].with(|tw| tw.run.as_ref().map_or(0, |r| r.current_frame()));
        if Self::key(me, cur) < Self::key(enemy, cur) {
            Resolution::AbortEnemy
        } else {
            // Yield once before dying: on an oversubscribed host this lets
            // the high-priority winner actually run.
            std::thread::yield_now();
            Resolution::AbortSelf
        }
    }

    fn on_begin(&self, tx: &Arc<TxState>, is_retry: bool) {
        assert!(
            tx.thread_id < self.cfg.m,
            "WindowManager is configured for m = {} threads but thread id {} began a \
             transaction; WindowConfig.m must equal the Stm thread count",
            self.cfg.m,
            tx.thread_id
        );
        let cell = &self.threads[tx.thread_id];
        cell.with(|tw| {
            if !is_retry && (tw.j >= self.cfg.n || tw.run.is_none()) {
                self.begin_window(tx.thread_id, cell, tw);
            }
            // A retry keeps the frame: `j` and the schedule move on commit.
            let assigned = tw.sched.frame(tw.j);
            tx.set_assigned_frame(assigned);
            // π₂ is re-rolled at every attempt ("on start of the frame F_ij,
            // and after every abort").
            let rank = self.policy.rank(&mut tw.rng);
            tx.set_rank(rank);
            if !is_retry {
                trace::emit_now(
                    EventKind::FrameAssign,
                    tx.thread_id as u32,
                    assigned,
                    u64::from(rank),
                );
            }
        });
    }

    fn on_commit(&self, tx: &TxState) {
        let cell = &self.threads[tx.thread_id];
        // τ calibration from the committed attempt's duration (atomics),
        // ended by the engine's commit stamp.
        if self.cfg.auto_calibrate {
            let sample = tx
                .commit_ns()
                .saturating_sub(tx.attempt_start_ns)
                .min(TAU_SAMPLE_CAP_NS);
            let old = cell.tau.load(Ordering::Relaxed);
            let new = if old == 0 {
                sample
            } else {
                (TAU_EWMA_OLD * old as f64 + (1.0 - TAU_EWMA_OLD) * sample as f64) as u64
            };
            cell.tau.store(new.max(1), Ordering::Relaxed);
        }
        // Contention intensity decays on commit. Single writer (owner):
        // load-modify-store on the atomic cell is race-free.
        let ci = cell.ci.load(Ordering::Relaxed) * CI_ALPHA;
        cell.ci.store(ci, Ordering::Relaxed);

        cell.with(|tw| {
            if tw.free_mode {
                return;
            }
            let Some(run) = tw.run.as_deref() else {
                return;
            };
            let assigned = tx.assigned_frame();
            if assigned == NOT_WINDOWED {
                return;
            }
            let cur = run.current_frame();
            run.complete(assigned);

            // The bad event (§II-B3).
            let (p, j) = (&self.policy, tw.j);
            if tw.sched.commit(p, j, assigned, cur, ci, &mut tw.rng) {
                // The diagnostic mirror: an atomic store, not a lock.
                cell.c_mirror.store(tw.sched.c(), Ordering::Relaxed);
            }
            tw.j += 1;
            if tw.j == self.cfg.n {
                // Window completed: one store per window, not per
                // transaction. Single writer (owner), so no RMW.
                let done = cell.windows_done.load(Ordering::Relaxed) + 1;
                cell.windows_done.store(done, Ordering::Release);
            }
        });
    }

    fn on_abort(&self, tx: &TxState) {
        // Contention intensity rises on abort (ATS-style EWMA). Pure
        // atomics on the owner-published cell: no lock, no cell entry.
        let ci = &self.threads[tx.thread_id].ci;
        ci.store(
            CI_ALPHA * ci.load(Ordering::Relaxed) + (1.0 - CI_ALPHA),
            Ordering::Relaxed,
        );
        // The body unwound: this thread may never reach the next window
        // boundary, so nobody waits for it there.
        if std::thread::panicking() {
            self.abandon_windows(format!(
                "a transaction body panicked on thread {}",
                tx.thread_id
            ));
        }
    }

    fn name(&self) -> &str {
        self.variant.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cfg_1xn(n: usize) -> WindowConfig {
        WindowConfig::new(1, n).with_fixed_tau(Duration::from_micros(10))
    }

    fn state_on(thread: usize, attempt_id: u64) -> Arc<TxState> {
        Arc::new(TxState::new(
            attempt_id,
            attempt_id,
            thread,
            0,
            clockns::now(),
            0,
        ))
    }

    #[test]
    fn on_begin_assigns_frame_and_rank() {
        let wm = WindowManager::new(WindowVariant::Online, cfg_1xn(4));
        let tx = state_on(0, 1);
        wm.on_begin(&tx, false);
        assert_ne!(tx.assigned_frame(), NOT_WINDOWED);
        assert!(tx.rank() >= 1);
        assert!(
            wm.current_run(0).is_some(),
            "the first begin starts a window"
        );
    }

    #[test]
    fn retry_keeps_frame_rerolls_rank() {
        let cfg = WindowConfig::new(1, 4)
            .with_fixed_tau(Duration::from_micros(10))
            .with_seed(3);
        let wm = WindowManager::new(WindowVariant::Online, cfg);
        let tx = state_on(0, 1);
        wm.on_begin(&tx, false);
        let f = tx.assigned_frame();
        let retry = state_on(0, 2);
        wm.on_begin(&retry, true);
        assert_eq!(retry.assigned_frame(), f, "retries keep the assigned frame");
    }

    #[test]
    fn consecutive_txns_get_consecutive_frames() {
        // M = 1: q is drawn from alpha(C=1) = 1 slot, so q = 0 and
        // F_j = j exactly.
        let wm = WindowManager::new(WindowVariant::Adaptive, cfg_1xn(5));
        let mut frames = Vec::new();
        for i in 0..5u64 {
            let tx = state_on(0, i + 1);
            wm.on_begin(&tx, false);
            frames.push(tx.assigned_frame());
            tx.try_commit();
            tx.set_commit_ns(clockns::now());
            wm.on_commit(&tx);
        }
        assert_eq!(frames, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn high_beats_low_regardless_of_rank() {
        let wm = WindowManager::new(WindowVariant::Online, cfg_1xn(4));
        let hi = state_on(0, 1);
        let lo = state_on(0, 2);
        wm.on_begin(&hi, false); // frame 0 → high immediately
        hi.set_rank(1_000_000_u32); // terrible rank
        lo.set_assigned_frame(999); // far future → low
        lo.set_rank(1); // great rank
        assert_eq!(
            wm.resolve(&hi, &lo, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert_eq!(
            wm.resolve(&lo, &hi, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn equal_priority_resolved_by_rank_then_id() {
        let wm = WindowManager::new(WindowVariant::Online, cfg_1xn(4));
        let a = state_on(0, 1);
        let b = state_on(0, 2);
        wm.on_begin(&a, false);
        a.set_assigned_frame(0);
        b.set_assigned_frame(0);
        a.set_rank(2);
        b.set_rank(5);
        assert_eq!(
            wm.resolve(&a, &b, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert_eq!(
            wm.resolve(&b, &a, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
        // Rank tie → lower attempt id wins.
        b.set_rank(2);
        assert_eq!(
            wm.resolve(&a, &b, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
    }

    #[test]
    fn resolution_is_antisymmetric() {
        let wm = WindowManager::new(WindowVariant::OnlineDynamic, cfg_1xn(4));
        let a = state_on(0, 1);
        let b = state_on(0, 2);
        wm.on_begin(&a, false);
        // Both sides must judge against the same frame clock, as in
        // production where every resolving transaction has begun.
        wm.on_begin(&b, true);
        for (fa, fb, ra, rb) in [(0u64, 0u64, 1u32, 2u32), (0, 7, 3, 1), (9, 9, 2, 2)] {
            a.set_assigned_frame(fa);
            b.set_assigned_frame(fb);
            a.set_rank(ra);
            b.set_rank(rb);
            let ab = wm.resolve(&a, &b, ConflictKind::WriteWrite);
            let ba = wm.resolve(&b, &a, ConflictKind::WriteWrite);
            assert_ne!(ab, ba, "exactly one side must die: {fa},{fb},{ra},{rb}");
        }
    }

    #[test]
    fn doubling_adaptive_raises_estimate_on_bad_event() {
        // Static frames with an absurdly short frame length so the frame
        // clock races ahead of commits → guaranteed bad events.
        let cfg = WindowConfig::new(1, 8).with_fixed_tau(Duration::from_nanos(1));
        let wm = WindowManager::new(WindowVariant::Adaptive, cfg);
        let tx = state_on(0, 1);
        wm.on_begin(&tx, false);
        assert_eq!(wm.contention_estimate(0), 1.0);
        std::thread::sleep(Duration::from_millis(1)); // frame clock advances
        tx.try_commit();
        tx.set_commit_ns(clockns::now());
        wm.on_commit(&tx);
        assert!(
            wm.contention_estimate(0) >= 2.0,
            "bad event must double C, got {}",
            wm.contention_estimate(0)
        );
    }

    #[test]
    fn tau_is_sampled_from_the_engines_commit_stamp() {
        // Auto-calibrated τ: the first sample is the committed attempt's
        // duration, start to the engine's stamp, with no clock read here.
        let wm = WindowManager::new(WindowVariant::Online, WindowConfig::new(1, 4));
        let tx = Arc::new(TxState::new(1, 1, 0, 0, 1_000, 0));
        wm.on_begin(&tx, false);
        tx.try_commit();
        tx.set_commit_ns(8_000);
        wm.on_commit(&tx);
        assert_eq!(wm.mean_tau_ns(), 7_000.0);
    }

    #[test]
    fn contention_intensity_rises_on_abort_decays_on_commit() {
        let wm = WindowManager::new(WindowVariant::AdaptiveImproved, cfg_1xn(8));
        let tx = state_on(0, 1);
        wm.on_begin(&tx, false);
        wm.on_abort(&tx);
        let ci_after_abort = wm.contention_intensity(0);
        assert!(ci_after_abort > 0.0);
        let tx2 = state_on(0, 2);
        wm.on_begin(&tx2, true);
        tx2.try_commit();
        tx2.set_commit_ns(clockns::now());
        wm.on_commit(&tx2);
        let ci_after_commit = wm.contention_intensity(0);
        assert!(ci_after_commit < ci_after_abort);
    }

    #[test]
    fn cancel_enters_free_mode() {
        let wm = WindowManager::new(WindowVariant::OnlineDynamic, cfg_1xn(2));
        wm.cancel();
        // After cancel, windows no longer block and txns become high
        // priority almost immediately (free-mode run).
        for i in 0..10u64 {
            let tx = state_on(0, i + 1);
            wm.on_begin(&tx, false);
            tx.try_commit();
            tx.set_commit_ns(clockns::now());
            wm.on_commit(&tx);
        }
        std::thread::sleep(Duration::from_micros(10));
        let tx = state_on(0, 100);
        wm.on_begin(&tx, false);
        let run = wm.current_run(0).unwrap();
        assert!(run.current_frame() > 1_000, "free-mode frames race ahead");
    }

    #[test]
    fn steady_state_hooks_take_no_locks() {
        // The PR 4 contract: resolve/on_begin/on_commit/on_abort acquire
        // zero mutexes mid-window. Drive a full window's worth of hooks
        // after the boundary and assert the lock counter does not move and
        // the frame clock's refcount is untouched (no Arc clones either).
        // The counter is this thread's own, so sibling tests taking
        // boundary locks meanwhile cannot move it.
        let n = 64;
        let wm = WindowManager::new(WindowVariant::OnlineDynamic, cfg_1xn(n));
        let first = state_on(0, 1);
        wm.on_begin(&first, false); // window boundary: locks allowed here
        let run = wm.current_run(0).expect("window started");
        let rc_before = Arc::strong_count(&run);
        probe::take_locks();
        first.try_commit();
        first.set_commit_ns(clockns::now());
        wm.on_commit(&first);
        for i in 2..n as u64 {
            let tx = state_on(0, i);
            wm.on_begin(&tx, false);
            let enemy = state_on(0, 1000 + i);
            enemy.set_assigned_frame(i + 5);
            enemy.set_rank(1);
            let _ = wm.resolve(&tx, &enemy, ConflictKind::WriteWrite);
            wm.on_abort(&tx);
            let retry = state_on(0, 2000 + i);
            wm.on_begin(&retry, true);
            retry.try_commit();
            retry.set_commit_ns(clockns::now());
            wm.on_commit(&retry);
        }
        assert_eq!(
            probe::take_locks(),
            0,
            "steady-state window hooks must not acquire any mutex"
        );
        assert_eq!(
            Arc::strong_count(&run),
            rc_before,
            "steady-state window hooks must not clone the run Arc"
        );
    }

    #[test]
    fn m_mismatch_fails_fast_into_free_mode() {
        use wtm_stm::{Stm, TVar};
        // The config promises 4 threads but only 3 run transactions.
        // Before the timed barrier this deadlocked forever at the first
        // window boundary; now every thread must finish in free mode well
        // within the configured timeout budget, and the mismatch must be
        // recorded as a descriptive error.
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 8;
        let cfg = WindowConfig::new(4, 4)
            .with_seed(5)
            .with_barrier_timeout(Duration::from_millis(200));
        let wm = Arc::new(WindowManager::new(WindowVariant::Online, cfg));
        let stm = Stm::new(wm.clone(), THREADS);
        let tv: TVar<u64> = TVar::new(0);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ctx = stm.thread(t);
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
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "mismatch must fail fast, not hang: took {:?}",
            t0.elapsed()
        );
        let err = wm.window_error().expect("the mismatch must be recorded");
        assert!(
            err.contains("m = 4"),
            "error must name the configured m: {err}"
        );
        assert!(
            err.contains("timed out"),
            "error must say what happened: {err}"
        );
    }

    #[test]
    fn barrier_failure_after_registration_enters_free_mode_cleanly() {
        // A thread registers into run g+1 *before* the window barrier. If
        // that barrier then fails, the registrations stay behind in a run
        // nobody executes and the thread carries on in free mode.
        let n = 2;
        let cfg = WindowConfig::new(2, n)
            .with_fixed_tau(Duration::from_micros(10))
            .with_barrier_timeout(Duration::from_millis(50));
        let wm = WindowManager::new(WindowVariant::OnlineDynamic, cfg);
        let run_txn = |thread: usize, id: u64| {
            let tx = state_on(thread, id);
            wm.on_begin(&tx, false);
            assert_ne!(tx.assigned_frame(), NOT_WINDOWED);
            tx.try_commit();
            tx.set_commit_ns(clockns::now());
            wm.on_commit(&tx);
        };
        // Window 1 on both threads: a healthy boundary.
        std::thread::scope(|s| {
            for t in 0..2 {
                let run_txn = &run_txn;
                s.spawn(move || (0..n as u64).for_each(|i| run_txn(t, 10 * t as u64 + i + 1)));
            }
        });
        assert_eq!(wm.boundary_counts().windows_started, 1);
        assert_eq!(wm.window_error(), None);
        // Thread 1 stops; thread 0 goes on to window 2 alone.
        run_txn(0, 100);
        let counts = wm.boundary_counts();
        assert_eq!(
            (
                counts.windows_started,
                counts.barrier_timeouts,
                counts.free_mode_entries
            ),
            (1, 1, 1)
        );
        assert!(
            counts.barrier_parks >= 1,
            "a 50 ms wait outlasts the polling"
        );
        assert!(wm.window_error().expect("recorded").contains("timed out"));
        let abandoned = Arc::clone(&wm.runs.lock().run);
        assert_eq!(abandoned.outstanding(), n as u64, "registered, never run");
        assert_eq!(abandoned.current_frame(), 0, "never sealed");
        let free = wm.current_run(0).expect("free-mode clock");
        assert!(Arc::ptr_eq(&free, &wm.free_run));
        // Free mode never waits again (several boundaries' worth of
        // transactions, no new park or timeout), and a late thread 1 finds
        // the barrier cancelled and joins it at once.
        (101..110).for_each(|id| run_txn(0, id));
        run_txn(1, 200);
        let after = wm.boundary_counts();
        assert_eq!(after.free_mode_entries, 2);
        assert_eq!(
            (after.barrier_parks, after.barrier_timeouts),
            (counts.barrier_parks, 1)
        );
        // Thread 1 registered into the same run on its way to the
        // cancelled barrier; nothing ever completes there.
        assert_eq!(abandoned.outstanding(), 2 * n as u64);
        assert_eq!(abandoned.current_frame(), 0);
    }

    #[test]
    #[should_panic(expected = "thread id 7")]
    fn out_of_range_thread_id_rejected() {
        let wm = WindowManager::new(WindowVariant::Online, cfg_1xn(4));
        let tx = state_on(7, 1);
        wm.on_begin(&tx, false);
    }

    #[test]
    fn two_threads_complete_windows_under_stm() {
        use wtm_stm::{Stm, TVar};
        let m = 2;
        let n = 6;
        let cfg = WindowConfig::new(m, n).with_seed(11);
        let wm = Arc::new(WindowManager::new(
            WindowVariant::AdaptiveImprovedDynamic,
            cfg,
        ));
        let stm = Stm::new(wm.clone(), m);
        let tv: TVar<u64> = TVar::new(0);
        std::thread::scope(|s| {
            for t in 0..m {
                let ctx = stm.thread(t);
                let tv = tv.clone();
                s.spawn(move || {
                    for _ in 0..2 * n {
                        ctx.atomic(|tx| {
                            let v = *tx.read(&tv)?;
                            tx.write(&tv, v + 1)
                        });
                    }
                });
            }
        });
        wm.cancel();
        assert_eq!(*tv.sample(), (m * 2 * n) as u64);
        // Both threads saw at least 2 windows (2n txns / n per window).
        assert!(wm.windows_completed(0) >= 2);
        assert!(wm.windows_completed(1) >= 2);
    }
}
