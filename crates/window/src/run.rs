//! One window execution: the frame clock.
//!
//! A [`WindowRun`] is created once per window (per barrier generation) by
//! the first thread to finish the window before, registered into by every
//! thread on its way to the window barrier, and *sealed* by each thread
//! right after it. It is shared by all M threads and answers the single
//! question the conflict resolver needs — *what is the current frame?* —
//! under one of two drivers:
//!
//! * **static**: frame = time since the seal / frame length. The paper's
//!   base algorithms, where frames are fixed at Θ(ln MN) transaction
//!   durations. Elapsed time comes from the engine's coarse
//!   [`wtm_stm::clockns`] clock (a calibrated `rdtsc` on x86_64), not
//!   `Instant::elapsed()` — one vDSO `clock_gettime` per conflict was a
//!   measurable slice of the "window overhead" the paper charges to the
//!   algorithm rather than the implementation.
//! * **dynamic**: the frame index advances as soon as every transaction
//!   *assigned* to the current frame has committed (the "dynamic
//!   contraction" of §III-B that makes Online-Dynamic and
//!   Adaptive-Improved-Dynamic the best performers). Contraction never
//!   waits for wall time, so the dead time between the last commit in a
//!   frame and the frame's nominal end is reclaimed. Expansion is implicit:
//!   a frame simply lasts until its transactions are done, which the paper
//!   notes is rarely needed because of the pending-commit property.
//!
//! ## The pending table
//!
//! A window assigns frames `0 … 2N−2` and no others
//! (`wtm_policy::Policy::frames_per_window`). A dynamic run holds one fixed
//! table of that many cache-line-padded `AtomicU32` pending counters,
//! allocated with the run and never grown or moved; a static run counts
//! nothing and allocates none. [`WindowRun::register_all`] asserts that
//! every frame is inside the table. No registration ever moves between
//! frames: a dynamic frame is never missed, so only static runs
//! re-randomize (`wtm_policy::Schedule::commit`), and they count nothing.
//!
//! * `register_all` is one `fetch_add` per frame plus one `fetch_max` on
//!   the high-water mark — wait-free.
//! * `complete(f)` is one `fetch_sub` on the frame's counter, followed by
//!   the shared advance loop when it drained the frame — lock-free.
//! * `current_frame()` is a single `Acquire` load.
//!
//! ### Orderings and the no-skip invariant
//!
//! Counter increments are `Release` and the advance loop's reads are
//! `Acquire`, so a registration published before the window barrier is
//! always seen by any later advance — and the first advance is the seal,
//! which every thread runs after that barrier: nothing reads or moves the
//! cursor of a run while threads are still registering into it, so the
//! clock cannot pass a frame that still has work. After the seal a count
//! only goes down, so a frame the cursor has passed stays drained.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use wtm_stm::clockns;
use wtm_stm::trace::{self, EventKind};

/// One per-frame pending counter, padded to its own cache line so
/// neighbouring frames (hot on different threads during hand-off) never
/// false-share.
#[repr(align(64))]
#[derive(Debug)]
struct FrameCounter(AtomicU32);

/// Shared frame clock for one window execution.
pub struct WindowRun {
    /// Static driver origin: the coarse-clock timestamp of the first
    /// [`Self::seal_registration`], 0 until then. Stamped when the window
    /// starts, not when the run is created, so the time threads spend at
    /// the window barrier is not charged to frame 0.
    start_ns: AtomicU64,
    frame_len_ns: u64,
    dynamic: bool,
    /// The dynamic frame cursor; advanced only by [`Self::try_advance`].
    cur: AtomicU64,
    /// One past the highest registered frame: the advance bound. Grows
    /// monotonically (`fetch_max`), only *after* the frame's counter is
    /// visible, so the cursor never enters a frame before its count.
    high_water: AtomicU64,
    /// Pending counters, one per frame a window assigns; empty for a
    /// static run.
    pending: Box<[FrameCounter]>,
}

impl WindowRun {
    /// New frame clock. `frame_len_ns` drives static runs only; a dynamic
    /// run gets a pending table of `frames` counters.
    pub fn new(dynamic: bool, frame_len_ns: u64, frames: usize) -> Self {
        let len = if dynamic { frames } else { 0 };
        WindowRun {
            start_ns: AtomicU64::new(0),
            frame_len_ns: frame_len_ns.max(1),
            dynamic,
            cur: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            pending: (0..len).map(|_| FrameCounter(AtomicU32::new(0))).collect(),
        }
    }

    /// Whether this run uses dynamic contraction.
    pub fn is_dynamic(&self) -> bool {
        self.dynamic
    }

    /// The frame length (static driver), in nanoseconds.
    pub fn frame_len_ns(&self) -> u64 {
        self.frame_len_ns
    }

    /// The current frame index. One atomic load (dynamic) or one coarse
    /// clock read (static) — the whole conflict-resolution clock cost.
    /// A static run reads frame 0 until it is sealed.
    #[inline]
    pub fn current_frame(&self) -> u64 {
        if self.dynamic {
            return self.cur.load(Ordering::Acquire);
        }
        match self.start_ns.load(Ordering::Relaxed) {
            0 => 0,
            start => clockns::now().saturating_sub(start) / self.frame_len_ns,
        }
    }

    #[inline]
    fn counter(&self, frame: u64) -> &AtomicU32 {
        &self.pending[frame as usize].0
    }

    /// Register the assigned frames of one thread's window in one pass:
    /// the counters are bumped item by item (wait-free), and the
    /// high-water mark is published once at the end. A no-op on a static
    /// run. Panics on a frame outside the table.
    pub fn register_all(&self, frames: impl IntoIterator<Item = u64>) {
        if !self.dynamic {
            return;
        }
        let mut max_frame = None::<u64>;
        for f in frames {
            assert!(
                f < self.pending.len() as u64,
                "frame {f} is outside the {} frames a window assigns",
                self.pending.len()
            );
            self.counter(f).fetch_add(1, Ordering::Release);
            max_frame = Some(max_frame.map_or(f, |m| m.max(f)));
        }
        if let Some(m) = max_frame {
            self.high_water.fetch_max(m + 1, Ordering::Release);
        }
    }

    /// A transaction assigned to `frame` committed: contract if that
    /// drained the frame. Lock-free: one `fetch_sub` plus the advance loop.
    pub fn complete(&self, frame: u64) {
        if !self.dynamic {
            return;
        }
        let before = self.counter(frame).fetch_sub(1, Ordering::AcqRel);
        debug_assert!(
            before > 0,
            "frame {frame} completed more often than registered"
        );
        if before == 1 {
            self.try_advance();
        }
    }

    /// Advance the cursor past drained frames: CAS `cur → cur+1` while
    /// the current frame's count is zero and work remains above. Safe to
    /// race from any number of threads — the CAS makes each step
    /// exactly-once and the loop re-reads after losing.
    fn try_advance(&self) {
        let mut cur = self.cur.load(Ordering::Acquire);
        loop {
            if cur >= self.high_water.load(Ordering::Acquire)
                || self.counter(cur).load(Ordering::Acquire) != 0
            {
                return;
            }
            match self
                .cur
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // The flag first: the high-water mark is a shared load.
                    if trace::enabled() {
                        trace::emit_now(
                            EventKind::FrameAdvance,
                            u32::MAX, // engine-level event, no single owner thread
                            cur + 1,
                            self.high_water.load(Ordering::Relaxed),
                        );
                    }
                    cur += 1;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// The window starts: call once all threads have registered, every
    /// thread before its first transaction of the window. A dynamic run
    /// recomputes contraction (skipping leading empty frames); a static
    /// run starts its clock, the first sealer's timestamp winning.
    pub fn seal_registration(&self) {
        if self.dynamic {
            self.try_advance();
        } else if self.start_ns.load(Ordering::Relaxed) == 0 {
            // Relaxed: the origin publishes no other data, and each thread
            // seals before it reads, so it never sees its own window at 0.
            let _ = self.start_ns.compare_exchange(
                0,
                clockns::now().max(1),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Total outstanding transactions (diagnostics).
    pub fn outstanding(&self) -> u64 {
        self.pending
            .iter()
            .map(|c| u64::from(c.0.load(Ordering::Acquire)))
            .sum()
    }

    /// One past the highest registered frame (diagnostics/tests).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for WindowRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowRun")
            .field("dynamic", &self.dynamic)
            .field("frame_len_ns", &self.frame_len_ns)
            .field("cur", &self.cur.load(Ordering::Relaxed))
            .field("high_water", &self.high_water.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn static_run_advances_with_time() {
        let run = WindowRun::new(false, 1_000_000, 8); // 1 ms frames
        run.seal_registration();
        assert_eq!(run.current_frame(), 0);
        std::thread::sleep(Duration::from_millis(3));
        assert!(run.current_frame() >= 2);
    }

    #[test]
    fn static_frames_are_monotone_under_the_coarse_clock() {
        // The static driver reads the coarse rdtsc-calibrated clock; the
        // derived frame index must never move backwards on one thread.
        let run = WindowRun::new(false, 500, 4); // 500 ns frames: ticks often
        run.seal_registration();
        let mut prev = run.current_frame();
        for _ in 0..50_000 {
            let f = run.current_frame();
            assert!(f >= prev, "frame clock went backwards: {prev} -> {f}");
            prev = f;
        }
        assert!(prev > 0, "500 ns frames must tick during the loop");
    }

    #[test]
    fn static_clock_starts_at_seal_not_at_creation() {
        // The run of window g+1 is created and registered into while
        // threads still wait at the window barrier; that wait must not eat
        // frame 0 (1 ms frames, 5 ms idle: creation-stamped reads frame 5).
        let run = WindowRun::new(false, 1_000_000, 8);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(run.current_frame(), 0, "unsealed static run is at frame 0");
        run.seal_registration();
        assert_eq!(run.current_frame(), 0, "the clock starts at the seal");
        // Later sealers (the other threads of the window) do not restart it.
        std::thread::sleep(Duration::from_millis(3));
        run.seal_registration();
        assert!(run.current_frame() >= 2, "first sealer wins");
    }

    #[test]
    fn dynamic_run_ignores_time() {
        let run = WindowRun::new(true, 1, 8); // 1 ns frames would race ahead if time-driven
        run.register_all([0]);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(run.current_frame(), 0, "dynamic frames ignore wall time");
    }

    #[test]
    fn dynamic_contraction_on_commit() {
        let run = WindowRun::new(true, 1_000, 8);
        run.register_all([0, 0, 1, 3]);
        run.seal_registration();
        assert_eq!(run.current_frame(), 0);
        run.complete(0);
        assert_eq!(run.current_frame(), 0, "one txn still pending in frame 0");
        run.complete(0);
        assert_eq!(run.current_frame(), 1, "frame 0 drained");
        run.complete(1);
        // Frame 2 is empty: contraction skips straight to 3.
        assert_eq!(run.current_frame(), 3);
        run.complete(3);
        assert_eq!(run.outstanding(), 0);
    }

    #[test]
    fn seal_skips_leading_empty_frames() {
        let run = WindowRun::new(true, 1_000, 8);
        run.register_all([4, 5]);
        run.seal_registration();
        assert_eq!(run.current_frame(), 4);
    }

    #[test]
    fn early_commit_of_future_frame_txn() {
        // A low-priority transaction assigned to frame 2 commits before its
        // frame: pending[2] drains early and the frame is skipped later.
        let run = WindowRun::new(true, 1_000, 8);
        run.register_all([0, 2]);
        run.seal_registration();
        run.complete(2); // early, while cur = 0
        assert_eq!(run.current_frame(), 0);
        run.complete(0);
        // Both 0,1,2 drained → cur runs to the high-water mark.
        assert!(run.current_frame() >= 3);
    }

    #[test]
    fn the_last_frame_of_the_table_is_usable() {
        let run = WindowRun::new(true, 1_000, 7); // N = 4: frames 0 ..= 6
        run.register_all([6]);
        run.seal_registration();
        assert_eq!((run.current_frame(), run.high_water()), (6, 7));
        run.complete(6);
        assert_eq!((run.outstanding(), run.current_frame()), (0, 7));
    }

    #[test]
    #[should_panic(expected = "frame 7 is outside the 7 frames a window assigns")]
    fn a_frame_outside_the_table_is_rejected() {
        WindowRun::new(true, 1_000, 7).register_all([0, 7]);
    }

    #[test]
    fn register_all_matches_item_by_item_registration() {
        // Publishing the high-water mark once per batch must be
        // observationally identical to publishing it per item: same
        // counters, same high-water, same contraction behaviour.
        let frames = [3u64, 3, 4, 9, 6, 4];
        let batched = WindowRun::new(true, 1_000, 10);
        batched.register_all(frames.iter().copied());
        let itemized = WindowRun::new(true, 1_000, 10);
        for &f in &frames {
            itemized.register_all([f]);
        }
        batched.seal_registration();
        itemized.seal_registration();
        assert_eq!(batched.outstanding(), itemized.outstanding());
        assert_eq!(batched.high_water(), itemized.high_water());
        assert_eq!(batched.current_frame(), itemized.current_frame());
        for &f in &frames {
            batched.complete(f);
            itemized.complete(f);
            assert_eq!(batched.current_frame(), itemized.current_frame());
        }
        assert_eq!(batched.outstanding(), 0);
        assert_eq!(itemized.outstanding(), 0);
    }

    #[test]
    fn register_all_on_static_run_is_a_noop() {
        let run = WindowRun::new(false, 1_000_000, 8);
        run.register_all([0, 1, 2, 100]);
        assert_eq!(run.outstanding(), 0);
        assert_eq!(run.high_water(), 0);
    }

    #[test]
    fn concurrent_contraction_never_skips_pending_frames() {
        // M threads drain a sealed schedule in racing order; the cursor
        // must end exactly at the high-water mark with every counter at
        // zero, and never stand past a frame that still has registrants.
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let threads = 4usize;
        let per_thread = 64usize;
        let run = Arc::new(WindowRun::new(true, 1_000, threads + per_thread - 1));
        // Base schedule: thread t's j-th txn in frame t + j (overlapping
        // ranges so most frames have multiple owners).
        for t in 0..threads {
            run.register_all((0..per_thread as u64).map(|j| t as u64 + j));
        }
        run.seal_registration();
        let turn = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for t in 0..threads {
                let run = Arc::clone(&run);
                let turn = Arc::clone(&turn);
                s.spawn(move || {
                    // Complete own frames in a scrambled order to force
                    // early commits of future frames.
                    let mut order: Vec<u64> =
                        (0..per_thread as u64).map(|j| t as u64 + j).collect();
                    let len = order.len();
                    order.rotate_left((len / 2).max(1) % len);
                    for f in order {
                        // Our own registration in `f` is still pending.
                        assert!(run.current_frame() <= f, "cursor passed frame {f}");
                        run.complete(f);
                        // Interleave aggressively.
                        if turn.fetch_add(1, Ordering::Relaxed) % 7 == t {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(run.outstanding(), 0, "every registration must drain");
        assert_eq!(
            run.current_frame(),
            run.high_water(),
            "cursor must contract to the end of the schedule"
        );
    }
}
