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
//! ## Lock-free dynamic clock
//!
//! The dynamic driver used to funnel every register/complete through a
//! `Mutex<Vec<u32>>` — all M threads serialized on one lock per commit,
//! which is exactly the per-transaction overhead Fig. 5 measures. It is
//! now an array of cache-line-padded `AtomicU32` per-frame pending
//! counters plus an atomic `cur` cursor advanced by CAS when the current
//! frame's counter drains:
//!
//! * `register(f)` is one `fetch_add` on the frame's counter plus a
//!   `fetch_max` on the high-water mark — wait-free.
//! * `complete(f)` is a decrement-if-positive CAS loop on one counter
//!   followed by the shared advance loop — lock-free.
//! * `current_frame()` is a single `Acquire` load.
//!
//! Frames beyond the pre-sized base table land in lazily-allocated,
//! doubling *growth segments* published through `AtomicPtr` CAS, so
//! re-randomized schedules that push past the hint never reintroduce a
//! lock and never move existing counters. Segment lifetime is managed by
//! the shared [`wtm_stm::epoch`] reclamation layer rather than a bespoke
//! protocol: every path that dereferences a segment pointer holds an
//! epoch pin, and every unlink (the CAS loser's orphaned allocation, and
//! the published segments at `Drop`) is retired through
//! [`wtm_stm::epoch::retire_boxed_slice`] instead of freed inline. Today
//! a published segment is never replaced, so the pins are vacuously
//! cheap insurance — but they make any future segment swap (shrinking
//! the table between windows, say) safe by construction, and they put
//! the frame table on the same reclamation primitive as the reader
//! registry and the transaction-state pool.
//!
//! ### Orderings and the no-skip invariant
//!
//! Counter increments are `Release` and the advance loop's reads are
//! `Acquire`, so a registration published before the window barrier is
//! always seen by any later advance — and the first advance is the seal,
//! which every thread runs after that barrier: nothing reads or moves the
//! cursor of a run while threads are still registering into it, so the
//! clock cannot pass a frame that still has base-schedule work. `reassign` increments the new frame
//! *before* decrementing the old one — the transient state double-counts,
//! which can only delay contraction, never wrongly advance it. The one
//! benign race left is a reassign targeting the frame the cursor is
//! advancing past in the same instant; the winner-side re-check counts
//! those in [`WindowRun::skipped_pending`] (zero in every run without
//! adaptive re-randomization — asserted by the contraction stress test)
//! and the affected transaction merely turns high-priority a frame early.

use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};

use wtm_stm::clockns;

/// One per-frame pending counter, padded to its own cache line so
/// neighbouring frames (hot on different threads during hand-off) never
/// false-share.
#[repr(align(64))]
#[derive(Debug)]
struct FrameCounter(AtomicU32);

impl FrameCounter {
    const fn new() -> Self {
        FrameCounter(AtomicU32::new(0))
    }
}

fn alloc_counters(len: usize) -> Box<[FrameCounter]> {
    (0..len).map(|_| FrameCounter::new()).collect()
}

/// Number of doubling growth segments past the base table. Segment `k`
/// (0-based) holds `base_cap << (k + 1)` frames, so 32 segments extend
/// the clock by `base_cap · (2³³ − 2)` frames — unreachable in practice
/// (a window registers O(N²) frames at worst), but the growth path stays
/// total instead of panicking.
const GROWTH_SEGMENTS: usize = 32;

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
    /// Pending counters for frames `[0, base_cap)`. Power-of-two length.
    base: Box<[FrameCounter]>,
    /// Lazily-allocated doubling segments for frames `>= base_cap`;
    /// segment `k` covers `base_cap·(2^(k+1)−1) ..` with `base_cap·2^(k+1)`
    /// slots. Published by CAS from null; never replaced or moved.
    /// Dereferenced only under an epoch pin; reclaimed via
    /// [`wtm_stm::epoch::retire_boxed_slice`].
    growth: [AtomicPtr<FrameCounter>; GROWTH_SEGMENTS],
    /// Diagnostic: advances that won the cursor CAS and then observed a
    /// racing registration land in the frame just passed (only possible
    /// through adaptive re-randomization; see module docs).
    skipped_pending: AtomicU64,
}

// SAFETY: all shared state is atomics; the raw segment pointers are
// published once via CAS, dereferenced only under an epoch pin, retired
// (not freed inline) on unlink, and point at heap allocations of
// `FrameCounter` (themselves atomics).
unsafe impl Send for WindowRun {}
unsafe impl Sync for WindowRun {}

impl WindowRun {
    /// New frame clock. `frame_len_ns` is ignored for dynamic runs except
    /// as a fallback; `frames_hint` pre-sizes the pending table.
    pub fn new(dynamic: bool, frame_len_ns: u64, frames_hint: usize) -> Self {
        let base_cap = frames_hint.max(2).next_power_of_two();
        WindowRun {
            start_ns: AtomicU64::new(0),
            frame_len_ns: frame_len_ns.max(1),
            dynamic,
            cur: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
            base: alloc_counters(base_cap),
            growth: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            skipped_pending: AtomicU64::new(0),
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

    fn base_cap(&self) -> u64 {
        self.base.len() as u64
    }

    /// Length of growth segment `k`.
    #[inline]
    fn segment_len(&self, k: usize) -> u64 {
        self.base_cap() << (k + 1)
    }

    /// First frame covered by growth segment `k`:
    /// `base_cap · (2^(k+1) − 1)`.
    #[inline]
    fn segment_start(&self, k: usize) -> u64 {
        self.base_cap() * ((1u64 << (k + 1)) - 1)
    }

    /// Map a frame index to `(segment, offset)`; segment `usize::MAX`
    /// means the base table.
    #[inline]
    fn locate(&self, frame: u64) -> (usize, usize) {
        let cap = self.base_cap();
        if frame < cap {
            return (usize::MAX, frame as usize);
        }
        // Frame f >= cap lives in the segment k with
        // segment_start(k) <= f < segment_start(k+1); since
        // segment_start(k) = cap·(2^(k+1)−1), k = floor(log2(f/cap + 1)) − 1.
        let x = frame / cap + 1;
        let k = (63 - x.leading_zeros()) as usize - 1;
        debug_assert!(k < GROWTH_SEGMENTS, "frame {frame} beyond the growth range");
        let k = k.min(GROWTH_SEGMENTS - 1);
        ((k), (frame - self.segment_start(k)) as usize)
    }

    /// The counter for `frame`, allocating its growth segment if needed.
    /// Callers that can reach a growth segment must hold an epoch pin
    /// (the returned reference is only as durable as the pin).
    fn counter_alloc(&self, frame: u64) -> &AtomicU32 {
        let (k, off) = self.locate(frame);
        if k == usize::MAX {
            return &self.base[off].0;
        }
        let slot = &self.growth[k];
        let mut ptr = slot.load(Ordering::Acquire);
        if ptr.is_null() {
            let fresh = alloc_counters(self.segment_len(k) as usize);
            let len = fresh.len();
            let raw = Box::into_raw(fresh) as *mut FrameCounter;
            match slot.compare_exchange(
                std::ptr::null_mut(),
                raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => ptr = raw,
                Err(winner) => {
                    // This thread still uniquely owns `raw` (it lost the
                    // publication race), but hand it to the epoch layer
                    // anyway: every segment unlink goes through one
                    // reclamation primitive, not a case analysis.
                    // SAFETY: `raw` came from `Box::into_raw` above with
                    // length `len`.
                    wtm_stm::epoch::retire_boxed_slice(unsafe {
                        Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, len))
                    });
                    ptr = winner;
                }
            }
        }
        // SAFETY: `ptr` was published by the CAS above (or an earlier
        // one) from a live `Box<[FrameCounter]>` of length
        // segment_len(k), retired only in `Drop` while the caller's pin
        // keeps it alive; `off < segment_len(k)` by `locate`.
        unsafe { &(*ptr.add(off)).0 }
    }

    /// The counter for `frame` if its storage exists; pending count 0
    /// otherwise (an unallocated segment holds no registrations).
    /// Same pin requirement as [`Self::counter_alloc`].
    #[inline]
    fn count(&self, frame: u64) -> u32 {
        let (k, off) = self.locate(frame);
        if k == usize::MAX {
            return self.base[off].0.load(Ordering::Acquire);
        }
        let ptr = self.growth[k].load(Ordering::Acquire);
        if ptr.is_null() {
            return 0;
        }
        // SAFETY: published segment, `off` in bounds (see counter_alloc).
        unsafe { (*ptr.add(off)).0.load(Ordering::Acquire) }
    }

    /// Register one transaction assigned to `frame` (window start, or an
    /// adaptive re-randomization). Only meaningful for dynamic runs; a
    /// no-op otherwise. Wait-free: one `fetch_add` + one `fetch_max`.
    pub fn register(&self, frame: u64) {
        if !self.dynamic {
            return;
        }
        let _pin = wtm_stm::epoch::pin();
        self.counter_alloc(frame).fetch_add(1, Ordering::Release);
        // High-water only after the count is visible: the cursor must
        // never be allowed into a frame before its registration lands.
        self.high_water.fetch_max(frame + 1, Ordering::Release);
    }

    /// Register a batch of assigned frames in one pass: the counters are
    /// bumped item by item (wait-free), but the high-water mark is
    /// published once at the end instead of per item — the window-start
    /// path registers a whole N-transaction schedule segment with a
    /// single shared-cursor-bound update.
    pub fn register_all(&self, frames: impl IntoIterator<Item = u64>) {
        if !self.dynamic {
            return;
        }
        let _pin = wtm_stm::epoch::pin();
        let mut max_frame = None::<u64>;
        for f in frames {
            self.counter_alloc(f).fetch_add(1, Ordering::Release);
            max_frame = Some(max_frame.map_or(f, |m| m.max(f)));
        }
        if let Some(m) = max_frame {
            self.high_water.fetch_max(m + 1, Ordering::Release);
        }
    }

    /// A transaction assigned to `frame` committed: contract if possible.
    /// Lock-free: a decrement-if-positive CAS loop plus the advance loop.
    pub fn complete(&self, frame: u64) {
        if !self.dynamic {
            return;
        }
        let _pin = wtm_stm::epoch::pin();
        if self.dec_if_positive(frame) {
            self.try_advance();
        }
    }

    /// Decrement `frame`'s pending count unless already zero; returns
    /// whether the count reached zero (the caller should try to advance).
    fn dec_if_positive(&self, frame: u64) -> bool {
        let c = self.counter_alloc(frame);
        let mut v = c.load(Ordering::Relaxed);
        loop {
            if v == 0 {
                // Unbalanced complete (free-mode hand-off, defensive):
                // same silent tolerance the locked version had.
                return false;
            }
            match c.compare_exchange_weak(v, v - 1, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return v == 1,
                Err(cur) => v = cur,
            }
        }
    }

    /// Move one not-yet-committed assignment from `old` to `new`
    /// (adaptive re-randomization of the remaining window). The new frame
    /// is counted *before* the old one is released so the transient state
    /// can only delay contraction, never let the cursor slip past work.
    pub fn reassign(&self, old: u64, new: u64) {
        if !self.dynamic {
            return;
        }
        let _pin = wtm_stm::epoch::pin();
        self.register(new);
        if self.dec_if_positive(old) {
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
            if cur >= self.high_water.load(Ordering::Acquire) || self.count(cur) != 0 {
                return;
            }
            match self
                .cur
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // Re-check the frame we just closed: a registration
                    // that raced the CAS (only adaptive reassign can do
                    // this) means a transaction turned high-priority one
                    // frame early. Count it — the contraction stress test
                    // asserts zero on reassign-free runs.
                    if self.count(cur) != 0 {
                        self.skipped_pending.fetch_add(1, Ordering::Relaxed);
                    }
                    if wtm_trace::enabled() {
                        wtm_trace::emit(wtm_trace::Event::instant(
                            wtm_trace::EventKind::FrameAdvance,
                            clockns::now(),
                            u32::MAX, // engine-level event, no single owner thread
                            cur + 1,
                            self.high_water.load(Ordering::Relaxed),
                        ));
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
            let _pin = wtm_stm::epoch::pin();
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
        let _pin = wtm_stm::epoch::pin();
        let mut sum: u64 = self
            .base
            .iter()
            .map(|c| u64::from(c.0.load(Ordering::Acquire)))
            .sum();
        for (k, slot) in self.growth.iter().enumerate() {
            let ptr = slot.load(Ordering::Acquire);
            if ptr.is_null() {
                continue;
            }
            for off in 0..self.segment_len(k) as usize {
                // SAFETY: published segment of length segment_len(k),
                // kept alive by the pin above.
                sum += u64::from(unsafe { (*ptr.add(off)).0.load(Ordering::Acquire) });
            }
        }
        sum
    }

    /// One past the highest registered frame (diagnostics/tests).
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Acquire)
    }

    /// Cursor advances that closed a frame while a racing reassign was
    /// landing in it (see module docs). Always zero without adaptive
    /// re-randomization.
    pub fn skipped_pending(&self) -> u64 {
        self.skipped_pending.load(Ordering::Relaxed)
    }
}

impl Drop for WindowRun {
    fn drop(&mut self) {
        let cap = self.base.len() as u64;
        for (k, slot) in self.growth.iter_mut().enumerate() {
            let ptr = *slot.get_mut();
            if !ptr.is_null() {
                // `&mut self` proves no new reader can start, but a
                // diagnostic scan racing the drop on another thread may
                // still hold a pin — retire through the epoch layer and
                // let the free rule wait it out.
                // SAFETY: the pointer was published exactly once from
                // `Box::into_raw` of a slice of `segment_len(k)` counters
                // and never retired since.
                wtm_stm::epoch::retire_boxed_slice(unsafe {
                    Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                        ptr,
                        (cap << (k + 1)) as usize,
                    ))
                });
            }
        }
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
        run.register(0);
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
    fn reassign_moves_pending() {
        let run = WindowRun::new(true, 1_000, 4);
        run.register_all([1, 1]);
        run.seal_registration();
        assert_eq!(run.current_frame(), 1);
        run.reassign(1, 6); // table grows on demand
        run.complete(1);
        assert_eq!(run.current_frame(), 6);
        run.complete(6);
        assert_eq!(run.outstanding(), 0);
    }

    #[test]
    fn registration_grows_table() {
        let run = WindowRun::new(true, 1_000, 2);
        run.register(100);
        assert_eq!(run.outstanding(), 1);
        assert_eq!(run.high_water(), 101);
        run.complete(100);
        assert_eq!(run.outstanding(), 0);
    }

    #[test]
    fn growth_segments_cover_far_frames() {
        // Exercise several doubling segments in one run: the mapping must
        // be injective (distinct frames keep distinct counters) and stable.
        let run = WindowRun::new(true, 1_000, 2);
        let frames = [0u64, 1, 2, 3, 5, 9, 17, 100, 1_000, 65_000];
        for &f in &frames {
            run.register(f);
            run.register(f);
        }
        assert_eq!(run.outstanding(), 2 * frames.len() as u64);
        for &f in &frames {
            run.complete(f);
        }
        assert_eq!(run.outstanding(), frames.len() as u64);
        for &f in &frames {
            run.complete(f);
        }
        assert_eq!(run.outstanding(), 0);
        assert_eq!(run.current_frame(), 65_001);
        assert_eq!(run.skipped_pending(), 0);
    }

    #[test]
    fn register_all_matches_item_by_item_registration() {
        // The batched registration path must be observationally identical
        // to per-item registers: same counters, same high-water, same
        // contraction behaviour.
        let frames = [3u64, 3, 4, 9, 6, 4];
        let batched = WindowRun::new(true, 1_000, 8);
        batched.register_all(frames.iter().copied());
        let itemized = WindowRun::new(true, 1_000, 8);
        for &f in &frames {
            itemized.register(f);
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
        run.register_all([0, 1, 2]);
        assert_eq!(run.outstanding(), 0);
        assert_eq!(run.high_water(), 0);
    }

    #[test]
    fn concurrent_contraction_never_skips_pending_frames() {
        // M threads drain a sealed schedule in racing order; the cursor
        // must end exactly at the high-water mark, with every counter at
        // zero and no pending-frame skips detected.
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let threads = 4usize;
        let per_thread = 64usize;
        let run = Arc::new(WindowRun::new(true, 1_000, 16));
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
        assert_eq!(
            run.skipped_pending(),
            0,
            "no frame may be closed while it still has pending registrants"
        );
    }
}
