//! # wtm-policy — the window policy of Sharma & Busch, written once
//!
//! In an `M × N` window, thread `i` delays its `N` transactions by
//! `qᵢ < αᵢ` frames; a transaction runs at once in low priority and turns
//! high in its assigned frame; a commit after that frame is a *bad event*.
//! Two drivers call this crate: `wtm-window`'s `WindowManager` on real
//! threads and `wtm-sim`'s window schedulers over simulated steps. It holds
//! no clock, thread or graph, and every draw takes the driver's RNG, so
//! each driver keeps its own draw order.

use rand::Rng;

/// `ln(MN)`, clamped below by 1 so tiny windows stay well-defined.
#[inline]
pub fn ln_mn(m: usize, n: usize) -> f64 {
    ((m * n) as f64).ln().max(1.0)
}

/// How a thread's contention estimate `Cᵢ` evolves over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// Known and fixed: the Online algorithms (§II-B2).
    Known,
    /// 1 at a window's start, doubled (up to `M·N`) on a bad event:
    /// Adaptive (§II-B3).
    Doubling,
    /// `1 + CI·N·ln(MN)` from a contention-intensity EWMA `CI ∈ [0, 1]`,
    /// as in Yoo & Lee's ATS: Adaptive-Improved (§III-A).
    ContentionIntensity,
}

/// The policy of one `M × N` window: its shape, how `Cᵢ` evolves, and
/// whether frames contract dynamically (§III-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    m: usize,
    n: usize,
    mode: AdaptiveMode,
    dynamic: bool,
}

impl Policy {
    /// `m` threads of `n` transactions each.
    pub fn new(m: usize, n: usize, mode: AdaptiveMode, dynamic: bool) -> Self {
        Policy {
            m,
            n,
            mode,
            dynamic,
        }
    }

    /// `αᵢ = ⌈Cᵢ/ln(MN)⌉` clamped to `[1, N]`, the span the delay is drawn
    /// from (the paper clamps α to "at most N", §III).
    #[inline]
    pub fn alpha(&self, c: f64) -> u64 {
        ((c / ln_mn(self.m, self.n)).ceil() as u64).clamp(1, self.n as u64)
    }

    /// The frames a window assigns: `qᵢ < αᵢ ≤ N` and `j < N` span frames
    /// `0 … 2N − 2` until a re-randomization.
    pub fn frames_per_window(&self) -> usize {
        2 * self.n - 1
    }

    /// π₂, uniform in `[1, M]`.
    #[inline]
    pub fn rank<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.random_range(1..=self.m as u32)
    }

    /// `Cᵢ` at a window's start: the `known` estimate, 1, or the map of
    /// the contention intensity `ci`, per the mode.
    pub fn start_c(&self, known: f64, ci: f64) -> f64 {
        match self.mode {
            AdaptiveMode::Known => known,
            AdaptiveMode::Doubling => 1.0,
            AdaptiveMode::ContentionIntensity => self.c_of_intensity(ci),
        }
    }

    fn c_of_intensity(&self, ci: f64) -> f64 {
        1.0 + ci.clamp(0.0, 1.0) * self.n as f64 * ln_mn(self.m, self.n)
    }
}

/// One thread's schedule in a window: `Cᵢ`, the delay `qᵢ`, and where the
/// current segment starts (moved only by a re-randomization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    c: f64,
    q: u64,
    j_base: usize,
    base: u64,
}

impl Schedule {
    /// Start a window under estimate `c`: draw `qᵢ < αᵢ`.
    pub fn start<R: Rng + ?Sized>(p: &Policy, c: f64, rng: &mut R) -> Self {
        let mut s = Self::undelayed(c);
        s.q = rng.random_range(0..p.alpha(c));
        s
    }

    /// No delay: transaction `j` is assigned frame `j`.
    pub fn undelayed(c: f64) -> Self {
        Schedule {
            c,
            q: 0,
            j_base: 0,
            base: 0,
        }
    }

    /// The contention estimate `Cᵢ`.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The frame transaction `j` is assigned: `base + qᵢ + (j − j_base)`.
    #[inline]
    pub fn frame(&self, j: usize) -> u64 {
        self.base + self.q + (j - self.j_base) as u64
    }

    /// The bad-event rule (§II-B3) at the commit of transaction `j`,
    /// assigned frame `assigned`, while the clock reads frame `cur`: a
    /// late commit re-estimates `Cᵢ` per the mode (`ci` is read by
    /// `ContentionIntensity` only) and restarts the schedule from
    /// transaction `j + 1` at frame `cur + 1` with a fresh delay. Returns
    /// whether it did. A window's last commit (`j + 1 = N`) leaves nothing
    /// to re-randomize: the next window draws afresh. A dynamic frame ends
    /// only once every transaction assigned to it has committed, so
    /// dynamic frames are never missed.
    #[inline]
    pub fn commit<R: Rng + ?Sized>(
        &mut self,
        p: &Policy,
        j: usize,
        assigned: u64,
        cur: u64,
        ci: f64,
        rng: &mut R,
    ) -> bool {
        if j + 1 >= p.n || cur <= assigned {
            return false;
        }
        debug_assert!(!p.dynamic, "a dynamic frame ended before its commits");
        let c = match p.mode {
            AdaptiveMode::Known => return false,
            AdaptiveMode::Doubling => (self.c * 2.0).min((p.m * p.n) as f64),
            AdaptiveMode::ContentionIntensity => p.c_of_intensity(ci),
        };
        *self = Schedule::start(p, c, rng);
        (self.j_base, self.base) = (j + 1, cur + 1);
        true
    }
}

/// π₁ (§II-B): a transaction is low priority before its assigned frame.
#[inline]
pub fn is_low(assigned: u64, cur: u64) -> bool {
    assigned > cur
}

/// The total key (π₁, π₂, id) as one integer; the smaller key wins a
/// conflict, and the id breaks every tie.
#[inline]
pub fn key(low: bool, rank: u32, id: u64) -> u128 {
    (low as u128) << 96 | (rank as u128) << 64 | id as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn known(m: usize, n: usize) -> Policy {
        Policy::new(m, n, AdaptiveMode::Known, false)
    }

    #[test]
    fn ln_mn_clamped_for_tiny_windows() {
        assert_eq!(ln_mn(1, 1), 1.0);
        assert_eq!(known(1, 1).alpha(0.5), 1);
        assert!(ln_mn(8, 50) > 1.0);
    }

    #[test]
    fn alpha_clamped_to_n() {
        let w = known(4, 10);
        // Huge contention estimate cannot exceed N frames of delay span.
        assert_eq!(w.alpha(1e9), 10);
        // Tiny contention still gives at least one slot.
        assert_eq!(w.alpha(0.0), 1);
    }

    #[test]
    fn alpha_scales_with_c() {
        let w = known(16, 50);
        assert!(
            w.alpha(100.0) > w.alpha(10.0),
            "alpha must grow with the contention estimate"
        );
    }

    #[test]
    fn frame_assignment_formula() {
        let mut s = Schedule {
            c: 4.0,
            q: 2,
            j_base: 0,
            base: 0,
        };
        assert_eq!(s.frame(3), 5);
        // After a re-randomization at j = 3 with base 10 and q = 1:
        s.base = 10;
        s.q = 1;
        s.j_base = 3;
        assert_eq!(s.frame(3), 11);
        assert_eq!(s.frame(5), 13);
    }

    #[test]
    fn last_commit_of_a_window_never_re_randomizes() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let n = 4;
        let p = Policy::new(8, n, AdaptiveMode::Doubling, false);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut s = Schedule::start(&p, 2.0, &mut rng);
        let (before, draws) = (s, format!("{rng:?}"));
        let assigned = s.frame(n - 1);
        assert!(!s.commit(&p, n - 1, assigned, assigned + 1, 0.0, &mut rng));
        assert_eq!((s, format!("{rng:?}")), (before, draws));
        // The same late commit one transaction earlier is a bad event.
        assert!(s.commit(&p, n - 2, assigned, assigned + 1, 0.0, &mut rng));
        assert_eq!(s.c(), 4.0);
    }

    #[test]
    fn key_orders_low_then_rank_then_id() {
        assert!(key(false, u32::MAX, u64::MAX) < key(true, 1, 0));
        assert!(key(true, 1, u64::MAX) < key(true, 2, 0));
        assert!(key(false, 3, 7) < key(false, 3, 8));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// α stays within [1, N] and grows monotonically with C.
        #[test]
        fn alpha_monotone_and_clamped(
            m in 1usize..64,
            n in 1usize..128,
            c1 in 0.0f64..1e6,
            c2 in 0.0f64..1e6,
        ) {
            let w = known(m, n);
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            let a_lo = w.alpha(lo);
            let a_hi = w.alpha(hi);
            prop_assert!(a_lo >= 1 && a_hi <= n as u64);
            prop_assert!(a_lo <= a_hi, "alpha must be monotone in C");
        }
    }
}
