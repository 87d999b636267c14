//! Window-manager configuration.

use std::time::Duration;

/// How the per-thread contention estimate `Cᵢ` evolves over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptiveMode {
    /// `Cᵢ` is fixed at [`WindowConfig::c_init`] — the paper's Online
    /// algorithms, which assume the contention measure is known.
    Known,
    /// Start at `Cᵢ = 1` and double on every *bad event* (a transaction
    /// that failed to commit within its assigned frame) — the paper's
    /// Adaptive algorithm (§II-B3).
    Doubling,
    /// Derive `Cᵢ` from a contention-intensity EWMA
    /// `CI ← α·CI + (1−α)·[aborted]`, as in Adaptive Transaction
    /// Scheduling (Yoo & Lee) — the paper's Adaptive-Improved (§III-A).
    ContentionIntensity,
}

/// Parameters of the execution-window model.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// `M`: number of worker threads in the window.
    pub m: usize,
    /// `N`: transactions per thread per window (the paper uses `N = 50`).
    pub n: usize,
    /// Initial contention estimate `Cᵢ` for every thread. For the Online
    /// variants this is "the known contention"; a sensible default is `M`
    /// (each transaction conflicts with at most one transaction per other
    /// thread at a time).
    pub c_init: f64,
    /// The constant `c` in the frame length `Φ = c · ln(MN)` transaction
    /// durations.
    pub phi_factor: f64,
    /// Initial estimate of the transaction duration `τ` used to size
    /// frames before calibration data exists.
    pub tau_initial: Duration,
    /// Update `τ` from an EWMA of committed attempt durations (recommended;
    /// disable for fully deterministic frame lengths in tests).
    pub auto_calibrate: bool,
    /// RNG seed for the random delays `qᵢ` and ranks π₂ (per-thread
    /// streams are derived from it).
    pub seed: u64,
    /// Upper bound a thread waits at a window barrier before concluding
    /// the window is misconfigured (`m` ≠ the number of threads actually
    /// running transactions), recording an error, and degrading to free
    /// mode. Generous on purpose: a healthy window boundary completes in
    /// microseconds, so only a genuine mismatch ever hits this.
    pub barrier_timeout: Duration,
}

impl WindowConfig {
    /// Configuration with the paper's defaults for an `M × N` window.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m >= 1 && n >= 1, "window must be at least 1×1");
        WindowConfig {
            m,
            n,
            c_init: m as f64,
            phi_factor: 2.0,
            tau_initial: Duration::from_micros(20),
            auto_calibrate: true,
            seed: 0x5EED_CAFE,
            barrier_timeout: Duration::from_secs(5),
        }
    }

    /// Override the initial/known contention estimate.
    pub fn with_c_init(mut self, c: f64) -> Self {
        self.c_init = c.max(1.0);
        self
    }

    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the barrier timeout (tests shrink it to fail fast).
    pub fn with_barrier_timeout(mut self, t: Duration) -> Self {
        self.barrier_timeout = t;
        self
    }

    /// Override the initial τ estimate and disable calibration (tests).
    pub fn with_fixed_tau(mut self, tau: Duration) -> Self {
        self.tau_initial = tau;
        self.auto_calibrate = false;
        self
    }

    /// `ln(MN)`, clamped below by 1 so tiny windows stay well-defined.
    pub fn ln_mn(&self) -> f64 {
        ((self.m * self.n) as f64).ln().max(1.0)
    }

    /// `αᵢ = ⌈Cᵢ / ln(MN)⌉`, clamped to `[1, N]` — the number of frames the
    /// random delay is drawn from. The paper clamps α to "at most N" (§III).
    pub fn alpha_for(&self, c: f64) -> u64 {
        let a = (c / self.ln_mn()).ceil();
        (a as u64).clamp(1, self.n as u64)
    }

    /// Frame length in nanoseconds for a given τ estimate:
    /// `Φ = phi_factor · ln(MN) · τ`.
    pub fn frame_len_ns(&self, tau_ns: f64) -> u64 {
        let ns = self.phi_factor * self.ln_mn() * tau_ns;
        (ns.max(1.0)) as u64
    }

    /// The frames a window assigns: `Fᵢⱼ = qᵢ + (j − 1)` with `qᵢ < α ≤ N`
    /// and `j ≤ N` spans frames `0 … 2N − 2`.
    pub fn frames_per_window(&self) -> usize {
        2 * self.n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = WindowConfig::new(8, 50);
        assert_eq!(cfg.m, 8);
        assert_eq!(cfg.n, 50);
        assert!(cfg.c_init >= 1.0);
        assert!(cfg.ln_mn() > 1.0);
    }

    #[test]
    fn alpha_clamped_to_n() {
        let cfg = WindowConfig::new(4, 10);
        // Huge contention estimate cannot exceed N frames of delay span.
        assert_eq!(cfg.alpha_for(1e9), 10);
        // Tiny contention still gives at least one slot.
        assert_eq!(cfg.alpha_for(0.0), 1);
    }

    #[test]
    fn alpha_scales_with_c() {
        let cfg = WindowConfig::new(16, 50);
        let a1 = cfg.alpha_for(10.0);
        let a2 = cfg.alpha_for(100.0);
        assert!(a2 > a1, "alpha must grow with the contention estimate");
    }

    #[test]
    fn frame_len_scales_with_ln_mn() {
        let small = WindowConfig::new(2, 2);
        let large = WindowConfig::new(32, 50);
        assert!(large.frame_len_ns(1000.0) > small.frame_len_ns(1000.0));
    }

    #[test]
    fn ln_mn_clamped_for_tiny_windows() {
        let cfg = WindowConfig::new(1, 1);
        assert_eq!(cfg.ln_mn(), 1.0);
        assert_eq!(cfg.alpha_for(0.5), 1);
    }

    #[test]
    #[should_panic(expected = "at least 1×1")]
    fn zero_threads_rejected() {
        let _ = WindowConfig::new(0, 5);
    }
}
