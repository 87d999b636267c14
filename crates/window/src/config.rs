//! Window-manager configuration.

use std::time::Duration;

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

    /// `ln(MN)` ([`wtm_policy::ln_mn`]).
    pub fn ln_mn(&self) -> f64 {
        wtm_policy::ln_mn(self.m, self.n)
    }

    /// Frame length in nanoseconds for a given τ estimate:
    /// `Φ = phi_factor · ln(MN) · τ`.
    pub fn frame_len_ns(&self, tau_ns: f64) -> u64 {
        let ns = self.phi_factor * self.ln_mn() * tau_ns;
        (ns.max(1.0)) as u64
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
    fn frame_len_scales_with_ln_mn() {
        let small = WindowConfig::new(2, 2);
        let large = WindowConfig::new(32, 50);
        assert!(large.frame_len_ns(1000.0) > small.frame_len_ns(1000.0));
    }

    #[test]
    #[should_panic(expected = "at least 1×1")]
    fn zero_threads_rejected() {
        let _ = WindowConfig::new(0, 5);
    }
}
