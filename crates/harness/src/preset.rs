//! Experiment scale presets.

use std::time::Duration;

use wtm_stm::EngineKind;

/// How big every experiment is. `paper()` reproduces the paper's setup;
/// `quick()` shrinks everything so the full figure suite runs in minutes
/// on a laptop/CI box.
#[derive(Debug, Clone)]
pub struct Preset {
    /// Wall-clock interval for the timed runs (paper: 10 s).
    pub duration: Duration,
    /// Repetitions averaged per cell (paper: 6).
    pub reps: usize,
    /// Thread sweep `M` (paper: 1, 2, 4, 8, 16, 32).
    pub thread_counts: Vec<usize>,
    /// Transactions per thread per window (paper: N = 50).
    pub window_n: usize,
    /// Fig. 5 budget (paper: 20 000 transactions).
    pub budget: u64,
    /// Fig. 5 thread count (paper: 32).
    pub fig5_threads: usize,
    /// Simulator scale for the theory tables.
    pub sim_m: usize,
    pub sim_n: usize,
    /// Base seed for the experiment engine's per-cell seed derivation
    /// (`--seed` overrides it).
    pub seed: u64,
    /// Which STM engine executes every run (`--engine` overrides it).
    /// The paper's substrate is eager; `lazy` is the TL2-style backend.
    pub engine: EngineKind,
    /// Label used in report headers.
    pub name: &'static str,
}

impl Preset {
    /// The paper's configuration (§III): long, only sensible on a machine
    /// you are happy to occupy for a while.
    pub fn paper() -> Self {
        Preset {
            duration: Duration::from_secs(10),
            reps: 6,
            thread_counts: vec![1, 2, 4, 8, 16, 32],
            window_n: 50,
            budget: 20_000,
            fig5_threads: 32,
            sim_m: 32,
            sim_n: 50,
            seed: 0xBEEF,
            engine: EngineKind::Eager,
            name: "paper",
        }
    }

    /// The paper's full sweep (M up to 32, N = 50, 20 000-txn budget) at
    /// reduced duration/repetitions: the recommended setting for
    /// regenerating EXPERIMENTS.md on one machine in ~half an hour.
    pub fn medium() -> Self {
        Preset {
            duration: Duration::from_secs(1),
            reps: 3,
            thread_counts: vec![1, 2, 4, 8, 16, 32],
            window_n: 50,
            budget: 20_000,
            fig5_threads: 32,
            sim_m: 32,
            sim_n: 50,
            seed: 0xBEEF,
            engine: EngineKind::Eager,
            name: "medium",
        }
    }

    /// CI-sized: same shapes, two orders of magnitude less wall time.
    pub fn quick() -> Self {
        Preset {
            duration: Duration::from_millis(250),
            reps: 2,
            thread_counts: vec![1, 2, 4, 8],
            window_n: 16,
            budget: 2_000,
            fig5_threads: 8,
            sim_m: 16,
            sim_n: 24,
            seed: 0xBEEF,
            engine: EngineKind::Eager,
            name: "quick",
        }
    }

    /// Even smaller: used by the test suite.
    pub fn smoke() -> Self {
        Preset {
            duration: Duration::from_millis(60),
            reps: 1,
            thread_counts: vec![1, 2],
            window_n: 8,
            budget: 150,
            fig5_threads: 2,
            sim_m: 6,
            sim_n: 8,
            seed: 0xBEEF,
            engine: EngineKind::Eager,
            name: "smoke",
        }
    }

    /// The top of the thread sweep: the one `M` of the tables that do not
    /// sweep it (ablations, FW1–FW4, traces).
    pub(crate) fn max_threads(&self) -> usize {
        self.thread_counts.last().copied().unwrap_or(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_the_paper() {
        let p = Preset::paper();
        assert_eq!(p.duration, Duration::from_secs(10));
        assert_eq!(p.reps, 6);
        assert_eq!(p.thread_counts, vec![1, 2, 4, 8, 16, 32]);
        assert_eq!(p.window_n, 50);
        assert_eq!(p.budget, 20_000);
        assert_eq!(p.fig5_threads, 32);
    }
}
