//! # wtm-window — window-based contention managers
//!
//! The primary contribution of *Sharma & Busch, "On the Performance of
//! Window-Based Contention Managers for Transactional Memory"* (IPDPS
//! Workshops 2011), implemented as a [`wtm_stm::ContentionManager`].
//!
//! ## The model (paper §II)
//!
//! The rules — α, the frame schedule, the `Cᵢ` updates, the bad event and
//! the (π₁, π₂, id) key — are `wtm-policy`'s, which the simulator's window
//! schedulers call too; this crate drives them on real threads.
//!
//! ## Variants (paper §III-A)
//!
//! | variant | frames | contention estimate Cᵢ |
//! |---|---|---|
//! | [`WindowVariant::Online`] | static, time-driven | known (configured) |
//! | [`WindowVariant::OnlineDynamic`] | dynamic contraction | known (configured) |
//! | [`WindowVariant::Adaptive`] | static | starts at 1, doubles on *bad events* |
//! | [`WindowVariant::AdaptiveImproved`] | static | contention-intensity EWMA (ATS-style) |
//! | [`WindowVariant::AdaptiveImprovedDynamic`] | dynamic contraction | contention-intensity EWMA |
//!
//! The paper's **Offline** algorithm needs the global conflict graph and is
//! therefore implemented in the `wtm-sim` crate (exactly as the paper,
//! which excludes it from the DSTM2 evaluation for the same reason).
//!
//! ## Usage
//!
//! ```
//! use std::sync::Arc;
//! use wtm_stm::{Stm, TVar};
//! use wtm_window::{WindowConfig, WindowManager, WindowVariant};
//!
//! let cfg = WindowConfig::new(2, 8); // M = 2 threads, N = 8 txns/window
//! let wm = Arc::new(WindowManager::new(WindowVariant::OnlineDynamic, cfg));
//! let stm = Stm::new(wm.clone(), 2);
//! let counter: TVar<u64> = TVar::new(0);
//!
//! std::thread::scope(|s| {
//!     for t in 0..2 {
//!         let ctx = stm.thread(t);
//!         let counter = counter.clone();
//!         s.spawn(move || {
//!             for _ in 0..8 {
//!                 ctx.atomic(|tx| {
//!                     let v = *tx.read(&counter)?;
//!                     tx.write(&counter, v + 1)
//!                 });
//!             }
//!         });
//!     }
//! });
//! wm.cancel(); // release any thread parked at a window barrier
//! assert_eq!(*counter.sample(), 16);
//! ```

pub mod config;
pub mod manager;
pub mod run;
pub mod thread;

pub use config::WindowConfig;
pub use manager::{BoundaryCounts, WindowManager};
pub use run::WindowRun;
pub use wtm_policy::AdaptiveMode;

/// The five window-variant policies evaluated in the paper's Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowVariant {
    /// Static frames, contention estimate known up front (§II-B2).
    Online,
    /// Online plus dynamic frame contraction (§III-B).
    OnlineDynamic,
    /// Guesses Cᵢ by doubling on bad events (§II-B3).
    Adaptive,
    /// Guesses Cᵢ from a contention-intensity EWMA (§III-A).
    AdaptiveImproved,
    /// Adaptive-Improved plus dynamic frame contraction — the paper's best
    /// performer together with Online-Dynamic.
    AdaptiveImprovedDynamic,
}

impl WindowVariant {
    /// All variants, in the paper's presentation order.
    pub fn all() -> &'static [WindowVariant] {
        &[
            WindowVariant::Online,
            WindowVariant::OnlineDynamic,
            WindowVariant::Adaptive,
            WindowVariant::AdaptiveImproved,
            WindowVariant::AdaptiveImprovedDynamic,
        ]
    }

    /// Display name used in reports (matches the paper's labels).
    pub fn name(&self) -> &'static str {
        match self {
            WindowVariant::Online => "Online",
            WindowVariant::OnlineDynamic => "Online-Dynamic",
            WindowVariant::Adaptive => "Adaptive",
            WindowVariant::AdaptiveImproved => "Adaptive-Improved",
            WindowVariant::AdaptiveImprovedDynamic => "Adaptive-Improved-Dynamic",
        }
    }

    /// Whether frames contract dynamically (the `*-Dynamic` variants).
    pub fn dynamic_frames(&self) -> bool {
        matches!(
            self,
            WindowVariant::OnlineDynamic | WindowVariant::AdaptiveImprovedDynamic
        )
    }

    /// How the contention estimate Cᵢ evolves.
    pub fn adaptive_mode(&self) -> AdaptiveMode {
        match self {
            WindowVariant::Online | WindowVariant::OnlineDynamic => AdaptiveMode::Known,
            WindowVariant::Adaptive => AdaptiveMode::Doubling,
            WindowVariant::AdaptiveImproved | WindowVariant::AdaptiveImprovedDynamic => {
                AdaptiveMode::ContentionIntensity
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_properties() {
        assert!(!WindowVariant::Online.dynamic_frames());
        assert!(WindowVariant::OnlineDynamic.dynamic_frames());
        assert!(!WindowVariant::Adaptive.dynamic_frames());
        assert!(!WindowVariant::AdaptiveImproved.dynamic_frames());
        assert!(WindowVariant::AdaptiveImprovedDynamic.dynamic_frames());

        assert_eq!(WindowVariant::Online.adaptive_mode(), AdaptiveMode::Known);
        assert_eq!(
            WindowVariant::Adaptive.adaptive_mode(),
            AdaptiveMode::Doubling
        );
        assert_eq!(
            WindowVariant::AdaptiveImprovedDynamic.adaptive_mode(),
            AdaptiveMode::ContentionIntensity
        );
    }

    #[test]
    fn names_match_paper_labels() {
        let names: Vec<_> = WindowVariant::all().iter().map(|v| v.name()).collect();
        assert_eq!(
            names,
            vec![
                "Online",
                "Online-Dynamic",
                "Adaptive",
                "Adaptive-Improved",
                "Adaptive-Improved-Dynamic"
            ]
        );
    }
}
