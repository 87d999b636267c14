//! Typed errors for the simulator's builder/registry surface.
//!
//! Mirrors the harness `BuildError` style: an unknown registry name lists
//! what *is* registered, a parameter problem names the offending entry and
//! the reason, and everything implements `Display`/`Error` so callers can
//! `?` or print without formatting logic of their own.

use std::fmt;

use crate::params::ParamError;

/// Everything that can go wrong building or replaying a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Invalid [`SimConfig`](crate::engine::SimConfig) dimensions
    /// (zero threads, transactions, or duration).
    BadConfig {
        /// What was wrong, e.g. `"m (threads) must be >= 1, got 0"`.
        reason: String,
    },
    /// The scenario name is not registered.
    UnknownScenario {
        name: String,
        known: Vec<&'static str>,
    },
    /// The scheduler name is not registered.
    UnknownScheduler {
        name: String,
        known: Vec<&'static str>,
    },
    /// A `name@k=v,…` parameter list did not parse or validate.
    BadParams { name: String, reason: String },
    /// A network-model spec string did not parse or validate.
    BadNetSpec { spec: String, reason: String },
    /// A recorded run did not reproduce byte-identically on replay.
    ReplayMismatch { reason: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadConfig { reason } => write!(f, "bad sim config: {reason}"),
            SimError::UnknownScenario { name, known } => {
                write!(f, "unknown scenario {name:?}; known: {}", known.join(", "))
            }
            SimError::UnknownScheduler { name, known } => {
                write!(f, "unknown scheduler {name:?}; known: {}", known.join(", "))
            }
            SimError::BadParams { name, reason } => {
                write!(f, "bad parameters for {name:?}: {reason}")
            }
            SimError::BadNetSpec { spec, reason } => {
                write!(f, "bad network spec {spec:?}: {reason}")
            }
            SimError::ReplayMismatch { reason } => write!(f, "replay mismatch: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ParamError> for SimError {
    fn from(e: ParamError) -> Self {
        SimError::BadParams {
            name: e.spec,
            reason: e.reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = SimError::UnknownScenario {
            name: "bogus".into(),
            known: vec!["fig2-shape", "clustered"],
        };
        let s = e.to_string();
        assert!(s.contains("bogus") && s.contains("fig2-shape"), "{s}");
        let e = SimError::BadNetSpec {
            spec: "warp:9".into(),
            reason: "unknown model".into(),
        };
        assert!(e.to_string().contains("warp:9"));
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(SimError::BadConfig {
            reason: "n must be >= 1, got 0".into(),
        });
        assert!(e.to_string().contains("n must be >= 1"));
    }
}
