//! The topology layer: nodes, clock skew, and the network model.
//!
//! The paper's model is implicitly single-node: conflict detection and the
//! contention manager's verdict are instantaneous. This layer makes that
//! assumption explicit and breakable. Threads are **pinned to nodes** by a
//! [`Topology`]; a duel between two transactions is detected at the
//! lower-id party's node (instantaneously — detection is local), and the
//! verdict then travels to the loser's node through a pluggable
//! [`NetworkModel`]:
//!
//! * [`ZeroLatency`] — the default; reproduces the paper's semantics (and
//!   the pre-event-core simulator) exactly.
//! * [`FixedLatency`] — every message takes a constant number of steps.
//! * [`SeededJitter`] — seeded uniform jitter on top of a base latency,
//!   with an optional per-message drop probability. Dropped verdicts are
//!   never retransmitted: a loser whose verdict is lost can commit as a
//!   **zombie** (counted separately in the outcome).
//!
//! Per-node **window clocks** may also be skewed: a node's local time is
//! `step + skew(node)`, and duels are stamped with the detector node's
//! local time, so timestamp-based managers (Greedy, the window family)
//! see skewed priorities — exactly the failure mode a distributed window
//! CM would face.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;
use crate::params::{ParamError, Params};

/// Node index inside a [`Topology`].
pub type NodeId = usize;

/// Threads pinned to nodes, plus per-node clock skew in steps.
#[derive(Debug, Clone)]
pub struct Topology {
    node_of: Vec<NodeId>,
    skew: Vec<u64>,
}

impl Topology {
    /// Everything on one node with a true clock: the paper's world.
    pub fn single_node(m: usize) -> Self {
        Topology {
            node_of: vec![0; m],
            skew: vec![0],
        }
    }

    /// Threads dealt round-robin over `nodes` nodes; node `k`'s clock
    /// runs `k · skew_step` steps ahead.
    pub fn round_robin(m: usize, nodes: usize, skew_step: u64) -> Self {
        assert!(nodes >= 1, "need at least one node");
        Topology {
            node_of: (0..m).map(|i| i % nodes).collect(),
            skew: (0..nodes).map(|k| k as u64 * skew_step).collect(),
        }
    }

    /// `replicas` contiguous blocks of `base_m` threads, block `r` on
    /// node `r` (the replicated-transactions layout).
    pub fn blocks(base_m: usize, replicas: usize, skew_step: u64) -> Self {
        assert!(replicas >= 1, "need at least one replica");
        Topology {
            node_of: (0..base_m * replicas).map(|i| i / base_m).collect(),
            skew: (0..replicas).map(|k| k as u64 * skew_step).collect(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.skew.len()
    }

    /// Number of pinned threads.
    pub fn threads(&self) -> usize {
        self.node_of.len()
    }

    /// Which node runs thread `i`.
    pub fn node_of(&self, thread: usize) -> NodeId {
        self.node_of[thread]
    }

    /// Clock skew of `node` in steps (local time = `step + skew`).
    pub fn skew(&self, node: NodeId) -> u64 {
        self.skew[node]
    }
}

/// A scheduled node failure: `node` goes down at step `at` and recovers
/// `down` steps later. Its in-flight transactions abort at the crash and
/// the node issues nothing while down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    pub node: NodeId,
    pub at: u64,
    pub down: u64,
}

/// Message latency between nodes, in steps. `None` = the message is
/// dropped (verdicts are not retransmitted; commit acks are).
pub trait NetworkModel {
    fn delay(&mut self, src: NodeId, dst: NodeId, now: u64) -> Option<u64>;
}

/// Instantaneous delivery: the paper's assumption, bit-identical to the
/// pre-event-core simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroLatency;

impl NetworkModel for ZeroLatency {
    fn delay(&mut self, _src: NodeId, _dst: NodeId, _now: u64) -> Option<u64> {
        Some(0)
    }
}

/// Every message takes exactly this many steps. `FixedLatency(0)` is
/// semantically identical to [`ZeroLatency`].
#[derive(Debug, Clone, Copy)]
pub struct FixedLatency(pub u64);

impl NetworkModel for FixedLatency {
    fn delay(&mut self, _src: NodeId, _dst: NodeId, _now: u64) -> Option<u64> {
        Some(self.0)
    }
}

/// `base + U[0, jitter]` steps, with `drop_permille`/1000 probability of
/// losing the message entirely. Fully seeded: the same seed draws the
/// same delay sequence.
#[derive(Debug, Clone)]
pub struct SeededJitter {
    pub base: u64,
    pub jitter: u64,
    pub drop_permille: u32,
    rng: SmallRng,
}

impl SeededJitter {
    pub fn new(base: u64, jitter: u64, drop_permille: u32, seed: u64) -> Self {
        SeededJitter {
            base,
            jitter,
            drop_permille: drop_permille.min(1000),
            rng: SmallRng::seed_from_u64(seed ^ 0x01A7_E9C7),
        }
    }
}

impl NetworkModel for SeededJitter {
    fn delay(&mut self, _src: NodeId, _dst: NodeId, _now: u64) -> Option<u64> {
        if self.drop_permille > 0 && self.rng.random_range(0..1000u32) < self.drop_permille {
            return None;
        }
        let j = if self.jitter > 0 {
            self.rng.random_range(0..=self.jitter)
        } else {
            0
        };
        Some(self.base.saturating_add(j))
    }
}

/// A parsed, canonical network-model spec — the form that enters cell
/// identity keys:
///
/// * `zero`
/// * `fixed:<steps>`
/// * `jitter:<base>,j=<jitter>,drop=<permille>` (suffix parts optional on
///   input, always printed in canonical form)
///
/// No message may take more than `u32::MAX` steps.
/// The longest delay a spec may declare, in steps: a delivery time
/// `step + delay` stays far inside the `u64` clock.
const MAX_DELAY: u64 = u32::MAX as u64;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetSpec {
    Zero,
    Fixed(u64),
    Jitter {
        base: u64,
        jitter: u64,
        drop_permille: u32,
    },
}

impl NetSpec {
    pub fn parse(s: &str) -> Result<NetSpec, SimError> {
        let bad = |reason: &str| SimError::BadNetSpec {
            spec: s.to_string(),
            reason: reason.to_string(),
        };
        let too_long = || bad(&format!("a delay may be at most {MAX_DELAY} steps"));
        if s == "zero" {
            return Ok(NetSpec::Zero);
        }
        if let Some(rest) = s.strip_prefix("fixed:") {
            let steps = rest
                .parse::<u64>()
                .map_err(|_| bad("latency must be an integer number of steps"))?;
            if steps > MAX_DELAY {
                return Err(too_long());
            }
            return Ok(NetSpec::Fixed(steps));
        }
        if let Some(rest) = s.strip_prefix("jitter:") {
            let (base, list) = match rest.split_once(',') {
                Some((base, list)) => (base, Some(list)),
                None => (rest, None),
            };
            let base = base
                .parse::<u64>()
                .map_err(|_| bad("jitter needs an integer base latency"))?;
            let suffix = || -> Result<(u64, u32), ParamError> {
                let mut p = Params::list(s, list)?;
                let jitter = p.u64_or("j", 0)?;
                let drop_permille = p.get("drop")?.unwrap_or(0);
                p.finish()?;
                Ok((jitter, drop_permille))
            };
            let (jitter, drop_permille) = suffix().map_err(|e| bad(&e.reason))?;
            if drop_permille > 1000 {
                return Err(bad("drop= is permille, max 1000"));
            }
            if base.checked_add(jitter).is_none_or(|d| d > MAX_DELAY) {
                return Err(too_long());
            }
            return Ok(NetSpec::Jitter {
                base,
                jitter,
                drop_permille,
            });
        }
        Err(bad("unknown model (want zero, fixed:<steps>, or jitter:…)"))
    }

    /// Instantiate the model; `seed` feeds [`SeededJitter`] only.
    pub fn build(&self, seed: u64) -> Box<dyn NetworkModel> {
        match *self {
            NetSpec::Zero => Box::new(ZeroLatency),
            NetSpec::Fixed(d) => Box::new(FixedLatency(d)),
            NetSpec::Jitter {
                base,
                jitter,
                drop_permille,
            } => Box::new(SeededJitter::new(base, jitter, drop_permille, seed)),
        }
    }
}

impl std::fmt::Display for NetSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            NetSpec::Zero => write!(f, "zero"),
            NetSpec::Fixed(d) => write!(f, "fixed:{d}"),
            NetSpec::Jitter {
                base,
                jitter,
                drop_permille,
            } => write!(f, "jitter:{base},j={jitter},drop={drop_permille}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_pin_and_skew() {
        let t = Topology::single_node(4);
        assert_eq!(t.nodes(), 1);
        assert!((0..4).all(|i| t.node_of(i) == 0));
        assert_eq!(t.skew(0), 0);

        let rr = Topology::round_robin(5, 2, 3);
        assert_eq!(rr.nodes(), 2);
        assert_eq!(
            (0..5).map(|i| rr.node_of(i)).collect::<Vec<_>>(),
            vec![0, 1, 0, 1, 0]
        );
        assert_eq!(rr.skew(1), 3);

        let b = Topology::blocks(3, 2, 0);
        assert_eq!(b.threads(), 6);
        assert_eq!(b.node_of(2), 0);
        assert_eq!(b.node_of(3), 1);
    }

    #[test]
    fn netspec_parse_roundtrips_canonically() {
        for s in ["zero", "fixed:0", "fixed:4", "jitter:2,j=3,drop=50"] {
            let spec = NetSpec::parse(s).unwrap();
            assert_eq!(spec.to_string(), s);
            assert_eq!(NetSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        // Suffix parts are optional on input but canonicalized on output.
        assert_eq!(
            NetSpec::parse("jitter:5").unwrap().to_string(),
            "jitter:5,j=0,drop=0"
        );
    }

    #[test]
    fn netspec_rejects_garbage() {
        for s in [
            "warp:9",
            "fixed:abc",
            "fixed:",
            "jitter:",
            "jitter:1,x=2",
            "jitter:1,j",
            "jitter:1,",
            "jitter:1,j=abc",
            "jitter:1,drop=2000",
            "",
        ] {
            let e = NetSpec::parse(s).unwrap_err();
            assert!(matches!(e, SimError::BadNetSpec { .. }), "{s}: {e}");
        }
    }

    #[test]
    fn netspec_rejects_delays_past_u32_steps() {
        for s in [
            "fixed:18446744073709551615",
            "fixed:4294967296",
            "jitter:4294967296",
            "jitter:4294967295,j=1",
            "jitter:1,j=18446744073709551615",
            "jitter:18446744073709551615,j=18446744073709551615",
        ] {
            match NetSpec::parse(s) {
                Err(SimError::BadNetSpec { spec, reason }) => {
                    assert_eq!(spec, s);
                    assert!(reason.contains("4294967295"), "{s}: {reason}");
                }
                other => panic!("{s}: expected BadNetSpec, got {other:?}"),
            }
        }
        for s in ["fixed:4294967295", "jitter:4294967290,j=5,drop=0"] {
            assert_eq!(NetSpec::parse(s).unwrap().to_string(), s);
        }
    }

    #[test]
    fn jitter_saturates_instead_of_wrapping() {
        let mut j = SeededJitter::new(u64::MAX, 5, 0, 1);
        assert!((0..20).all(|t| j.delay(0, 1, t) == Some(u64::MAX)));
    }

    #[test]
    fn netspec_rejects_duplicate_suffix_keys() {
        // Regression: `j=1,j=9` used to silently keep the last value, the
        // same last-wins defect manager names once had.
        for (s, key) in [
            ("jitter:2,j=1,j=9", "`j`"),
            ("jitter:2,drop=5,drop=50", "`drop`"),
            ("jitter:2,j=1,drop=5,j=1", "`j`"),
        ] {
            match NetSpec::parse(s) {
                Err(SimError::BadNetSpec { spec, reason }) => {
                    assert_eq!(spec, s);
                    assert!(
                        reason.contains("duplicate") && reason.contains(key),
                        "{s}: reason was {reason:?}"
                    );
                }
                other => panic!("{s}: expected BadNetSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn models_deliver_what_they_promise() {
        assert_eq!(ZeroLatency.delay(0, 1, 9), Some(0));
        assert_eq!(FixedLatency(4).delay(0, 1, 9), Some(4));
        let mut j = SeededJitter::new(2, 3, 0, 42);
        for _ in 0..100 {
            let d = j.delay(0, 1, 0).unwrap();
            assert!((2..=5).contains(&d));
        }
        // Same seed, same delay stream.
        let draw = |seed| {
            let mut m = SeededJitter::new(1, 10, 100, seed);
            (0..50).map(|t| m.delay(0, 1, t)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        // drop=1000 drops everything.
        let mut d = SeededJitter::new(1, 0, 1000, 3);
        assert!((0..20).all(|t| d.delay(0, 1, t).is_none()));
    }
}
