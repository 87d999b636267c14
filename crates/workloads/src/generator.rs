//! Deterministic operation streams with the paper's contention knobs.
//!
//! The paper controls contention two ways:
//!
//! * Figs. 2–4 configure the benchmarks "to generate large amounts of
//!   transactional conflicts" — here, a small key range plus a 50/50
//!   insert/remove mix;
//! * Fig. 5 sweeps the *update percentage*: 20% (low), 60% (medium),
//!   100% (high) of operations are inserts/removes, the rest are
//!   `contains` queries.
//!
//! Streams are seeded per `(seed, thread)` so every run of an experiment
//! issues exactly the same operations.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The contention levels of the paper's Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentionLevel {
    /// 20% update operations.
    Low,
    /// 60% update operations.
    Medium,
    /// 100% update operations.
    High,
}

impl ContentionLevel {
    /// All levels, low to high.
    pub fn all() -> &'static [ContentionLevel] {
        &[
            ContentionLevel::Low,
            ContentionLevel::Medium,
            ContentionLevel::High,
        ]
    }

    /// The update percentage this level maps to (paper §III-D).
    pub fn update_pct(&self) -> u32 {
        match self {
            ContentionLevel::Low => 20,
            ContentionLevel::Medium => 60,
            ContentionLevel::High => 100,
        }
    }

    /// Report label.
    pub fn name(&self) -> &'static str {
        match self {
            ContentionLevel::Low => "Low",
            ContentionLevel::Medium => "Medium",
            ContentionLevel::High => "High",
        }
    }
}

/// One IntSet operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Insert,
    Remove,
    Contains,
}

/// One generated IntSet operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetOp {
    pub kind: OpKind,
    pub key: i64,
}

/// Deterministic stream of [`SetOp`]s.
#[derive(Debug)]
pub struct SetOpGenerator {
    rng: SmallRng,
    key_range: i64,
    update_pct: u32,
}

impl SetOpGenerator {
    /// Stream over keys `[0, key_range)` with the given update percentage,
    /// seeded per thread.
    pub fn new(seed: u64, thread: usize, key_range: i64, update_pct: u32) -> Self {
        assert!(key_range > 0, "key range must be positive");
        assert!(update_pct <= 100, "update percentage is 0..=100");
        SetOpGenerator {
            rng: SmallRng::seed_from_u64(
                seed.wrapping_add(0x51AB_17E5)
                    ^ (thread as u64).wrapping_mul(0xA24B_AED4_963E_E407),
            ),
            key_range,
            update_pct,
        }
    }

    /// Next operation. Updates split evenly between insert and remove
    /// ("randomly selected insertion and deletion ... with equal
    /// probability", §III).
    pub fn next_op(&mut self) -> SetOp {
        let key = self.rng.random_range(0..self.key_range);
        let roll: u32 = self.rng.random_range(0..100);
        let kind = if roll < self.update_pct {
            if self.rng.random_bool(0.5) {
                OpKind::Insert
            } else {
                OpKind::Remove
            }
        } else {
            OpKind::Contains
        };
        SetOp { kind, key }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_map_to_paper_percentages() {
        assert_eq!(ContentionLevel::Low.update_pct(), 20);
        assert_eq!(ContentionLevel::Medium.update_pct(), 60);
        assert_eq!(ContentionLevel::High.update_pct(), 100);
    }

    #[test]
    fn deterministic_per_seed_and_thread() {
        let ops1: Vec<SetOp> = {
            let mut g = SetOpGenerator::new(7, 3, 100, 50);
            (0..64).map(|_| g.next_op()).collect()
        };
        let ops2: Vec<SetOp> = {
            let mut g = SetOpGenerator::new(7, 3, 100, 50);
            (0..64).map(|_| g.next_op()).collect()
        };
        assert_eq!(ops1, ops2);
        let ops3: Vec<SetOp> = {
            let mut g = SetOpGenerator::new(7, 4, 100, 50);
            (0..64).map(|_| g.next_op()).collect()
        };
        assert_ne!(ops1, ops3, "different threads, different streams");
    }

    #[test]
    fn keys_stay_in_range() {
        let mut g = SetOpGenerator::new(1, 0, 10, 100);
        for _ in 0..1000 {
            let op = g.next_op();
            assert!((0..10).contains(&op.key));
        }
    }

    #[test]
    fn update_percentage_respected() {
        let mut g = SetOpGenerator::new(2, 0, 100, 20);
        let n = 10_000;
        let updates = (0..n)
            .filter(|_| g.next_op().kind != OpKind::Contains)
            .count();
        let pct = updates as f64 / n as f64 * 100.0;
        assert!((15.0..25.0).contains(&pct), "got {pct}% updates");
    }

    #[test]
    fn hundred_percent_updates_has_no_reads() {
        let mut g = SetOpGenerator::new(3, 0, 100, 100);
        for _ in 0..1000 {
            assert_ne!(g.next_op().kind, OpKind::Contains);
        }
    }

    #[test]
    fn insert_remove_roughly_balanced() {
        let mut g = SetOpGenerator::new(4, 0, 100, 100);
        let n = 10_000;
        let inserts = (0..n)
            .filter(|_| g.next_op().kind == OpKind::Insert)
            .count();
        let frac = inserts as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "insert fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "key range")]
    fn zero_range_rejected() {
        let _ = SetOpGenerator::new(0, 0, 0, 50);
    }
}
