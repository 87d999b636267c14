//! RandomizedRounds (Schneider & Wattenhofer, 2009).
//!
//! Every attempt draws a uniform random rank in `[1, M]` (M = number of
//! threads). On a conflict the lower rank wins and the loser aborts,
//! re-rolling on its retry. Schneider & Wattenhofer prove a transaction
//! with at most `d` neighbours in the conflict graph needs
//! `O(d · log n)` attempts w.h.p., and that Polka/SizeMatters can be
//! exponentially worse in adversarial schedules.
//!
//! This manager doubles as the conflict-resolution subroutine of the
//! paper's window *Online* algorithm (the π₂ component of its priority
//! vector): the window crate reuses the same rank slot on [`TxState`].

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{ConflictKind, ContentionManager, Resolution, TxState};

/// See module docs.
pub struct RandomizedRounds {
    m: u32,
    rngs: Box<[Mutex<SmallRng>]>,
}

impl RandomizedRounds {
    /// Manager for `num_threads` workers with a deterministic seed.
    pub fn new(num_threads: usize) -> Self {
        Self::with_seed(num_threads, 0xDECAF)
    }

    /// Seeded variant for reproducible experiments.
    pub fn with_seed(num_threads: usize, seed: u64) -> Self {
        RandomizedRounds {
            m: num_threads.max(1) as u32,
            rngs: (0..num_threads.max(1))
                .map(|i| {
                    Mutex::new(SmallRng::seed_from_u64(
                        seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    ))
                })
                .collect(),
        }
    }

    fn roll(&self, thread_id: usize) -> u32 {
        let slot = thread_id % self.rngs.len();
        self.rngs[slot].lock().random_range(1..=self.m)
    }
}

impl ContentionManager for RandomizedRounds {
    fn resolve(&self, me: &TxState, enemy: &TxState, _kind: ConflictKind) -> Resolution {
        if (me.rank(), me.attempt_id) < (enemy.rank(), enemy.attempt_id) {
            Resolution::AbortEnemy
        } else {
            Resolution::AbortSelf
        }
    }

    fn on_begin(&self, tx: &std::sync::Arc<TxState>, _is_retry: bool) {
        tx.set_rank(self.roll(tx.thread_id));
    }

    /// Priority is the rolled rank, not a timestamp.
    fn uses_timestamps(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "RandomizedRounds"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::testutil::{state, state_on};

    #[test]
    fn lower_rank_wins() {
        let cm = RandomizedRounds::new(4);
        let a = state(1, 1);
        let b = state(2, 2);
        a.set_rank(1);
        b.set_rank(3);
        assert_eq!(
            cm.resolve(&a, &b, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert_eq!(
            cm.resolve(&b, &a, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn ties_broken_by_attempt_id() {
        let cm = RandomizedRounds::new(4);
        let a = state(1, 1);
        let b = state(2, 2);
        a.set_rank(2);
        b.set_rank(2);
        assert_eq!(
            cm.resolve(&a, &b, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert_eq!(
            cm.resolve(&b, &a, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn on_begin_rolls_rank_in_range() {
        let m = 8;
        let cm = RandomizedRounds::new(m);
        for t in 0..m {
            let tx = state_on(t, t as u64 + 1, 1, 0);
            cm.on_begin(&tx, false);
            let r = tx.rank();
            assert!((1..=m as u32).contains(&r), "rank {r} out of [1, {m}]");
        }
    }

    #[test]
    fn ranks_are_not_constant() {
        let cm = RandomizedRounds::new(16);
        let tx = state(1, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            cm.on_begin(&tx, true);
            seen.insert(tx.rank());
        }
        assert!(seen.len() > 3, "expected varied ranks, got {seen:?}");
    }
}
