//! Polka (Scherer & Scott, PODC 2005) — the paper's "published best"
//! baseline.
//!
//! Polka marries **Karma**'s priority accumulation with **Polite**'s
//! exponential backoff. A transaction's priority is the number of objects
//! it has opened, *accumulated across retries* (work invested). On a
//! conflict the attacker computes the priority gap `Δ = enemy − me`:
//!
//! * `Δ ≤ 0` — the attacker has invested at least as much work: abort the
//!   enemy at once.
//! * `Δ > 0` — give the enemy `Δ` exponentially growing intervals to
//!   finish, returning as soon as it does (or the waiter itself is
//!   aborted); if it is still active after them, abort it anyway.
//!
//! Polka has no provable worst-case guarantee (the paper stresses this)
//! but excellent empirical behaviour: victims that have done a lot of work
//! get time to finish, and deadlocked/parked enemies are eventually killed.

use std::time::Duration;

use crate::sync::wait_until;
use crate::{ConflictKind, ContentionManager, Resolution, TxState};

/// Polka contention manager, built with [`Polka::default`].
#[derive(Debug, Clone)]
pub struct Polka {
    /// First backoff interval.
    base: Duration,
    /// Cap on a single backoff interval.
    max_interval: Duration,
    /// Cap on the number of backoff rounds (bounds the Δ loop so a huge
    /// karma gap cannot stall the attacker for seconds).
    max_rounds: u64,
}

impl Default for Polka {
    fn default() -> Self {
        Polka {
            base: Duration::from_micros(2),
            max_interval: Duration::from_micros(256),
            max_rounds: 16,
        }
    }
}

impl ContentionManager for Polka {
    fn resolve(&self, me: &TxState, enemy: &TxState, _kind: ConflictKind) -> Resolution {
        let gap = enemy.karma().saturating_sub(me.karma());
        if gap == 0 {
            return Resolution::AbortEnemy;
        }
        // Δ doubling rounds of one predicate are one budgeted wait; it fires
        // when the enemy finishes or someone killed us while polite: retry.
        let (budget, _) = (0..gap.min(self.max_rounds))
            .fold((Duration::ZERO, self.base), |(total, interval), _| {
                (total + interval, (interval * 2).min(self.max_interval))
            });
        me.set_waiting(true);
        let over = wait_until(budget, || !enemy.is_active() || !me.is_active());
        me.set_waiting(false);
        if over {
            Resolution::Retry
        } else {
            Resolution::AbortEnemy
        }
    }

    fn name(&self) -> &str {
        "Polka"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::testutil::state;
    use std::time::Instant;

    #[test]
    fn equal_or_higher_karma_attacks_immediately() {
        let me = state(1, 1);
        let enemy = state(2, 2);
        // Both karma 0.
        let t0 = Instant::now();
        assert_eq!(
            Polka::default().resolve(&me, &enemy, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert!(t0.elapsed() < Duration::from_millis(1));

        // Me richer than enemy.
        me.add_karma();
        me.add_karma();
        enemy.add_karma();
        assert_eq!(
            Polka::default().resolve(&me, &enemy, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
    }

    #[test]
    fn poorer_attacker_waits_then_attacks() {
        let me = state(1, 1);
        let enemy = state(2, 2);
        for _ in 0..3 {
            enemy.add_karma();
        }
        let cm = Polka {
            base: Duration::from_micros(50),
            max_interval: Duration::from_micros(100),
            max_rounds: 16,
        };
        let t0 = Instant::now();
        let res = cm.resolve(&me, &enemy, ConflictKind::WriteWrite);
        assert_eq!(res, Resolution::AbortEnemy);
        // 3 rounds: 50 + 100 + 100 µs minimum.
        assert!(t0.elapsed() >= Duration::from_micros(250));
        assert!(!me.is_waiting());
    }

    #[test]
    fn wait_cut_short_when_enemy_finishes() {
        let me = state(1, 1);
        let enemy = state(2, 2);
        for _ in 0..10 {
            enemy.add_karma();
        }
        enemy.try_commit();
        let cm = Polka::default();
        let res = cm.resolve(&me, &enemy, ConflictKind::ReadWrite);
        assert_eq!(res, Resolution::Retry);
    }

    /// `me` is 10 karma poorer, so Polka grants the enemy four 50 ms rounds;
    /// `finish` runs on another thread 1 ms into the wait.
    fn resolve_while(finish: impl FnOnce(&TxState, &TxState) + Send) -> (Resolution, Duration) {
        let me = state(1, 1);
        let enemy = state(2, 2);
        (0..10).for_each(|_| enemy.add_karma());
        let cm = Polka {
            base: Duration::from_millis(50),
            max_interval: Duration::from_millis(50),
            max_rounds: 4,
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(wait_until(Duration::from_secs(30), || me.is_waiting()));
                wait_until(Duration::from_millis(1), || false);
                finish(&me, &enemy);
            });
            let t0 = Instant::now();
            let res = cm.resolve(&me, &enemy, ConflictKind::WriteWrite);
            assert!(!me.is_waiting());
            (res, t0.elapsed())
        })
    }

    #[test]
    fn wait_ends_when_the_enemy_commits() {
        let (res, took) = resolve_while(|_, enemy| assert!(enemy.try_commit()));
        assert_eq!(res, Resolution::Retry);
        // A round that slept out its interval would take ≥ 50 ms.
        assert!(took < Duration::from_millis(50), "waited {took:?}");
    }

    #[test]
    fn wait_ends_when_the_waiter_is_aborted() {
        let (res, took) = resolve_while(|me, _| assert!(me.abort()));
        assert_eq!(res, Resolution::Retry);
        assert!(took < Duration::from_millis(50), "waited {took:?}");
    }

    #[test]
    fn rounds_are_capped() {
        let me = state(1, 1);
        let enemy = state(2, 2);
        for _ in 0..1_000 {
            enemy.add_karma();
        }
        let cm = Polka {
            base: Duration::from_micros(10),
            max_interval: Duration::from_micros(10),
            max_rounds: 4,
        };
        let t0 = Instant::now();
        assert_eq!(
            cm.resolve(&me, &enemy, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        // 4 rounds × 10 µs, with generous slack for scheduling noise.
        assert!(t0.elapsed() < Duration::from_millis(50));
    }
}
