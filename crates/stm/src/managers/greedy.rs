//! The Greedy contention manager (Guerraoui, Herlihy & Pochon, PODC 2005).
//!
//! The first manager with a provable competitive ratio (O(s²), later
//! improved to O(s) by Attiya et al.). Rules, with a transaction's age its
//! [`TxState::age_key`]: the *first* attempt's start stamp, kept across
//! retries, ties broken by `txn_id`:
//!
//! 1. If I am **older** than the enemy (smaller key), abort the enemy.
//! 2. If I am younger and the enemy is **waiting** (blocked in its own
//!    contention-manager wait), abort the enemy — a waiting transaction
//!    cannot be making progress on this object.
//! 3. Otherwise wait until the enemy commits, aborts, or starts waiting.
//!
//! The *pending-commit* property follows: at any time the transaction with
//! the smallest key among live ones runs unobstructed — so some useful
//! work always completes. The argument needs only a total order fixed at
//! the first attempt that every thread reads alike, which the key is: both
//! parties' keys sit in their records. Cross-core clock skew can only swap
//! transactions that started within the skew (tens of ns) of each other,
//! and neither this argument nor starvation freedom depends on their order.
//!
//! Waiting cannot deadlock: only younger transactions wait, so any wait
//! chain strictly decreases in age and the oldest never waits.

use crate::sync::wait_until;
use crate::{ConflictKind, ContentionManager, Resolution, TxState};

/// Upper bound on one blocking episode inside `resolve`; the engine
/// re-detects the conflict and re-enters, so this only bounds the latency
/// of noticing an enemy state change, not total waiting.
const WAIT_SLICE: std::time::Duration = std::time::Duration::from_millis(2);

/// See module docs.
#[derive(Debug, Default)]
pub struct Greedy;

impl ContentionManager for Greedy {
    fn resolve(&self, me: &TxState, enemy: &TxState, _kind: ConflictKind) -> Resolution {
        let i_am_older = me.age_key() < enemy.age_key();
        if i_am_older || enemy.is_waiting() {
            return Resolution::AbortEnemy;
        }
        // Younger vs. an active, running enemy: wait.
        me.set_waiting(true);
        wait_until(WAIT_SLICE, || !enemy.is_active() || enemy.is_waiting());
        me.set_waiting(false);
        Resolution::Retry
    }

    fn name(&self) -> &str {
        "Greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::testutil::state;

    #[test]
    fn older_aborts_younger() {
        let old = state(1, 10);
        let young = state(2, 20);
        assert_eq!(
            Greedy.resolve(&old, &young, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
    }

    #[test]
    fn younger_aborts_waiting_older() {
        let old = state(1, 10);
        let young = state(2, 20);
        old.set_waiting(true);
        assert_eq!(
            Greedy.resolve(&young, &old, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
    }

    #[test]
    fn younger_waits_for_running_older() {
        let old = state(1, 10);
        let young = state(2, 20);
        let t0 = std::time::Instant::now();
        let res = Greedy.resolve(&young, &old, ConflictKind::WriteWrite);
        assert_eq!(res, Resolution::Retry);
        // It actually waited (the enemy never changed state).
        assert!(t0.elapsed() >= WAIT_SLICE);
        // And cleared its waiting flag on exit.
        assert!(!young.is_waiting());
    }

    #[test]
    fn wait_returns_early_when_enemy_finishes() {
        let old = state(1, 10);
        let young = state(2, 20);
        old.try_commit();
        let t0 = std::time::Instant::now();
        let res = Greedy.resolve(&young, &old, ConflictKind::ReadWrite);
        assert_eq!(res, Resolution::Retry);
        assert!(t0.elapsed() < WAIT_SLICE);
    }

    #[test]
    fn timestamp_tie_broken_by_txn_id() {
        let a = state(1, 10);
        let b = state(2, 10);
        assert_eq!(
            Greedy.resolve(&a, &b, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
    }
}
