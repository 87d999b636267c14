//! Timestamp (Scherer & Scott's policy family).
//!
//! Orders transactions by the timestamp of the *current attempt* (unlike
//! Greedy/Priority, a retry loses its seniority). The older attempt
//! attacks; the younger waits a bounded number of slices for the enemy to
//! finish and then sacrifices itself. Because seniority resets on retry,
//! long-running transactions are not protected — the weakness that
//! motivated Greedy's stable timestamps.

use std::time::Duration;

use crate::sync::wait_until;
use crate::{ConflictKind, ContentionManager, Resolution, TxState};

/// See module docs.
#[derive(Debug)]
pub struct Timestamp {
    /// How long the younger side waits before yielding.
    patience: Duration,
}

impl Default for Timestamp {
    fn default() -> Self {
        Timestamp {
            patience: Duration::from_micros(100),
        }
    }
}

impl Timestamp {
    /// Custom patience for the younger side.
    pub fn with_patience(patience: Duration) -> Self {
        Timestamp { patience }
    }
}

impl ContentionManager for Timestamp {
    fn resolve(&self, me: &TxState, enemy: &TxState, _kind: ConflictKind) -> Resolution {
        super::debug_assert_stamped("Timestamp", me, enemy);
        if (me.attempt_ts, me.attempt_id) < (enemy.attempt_ts, enemy.attempt_id) {
            return Resolution::AbortEnemy;
        }
        me.set_waiting(true);
        let enemy_done = wait_until(self.patience, || !enemy.is_active());
        me.set_waiting(false);
        if enemy_done {
            Resolution::Retry
        } else {
            Resolution::AbortSelf
        }
    }

    fn name(&self) -> &str {
        "Timestamp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::testutil::state;

    #[test]
    fn older_attempt_attacks() {
        let old = state(1, 10);
        let young = state(2, 20);
        assert_eq!(
            Timestamp::default().resolve(&old, &young, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
    }

    #[test]
    fn younger_yields_after_patience() {
        let old = state(1, 10);
        let young = state(2, 20);
        let cm = Timestamp::with_patience(Duration::from_micros(50));
        assert_eq!(
            cm.resolve(&young, &old, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn younger_retries_if_enemy_finishes() {
        let old = state(1, 10);
        let young = state(2, 20);
        old.abort();
        let cm = Timestamp::with_patience(Duration::from_millis(10));
        let t0 = std::time::Instant::now();
        assert_eq!(
            cm.resolve(&young, &old, ConflictKind::WriteWrite),
            Resolution::Retry
        );
        assert!(t0.elapsed() < Duration::from_millis(10));
    }
}
