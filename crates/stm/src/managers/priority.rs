//! The simple static-priority manager of the paper (§III-A).
//!
//! "Priority is a static priority-based manager, where the priority of a
//! transaction is its start time, that aborts lower priority transactions
//! during conflicts." Like Greedy the priority is the first attempt's
//! start stamp ([`TxState::age_key`]), but there is no waiting rule at
//! all: whichever side of the conflict is younger dies immediately.
//! Starvation-free for the oldest transaction but wasteful — young
//! transactions repeatedly sacrifice themselves, which is exactly the
//! behaviour the paper's Fig. 4 shows as a high aborts-per-commit ratio.

use crate::{ConflictKind, ContentionManager, Resolution, TxState};

/// See module docs.
#[derive(Debug, Default)]
pub struct Priority;

impl ContentionManager for Priority {
    fn resolve(&self, me: &TxState, enemy: &TxState, _kind: ConflictKind) -> Resolution {
        if me.age_key() < enemy.age_key() {
            Resolution::AbortEnemy
        } else {
            Resolution::AbortSelf
        }
    }

    fn name(&self) -> &str {
        "Priority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::testutil::state;

    #[test]
    fn older_wins_younger_dies() {
        let old = state(1, 5);
        let young = state(2, 9);
        assert_eq!(
            Priority.resolve(&old, &young, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert_eq!(
            Priority.resolve(&young, &old, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn decision_is_antisymmetric_for_all_kinds() {
        let a = state(1, 5);
        let b = state(2, 9);
        for kind in [
            ConflictKind::WriteWrite,
            ConflictKind::ReadWrite,
            ConflictKind::WriteRead,
        ] {
            let ab = Priority.resolve(&a, &b, kind);
            let ba = Priority.resolve(&b, &a, kind);
            assert_ne!(ab, ba, "exactly one side must yield");
        }
    }

    #[test]
    fn priority_survives_retries() {
        // A retry keeps its first attempt's start stamp, so an old
        // transaction's retry still beats a younger first attempt.
        let old_retry = crate::managers::testutil::state_on(0, 3, 5, 4);
        let young = state(2, 9);
        assert_eq!(
            Priority.resolve(&old_retry, &young, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
    }
}
