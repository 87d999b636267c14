//! Property tests over the contention-manager decision tables.
//!
//! For the *non-waiting* managers the decision must be a total,
//! antisymmetric relation: in any conflict exactly one side yields, no
//! matter which side asks first — otherwise two symmetric `resolve`
//! calls could kill both transactions (progress loss) or neither
//! (livelock by construction).
//!
//! Greedy and Priority order by age, the key `(first_start_ns, txn_id)`.
//! The last property checks which deciders read it: AbortSelf's and
//! AbortEnemy's verdicts must not move with the start stamps, and
//! Priority's must flip when the two stamps swap (so the check can tell a
//! reader from a non-reader).

use std::sync::Arc;

use proptest::prelude::*;

use wtm_stm::managers::Priority;
use wtm_stm::{CmDispatch, ConflictKind, ContentionManager, Resolution, TxState};

fn state(attempt_id: u64, txn_id: u64, thread: usize, start_ns: u64, attempt: u32) -> Arc<TxState> {
    Arc::new(TxState::new(
        attempt_id, txn_id, thread, attempt, start_ns, 0,
    ))
}

/// The deciders whose `resolve` answers without (practically) waiting,
/// as the engine dispatches them. A new non-waiting manager belongs here.
fn deciders() -> Vec<CmDispatch> {
    vec![
        CmDispatch::AbortSelf,
        CmDispatch::AbortEnemy,
        CmDispatch::Priority,
    ]
}

/// Two conflicting parties that differ between calls only in their
/// `first_start_ns` stamps: ids, threads, karma and status fixed.
fn stamped_pair(stamps: [u64; 2], karma: [u64; 2]) -> [Arc<TxState>; 2] {
    [0, 1].map(|i| {
        let id = i as u64 + 1;
        Arc::new(TxState::new(id, id, i, 0, stamps[i], karma[i]))
    })
}

fn kinds() -> [ConflictKind; 3] {
    [
        ConflictKind::WriteWrite,
        ConflictKind::ReadWrite,
        ConflictKind::WriteRead,
    ]
}

/// One side must attack and the mirrored call must self-abort (or vice
/// versa) — never both attack, never both yield.
fn assert_antisymmetric(cm: &dyn ContentionManager, a: &TxState, b: &TxState) {
    for kind in kinds() {
        let ab = cm.resolve(a, b, kind);
        let ba = cm.resolve(b, a, kind);
        match (ab, ba) {
            (Resolution::AbortEnemy, Resolution::AbortSelf)
            | (Resolution::AbortSelf, Resolution::AbortEnemy) => {}
            other => panic!(
                "{}: non-antisymmetric decision {:?} for {kind:?}",
                cm.name(),
                other
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn priority_is_antisymmetric(
        ts_a in 1u64..1000, ts_b in 1u64..1000,
        att_a in 0u32..5, att_b in 0u32..5,
    ) {
        let a = state(1, 1, 0, ts_a, att_a);
        let b = state(2, 2, 1, ts_b, att_b);
        assert_antisymmetric(&Priority, &a, &b);
    }

    #[test]
    fn priority_decision_is_stable_across_kinds(
        ts_a in 1u64..1000, ts_b in 1u64..1000,
    ) {
        // Priority ignores the conflict kind: the same pair must resolve
        // the same way for all three kinds.
        let a = state(1, 1, 0, ts_a, 0);
        let b = state(2, 2, 1, ts_b, 0);
        let first = Priority.resolve(&a, &b, ConflictKind::WriteWrite);
        for kind in kinds() {
            prop_assert_eq!(Priority.resolve(&a, &b, kind), first);
        }
    }

    #[test]
    fn only_priority_verdicts_move_with_the_start_stamps(
        s in (1u64..1000, 1u64..1000),
        s2 in (1u64..1000, 1u64..1000),
        karma in (0u64..64, 0u64..64),
    ) {
        let (x, y, x2, y2) = (s.0, s.1, s2.0, s2.1);
        let karma = [karma.0, karma.1];
        let verdict = |cm: &CmDispatch, stamps, kind| {
            let [me, enemy] = stamped_pair(stamps, karma);
            cm.resolve(&me, &enemy, kind)
        };
        for cm in deciders() {
            let orders_by_age = match cm {
                CmDispatch::Priority => true,
                CmDispatch::AbortSelf | CmDispatch::AbortEnemy => false,
                _ => panic!("{}: say whether it orders by age", cm.name()),
            };
            for kind in kinds() {
                if !orders_by_age {
                    // Any two stampings, same verdict.
                    prop_assert_eq!(
                        verdict(&cm, [x, y], kind),
                        verdict(&cm, [x2, y2], kind),
                        "{}'s verdict moved with the start stamps", cm.name()
                    );
                } else if x != y {
                    // It attacks from exactly one side of a swap of the
                    // two stamps.
                    prop_assert_ne!(
                        verdict(&cm, [x, y], kind) == Resolution::AbortEnemy,
                        verdict(&cm, [y, x], kind) == Resolution::AbortEnemy,
                        "{} must order by age", cm.name()
                    );
                }
            }
        }
    }
}
