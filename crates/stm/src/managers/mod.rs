//! Classic STM contention managers.
//!
//! The comparison baselines of the paper (§III-A):
//!
//! * [`Polka`] — the "published best" manager the paper compares against:
//!   Karma priorities combined with exponential backoff
//!   (Scherer & Scott, PODC 2005).
//! * [`Greedy`] — the first manager with provable properties: decides by
//!   age, never waits for a waiting enemy
//!   (Guerraoui, Herlihy & Pochon, PODC 2005).
//! * [`Priority`] — the simple static-priority manager of the paper:
//!   priority is the start time; the younger transaction yields.
//!
//! The managers live *inside* `wtm-stm` so the engine can dispatch to
//! them through the monomorphic
//! [`CmDispatch`](crate::dispatch::CmDispatch) enum instead of a virtual
//! call per conflict — see `crate::dispatch` for the dispatch table.
//!
//! All managers implement [`crate::ContentionManager`] and are safe to
//! share across every worker thread of one [`crate::Stm`]. Greedy and
//! Priority order by [`TxState::age_key`](crate::TxState::age_key), the
//! first attempt's start stamp with `txn_id` breaking ties: the engine
//! stamps it once per transaction for its metrics anyway, so age costs no
//! shared write. Names map to constructors in one table, the harness's
//! `managers` module, beside the window variants.

pub mod greedy;
pub mod polka;
pub mod priority;

pub use greedy::Greedy;
pub use polka::Polka;
pub use priority::Priority;

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;

    use crate::TxState;

    /// Build a transaction state with the given ids, first started at
    /// `start_ns`.
    pub fn state(attempt_id: u64, start_ns: u64) -> Arc<TxState> {
        state_on(0, attempt_id, start_ns, 0)
    }

    /// Build a state on a specific thread with a retry count.
    pub fn state_on(thread: usize, attempt_id: u64, start_ns: u64, attempt: u32) -> Arc<TxState> {
        Arc::new(TxState::new(
            attempt_id, attempt_id, thread, attempt, start_ns, 0,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::state;
    use crate::{CmDispatch, ConflictKind, Resolution};

    #[test]
    fn the_earlier_start_wins_and_the_smaller_txn_id_breaks_a_tie() {
        // Started at 10 ns with the larger id vs. started at 20 ns; then
        // two transactions stamped alike, told apart by `txn_id` alone.
        let pairs = [(state(9, 10), state(2, 20)), (state(3, 30), state(4, 30))];
        for cm in [CmDispatch::Greedy, CmDispatch::Priority] {
            for (older, younger) in &pairs {
                let kind = ConflictKind::WriteWrite;
                assert_eq!(
                    cm.resolve(older, younger, kind),
                    Resolution::AbortEnemy,
                    "{}: the older attacks",
                    cm.name()
                );
                // Priority yields at once, Greedy waits out its slice for
                // the running older one.
                assert_ne!(
                    cm.resolve(younger, older, kind),
                    Resolution::AbortEnemy,
                    "{}: the younger never attacks a running older one",
                    cm.name()
                );
            }
        }
    }
}
