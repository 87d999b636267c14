//! Classic STM contention managers.
//!
//! The comparison baselines of the paper (§III-A):
//!
//! * [`Polka`] — the "published best" manager the paper compares against:
//!   Karma priorities combined with exponential backoff
//!   (Scherer & Scott, PODC 2005).
//! * [`Greedy`] — the first manager with provable properties: decides by
//!   static timestamps, never waits for a waiting enemy
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
//! share across every worker thread of one [`crate::Stm`]. Each answers
//! for its own `uses_timestamps`. Names map to constructors in one table,
//! the harness's `managers` module, beside the window variants.

pub mod greedy;
pub mod polka;
pub mod priority;

pub use greedy::Greedy;
pub use polka::Polka;
pub use priority::Priority;

/// Debug check of the managers that order by logical timestamp (Greedy,
/// Priority): the engine stamps attempts only where
/// [`ContentionManager::uses_timestamps`](crate::ContentionManager::uses_timestamps)
/// says so, and ordering the all-zero "no timestamp" would silently
/// degrade to ordering by id.
#[inline]
fn debug_assert_stamped(manager: &str, me: &crate::TxState, enemy: &crate::TxState) {
    debug_assert!(
        me.ts != 0 && enemy.ts != 0,
        "{manager} orders by timestamp but a party has none (uses_timestamps() answered false?)"
    );
}

#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;

    use crate::{clockns, TxState};

    /// Build a transaction state with the given ids and timestamp.
    pub fn state(attempt_id: u64, ts: u64) -> Arc<TxState> {
        Arc::new(TxState::new(
            attempt_id,
            attempt_id,
            0,
            0,
            ts,
            clockns::now(),
            0,
        ))
    }

    /// Build a state on a specific thread with a retry count.
    pub fn state_on(thread: usize, attempt_id: u64, ts: u64, attempt: u32) -> Arc<TxState> {
        Arc::new(TxState::new(
            attempt_id,
            attempt_id,
            thread,
            attempt,
            ts,
            clockns::now(),
            0,
        ))
    }
}
