//! Contention management interface.
//!
//! In an eager-conflict-management STM the engine calls the contention
//! manager the instant a transaction discovers a conflict (DSTM2's design,
//! which the paper's evaluation relies on). The manager inspects the two
//! parties and decides who yields. It may also *wait* — sleeping or
//! spinning inside [`ContentionManager::resolve`] — before deciding, which
//! is how Polka's back-off and Greedy's wait for a running enemy are
//! expressed.
//!
//! The engine guarantees:
//!
//! * `resolve` is called **outside** all object locks, so a manager may
//!   block without deadlocking the engine;
//! * `me` is the calling (active) transaction and `enemy` was active when
//!   the conflict was observed — but may have committed or aborted since,
//!   which is why managers should re-check `enemy.status()` in wait loops
//!   and return [`Resolution::Retry`] when the enemy is gone;
//! * after `AbortEnemy`, the engine performs the abort CAS itself; the
//!   manager must not abort anybody directly.

use std::sync::Arc;

use crate::txstate::TxState;

/// What kind of access collision was discovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictKind {
    /// `me` wants to write an object currently written by `enemy`.
    WriteWrite,
    /// `me` wants to read an object currently written by `enemy`.
    ReadWrite,
    /// `me` wants to write an object currently read by `enemy`
    /// (visible-reads configuration).
    WriteRead,
}

/// The contention manager's verdict for one conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Kill the enemy transaction and proceed.
    AbortEnemy,
    /// Kill the calling transaction (it will retry from scratch).
    AbortSelf,
    /// Re-examine the object: the enemy may have finished, or the manager
    /// waited and wants the engine to re-detect the conflict.
    Retry,
}

impl ConflictKind {
    /// Every kind, in discriminant order: a trace word holds `kind as u64`.
    pub const ALL: [ConflictKind; 3] = [
        ConflictKind::WriteWrite,
        ConflictKind::ReadWrite,
        ConflictKind::WriteRead,
    ];

    /// Short name (`"WW"`, `"RW"`, `"WR"`), as the trace export prints it.
    pub fn name(self) -> &'static str {
        match self {
            ConflictKind::WriteWrite => "WW",
            ConflictKind::ReadWrite => "RW",
            ConflictKind::WriteRead => "WR",
        }
    }
}

impl Resolution {
    /// Every verdict, in discriminant order: a trace word holds
    /// `verdict as u64`.
    pub const ALL: [Resolution; 3] = [
        Resolution::AbortEnemy,
        Resolution::AbortSelf,
        Resolution::Retry,
    ];

    /// Short name (`"abort-enemy"`, `"abort-self"`, `"retry"`), as the
    /// trace export prints it.
    pub fn name(self) -> &'static str {
        match self {
            Resolution::AbortEnemy => "abort-enemy",
            Resolution::AbortSelf => "abort-self",
            Resolution::Retry => "retry",
        }
    }
}

/// A pluggable conflict-resolution policy.
///
/// One instance is shared by every thread of an [`crate::Stm`]; managers
/// keep per-thread state internally (indexed by `TxState::thread_id`) when
/// they need it.
pub trait ContentionManager: Send + Sync {
    /// Decide the outcome of a conflict between `me` (the caller, active)
    /// and `enemy`. May block/backoff internally before answering.
    fn resolve(&self, me: &TxState, enemy: &TxState, kind: ConflictKind) -> Resolution;

    /// A new attempt is starting. `is_retry` is false for the first attempt
    /// of a logical transaction.
    fn on_begin(&self, _tx: &Arc<TxState>, _is_retry: bool) {}

    /// The transaction successfully opened an object (read or write).
    fn on_open(&self, _tx: &TxState) {}

    /// The transaction committed.
    fn on_commit(&self, _tx: &TxState) {}

    /// This attempt aborted (self- or enemy-initiated).
    fn on_abort(&self, _tx: &TxState) {}

    /// Human-readable policy name (used in experiment reports).
    fn name(&self) -> &str;
}

/// Trivial manager that always sacrifices the caller. Equivalent to the
/// classic *Timid* policy; mainly useful in tests — it is livelock-prone
/// under symmetric contention but can never kill a competitor.
#[derive(Debug, Default)]
pub struct AbortSelfManager;

impl ContentionManager for AbortSelfManager {
    fn resolve(&self, _me: &TxState, _enemy: &TxState, _kind: ConflictKind) -> Resolution {
        Resolution::AbortSelf
    }

    fn name(&self) -> &str {
        "AbortSelf"
    }
}

/// Trivial manager that always kills the competitor. Equivalent to the
/// classic *Aggressive* policy.
#[derive(Debug, Default)]
pub struct AbortEnemyManager;

impl ContentionManager for AbortEnemyManager {
    fn resolve(&self, _me: &TxState, _enemy: &TxState, _kind: ConflictKind) -> Resolution {
        Resolution::AbortEnemy
    }

    fn name(&self) -> &str {
        "AbortEnemy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockns;

    fn state(id: u64) -> TxState {
        TxState::new(id, id, 0, 0, clockns::now(), 0)
    }

    #[test]
    fn abort_self_manager_always_self() {
        let cm = AbortSelfManager;
        let a = state(1);
        let b = state(2);
        for kind in [
            ConflictKind::WriteWrite,
            ConflictKind::ReadWrite,
            ConflictKind::WriteRead,
        ] {
            assert_eq!(cm.resolve(&a, &b, kind), Resolution::AbortSelf);
        }
        assert_eq!(cm.name(), "AbortSelf");
    }

    #[test]
    fn abort_enemy_manager_always_enemy() {
        let cm = AbortEnemyManager;
        let a = state(1);
        let b = state(2);
        for kind in [
            ConflictKind::WriteWrite,
            ConflictKind::ReadWrite,
            ConflictKind::WriteRead,
        ] {
            assert_eq!(cm.resolve(&a, &b, kind), Resolution::AbortEnemy);
        }
        assert_eq!(cm.name(), "AbortEnemy");
    }
}
