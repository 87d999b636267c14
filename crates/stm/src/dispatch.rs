//! Monomorphic contention-manager dispatch.
//!
//! Every conflict used to pay a virtual call through
//! `Arc<dyn ContentionManager>`, and so did the per-attempt hooks
//! (`on_begin`, `on_open`, `on_commit`, `on_abort`) — five indirect calls
//! on the hot path even for trivial managers whose verdict is a couple of
//! field comparisons. [`CmDispatch`] replaces the fat pointer with an enum
//! over the built-in managers: the `match` compiles to a jump table and
//! each arm is a direct, inlinable call into the concrete manager.
//! Any other manager — the window managers, an instrumentation wrapper,
//! an out-of-tree policy — rides the [`CmDispatch::Dyn`] arm, which keeps
//! virtual dispatch behind one branch.
//!
//! ## Dispatch table
//!
//! | hook        | overridden by            | everyone else |
//! |-------------|--------------------------|---------------|
//! | `resolve`   | every manager            | —             |
//! | `on_begin`  | `Dyn`                    | no-op         |
//! | `on_open`   | `Dyn`                    | no-op         |
//! | `on_commit` | `Dyn`                    | no-op         |
//! | `on_abort`  | `Dyn`                    | no-op         |
//!
//! `on_open` runs once per object open — the hottest hook of all. No
//! built-in manager implements it, nor `on_begin`, `on_commit` or
//! `on_abort`: for every variant but `Dyn` each compiles down to a
//! two-way branch. They stay on the enum because the managers behind
//! `Dyn` (the window managers, instrumentation wrappers) hook them.
//!
//! The cold query `name` is not dispatched arm by arm: it asks the
//! manager behind the variant through `&dyn ContentionManager`.
//!
//! The built-in variants hold their managers by value: none keeps state
//! across calls (Polka's three fields are configuration), so a `resolve`
//! follows no pointer. A manager with shared state (a window manager)
//! rides `Dyn` behind an `Arc`, so cloning a `CmDispatch` shares it.

use std::sync::Arc;

use crate::cm::{AbortEnemyManager, AbortSelfManager, ConflictKind, ContentionManager, Resolution};
use crate::managers::{Greedy, Polka, Priority};
use crate::txstate::TxState;

/// A contention manager the engine can call without virtual dispatch.
///
/// Built-in managers get their own variant, held by value; anything else
/// rides in [`CmDispatch::Dyn`] at the cost of a virtual call per hook.
#[derive(Clone)]
pub enum CmDispatch {
    /// Always sacrifice the caller ([`AbortSelfManager`], the classic
    /// Timid policy).
    AbortSelf,
    /// Always kill the competitor ([`AbortEnemyManager`], the classic
    /// Aggressive policy).
    AbortEnemy,
    /// Age-ordered, never waits for a waiting enemy.
    Greedy,
    /// Static priority = start time; younger yields.
    Priority,
    /// Karma + exponential backoff (the paper's published-best baseline).
    Polka(Polka),
    /// Any other [`ContentionManager`] (the window managers, wrappers),
    /// dispatched virtually.
    Dyn(Arc<dyn ContentionManager>),
}

impl CmDispatch {
    /// Decide the outcome of a conflict (see
    /// [`ContentionManager::resolve`]).
    #[inline]
    pub fn resolve(&self, me: &TxState, enemy: &TxState, kind: ConflictKind) -> Resolution {
        match self {
            CmDispatch::AbortSelf => Resolution::AbortSelf,
            CmDispatch::AbortEnemy => Resolution::AbortEnemy,
            CmDispatch::Greedy => Greedy.resolve(me, enemy, kind),
            CmDispatch::Priority => Priority.resolve(me, enemy, kind),
            CmDispatch::Polka(m) => m.resolve(me, enemy, kind),
            CmDispatch::Dyn(m) => m.resolve(me, enemy, kind),
        }
    }

    /// A new attempt is starting (see [`ContentionManager::on_begin`]).
    /// Only the `Dyn` fallback hooks this and the three below, so for
    /// every other manager each costs a two-way branch.
    #[inline]
    pub fn on_begin(&self, tx: &Arc<TxState>, is_retry: bool) {
        if let CmDispatch::Dyn(m) = self {
            m.on_begin(tx, is_retry);
        }
    }

    /// An object was opened (see [`ContentionManager::on_open`]).
    #[inline]
    pub fn on_open(&self, tx: &TxState) {
        if let CmDispatch::Dyn(m) = self {
            m.on_open(tx);
        }
    }

    /// The transaction committed (see [`ContentionManager::on_commit`]).
    #[inline]
    pub fn on_commit(&self, tx: &TxState) {
        if let CmDispatch::Dyn(m) = self {
            m.on_commit(tx);
        }
    }

    /// This attempt aborted (see [`ContentionManager::on_abort`]).
    #[inline]
    pub fn on_abort(&self, tx: &TxState) {
        if let CmDispatch::Dyn(m) = self {
            m.on_abort(tx);
        }
    }

    /// The manager behind the arm, for the cold query below.
    fn manager(&self) -> &dyn ContentionManager {
        match self {
            CmDispatch::AbortSelf => &AbortSelfManager,
            CmDispatch::AbortEnemy => &AbortEnemyManager,
            CmDispatch::Greedy => &Greedy,
            CmDispatch::Priority => &Priority,
            CmDispatch::Polka(m) => m,
            CmDispatch::Dyn(m) => &**m,
        }
    }

    /// Human-readable policy name (used in experiment reports).
    pub fn name(&self) -> &str {
        self.manager().name()
    }
}

impl From<Arc<dyn ContentionManager>> for CmDispatch {
    fn from(cm: Arc<dyn ContentionManager>) -> Self {
        CmDispatch::Dyn(cm)
    }
}

impl<M: ContentionManager + 'static> From<Arc<M>> for CmDispatch {
    fn from(cm: Arc<M>) -> Self {
        CmDispatch::Dyn(cm)
    }
}

impl std::fmt::Debug for CmDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CmDispatch({})", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(id: u64, start_ns: u64) -> Arc<TxState> {
        Arc::new(TxState::new(id, id, 0, 0, start_ns, 0))
    }

    #[test]
    fn enum_verdicts_match_trait_verdicts() {
        // The built-in managers must decide identically whether reached
        // through their enum variant or through the Dyn fallback, on a
        // clear-cut case: an old transaction (started at 1 ns) vs a young
        // one (1000 ns).
        let pairs: [(CmDispatch, CmDispatch); 5] = [
            (CmDispatch::Greedy, Arc::new(Greedy).into()),
            (CmDispatch::Priority, Arc::new(Priority).into()),
            (
                CmDispatch::Polka(Polka::default()),
                Arc::new(Polka::default()).into(),
            ),
            (CmDispatch::AbortSelf, Arc::new(AbortSelfManager).into()),
            (CmDispatch::AbortEnemy, Arc::new(AbortEnemyManager).into()),
        ];
        for (dispatch, dynamic) in pairs {
            let name = dispatch.name().to_string();
            assert!(!matches!(dispatch, CmDispatch::Dyn(_)), "{name}");
            assert!(matches!(dynamic, CmDispatch::Dyn(_)), "{name}");
            assert_eq!(name, dynamic.name());
            let old = state(1, 1);
            let young = state(2, 1000);
            let via_enum = dispatch.resolve(&old, &young, ConflictKind::WriteWrite);
            let via_dyn = dynamic.resolve(&old, &young, ConflictKind::WriteWrite);
            assert_eq!(via_enum, via_dyn, "{name}");
        }
    }

    #[test]
    fn trivial_managers_have_fixed_verdicts() {
        let me = state(1, 1);
        let enemy = state(2, 2);
        assert_eq!(
            CmDispatch::AbortSelf.resolve(&me, &enemy, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
        assert_eq!(
            CmDispatch::AbortEnemy.resolve(&me, &enemy, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert_eq!(CmDispatch::AbortSelf.name(), "AbortSelf");
    }

    #[test]
    fn from_conversions() {
        let dynamic: Arc<dyn ContentionManager> = Arc::new(AbortEnemyManager);
        assert!(matches!(CmDispatch::from(dynamic), CmDispatch::Dyn(_)));
        assert!(matches!(
            CmDispatch::from(Arc::new(AbortEnemyManager)),
            CmDispatch::Dyn(_)
        ));
    }
}
