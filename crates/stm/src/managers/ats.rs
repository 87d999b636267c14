//! ATS — Adaptive Transaction Scheduling (Yoo & Lee, SPAA 2008).
//!
//! The related-work scheduler the paper's *Adaptive-Improved* variant
//! borrows its estimator from (§III-A). Each thread maintains a
//! *contention intensity* EWMA
//! `CI ← α·CI + (1−α)·[aborted]`. While `CI` is below a threshold the
//! thread runs transactions freely (conflicts resolved like Timestamp:
//! older attempt wins). Once `CI` crosses the threshold the thread
//! *serializes*: it acquires a global admission token for the duration of
//! each transaction, so at most one high-contention thread runs at a
//! time and the conflict storm collapses.
//!
//! The token is a spin-with-yield flag rather than a mutex because the
//! hold spans `on_begin → on_commit/on_abort` (a guard cannot live inside
//! `&self` callbacks).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::{ConflictKind, ContentionManager, Resolution, TxState};

/// See module docs.
pub struct Ats {
    /// EWMA weight of the previous CI value.
    alpha: f64,
    /// Serialize when CI exceeds this (Yoo & Lee suggest ~0.5).
    threshold: f64,
    /// Per-thread contention intensity.
    ci: Box<[Mutex<f64>]>,
    /// Which thread currently holds the admission token (sentinel = none).
    token_holder: AtomicUsize,
    /// Whether the committing thread must release the token.
    holding: Box<[AtomicBool]>,
}

const NO_HOLDER: usize = usize::MAX;

impl Ats {
    /// ATS for `num_threads` workers with the canonical parameters.
    pub fn new(num_threads: usize) -> Self {
        Self::with_params(num_threads, 0.75, 0.5)
    }

    /// Custom EWMA weight and serialization threshold.
    pub fn with_params(num_threads: usize, alpha: f64, threshold: f64) -> Self {
        let n = num_threads.max(1);
        Ats {
            alpha,
            threshold,
            ci: (0..n).map(|_| Mutex::new(0.0)).collect(),
            token_holder: AtomicUsize::new(NO_HOLDER),
            holding: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Current contention intensity of a thread (tests/diagnostics).
    pub fn contention_intensity(&self, thread: usize) -> f64 {
        *self.ci[thread % self.ci.len()].lock()
    }

    fn release_if_held(&self, thread: usize) {
        let slot = thread % self.holding.len();
        if self.holding[slot].swap(false, Ordering::AcqRel) {
            self.token_holder.store(NO_HOLDER, Ordering::Release);
        }
    }
}

impl ContentionManager for Ats {
    fn resolve(&self, me: &TxState, enemy: &TxState, _kind: ConflictKind) -> Resolution {
        super::debug_assert_stamped("ATS", me, enemy);
        // Free-running conflicts: older attempt wins (Timestamp rule).
        if (me.attempt_ts, me.attempt_id) < (enemy.attempt_ts, enemy.attempt_id) {
            Resolution::AbortEnemy
        } else {
            Resolution::AbortSelf
        }
    }

    fn on_begin(&self, tx: &std::sync::Arc<TxState>, _is_retry: bool) {
        let slot = tx.thread_id % self.ci.len();
        let serialize = *self.ci[slot].lock() > self.threshold;
        if serialize {
            // Spin-with-yield until we own the admission token.
            loop {
                if self
                    .token_holder
                    .compare_exchange(NO_HOLDER, slot, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.holding[slot].store(true, Ordering::Release);
                    break;
                }
                std::thread::yield_now();
            }
        }
    }

    fn on_commit(&self, tx: &TxState) {
        let slot = tx.thread_id % self.ci.len();
        {
            let mut ci = self.ci[slot].lock();
            *ci *= self.alpha;
        }
        self.release_if_held(tx.thread_id);
    }

    fn on_abort(&self, tx: &TxState) {
        let slot = tx.thread_id % self.ci.len();
        {
            let mut ci = self.ci[slot].lock();
            *ci = self.alpha * *ci + (1.0 - self.alpha);
        }
        self.release_if_held(tx.thread_id);
    }

    fn name(&self) -> &str {
        "ATS"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::managers::testutil::{state, state_on};

    #[test]
    fn ci_rises_on_abort_and_decays_on_commit() {
        let ats = Ats::new(2);
        let tx = state_on(0, 1, 1, 0);
        assert_eq!(ats.contention_intensity(0), 0.0);
        ats.on_abort(&tx);
        let after_abort = ats.contention_intensity(0);
        assert!(after_abort > 0.2);
        ats.on_commit(&tx);
        assert!(ats.contention_intensity(0) < after_abort);
    }

    #[test]
    fn resolve_is_timestamp_ordered() {
        let ats = Ats::new(2);
        let old = state(1, 10);
        let young = state(2, 20);
        assert_eq!(
            ats.resolve(&old, &young, ConflictKind::WriteWrite),
            Resolution::AbortEnemy
        );
        assert_eq!(
            ats.resolve(&young, &old, ConflictKind::WriteWrite),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn low_ci_does_not_serialize() {
        let ats = Ats::new(2);
        let tx = state_on(0, 1, 1, 0);
        ats.on_begin(&std::sync::Arc::clone(&tx), false);
        // Token untouched.
        assert_eq!(ats.token_holder.load(Ordering::Acquire), NO_HOLDER);
        ats.on_commit(&tx);
    }

    #[test]
    fn high_ci_takes_and_releases_token() {
        let ats = Ats::with_params(2, 0.5, 0.1);
        let tx = state_on(0, 1, 1, 0);
        // Pump CI above the threshold.
        for _ in 0..4 {
            ats.on_abort(&tx);
        }
        assert!(ats.contention_intensity(0) > 0.1);
        ats.on_begin(&std::sync::Arc::clone(&tx), true);
        assert_eq!(ats.token_holder.load(Ordering::Acquire), 0);
        ats.on_commit(&tx);
        assert_eq!(ats.token_holder.load(Ordering::Acquire), NO_HOLDER);
    }

    #[test]
    fn end_to_end_under_stm() {
        use crate::{Stm, TVar};
        use std::sync::Arc;
        let ats = Arc::new(Ats::with_params(3, 0.5, 0.05));
        let stm = Stm::new(ats, 3);
        let counter: TVar<u64> = TVar::new(0);
        std::thread::scope(|s| {
            for t in 0..3 {
                let ctx = stm.thread(t);
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        ctx.atomic(|tx| {
                            let v = *tx.read(&counter)?;
                            tx.write(&counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(*counter.sample(), 300);
    }
}
