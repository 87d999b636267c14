//! Global logical clock.
//!
//! Contention managers such as Greedy and Priority order transactions by
//! *age*. Wall-clock timestamps are not monotone across threads and too
//! coarse to break ties, so the engine hands out strictly increasing logical
//! timestamps from a single shared counter: one `fetch_add` per transaction,
//! not per attempt — Greedy requires the timestamp to survive retries, so
//! a retry keeps its transaction's timestamp and draws nothing.
//!
//! ## Who pays the `fetch_add`
//!
//! The counter is one cache line every worker writes, so the `fetch_add`
//! is a cross-core line transfer per transaction — on a ~0.3 µs
//! transaction it is one of the few things two threads still synchronise
//! on (EXPERIMENTS.md, O-series). Only a manager whose verdict *reads* a
//! timestamp pays it: [`ContentionManager::uses_timestamps`] is read once
//! when the engine is built, and where it is `false` every attempt gets
//! `ts = 0`, the "no timestamp" value, without touching the clock.
//! Greedy and Priority must pay: their pending-commit and
//! starvation-freedom arguments need a *total* order on live transactions
//! that is fixed at the first attempt and agreed on by every thread, which
//! thread-local counters or the coarse nanosecond clock cannot give.
//! Out-of-tree managers behind [`CmDispatch::Dyn`] default to `true`
//! (conservative).
//!
//! [`ContentionManager::uses_timestamps`]: crate::ContentionManager::uses_timestamps
//! [`CmDispatch::Dyn`]: crate::CmDispatch::Dyn

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotone counter handing out unique logical timestamps.
#[derive(Debug, Default)]
pub struct LogicalClock(AtomicU64);

impl LogicalClock {
    /// A clock starting at 1 (0 is reserved as "no timestamp").
    pub fn new() -> Self {
        LogicalClock(AtomicU64::new(1))
    }

    /// Next unique timestamp. Strictly increasing across all threads.
    #[inline]
    pub fn next(&self) -> u64 {
        #[cfg(debug_assertions)]
        crate::probe::count_logical_clock_rmw();
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value without advancing (diagnostics only).
    #[inline]
    pub fn peek(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn strictly_increasing_single_thread() {
        let c = LogicalClock::new();
        let a = c.next();
        let b = c.next();
        assert!(b > a);
        assert_eq!(a, 1);
    }

    #[test]
    fn unique_across_threads() {
        let c = Arc::new(LogicalClock::new());
        let per_thread = 2_000;
        let all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    s.spawn(move || (0..per_thread).map(|_| c.next()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let set: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), 4 * per_thread, "timestamps must be unique");
    }

    #[test]
    fn peek_does_not_advance() {
        let c = LogicalClock::new();
        let p1 = c.peek();
        let p2 = c.peek();
        assert_eq!(p1, p2);
        c.next();
        assert!(c.peek() > p1);
    }
}
