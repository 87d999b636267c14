//! Cooperative waiting helpers and a cancellable barrier.
//!
//! Contention managers back off by *waiting*, but on an oversubscribed
//! machine (the paper ran 32 threads on 4 cores; this reproduction may run
//! on fewer) a spinning waiter steals cycles from the very enemy it is
//! waiting for. A manager's wait therefore polls its enemy through
//! [`wait_until`], yielding the CPU after every poll, and ends the moment
//! the enemy's status does; no manager sleeps out a fixed interval.
//!
//! [`CancellableBarrier`] synchronizes the start of each execution window.
//! Unlike `std::sync::Barrier` it polls before it parks (the only waiter
//! here that parks), and it can be *cancelled* so timed runs terminate
//! while threads wait at a boundary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// An `f64` stored as its bit pattern in an [`AtomicU64`].
///
/// The window contention manager keeps per-thread floating-point
/// estimators (the contention-intensity EWMA, the contention estimate
/// `Cᵢ`) that are *written by one owner thread* but *read by anyone*
/// (diagnostics, window-boundary recalculation from another generation's
/// creator). A mutex would serialize the abort hot path for what is a
/// single word of data; this cell makes those updates wait-free.
///
/// There is deliberately no `fetch_add`/CAS loop: the single-writer
/// protocol means plain `load`/`store` pairs are race-free for the owner,
/// and readers only ever need a consistent snapshot of one word.
#[derive(Debug)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// A new cell holding `v`.
    pub const fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Read the current value.
    #[inline]
    pub fn load(&self, order: Ordering) -> f64 {
        f64::from_bits(self.0.load(order))
    }

    /// Overwrite the value (owner thread only under the single-writer
    /// protocol; any thread otherwise, last write wins).
    #[inline]
    pub fn store(&self, v: f64, order: Ordering) {
        self.0.store(v.to_bits(), order);
    }
}

/// Yield-wait until `pred()` is true or `timeout` elapses.
/// Returns `true` iff the predicate fired.
pub fn wait_until(timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Why a [`CancellableBarrier::wait`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierWait {
    /// All parties arrived; proceed with the next window.
    Released,
    /// The barrier was cancelled (experiment shutting down).
    Cancelled,
    /// A [`CancellableBarrier::wait_timeout`] deadline elapsed before all
    /// parties arrived — typically fewer threads than the barrier expects.
    /// The waiter withdrew its arrival, so the barrier stays consistent.
    TimedOut,
}

/// Polling budget before a waiter parks: a window boundary normally waits
/// microseconds for the slowest thread; a futex sleep and wake cost tens.
const SPIN_BUDGET: Duration = Duration::from_micros(200);

/// Every this-many polls the waiter yields (and reads the clock): with
/// more threads than CPUs the party it waits for may need its CPU.
const POLLS_PER_YIELD: u32 = 16;

/// A reusable, cancellable barrier for `parties` threads: workers wait at
/// every window boundary, the harness cancels when the measurement ends.
///
/// One word, `count = generation · parties + arrived`, is the rendezvous:
/// an arrival is one `fetch_add`, the arrival that completes the
/// complement thereby carries the word into the next generation (that is
/// the release), and a waiter polls until the word reaches that multiple
/// of `parties`. A waiter that gives up decrements the word unless it has
/// crossed the multiple, so withdrawal is exact and a racing release wins.
/// Mutex and condvar serve only waiters that outlast [`SPIN_BUDGET`].
pub struct CancellableBarrier {
    parties: u64,
    count: AtomicU64,
    cancelled: AtomicBool,
    /// Waiters in the condvar leg. `SeqCst` against `count` (Dekker): the
    /// parker sees the release or the releaser sees the parker.
    parked: AtomicU64,
    parks: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl CancellableBarrier {
    /// Barrier for `parties` participants (must be ≥ 1).
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "barrier needs at least one party");
        CancellableBarrier {
            parties: parties as u64,
            count: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            parked: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Wait until all parties arrive or the barrier is cancelled.
    pub fn wait(&self) -> BarrierWait {
        self.wait_for(None)
    }

    /// Like [`wait`](Self::wait) but give up after `timeout` (it covers the
    /// polling too). A timed-out waiter has withdrawn its arrival, so later
    /// parties still synchronize; a release or cancel racing the deadline wins.
    pub fn wait_timeout(&self, timeout: Duration) -> BarrierWait {
        self.wait_for(Some(timeout))
    }

    fn wait_for(&self, timeout: Option<Duration>) -> BarrierWait {
        if self.is_cancelled() {
            return BarrierWait::Cancelled;
        }
        let ticket = self.count.fetch_add(1, Ordering::SeqCst);
        // First count of the next generation: reached exactly when this
        // generation's complement is in, and never left again.
        let target = (ticket / self.parties + 1) * self.parties;
        if ticket + 1 == target && self.parked.load(Ordering::SeqCst) != 0 {
            let _guard = self.lock.lock();
            self.cv.notify_all();
        }
        let start = Instant::now();
        let left = || timeout.map_or(Duration::MAX, |t| t.saturating_sub(start.elapsed()));
        let done = || self.count.load(Ordering::SeqCst) >= target || self.is_cancelled();
        let mut polls = 0u32;
        while !done() {
            polls += 1;
            if !polls.is_multiple_of(POLLS_PER_YIELD) {
                std::hint::spin_loop();
            } else if left().is_zero() {
                break;
            } else if start.elapsed() < SPIN_BUDGET {
                std::thread::yield_now();
            } else {
                // Budget spent: announce under the lock, re-check, sleep.
                let mut guard = self.lock.lock();
                self.parked.fetch_add(1, Ordering::SeqCst);
                self.parks.fetch_add(1, Ordering::Relaxed);
                while !done() && !left().is_zero() {
                    self.cv.wait_for(&mut guard, left());
                }
                self.parked.fetch_sub(1, Ordering::SeqCst);
                break;
            }
        }
        // Take the arrival back, unless the word reached `target`: then the
        // release counted this waiter and wins over cancel or timeout.
        let withdraw = |c| (c < target).then(|| c - 1);
        match (self.count).fetch_update(Ordering::AcqRel, Ordering::Acquire, withdraw) {
            Err(_) => BarrierWait::Released,
            Ok(_) if self.is_cancelled() => BarrierWait::Cancelled,
            Ok(_) => BarrierWait::TimedOut,
        }
    }

    /// Parties currently waiting (a timeout message names the no-shows).
    pub fn arrived(&self) -> usize {
        (self.count.load(Ordering::Acquire) % self.parties) as usize
    }

    /// Full complements released so far.
    pub fn generation(&self) -> u64 {
        self.count.load(Ordering::Acquire) / self.parties
    }

    /// Waits that outlasted the polling budget and slept on the condvar.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Release all current and future waiters with `Cancelled`.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
        let _guard = self.lock.lock();
        self.cv.notify_all();
    }

    /// True once [`cancel`](Self::cancel) was called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_until_predicate_fires() {
        let mut n = 0;
        assert!(wait_until(Duration::from_secs(1), || {
            n += 1;
            n >= 3
        }));
    }

    #[test]
    fn wait_until_times_out() {
        assert!(!wait_until(Duration::from_millis(5), || false));
    }

    /// Block the test until another thread has reached an observable
    /// barrier state (arrived, parked): interleavings are forced, not slept.
    fn until(cond: impl Fn() -> bool) {
        assert!(wait_until(Duration::from_secs(30), cond), "test stalled");
    }

    #[test]
    fn barrier_releases_all_parties() {
        let b = CancellableBarrier::new(4);
        let results: Vec<BarrierWait> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| b.wait())).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|r| *r == BarrierWait::Released));
        assert_eq!((b.generation(), b.arrived()), (1, 0));
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let b = CancellableBarrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..10 {
                        assert_eq!(b.wait(), BarrierWait::Released);
                    }
                });
            }
        });
        assert_eq!((b.generation(), b.arrived()), (10, 0));
    }

    #[test]
    fn prompt_release_never_parks() {
        // The second party arrives the moment it sees the first waiting,
        // well inside the polling budget. A preempted host can still
        // stretch one round past the budget, so a few rounds may park —
        // but a barrier that always parks (the old one) fails every round.
        let prompt = (0..50).any(|_| {
            let b = CancellableBarrier::new(2);
            std::thread::scope(|s| {
                let first = s.spawn(|| b.wait_timeout(Duration::from_secs(30)));
                until(|| b.arrived() == 1);
                assert_eq!(b.wait(), BarrierWait::Released);
                assert_eq!(first.join().unwrap(), BarrierWait::Released);
            });
            b.parks() == 0
        });
        assert!(prompt, "no round of 50 released without a condvar sleep");
    }

    #[test]
    fn late_party_finds_the_waiter_parked_and_still_releases() {
        let b = CancellableBarrier::new(2);
        std::thread::scope(|s| {
            let first = s.spawn(|| b.wait());
            until(|| b.parks() == 1); // budget spent: asleep on the condvar
            assert_eq!(b.wait(), BarrierWait::Released);
            assert_eq!(first.join().unwrap(), BarrierWait::Released);
        });
        assert_eq!((b.parks(), b.generation(), b.arrived()), (1, 1, 0));
    }

    #[test]
    fn cancel_releases_polling_and_parked_waiters() {
        // The parked round waits with a deadline, the polling one without.
        for parked in [false, true] {
            let b = CancellableBarrier::new(2);
            let timeout = parked.then_some(Duration::from_secs(30));
            let res = std::thread::scope(|s| {
                let waiter = s.spawn(|| b.wait_for(timeout));
                until(|| b.arrived() == 1 && (!parked || b.parks() == 1));
                b.cancel();
                waiter.join().unwrap()
            });
            assert_eq!(res, BarrierWait::Cancelled, "parked = {parked}");
            assert_eq!(b.arrived(), 0, "a cancelled waiter withdraws");
            // Future waits return immediately, without arriving.
            assert_eq!(b.wait(), BarrierWait::Cancelled);
            assert_eq!(b.arrived(), 0);
            assert!(b.is_cancelled());
        }
    }

    #[test]
    fn cancel_wakes_current_and_future_waiters() {
        let b = CancellableBarrier::new(8);
        let results: Vec<BarrierWait> = std::thread::scope(|s| {
            // Three waiters arrive *before* the cancel…
            let early: Vec<_> = (0..3).map(|_| s.spawn(|| b.wait())).collect();
            until(|| b.arrived() == 3);
            b.cancel();
            // …and three more, timed ones, only *after* it.
            let late: Vec<_> = (0..3)
                .map(|_| s.spawn(|| b.wait_timeout(Duration::from_secs(5))))
                .collect();
            early
                .into_iter()
                .chain(late)
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(
            results.iter().all(|r| *r == BarrierWait::Cancelled),
            "cancel must release both present and future waiters: {results:?}"
        );
    }

    #[test]
    fn timeout_withdraws_exactly_polling_or_parked() {
        // 50 us ends inside the polling budget, 20 ms long after it.
        for (timeout, parks) in [
            (Duration::from_micros(50), 0),
            (Duration::from_millis(20), 1),
        ] {
            let b = CancellableBarrier::new(2);
            let t0 = Instant::now();
            assert_eq!(b.wait_timeout(timeout), BarrierWait::TimedOut);
            assert!(t0.elapsed() >= timeout);
            assert_eq!(b.parks(), parks, "timeout {timeout:?}");
            // The timed-out waiter withdrew its arrival…
            assert_eq!(b.arrived(), 0);
            // …so a later full complement still releases normally.
            let results: Vec<BarrierWait> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|_| s.spawn(|| b.wait_timeout(Duration::from_secs(5))))
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(results.iter().all(|r| *r == BarrierWait::Released));
            assert_eq!((b.generation(), b.arrived()), (1, 0));
        }
    }

    #[test]
    fn wait_timeout_releases_when_all_arrive() {
        let b = CancellableBarrier::new(3);
        let results: Vec<BarrierWait> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    let b = &b;
                    s.spawn(move || {
                        // Stagger arrivals: each waits for the one before.
                        until(|| b.arrived() == i);
                        b.wait_timeout(Duration::from_secs(5))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|r| *r == BarrierWait::Released));
    }
}
