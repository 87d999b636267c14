//! Lock-free transaction metrics.
//!
//! Every worker thread owns a [`ThreadStats`] and bumps plain relaxed
//! atomics on its hot path; the harness folds them into a
//! [`StatsSnapshot`] at the end of a run. The snapshot computes every
//! metric the paper reports (throughput, aborts per commit, total time) as
//! well as the "future work" metrics of §IV that this reproduction also
//! implements: wasted work, repeat conflicts, average committed-transaction
//! duration, and average response time.
//!
//! ## Single-writer counters
//!
//! Only the owning worker writes its [`ThreadStats`], so every update is a
//! relaxed `load + store` pair on the counter itself — no `lock xadd`, no
//! staging block to fold. [`ThreadStats::snapshot`] is eleven relaxed loads
//! and may be taken from any thread at any time: each field it returns is a
//! value the owner really stored, never ahead of the owner and never less
//! than an earlier sample of the same field.
//!
//! The process-global counters a transaction can touch are unsharded,
//! each for a reason: the lazy engine's `VERSION_CLOCK` is TL2's one
//! `fetch_add` per writing commit (`crate::engine::write_version`); the
//! attempt-id and `TVar`-id sources are handed out in thread-local
//! blocks. Age needs no counter: it is the first attempt's start stamp
//! ([`crate::TxState::age_key`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-thread metric counters, written by the owning worker only (see the
/// module docs) and loaded `Relaxed` by whoever aggregates.
///
/// Cache-line-aligned: the engine holds one per worker in one boxed
/// slice, and the alignment keeps a worker's counter traffic off its
/// neighbours' lines.
#[repr(align(128))]
#[derive(Debug, Default)]
pub struct ThreadStats {
    /// Committed transactions.
    pub commits: AtomicU64,
    /// Aborted attempts.
    pub aborts: AtomicU64,
    /// Write-write conflicts observed.
    pub conflicts_ww: AtomicU64,
    /// Read-write conflicts observed (reader side).
    pub conflicts_rw: AtomicU64,
    /// Write-read conflicts observed (writer side, visible reads).
    pub conflicts_wr: AtomicU64,
    /// Conflicts whose enemy logical transaction equals the previous
    /// conflict's enemy (the paper's *repeat conflicts*).
    pub repeat_conflicts: AtomicU64,
    /// Nanoseconds spent in attempts that ended up aborting (*wasted work*).
    pub wasted_ns: AtomicU64,
    /// Nanoseconds spent in attempts that committed.
    pub committed_ns: AtomicU64,
    /// Nanoseconds from first attempt start to commit, summed (*response time*).
    pub response_ns: AtomicU64,
    /// Nanoseconds spent blocked inside contention-manager waits.
    pub wait_ns: AtomicU64,
    /// Objects opened (reads + writes that reached the object).
    pub opens: AtomicU64,
    /// Logical transaction id of the last conflict's enemy (repeat detection).
    last_enemy: AtomicU64,
}

impl ThreadStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-writer bump: only the owning worker writes these cells, so
    /// `load + store` replaces an atomic RMW.
    #[inline]
    fn bump(cell: &AtomicU64, v: u64) {
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(v),
            Ordering::Relaxed,
        );
    }

    #[inline]
    pub(crate) fn record_conflict(&self, kind: crate::cm::ConflictKind, enemy_txn: u64) {
        use crate::cm::ConflictKind::*;
        match kind {
            WriteWrite => Self::bump(&self.conflicts_ww, 1),
            ReadWrite => Self::bump(&self.conflicts_rw, 1),
            WriteRead => Self::bump(&self.conflicts_wr, 1),
        };
        if self.last_enemy.load(Ordering::Relaxed) == enemy_txn {
            Self::bump(&self.repeat_conflicts, 1);
        }
        self.last_enemy.store(enemy_txn, Ordering::Relaxed);
    }

    /// Account a committed attempt.
    #[inline]
    pub(crate) fn record_commit(&self, opens: u64, committed_ns: u64, response_ns: u64) {
        Self::bump(&self.commits, 1);
        Self::bump(&self.opens, opens);
        Self::bump(&self.committed_ns, committed_ns);
        Self::bump(&self.response_ns, response_ns);
    }

    /// Account an aborted attempt.
    #[inline]
    pub(crate) fn record_abort(&self, opens: u64, wasted_ns: u64) {
        Self::bump(&self.aborts, 1);
        Self::bump(&self.opens, opens);
        Self::bump(&self.wasted_ns, wasted_ns);
    }

    /// Account time spent blocked inside a contention-manager wait.
    #[inline]
    pub(crate) fn record_wait(&self, wait_ns: u64) {
        Self::bump(&self.wait_ns, wait_ns);
    }

    /// This thread's counters as of now; callable from any thread.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            conflicts_ww: self.conflicts_ww.load(Ordering::Relaxed),
            conflicts_rw: self.conflicts_rw.load(Ordering::Relaxed),
            conflicts_wr: self.conflicts_wr.load(Ordering::Relaxed),
            repeat_conflicts: self.repeat_conflicts.load(Ordering::Relaxed),
            wasted_ns: self.wasted_ns.load(Ordering::Relaxed),
            committed_ns: self.committed_ns.load(Ordering::Relaxed),
            response_ns: self.response_ns.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            opens: self.opens.load(Ordering::Relaxed),
            wall: Duration::ZERO,
        }
    }

    /// Zero all counters (between experiment repetitions). Only call at
    /// quiescence: a live owner's `load + store` bump would write back the
    /// count it loaded before the reset.
    pub fn reset(&self) {
        for c in [
            &self.commits,
            &self.aborts,
            &self.conflicts_ww,
            &self.conflicts_rw,
            &self.conflicts_wr,
            &self.repeat_conflicts,
            &self.wasted_ns,
            &self.committed_ns,
            &self.response_ns,
            &self.wait_ns,
            &self.opens,
            &self.last_enemy,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Aggregated, immutable view of a run's metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    pub commits: u64,
    pub aborts: u64,
    pub conflicts_ww: u64,
    pub conflicts_rw: u64,
    pub conflicts_wr: u64,
    pub repeat_conflicts: u64,
    pub wasted_ns: u64,
    pub committed_ns: u64,
    pub response_ns: u64,
    pub wait_ns: u64,
    pub opens: u64,
    /// Wall-clock duration of the measured interval (set by the harness).
    pub wall: Duration,
}

impl StatsSnapshot {
    /// Merge another snapshot into this one (summing counters, taking the
    /// max wall time — threads run concurrently).
    pub fn merge(&mut self, other: &StatsSnapshot) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.conflicts_ww += other.conflicts_ww;
        self.conflicts_rw += other.conflicts_rw;
        self.conflicts_wr += other.conflicts_wr;
        self.repeat_conflicts += other.repeat_conflicts;
        self.wasted_ns += other.wasted_ns;
        self.committed_ns += other.committed_ns;
        self.response_ns += other.response_ns;
        self.wait_ns += other.wait_ns;
        self.opens += other.opens;
        self.wall = self.wall.max(other.wall);
    }

    /// All conflicts of any kind.
    pub fn conflicts(&self) -> u64 {
        self.conflicts_ww + self.conflicts_rw + self.conflicts_wr
    }

    /// Committed transactions per second of wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.commits as f64 / secs
        }
    }

    /// The paper's Fig. 4 metric: aborted attempts per committed transaction.
    pub fn aborts_per_commit(&self) -> f64 {
        if self.commits == 0 {
            self.aborts as f64
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Fraction of execution time spent in attempts that aborted
    /// (the paper's *wasted work*, §IV).
    pub fn wasted_work(&self) -> f64 {
        let total = self.wasted_ns + self.committed_ns;
        if total == 0 {
            0.0
        } else {
            self.wasted_ns as f64 / total as f64
        }
    }

    /// Mean duration of a committed attempt.
    pub fn avg_committed_duration(&self) -> Duration {
        Duration::from_nanos(self.committed_ns.checked_div(self.commits).unwrap_or(0))
    }

    /// Mean time from a logical transaction's first start to its commit
    /// (the paper's *average response time*, §IV).
    pub fn avg_response_time(&self) -> Duration {
        Duration::from_nanos(self.response_ns.checked_div(self.commits).unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::ConflictKind;

    #[test]
    fn snapshot_roundtrip() {
        let t = ThreadStats::new();
        t.commits.store(10, Ordering::Relaxed);
        t.aborts.store(5, Ordering::Relaxed);
        t.wasted_ns.store(500, Ordering::Relaxed);
        t.committed_ns.store(1500, Ordering::Relaxed);
        let s = t.snapshot();
        assert_eq!(s.commits, 10);
        assert_eq!(s.aborts, 5);
        assert!((s.aborts_per_commit() - 0.5).abs() < 1e-12);
        assert!((s.wasted_work() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters_and_maxes_wall() {
        let mut a = StatsSnapshot {
            commits: 3,
            wall: Duration::from_secs(2),
            ..Default::default()
        };
        let b = StatsSnapshot {
            commits: 7,
            wall: Duration::from_secs(1),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.commits, 10);
        assert_eq!(a.wall, Duration::from_secs(2));
        assert!((a.throughput() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn conflict_kinds_recorded_separately() {
        let t = ThreadStats::new();
        t.record_conflict(ConflictKind::WriteWrite, 1);
        t.record_conflict(ConflictKind::ReadWrite, 2);
        t.record_conflict(ConflictKind::ReadWrite, 3);
        t.record_conflict(ConflictKind::WriteRead, 4);
        let s = t.snapshot();
        assert_eq!(s.conflicts_ww, 1);
        assert_eq!(s.conflicts_rw, 2);
        assert_eq!(s.conflicts_wr, 1);
        assert_eq!(s.conflicts(), 4);
    }

    #[test]
    fn repeat_conflicts_detected() {
        let t = ThreadStats::new();
        t.record_conflict(ConflictKind::WriteWrite, 9);
        t.record_conflict(ConflictKind::WriteWrite, 9); // repeat
        t.record_conflict(ConflictKind::WriteWrite, 8); // different enemy
        t.record_conflict(ConflictKind::WriteWrite, 9); // not consecutive
        let s = t.snapshot();
        assert_eq!(s.repeat_conflicts, 1);
    }

    #[test]
    fn zero_commit_edge_cases() {
        let s = StatsSnapshot {
            aborts: 4,
            ..Default::default()
        };
        assert_eq!(s.aborts_per_commit(), 4.0);
        assert_eq!(s.throughput(), 0.0);
        assert_eq!(s.avg_response_time(), Duration::ZERO);
        assert_eq!(s.avg_committed_duration(), Duration::ZERO);
    }

    #[test]
    fn reset_zeroes_everything() {
        let t = ThreadStats::new();
        t.commits.store(10, Ordering::Relaxed);
        t.record_conflict(ConflictKind::WriteWrite, 1);
        t.reset();
        let s = t.snapshot();
        assert_eq!(s, StatsSnapshot::default());
    }

    #[test]
    fn recorded_attempts_are_in_the_next_snapshot() {
        // The Budget-truncation guarantee: whatever an attempt recorded is
        // in every later snapshot, however short the run.
        let t = ThreadStats::new();
        t.record_commit(3, 100, 200);
        t.record_abort(1, 50);
        t.record_wait(7);
        let s = t.snapshot();
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.opens, 4);
        assert_eq!(s.committed_ns, 100);
        assert_eq!(s.response_ns, 200);
        assert_eq!(s.wasted_ns, 50);
        assert_eq!(s.wait_ns, 7);
    }

    #[test]
    fn snapshot_from_another_thread_is_monotone_and_never_ahead() {
        const COMMITS: u64 = 200_000;
        const ABORTS: u64 = 100_000;
        fn fields(s: &StatsSnapshot) -> [u64; 6] {
            [
                s.commits,
                s.aborts,
                s.opens,
                s.committed_ns,
                s.response_ns,
                s.wasted_ns,
            ]
        }
        let t = ThreadStats::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        let started = std::sync::Barrier::new(2);
        // The sampler checks each sample against the one before and hands
        // back its last (so largest) one.
        let (samples, largest) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                started.wait();
                let (mut samples, mut prev) = (0u64, [0u64; 6]);
                while !done.load(Ordering::Acquire) {
                    let sample = fields(&t.snapshot());
                    for f in 0..6 {
                        assert!(
                            prev[f] <= sample[f],
                            "field {f} went back from {} to {}",
                            prev[f],
                            sample[f]
                        );
                    }
                    prev = sample;
                    samples += 1;
                }
                (samples, prev)
            });
            started.wait();
            for i in 0..COMMITS {
                t.record_commit(2, 10, 20);
                if i < ABORTS {
                    t.record_abort(1, 5);
                }
            }
            done.store(true, Ordering::Release);
            sampler.join().expect("sampler thread")
        });
        let totals = fields(&t.snapshot());
        assert_eq!(
            totals,
            [
                COMMITS,
                ABORTS,
                2 * COMMITS + ABORTS,
                10 * COMMITS,
                20 * COMMITS,
                5 * ABORTS
            ]
        );
        for f in 0..6 {
            assert!(
                largest[f] <= totals[f],
                "field {f}: a live sample read {} of a final {} ({samples} samples)",
                largest[f],
                totals[f]
            );
        }
    }
}
