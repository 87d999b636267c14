//! The deterministic event core.
//!
//! A discrete-*event* simulation needs exactly three properties to stay
//! reproducible in CI (the dslab recipe):
//!
//! 1. a **virtual clock** — time is a `u64` step counter advanced only by
//!    the events themselves, never by wall time;
//! 2. a **total order on events** — the queue pops by
//!    `(time, class, tiebreak)`, where `class` puts message deliveries
//!    before the step tick at the same instant and `tiebreak` is a seeded
//!    [splitmix64] permutation of the insertion index: ties between
//!    same-class events at the same instant resolve by a seeded draw that
//!    is fixed at push time, independent of heap internals;
//! 3. an **append-only event log** — every decision the engine takes is
//!    encoded into a flat byte stream, so two runs are identical iff their
//!    logs are identical, and a recorded run can be replayed and compared
//!    byte for byte.
//!
//! The log costs nothing when disabled (one branch per push); `simulate()`
//! runs with it off.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c

use std::collections::BinaryHeap;

use crate::graph::TxnId;

/// Delivery class: network messages and fault events, processed *before*
/// the engine tick of the same virtual instant.
pub const CLASS_DELIVERY: u8 = 0;
/// The engine's per-step tick.
pub const CLASS_TICK: u8 = 1;

/// What an event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Run one engine step (issue / select / duel / progress).
    Tick,
    /// A contention-manager verdict reaches the losing transaction's
    /// node. Stale if the transaction has restarted since (`attempt`
    /// mismatch) or already committed.
    Verdict { txn: TxnId, attempt: u32 },
    /// A replica's commit acknowledgement reaches a sibling transaction.
    Ack { txn: TxnId },
    /// A node fails; its in-flight transactions abort.
    Crash { node: u32 },
    /// A crashed node comes back and resumes issuing.
    Recover { node: u32 },
}

/// One scheduled event. Ordering is `(time, class, tiebreak, seq)`,
/// inverted so [`BinaryHeap`] pops the smallest.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub time: u64,
    pub class: u8,
    pub kind: EventKind,
    tiebreak: u64,
    seq: u64,
}

impl Event {
    fn key(&self) -> (u64, u8, u64, u64) {
        (self.time, self.class, self.tiebreak, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Inverted: the max-heap then pops the earliest event.
        other.key().cmp(&self.key())
    }
}

/// splitmix64: a bijection on `u64`, so distinct insertion indices map to
/// distinct tiebreak values and the event order is total.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a delivery sits in the pop order among deliveries:
/// `(time, tiebreak, seq)`, [`Event`]'s ordering with the class left out.
pub type DeliveryKey = (u64, u64, u64);

/// The [`DeliveryKey`] that sorts after every real one: "no verdict is
/// queued against this attempt".
pub const NO_VERDICT: DeliveryKey = (u64::MAX, u64::MAX, u64::MAX);

/// Deterministic priority queue over [`Event`]s.
#[derive(Debug)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    seed: u64,
    next_seq: u64,
    elided: u64,
}

impl EventQueue {
    /// `seed` perturbs only the tie-break order of simultaneous
    /// same-class events, never their times.
    pub fn new(seed: u64) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seed,
            next_seq: 0,
            elided: 0,
        }
    }

    /// Take the next insertion index: `(tiebreak, seq)`.
    fn next_slot(&mut self) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (splitmix64(seq ^ self.seed), seq)
    }

    pub fn push(&mut self, time: u64, class: u8, kind: EventKind) {
        let (tiebreak, seq) = self.next_slot();
        self.heap.push(Event {
            time,
            class,
            kind,
            tiebreak,
            seq,
        });
    }

    /// Queue a verdict against `attempt` of `txn`, unless it can only
    /// arrive stale. `first` is the smallest key among the verdicts
    /// already queued against that attempt ([`NO_VERDICT`] when there is
    /// none; the caller resets it when the attempt ends).
    ///
    /// A verdict that sorts after `first` pops after it, and by then the
    /// attempt is over: the earlier verdict aborted it, or something else
    /// already had, and it cannot have committed with a verdict pending.
    /// Popping a stale verdict does nothing, so such a verdict is not
    /// queued. It still takes its insertion index: every later event's
    /// tiebreak is a function of its own index, and must not move.
    pub fn push_verdict(&mut self, time: u64, txn: TxnId, attempt: u32, first: &mut DeliveryKey) {
        let (tiebreak, seq) = self.next_slot();
        let key = (time, tiebreak, seq);
        if key > *first {
            self.elided += 1;
            return;
        }
        *first = key;
        self.heap.push(Event {
            time,
            class: CLASS_DELIVERY,
            kind: EventKind::Verdict { txn, attempt },
            tiebreak,
            seq,
        });
    }

    /// Verdicts [`push_verdict`](Self::push_verdict) left out so far.
    pub fn elided(&self) -> u64 {
        self.elided
    }

    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Why a transaction aborted (encoded in the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Lost a duel with a same-node (or zero-latency) verdict.
    Duel,
    /// A remote verdict arrived after network delay.
    RemoteVerdict,
    /// Its node crashed mid-transaction.
    NodeCrash,
}

impl AbortCause {
    fn tag(self) -> u8 {
        match self {
            AbortCause::Duel => 0,
            AbortCause::RemoteVerdict => 1,
            AbortCause::NodeCrash => 2,
        }
    }
}

/// One logged engine decision. The encoding is a tag byte followed by the
/// fields in declaration order, integers little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    Issue {
        step: u64,
        txn: TxnId,
    },
    Duel {
        step: u64,
        winner: TxnId,
        loser: TxnId,
    },
    VerdictSent {
        step: u64,
        loser: TxnId,
        attempt: u32,
        arrives: u64,
    },
    VerdictDropped {
        step: u64,
        loser: TxnId,
        attempt: u32,
    },
    Abort {
        step: u64,
        txn: TxnId,
        cause: AbortCause,
    },
    Commit {
        step: u64,
        txn: TxnId,
    },
    AckSent {
        step: u64,
        from: TxnId,
        to: TxnId,
        arrives: u64,
    },
    Crash {
        step: u64,
        node: u32,
    },
    Recover {
        step: u64,
        node: u32,
    },
    /// Trailer: the final outcome, so a log fixes the result it claims.
    Outcome {
        makespan: u64,
        commits: u64,
        aborts: u64,
        zombie_commits: u64,
        sum_response: u64,
        all_committed: bool,
    },
}

/// Append-only byte log of [`Record`]s. Disabled logs are free: `push`
/// is a single branch and no bytes are kept.
#[derive(Debug, Clone)]
pub struct EventLog {
    enabled: bool,
    bytes: Vec<u8>,
    records: usize,
}

impl EventLog {
    /// A recording log.
    pub fn recording() -> Self {
        EventLog {
            enabled: true,
            bytes: Vec::new(),
            records: 0,
        }
    }

    /// A no-op log (what [`simulate`](crate::engine::simulate) uses).
    pub fn disabled() -> Self {
        EventLog {
            enabled: false,
            bytes: Vec::new(),
            records: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records appended so far (0 when disabled).
    pub fn records(&self) -> usize {
        self.records
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Lowercase hex of the whole log (the on-disk replay format).
    pub fn hex(&self) -> String {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(self.bytes.len() * 2);
        for &b in &self.bytes {
            s.push(DIGITS[(b >> 4) as usize] as char);
            s.push(DIGITS[(b & 0xf) as usize] as char);
        }
        s
    }

    fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn push(&mut self, r: Record) {
        if self.enabled {
            self.encode(r);
        }
    }

    /// Out of line and cold: an unlogged run pays one predicted branch per
    /// record and no call.
    #[cold]
    #[inline(never)]
    fn encode(&mut self, r: Record) {
        self.records += 1;
        match r {
            Record::Issue { step, txn } => {
                self.bytes.push(1);
                self.u64(step);
                self.u32(txn);
            }
            Record::Duel {
                step,
                winner,
                loser,
            } => {
                self.bytes.push(2);
                self.u64(step);
                self.u32(winner);
                self.u32(loser);
            }
            Record::VerdictSent {
                step,
                loser,
                attempt,
                arrives,
            } => {
                self.bytes.push(3);
                self.u64(step);
                self.u32(loser);
                self.u32(attempt);
                self.u64(arrives);
            }
            Record::VerdictDropped {
                step,
                loser,
                attempt,
            } => {
                self.bytes.push(4);
                self.u64(step);
                self.u32(loser);
                self.u32(attempt);
            }
            Record::Abort { step, txn, cause } => {
                self.bytes.push(5);
                self.u64(step);
                self.u32(txn);
                self.bytes.push(cause.tag());
            }
            Record::Commit { step, txn } => {
                self.bytes.push(6);
                self.u64(step);
                self.u32(txn);
            }
            Record::AckSent {
                step,
                from,
                to,
                arrives,
            } => {
                self.bytes.push(7);
                self.u64(step);
                self.u32(from);
                self.u32(to);
                self.u64(arrives);
            }
            Record::Crash { step, node } => {
                self.bytes.push(8);
                self.u64(step);
                self.u32(node);
            }
            Record::Recover { step, node } => {
                self.bytes.push(9);
                self.u64(step);
                self.u32(node);
            }
            Record::Outcome {
                makespan,
                commits,
                aborts,
                zombie_commits,
                sum_response,
                all_committed,
            } => {
                self.bytes.push(10);
                self.u64(makespan);
                self.u64(commits);
                self.u64(aborts);
                self.u64(zombie_commits);
                self.u64(sum_response);
                self.bytes.push(all_committed as u8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pops_in_time_then_class_order() {
        let mut q = EventQueue::new(0);
        q.push(5, CLASS_TICK, EventKind::Tick);
        q.push(3, CLASS_TICK, EventKind::Tick);
        q.push(5, CLASS_DELIVERY, EventKind::Verdict { txn: 1, attempt: 0 });
        q.push(4, CLASS_DELIVERY, EventKind::Ack { txn: 2 });
        let order: Vec<(u64, u8)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.class))
            .collect();
        assert_eq!(
            order,
            vec![
                (3, CLASS_TICK),
                (4, CLASS_DELIVERY),
                (5, CLASS_DELIVERY),
                (5, CLASS_TICK)
            ]
        );
    }

    #[test]
    fn same_seed_same_tie_order_different_seed_may_differ() {
        let run = |seed: u64| -> Vec<u32> {
            let mut q = EventQueue::new(seed);
            for t in 0..8u32 {
                q.push(1, CLASS_DELIVERY, EventKind::Ack { txn: t });
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| match e.kind {
                    EventKind::Ack { txn } => txn,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(run(7), run(7), "seeded tie-break must be reproducible");
        assert_ne!(
            run(7),
            run(8),
            "distinct seeds permute simultaneous deliveries"
        );
    }

    fn verdict(txn: TxnId) -> EventKind {
        EventKind::Verdict { txn, attempt: 0 }
    }

    /// Pop everything: `(time, kind)` in pop order.
    fn drain(q: &mut EventQueue) -> Vec<(u64, EventKind)> {
        std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.kind))
            .collect()
    }

    #[test]
    fn elided_verdict_still_takes_its_insertion_index() {
        // The same pushes through `push` and through `push_verdict`: the
        // second verdict against the attempt is left out, and the acks
        // pushed after it tie-break exactly as if it had been queued.
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let mut plain = EventQueue::new(seed);
            plain.push(5, CLASS_DELIVERY, verdict(1));
            plain.push(9, CLASS_DELIVERY, verdict(1));
            let mut eliding = EventQueue::new(seed);
            let mut first = NO_VERDICT;
            eliding.push_verdict(5, 1, 0, &mut first);
            eliding.push_verdict(9, 1, 0, &mut first);
            for q in [&mut plain, &mut eliding] {
                for t in 0..8u32 {
                    q.push(9, CLASS_DELIVERY, EventKind::Ack { txn: t });
                }
            }
            assert_eq!(eliding.elided(), 1);
            assert_eq!(eliding.len() + 1, plain.len());
            let mut want = drain(&mut plain);
            want.retain(|&(time, kind)| (time, kind) != (9, verdict(1)));
            assert_eq!(drain(&mut eliding), want, "seed {seed}");
        }
    }

    #[test]
    fn earlier_arriving_verdict_replaces_the_recorded_first() {
        let mut q = EventQueue::new(3);
        let mut first = NO_VERDICT;
        q.push_verdict(9, 4, 0, &mut first);
        assert_eq!((first.0, q.len(), q.elided()), (9, 1, 0));
        // Jitter can deliver a later duel's verdict sooner: it is queued
        // and becomes the one the others are compared with.
        q.push_verdict(5, 4, 0, &mut first);
        assert_eq!((first.0, q.len(), q.elided()), (5, 2, 0));
        q.push_verdict(7, 4, 0, &mut first);
        assert_eq!((first.0, q.len(), q.elided()), (5, 2, 1));
        // Same arrival step: the tiebreak decides, as it does in the heap,
        // so `first` stays the key of the verdict that pops first.
        q.push_verdict(5, 4, 0, &mut first);
        assert_eq!(q.len() as u64 + q.elided(), 4);
        let head = q.pop().unwrap();
        assert_eq!((head.time, head.tiebreak, head.seq), first);
        // Another attempt's verdicts are compared with their own first.
        let mut other = NO_VERDICT;
        q.push_verdict(20, 4, 0, &mut other);
        assert_eq!(other.0, 20);
    }

    #[test]
    fn hex_is_two_lowercase_digits_per_byte() {
        let mut log = EventLog::recording();
        log.push(Record::Commit {
            step: 0x0123_4567_89ab_cdef,
            txn: 0xf00d_face,
        });
        assert_eq!(log.hex(), "06efcdab8967452301cefa0df0");
    }

    #[test]
    fn splitmix_is_injective_on_a_small_range() {
        let mut seen: Vec<u64> = (0..1000u64).map(splitmix64).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn disabled_log_stays_empty() {
        let mut log = EventLog::disabled();
        log.push(Record::Issue { step: 0, txn: 1 });
        assert_eq!(log.records(), 0);
        assert!(log.as_bytes().is_empty());
        assert!(!log.is_enabled());
    }

    #[test]
    fn log_encoding_is_deterministic_and_hex_roundtrips() {
        let mut a = EventLog::recording();
        let mut b = EventLog::recording();
        for log in [&mut a, &mut b] {
            log.push(Record::Issue { step: 3, txn: 9 });
            log.push(Record::Duel {
                step: 3,
                winner: 9,
                loser: 4,
            });
            log.push(Record::Abort {
                step: 3,
                txn: 4,
                cause: AbortCause::Duel,
            });
            log.push(Record::Outcome {
                makespan: 10,
                commits: 2,
                aborts: 1,
                zombie_commits: 0,
                sum_response: 12,
                all_committed: true,
            });
        }
        assert_eq!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.records(), 4);
        assert_eq!(a.hex().len(), a.as_bytes().len() * 2);
        assert!(a.hex().chars().all(|c| c.is_ascii_hexdigit()));
    }
}
