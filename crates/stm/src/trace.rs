//! Low-overhead transaction-event tracing: per-thread ring buffers.
//!
//! The end-of-run counters ([`crate::stats`]) say *how much* work was
//! wasted; they cannot say *who aborted whom*, how long transactions sat
//! at window barriers, or where the wait time went. This module records
//! those per-event facts with a protocol cheap enough to leave woven
//! through the hot path:
//!
//! * **Fixed-size events** ([`Event`], 40 bytes): a [`crate::clockns`]
//!   timestamp, an optional span duration, a kind tag, the engine thread
//!   id, and two payload words whose meaning is per-kind (see
//!   [`EventKind`]). Payload words that name a verdict are packed from the
//!   engine's own enums ([`pack_conflict`], `BarrierWait as u64`) and read
//!   back through the same enums' `ALL` tables and `name()`s.
//! * **Who stamps what**: a span's caller passes its end (it read the
//!   clock for its own metrics anyway), as does `TxBegin` (the attempt's
//!   start stamp); every other instant is stamped by [`emit_now`] inside
//!   the out-of-line recording half, so a thread with tracing off reads no
//!   clock for it.
//! * **Per-thread ring buffers**: single-producer, wrapping overwrite, one
//!   atomic store per event. No locks, no allocation after the ring
//!   exists. A global registry (one [`crate::sync::Mutex`]) collects every
//!   thread's ring so [`drain`] can read them once producers are
//!   quiescent; [`reset`] drops the rings of threads that have exited.
//! * **Runtime gating**: the call sites are always compiled, and every
//!   [`emit`] starts with one relaxed load of a global flag ([`enabled`]):
//!   tracing that is switched off costs a predicted-not-taken branch per
//!   event site.
//!
//! The Chrome-trace JSON and the TR1–TR3 tables are built from the
//! drained slice by `windowtm trace` (`wtm_harness::trace`).
//!
//! ## Drain protocol
//!
//! Producers own their ring; [`drain`] and [`reset`] may only run while no
//! thread is emitting (in practice: tracing disabled and worker threads
//! joined). The harness enables tracing after the workload is built,
//! disables it after the worker scope ends, and only then drains.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::clockns;
use crate::cm::{ConflictKind, Resolution};
use crate::sync::Mutex;

/// What an [`Event`] records. Payload word meaning per kind:
///
/// | kind | `dur_ns` | `a` | `b` |
/// |---|---|---|---|
/// | `TxBegin` | 0 | txn id | attempt number |
/// | `Commit` | attempt duration | txn id | attempt number |
/// | `Abort` | wasted attempt duration | txn id | abort reason (`ABORT_*`) |
/// | `Conflict` | 0 | enemy thread id | kind, verdict, killed ([`pack_conflict`]) |
/// | `Wait` | time blocked in the CM | enemy thread id | 0 |
/// | `BarrierWait` | time at the window barrier, polling and parked | always 0: a window has one barrier (the word was its phase when there were two) | outcome (`BarrierWait as u64`) |
/// | `FrameAssign` | 0 | assigned frame | rank π₂ |
/// | `WindowStart` | 0 | window generation | random delay q |
/// | `FrameAdvance` | 0 | new frame index | high-water mark |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    TxBegin = 0,
    Commit = 1,
    Abort = 2,
    Conflict = 3,
    Wait = 4,
    BarrierWait = 5,
    FrameAssign = 6,
    WindowStart = 7,
    FrameAdvance = 8,
}

impl EventKind {
    /// All kinds, in tag order.
    pub const ALL: [EventKind; 9] = [
        EventKind::TxBegin,
        EventKind::Commit,
        EventKind::Abort,
        EventKind::Conflict,
        EventKind::Wait,
        EventKind::BarrierWait,
        EventKind::FrameAssign,
        EventKind::WindowStart,
        EventKind::FrameAdvance,
    ];

    /// Short lower-case name (trace viewer slice names, table rows).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TxBegin => "begin",
            EventKind::Commit => "commit",
            EventKind::Abort => "abort",
            EventKind::Conflict => "conflict",
            EventKind::Wait => "cm-wait",
            EventKind::BarrierWait => "barrier-wait",
            EventKind::FrameAssign => "frame-assign",
            EventKind::WindowStart => "window-start",
            EventKind::FrameAdvance => "frame-advance",
        }
    }
}

// ---- abort reason taxonomy (the `b` word of `Abort` events) -------------

/// The contention manager told this transaction to abort itself.
pub const ABORT_CM_SELF: u64 = 0;
/// An enemy transaction aborted this one (status CAS from another thread).
pub const ABORT_KILLED: u64 = 1;
/// The transaction body bailed out voluntarily (`Txn::abort_self` or a
/// user `Err` that nobody else caused).
pub const ABORT_USER: u64 = 2;
/// The lazy engine's read validation failed: a read no longer belongs to
/// the committed snapshot at the attempt's watermark (at read time or at
/// commit-time re-validation).
pub const ABORT_VALIDATION: u64 = 3;

/// Human-readable abort reason.
pub fn abort_reason_name(reason: u64) -> &'static str {
    match reason {
        ABORT_CM_SELF => "cm-self",
        ABORT_KILLED => "killed",
        ABORT_USER => "user",
        ABORT_VALIDATION => "validation",
        _ => "unknown",
    }
}

/// Pack a conflict's `(kind, verdict, killed)` triple into one payload
/// word: each enum's discriminant, one byte apiece.
#[inline]
pub fn pack_conflict(kind: ConflictKind, verdict: Resolution, killed: bool) -> u64 {
    kind as u64 | (verdict as u64) << 8 | (killed as u64) << 16
}

/// Inverse of [`pack_conflict`]. The word must come from it.
pub fn unpack_conflict(b: u64) -> (ConflictKind, Resolution, bool) {
    (
        ConflictKind::ALL[(b & 0xFF) as usize],
        Resolution::ALL[(b >> 8 & 0xFF) as usize],
        b >> 16 & 1 != 0,
    )
}

/// One fixed-size trace record. See [`EventKind`] for payload meaning.
///
/// `ts_ns` is the time at which the event was *recorded*: for span events
/// that is the span's **end**; the start is `ts_ns - dur_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub kind: EventKind,
    pub tid: u32,
    pub a: u64,
    pub b: u64,
}

impl Event {
    /// A point event (no duration) at `ts_ns`.
    #[inline]
    pub fn instant(kind: EventKind, ts_ns: u64, tid: u32, a: u64, b: u64) -> Self {
        Event::span(kind, ts_ns, 0, tid, a, b)
    }

    /// A span event ending at `end_ns` with length `dur_ns`.
    #[inline]
    pub fn span(kind: EventKind, end_ns: u64, dur_ns: u64, tid: u32, a: u64, b: u64) -> Self {
        Event {
            ts_ns: end_ns,
            dur_ns,
            kind,
            tid,
            a,
            b,
        }
    }
}

// ---- the per-thread ring buffer -----------------------------------------

/// Lock-free single-producer ring buffer of [`Event`]s.
///
/// The owning thread is the only writer; `head` counts events ever pushed
/// (the buffer wraps, overwriting the oldest; `dropped()` reports how
/// many were lost). Readers require the producer to be quiescent: the
/// `Release` store on `head` publishes the slot contents, but a
/// concurrent wrap-around overwrite is not detected.
struct TraceBuf {
    head: AtomicU64,
    events: Box<[UnsafeCell<Event>]>,
}

// SAFETY: slots are plain `Copy` data; the single-producer/quiescent-reader
// protocol documented on the type keeps accesses race-free.
unsafe impl Sync for TraceBuf {}
unsafe impl Send for TraceBuf {}

impl TraceBuf {
    /// Buffer holding the most recent `capacity` events (min 16).
    fn new(capacity: usize) -> Self {
        let zero = Event::instant(EventKind::TxBegin, 0, 0, 0, 0);
        TraceBuf {
            head: AtomicU64::new(0),
            events: (0..capacity.max(16))
                .map(|_| UnsafeCell::new(zero))
                .collect(),
        }
    }

    /// Append one event (producer thread only).
    #[inline]
    fn push(&self, ev: Event) {
        let h = self.head.load(Ordering::Relaxed);
        let idx = (h % self.events.len() as u64) as usize;
        // SAFETY: only the owning thread pushes, so no concurrent writer;
        // readers honor the quiescence protocol (see type docs).
        unsafe { *self.events[idx].get() = ev };
        self.head.store(h + 1, Ordering::Release);
    }

    /// Events ever pushed.
    fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to wrap-around overwrite.
    fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.events.len() as u64)
    }

    /// Copy the retained events (oldest first) into `out`. Producer must
    /// be quiescent.
    fn drain_into(&self, out: &mut Vec<Event>) {
        let h = self.head.load(Ordering::Acquire);
        let cap = self.events.len() as u64;
        let n = h.min(cap);
        let start = h - n;
        out.reserve(n as usize);
        for i in 0..n {
            let idx = ((start + i) % cap) as usize;
            // SAFETY: producer quiescent per the drain protocol.
            out.push(unsafe { *self.events[idx].get() });
        }
    }

    /// Forget everything (producer must be quiescent).
    fn clear(&self) {
        self.head.store(0, Ordering::Release);
    }
}

// ---- global registry and runtime toggle ---------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Events each thread's ring holds (40 B each: 2.5 MiB per ring).
const CAPACITY: usize = 1 << 16;

/// Every ring a thread has registered and no [`reset`] has dropped yet.
static REGISTRY: Mutex<Vec<Arc<TraceBuf>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: std::cell::RefCell<Option<Arc<TraceBuf>>> =
        const { std::cell::RefCell::new(None) };
}

/// Is tracing currently recording? One relaxed load: this is the whole
/// hot-path cost of compiled-in-but-off tracing.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Switch recording on or off. Enabling does not clear old events; call
/// [`reset`] between runs.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Record one event into this thread's ring buffer (creating and
/// registering the ring on first use). No-op while tracing is off.
#[inline]
pub fn emit(ev: Event) {
    if enabled() {
        record(ev);
    }
}

/// Record a point event stamped at the moment it is recorded. No-op, and
/// no clock read, while tracing is off.
#[inline]
pub fn emit_now(kind: EventKind, tid: u32, a: u64, b: u64) {
    if enabled() {
        record_now(kind, tid, a, b);
    }
}

/// The recording half of [`emit_now`]: the clock read lives here.
#[inline(never)]
fn record_now(kind: EventKind, tid: u32, a: u64, b: u64) {
    record(Event::instant(kind, clockns::now(), tid, a, b));
}

/// The recording half of [`emit`], out of line so that a call site
/// carries only the flag check.
#[inline(never)]
fn record(ev: Event) {
    // `try_with`: never panic during thread teardown; just drop the event.
    let _ = LOCAL.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(TraceBuf::new(CAPACITY));
            REGISTRY.lock().push(Arc::clone(&buf));
            buf
        });
        buf.push(ev);
    });
}

/// Collect every thread's retained events, oldest-first per thread, then
/// globally sorted by timestamp. Producers must be quiescent (see module
/// docs).
pub fn drain() -> Vec<Event> {
    let mut out = Vec::new();
    for b in REGISTRY.lock().iter() {
        b.drain_into(&mut out);
    }
    out.sort_by_key(|e| e.ts_ns);
    out
}

/// Total events lost to ring wrap-around across all threads.
pub fn dropped_total() -> u64 {
    REGISTRY.lock().iter().map(|b| b.dropped()).sum()
}

/// Clear every registered ring (between runs; producers quiescent) and
/// drop the rings of threads that have exited: the registry holds their
/// only reference. A live thread keeps its ring, so the registry holds
/// one ring per live thread that has emitted.
pub fn reset() {
    REGISTRY.lock().retain(|b| {
        b.clear();
        Arc::strong_count(b) > 1
    });
}

/// Rings the registry holds (one per thread that emitted since the last
/// [`reset`], plus one per live thread that emitted before it).
pub fn registered_rings() -> usize {
    REGISTRY.lock().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::BarrierWait;

    #[test]
    fn ring_keeps_most_recent_events_on_wrap() {
        let buf = TraceBuf::new(16);
        for i in 0..40u64 {
            buf.push(Event::instant(EventKind::Commit, i, 0, i, 0));
        }
        assert_eq!(buf.pushed(), 40);
        assert_eq!(buf.dropped(), 24);
        let mut out = Vec::new();
        buf.drain_into(&mut out);
        assert_eq!(out.len(), 16);
        assert_eq!(out.first().unwrap().a, 24, "oldest retained");
        assert_eq!(out.last().unwrap().a, 39, "newest retained");
        buf.clear();
        let mut out2 = Vec::new();
        buf.drain_into(&mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn conflict_packing_roundtrips() {
        for kind in ConflictKind::ALL {
            for verdict in Resolution::ALL {
                for killed in [false, true] {
                    assert_eq!(
                        unpack_conflict(pack_conflict(kind, verdict, killed)),
                        (kind, verdict, killed)
                    );
                }
            }
        }
        // The word layout the exports were written with: one byte each.
        assert_eq!(
            pack_conflict(ConflictKind::WriteRead, Resolution::Retry, true),
            2 | 2 << 8 | 1 << 16
        );
        for (code, outcome) in BarrierWait::ALL.into_iter().enumerate() {
            assert_eq!(outcome as usize, code, "BarrierWait::ALL is in tag order");
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::Commit.name(), "commit");
        assert_eq!(abort_reason_name(ABORT_KILLED), "killed");
        assert_eq!(abort_reason_name(99), "unknown");
        assert_eq!(ConflictKind::ReadWrite.name(), "RW");
        assert_eq!(Resolution::AbortEnemy.name(), "abort-enemy");
        assert_eq!(BarrierWait::TimedOut.name(), "timed-out");
        assert_eq!(
            ConflictKind::ALL.map(ConflictKind::name),
            ["WW", "RW", "WR"]
        );
        assert_eq!(
            Resolution::ALL.map(Resolution::name),
            ["abort-enemy", "abort-self", "retry"]
        );
        assert_eq!(
            BarrierWait::ALL.map(BarrierWait::name),
            ["released", "cancelled", "timed-out"]
        );
    }
}
