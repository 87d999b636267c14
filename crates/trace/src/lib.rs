//! # wtm-trace — low-overhead transaction-event tracing
//!
//! The engine's end-of-run counters (`wtm_stm::stats`) say *how much*
//! work was wasted; they cannot say *who aborted whom*, how long
//! transactions sat at window barriers, or where the wait time went. This
//! crate records those per-event facts with a protocol cheap enough to
//! leave woven through the STM hot path:
//!
//! * **Fixed-size events** ([`Event`], 40 bytes): a coarse-clock timestamp
//!   (the caller passes in `wtm_stm::clockns::now()` values — this crate
//!   is timestamp-agnostic so it depends on nothing), an optional span
//!   duration, a kind tag, the engine thread id, and two payload words
//!   whose meaning is per-kind (see [`EventKind`]).
//! * **Per-thread ring buffers** ([`TraceBuf`]): single-producer, wrapping
//!   overwrite, one atomic store per event. No locks, no allocation after
//!   the buffer exists. A global registry collects every thread's buffer
//!   so a collector can drain them once producers are quiescent.
//! * **Runtime gating**: the call sites in `wtm-stm` and `wtm-window` are
//!   always compiled, and every [`emit`] starts with one relaxed load of a
//!   global flag ([`enabled`]) — tracing that is switched off costs a
//!   predicted-not-taken branch per event site.
//!
//! The collector side lives in [`collect`] (who-killed-whom conflict
//! matrices, log-bucketed latency histograms). The Chrome-trace JSON for
//! `chrome://tracing` / Perfetto is rendered by `windowtm trace`
//! (`wtm_harness::trace`) through the harness's one JSON layer; this crate
//! names the payload words it writes ([`abort_reason_name`],
//! [`conflict_kind_name`], [`verdict_name`], [`barrier_outcome_name`]).
//!
//! ## Drain protocol
//!
//! Producers own their buffer; the collector may only call
//! [`drain`]/[`reset`] while no thread is emitting (in practice: tracing
//! disabled and worker threads joined). The harness enforces this by
//! enabling tracing after the workload is built, disabling it after the
//! worker scope ends, and only then draining.

pub mod collect;

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What an [`Event`] records. Payload word meaning per kind:
///
/// | kind | `dur_ns` | `a` | `b` |
/// |---|---|---|---|
/// | `TxBegin` | 0 | txn id | attempt number |
/// | `Commit` | attempt duration | txn id | attempt number |
/// | `Abort` | wasted attempt duration | txn id | abort reason (`ABORT_*`) |
/// | `Conflict` | 0 | enemy thread id | packed kind/verdict/killed ([`pack_conflict`]) |
/// | `Wait` | time blocked in the CM | enemy thread id | 0 |
/// | `BarrierWait` | time at the window barrier, polling and parked | always 0: a window has one barrier (the word was its phase when there were two) | outcome (`BARRIER_*`) |
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

/// Human-readable conflict kind (the first word [`unpack_conflict`]
/// returns).
pub fn conflict_kind_name(kind: u64) -> &'static str {
    match kind {
        0 => "WW",
        1 => "RW",
        2 => "WR",
        _ => "??",
    }
}

/// Human-readable CM verdict (`VERDICT_*`).
pub fn verdict_name(verdict: u64) -> &'static str {
    match verdict {
        VERDICT_ABORT_ENEMY => "abort-enemy",
        VERDICT_ABORT_SELF => "abort-self",
        VERDICT_RETRY => "retry",
        _ => "??",
    }
}

/// Human-readable barrier-wait outcome (`BARRIER_*`).
pub fn barrier_outcome_name(outcome: u64) -> &'static str {
    match outcome {
        BARRIER_RELEASED => "released",
        BARRIER_CANCELLED => "cancelled",
        BARRIER_TIMED_OUT => "timed-out",
        _ => "??",
    }
}

// ---- conflict verdicts (packed into the `b` word of `Conflict`) ---------

/// The manager ruled `AbortEnemy`.
pub const VERDICT_ABORT_ENEMY: u64 = 0;
/// The manager ruled `AbortSelf`.
pub const VERDICT_ABORT_SELF: u64 = 1;
/// The manager ruled `Retry` (wait and re-examine).
pub const VERDICT_RETRY: u64 = 2;

/// Barrier-wait outcomes (the `b` word of `BarrierWait` events).
pub const BARRIER_RELEASED: u64 = 0;
pub const BARRIER_CANCELLED: u64 = 1;
pub const BARRIER_TIMED_OUT: u64 = 2;

/// Pack a conflict's `(kind, verdict, killed)` triple into one payload
/// word. `kind` is the engine's `ConflictKind` as 0/1/2 (WW/RW/WR).
#[inline]
pub fn pack_conflict(kind: u64, verdict: u64, killed: bool) -> u64 {
    (kind & 0xFF) | ((verdict & 0xFF) << 8) | ((killed as u64) << 16)
}

/// Inverse of [`pack_conflict`]: `(kind, verdict, killed)`.
#[inline]
pub fn unpack_conflict(b: u64) -> (u64, u64, bool) {
    (b & 0xFF, (b >> 8) & 0xFF, (b >> 16) & 1 != 0)
}

/// One fixed-size trace record. See [`EventKind`] for payload meaning.
///
/// `ts_ns` is the coarse-clock time at which the event was *recorded* —
/// for span events that is the span's **end**; the start is
/// `ts_ns - dur_ns`.
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
    /// A point event (no duration).
    #[inline]
    pub fn instant(kind: EventKind, ts_ns: u64, tid: u32, a: u64, b: u64) -> Self {
        Event {
            ts_ns,
            dur_ns: 0,
            kind,
            tid,
            a,
            b,
        }
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

    const ZERO: Event = Event {
        ts_ns: 0,
        dur_ns: 0,
        kind: EventKind::TxBegin,
        tid: 0,
        a: 0,
        b: 0,
    };
}

// ---- the per-thread ring buffer -----------------------------------------

/// Lock-free single-producer ring buffer of [`Event`]s.
///
/// The owning thread is the only writer; `head` counts events ever pushed
/// (the buffer wraps, overwriting the oldest — `dropped()` reports how
/// many were lost). Readers ([`TraceBuf::drain_into`]) require the
/// producer to be quiescent: the `Release` store on `head` publishes the
/// slot contents, but a concurrent wrap-around overwrite is not detected.
pub struct TraceBuf {
    head: AtomicU64,
    events: Box<[UnsafeCell<Event>]>,
}

// SAFETY: slots are plain `Copy` data; the single-producer/quiescent-reader
// protocol documented on the type keeps accesses race-free.
unsafe impl Sync for TraceBuf {}
unsafe impl Send for TraceBuf {}

impl TraceBuf {
    /// Buffer holding the most recent `capacity` events (min 16).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        TraceBuf {
            head: AtomicU64::new(0),
            events: (0..capacity)
                .map(|_| UnsafeCell::new(Event::ZERO))
                .collect(),
        }
    }

    /// Append one event (producer thread only).
    #[inline]
    pub fn push(&self, ev: Event) {
        let h = self.head.load(Ordering::Relaxed);
        let idx = (h % self.events.len() as u64) as usize;
        // SAFETY: only the owning thread pushes, so no concurrent writer;
        // readers honor the quiescence protocol (see type docs).
        unsafe { *self.events[idx].get() = ev };
        self.head.store(h + 1, Ordering::Release);
    }

    /// Events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to wrap-around overwrite.
    pub fn dropped(&self) -> u64 {
        self.pushed().saturating_sub(self.events.len() as u64)
    }

    /// Copy the retained events (oldest first) into `out`. Producer must
    /// be quiescent.
    pub fn drain_into(&self, out: &mut Vec<Event>) {
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
    pub fn clear(&self) {
        self.head.store(0, Ordering::Release);
    }
}

// ---- global registry and runtime toggle ---------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(1 << 16);

fn registry() -> &'static Mutex<Vec<Arc<TraceBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<TraceBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: std::cell::RefCell<Option<Arc<TraceBuf>>> =
        const { std::cell::RefCell::new(None) };
}

/// Is tracing currently recording? One relaxed load — this is the whole
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

/// Per-thread ring capacity for buffers created *after* this call.
pub fn set_capacity(events_per_thread: usize) {
    CAPACITY.store(events_per_thread.max(16), Ordering::SeqCst);
}

/// Record one event into this thread's ring buffer (creating and
/// registering the buffer on first use). No-op while tracing is off.
#[inline]
pub fn emit(ev: Event) {
    if !enabled() {
        return;
    }
    emit_always(ev);
}

/// [`emit`] without the enabled check (tests, unconditional call sites).
pub fn emit_always(ev: Event) {
    // `try_with`: never panic during thread teardown — just drop the event.
    let _ = LOCAL.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let buf = Arc::new(TraceBuf::new(CAPACITY.load(Ordering::SeqCst)));
            registry()
                .lock()
                .expect("trace registry")
                .push(Arc::clone(&buf));
            buf
        });
        buf.push(ev);
    });
}

/// Collect every thread's retained events, oldest-first per thread, then
/// globally sorted by timestamp. Producers must be quiescent (see module
/// docs).
pub fn drain() -> Vec<Event> {
    let bufs = registry().lock().expect("trace registry");
    let mut out = Vec::new();
    for b in bufs.iter() {
        b.drain_into(&mut out);
    }
    out.sort_by_key(|e| e.ts_ns);
    out
}

/// Total events lost to ring wrap-around across all threads.
pub fn dropped_total() -> u64 {
    registry()
        .lock()
        .expect("trace registry")
        .iter()
        .map(|b| b.dropped())
        .sum()
}

/// Clear every registered buffer (between runs; producers quiescent).
pub fn reset() {
    for b in registry().lock().expect("trace registry").iter() {
        b.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for kind in 0..3u64 {
            for verdict in 0..3u64 {
                for killed in [false, true] {
                    assert_eq!(
                        unpack_conflict(pack_conflict(kind, verdict, killed)),
                        (kind, verdict, killed)
                    );
                }
            }
        }
    }

    #[test]
    fn global_emit_respects_toggle_and_drains_across_threads() {
        // This test owns the global flag; no other test in this crate
        // enables it.
        reset();
        emit(Event::instant(EventKind::TxBegin, 1, 0, 0, 0));
        assert!(
            !drain().iter().any(|e| e.ts_ns == 1),
            "emit while disabled must drop the event"
        );
        set_enabled(true);
        std::thread::scope(|s| {
            for t in 0..3u32 {
                s.spawn(move || {
                    for i in 0..10u64 {
                        emit(Event::span(EventKind::Commit, 100 + i, 5, t, i, 0));
                    }
                });
            }
        });
        set_enabled(false);
        let events = drain();
        let commits = events
            .iter()
            .filter(|e| e.kind == EventKind::Commit)
            .count();
        assert!(commits >= 30, "all three threads' events collected");
        assert!(
            events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
            "drain sorts by timestamp"
        );
        reset();
        assert!(!drain().iter().any(|e| e.kind == EventKind::Commit));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::Commit.name(), "commit");
        assert_eq!(abort_reason_name(ABORT_KILLED), "killed");
        assert_eq!(abort_reason_name(99), "unknown");
        assert_eq!(conflict_kind_name(1), "RW");
        assert_eq!(verdict_name(VERDICT_ABORT_ENEMY), "abort-enemy");
        assert_eq!(barrier_outcome_name(BARRIER_TIMED_OUT), "timed-out");
    }
}
