//! The recording flag gates `emit`, and `drain` collects every thread's
//! ring. The flag is process-global and the crate's unit tests run
//! transactions on other threads, which would record while it is on, so
//! this test has a binary of its own.

use wtm_stm::trace::{self, Event, EventKind};

#[test]
fn global_emit_respects_toggle_and_drains_across_threads() {
    trace::reset();
    trace::emit(Event::instant(EventKind::TxBegin, 1, 0, 0, 0));
    assert!(
        !trace::drain().iter().any(|e| e.ts_ns == 1),
        "emit while disabled must drop the event"
    );
    trace::set_enabled(true);
    std::thread::scope(|s| {
        for t in 0..3u32 {
            s.spawn(move || {
                for i in 0..10u64 {
                    trace::emit(Event::span(EventKind::Commit, 100 + i, 5, t, i, 0));
                }
            });
        }
    });
    trace::set_enabled(false);
    let events = trace::drain();
    let commits = events
        .iter()
        .filter(|e| e.kind == EventKind::Commit)
        .count();
    assert!(commits >= 30, "all three threads' events collected");
    assert!(
        events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns),
        "drain sorts by timestamp"
    );
    trace::reset();
    assert!(!trace::drain().iter().any(|e| e.kind == EventKind::Commit));
}
