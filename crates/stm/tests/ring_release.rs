//! The trace registry keeps a ring only while its thread lives: `reset`
//! drops the rings of threads that have exited, so repeated traced runs
//! hold one ring per live thread, not one per thread ever traced. The
//! registry is process-global, so this test has a binary of its own.

use std::sync::mpsc;

use wtm_stm::trace::{self, Event, EventKind};

fn emit_commits(tid: u32, n: u64) {
    for i in 0..n {
        trace::emit(Event::span(EventKind::Commit, 1 + i, 1, tid, i, 0));
    }
}

#[test]
fn reset_drops_the_rings_of_exited_threads() {
    const ROUNDS: u32 = 5;
    const WORKERS: u32 = 3;
    trace::set_enabled(true);
    // One thread lives through every round: its ring must stay.
    let (stop, stopped) = mpsc::channel::<()>();
    let (ready, is_ready) = mpsc::channel::<()>();
    let survivor = std::thread::spawn(move || {
        emit_commits(u32::MAX, 1);
        ready.send(()).unwrap();
        stopped.recv().unwrap();
    });
    is_ready.recv().unwrap();

    for round in 0..ROUNDS {
        let workers: Vec<_> = (0..WORKERS)
            .map(|t| std::thread::spawn(move || emit_commits(round * WORKERS + t, 10)))
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(trace::registered_rings(), 1 + WORKERS as usize);
        let events = trace::drain();
        let mine = |e: &&Event| e.tid != u32::MAX;
        assert_eq!(events.iter().filter(mine).count(), 10 * WORKERS as usize);
        assert_eq!(trace::dropped_total(), 0);
        trace::reset();
        assert_eq!(
            trace::registered_rings(),
            1,
            "round {round}: only the live thread's ring stays registered"
        );
        assert!(trace::drain().is_empty(), "reset clears the live ring");
    }

    stop.send(()).unwrap();
    survivor.join().unwrap();
    trace::reset();
    assert_eq!(trace::registered_rings(), 0);
    trace::set_enabled(false);
}
