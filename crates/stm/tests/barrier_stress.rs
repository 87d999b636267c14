//! Stress of the spin-then-park window barrier (`wtm_stm::sync`): no lost
//! wake-up and no generation seen twice or skipped, with as many threads
//! as CPUs and with more, and exact withdrawal when a release races a
//! deadline. Meant for `--release` (CI's "Window boundary gate"); debug
//! builds run it too, only slower.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use wtm_stm::sync::{BarrierWait, CancellableBarrier};

/// `parties` threads cross `generations` barriers with untimed waits, so a
/// lost wake-up hangs a waiter for good; the watchdog then cancels the
/// barrier and the `Cancelled` it hands out fails the test.
fn every_party_sees_every_generation(parties: usize, generations: usize) {
    let barrier = CancellableBarrier::new(parties);
    let arrivals: Vec<AtomicU32> = (0..generations).map(|_| AtomicU32::new(0)).collect();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let hung = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (barrier, hung) = (&barrier, &hung);
        s.spawn(move || {
            // Every worker dropping its sender disconnects the channel.
            if done_rx.recv_timeout(Duration::from_secs(120))
                == Err(mpsc::RecvTimeoutError::Timeout)
            {
                hung.store(true, Ordering::Relaxed);
                barrier.cancel();
            }
        });
        for p in 0..parties {
            let done_tx = done_tx.clone();
            let arrivals = &arrivals;
            s.spawn(move || {
                let _done_tx = done_tx;
                for (g, slot) in arrivals.iter().enumerate() {
                    slot.fetch_add(1, Ordering::Relaxed);
                    // Uneven arrival: somebody is always late, sometimes
                    // past the polling budget.
                    if (g + p).is_multiple_of(1024) {
                        std::thread::sleep(Duration::from_micros(300));
                    }
                    if barrier.wait() != BarrierWait::Released {
                        return;
                    }
                    // Released exactly when generation g is complete: all
                    // of its arrivals are in (the barrier orders them
                    // before this load), none of generation g+1's can be
                    // more than everybody else's.
                    assert_eq!(slot.load(Ordering::Relaxed), parties as u32, "gen {g}");
                }
            });
        }
        drop(done_tx);
    });
    assert!(!hung.load(Ordering::Relaxed), "lost wake-up: a waiter hung");
    assert_eq!(barrier.generation(), generations as u64);
    assert_eq!(barrier.arrived(), 0);
    assert!(arrivals
        .iter()
        .all(|a| a.load(Ordering::Relaxed) == parties as u32));
}

#[test]
fn four_parties_twenty_thousand_generations() {
    every_party_sees_every_generation(4, 20_000);
}

#[test]
fn eight_oversubscribed_parties_two_thousand_generations() {
    every_party_sees_every_generation(8, 2_000);
}

#[test]
fn a_release_racing_the_deadline_counts_the_waiter_or_nobody() {
    // A's deadline and B's arrival are aimed at the same instant, swept
    // across the polling budget and past it. Whichever wins, the two must
    // agree: the release counted A (both `Released`), or A withdrew first
    // and B, alone, times out as well. `Released` for one and `TimedOut`
    // for the other would be a withdrawn arrival that was counted anyway.
    let mut released = 0;
    for round in 0..300u64 {
        let barrier = &CancellableBarrier::new(2);
        let aim = Duration::from_micros(20 + round % 30 * 10); // 20..310 us
        let a_returned = &AtomicBool::new(false);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(move || {
                let res = barrier.wait_timeout(aim);
                a_returned.store(true, Ordering::Release);
                res
            });
            let b = s.spawn(move || {
                // (A descheduled B may find A been and gone: then B waits
                // alone and both time out, which is still agreement.)
                while barrier.arrived() == 0 && !a_returned.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                let t0 = std::time::Instant::now();
                // A notices its deadline up to one yield late: lean B's
                // arrival 0..5 us past it so both sides win some rounds.
                while t0.elapsed() < aim + Duration::from_nanos(round / 30 * 500) {
                    std::hint::spin_loop();
                }
                barrier.wait_timeout(Duration::from_millis(2))
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, b, "round {round}, aim {aim:?}");
        assert_ne!(a, BarrierWait::Cancelled);
        assert_eq!(barrier.arrived(), 0, "round {round}");
        released += u64::from(a == BarrierWait::Released);
        assert_eq!(barrier.generation(), u64::from(a == BarrierWait::Released));
    }
    eprintln!("release won {released} of 300 races");
}
