//! Stress of the borrowed-read invariant (`wtm_stm::tvar`, module docs): an
//! eager read holds no count of the version it returns, so whoever
//! displaces that version must first lend a count to every registered
//! attempt whose body may still be running.
//!
//! Readers open an object, wait to be aborted by a writer, and then — as
//! zombies, which is the case the invariant exists for — keep re-validating
//! the checksummed, heap-owning value through their borrow while the
//! writers go on overwriting the object and recycling its displaced
//! versions through the locator's `spare`. A version recycled or freed
//! under a zombie shows up as a checksum mismatch (or, under a sanitizer,
//! as the use-after-free it is). Meant for `--release` (CI's "Epoch
//! reclamation model + stress" step); debug builds run it too, with the
//! engine's opacity self-check on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use wtm_stm::{CmDispatch, EngineKind, Stm, TVar, TxError, TxObject};

const READERS: usize = 2;
const WRITES: u64 = 30_000;
/// Re-validations a reader makes after it finds itself aborted.
const ZOMBIE_CHECKS: u64 = 64;
const SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// A value that owns heap memory and can tell whether it is intact.
trait Checked: TxObject {
    fn make(seed: u64) -> Self;
    fn intact(&self) -> bool;
}

fn checksum(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(SALT, |acc, w| acc.rotate_left(7).wrapping_add(*w))
}

/// 24 bytes: stored inline in the write set, published by `clone_from`
/// into the recycled `spare` allocation.
impl Checked for Vec<u64> {
    fn make(seed: u64) -> Self {
        let mut words: Vec<u64> = (0..24).map(|i| seed.wrapping_mul(SALT) ^ i).collect();
        words.push(checksum(&words));
        words
    }

    fn intact(&self) -> bool {
        self.split_last()
            .is_some_and(|(sum, words)| words.len() == 24 && *sum == checksum(words))
    }
}

/// 40 bytes: a boxed shadow, built in the recycled `spare` allocation
/// itself when the locator's count says nobody else holds it.
#[derive(Clone)]
struct Wide {
    words: Box<[u64]>,
    sum: u64,
    pad: [u64; 2],
}

impl Checked for Wide {
    fn make(seed: u64) -> Self {
        let words: Box<[u64]> = (0..24).map(|i| seed.wrapping_mul(SALT) ^ i).collect();
        Wide {
            sum: checksum(&words),
            words,
            pad: [seed; 2],
        }
    }

    fn intact(&self) -> bool {
        self.words.len() == 24 && self.sum == checksum(&self.words) && self.pad[0] == self.pad[1]
    }
}

/// Fails the whole process when the run has not finished in two minutes:
/// a hung engine must read as a failure with a message, not as a CI job
/// that times out. Dropping the returned sender stands the watchdog down.
fn watchdog(what: &'static str) -> mpsc::Sender<()> {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        if done_rx.recv_timeout(Duration::from_secs(120)) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("borrowed_read_stress: {what} hung for 120 s");
            std::process::abort();
        }
    });
    done_tx
}

/// Stops the readers when the writer is done — or has panicked.
struct StopReaders<'a>(&'a AtomicBool);

impl Drop for StopReaders<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// One writer overwrites `tv` `WRITES` times (killing every reader it
/// meets: `AbortEnemy`), alternating wholesale writes and in-place
/// modifies; `READERS` readers validate through their borrow before and
/// after each abort. Returns how many validations ran on a dead attempt.
fn overwrite_under_zombie_readers<V: Checked>(tv: TVar<V>) -> u64 {
    let stm = Stm::new(CmDispatch::AbortEnemy, READERS + 1);
    let stop = AtomicBool::new(false);
    let zombie_checks = AtomicU64::new(0);
    std::thread::scope(|s| {
        for r in 0..READERS {
            let (ctx, tv, stop, zombie_checks) = (stm.thread(r), &tv, &stop, &zombie_checks);
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let _ = ctx.atomic_with_budget(1, &mut |tx| {
                        let v = tx.read(tv)?;
                        assert!(v.intact(), "torn on arrival");
                        while tx.state().is_active() && !stop.load(Ordering::Acquire) {
                            assert!(v.intact(), "torn under an Active reader");
                            std::thread::yield_now();
                        }
                        if tx.state().is_active() {
                            return Ok(());
                        }
                        // Aborted: the writer is past us, and every commit
                        // it makes from here displaces another version.
                        for i in 0..ZOMBIE_CHECKS {
                            assert!(v.intact(), "version recycled or freed under a zombie");
                            if i % 8 == 7 {
                                std::thread::yield_now();
                            }
                        }
                        zombie_checks.fetch_add(ZOMBIE_CHECKS, Ordering::Relaxed);
                        Err::<(), _>(TxError::Aborted)
                    });
                }
            });
        }
        let (ctx, tv) = (stm.thread(READERS), &tv);
        let _stop = StopReaders(&stop);
        for n in 0..WRITES {
            if n % 2 == 0 {
                ctx.atomic(|tx| tx.write(tv, V::make(n)));
            } else {
                ctx.atomic(|tx| tx.modify(tv, |v| *v = V::make(n)));
            }
            if n % 64 == 0 {
                std::thread::yield_now(); // let readers register again
            }
        }
    });
    assert!(tv.sample().intact());
    zombie_checks.into_inner()
}

fn run<V: Checked>(what: &'static str, slot_count: Option<usize>) {
    let _standing_down = watchdog(what);
    // Room for every thread of this binary, whichever test runs first.
    wtm_stm::reserve_reader_slots(4 * (READERS + 1));
    let tv = match slot_count {
        None => TVar::new(V::make(0)),
        Some(n) => TVar::new_with_slots_for_test(V::make(0), n),
    };
    let zombie_checks = overwrite_under_zombie_readers(tv);
    assert!(
        zombie_checks > 0,
        "{what}: no reader was ever aborted under its borrow — the run proves nothing"
    );
    eprintln!("{what}: {zombie_checks} validations through a dead attempt's borrow");
}

#[test]
fn inline_values_on_the_slot_path() {
    run::<Vec<u64>>("inline/slots", None);
}

#[test]
fn boxed_values_on_the_slot_path() {
    run::<Wide>("boxed/slots", None);
}

#[test]
fn inline_values_on_the_overflow_path() {
    // No slot words: every reader registers on the mutex-guarded list.
    run::<Vec<u64>>("inline/overflow", Some(0));
}

#[test]
fn boxed_values_on_the_overflow_path() {
    run::<Wide>("boxed/overflow", Some(0));
}

/// A version that owns the only handle of another object: the shape of a
/// list node about to be unlinked.
#[derive(Clone)]
struct Holder {
    inner: TVar<Vec<u64>>,
}

#[test]
fn a_value_read_through_a_handle_that_is_then_dropped() {
    let _standing_down = watchdog("dropped handle");
    wtm_stm::reserve_reader_slots(4 * (READERS + 1));
    let stm = Stm::new(CmDispatch::AbortEnemy, READERS + 1);
    let fresh = |n: u64| Holder {
        inner: TVar::new(Checked::make(n)),
    };
    let outer = TVar::new(fresh(0));
    let stop = AtomicBool::new(false);
    let zombie_checks = AtomicU64::new(0);
    std::thread::scope(|s| {
        for r in 0..READERS {
            let (ctx, outer, stop, zombie_checks) = (stm.thread(r), &outer, &stop, &zombie_checks);
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let _ = ctx.atomic_with_budget(1, &mut |tx| {
                        // The handle is opened where it lies, in the
                        // version just read, as the List walk does.
                        let holder = tx.read(outer)?;
                        let v = tx.read(&holder.inner)?;
                        while tx.state().is_active() && !stop.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        if tx.state().is_active() {
                            return Ok(());
                        }
                        // The writer replaced `outer`'s version; once that
                        // is recycled, `inner`'s last handle is gone.
                        for _ in 0..ZOMBIE_CHECKS {
                            assert!(v.intact(), "value freed with its object's last handle");
                            assert!(holder.inner.id() != 0);
                            std::thread::yield_now();
                        }
                        zombie_checks.fetch_add(ZOMBIE_CHECKS, Ordering::Relaxed);
                        Err::<(), _>(TxError::Aborted)
                    });
                }
            });
        }
        let (ctx, outer) = (stm.thread(READERS), &outer);
        let _stop = StopReaders(&stop);
        for n in 1..=WRITES / 4 {
            ctx.atomic(|tx| tx.write(outer, fresh(n)));
            if n % 16 == 0 {
                std::thread::yield_now();
            }
        }
    });
    assert!(outer.sample().inner.sample().intact());
    assert!(zombie_checks.into_inner() > 0, "no reader was ever aborted");
}

#[test]
fn a_lazy_engine_writing_under_an_eager_engines_readers_stays_memory_safe() {
    // Unsupported use — the two engines do not see each other's conflicts,
    // so the eager readers are never aborted and what they read is no
    // snapshot — but it is safe Rust, so it must not be a use-after-free:
    // a lazy write-back lends what it displaces to `Active` readers.
    let _standing_down = watchdog("mixed engines");
    wtm_stm::reserve_reader_slots(4 * (READERS + 1));
    let eager = Stm::new(CmDispatch::AbortSelf, READERS);
    let lazy = Stm::with_engine(CmDispatch::AbortSelf, 1, EngineKind::Lazy);
    let tv: TVar<Vec<u64>> = TVar::new(Checked::make(0));
    let stop = AtomicBool::new(false);
    let checks = AtomicU64::new(0);
    std::thread::scope(|s| {
        for r in 0..READERS {
            let (ctx, tv, stop, checks) = (eager.thread(r), &tv, &stop, &checks);
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    ctx.atomic(|tx| {
                        let v = tx.read(tv)?;
                        for _ in 0..ZOMBIE_CHECKS {
                            assert!(v.intact(), "version recycled under an Active eager reader");
                            std::thread::yield_now();
                        }
                        checks.fetch_add(ZOMBIE_CHECKS, Ordering::Relaxed);
                        Ok(())
                    });
                }
            });
        }
        let (ctx, tv) = (lazy.thread(0), &tv);
        let _stop = StopReaders(&stop);
        for n in 1..=WRITES {
            ctx.atomic(|tx| tx.write(tv, Checked::make(n)));
            if n % 64 == 0 {
                std::thread::yield_now();
            }
        }
    });
    assert!(tv.sample().intact());
    assert!(checks.into_inner() > 0);
}
