//! Stress of the borrowed-read invariant (`wtm_stm::tvar`, module docs): a
//! read holds no count of the version it returns, and a lazy read-set
//! entry none of the object it will validate against, so whoever displaces
//! that version or frees that object must first lend a count to every
//! registered attempt whose body or commit may still run.
//!
//! The eager half:
//!
//! Readers open an object, wait to be aborted by a writer, and then — as
//! zombies, which is the case the invariant exists for — keep re-validating
//! the checksummed, heap-owning value through their borrow while the
//! writers go on overwriting the object and recycling its displaced
//! versions through the locator's `spare`. A version recycled or freed
//! under a zombie shows up as a checksum mismatch (or, under a sanitizer,
//! as the use-after-free it is).
//!
//! The lazy half: no writer aborts a lazy reader, so its readers hold their
//! borrow as `Active` attempts across a counted number of commits — every
//! one of which lends them the version it displaces — and then either
//! commit read-only with the loans in hand or doom themselves and go on
//! validating; handles are dropped under the reader, by itself and by
//! another thread, between its read and its commit's validation; and a
//! counted value type reconciles every loan's drop.
//!
//! Meant for `--release` (CI's "Epoch
//! reclamation model + stress" step); debug builds run it too, with the
//! engine's opacity self-check on.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

use wtm_stm::{CmDispatch, EngineKind, Stm, TVar, TxError, TxObject};

const READERS: usize = 2;
const WRITES: u64 = 30_000;
/// Re-validations a reader makes after it finds itself aborted.
const ZOMBIE_CHECKS: u64 = 64;
const SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Slot words per object: room for every thread of this binary, whichever
/// test runs first.
const SLOTS: usize = 64;

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

/// 40 bytes: a boxed write-set entry, whose value each commit copies
/// into the recycled `spare` allocation when nobody else holds it.
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
    wtm_stm::reserve_reader_slots(SLOTS);
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
    wtm_stm::reserve_reader_slots(SLOTS);
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
    wtm_stm::reserve_reader_slots(SLOTS);
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

// ---------------------------------------------------------------------------
// The lazy half
// ---------------------------------------------------------------------------

/// Commits a lazy reader sits out under its borrow, per phase: enough for
/// the version it read to be displaced, parked in `spare` and offered for
/// recycling more than once.
const DISPLACEMENTS: u64 = 4;

/// Validate `v` until `progress` has advanced by [`DISPLACEMENTS`] (or the
/// run stops).
fn validate_across_commits<V: Checked>(v: &V, progress: &AtomicU64, stop: &AtomicBool, what: &str) {
    let from = progress.load(Ordering::Acquire);
    while progress.load(Ordering::Acquire) < from + DISPLACEMENTS && !stop.load(Ordering::Acquire) {
        assert!(v.intact(), "{what}");
        std::thread::yield_now();
    }
    assert!(v.intact(), "{what}");
}

/// One committer overwrites `tv` `WRITES` times — blind writes, which build
/// the new version in the recycled `spare`, alternating with modifies,
/// which base their shadow on a borrow of their own; `READERS` lazy readers
/// hold one borrow each across [`DISPLACEMENTS`] commits as `Active`
/// attempts, then commit read-only with what they were lent (even rounds)
/// or doom themselves and validate across as many commits again. Returns
/// (read-only commits, doomed rounds).
fn overwrite_under_lazy_readers<V: Checked>(tv: TVar<V>) -> (u64, u64) {
    let stm = Stm::with_engine(CmDispatch::AbortSelf, READERS + 1, EngineKind::Lazy);
    let stop = AtomicBool::new(false);
    let progress = AtomicU64::new(0);
    let (committed, doomed) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|s| {
        for r in 0..READERS {
            let (ctx, tv, stop, progress) = (stm.thread(r), &tv, &stop, &progress);
            let (committed, doomed) = (&committed, &doomed);
            s.spawn(move || {
                let mut round = r as u64;
                while !stop.load(Ordering::Acquire) {
                    round += 1;
                    let _ = ctx.atomic_with_budget(1, &mut |tx| {
                        let v = tx.read(tv)?;
                        validate_across_commits(&*v, progress, stop, "torn under an Active reader");
                        assert!(tx.state().is_active(), "nobody aborts a lazy reader");
                        if round.is_multiple_of(2) {
                            committed.fetch_add(1, Ordering::Relaxed);
                            return Ok(()); // read-only: commits on its watermark
                        }
                        let doom = tx.abort_self();
                        validate_across_commits(&*v, progress, stop, "torn under a doomed reader");
                        doomed.fetch_add(1, Ordering::Relaxed);
                        Err(doom)
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
            progress.fetch_add(1, Ordering::Release);
            if n % 16 == 0 {
                std::thread::yield_now();
            }
        }
    });
    assert!(tv.sample().intact());
    assert_eq!(
        stm.aggregate().commits,
        WRITES + committed.load(Ordering::Relaxed)
    );
    (committed.into_inner(), doomed.into_inner())
}

fn run_lazy<V: Checked>(what: &'static str, slot_count: Option<usize>) {
    let _standing_down = watchdog(what);
    wtm_stm::reserve_reader_slots(SLOTS);
    let tv = match slot_count {
        None => TVar::new(V::make(0)),
        Some(n) => TVar::new_with_slots_for_test(V::make(0), n),
    };
    let (committed, doomed) = overwrite_under_lazy_readers(tv);
    assert!(
        committed > 0 && doomed > 0,
        "{what}: {committed} read-only commits, {doomed} doomed rounds — the run proves nothing"
    );
    eprintln!("{what}: {committed} commits with loans in hand, {doomed} doomed bodies");
}

#[test]
fn lazy_inline_values_on_the_slot_path() {
    run_lazy::<Vec<u64>>("lazy inline/slots", None);
}

#[test]
fn lazy_boxed_values_on_the_slot_path() {
    run_lazy::<Wide>("lazy boxed/slots", None);
}

#[test]
fn lazy_inline_values_on_the_overflow_path() {
    run_lazy::<Vec<u64>>("lazy inline/overflow", Some(0));
}

#[test]
fn lazy_boxed_values_on_the_overflow_path() {
    run_lazy::<Wide>("lazy boxed/overflow", Some(0));
}

#[test]
fn a_handle_created_read_and_dropped_inside_the_closure() {
    // The reader is the only attempt registered on the object it drops:
    // the drop lends version and allocation to the attempt that caused
    // it, and the commit that follows validates a read of freed fields.
    let _standing_down = watchdog("handle local to the closure");
    wtm_stm::reserve_reader_slots(SLOTS);
    for engine in EngineKind::ALL {
        for slot_count in [SLOTS, 0] {
            let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
            let ctx = stm.thread(0);
            let sink: TVar<u64> = TVar::new(0);
            for n in 0..2_000u64 {
                ctx.atomic(|tx| {
                    let local: TVar<Vec<u64>> =
                        TVar::new_with_slots_for_test(Checked::make(n), slot_count);
                    let v = tx.read(&local)?;
                    drop(local);
                    // Whatever reuses a freed allocation first.
                    let churn: Vec<TVar<Vec<u64>>> =
                        (0..4).map(|i| TVar::new(vec![n ^ i; 25])).collect();
                    assert!(v.intact(), "{engine}: freed with its handle");
                    drop(churn);
                    assert!(v.intact(), "{engine}: freed with its handle");
                    // A write, so that a lazy commit validates its reads.
                    tx.write(&sink, n)
                });
            }
            assert_eq!(*sink.sample(), 1_999);
            assert_eq!(stm.aggregate().aborts, 0, "{engine}");
        }
    }
}

#[test]
fn handles_a_second_thread_drops_between_a_read_and_its_validation() {
    // The shape of a `Vec<TVar>` somebody clears while a transaction that
    // walked it is still running: the reader holds borrows of the values
    // and, in its read set, pointers into the objects, and both must last
    // through its commit.
    let _standing_down = watchdog("handles dropped by a second thread");
    wtm_stm::reserve_reader_slots(SLOTS);
    const ROUNDS: u64 = 1_500;
    const WIDTH: u64 = 8;
    for slot_count in [SLOTS, 0] {
        let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, EngineKind::Lazy);
        let fill = |round: u64| -> Vec<TVar<Vec<u64>>> {
            (0..WIDTH)
                .map(|i| {
                    TVar::new_with_slots_for_test(Checked::make(round * WIDTH + i), slot_count)
                })
                .collect()
        };
        let shared = Mutex::new(fill(0));
        // Reader and clearer meet twice a round: all read / all dropped.
        let turn = Barrier::new(2);
        let sink: TVar<u64> = TVar::new(0);
        std::thread::scope(|s| {
            let (shared, turn) = (&shared, &turn);
            s.spawn(move || {
                for round in 1..=ROUNDS {
                    turn.wait();
                    let dropped = std::mem::replace(&mut *shared.lock().unwrap(), fill(round));
                    drop(dropped);
                    turn.wait();
                }
            });
            let ctx = stm.thread(0);
            for round in 1..=ROUNDS {
                ctx.atomic(|tx| {
                    let vs = {
                        let handles = shared.lock().unwrap();
                        let mut vs = Vec::new();
                        for tv in handles.iter() {
                            vs.push(tx.read(tv)?);
                        }
                        vs
                    };
                    turn.wait();
                    turn.wait(); // every handle just read is gone
                    assert!(vs.iter().all(|v| v.intact()), "freed with its handle");
                    tx.write(&sink, round)
                });
            }
        });
        assert_eq!(*sink.sample(), ROUNDS);
        assert_eq!(stm.aggregate().aborts, 0, "nothing was overwritten");
    }
}

/// Versions of [`Counted`] alive, process-wide.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// A checksummed value that counts itself: every construction and clone
/// up, every drop down.
struct Counted(Vec<u64>);

impl Counted {
    fn make(seed: u64) -> Self {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Counted(Checked::make(seed))
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        LIVE.fetch_add(1, Ordering::SeqCst);
        Counted(self.0.clone())
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        assert!(self.0.intact(), "dropped twice, or after its memory went");
        LIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run `step` until `done()`, ten seconds at most.
fn until(mut done: impl FnMut() -> bool, mut step: impl FnMut()) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        step();
    }
    true
}

#[test]
fn a_read_only_lazy_commit_holding_loans_leaks_none_of_them() {
    let _standing_down = watchdog("loans of committed attempts");
    wtm_stm::reserve_reader_slots(SLOTS);
    const ROUNDS: u64 = 200;
    let stm = Stm::with_engine(CmDispatch::AbortSelf, 2, EngineKind::Lazy);
    let tv = TVar::new(Counted::make(0));
    let progress = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let most_held = AtomicI64::new(0);
    std::thread::scope(|s| {
        let (tv, progress, stop, most_held) = (&tv, &progress, &stop, &most_held);
        let writer_ctx = stm.thread(1);
        s.spawn(move || {
            let _stop = StopReaders(stop);
            let mut n = 0;
            // As many commits as the reader wants to sit out.
            while progress.load(Ordering::Acquire) < ROUNDS * DISPLACEMENTS {
                n += 1;
                writer_ctx.atomic(|tx| tx.write(tv, Counted::make(n)));
                progress.fetch_add(1, Ordering::Release);
                std::thread::yield_now();
            }
        });
        let ctx = stm.thread(0);
        for _ in 0..ROUNDS {
            ctx.atomic(|tx| {
                let v = tx.read(tv)?;
                validate_across_commits(&v.0, progress, stop, "torn under an Active reader");
                // The object's version, its spare, and what this attempt
                // was lent.
                most_held.fetch_max(LIVE.load(Ordering::SeqCst), Ordering::Relaxed);
                assert!(tx.state().is_active());
                Ok(()) // commits with the loans in hand
            });
        }
        while !stop.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // The writer is done. Every record that committed with loans is
        // parked in this thread's ring: cycling the ring reuses them, and
        // reuse is what releases a committed attempt's loans.
        let cycled = until(
            || LIVE.load(Ordering::SeqCst) <= 2,
            || {
                for _ in 0..64 {
                    ctx.atomic(|tx| tx.read(tv).map(|_| ()));
                }
            },
        );
        assert!(
            cycled,
            "{} versions still alive after the reader cycled its records: a loan \
             outlived its record's reuse",
            LIVE.load(Ordering::SeqCst)
        );
    });
    assert!(
        most_held.into_inner() > 2,
        "no attempt ever held a loan — the run proves nothing"
    );
    drop(tv);
    drop(stm);
    // The writer has exited and withdrawn its attempt; nothing is deferred.
    assert_eq!(LIVE.load(Ordering::SeqCst), 0, "versions leaked");
}
