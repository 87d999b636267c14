//! Engine handle, per-thread contexts, and the greedy retry loop.
//!
//! [`Stm`] bundles the contention manager and one [`ThreadStats`] per
//! worker. Worker thread `i` obtains a [`ThreadCtx`] via [`Stm::thread`]
//! and runs transactions with [`ThreadCtx::atomic`]: the closure is
//! retried until it commits, a new [`TxState`] per attempt, *immediately*
//! after every abort — the greedy contention-management model the paper
//! assumes ("if a transaction aborts it then immediately restarts and
//! attempts to commit again", §II-A).
//!
//! The retry loop is allocation-lean: each [`ThreadCtx`] keeps one spare
//! `TxState`, the one the registry handed back when the previous attempt
//! republished (the state from two attempts back), and an attempt reuses
//! its allocation whenever nothing else still references it
//! (`Arc::get_mut` proves exclusivity — a competitor's clone in flight
//! forces a fresh allocation, so recycling can never resurrect an attempt
//! some competitor still sees). A steady loop therefore cycles two states.
//! A thread past [`slots::MAX_SLOTS`] has no registry record to hand a
//! state back, so each of its attempts allocates: the declared slow path.
//! Attempt ids come from the process-global source in [`crate::slots`] —
//! never reused, so recycled records are indistinguishable from fresh
//! ones. Timestamps use the
//! coarse [`crate::clockns`] clock: one call at transaction start and one
//! per attempt end instead of several `Instant::now()` syscalls. The
//! start stamp is also the transaction's age ([`TxState::age_key`]),
//! which Greedy and Priority order by.
//!
//! ## Shared-line budget of a committed transaction
//!
//! A committed transaction performs no read-modify-write on a cache line
//! another thread also RMWs: its age is a read of this core's clock, the
//! registry record the owner locks to republish is its own line (a writer
//! locks it only to resolve one of this thread's reader words), attempt
//! ids come from thread-local blocks, and a first read stores one word of
//! the reader's own row. The debug `probe` counters pin the read path
//! under every classic manager (`fixed_path_shared_rmw_budget` below).

use std::cell::Cell;
use std::sync::Arc;

use crate::clockns;
use crate::dispatch::CmDispatch;
use crate::engine::{EngineKind, LazyRead};
use crate::slots;
use crate::stats::{StatsSnapshot, ThreadStats};
use crate::trace::{self, Event, EventKind};
use crate::txn::{TxError, TxResult, Txn, Unwound};
use crate::txstate::TxState;
use crate::writeset::WriteEntry;

/// The STM engine: one per experiment run.
pub struct Stm {
    cm: CmDispatch,
    engine: EngineKind,
    threads: Box<[ThreadStats]>,
}

impl Stm {
    /// Build an engine for `num_threads` workers using contention policy
    /// `cm`, running the eager (paper-default) protocol; use
    /// [`Stm::with_engine`] to choose. A [`CmDispatch`] variant has its
    /// hot hooks called directly (the harness's `build_manager` makes one
    /// by name); an `Arc` of any other
    /// [`ContentionManager`](crate::ContentionManager) is dispatched
    /// virtually through [`CmDispatch::Dyn`].
    pub fn new(cm: impl Into<CmDispatch>, num_threads: usize) -> Self {
        Self::with_engine(cm, num_threads, EngineKind::Eager)
    }

    /// Build an engine for `num_threads` workers with an explicit
    /// concurrency-control protocol ([`EngineKind`]): eager DSTM2-style
    /// (the paper's substrate) or TL2/STO-style lazy commit-time locking.
    pub fn with_engine(cm: impl Into<CmDispatch>, num_threads: usize, engine: EngineKind) -> Self {
        assert!(num_threads >= 1, "need at least one thread");
        Stm {
            cm: cm.into(),
            engine,
            threads: (0..num_threads).map(|_| ThreadStats::new()).collect(),
        }
    }

    /// The installed contention manager.
    pub fn cm(&self) -> &CmDispatch {
        &self.cm
    }

    /// Which concurrency-control protocol this engine runs.
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Number of worker slots.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The execution context for worker `thread_id` (0-based).
    pub fn thread(&self, thread_id: usize) -> ThreadCtx<'_> {
        assert!(
            thread_id < self.threads.len(),
            "thread id {thread_id} out of range ({} workers)",
            self.threads.len()
        );
        ThreadCtx {
            stm: self,
            thread_id,
            spare: Cell::new(None),
            reads_buf: Cell::new(None),
            writes_buf: Cell::new(None),
            #[cfg(debug_assertions)]
            read_versions_buf: Cell::new(None),
        }
    }

    /// Sum of all workers' metrics. `wall` is left zero — the harness
    /// stamps the measured interval.
    pub fn aggregate(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for t in self.threads.iter() {
            total.merge(&t.snapshot());
        }
        total
    }
}

thread_local! {
    /// Set while this OS thread is inside [`ThreadCtx::atomic`].
    static IN_ATOMIC: Cell<bool> = const { Cell::new(false) };
}

/// Marks this OS thread as inside an `atomic` call until dropped — by
/// return or by a panicking body's unwind.
struct InAtomic;

impl InAtomic {
    fn enter() -> Self {
        // One registry record per OS thread: an inner transaction's
        // republish would withdraw the outer attempt from under its
        // running body. Writers would stop seeing its reads (silently
        // wrong) and take its body for finished (its borrowed reads would
        // dangle).
        assert!(
            !IN_ATOMIC.replace(true),
            "nested `atomic` on one thread: a transaction is already running here \
             (start the inner one on another thread, or do its work in the outer closure)"
        );
        InAtomic
    }
}

impl Drop for InAtomic {
    fn drop(&mut self) {
        IN_ATOMIC.set(false);
    }
}

/// Per-worker execution context; cheap to construct, one per worker
/// (each worker must use its own `thread_id`).
pub struct ThreadCtx<'a> {
    stm: &'a Stm,
    thread_id: usize,
    /// The state the registry handed back at the last republish: the next
    /// attempt runs in its allocation if nothing else still holds it.
    spare: Cell<Option<Arc<TxState>>>,
    /// Pooled read-set buffer for the lazy engine (stays `None`-cycling
    /// with zero capacity under the eager engine, which never reads it).
    reads_buf: Cell<Option<Vec<LazyRead>>>,
    /// Pooled write-set buffer: a transaction wider than any before it
    /// grows it once, and every later attempt reuses the capacity.
    writes_buf: Cell<Option<Vec<WriteEntry>>>,
    /// Pooled buffer for the debug-only opacity self-check in `Txn`.
    #[cfg(debug_assertions)]
    read_versions_buf: Cell<Option<Vec<(u64, usize, bool)>>>,
}

/// Take a pooled per-attempt buffer (empty), or a fresh one.
fn take_buf<T>(pool: &Cell<Option<Vec<T>>>) -> Vec<T> {
    let mut buf = pool.take().unwrap_or_default();
    buf.clear();
    buf
}

/// Return a per-attempt buffer to its pool for the next attempt. Cleared
/// here (not just on take) so pooled entries don't pin the objects they
/// name between attempts.
fn put_buf<T>(pool: &Cell<Option<Vec<T>>>, mut buf: Vec<T>) {
    buf.clear();
    if buf.capacity() > 0 {
        pool.set(Some(buf));
    }
}

impl<'a> ThreadCtx<'a> {
    /// This worker's index.
    pub fn thread_id(&self) -> usize {
        self.thread_id
    }

    /// The engine.
    pub fn stm(&self) -> &'a Stm {
        self.stm
    }

    pub(crate) fn cm(&self) -> &CmDispatch {
        &self.stm.cm
    }

    pub(crate) fn stats(&self) -> &ThreadStats {
        &self.stm.threads[self.thread_id]
    }

    /// The pooled lazy read-set buffer.
    pub(crate) fn take_reads_buf(&self) -> Vec<LazyRead> {
        take_buf(&self.reads_buf)
    }

    pub(crate) fn put_reads_buf(&self, buf: Vec<LazyRead>) {
        put_buf(&self.reads_buf, buf);
    }

    /// The pooled write-set buffer.
    pub(crate) fn take_writes_buf(&self) -> Vec<WriteEntry> {
        take_buf(&self.writes_buf)
    }

    pub(crate) fn put_writes_buf(&self, buf: Vec<WriteEntry>) {
        put_buf(&self.writes_buf, buf);
    }

    /// The pooled buffer of the debug-only opacity self-check.
    #[cfg(debug_assertions)]
    pub(crate) fn take_read_versions_buf(&self) -> Vec<(u64, usize, bool)> {
        take_buf(&self.read_versions_buf)
    }

    #[cfg(debug_assertions)]
    pub(crate) fn put_read_versions_buf(&self, buf: Vec<(u64, usize, bool)>) {
        put_buf(&self.read_versions_buf, buf);
    }

    /// A `TxState` for the next attempt: the spare reset in place when
    /// nothing else references it, a fresh allocation otherwise (a shared
    /// spare is dropped).
    fn state_for_attempt(
        &self,
        attempt_id: u64,
        txn_id: u64,
        attempt: u32,
        first_start_ns: u64,
        karma: u64,
    ) -> Arc<TxState> {
        if let Some(mut spare) = self.spare.take() {
            if let Some(st) = Arc::get_mut(&mut spare) {
                st.reset_for_attempt(
                    attempt_id,
                    txn_id,
                    self.thread_id,
                    attempt,
                    first_start_ns,
                    karma,
                );
                return spare;
            }
        }
        Arc::new(TxState::new(
            attempt_id,
            txn_id,
            self.thread_id,
            attempt,
            first_start_ns,
            karma,
        ))
    }

    /// Run `body` as a transaction, retrying until it commits, and return
    /// its result. The greedy retry loop of the paper: no inter-attempt
    /// delay is added by the engine itself; back-off, random window delays,
    /// and the like are entirely the contention manager's business.
    ///
    /// # Panics
    ///
    /// If called from inside another `atomic` closure on the same OS
    /// thread, whichever [`Stm`] either belongs to: a thread publishes one
    /// running attempt, and the inner transaction would displace the
    /// outer's while its body still runs. A panic of `body` itself unwinds
    /// through here after the attempt is aborted and withdrawn — its
    /// writes are undone, nobody waits for it, and the context stays
    /// usable.
    pub fn atomic<R>(&self, mut body: impl FnMut(&mut Txn) -> TxResult<R>) -> R {
        match self.atomic_with_budget(usize::MAX, &mut body) {
            Some(r) => r,
            None => unreachable!("unbounded atomic cannot exhaust its budget"),
        }
    }

    /// Like [`atomic`](Self::atomic) but additionally records the access
    /// footprint of the *committed* attempt: `(object id, is_write)` in
    /// open order. Used by the trace-driven simulation pipeline.
    pub fn atomic_traced<R>(
        &self,
        mut body: impl FnMut(&mut Txn) -> TxResult<R>,
    ) -> (R, Vec<(u64, bool)>) {
        let mut trace = Vec::new();
        let r = self
            .atomic_inner(usize::MAX, &mut body, Some(&mut trace))
            .expect("unbounded atomic cannot exhaust its budget");
        (r, trace)
    }

    /// Like [`atomic`](Self::atomic) but gives up after `max_attempts`
    /// aborted attempts, returning `None`. Useful in tests and in
    /// experiment shutdown paths.
    ///
    /// The body always runs at least once (a budget of 0 behaves like a
    /// budget of 1); for `max_attempts >= 1` the closure runs *exactly*
    /// `max_attempts` times before giving up.
    pub fn atomic_with_budget<R>(
        &self,
        max_attempts: usize,
        body: &mut impl FnMut(&mut Txn) -> TxResult<R>,
    ) -> Option<R> {
        self.atomic_inner(max_attempts, body, None)
    }

    fn atomic_inner<R>(
        &self,
        max_attempts: usize,
        body: &mut impl FnMut(&mut Txn) -> TxResult<R>,
        mut trace: Option<&mut Vec<(u64, bool)>>,
    ) -> Option<R> {
        let _in_atomic = InAtomic::enter();
        let first_start_ns = clockns::now();
        let slot_idx = slots::my_slot_index();
        // The logical-transaction id is simply the first attempt's id:
        // globally unique, and saves a second id counter on the hot path.
        let mut txn_id = 0;
        let mut karma: u64 = 0;
        let mut attempt: u32 = 0;
        loop {
            let attempt_id = slots::next_attempt_id();
            if attempt == 0 {
                txn_id = attempt_id;
            }
            let state = self.state_for_attempt(attempt_id, txn_id, attempt, first_start_ns, karma);
            self.stm.cm.on_begin(&state, attempt > 0);
            // Make the attempt resolvable by writers scanning reader-slot
            // words; must precede the first object access in `body`. The
            // republish withdraws whatever the slot still publishes — the
            // previous attempt of this retry loop, or the *committed*
            // attempt of the previous `atomic` call (the commit path leaves
            // it published rather than paying a withdrawal of its own;
            // stale registry entries are harmless because scanners check
            // `is_active`) — and hands its reference back as the spare.
            self.spare.set(slots::republish(slot_idx, &state));
            let t0 = state.attempt_start_ns;
            trace::emit(Event::instant(
                EventKind::TxBegin,
                t0,
                self.thread_id as u32,
                txn_id,
                attempt as u64,
            ));
            let mut txn = Txn::new(state, self, slot_idx);
            if trace.is_some() {
                txn.enable_tracing();
            }
            let unwound = Unwound(&mut txn);
            let returned = body(unwound.0);
            std::mem::forget(unwound);
            let outcome = match returned {
                Ok(r) => txn.commit().map(|()| r),
                Err(e) => Err(e),
            };
            let opens = txn.opens_count();
            match outcome {
                Ok(r) => {
                    // The committed attempt stays published: this thread's
                    // next transaction withdraws it as part of its own
                    // republish, saving a withdrawal of its own here, and
                    // that republish hands it back as the spare.
                    if let Some(sink) = trace.as_deref_mut() {
                        *sink = txn.take_footprint();
                    }
                    txn.release_buffers();
                    let state = txn.into_state();
                    let now = clockns::now();
                    trace::emit(Event::span(
                        EventKind::Commit,
                        now,
                        now.saturating_sub(t0),
                        self.thread_id as u32,
                        txn_id,
                        attempt as u64,
                    ));
                    self.stats().record_commit(
                        opens,
                        now.saturating_sub(t0),
                        now.saturating_sub(first_start_ns),
                    );
                    // The one commit stamp: a manager's τ sample reads it
                    // rather than the clock.
                    state.set_commit_ns(now);
                    self.stm.cm.on_commit(&state);
                    return Some(r);
                }
                Err(TxError::Aborted) => {
                    // Make sure the state is terminal even if the closure
                    // bailed without the CM aborting us (e.g. user bail-out).
                    let engine_bail = txn.state().abort();
                    // `engine_bail` = nobody else aborted us and the body
                    // returned a bare `Err`: a user bail-out by taxonomy.
                    let reason = if engine_bail {
                        trace::ABORT_USER
                    } else {
                        txn.abort_reason()
                    };
                    // Roll back eagerly: fold the abort into every still-
                    // owned locator so enemies stop seeing this attempt
                    // and its allocation can recycle.
                    txn.release_write_set();
                    txn.release_buffers();
                    let state = txn.into_state();
                    // The body is over, its borrows and its read set with
                    // it: let go of what competitors lent to keep them
                    // valid. (A committed attempt needs no such step:
                    // `Committed` tells every scanner the same, and what a
                    // lazy one was lent while `Active` goes with the
                    // record's reuse.)
                    state.finish_body();
                    let now = clockns::now();
                    self.stats().record_abort(opens, now.saturating_sub(t0));
                    trace::emit(Event::span(
                        EventKind::Abort,
                        now,
                        now.saturating_sub(t0),
                        self.thread_id as u32,
                        txn_id,
                        reason,
                    ));
                    karma = state.karma();
                    self.stm.cm.on_abort(&state);
                    attempt += 1;
                    if attempt as usize >= max_attempts {
                        slots::unpublish(slot_idx);
                        return None;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm::{AbortEnemyManager, AbortSelfManager, ContentionManager};
    use crate::tvar::TVar;

    #[test]
    fn single_thread_counter_increments() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        for _ in 0..100 {
            ctx.atomic(|tx| {
                let v = *tx.read(&tv)?;
                tx.write(&tv, v + 1)
            });
        }
        assert_eq!(*tv.sample(), 100);
        let snap = stm.aggregate();
        assert_eq!(snap.commits, 100);
        assert_eq!(snap.aborts, 0);
    }

    #[test]
    fn read_your_writes() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let tv: TVar<u64> = TVar::new(5);
        let ctx = stm.thread(0);
        let observed = ctx.atomic(|tx| {
            tx.write(&tv, 9)?;
            let v = *tx.read(&tv)?;
            Ok(v)
        });
        assert_eq!(observed, 9);
        assert_eq!(*tv.sample(), 9);
    }

    #[test]
    fn modify_applies_function() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let tv: TVar<Vec<u32>> = TVar::new(vec![1, 2]);
        let ctx = stm.thread(0);
        ctx.atomic(|tx| tx.modify(&tv, |v| v.push(3)));
        assert_eq!(*tv.sample(), vec![1, 2, 3]);
    }

    #[test]
    fn multi_object_transaction_is_atomic() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let a: TVar<i64> = TVar::new(100);
        let b: TVar<i64> = TVar::new(0);
        let ctx = stm.thread(0);
        ctx.atomic(|tx| {
            let va = *tx.read(&a)?;
            let vb = *tx.read(&b)?;
            tx.write(&a, va - 30)?;
            tx.write(&b, vb + 30)
        });
        assert_eq!(*a.sample() + *b.sample(), 100);
        assert_eq!(*b.sample(), 30);
    }

    #[test]
    fn concurrent_counter_no_lost_updates_abort_self() {
        concurrent_counter(Arc::new(AbortSelfManager), 4, 200);
    }

    #[test]
    fn concurrent_counter_no_lost_updates_abort_enemy() {
        concurrent_counter(Arc::new(AbortEnemyManager), 4, 200);
    }

    /// `threads` workers increment one shared counter `per_thread` times
    /// each under `cm`; nothing may be lost.
    fn concurrent_counter(cm: Arc<dyn ContentionManager>, threads: usize, per_thread: u64) {
        let stm = Stm::new(cm, threads);
        let tv: TVar<u64> = TVar::new(0);
        std::thread::scope(|s| {
            for i in 0..threads {
                let ctx = stm.thread(i);
                let tv = tv.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        ctx.atomic(|tx| {
                            let v = *tx.read(&tv)?;
                            tx.write(&tv, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(*tv.sample(), threads as u64 * per_thread);
        let snap = stm.aggregate();
        assert_eq!(snap.commits, threads as u64 * per_thread);
    }

    #[test]
    fn budgeted_atomic_gives_up() {
        // A transaction that always self-aborts exhausts its budget.
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let ctx = stm.thread(0);
        let out: Option<()> = ctx.atomic_with_budget(3, &mut |tx| Err(tx.abort_self()));
        assert!(out.is_none());
        assert!(stm.aggregate().aborts >= 3);
    }

    #[test]
    fn budget_is_an_exact_attempt_count() {
        // Regression: `attempt > max_attempts` used to allow
        // `max_attempts + 1` runs of the body.
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let ctx = stm.thread(0);
        let mut runs = 0u64;
        let out: Option<()> = ctx.atomic_with_budget(3, &mut |tx| {
            runs += 1;
            Err(tx.abort_self())
        });
        assert!(out.is_none());
        assert_eq!(runs, 3, "budget of 3 must run the body exactly 3 times");
        assert_eq!(stm.aggregate().aborts, 3);

        // Budget 0 still runs the body once (do-while semantics relied on
        // by rollback tests).
        let mut runs0 = 0u64;
        let out0: Option<()> = ctx.atomic_with_budget(0, &mut |tx| {
            runs0 += 1;
            Err(tx.abort_self())
        });
        assert!(out0.is_none());
        assert_eq!(runs0, 1);
    }

    /// Transactions per measured loop of [`assert_states_cycle`].
    const CYCLE_TXNS: usize = 32;

    /// Run `CYCLE_TXNS` transactions of `body` to settle the loop, then as
    /// many again, and count the distinct `TxState` allocations they
    /// touch: the registry hands an attempt back at the next republish,
    /// so a steady loop cycles two.
    fn assert_states_cycle(ctx: &ThreadCtx<'_>, mut body: impl FnMut(&mut Txn) -> TxResult<()>) {
        for _ in 0..CYCLE_TXNS {
            ctx.atomic(&mut body);
        }
        let mut ptrs = Vec::new();
        for _ in 0..CYCLE_TXNS {
            ctx.atomic(|tx| {
                ptrs.push(Arc::as_ptr(tx.state()) as usize);
                body(tx)
            });
        }
        ptrs.sort_unstable();
        ptrs.dedup();
        assert_eq!(
            ptrs.len(),
            2,
            "TxStates must be recycled: {CYCLE_TXNS} txns touched {} allocations",
            ptrs.len()
        );
    }

    #[test]
    fn txstate_pool_recycles_read_only_states() {
        // After a read-only commit the TxState is referenced only by the
        // registry, which hands it back as the spare at the next
        // republish. Every held slot index has a word in every object, so
        // the read takes the fast path whichever harness thread runs this
        // test (the overflow list would hold a `Weak` and legitimately
        // block recycling).
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let tv: TVar<u64> = TVar::new(7);
        let ctx = stm.thread(0);
        assert_states_cycle(&ctx, |tx| tx.read(&tv).map(|_| ()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn thread_id_out_of_range_panics() {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let _ = stm.thread(1);
    }

    #[test]
    fn write_txn_txstate_recycles_through_the_pool() {
        // The commit collapses every written locator (dropping its
        // TxState reference) and the next transaction's republish hands
        // the registry's back as the spare — so a steady loop of write
        // transactions runs in two states instead of allocating per
        // transaction.
        let stm = Stm::new(CmDispatch::AbortSelf, 1);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        let mut i = 0u64;
        assert_states_cycle(&ctx, move |tx| {
            i += 1;
            tx.write(&tv, i)
        });
    }

    #[test]
    fn an_attempt_state_is_held_by_the_registry_and_the_txn_only() {
        // The retry loop moves the state into the `Txn` and takes it back
        // at the attempt's end: a clone of its own would be a count RMW
        // on the way in and another on the way out.
        for engine in [EngineKind::Eager, EngineKind::Lazy] {
            let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
            let ctx = stm.thread(0);
            let mut counts = Vec::new();
            ctx.atomic(|tx| {
                counts.push(Arc::strong_count(tx.state()));
                if counts.len() == 1 {
                    return Err(TxError::Aborted);
                }
                Ok(())
            });
            assert_eq!(counts, [2, 2], "{engine:?}: first attempt, retry");
        }
    }

    #[test]
    fn a_commit_is_stamped_before_the_manager_hears_of_it() {
        struct StampCm(std::sync::atomic::AtomicU64);
        impl ContentionManager for StampCm {
            fn resolve(
                &self,
                _me: &TxState,
                _enemy: &TxState,
                _kind: crate::ConflictKind,
            ) -> crate::Resolution {
                crate::Resolution::AbortSelf
            }
            fn on_commit(&self, tx: &TxState) {
                self.0
                    .store(tx.commit_ns(), std::sync::atomic::Ordering::Relaxed);
            }
            fn name(&self) -> &str {
                "stamp"
            }
        }
        let cm = Arc::new(StampCm(Default::default()));
        let stm = Stm::new(cm.clone(), 1);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        let mut held = None;
        ctx.atomic(|tx| {
            held = Some(Arc::clone(tx.state()));
            assert_eq!(tx.state().commit_ns(), 0, "no stamp before the commit");
            tx.write(&tv, 1)
        });
        let after = clockns::now();
        let st = held.expect("the body ran");
        assert_ne!(st.commit_ns(), 0);
        assert!(st.commit_ns() >= st.attempt_start_ns);
        assert!(st.commit_ns() <= after);
        assert_eq!(
            cm.0.load(std::sync::atomic::Ordering::Relaxed),
            st.commit_ns(),
            "on_commit reads the engine's stamp"
        );
    }

    #[test]
    fn a_state_something_else_holds_is_never_reset() {
        // A competitor's resolve holds a clone of the attempt it met until
        // its verdict is applied: while it does, the record must keep
        // reading as that attempt, and later attempts run elsewhere.
        let stm = Stm::new(CmDispatch::AbortSelf, 1);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        let mut held = None;
        ctx.atomic(|tx| {
            held = Some(Arc::clone(tx.state()));
            tx.write(&tv, 0)
        });
        let held = held.expect("the body ran");
        let (id, ptr) = (held.attempt_id, Arc::as_ptr(&held) as usize);
        let mut ptrs = Vec::new();
        for i in 1..=CYCLE_TXNS as u64 {
            ctx.atomic(|tx| {
                ptrs.push(Arc::as_ptr(tx.state()) as usize);
                tx.write(&tv, i)
            });
        }
        assert_eq!(held.attempt_id, id, "a held state keeps its attempt");
        assert_eq!(held.status(), crate::TxStatus::Committed);
        assert!(
            !ptrs.contains(&ptr),
            "a later attempt ran in the held state's allocation"
        );
        drop(held);
        let mut i = 0u64;
        assert_states_cycle(&ctx, move |tx| {
            i += 1;
            tx.write(&tv, i)
        });
    }

    /// Commit `BUDGET_TXNS` single-thread read-then-write transactions on
    /// `stm` and return this thread's (slot-word stores, shared-line RMWs)
    /// of reads over them.
    #[cfg(debug_assertions)]
    fn fixed_path_read_writes(stm: &Stm) -> (u64, u64) {
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        crate::probe::take_read_slot_stores();
        crate::probe::take_read_shared_rmws();
        for _ in 0..BUDGET_TXNS {
            ctx.atomic(|tx| {
                let v = *tx.read(&tv)?;
                tx.write(&tv, v + 1)
            });
        }
        assert_eq!(stm.aggregate().aborts, 0, "one thread never retries");
        (
            crate::probe::take_read_slot_stores(),
            crate::probe::take_read_shared_rmws(),
        )
    }

    #[cfg(debug_assertions)]
    const BUDGET_TXNS: u64 = 256;

    #[cfg(debug_assertions)]
    #[test]
    fn fixed_path_shared_rmw_budget() {
        use crate::managers::Polka;
        // Whatever the manager orders by, a committed transaction's read
        // stores one word of its own row and RMWs no shared line. The last
        // row reaches Polka through `Dyn`.
        for cm in [
            CmDispatch::AbortSelf,
            CmDispatch::Polka(Polka::default()),
            CmDispatch::Greedy,
            CmDispatch::Priority,
            Arc::new(Polka::default()).into(),
        ] {
            let stm = Stm::new(cm, 1);
            assert_eq!(
                fixed_path_read_writes(&stm),
                (BUDGET_TXNS, 0),
                "{}: (slot-word stores, shared-line RMWs) of reads over {BUDGET_TXNS} \
                 committed transactions",
                stm.cm().name()
            );
        }
    }

    #[test]
    fn a_retry_keeps_its_age_key() {
        let stm = Stm::new(CmDispatch::Priority, 1);
        let ctx = stm.thread(0);
        let mut seen = Vec::new();
        ctx.atomic(|tx| {
            let st = tx.state();
            seen.push((st.age_key(), st.attempt_id, st.attempt_start_ns));
            if seen.len() < 3 {
                return Err(tx.abort_self());
            }
            Ok(())
        });
        let (key, first_id, first_start) = seen[0];
        assert_eq!(
            key,
            (first_start, first_id),
            "the first attempt sets the key"
        );
        for (i, &(k, id, start)) in seen.iter().enumerate().skip(1) {
            assert_eq!(k, key, "retry {i} carries the first attempt's key");
            assert!(
                id > first_id,
                "retry {i} runs under an attempt id of its own"
            );
            assert!(
                start >= first_start,
                "retry {i} has a start stamp of its own"
            );
        }
    }

    /// Open every object of `tvs` twice in one transaction of `stm`:
    /// (slot-word stores, shared-line RMWs) of the first opens and of the
    /// re-opens.
    #[cfg(debug_assertions)]
    fn read_path_writes(stm: &Stm, tvs: &[TVar<u64>]) -> ((u64, u64), (u64, u64)) {
        let take = || {
            (
                crate::probe::take_read_slot_stores(),
                crate::probe::take_read_shared_rmws(),
            )
        };
        stm.thread(0).atomic(|tx| {
            take();
            let mut sum = 0;
            for tv in tvs {
                sum += *tx.read(tv)?;
            }
            let first = take();
            for tv in tvs {
                sum += *tx.read(tv)?;
            }
            let again = take();
            let n = tvs.len() as u64;
            assert_eq!(sum, n * (n - 1));
            Ok((first, again))
        })
    }

    /// A first open is one store to the reader's slot word and no RMW on a
    /// line other readers write; a re-open stores nothing; an open without
    /// a slot word pays the object lock (which shows the counter is live).
    #[cfg(debug_assertions)]
    fn read_writes_one_word_its_reader_owns(engine: EngineKind) {
        const OBJECTS: u64 = 32;
        let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
        let tvs: Vec<TVar<u64>> = (0..OBJECTS).map(TVar::new).collect();
        let (first, again) = read_path_writes(&stm, &tvs);
        assert_eq!(first, (OBJECTS, 0), "{engine}: first opens");
        assert_eq!(again, (0, 0), "{engine}: re-opens");
        // A committed multi-object writer leaves every locator folded, so
        // the next reader's first opens take the fast path again.
        stm.thread(0).atomic(|tx| {
            for tv in &tvs {
                let v = *tx.read(tv)?;
                tx.write(tv, v)?;
            }
            Ok(())
        });
        let (first, _) = read_path_writes(&stm, &tvs);
        assert_eq!(first, (OBJECTS, 0), "{engine}: first opens after a writer");
        let overflow: Vec<TVar<u64>> = (0..OBJECTS)
            .map(|v| TVar::new_with_slots_for_test(v, 0))
            .collect();
        let (first, again) = read_path_writes(&stm, &overflow);
        assert_eq!(
            (first, again),
            ((0, OBJECTS), (0, OBJECTS)),
            "{engine}: without a slot word, the object lock per open"
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    fn eager_read_writes_one_word_its_reader_owns() {
        read_writes_one_word_its_reader_owns(EngineKind::Eager);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lazy_read_writes_one_word_its_reader_owns() {
        read_writes_one_word_its_reader_owns(EngineKind::Lazy);
    }

    #[test]
    #[should_panic(expected = "nested `atomic` on one thread")]
    fn nested_atomic_on_one_thread_panics() {
        // Slot indices are per OS thread, so a second `Stm` is no way out.
        let (outer, inner) = (
            Stm::new(CmDispatch::AbortSelf, 1),
            Stm::new(CmDispatch::AbortSelf, 1),
        );
        let (outer, inner) = (outer.thread(0), inner.thread(0));
        outer.atomic(|_| {
            inner.atomic(|_| Ok(()));
            Ok(())
        });
    }

    /// A manager nobody may have to ask; it counts the aborts it is told of.
    #[derive(Default)]
    struct NoConflictExpected {
        aborts: std::sync::atomic::AtomicUsize,
    }

    impl ContentionManager for NoConflictExpected {
        fn resolve(
            &self,
            _: &TxState,
            enemy: &TxState,
            _: crate::ConflictKind,
        ) -> crate::Resolution {
            panic!(
                "conflict with attempt {} of a panicked body",
                enemy.attempt_id
            )
        }
        fn on_abort(&self, _: &TxState) {
            self.aborts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        fn name(&self) -> &str {
            "NoConflictExpected"
        }
    }

    #[test]
    fn a_panicking_body_is_aborted_rolled_back_and_withdrawn() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for engine in EngineKind::ALL {
            let cm = Arc::new(NoConflictExpected::default());
            let stm = Stm::with_engine(cm.clone(), 2, engine);
            let (read, written): (TVar<u64>, TVar<u64>) = (TVar::new(1), TVar::new(10));
            let ctx = stm.thread(0);
            let mut seen = None;
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                ctx.atomic(|tx| {
                    let v = *tx.read(&read)?;
                    tx.write(&written, v + 10)?;
                    seen = Some((slots::my_slot_index(), Arc::clone(tx.state())));
                    if v == 1 {
                        panic!("body gives up");
                    }
                    Ok(())
                })
            }));
            assert!(unwound.is_err(), "{engine}: the panic reaches the caller");
            let (slot, state) = seen.expect("the body ran");
            assert_eq!(state.status(), crate::TxStatus::Aborted, "{engine}");
            assert!(state.body_over(), "{engine}: its borrows are dead");
            assert!(
                slots::live_reader(slot, state.attempt_id).is_none(),
                "{engine}: the attempt is withdrawn from the registry"
            );
            // A second thread opens both objects for writing: no owner to
            // fight, no reader to abort, no contention-manager round.
            std::thread::scope(|s| {
                let ctx = stm.thread(1);
                let (read, written) = (&read, &written);
                s.spawn(move || {
                    ctx.atomic(|tx| {
                        tx.write(read, 2)?;
                        tx.modify(written, |w| *w += 1)
                    })
                });
            });
            assert_eq!((*read.sample(), *written.sample()), (2, 11), "{engine}");
            // And the thread that panicked is not stuck "inside" `atomic`.
            ctx.atomic(|tx| tx.write(&read, 3));
            let snap = stm.aggregate();
            assert_eq!(snap.commits, 2, "{engine}");
            assert_eq!(snap.aborts, 1, "{engine}: the unwound attempt is an abort");
            assert_eq!(
                cm.aborts.load(std::sync::atomic::Ordering::Relaxed),
                1,
                "{engine}: the manager hears of it once"
            );
            assert_eq!(
                snap.conflicts_ww + snap.conflicts_rw + snap.conflicts_wr,
                0,
                "{engine}"
            );
        }
    }

    /// (thread, age key, attempt id, is_retry) of a beginning attempt.
    type Begun = (usize, (u64, u64), u64, bool);

    /// Forwards every hook to `inner` and records each attempt as it
    /// begins.
    struct RecordingCm {
        inner: CmDispatch,
        begun: std::sync::Mutex<Vec<Begun>>,
    }

    impl ContentionManager for RecordingCm {
        fn resolve(
            &self,
            me: &TxState,
            enemy: &TxState,
            kind: crate::ConflictKind,
        ) -> crate::Resolution {
            self.inner.resolve(me, enemy, kind)
        }
        fn on_begin(&self, tx: &Arc<TxState>, is_retry: bool) {
            self.begun
                .lock()
                .unwrap()
                .push((tx.thread_id, tx.age_key(), tx.attempt_id, is_retry));
            self.inner.on_begin(tx, is_retry);
        }
        fn on_open(&self, tx: &TxState) {
            self.inner.on_open(tx);
        }
        fn on_commit(&self, tx: &TxState) {
            self.inner.on_commit(tx);
        }
        fn on_abort(&self, tx: &TxState) {
            self.inner.on_abort(tx);
        }
        fn name(&self) -> &str {
            self.inner.name()
        }
    }

    #[test]
    fn age_ordered_managers_keep_one_key_per_transaction() {
        // Two threads fight over one counter under each manager that
        // orders by age: a transaction's key is set by its first attempt,
        // every retry carries it, and a thread's later transaction is
        // younger than its earlier ones.
        const THREADS: usize = 2;
        const PER_THREAD: u64 = 1_000;
        for inner in [CmDispatch::Greedy, CmDispatch::Priority] {
            let name = inner.name().to_string();
            let cm = Arc::new(RecordingCm {
                inner,
                begun: std::sync::Mutex::new(Vec::new()),
            });
            concurrent_counter(cm.clone(), THREADS, PER_THREAD);
            let begun = cm.begun.lock().unwrap();
            let mut last: [Option<(u64, u64)>; THREADS] = [None; THREADS];
            let mut first_attempts = 0;
            for &(thread, key, attempt_id, is_retry) in begun.iter() {
                if is_retry {
                    assert_eq!(Some(key), last[thread], "{name}: a retry changed its key");
                } else {
                    assert_eq!(
                        key.1, attempt_id,
                        "{name}: txn_id is the first attempt's id"
                    );
                    assert!(
                        last[thread] < Some(key),
                        "{name}: thread {thread}'s transaction {key:?} is not younger \
                         than its previous one {:?}",
                        last[thread]
                    );
                    first_attempts += 1;
                }
                last[thread] = Some(key);
            }
            assert_eq!(first_attempts, THREADS as u64 * PER_THREAD, "{name}");
        }
    }

    #[test]
    fn a_traced_retry_hands_back_only_the_committed_footprint() {
        // A traced transaction whose first attempt aborts after reading
        // every object: the aborted attempt's footprint is dropped, and
        // the caller gets the committed attempt's alone.
        let stm = Stm::new(CmDispatch::AbortSelf, 1);
        let ctx = stm.thread(0);
        let tvs: Vec<TVar<u64>> = (0..4).map(TVar::new).collect();
        let mut attempts = 0;
        let (_, fp) = ctx.atomic_traced(|tx| {
            for tv in &tvs {
                tx.read(tv)?;
            }
            attempts += 1;
            if attempts == 1 {
                return Err(tx.abort_self());
            }
            Ok(())
        });
        assert_eq!(attempts, 2);
        assert_eq!(fp.len(), tvs.len());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn read_versions_pool_clears_on_take() {
        let stm = Stm::new(CmDispatch::AbortSelf, 1);
        let ctx = stm.thread(0);
        let mut seed: Vec<(u64, usize, bool)> = Vec::with_capacity(32);
        seed.push((1, 2, true)); // stale content must not leak into reuse
        let seed_ptr = seed.as_ptr() as usize;
        ctx.put_read_versions_buf(seed);
        let got = ctx.take_read_versions_buf();
        assert_eq!(got.as_ptr() as usize, seed_ptr);
        assert!(got.is_empty(), "pooled buffer must be cleared on take");
        assert_eq!(got.capacity(), 32);
    }

    #[test]
    fn committed_duration_excludes_the_gap_between_transactions() {
        let stm = Stm::new(CmDispatch::AbortSelf, 1);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        ctx.atomic(|tx| tx.write(&tv, 1));
        std::thread::sleep(std::time::Duration::from_millis(200));
        ctx.atomic(|tx| tx.write(&tv, 2));
        drop(ctx);
        let snap = stm.aggregate();
        assert_eq!(snap.commits, 2);
        assert!(
            snap.committed_ns < 100_000_000 && snap.response_ns < 100_000_000,
            "two one-write commits took {} ns committed, {} ns response: \
             the 200 ms the thread slept between them is not transaction time",
            snap.committed_ns,
            snap.response_ns
        );
    }

    #[test]
    fn lazy_engine_counter_and_read_your_writes() {
        let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, crate::EngineKind::Lazy);
        assert_eq!(stm.engine(), crate::EngineKind::Lazy);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        for _ in 0..100 {
            ctx.atomic(|tx| {
                let v = *tx.read(&tv)?;
                tx.write(&tv, v + 1)
            });
        }
        assert_eq!(*tv.sample(), 100);
        let observed = ctx.atomic(|tx| {
            tx.write(&tv, 500)?;
            Ok(*tx.read(&tv)?)
        });
        assert_eq!(observed, 500);
        ctx.atomic(|tx| tx.modify(&tv, |v| *v += 1));
        assert_eq!(*tv.sample(), 501);
        let snap = stm.aggregate();
        assert_eq!(snap.commits, 102);
        assert_eq!(snap.aborts, 0);
    }

    #[test]
    fn lazy_engine_multi_object_transaction_is_atomic() {
        let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, crate::EngineKind::Lazy);
        let a: TVar<i64> = TVar::new(100);
        let b: TVar<i64> = TVar::new(0);
        let ctx = stm.thread(0);
        ctx.atomic(|tx| {
            let va = *tx.read(&a)?;
            let vb = *tx.read(&b)?;
            tx.write(&a, va - 30)?;
            tx.write(&b, vb + 30)
        });
        assert_eq!(*a.sample() + *b.sample(), 100);
        assert_eq!(*b.sample(), 30);
    }

    #[test]
    fn lazy_engine_concurrent_counter_no_lost_updates() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 200;
        let stm = Stm::with_engine(CmDispatch::AbortEnemy, THREADS, crate::EngineKind::Lazy);
        let tv: TVar<u64> = TVar::new(0);
        std::thread::scope(|s| {
            for i in 0..THREADS {
                let ctx = stm.thread(i);
                let tv = tv.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        ctx.atomic(|tx| {
                            let v = *tx.read(&tv)?;
                            tx.write(&tv, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(*tv.sample(), THREADS as u64 * PER_THREAD);
        assert_eq!(stm.aggregate().commits, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn lazy_engine_blind_writes_skip_validation_but_rmws_do_not() {
        // A blind write makes no read-set entry, so commit succeeds even
        // after a competitor overwrote the object; a read-modify-write
        // must detect the overwrite instead of losing the update.
        let stm = Stm::with_engine(CmDispatch::AbortSelf, 2, crate::EngineKind::Lazy);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        ctx.atomic(|tx| tx.write(&tv, 7)); // blind
        assert_eq!(*tv.sample(), 7);
        // modify() under lazy is an RMW: its shadow is based on a
        // validated read, so concurrent-overwrite detection is covered by
        // the concurrent counter test; here just check single-thread
        // semantics compose with blind writes.
        ctx.atomic(|tx| {
            tx.modify(&tv, |v| *v *= 10)?;
            let v = *tx.read(&tv)?;
            tx.write(&tv, v + 1)
        });
        assert_eq!(*tv.sample(), 71);
    }

    #[test]
    fn stats_are_exact_while_the_context_is_live() {
        // StopRule::Budget regression: an aggregate taken while the worker
        // context is still alive (a run truncated at its safety deadline)
        // must report every attempt that ended, however few.
        const N: u64 = 16;
        let stm = Stm::new(CmDispatch::AbortSelf, 1);
        let tv: TVar<u64> = TVar::new(0);
        let ctx = stm.thread(0);
        for _ in 0..N {
            ctx.atomic(|tx| {
                let v = *tx.read(&tv)?;
                tx.write(&tv, v + 1)
            });
        }
        let mut body = |tx: &mut Txn| -> TxResult<()> { Err(tx.abort_self()) };
        assert!(ctx.atomic_with_budget(1, &mut body).is_none());
        let snap = stm.aggregate();
        assert_eq!(snap.commits, N);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.opens, 2 * N);
        assert_eq!(*tv.sample(), N);
    }
}
