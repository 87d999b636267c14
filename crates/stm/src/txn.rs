//! The transaction API: open-for-read, open-for-write, commit.
//!
//! `Txn` owns everything protocol-independent about an attempt — the
//! write set, CM hook invocation, conflict accounting, tracing, the
//! debug-only opacity self-check — and delegates the four
//! protocol-defining operations to the run's engine: the eager
//! DSTM2-style protocol ([`crate::engine::eager`], the configuration the
//! paper evaluates) or the TL2/STO-style lazy protocol
//! ([`crate::engine::lazy`]). Dispatch is a two-way `match` on
//! [`EngineKind`], monomorphized per call site like [`CmDispatch`]
//! (no trait objects on the hot path).

use std::sync::Arc;

use crate::clockns;
use crate::cm::{ConflictKind, Resolution};
use crate::engine::eager::EagerEngine;
use crate::engine::lazy::LazyEngine;
use crate::engine::{EngineKind, LazyRead};
use crate::stm::ThreadCtx;
use crate::tvar::TVar;
use crate::txstate::TxState;
use crate::writeset::WriteEntry;
use crate::TxObject;

/// Why a transactional operation could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxError {
    /// The transaction was aborted (by itself via the contention manager,
    /// or by an enemy). Propagate it out of the atomic closure with `?`;
    /// the engine retries automatically.
    Aborted,
}

impl std::fmt::Display for TxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxError::Aborted => write!(f, "transaction aborted"),
        }
    }
}

impl std::error::Error for TxError {}

/// Result alias used throughout the transactional API.
pub type TxResult<T> = Result<T, TxError>;

/// The version of an object a [`Txn::read`] observed. Dereferences to the
/// value; it never changes, even if the object is rewritten later.
///
/// This is a plain borrow — the read took no count of the version — that
/// stays valid until the attempt's body is over. The
/// lifetime is the transaction's, which the body's closure is higher-ranked
/// over, so the borrow cannot leave the closure, neither through its
/// result:
///
/// ```compile_fail
/// use wtm_stm::{CmDispatch, Stm, TVar};
/// let stm = Stm::new(CmDispatch::AbortSelf, 1);
/// let tv: TVar<u64> = TVar::new(1);
/// let escaped = stm.thread(0).atomic(|tx| tx.read(&tv));
/// ```
///
/// nor through what it captures:
///
/// ```compile_fail
/// use wtm_stm::{CmDispatch, Stm, TVar};
/// let stm = Stm::new(CmDispatch::AbortSelf, 1);
/// let tv: TVar<u64> = TVar::new(1);
/// let mut escaped = None;
/// stm.thread(0).atomic(|tx| {
///     escaped = Some(tx.read(&tv)?);
///     Ok(())
/// });
/// ```
///
/// Copy the value out (`*tx.read(&tv)?` for a `Copy` type, `.clone()`
/// otherwise) to keep it. When the transaction reads its own write, the
/// handle owns a snapshot of the shadow copy instead.
pub struct ReadRef<'a, T>(Version<'a, T>);

enum Version<'a, T> {
    Borrowed(&'a T),
    Counted(Arc<T>),
}

impl<'a, T> ReadRef<'a, T> {
    /// # Safety
    /// `version` must point at a live `T` that stays live and unmodified
    /// for `'a`.
    pub(crate) unsafe fn borrowed(version: *const T) -> Self {
        ReadRef(Version::Borrowed(&*version))
    }

    pub(crate) fn counted(version: Arc<T>) -> Self {
        ReadRef(Version::Counted(version))
    }
}

impl<T> std::ops::Deref for ReadRef<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        match &self.0 {
            Version::Borrowed(v) => v,
            Version::Counted(v) => v,
        }
    }
}

impl<T> Clone for ReadRef<'_, T> {
    fn clone(&self) -> Self {
        ReadRef(match &self.0 {
            Version::Borrowed(v) => Version::Borrowed(v),
            Version::Counted(v) => Version::Counted(Arc::clone(v)),
        })
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for ReadRef<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// An in-flight transaction attempt. Created by
/// [`ThreadCtx::atomic`](crate::stm::ThreadCtx::atomic); user code receives
/// `&mut Txn` inside the atomic closure.
pub struct Txn<'a> {
    pub(crate) state: Arc<TxState>,
    /// The write set, in open order (a pooled buffer, like `reads`).
    pub(crate) writes: Vec<WriteEntry>,
    pub(crate) ctx: &'a ThreadCtx<'a>,
    /// Which protocol this attempt runs under (copied from the engine
    /// handle once, so the dispatch match reads a local field).
    engine: EngineKind,
    /// This thread's global reader-slot index ([`crate::slots::NO_SLOT`]
    /// when the thread has none — mutex-path reads only).
    pub(crate) slot_idx: usize,
    /// Objects opened this attempt; flushed to the stats once at attempt
    /// end instead of one atomic RMW per open.
    pub(crate) opens: u64,
    /// Lazy engine: the read watermark — committed versions `≤ rv` are
    /// "of the past" and safe to read. Unused (0) under the eager engine.
    pub(crate) rv: u64,
    /// Lazy engine: the read set, re-validated at commit. Stays empty
    /// under the eager engine.
    pub(crate) reads: Vec<LazyRead>,
    /// When tracing, the `(object id, is_write)` access footprint of this
    /// attempt (reads of own writes are not re-recorded).
    pub(crate) footprint: Option<Vec<(u64, bool)>>,
    /// Debug-only opacity self-check: `(tvar id, version ptr, via fast
    /// path)` per first read. A re-read observing a different version
    /// within one attempt is an opacity violation and panics immediately,
    /// instead of letting the workload detonate later.
    #[cfg(debug_assertions)]
    read_versions: Vec<(u64, usize, bool)>,
    /// Trace taxonomy of how this attempt died. Defaults to "killed by an
    /// enemy"; refined at the abort site (CM self-abort, user bail-out,
    /// lazy validation failure).
    abort_reason: std::cell::Cell<u64>,
}

impl<'a> Txn<'a> {
    pub(crate) fn new(state: Arc<TxState>, ctx: &'a ThreadCtx<'a>, slot_idx: usize) -> Self {
        let engine = ctx.stm().engine();
        Txn {
            state,
            writes: ctx.take_writes_buf(),
            ctx,
            engine,
            slot_idx,
            opens: 0,
            rv: match engine {
                EngineKind::Eager => 0,
                EngineKind::Lazy => crate::engine::read_watermark(),
            },
            reads: ctx.take_reads_buf(),
            footprint: None,
            #[cfg(debug_assertions)]
            read_versions: ctx.take_read_versions_buf(),
            abort_reason: std::cell::Cell::new(wtm_trace::ABORT_KILLED),
        }
    }

    /// Return the pooled per-attempt buffers to the thread context so the
    /// next attempt reuses their capacity. Called by the engine right
    /// before the `Txn` is dropped.
    pub(crate) fn release_buffers(&mut self) {
        self.ctx.put_reads_buf(std::mem::take(&mut self.reads));
        self.ctx.put_writes_buf(std::mem::take(&mut self.writes));
        #[cfg(debug_assertions)]
        self.ctx
            .put_read_versions_buf(std::mem::take(&mut self.read_versions));
    }

    /// End the `Txn` and hand its attempt state back to the retry loop,
    /// which moved it in: the registry's reference and this one are the
    /// only two a body runs under.
    pub(crate) fn into_state(self) -> Arc<TxState> {
        self.state
    }

    /// How this attempt aborted (trace taxonomy; see `wtm_trace::ABORT_*`).
    pub(crate) fn abort_reason(&self) -> u64 {
        self.abort_reason.get()
    }

    /// Refine the abort taxonomy at the abort site.
    pub(crate) fn set_abort_reason(&self, reason: u64) {
        self.abort_reason.set(reason);
    }

    /// Record a read and verify it is consistent with any earlier read of
    /// the same object in this attempt (debug builds only).
    #[cfg(debug_assertions)]
    fn check_read_version<T: TxObject>(&mut self, tvar: &TVar<T>, val: *const T, fast: bool) {
        let ptr = val as *const () as usize;
        if let Some((_, seen, seen_fast)) = self
            .read_versions
            .iter()
            .find(|(id, _, _)| *id == tvar.id())
        {
            if *seen != ptr {
                panic!(
                    "opacity violation: attempt {} re-read tvar {} and observed a \
                     different version (first via {} path, now via {} path); {}",
                    self.state.attempt_id,
                    tvar.id(),
                    if *seen_fast { "fast" } else { "mutex" },
                    if fast { "fast" } else { "mutex" },
                    tvar.inner()
                        .debug_dump(self.slot_idx, self.state.attempt_id),
                );
            }
        } else {
            self.read_versions.push((tvar.id(), ptr, fast));
        }
    }

    /// Record this attempt's footprint. Cold (traced transactions only),
    /// so an aborted attempt's buffer is simply dropped.
    pub(crate) fn enable_tracing(&mut self) {
        self.footprint = Some(Vec::new());
    }

    pub(crate) fn take_footprint(&mut self) -> Vec<(u64, bool)> {
        self.footprint.take().unwrap_or_default()
    }

    /// Objects opened during this attempt (batched `opens` statistic).
    pub(crate) fn opens_count(&self) -> u64 {
        self.opens
    }

    /// The shared record describing this attempt.
    pub fn state(&self) -> &Arc<TxState> {
        &self.state
    }

    #[inline]
    pub(crate) fn check_alive(&self) -> TxResult<()> {
        if self.state.is_active() {
            Ok(())
        } else {
            Err(TxError::Aborted)
        }
    }

    /// Open `tvar` for reading and return the observed version.
    ///
    /// The returned [`ReadRef`] is a stable snapshot: it never changes even
    /// if the object is later rewritten, and it may be held across further
    /// opens for as long as the closure runs. If this transaction already
    /// wrote the object, a snapshot of its own shadow copy is returned
    /// (read-your-writes).
    pub fn read<T: TxObject>(&mut self, tvar: &TVar<T>) -> TxResult<ReadRef<'a, T>> {
        match self.engine {
            EngineKind::Eager => EagerEngine::open_for_read(self, tvar),
            EngineKind::Lazy => LazyEngine::open_for_read(self, tvar),
        }
    }

    /// Open `tvar` for writing and replace its value with `value`.
    pub fn write<T: TxObject>(&mut self, tvar: &TVar<T>, value: T) -> TxResult<()> {
        // Hand the value to the engine so a fresh open stores it directly
        // instead of cloning the current version only to overwrite it.
        self.open_for_modify(tvar, Some(value)).map(|_| ())
    }

    /// Open `tvar` for writing and mutate the shadow copy in place.
    pub fn modify<T: TxObject>(&mut self, tvar: &TVar<T>, f: impl FnOnce(&mut T)) -> TxResult<()> {
        let idx = self.open_for_modify(tvar, None)?;
        self.writes[idx].modify_value::<T>(f);
        Ok(())
    }

    #[inline]
    fn open_for_modify<T: TxObject>(
        &mut self,
        tvar: &TVar<T>,
        value: Option<T>,
    ) -> TxResult<usize> {
        match self.engine {
            EngineKind::Eager => EagerEngine::open_for_modify(self, tvar, value),
            EngineKind::Lazy => LazyEngine::open_for_modify(self, tvar, value),
        }
    }

    /// Abort this transaction voluntarily (e.g. explicit early exit in a
    /// benchmark). The engine will retry the atomic closure.
    pub fn abort_self(&self) -> TxError {
        self.state.abort();
        self.abort_reason.set(wtm_trace::ABORT_USER);
        TxError::Aborted
    }

    pub(crate) fn find_write(&self, id: u64) -> Option<usize> {
        // Write sets are small (a handful of objects); linear scan beats a
        // hash map here.
        self.writes.iter().position(|w| w.tvar_id() == id)
    }

    /// Apply the contention manager to one discovered conflict.
    ///
    /// On `Ok(())` the caller must re-examine the object: the enemy was
    /// killed, finished on its own, or the manager asked for a re-check.
    pub(crate) fn handle_conflict(&self, enemy: &Arc<TxState>, kind: ConflictKind) -> TxResult<()> {
        let stats = self.ctx.stats();
        stats.record_conflict(kind, enemy.txn_id);
        if !enemy.is_active() {
            return Ok(()); // resolved itself while we took the slow path
        }
        let t0 = clockns::now();
        let res = self.ctx.cm().resolve(&self.state, enemy, kind);
        let waited = clockns::now().saturating_sub(t0);
        if waited > 0 {
            stats.record_wait(waited);
        }
        match res {
            Resolution::AbortEnemy => {
                let killed = enemy.abort();
                self.trace_conflict(enemy, kind, wtm_trace::VERDICT_ABORT_ENEMY, killed, waited);
                Ok(())
            }
            Resolution::AbortSelf => {
                self.state.abort();
                self.abort_reason.set(wtm_trace::ABORT_CM_SELF);
                self.trace_conflict(enemy, kind, wtm_trace::VERDICT_ABORT_SELF, true, waited);
                Err(TxError::Aborted)
            }
            Resolution::Retry => {
                self.trace_conflict(enemy, kind, wtm_trace::VERDICT_RETRY, false, waited);
                if enemy.is_active() {
                    std::thread::yield_now();
                }
                self.check_alive()
            }
        }
    }

    /// Emit the conflict (and, for non-trivial waits, the wait span) of
    /// one `handle_conflict` resolution.
    fn trace_conflict(
        &self,
        enemy: &Arc<TxState>,
        kind: ConflictKind,
        verdict: u64,
        killed: bool,
        waited: u64,
    ) {
        if !wtm_trace::enabled() {
            return;
        }
        let now = clockns::now();
        let tid = self.state.thread_id as u32;
        let kind_code = match kind {
            ConflictKind::WriteWrite => 0,
            ConflictKind::ReadWrite => 1,
            ConflictKind::WriteRead => 2,
        };
        wtm_trace::emit(wtm_trace::Event::instant(
            wtm_trace::EventKind::Conflict,
            now,
            tid,
            enemy.thread_id as u64,
            wtm_trace::pack_conflict(kind_code, verdict, killed),
        ));
        // Sub-µs "waits" are just the resolve call itself; only real
        // contention-manager stalls (back-off, Polka spins) are spans.
        if waited >= 1_000 {
            wtm_trace::emit(wtm_trace::Event::span(
                wtm_trace::EventKind::Wait,
                now,
                waited,
                tid,
                enemy.thread_id as u64,
                0,
            ));
        }
    }

    /// Bookkeeping of a completed first-hand read of `tvar` that observed
    /// the version at `val`.
    #[inline]
    pub(crate) fn note_read<T: TxObject>(&mut self, tvar: &TVar<T>, val: *const T, fast: bool) {
        self.note_open();
        if let Some(fp) = &mut self.footprint {
            fp.push((tvar.id(), false));
        }
        #[cfg(debug_assertions)]
        self.check_read_version(tvar, val, fast);
        #[cfg(not(debug_assertions))]
        let _ = (val, fast);
    }

    #[inline]
    pub(crate) fn note_open(&mut self) {
        self.state.add_karma();
        self.opens += 1;
        self.ctx.cm().on_open(&self.state);
    }

    /// Make the write set visible atomically (protocol-specific).
    pub(crate) fn commit(&mut self) -> TxResult<()> {
        match self.engine {
            EngineKind::Eager => EagerEngine::commit(self),
            EngineKind::Lazy => LazyEngine::commit(self),
        }
    }

    /// Undo any globally visible traces after this attempt turned
    /// terminal (protocol-specific rollback).
    pub(crate) fn release_write_set(&self) {
        match self.engine {
            EngineKind::Eager => EagerEngine::rollback(self),
            EngineKind::Lazy => LazyEngine::rollback(self),
        }
    }
}

/// Armed around the call of a transaction's body: dropped only when the
/// body unwinds (the caller forgets it otherwise), so that a panic leaves
/// nothing behind that names the attempt — competitors would otherwise meet
/// an `Active` writer that never finishes, a slot that stays published, and
/// a contention manager that never heard the attempt end (one that admits
/// attempts by token would never get the token back).
pub(crate) struct Unwound<'t, 'a>(pub(crate) &'t mut Txn<'a>);

impl Drop for Unwound<'_, '_> {
    #[cold]
    fn drop(&mut self) {
        let txn = &mut *self.0;
        txn.state.abort();
        txn.release_write_set();
        crate::slots::unpublish(txn.slot_idx);
        let ran = clockns::now().saturating_sub(txn.state.attempt_start_ns);
        txn.ctx.stats().record_abort(txn.opens, ran);
        // The unwind has already dropped every borrow the body held.
        txn.state.finish_body();
        txn.ctx.cm().on_abort(&txn.state);
    }
}
