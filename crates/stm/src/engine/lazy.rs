//! The lazy engine: TL2/STO-style commit-time locking.
//!
//! Three departures from the eager protocol:
//!
//! * **Invisible reads.** Invisible to conflict detection: no committer
//!   waits for a reader, aborts one or asks the contention manager about
//!   one. A reader samples the seqlock-guarded snapshot together with the
//!   object's commit version and remembers `(object, seq)` in a private
//!   read set. Visible to reclamation: it first stores its attempt id
//!   into the one word of the object its thread owns — the eager read's
//!   registration, and the only write of the open — so that a write-back
//!   lends it the version it displaces and the read can be a plain borrow,
//!   the read-set entry plain pointers ("The borrowed-read invariant" in
//!   [`crate::tvar`]). No count is taken of anything.
//! * **Buffered writes.** Opens for writing build the shadow copy in the
//!   write set and touch nothing global. Write-write conflicts surface
//!   only at commit.
//! * **Commit-time locking.** Commit CASes each written object's seqlock
//!   word even→odd (in object-id order — deadlock-free), re-validates the
//!   read set, flips the status CAS, takes a write version from the
//!   global clock, and writes back.
//!
//! ## Correctness argument (opacity)
//!
//! Every attempt carries a read watermark `rv`: the value of the global
//! version clock ([`super::read_watermark`]) at attempt start — the same
//! clock write versions are derived from. A read is admitted only if the
//! object's version is `≤ rv` *and* the seqlock word was even and
//! unchanged around the sample, i.e. the value is the committed version
//! as of logical time `rv`. So *every* value any attempt — including one
//! that is already doomed — ever observes belongs to the single committed
//! snapshot at its `rv`: zombie reads are consistent by construction, not
//! by enemy-abort discipline as in the eager engine. Commit re-checks
//! each read's seqlock word, which catches both a competitor's committed
//! overwrite (version bump) and the ABA-free in-progress case (word odd);
//! a competitor's *failed* commit leaves the word changed but the value
//! intact, and the re-check accepts it by re-deriving the invariant
//! (word even again + version still `≤ rv`) instead of demanding literal
//! equality — no spurious aborts from neighbours' aborted commits, except
//! the unavoidable seq-parity ambiguity window.
//!
//! ## The version clock (TL2's GV1)
//!
//! A writing commit takes its write version `wv` with one `fetch_add` on
//! the global clock ([`super::write_version`]), after its status CAS and
//! before its write-back; a read-only commit takes none. Three facts
//! follow, and the argument above needs no others:
//!
//! 1. **No stamp is ahead of the clock**, so a watermark taken after a
//!    commit's `fetch_add` admits every version that commit writes.
//! 2. **No torn prefix.** A reader whose `rv ≥ wv` took its watermark
//!    after the committer's `fetch_add`, hence after the committer held
//!    every commit lock: it meets each of those objects locked or
//!    written back.
//! 3. **A later overwrite stamps past the watermark.** A commit that
//!    locks an object after a reader sampled it takes its `fetch_add`
//!    after that reader's watermark, so its `wv > rv`. A changed-but-even
//!    word whose version is still `≤ rv` is therefore the residue of
//!    failed commits only, which is what makes the validation re-derive
//!    above sound.
//!
//! A reader that meets `version > rv` with nothing read yet takes a fresh
//! watermark in place (TL2's rv extension, trivially valid on an empty
//! read set, and by fact 1 the fresh watermark admits the version); with
//! earlier reads it aborts, and its retry's watermark admits the version.
//!
//! The contention manager is consulted exactly where conflicts become
//! observable: a reader meeting a commit-locked object (read-write), and
//! a committer meeting a locked object (write-write). `AbortEnemy`
//! verdicts work unchanged — killing the lock holder's status CAS makes
//! it fail its own commit and release the locks. A holder that already
//! won its status CAS ignores the kill benignly (the abort CAS fails) and
//! unlocks by finishing its write-back.

use super::LazyRead;
use crate::cm::ConflictKind;
use crate::trace;
use crate::tvar::TVar;
use crate::txn::{ReadRef, TxError, TxResult, Txn};
use crate::writeset::WriteEntry;
use crate::TxObject;

/// The TL2/STO-style protocol: [`Txn`] calls these for an
/// [`EngineKind::Lazy`](super::EngineKind::Lazy) run.
pub(crate) struct LazyEngine;

/// Read the current committed version of `tvar`, appending it to the read
/// set. Loops while the object is commit-locked, consulting the contention
/// manager against the lock holder. The address returned is valid until
/// the attempt's body is over.
fn read_committed<T: TxObject>(txn: &mut Txn<'_>, tvar: &TVar<T>) -> TxResult<*const T> {
    loop {
        txn.check_alive()?;
        if let Some((val, seq, version)) = tvar.inner().lazy_sample(txn.slot_idx, &txn.state) {
            if version > txn.rv {
                if txn.reads.is_empty() {
                    // Nothing read yet, so there is nothing this snapshot
                    // could be inconsistent *with*: restarting the attempt
                    // would differ only in its watermark. Take the later
                    // watermark in place (TL2 rv-extension, trivially
                    // valid on an empty read set) and re-read. Buffered
                    // writes are unaffected — they are private until
                    // commit and never compared against `rv`.
                    txn.rv = super::read_watermark();
                    continue;
                }
                // Earlier reads exist: this snapshot may be inconsistent
                // with them. Abort and retry with a fresh watermark.
                return Err(validation_abort(txn));
            }
            // The borrow is handed out only to an attempt that was alive
            // after it registered: that is what the lending scans rely on
            // (the invariant in `crate::tvar`).
            txn.check_alive()?;
            txn.reads.push(LazyRead::new(tvar.inner(), seq));
            return Ok(val);
        }
        // Commit-locked. Resolve against the holder when the registry can
        // still name it; no nameable holder means a committer mid
        // write-back — wait it out.
        match tvar.inner().lazy_owner() {
            Some(enemy) => txn.handle_conflict(&enemy, ConflictKind::ReadWrite)?,
            None => std::thread::yield_now(),
        }
    }
}

/// Abort `txn` for a failed read validation.
fn validation_abort(txn: &Txn<'_>) -> TxError {
    txn.state.abort();
    txn.set_abort_reason(trace::ABORT_VALIDATION);
    TxError::Aborted
}

/// Lock the write set — sorted by object id by the caller — in order,
/// then re-validate the read set. `locked` counts the entries locked so
/// far (a prefix, which the caller unlocks on failure).
fn lock_and_validate(txn: &Txn<'_>, locked: &mut usize) -> TxResult<()> {
    for w in txn.writes.iter() {
        loop {
            txn.check_alive()?;
            if w.lazy_lock(txn.slot_idx, txn.state.attempt_id) {
                *locked += 1;
                break;
            }
            match w.lazy_owner() {
                Some(enemy) => txn.handle_conflict(&enemy, ConflictKind::WriteWrite)?,
                // Mid write-back: wait it out.
                None => std::thread::yield_now(),
            }
        }
    }
    // Read validation, with the whole write set locked: every read must
    // still be the committed version as of our watermark.
    for r in txn.reads.iter() {
        // SAFETY: the entry is this attempt's, which is neither committed
        // nor finished (for this call and the two below).
        let s1 = unsafe { r.seq_now() };
        if s1 == r.seq {
            continue; // untouched since the read
        }
        if s1 & 1 != 0 {
            // An object we also wrote: our own commit lock holds its word
            // at exactly the pre-lock value plus one, so "unchanged" means
            // "nobody touched it between our read and our lock".
            if s1 == r.seq + 1
                && txn
                    .writes
                    .binary_search_by_key(&r.id, |w| w.tvar_id())
                    .is_ok()
            {
                continue;
            }
            // A competitor holds the commit lock; it may be about to
            // overwrite this read. Aborting (rather than waiting it out)
            // keeps validation lock-free.
            return Err(validation_abort(txn));
        }
        // The word moved but is even again: some competitor's commit
        // attempt came and went. Accept iff the value provably still
        // predates our watermark — version unchanged-sandwich re-check.
        let version = unsafe { r.version_now() };
        if unsafe { r.seq_now() } != s1 || version > txn.rv {
            return Err(validation_abort(txn));
        }
    }
    Ok(())
}

impl LazyEngine {
    /// Open `tvar` for reading; return a stable snapshot consistent with
    /// every earlier read of this attempt.
    pub(crate) fn open_for_read<'a, T: TxObject>(
        txn: &mut Txn<'a>,
        tvar: &TVar<T>,
    ) -> TxResult<ReadRef<'a, T>> {
        txn.check_alive()?;
        if let Some(idx) = txn.find_write(tvar.id()) {
            return Ok(ReadRef::counted(txn.writes[idx].read_snapshot::<T>()));
        }
        let val = read_committed(txn, tvar)?;
        txn.note_read(tvar, val, true);
        // SAFETY: the attempt registered on the object before the sample
        // and was `Active` after it, the seqlock sandwich made `val` the
        // current version in between, and from there every displacement of
        // it lends a count to this attempt until its body is over, which
        // `'a` does not outlive (the borrowed-read invariant in
        // `crate::tvar`).
        Ok(unsafe { ReadRef::borrowed(val) })
    }

    /// Open `tvar` for writing and return the write-set entry index.
    /// `Some(value)` replaces the object wholesale; `None` bases the
    /// shadow on the current version (open-for-modify).
    pub(crate) fn open_for_modify<T: TxObject>(
        txn: &mut Txn<'_>,
        tvar: &TVar<T>,
        mut value: Option<T>,
    ) -> TxResult<usize> {
        txn.check_alive()?;
        if let Some(idx) = txn.find_write(tvar.id()) {
            if let Some(v) = value.take() {
                txn.writes[idx].set_value(v);
            }
            return Ok(idx);
        }
        let v = match value {
            // A blind write needs no current version — and creates no
            // read-set entry, so a competitor overwriting the object
            // before our commit is *not* a conflict (last-writer-wins,
            // as in TL2).
            Some(v) => v,
            None => {
                // Open-for-modify bases the shadow on the current version,
                // which is a read: it joins the read set, so commit-time
                // validation catches a competitor racing us to update the
                // same object (no lost updates).
                let cur = read_committed(txn, tvar)?;
                // SAFETY: a live borrow of this attempt's running body, as
                // in `open_for_read`.
                unsafe { (*cur).clone() }
            }
        };
        txn.writes.push(WriteEntry::new(tvar.clone(), v));
        txn.note_open();
        if let Some(fp) = &mut txn.footprint {
            fp.push((tvar.id(), true));
        }
        Ok(txn.writes.len() - 1)
    }

    /// Make the write set visible atomically, or fail with the attempt
    /// aborted.
    pub(crate) fn commit(txn: &mut Txn<'_>) -> TxResult<()> {
        txn.check_alive()?;
        if txn.writes.is_empty() {
            // Read-only: every read was validated against the watermark
            // when it happened, so the snapshot is already consistent —
            // only the status CAS (racing enemy aborts) remains.
            return if txn.state.try_commit() {
                Ok(())
            } else {
                Err(TxError::Aborted)
            };
        }
        // Lock order is object-id order (deadlock-free); the body is over,
        // so nothing indexes the write set by open order any more.
        txn.writes.sort_unstable_by_key(|w| w.tvar_id());
        let mut locked = 0;
        let committed = lock_and_validate(txn, &mut locked).is_ok() && txn.state.try_commit();
        if !committed {
            for w in &txn.writes[..locked] {
                w.lazy_unlock();
            }
            return Err(TxError::Aborted);
        }
        // Past the point of no return: stamp the write version and make
        // every shadow the committed version. Unlocking happens inside
        // the write-back (the final even flip of each object's word).
        let wv = super::write_version();
        for w in txn.writes.iter() {
            w.lazy_writeback(wv);
        }
        Ok(())
    }

    /// Undo any globally visible traces of an aborted attempt.
    pub(crate) fn rollback(_txn: &Txn<'_>) {
        // Nothing global to undo: reads left a registration that goes
        // stale with the attempt, writes stayed in the private write set,
        // and a failed commit already released its locks before
        // returning.
    }
}
