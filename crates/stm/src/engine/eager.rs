//! The eager engine: the DSTM2-style protocol the paper measured on.
//!
//! Conflict handling is **eager**: the instant an open discovers a
//! competing active transaction, the contention manager is consulted
//! (outside the object lock) and its verdict applied.
//!
//! Reads take the lock-free path in [`crate::tvar`] first: register in the
//! object's reader-slot word — the one write a visible read cannot do
//! without, to a word only this reader writes — then load the seqlock word
//! and the snapshot's address. The object mutex is only taken when a
//! writer is installed (the contended case, where the contention manager
//! gets involved anyway) or the thread has no slot. Either way the read is
//! *visible* before the value is returned, so the eager conflict semantics
//! are identical on both paths, and either way the value is returned as a
//! plain borrow: no count of the version is taken. What keeps the borrow
//! valid until the body is over is the writers' side of the same
//! visibility — see "The borrowed-read invariant" in [`crate::tvar`].
//!
//! ## Correctness argument (opacity)
//!
//! With visible reads, a writer can only install itself on an object with
//! *no other active reader or writer*; it must first wait for, or abort,
//! every conflicting transaction. Therefore while a transaction `R` is
//! active, no competitor can commit a change to any object `R` has read —
//! so every value `R` observed remains part of one consistent committed
//! snapshot, and no re-validation is needed at commit. Commit itself is a
//! single status CAS racing against enemy aborts: exactly one side wins.
//! The fast read path preserves the writer side of this argument through
//! the slot-scan handshake: a reader is globally visible (`SeqCst` slot
//! store) *before* it checks the seqlock word, and a writer flips the
//! seqlock word *before* it scans the slots — so a reader that obtained a
//! snapshot lock-free is always seen by any later writer.

use std::sync::Arc;

use crate::cm::ConflictKind;
use crate::tvar::TVar;
use crate::txn::{ReadRef, TxError, TxResult, Txn};
use crate::writeset::WriteEntry;
use crate::TxObject;

/// The original wtm-stm protocol: [`Txn`] calls these for an
/// [`EngineKind::Eager`](super::EngineKind::Eager) run.
pub(crate) struct EagerEngine;

impl EagerEngine {
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
        // Lock-free fast path: slot registration + snapshot address.
        if let Some(val) = tvar.inner().fast_read(txn.slot_idx, txn.state.attempt_id) {
            // Doomed-reader validation: an enemy writer aborts us *before*
            // committing over our read set, so being Active *after* the
            // snapshot load proves `val` is the current version, consistent
            // with every earlier read. Without this, an abort landing
            // between the entry `check_alive` and the load lets a doomed
            // transaction mix pre- and post-commit versions (a zombie
            // read) — or, now that no count is taken, follow an address
            // whose version is already gone.
            txn.check_alive()?;
            txn.note_read(tvar, val, true);
            // SAFETY: we registered on the object before loading `val` and
            // were still Active after, so no writer has installed since the
            // registration and `val` is the current version, alive now.
            // From here every displacement of it lends a count to this
            // attempt until its body is over, which `'a` does not outlive
            // (the borrowed-read invariant in `crate::tvar`).
            return Ok(unsafe { ReadRef::borrowed(val) });
        }
        loop {
            txn.check_alive()?;
            let enemy = {
                #[cfg(debug_assertions)]
                crate::probe::count_read_shared_rmws(1); // the object lock
                let mut st = tvar.inner().state.lock();
                match &st.writer {
                    Some(w) if w.is_active() && w.attempt_id != txn.state.attempt_id => {
                        Some(Arc::clone(w))
                    }
                    _ => {
                        if st.writer.is_some() {
                            // Terminal writer: fold its outcome into `old`
                            // and re-arm the fast path for everyone.
                            tvar.inner().collapse(&mut st);
                        }
                        let val = Arc::as_ptr(&st.old);
                        tvar.inner()
                            .register_reader_locked(&mut st, txn.slot_idx, &txn.state);
                        drop(st);
                        // Doomed-reader validation (see fast path above): the
                        // entry `check_alive` races with an enemy's abort, so
                        // re-validate now that the address is in hand.
                        txn.check_alive()?;
                        txn.note_read(tvar, val, false);
                        // SAFETY: as on the fast path — registered (under
                        // the lock that named `val` the current version)
                        // before, Active after.
                        return Ok(unsafe { ReadRef::borrowed(val) });
                    }
                }
            };
            if let Some(enemy) = enemy {
                txn.handle_conflict(&enemy, ConflictKind::ReadWrite)?;
            }
        }
    }

    /// Acquire write ownership of `tvar`, resolving write-write and
    /// write-read conflicts through the contention manager.
    pub(crate) fn open_for_modify<T: TxObject>(
        txn: &mut Txn<'_>,
        tvar: &TVar<T>,
        mut value: Option<T>,
    ) -> TxResult<usize> {
        if let Some(idx) = txn.find_write(tvar.id()) {
            if let Some(v) = value {
                txn.writes[idx].set_value(v);
            }
            return Ok(idx);
        }
        loop {
            txn.check_alive()?;
            let conflict = {
                let mut st = tvar.inner().state.lock();
                let writer_enemy = match &st.writer {
                    Some(w) if w.is_active() && w.attempt_id != txn.state.attempt_id => {
                        Some((Arc::clone(w), ConflictKind::WriteWrite))
                    }
                    _ => None,
                };
                match writer_enemy {
                    Some(c) => Some(c),
                    None => {
                        // `seq` is even iff no writer is installed; flip it
                        // odd *before* the reader scan (Dekker handshake)
                        // and keep it odd for our whole ownership. With a
                        // terminal writer still installed it is already
                        // odd from that writer's period — flipping again
                        // would wrongly re-open the fast path.
                        let was_unlocked = st.writer.is_none();
                        if was_unlocked {
                            tvar.inner().lock_snapshot();
                        }
                        match tvar.inner().conflicting_reader(&mut st, &txn.state) {
                            Some(r) => {
                                if was_unlocked {
                                    tvar.inner().unlock_snapshot_unchanged();
                                }
                                Some((r, ConflictKind::WriteRead))
                            }
                            None => {
                                // Clear: collapse any terminal writer, then
                                // install ourselves. With no writer (the
                                // common case) `old` already is the current
                                // version and the collapse dance is skipped.
                                if st.writer.is_some() {
                                    let cur = st.effective();
                                    let prev = std::mem::replace(&mut st.old, cur);
                                    let orphan = st.new.take();
                                    st.retire(prev);
                                    if let Some(orphan) = orphan {
                                        st.retire(orphan);
                                    }
                                }
                                st.writer = Some(Arc::clone(&txn.state));
                                // Only open-for-modify needs the current
                                // version as a clone source; a plain write
                                // overwrites it wholesale.
                                let cur = if value.is_some() {
                                    None
                                } else {
                                    Some(Arc::clone(&st.old))
                                };
                                drop(st);
                                let v = match value.take() {
                                    Some(v) => v,
                                    None => (*cur.expect("open-for-modify keeps cur")).clone(),
                                };
                                txn.writes.push(WriteEntry::new(tvar.clone(), v));
                                // Doomed-writer validation: if an enemy
                                // aborted us after the entry `check_alive`,
                                // the collapsed `cur` we based the shadow on
                                // may postdate our abort and be inconsistent
                                // with earlier reads. We stay installed as a
                                // terminal writer; readers collapse past us.
                                txn.check_alive()?;
                                txn.note_open();
                                if let Some(fp) = &mut txn.footprint {
                                    fp.push((tvar.id(), true));
                                }
                                return Ok(txn.writes.len() - 1);
                            }
                        }
                    }
                }
            };
            if let Some((enemy, kind)) = conflict {
                txn.handle_conflict(&enemy, kind)?;
            }
        }
    }

    /// Publish the shadow copies, decide with the status CAS and fold
    /// every written locator back: one path for every write-set size.
    ///
    /// Every entry but the last is published first — a competitor that
    /// observes `Committed` must find every `new` version in place. The
    /// CAS then runs under the last entry's object lock, which installs
    /// that entry's version in the same acquisition (for the dominant
    /// single-object write set this is the whole commit), and the other
    /// entries are collapsed after it. So a committed attempt leaves no
    /// locator odd and no locator naming its `TxState`: the lock-free
    /// read path is re-armed at once and the state returns to the pool.
    /// A read-only set is the bare CAS.
    pub(crate) fn commit(txn: &mut Txn<'_>) -> TxResult<()> {
        txn.check_alive()?;
        let committed = match txn.writes.split_last() {
            None => txn.state.try_commit(),
            Some((last, rest)) => {
                for w in rest {
                    w.publish(&txn.state);
                }
                let committed = last.commit_fused(&txn.state);
                if committed {
                    for w in rest {
                        w.release(&txn.state);
                    }
                }
                committed
            }
        };
        if committed {
            Ok(())
        } else {
            Err(TxError::Aborted)
        }
    }

    /// Collapse every written locator after this attempt aborted. No-op
    /// per entry if a competitor collapsed the locator first.
    pub(crate) fn rollback(txn: &Txn<'_>) {
        for w in txn.writes.iter() {
            w.release(&txn.state);
        }
    }
}
