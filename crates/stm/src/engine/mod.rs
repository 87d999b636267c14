//! The engine seam: one transaction API, two concurrency-control
//! protocols.
//!
//! The paper's evaluation ran on a single substrate — eager conflict
//! detection, visible reads, obstruction-free locators (DSTM2). Whether
//! the window-CM ranking *survives a change of substrate* is exactly the
//! question this module makes askable: two engines each carry the four
//! protocol-defining operations (open-for-read, open-for-modify, commit,
//! rollback) for [`Txn`](crate::txn::Txn), and plug into the same CM
//! hooks, workloads, and statistics:
//!
//! * [`EagerEngine`](eager::EagerEngine) — the original protocol:
//!   visible reads, eager CM consultation at open time, shadow copies
//!   published through the locator status CAS and folded back by the
//!   committer itself.
//! * [`LazyEngine`](lazy::LazyEngine) — a TL2/STO-style protocol:
//!   reads no committer sees, validated against a read timestamp, writes
//!   buffered privately, per-object commit locks taken only at commit time.
//!
//! Dispatch is monomorphic, mirroring [`CmDispatch`](crate::CmDispatch):
//! `Txn` matches on the run's [`EngineKind`] and calls the chosen engine's
//! associated functions directly — no trait objects on the hot path.
//!
//! One engine per run: an [`Stm`](crate::Stm) is built for a single
//! `EngineKind`, and a `TVar` must never be driven by both engines
//! concurrently — the lazy commit lock CASes the seqlock word directly,
//! which is only sound against other CAS-based lockers, not against the
//! eager path's mutex-serialized transitions. Sequential reuse (e.g. an
//! eager run followed by a lazy run over the same structures) needs no
//! hand-over: an eager attempt folds every locator it wrote before it is
//! over, so the next run finds every seqlock word even.

pub(crate) mod eager;
pub(crate) mod lazy;

use std::sync::atomic::{AtomicU64, Ordering};

use crate::tvar::TVarInner;
use crate::TxObject;

/// Which concurrency-control protocol a run uses. An axis of experiment
/// identity, alongside the manager name and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Eager conflict detection, visible reads, obstruction-free locators
    /// (the DSTM2-style substrate the paper measured on).
    #[default]
    Eager,
    /// TL2/STO-style commit-time locking: invisible reads + read-set
    /// validation, write locks only at commit.
    Lazy,
}

impl EngineKind {
    /// Every engine, in presentation order.
    pub const ALL: [EngineKind; 2] = [EngineKind::Eager, EngineKind::Lazy];

    /// Canonical lowercase name (CLI values, results-file identity keys).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Eager => "eager",
            EngineKind::Lazy => "lazy",
        }
    }

    /// Parse a CLI/spec value. Case-insensitive.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "eager" => Some(EngineKind::Eager),
            "lazy" => Some(EngineKind::Lazy),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        EngineKind::parse(s).ok_or_else(|| {
            format!(
                "unknown engine {s:?} (expected one of: {})",
                EngineKind::ALL.map(|e| e.name()).join(", ")
            )
        })
    }
}

/// One validated read of the lazy engine: which object, the seqlock word
/// observed, and where commit validation re-reads the word and the version
/// stamp. Plain pointers, no count of the object: the read registered its
/// attempt, and whoever frees the object first lends its allocation to
/// every registered attempt whose commit may still run (the invariant in
/// [`crate::tvar`]).
pub(crate) struct LazyRead {
    pub(crate) id: u64,
    pub(crate) seq: u64,
    seq_word: *const AtomicU64,
    version_word: *const AtomicU64,
}

// SAFETY: the pointers are dereferenced only by the attempt that made the
// read, on the thread that runs it; a pooled read-set buffer crosses
// threads empty.
unsafe impl Send for LazyRead {}

impl LazyRead {
    /// The entry for a [`TVarInner::lazy_sample`](crate::tvar::TVarInner::lazy_sample) of `obj` that observed
    /// seqlock word `seq`.
    pub(crate) fn new<T: TxObject>(obj: &TVarInner<T>, seq: u64) -> Self {
        let (seq_word, version_word) = obj.validation_words();
        LazyRead {
            id: obj.id,
            seq,
            seq_word,
            version_word,
        }
    }

    /// Current seqlock word of the object.
    ///
    /// # Safety
    /// Only from the attempt the entry was made under, before that
    /// attempt is `Committed` or has run `finish_body`.
    pub(crate) unsafe fn seq_now(&self) -> u64 {
        (*self.seq_word).load(Ordering::SeqCst)
    }

    /// Current committed-version stamp of the object.
    ///
    /// # Safety
    /// As for [`Self::seq_now`].
    pub(crate) unsafe fn version_now(&self) -> u64 {
        (*self.version_word).load(Ordering::SeqCst)
    }
}

/// The lazy engine's global version clock.
///
/// Process-global, not per-[`Stm`](crate::Stm): objects outlive any single
/// engine (a `TVar` built under one run is routinely reused by the next),
/// and a version stamped from run A's clock must still compare correctly
/// against watermarks taken under run B. Monotonicity across the whole
/// process gives that for free; a per-engine clock would restart at zero
/// and make every carried-over version look like it came from the future.
static VERSION_CLOCK: AtomicU64 = AtomicU64::new(0);

/// The read watermark for a starting lazy attempt: every version `≤` this
/// value is a committed version "of the past".
pub(crate) fn read_watermark() -> u64 {
    VERSION_CLOCK.load(Ordering::SeqCst)
}

/// The write version of a committing lazy transaction that holds all its
/// commit locks and has won its status CAS: TL2's GV1 clock, one
/// `fetch_add` per writing commit. Every stamp is unique, none is ahead
/// of the clock, and a commit that locks an object after another released
/// it stamps a larger version — the facts the opacity argument in
/// `engine::lazy` rests on. A read-only commit never calls this.
pub(crate) fn write_version() -> u64 {
    #[cfg(debug_assertions)]
    crate::probe::count_clock_rmw();
    VERSION_CLOCK.fetch_add(1, Ordering::SeqCst) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip_through_parse() {
        for e in EngineKind::ALL {
            assert_eq!(EngineKind::parse(e.name()), Some(e));
            assert_eq!(e.name().parse::<EngineKind>().unwrap(), e);
        }
        assert_eq!(EngineKind::parse("LAZY"), Some(EngineKind::Lazy));
        assert_eq!(EngineKind::parse("tl2"), None);
        assert!("tl2".parse::<EngineKind>().unwrap_err().contains("eager"));
    }

    #[test]
    fn default_is_the_paper_substrate() {
        assert_eq!(EngineKind::default(), EngineKind::Eager);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_lazy_commit_takes_one_clock_rmw_iff_it_writes() {
        use crate::{CmDispatch, Stm, TVar};
        // The probe counter is thread-local, so concurrent tests cannot
        // perturb these deltas.
        let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, EngineKind::Lazy);
        let ctx = stm.thread(0);
        let tv: TVar<u64> = TVar::new(1);
        ctx.atomic(|tx| tx.read(&tv).map(|v| *v)); // warm the attempt pool
        crate::probe::take_clock_rmws();
        for _ in 0..64 {
            ctx.atomic(|tx| tx.read(&tv).map(|v| *v));
        }
        assert_eq!(crate::probe::take_clock_rmws(), 0, "read-only commits");
        for n in 0..64u64 {
            ctx.atomic(|tx| tx.write(&tv, n));
        }
        assert_eq!(crate::probe::take_clock_rmws(), 64, "blind-write commits");
        for _ in 0..8 {
            ctx.atomic(|tx| {
                let v = *tx.read(&tv)?;
                tx.write(&tv, v + 1)
            });
        }
        assert_eq!(crate::probe::take_clock_rmws(), 8, "read+write commits");
    }

    #[test]
    fn no_committed_version_is_ahead_of_the_clock() {
        // Blind writes included: the watermark extension in
        // `read_committed` relies on a fresh watermark admitting every
        // committed version.
        use crate::{CmDispatch, Stm, TVar};
        let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, EngineKind::Lazy);
        let ctx = stm.thread(0);
        let tv: TVar<u64> = TVar::new(0);
        let (_, version) = tv.inner().validation_words();
        for n in 1..=64u64 {
            ctx.atomic(|tx| tx.write(&tv, n));
            let v = version.load(Ordering::SeqCst);
            assert!(v > 0 && v <= read_watermark(), "commit {n}: version {v}");
        }
    }
}
