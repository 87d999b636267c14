//! Inline-vs-boxed write-entry equivalence.
//!
//! A write-set entry holds one payload type, the object handle plus the
//! value, and stores it *inline* in the entry when the value is ≤ 24 bytes
//! and in a `Box` otherwise. The storage must be invisible to users: for
//! the same operation sequence, a transaction over an inline-sized type
//! and one over a boxed-sized type must observe identical read-your-writes
//! values, identical committed values, and identical abort semantics.
//!
//! Property test: random operation sequences (write / modify / read,
//! chunked into transactions, with a forced first-attempt abort on every
//! third transaction) replayed against padded payload types on both sides
//! of the 24-byte threshold — 16 and 24 value bytes (inline; 24 is the
//! exact boundary) vs 25 and 48 (boxed; 25 is one past it).

use proptest::prelude::*;
use wtm_stm::{CmDispatch, Stm, TVar};

/// `u64` observable plus `N` padding bytes: the payload is `8 + N` bytes,
/// so `N <= 16` stays inline and `N >= 17` spills to the boxed path.
#[derive(Clone, Debug, PartialEq)]
struct Pad<const N: usize> {
    x: u64,
    pad: [u8; N],
}

impl<const N: usize> Pad<N> {
    fn new(x: u64) -> Self {
        Pad { x, pad: [0xAB; N] }
    }
}

/// One step of a transaction body.
#[derive(Clone, Copy, Debug)]
enum Op {
    Write(u64),
    Modify(u64),
    Read,
}

fn decode(kind: u8, v: u64) -> Op {
    match kind % 3 {
        0 => Op::Write(v),
        1 => Op::Modify(v),
        _ => Op::Read,
    }
}

/// Replay `ops` (3 steps per transaction; every third transaction's first
/// attempt aborts after running its steps) and return every observable:
/// each in-transaction read and each post-commit value.
fn observe<const N: usize>(ops: &[(u8, u64)]) -> Vec<u64> {
    let stm = Stm::new(CmDispatch::AbortSelf, 1);
    let ctx = stm.thread(0);
    let tv: TVar<Pad<N>> = TVar::new(Pad::new(0));
    let mut obs: Vec<u64> = Vec::new();
    for (i, chunk) in ops.chunks(3).enumerate() {
        let force_abort = i % 3 == 2;
        let mut first_attempt = true;
        let reads = ctx.atomic(|tx| {
            let mut reads = Vec::new();
            for &(kind, v) in chunk {
                match decode(kind, v) {
                    Op::Write(v) => tx.write(&tv, Pad::new(v))?,
                    Op::Modify(d) => tx.modify(&tv, |p| p.x = p.x.wrapping_add(d))?,
                    Op::Read => {}
                }
                reads.push(tx.read(&tv)?.x);
            }
            if force_abort && first_attempt {
                first_attempt = false;
                // The aborted attempt's writes must be invisible: the
                // retry (which writes nothing) re-reads the pre-abort
                // state below.
                return Err(tx.abort_self());
            }
            Ok(reads)
        });
        // The retry of a force-abort transaction runs the same steps, so
        // its reads are still comparable observables.
        obs.extend(reads);
        obs.push(ctx.atomic(|tx| tx.read(&tv).map(|p| p.x)));
    }
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn representation_is_invisible(
        ops in proptest::collection::vec((0..6u8, 0..1000u64), 1..30)
    ) {
        let inline_small = observe::<8>(&ops);
        let inline_edge = observe::<16>(&ops); // 24-byte payload: last inline size
        let boxed_edge = observe::<17>(&ops); // 25-byte payload: first boxed size
        let boxed_large = observe::<40>(&ops);
        prop_assert_eq!(&inline_small, &inline_edge);
        prop_assert_eq!(&inline_edge, &boxed_edge);
        prop_assert_eq!(&boxed_edge, &boxed_large);
    }
}

/// Deterministic spot-check that the force-abort path really discards
/// writes on both representations (guards the proptest's premise).
#[test]
fn aborted_writes_are_invisible_on_both_representations() {
    fn check<const N: usize>() {
        let stm = Stm::new(CmDispatch::AbortSelf, 1);
        let ctx = stm.thread(0);
        let tv: TVar<Pad<N>> = TVar::new(Pad::new(1));
        let mut first = true;
        ctx.atomic(|tx| {
            if first {
                first = false;
                tx.write(&tv, Pad::new(99))?;
                assert_eq!(tx.read(&tv)?.x, 99, "read-your-writes before abort");
                return Err(tx.abort_self());
            }
            assert_eq!(tx.read(&tv)?.x, 1, "aborted write leaked");
            Ok(())
        });
        assert_eq!(ctx.atomic(|tx| tx.read(&tv).map(|p| p.x)), 1);
    }
    check::<16>(); // inline
    check::<17>(); // boxed
}
