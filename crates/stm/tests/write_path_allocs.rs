//! Allocation-regression test for the write/commit hot path.
//!
//! Installs the vendored counting allocator as the test binary's global
//! allocator and proves that, after warmup, transactions writing
//! `u64`-sized values perform **zero** heap allocations and deallocations
//! under either engine:
//!
//! * write-set entries store their values inline (no `Box<dyn ErasedWrite>`)
//!   in a `Vec` the thread context pools, however wide the write set,
//! * every committed version is built in the object's recycled
//!   `ObjState::spare` allocation,
//! * `TxState` attempts reuse the thread context's spare, the state the
//!   registry handed back at the previous republish,
//! * stats are bumped in pre-existing atomics,
//! * a lazy commit sorts its write set in place and counts what it locked,
//!   and its read set is plain words in a pooled `Vec`.
//!
//! A value too large to store inline costs its write-set entry's `Box`
//! and nothing else: exactly one allocation and one deallocation per
//! writing transaction, under either engine, whether it writes blind,
//! reads first or modifies in place.
//!
//! The counters are per-thread, so the libtest harness running the two
//! tests concurrently cannot pollute either measurement, and each
//! assertion names its engine and value size.

use wtm_stm::{CmDispatch, EngineKind, Stm, TVar, ThreadCtx, TxResult, Txn};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// The three measured shapes, in turn: read + write on one object
/// (`increment_txn`), a two-object write, and a read + write of every
/// object of `wide`.
fn run_mix(ctx: &ThreadCtx<'_>, a: &TVar<u64>, b: &TVar<u64>, wide: &[TVar<u64>]) {
    ctx.atomic(|tx| {
        let v = *tx.read(a)?;
        tx.write(a, v + 1)
    });
    ctx.atomic(|tx| {
        let v = *tx.read(a)?;
        tx.write(a, v)?;
        tx.write(b, v)
    });
    ctx.atomic(|tx: &mut Txn| -> TxResult<()> {
        for tv in wide {
            let v = *tx.read(tv)?;
            tx.write(tv, v + 1)?;
        }
        Ok(())
    });
}

#[test]
fn write_commit_path_is_allocation_free_for_small_values() {
    for engine in EngineKind::ALL {
        allocation_free_under(engine);
    }
}

fn allocation_free_under(engine: EngineKind) {
    let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
    let ctx = stm.thread(0);
    let a: TVar<u64> = TVar::new(0);
    let b: TVar<u64> = TVar::new(0);
    let wide: Vec<TVar<u64>> = (0..12).map(|_| TVar::new(0)).collect();

    // Warmup: settle the TxState spare, the per-object spare-Arc slots,
    // read- and write-set capacity, and the lazily-initialised clock. The
    // warmup runs the *same* transaction mix as the measured region, so
    // every buffer has already grown to the widest transaction.
    for _ in 0..96 {
        run_mix(&ctx, &a, &b, &wide);
    }

    counting_alloc::reset();
    const N: u64 = 1_000;
    for _ in 0..N {
        run_mix(&ctx, &a, &b, &wide);
    }
    let allocs = counting_alloc::allocs();
    let deallocs = counting_alloc::deallocs();

    assert_eq!(
        (allocs, deallocs),
        (0, 0),
        "{engine}: write/commit path allocated: {allocs} allocs / {deallocs} deallocs \
         over {N} rounds of the three-transaction mix (expected zero after warmup)"
    );

    // The transactions above really ran.
    assert_eq!(ctx.atomic(|tx| tx.read(&a).map(|v| *v)), 96 + N);
    assert_eq!(ctx.atomic(|tx| tx.read(&wide[11]).map(|v| *v)), 96 + N);
}

/// Larger than the 24 value bytes an entry stores inline.
type Large = [u64; 4];

/// The three large-value shapes, each a transaction of its own: a blind
/// write, a read + write and a `modify`.
fn run_large(ctx: &ThreadCtx<'_>, big: &TVar<Large>) {
    ctx.atomic(|tx| tx.write(big, [1; 4]));
    ctx.atomic(|tx| {
        let v = *tx.read(big)?;
        tx.write(big, v.map(|w| w + 1))
    });
    ctx.atomic(|tx| tx.modify(big, |v| v[0] += 1));
}

#[test]
fn a_large_value_write_costs_its_entry_box_and_nothing_else() {
    for engine in EngineKind::ALL {
        one_box_per_large_write_under(engine);
    }
}

fn one_box_per_large_write_under(engine: EngineKind) {
    let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
    let ctx = stm.thread(0);
    let big: TVar<Large> = TVar::new([0; 4]);
    for _ in 0..96 {
        run_large(&ctx, &big);
    }

    counting_alloc::reset();
    const N: u64 = 1_000;
    for _ in 0..N {
        run_large(&ctx, &big);
    }
    let allocs = counting_alloc::allocs();
    let deallocs = counting_alloc::deallocs();

    let txns = 3 * N;
    assert_eq!(
        (allocs, deallocs),
        (txns, txns),
        "{engine}: {allocs} allocs / {deallocs} deallocs over {txns} large-value \
         transactions (expected one entry box each)"
    );
    assert_eq!(ctx.atomic(|tx| tx.read(&big).map(|v| *v)), [3, 2, 2, 2]);
}
