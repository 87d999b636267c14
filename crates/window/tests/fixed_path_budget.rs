//! The window managers' share of the fixed-path shared-line budget
//! (`wtm_stm::stm`, "Shared-line budget of a committed transaction"): a
//! window manager orders by (frame, rank, attempt id), and a transaction
//! under it reads as under a classic manager, one store to a word of its
//! own row and no read-modify-write on a line other readers write.
//! Counted with the debug `probe` counters, the classic managers' cases
//! sit beside the engine in `stm.rs`.
#![cfg(debug_assertions)]

use std::sync::Arc;

use wtm_stm::{probe, CmDispatch, Stm, TVar};
use wtm_window::{WindowConfig, WindowManager, WindowVariant};

#[test]
fn online_dynamic_transactions_draw_no_logical_timestamp() {
    const TXNS: u64 = 256;
    let wm = Arc::new(WindowManager::new(
        WindowVariant::OnlineDynamic,
        WindowConfig::new(1, 50).with_seed(7),
    ));
    let stm = Stm::new(CmDispatch::Dyn(wm), 1);
    let tv: TVar<u64> = TVar::new(0);
    let ctx = stm.thread(0);
    probe::take_read_slot_stores();
    probe::take_read_shared_rmws();
    for _ in 0..TXNS {
        ctx.atomic(|tx| {
            let v = *tx.read(&tv)?;
            tx.write(&tv, v + 1)
        });
    }
    assert_eq!(stm.aggregate().aborts, 0, "one thread never retries");
    assert_eq!(
        (
            probe::take_read_slot_stores(),
            probe::take_read_shared_rmws()
        ),
        (TXNS, 0),
        "(slot-word stores, shared-line RMWs) of reads over {TXNS} committed transactions"
    );
}
