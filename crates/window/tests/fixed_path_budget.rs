//! The window managers' share of the fixed-path shared-line budget
//! (`wtm_stm::stm`, "Shared-line budget of a committed transaction"): a
//! window manager orders by (frame, rank, attempt id) and answers
//! `uses_timestamps() == false`, so a transaction under it draws no
//! logical timestamp, and its epoch traffic is the engine's one advance
//! CAS per quiesce stride. Counted with the debug `probe` counters, the
//! classic managers' cases sit beside the engine in `stm.rs`.
#![cfg(debug_assertions)]

use std::sync::Arc;

use wtm_stm::epoch::QUIESCE_STRIDE;
use wtm_stm::{probe, CmDispatch, ContentionManager, Stm, TVar};
use wtm_window::{WindowConfig, WindowManager, WindowVariant};

#[test]
fn online_dynamic_transactions_draw_no_logical_timestamp() {
    const TXNS: u64 = 256;
    let wm = Arc::new(WindowManager::new(
        WindowVariant::OnlineDynamic,
        WindowConfig::new(1, 50).with_seed(7),
    ));
    assert!(!wm.uses_timestamps());
    let stm = Stm::new(CmDispatch::Dyn(wm), 1);
    let tv: TVar<u64> = TVar::new(0);
    let ctx = stm.thread(0);
    probe::take_logical_clock_rmws();
    probe::take_epoch_cases();
    for _ in 0..TXNS {
        ctx.atomic(|tx| {
            let v = *tx.read(&tv)?;
            tx.write(&tv, v + 1)
        });
    }
    assert_eq!(stm.aggregate().aborts, 0, "one thread never retries");
    assert_eq!(
        probe::take_logical_clock_rmws(),
        0,
        "a window manager reads no timestamp, so none may be drawn"
    );
    let cas = probe::take_epoch_cases();
    let bound = TXNS / QUIESCE_STRIDE as u64 + 2;
    assert!(
        cas <= bound,
        "{cas} global-epoch CASes over {TXNS} transactions (bound {bound})"
    );
}
