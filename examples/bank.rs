//! Bank transfers: a classic STM correctness demo with a twist — the same
//! workload runs under several contention managers and reports how much
//! work each one wasted, while an invariant (total balance conservation)
//! is audited after every run.
//!
//! ```text
//! cargo run --example bank
//! ```

use std::sync::Arc;

use windowtm::harness::managers::{build_manager, classic_manager_names};
use windowtm::stm::{CmDispatch, Stm, TVar};
use windowtm::window::{WindowConfig, WindowManager, WindowVariant};

const ACCOUNTS: usize = 16;
const THREADS: usize = 4;
const TRANSFERS_PER_THREAD: usize = 400;
const INITIAL_BALANCE: i64 = 1_000;

fn run(manager: impl Into<CmDispatch>, window: Option<Arc<WindowManager>>) {
    let manager = manager.into();
    let name = manager.name().to_string();
    let stm = Stm::new(manager, THREADS);
    let accounts: Vec<TVar<i64>> = (0..ACCOUNTS).map(|_| TVar::new(INITIAL_BALANCE)).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ctx = stm.thread(t);
            let accounts = &accounts;
            s.spawn(move || {
                // Deterministic pseudo-random transfer pattern per thread.
                let mut state = 0x9E3779B97F4A7C15u64 ^ (t as u64) << 32;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..TRANSFERS_PER_THREAD {
                    let from = (next() as usize) % ACCOUNTS;
                    let mut to = (next() as usize) % ACCOUNTS;
                    if to == from {
                        to = (to + 1) % ACCOUNTS;
                    }
                    let amount = (next() % 50) as i64 + 1;
                    ctx.atomic(|tx| {
                        let a = *tx.read(&accounts[from])?;
                        let b = *tx.read(&accounts[to])?;
                        if a >= amount {
                            tx.write(&accounts[from], a - amount)?;
                            tx.write(&accounts[to], b + amount)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    if let Some(w) = window {
        w.cancel();
    }

    let total: i64 = accounts.iter().map(|a| *a.sample()).sum();
    let stats = stm.aggregate();
    assert_eq!(
        total,
        (ACCOUNTS as i64) * INITIAL_BALANCE,
        "balance must be conserved"
    );
    println!(
        "{name:<28} commits {:>6}  aborts {:>6}  aborts/commit {:>6.3}  wasted {:>5.1}%",
        stats.commits,
        stats.aborts,
        stats.aborts_per_commit(),
        stats.wasted_work() * 100.0,
    );
}

fn main() {
    println!(
        "bank: {ACCOUNTS} accounts, {THREADS} threads × {TRANSFERS_PER_THREAD} transfers, invariant = conservation\n"
    );
    // Classic managers.
    for name in classic_manager_names() {
        let built = build_manager(name, THREADS, 50, 1).expect("classic manager");
        run(built.cm, None);
    }
    // Window-based managers.
    for variant in [
        WindowVariant::OnlineDynamic,
        WindowVariant::AdaptiveImprovedDynamic,
    ] {
        let wm = Arc::new(WindowManager::new(variant, WindowConfig::new(THREADS, 50)));
        run(wm.clone(), Some(wm));
    }
    println!("\nall runs conserved the total balance ✓");
}
