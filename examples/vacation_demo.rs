//! The STAMP-style Vacation workload end to end: populate a travel-booking
//! database, hammer it from several threads under two different
//! contention managers, and audit referential integrity (every booking a
//! customer holds is backed by a reserved unit in the right table).
//!
//! ```text
//! cargo run --example vacation_demo
//! ```

use std::sync::Arc;
use std::time::Instant;

use windowtm::harness::managers::build_manager;
use windowtm::stm::{CmDispatch, Stm};
use windowtm::window::{WindowConfig, WindowManager, WindowVariant};
use windowtm::workloads::{Vacation, VacationConfig, VacationOpGenerator};

const THREADS: usize = 4;
const TXNS_PER_THREAD: usize = 500;

fn drive(vacation: &Arc<Vacation>, stm: &Stm, label: &str, window: Option<&WindowManager>) {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ctx = stm.thread(t);
            let v = Arc::clone(vacation);
            s.spawn(move || {
                let mut gen = VacationOpGenerator::new(v.config(), t);
                for _ in 0..TXNS_PER_THREAD {
                    let op = gen.next_op();
                    ctx.atomic(|tx| v.run_op(tx, &op).map(|_| ()));
                }
            });
        }
    });
    if let Some(w) = window {
        w.cancel();
    }
    let stats = stm.aggregate();
    vacation.check_consistency();
    println!(
        "{label:<18} {:>7.0} txn/s  aborts/commit {:>6.3}  bookings now {}",
        stats.commits as f64 / t0.elapsed().as_secs_f64(),
        stats.aborts_per_commit(),
        vacation.total_bookings(),
    );
}

fn main() {
    let cfg = VacationConfig {
        num_relations: 64,
        num_queries: 4,
        query_range_pct: 60,
        update_pct: 40,
        seed: 2024,
    };
    println!(
        "vacation: {} rows/table, {} queries/txn, {}% updates, {} threads\n",
        cfg.num_relations, cfg.num_queries, cfg.update_pct, THREADS
    );

    // Run 1: Polka, built as the harness builds it for the figures.
    let polka = build_manager("Polka", THREADS, 50, 1).expect("classic manager");
    let stm = Stm::new(polka.cm, THREADS);
    assert!(matches!(stm.cm(), CmDispatch::Polka(_)));
    let vacation = Arc::new(Vacation::new(cfg.clone()));
    drive(&vacation, &stm, "Polka", None);

    // Run 2: the paper's Adaptive-Improved-Dynamic window manager.
    let wm = Arc::new(WindowManager::new(
        WindowVariant::AdaptiveImprovedDynamic,
        WindowConfig::new(THREADS, 50),
    ));
    let stm2 = Stm::new(wm.clone(), THREADS);
    let vacation2 = Arc::new(Vacation::new(cfg));
    drive(&vacation2, &stm2, "Adaptive-Imp-Dyn", Some(&wm));

    println!("\nconsistency audits passed for both runs ✓");
}
