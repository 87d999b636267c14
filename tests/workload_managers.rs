//! Workload × manager matrix tests: the full benchmark suite stays
//! consistent under every contention-manager family, including the
//! paper's window variants, at every contention level.

use std::sync::Arc;

use windowtm::harness::managers::build_manager;
use windowtm::stm::{EngineKind, Stm};
use windowtm::workloads::{ContentionLevel, Vacation, VacationConfig, VacationOpGenerator};

/// Vacation (24 rows a table) under a given manager, engine, thread count
/// and update percentage stays referentially consistent (bookings ↔
/// reserved units).
fn vacation_consistent(manager: &str, engine: EngineKind, threads: usize, update_pct: u32) {
    let cfg = VacationConfig {
        num_relations: 24,
        num_queries: 3,
        query_range_pct: 80,
        update_pct,
        seed: 7,
    };
    let built = build_manager(manager, threads, 8, 3).expect(manager);
    let stm = Stm::with_engine(built.cm.clone(), threads, engine);
    let v = Arc::new(Vacation::new(cfg));
    std::thread::scope(|s| {
        for t in 0..threads {
            let ctx = stm.thread(t);
            let v = Arc::clone(&v);
            s.spawn(move || {
                let mut gen = VacationOpGenerator::new(v.config(), t);
                for _ in 0..120 {
                    let op = gen.next_op();
                    ctx.atomic(|tx| v.run_op(tx, &op).map(|_| ()));
                }
            });
        }
    });
    built.cancel();
    v.check_consistency();
}

#[test]
fn vacation_consistent_under_window_managers_all_levels() {
    for engine in EngineKind::ALL {
        for manager in ["Online-Dynamic", "Adaptive", "Adaptive-Improved-Dynamic"] {
            for level in ContentionLevel::all() {
                vacation_consistent(manager, engine, 3, level.update_pct());
            }
        }
    }
}

#[test]
fn vacation_consistent_under_classic_managers() {
    for engine in EngineKind::ALL {
        for manager in ["Polka", "Greedy", "Priority"] {
            vacation_consistent(manager, engine, 3, ContentionLevel::High.update_pct());
        }
    }
}

/// No `UpdateTables`: a tenth of the transactions remove a customer, and
/// the customer's row object is dropped (once the next insert reuses the
/// node's arena slot) while other attempts may still hold borrows of it —
/// the object-drop arm of the borrowed-read invariant (`wtm_stm::tvar`),
/// under the lazy engine, whose read set keeps plain pointers into the
/// object until commit.
#[test]
fn vacation_consistent_under_lazy_delete_heavy_mix() {
    for manager in ["Polka", "Online-Dynamic"] {
        vacation_consistent(manager, EngineKind::Lazy, 4, 0);
    }
}

#[test]
fn hashset_concurrent_oracle_under_several_managers() {
    use windowtm::workloads::{TxHashSet, TxIntSet};
    for manager in ["Polka", "Greedy", "Online-Dynamic"] {
        const THREADS: usize = 3;
        let built = build_manager(manager, THREADS, 8, 9).expect(manager);
        let stm = Stm::new(built.cm.clone(), THREADS);
        let set = Arc::new(TxHashSet::new(16));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ctx = stm.thread(t);
                let set = Arc::clone(&set);
                s.spawn(move || {
                    let base = (t as i64) * 500;
                    for k in 0..40 {
                        ctx.atomic(|tx| set.insert(tx, base + k).map(|_| ()));
                    }
                    for k in (0..40).step_by(4) {
                        ctx.atomic(|tx| set.remove(tx, base + k).map(|_| ()));
                    }
                });
            }
        });
        built.cancel();
        let mut expect = Vec::new();
        for t in 0..THREADS as i64 {
            for k in 0..40 {
                if k % 4 != 0 {
                    expect.push(t * 500 + k);
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(set.snapshot_keys(), expect, "diverged under {manager}");
        set.map().check_invariants();
    }
}
