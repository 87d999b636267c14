//! Cross-crate correctness: every contention manager (classic and
//! window-based) must preserve atomicity and isolation on real
//! multi-threaded workloads. These tests exercise the full stack —
//! engine + manager + data structures — and audit invariants that only
//! hold if the STM is serializable.

use std::sync::Arc;

use windowtm::harness::managers::{all_manager_names, build_manager};
use windowtm::stm::{EngineKind, Stm, TVar};
use windowtm::workloads::{TxIntSet, TxList, TxRBTree, TxSkipList};

const THREADS: usize = 3;

/// Run `per_thread` counter increments on each of `threads` threads under
/// the named manager and check no update is lost. The hot single `TVar`
/// maximizes write-write conflicts, so every manager's full decision logic
/// fires. Each thread's first increment comes before a start barrier, so
/// every thread has claimed its reader slot (or found none left) while
/// all of them are alive.
fn counter_torture(manager: &str, engine: EngineKind, threads: usize, per_thread: u64) {
    let built = build_manager(manager, threads, 8, 7).expect(manager);
    let stm = Stm::with_engine(built.cm.clone(), threads, engine);
    let counter: TVar<u64> = TVar::new(0);
    let start = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let ctx = stm.thread(t);
            let (counter, start) = (&counter, &start);
            s.spawn(move || {
                for i in 0..per_thread {
                    ctx.atomic(|tx| {
                        let v = *tx.read(counter)?;
                        tx.write(counter, v + 1)
                    });
                    if i == 0 {
                        start.wait();
                    }
                }
            });
        }
    });
    built.cancel();
    assert_eq!(
        *counter.sample(),
        threads as u64 * per_thread,
        "lost updates under {manager}/{engine} at {threads} threads"
    );
    let stats = stm.aggregate();
    assert_eq!(stats.commits, threads as u64 * per_thread);
}

#[test]
fn no_lost_updates_under_any_manager() {
    for manager in all_manager_names() {
        counter_torture(manager, EngineKind::Eager, THREADS, 150);
    }
}

#[test]
fn no_lost_updates_under_any_manager_lazy_engine() {
    for manager in all_manager_names() {
        counter_torture(manager, EngineKind::Lazy, THREADS, 150);
    }
}

#[test]
fn no_lost_updates_past_the_reader_slots() {
    // 260 live threads against 256 reader slots: at least four run every
    // read through the object lock and the overflow reader list.
    for engine in EngineKind::ALL {
        for manager in ["Polka", "Greedy"] {
            counter_torture(manager, engine, windowtm::stm::slots::MAX_SLOTS + 4, 20);
        }
    }
}

/// Bank conservation: transfers between accounts must conserve the total
/// under concurrency, for every manager.
fn bank_conservation(manager: &str, engine: EngineKind) {
    const ACCOUNTS: usize = 8;
    const INITIAL: i64 = 100;
    let built = build_manager(manager, THREADS, 8, 13).expect(manager);
    let stm = Stm::with_engine(built.cm.clone(), THREADS, engine);
    let accounts: Arc<Vec<TVar<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ctx = stm.thread(t);
            let accounts = Arc::clone(&accounts);
            s.spawn(move || {
                for i in 0..200usize {
                    let from = (i * 7 + t) % ACCOUNTS;
                    let to = (i * 13 + t * 3 + 1) % ACCOUNTS;
                    if from == to {
                        continue;
                    }
                    ctx.atomic(|tx| {
                        let a = *tx.read(&accounts[from])?;
                        let b = *tx.read(&accounts[to])?;
                        if a >= 5 {
                            tx.write(&accounts[from], a - 5)?;
                            tx.write(&accounts[to], b + 5)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    built.cancel();
    let total: i64 = accounts.iter().map(|a| *a.sample()).sum();
    assert_eq!(
        total,
        ACCOUNTS as i64 * INITIAL,
        "leak under {manager}/{engine}"
    );
    // No account may go negative (the guard reads both balances in the
    // same transaction — a dirty read would break this).
    for a in accounts.iter() {
        assert!(
            *a.sample() >= 0,
            "negative balance under {manager}/{engine}"
        );
    }
}

#[test]
fn bank_conserves_total_under_every_manager() {
    for manager in all_manager_names() {
        bank_conservation(manager, EngineKind::Eager);
    }
}

#[test]
fn bank_conserves_total_under_every_manager_lazy_engine() {
    for manager in all_manager_names() {
        bank_conservation(manager, EngineKind::Lazy);
    }
}

/// Concurrent set workload vs. a sequential oracle: replay the exact same
/// deterministic per-thread operation streams sequentially and compare
/// final contents. Because each per-thread stream is applied in order and
/// set operations commute across threads only when keys are disjoint, we
/// use disjoint per-thread key ranges — any divergence is an isolation
/// bug, not an ordering artifact.
fn disjoint_sets_match_oracle(set: &dyn TxIntSet, manager: &str, engine: EngineKind) {
    let built = build_manager(manager, THREADS, 8, 21).expect(manager);
    let stm = Stm::with_engine(built.cm.clone(), THREADS, engine);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let ctx = stm.thread(t);
            s.spawn(move || {
                let base = (t as i64) * 1000;
                // insert 0..60, remove every third.
                for k in 0..60 {
                    ctx.atomic(|tx| set.insert(tx, base + k).map(|_| ()));
                }
                for k in (0..60).step_by(3) {
                    ctx.atomic(|tx| set.remove(tx, base + k).map(|_| ()));
                }
            });
        }
    });
    built.cancel();
    let mut expect: Vec<i64> = Vec::new();
    for t in 0..THREADS as i64 {
        for k in 0..60 {
            if k % 3 != 0 {
                expect.push(t * 1000 + k);
            }
        }
    }
    expect.sort_unstable();
    assert_eq!(
        set.snapshot_keys(),
        expect,
        "{} diverged under {manager}/{engine}",
        set.name()
    );
}

#[test]
fn list_matches_oracle_under_comparison_managers() {
    for engine in EngineKind::ALL {
        for manager in ["Polka", "Greedy", "Priority", "Online-Dynamic"] {
            let list = TxList::new();
            disjoint_sets_match_oracle(&list, manager, engine);
        }
    }
}

#[test]
fn rbtree_matches_oracle_under_comparison_managers() {
    for engine in EngineKind::ALL {
        for manager in ["Polka", "Greedy", "Adaptive-Improved-Dynamic"] {
            let tree = TxRBTree::new(512);
            disjoint_sets_match_oracle(&tree, manager, engine);
            tree.map().check_invariants();
            tree.map().check_freelist();
        }
    }
}

#[test]
fn skiplist_matches_oracle_under_comparison_managers() {
    for engine in EngineKind::ALL {
        for manager in ["Greedy", "Online-Dynamic"] {
            let sl = TxSkipList::new();
            disjoint_sets_match_oracle(&sl, manager, engine);
        }
    }
}

/// Snapshot isolation sanity: a transaction reading two variables that
/// are always updated together must never observe them out of sync —
/// even while writers hammer them.
#[test]
fn readers_never_observe_torn_pairs() {
    for engine in EngineKind::ALL {
        readers_never_observe_torn_pairs_on(engine);
    }
}

fn readers_never_observe_torn_pairs_on(engine: EngineKind) {
    let built = build_manager("Greedy", 2, 8, 3).unwrap();
    let stm = Stm::with_engine(built.cm.clone(), 2, engine);
    let a: TVar<u64> = TVar::new(0);
    let b: TVar<u64> = TVar::new(0);
    std::thread::scope(|s| {
        {
            let ctx = stm.thread(0);
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for i in 1..=400u64 {
                    ctx.atomic(|tx| {
                        tx.write(&a, i)?;
                        tx.write(&b, i)
                    });
                }
            });
        }
        {
            let ctx = stm.thread(1);
            let (a, b) = (a.clone(), b.clone());
            s.spawn(move || {
                for _ in 0..400 {
                    let (va, vb) = ctx.atomic(|tx| {
                        let va = *tx.read(&a)?;
                        let vb = *tx.read(&b)?;
                        Ok((va, vb))
                    });
                    assert_eq!(va, vb, "torn read under {engine}: a={va} b={vb}");
                }
            });
        }
    });
    built.cancel();
}

/// Explicit failure injection: transactions that abort midway must leave
/// no trace, even after partially building a write set.
#[test]
fn aborted_transactions_leave_no_trace() {
    for engine in EngineKind::ALL {
        aborted_transactions_leave_no_trace_on(engine);
    }
}

fn aborted_transactions_leave_no_trace_on(engine: EngineKind) {
    let built = build_manager("Polka", 1, 8, 5).unwrap();
    let stm = Stm::with_engine(built.cm.clone(), 1, engine);
    let ctx = stm.thread(0);
    let v1: TVar<u64> = TVar::new(10);
    let v2: TVar<u64> = TVar::new(20);
    for _ in 0..50 {
        let out: Option<()> = ctx.atomic_with_budget(0, &mut |tx| {
            tx.write(&v1, 999)?;
            tx.write(&v2, 999)?;
            Err(tx.abort_self())
        });
        assert!(out.is_none());
    }
    assert_eq!(*v1.sample(), 10);
    assert_eq!(*v2.sample(), 20);
    // The variables remain writable afterwards.
    ctx.atomic(|tx| tx.write(&v1, 11));
    assert_eq!(*v1.sample(), 11);
}
