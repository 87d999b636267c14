//! Output checks on the concrete structures. The registry's `Workload`
//! trait exposes no audit, so this drives `TxList`, the red-black tree,
//! the hash set and `Vacation` directly at two threads, then calls their
//! non-transactional audits and balances the books:
//! size = prepopulated + successful inserts - successful removes.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wtm_harness::build_manager;
use wtm_stm::{CmDispatch, EngineKind, Stm};
use wtm_workloads::{
    OpKind, SetOpGenerator, TxHashSet, TxIntSet, TxList, TxRBTree, Vacation, VacationConfig,
    VacationOpGenerator,
};

use crate::summary::Outcome;
use crate::table::{THREADS, WINDOW_N};

/// Operations per thread of one structure check.
const OPS: u64 = 10_000;
const KEY_RANGE: i64 = 256;

/// Run `audit`, turning a failed assertion inside it into a failed check.
fn audited(label: &str, ops: u64, out: &mut Outcome, audit: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(audit)).is_err() {
        out.fail(ops, format!("{label}: audit failed"));
    }
}

/// The books of a set: what it must hold after the run.
pub fn check_size(label: &str, expected: i64, keys: &mut [i64], ops: u64, out: &mut Outcome) {
    keys.sort_unstable();
    if keys.windows(2).any(|w| w[0] == w[1]) {
        out.fail(ops, format!("{label}: duplicate keys"));
    }
    if keys.len() as i64 != expected {
        out.fail(
            (keys.len() as i64).abs_diff(expected),
            format!("{label}: holds {} keys, expected {expected}", keys.len()),
        );
    }
}

fn check_set(
    label: &str,
    set: &dyn TxIntSet,
    audit: impl FnOnce(),
    engine: EngineKind,
    seed: u64,
    out: &mut Outcome,
) {
    let label = format!("check {label}/{engine}");
    let mut expected = 0i64;
    {
        let prep = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
        let ctx = prep.thread(0);
        for key in (0..KEY_RANGE).step_by(2) {
            expected += i64::from(ctx.atomic(|tx| set.insert(tx, key)));
        }
    }
    let built = build_manager("Polka", THREADS, WINDOW_N, seed).expect("Polka is registered");
    let stm = Stm::with_engine(built.cm.clone(), THREADS, engine);
    let deltas: Vec<i64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stm = &stm;
                s.spawn(move || {
                    let ctx = stm.thread(t);
                    let mut ops = SetOpGenerator::new(seed, t, KEY_RANGE, 80);
                    let mut delta = 0i64;
                    for _ in 0..OPS {
                        let op = ops.next_op();
                        delta += match op.kind {
                            OpKind::Insert => i64::from(ctx.atomic(|tx| set.insert(tx, op.key))),
                            OpKind::Remove => -i64::from(ctx.atomic(|tx| set.remove(tx, op.key))),
                            OpKind::Contains => {
                                ctx.atomic(|tx| set.contains(tx, op.key));
                                0
                            }
                        };
                    }
                    delta
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check worker panicked"))
            .collect()
    });
    let ops = OPS * THREADS as u64;
    out.attempted += ops;
    expected += deltas.iter().sum::<i64>();
    audited(&label, ops, out, audit);
    check_size(&label, expected, &mut set.snapshot_keys(), ops, out);
}

fn check_vacation(engine: EngineKind, seed: u64, out: &mut Outcome) {
    let vacation = Vacation::new(VacationConfig {
        update_pct: 50,
        seed,
        ..VacationConfig::default()
    });
    let built = build_manager("Polka", THREADS, WINDOW_N, seed).expect("Polka is registered");
    let stm = Stm::with_engine(built.cm.clone(), THREADS, engine);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (stm, vacation) = (&stm, &vacation);
            s.spawn(move || {
                let ctx = stm.thread(t);
                let mut ops = VacationOpGenerator::new(vacation.config(), t);
                for _ in 0..OPS {
                    let op = ops.next_op();
                    ctx.atomic(|tx| vacation.run_op(tx, &op));
                }
            });
        }
    });
    let ops = OPS * THREADS as u64;
    out.attempted += ops;
    audited(&format!("check Vacation/{engine}"), ops, out, || {
        vacation.check_consistency()
    });
}

/// Check the structure behind registry workload `name` under `engine`.
pub fn check_structure(name: &str, engine: EngineKind, seed: u64, out: &mut Outcome) {
    match name {
        "List" => check_set(name, &TxList::new(), || {}, engine, seed, out),
        "RBTree" => {
            let tree = TxRBTree::new(KEY_RANGE as usize + 8);
            let audit = || {
                tree.map().check_invariants();
                tree.map().check_freelist();
            };
            check_set(name, &tree, audit, engine, seed, out);
        }
        "HashMap" => {
            let set = TxHashSet::new(64);
            check_set(
                name,
                &set,
                || set.map().check_invariants(),
                engine,
                seed,
                out,
            );
        }
        "Vacation" => check_vacation(engine, seed, out),
        other => panic!("no structure check for workload {other}"),
    }
}

/// Every structure under both engines.
pub fn check_all(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    for engine in [EngineKind::Eager, EngineKind::Lazy] {
        for name in ["List", "RBTree", "HashMap", "Vacation"] {
            let before = out.problems.len();
            check_structure(name, engine, seed, &mut out);
            let verdict = if out.problems.len() == before {
                "ok"
            } else {
                "FAILED"
            };
            println!("check {name}/{engine} {verdict}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structures_pass_under_both_engines() {
        let out = check_all(7);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.attempted, 8 * OPS * THREADS as u64);
    }

    #[test]
    fn a_wrong_expectation_counts_failed_operations() {
        let mut out = Outcome::default();
        check_size("books", 5, &mut [3, 1, 2], 100, &mut out);
        assert!(!out.correct());
        assert_eq!(out.failed, 2);
        let mut out = Outcome::default();
        check_size("books", 3, &mut [3, 1, 3], 100, &mut out);
        assert_eq!(out.failed, 100);
        let mut out = Outcome::default();
        audited("audit", 40, &mut out, || panic!("broken invariant"));
        assert_eq!(out.failed, 40);
    }
}
