//! Property-based tests: the transactional data structures must behave
//! exactly like their `std` oracles on arbitrary operation sequences, and
//! their structural invariants must hold after every prefix. A structure
//! built populated must be, object for object, the one that inserting
//! the same keys one transaction at a time leaves, under both engines.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use windowtm::stm::cm::AbortSelfManager;
use windowtm::stm::{CmDispatch, EngineKind, Stm, TVar, TxResult, Txn};
use windowtm::workloads::skiplist::check_skiplist;
use windowtm::workloads::vacation::{ResKind, Reservation};
use windowtm::workloads::{
    TxHashSet, TxIntSet, TxList, TxRBMap, TxRBTree, TxSkipList, Vacation, VacationConfig,
};

const ENGINES: [EngineKind; 2] = [EngineKind::Eager, EngineKind::Lazy];

/// Insert `keys` one transaction each, in order, on a fresh
/// single-threaded `engine` — how workloads used to be prepopulated.
/// `insert` gets the key's position, which maps use as its value.
fn transact_each(
    engine: EngineKind,
    keys: &[i64],
    insert: impl Fn(&mut Txn, usize, i64) -> TxResult<bool>,
) {
    let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
    let ctx = stm.thread(0);
    for (i, &k) in keys.iter().enumerate() {
        ctx.atomic(|tx| insert(tx, i, k));
    }
}

/// `TxRBMap::with_entries` against `new` plus one insert transaction per
/// key: every slot (key, value, colour, links, free-list successor,
/// in-use flag), the root and the free-list head.
fn assert_rbmap_built_as_transacted(capacity: usize, keys: &[i64]) {
    let entries = keys.iter().enumerate().map(|(i, &k)| (k, i as u64));
    let built = TxRBMap::with_entries(capacity, entries);
    built.check_invariants();
    built.check_freelist();
    for engine in ENGINES {
        let map: TxRBMap<u64> = TxRBMap::new(capacity);
        transact_each(engine, keys, |tx, i, k| map.insert(tx, k, i as u64));
        assert_eq!(
            built.image(|v| *v),
            map.image(|v| *v),
            "{engine}: capacity {capacity}, keys {keys:?}"
        );
    }
}

/// The List, SkipList and HashMap constructors against their insert
/// transactions: the list's key order, every skip-list tower's height and
/// level links, and every hash chain's order.
fn assert_sets_built_as_transacted(buckets: usize, keys: &[i64]) {
    let list = TxList::with_keys(keys.iter().copied());
    let skiplist = TxSkipList::with_keys(keys.iter().copied());
    let hash = TxHashSet::with_keys(buckets, keys.iter().copied());
    check_skiplist(&skiplist);
    hash.map().check_invariants();
    for engine in ENGINES {
        let l = TxList::new();
        let sl = TxSkipList::new();
        let h = TxHashSet::new(buckets);
        transact_each(engine, keys, |tx, _, k| {
            Ok(l.insert(tx, k)? & sl.insert(tx, k)? & h.insert(tx, k)?)
        });
        assert_eq!(list.snapshot_keys(), l.snapshot_keys(), "{engine}: list");
        assert_eq!(skiplist.towers(), sl.towers(), "{engine}: towers");
        assert_eq!(skiplist.level_keys(), sl.level_keys(), "{engine}: levels");
        assert_eq!(
            hash.map().chain_keys(),
            h.map().chain_keys(),
            "{engine}: chains"
        );
    }
}

/// Small arenas, including full ones, in every insertion order of up to
/// three keys.
#[test]
fn constructed_rbmap_small_cases_match_transacted_inserts() {
    let orders: [&[i64]; 11] = [
        &[],
        &[1],
        &[1, 2],
        &[2, 1],
        &[1, 1],
        &[1, 2, 3],
        &[1, 3, 2],
        &[2, 1, 3],
        &[2, 3, 1],
        &[3, 1, 2],
        &[3, 2, 1],
    ];
    for keys in orders {
        let distinct = keys.iter().collect::<BTreeSet<_>>().len();
        for capacity in [distinct.max(1), distinct + 2] {
            assert_rbmap_built_as_transacted(capacity, keys);
        }
        assert_sets_built_as_transacted(2, keys);
    }
}

/// The registry's population: every even key below the range, an RBTree
/// arena of `range + 8` slots and a hash chain per key of the range. The
/// set structures run at their default ranges (List 64, the others 256):
/// a List filled by transactions is quadratic in its size.
#[test]
fn constructed_structures_match_transacted_registry_population() {
    for range in [256i64, 4096] {
        let keys: Vec<i64> = (0..range).step_by(2).collect();
        assert_rbmap_built_as_transacted(range as usize + 8, &keys);
    }
    for range in [64i64, 256] {
        let keys: Vec<i64> = (0..range).step_by(2).collect();
        assert_sets_built_as_transacted(range as usize, &keys);
    }
}

/// Vacation's tables against the transactional loop that used to fill
/// them: the same rows drawn in the same order, indexed node for node.
#[test]
fn constructed_vacation_tables_match_transacted_population() {
    for (num_relations, seed) in [(1, 3), (2, 42), (24, 0x7ACA), (128, 0xBEEF)] {
        let cfg = VacationConfig {
            num_relations,
            seed,
            ..VacationConfig::default()
        };
        let vacation = Vacation::new(cfg.clone());
        vacation.check_consistency();
        assert_eq!(vacation.total_bookings(), 0);
        let image = |t: &TxRBMap<Option<TVar<Reservation>>>| {
            t.image(|cell| cell.as_ref().map(|row| *row.sample()))
        };
        for engine in ENGINES {
            let cap = num_relations as usize + 8;
            let tables: Vec<TxRBMap<Option<TVar<Reservation>>>> =
                ResKind::all().iter().map(|_| TxRBMap::new(cap)).collect();
            let stm = Stm::with_engine(CmDispatch::AbortSelf, 1, engine);
            let ctx = stm.thread(0);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x7AB1E5);
            for id in 0..num_relations {
                for kind in ResKind::all() {
                    let row = Reservation {
                        total: rng.random_range(20..=100),
                        used: 0,
                        price: rng.random_range(50..=550),
                    };
                    let table = &tables[*kind as usize];
                    ctx.atomic(|tx| table.insert(tx, id, Some(TVar::new(row))));
                }
            }
            for kind in ResKind::all() {
                assert_eq!(
                    image(vacation.table(*kind)),
                    image(&tables[*kind as usize]),
                    "{engine}: {kind:?} table, {num_relations} rows, seed {seed}"
                );
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64),
    Remove(i64),
    Contains(i64),
}

fn op_strategy(key_range: i64) -> impl Strategy<Value = Op> {
    (0..3u8, 0..key_range).prop_map(|(k, key)| match k {
        0 => Op::Insert(key),
        1 => Op::Remove(key),
        _ => Op::Contains(key),
    })
}

fn check_set_against_oracle(set: &dyn TxIntSet, ops: &[Op]) {
    let stm = Stm::new(Arc::new(AbortSelfManager), 1);
    let ctx = stm.thread(0);
    let mut oracle = BTreeSet::new();
    for op in ops {
        match *op {
            Op::Insert(k) => {
                let got = ctx.atomic(|tx| set.insert(tx, k));
                assert_eq!(got, oracle.insert(k), "insert({k})");
            }
            Op::Remove(k) => {
                let got = ctx.atomic(|tx| set.remove(tx, k));
                assert_eq!(got, oracle.remove(&k), "remove({k})");
            }
            Op::Contains(k) => {
                let got = ctx.atomic(|tx| set.contains(tx, k));
                assert_eq!(got, oracle.contains(&k), "contains({k})");
            }
        }
    }
    assert_eq!(
        set.snapshot_keys(),
        oracle.iter().copied().collect::<Vec<_>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn list_behaves_like_btreeset(ops in proptest::collection::vec(op_strategy(32), 1..120)) {
        let list = TxList::new();
        check_set_against_oracle(&list, &ops);
    }

    #[test]
    fn skiplist_behaves_like_btreeset(ops in proptest::collection::vec(op_strategy(48), 1..120)) {
        let sl = TxSkipList::new();
        check_set_against_oracle(&sl, &ops);
        check_skiplist(&sl);
    }

    #[test]
    fn rbtree_behaves_like_btreeset(ops in proptest::collection::vec(op_strategy(48), 1..150)) {
        let tree = TxRBTree::new(64);
        check_set_against_oracle(&tree, &ops);
        tree.map().check_invariants();
        tree.map().check_freelist();
    }

    #[test]
    fn rbtree_invariants_hold_after_every_prefix(
        ops in proptest::collection::vec(op_strategy(24), 1..60)
    ) {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let ctx = stm.thread(0);
        let tree = TxRBTree::new(32);
        for op in &ops {
            match *op {
                Op::Insert(k) => { ctx.atomic(|tx| tree.insert(tx, k)); }
                Op::Remove(k) => { ctx.atomic(|tx| tree.remove(tx, k)); }
                Op::Contains(k) => { ctx.atomic(|tx| tree.contains(tx, k)); }
            }
            tree.map().check_invariants();
            tree.map().check_freelist();
        }
    }

    #[test]
    fn rbmap_behaves_like_btreemap(
        ops in proptest::collection::vec((0..3u8, 0..32i64, 0..1000u64), 1..120)
    ) {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let ctx = stm.thread(0);
        let map: TxRBMap<u64> = TxRBMap::new(48);
        let mut oracle: BTreeMap<i64, u64> = BTreeMap::new();
        for (kind, k, v) in ops {
            match kind {
                0 => {
                    let newly = ctx.atomic(|tx| map.put(tx, k, v));
                    assert_eq!(newly, oracle.insert(k, v).is_none(), "put({k})");
                }
                1 => {
                    let got = ctx.atomic(|tx| map.remove_entry(tx, k));
                    assert_eq!(got, oracle.remove(&k), "remove({k})");
                }
                _ => {
                    let got = ctx.atomic(|tx| map.get(tx, k));
                    assert_eq!(got, oracle.get(&k).copied(), "get({k})");
                }
            }
        }
        let snap: Vec<(i64, u64)> = map.snapshot();
        let want: Vec<(i64, u64)> = oracle.into_iter().collect();
        assert_eq!(snap, want);
        map.check_invariants();
    }

    #[test]
    fn constructed_structures_match_transacted_inserts(
        keys in proptest::collection::vec(0..64i64, 0..48),
        spare in 0..8usize,
        buckets in 1..16usize
    ) {
        let distinct = keys.iter().collect::<BTreeSet<_>>().len();
        assert_rbmap_built_as_transacted((distinct + spare).max(1), &keys);
        assert_sets_built_as_transacted(buckets, &keys);
    }

    #[test]
    fn rbmap_floor_matches_btreemap_range(
        keys in proptest::collection::btree_set(0..64i64, 0..24),
        probe in 0..64i64
    ) {
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let ctx = stm.thread(0);
        let map: TxRBMap<u64> = TxRBMap::new(80);
        for &k in &keys {
            ctx.atomic(|tx| map.put(tx, k, k as u64 * 2));
        }
        let got = ctx.atomic(|tx| map.floor(tx, probe));
        let want = keys.range(..=probe).next_back().map(|&k| (k, k as u64 * 2));
        assert_eq!(got, want);
    }
}
