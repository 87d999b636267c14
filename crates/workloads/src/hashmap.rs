//! Transactional chained hash map (extension).
//!
//! A fixed array of buckets, each a `TVar<Vec<(key, value)>>`. Contention
//! profile: the polar opposite of the List — accesses touch exactly one
//! bucket, so conflicts happen only on hash collisions and scale with
//! `1/buckets`. The registry runs it as the low-contention control
//! workload.
//!
//! `TxHashSet` (the unit-value alias) implements [`TxIntSet`], so every
//! harness and test that drives the paper's IntSet benchmarks can drive
//! this structure too.

use wtm_stm::{TVar, TxObject, TxResult, Txn};

use crate::intset::TxIntSet;

/// Transactional hash map `i64 → V` with chaining.
pub struct TxHashMap<V: TxObject> {
    buckets: Box<[Bucket<V>]>,
}

/// One chained bucket: a transactional vector of `(key, value)` pairs.
type Bucket<V> = TVar<Vec<(i64, V)>>;

/// The chain `key` belongs to among `buckets`. Fibonacci hashing spreads
/// sequential keys across buckets.
fn bucket_index(key: i64, buckets: usize) -> usize {
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h % buckets as u64) as usize
}

impl<V: TxObject> TxHashMap<V> {
    /// Map with `buckets` chains (rounded up to at least 1).
    pub fn new(buckets: usize) -> Self {
        Self::with_entries(buckets, [])
    }

    /// Map with `buckets` chains holding `entries`, each chain in the
    /// order one [`insert`](Self::insert) transaction per entry would
    /// leave it (a repeated key keeps its first value). Filled in plain
    /// memory, one `TVar` per chain at the end: no engine.
    pub fn with_entries(buckets: usize, entries: impl IntoIterator<Item = (i64, V)>) -> Self {
        let mut chains: Vec<Vec<(i64, V)>> = vec![Vec::new(); buckets.max(1)];
        let n = chains.len();
        for (key, value) in entries {
            let chain = &mut chains[bucket_index(key, n)];
            if !chain.iter().any(|(k, _)| *k == key) {
                chain.push((key, value));
            }
        }
        TxHashMap {
            buckets: chains.into_iter().map(TVar::new).collect(),
        }
    }

    fn bucket(&self, key: i64) -> &TVar<Vec<(i64, V)>> {
        &self.buckets[bucket_index(key, self.buckets.len())]
    }

    /// Each chain's keys in chain order, buckets in index order.
    /// Quiescence only.
    pub fn chain_keys(&self) -> Vec<Vec<i64>> {
        self.buckets
            .iter()
            .map(|b| b.sample().iter().map(|(k, _)| *k).collect())
            .collect()
    }

    /// Insert or overwrite; returns `true` if the key was new.
    pub fn put(&self, tx: &mut Txn, key: i64, value: V) -> TxResult<bool> {
        let bucket = self.bucket(key);
        let chain = tx.read(bucket)?;
        match chain.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                tx.modify(bucket, move |c| c[i].1 = value)?;
                Ok(false)
            }
            None => {
                tx.modify(bucket, move |c| c.push((key, value)))?;
                Ok(true)
            }
        }
    }

    /// Insert only if absent; returns `true` if the key was new.
    pub fn insert(&self, tx: &mut Txn, key: i64, value: V) -> TxResult<bool> {
        let bucket = self.bucket(key);
        let chain = tx.read(bucket)?;
        if chain.iter().any(|(k, _)| *k == key) {
            return Ok(false);
        }
        tx.modify(bucket, move |c| c.push((key, value)))?;
        Ok(true)
    }

    /// Look up `key`.
    pub fn get(&self, tx: &mut Txn, key: i64) -> TxResult<Option<V>> {
        let chain = tx.read(self.bucket(key))?;
        Ok(chain
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone()))
    }

    /// Membership test (cheaper than [`get`](Self::get) for big values in
    /// spirit, same cost here).
    pub fn contains_key(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        let chain = tx.read(self.bucket(key))?;
        Ok(chain.iter().any(|(k, _)| *k == key))
    }

    /// Remove `key`; returns the removed value if present.
    pub fn remove(&self, tx: &mut Txn, key: i64) -> TxResult<Option<V>> {
        let bucket = self.bucket(key);
        let chain = tx.read(bucket)?;
        match chain.iter().position(|(k, _)| *k == key) {
            Some(i) => {
                let old = chain[i].1.clone();
                tx.modify(bucket, move |c| {
                    c.swap_remove(i);
                })?;
                Ok(Some(old))
            }
            None => Ok(None),
        }
    }

    /// Non-transactional snapshot of all `(key, value)` pairs, sorted by
    /// key. Quiescence only.
    pub fn snapshot(&self) -> Vec<(i64, V)> {
        let mut out: Vec<(i64, V)> = self
            .buckets
            .iter()
            .flat_map(|b| b.sample().iter().cloned().collect::<Vec<_>>())
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Non-transactional size. Quiescence only.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.sample().len()).sum()
    }

    /// True iff empty. Quiescence only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Audit: every key hashes to the bucket that holds it, no duplicate
    /// keys anywhere. Quiescence only.
    pub fn check_invariants(&self) {
        let mut seen = std::collections::HashSet::new();
        for (i, chain) in self.chain_keys().into_iter().enumerate() {
            for k in chain {
                assert_eq!(
                    bucket_index(k, self.buckets.len()),
                    i,
                    "key {k} in wrong bucket {i}"
                );
                assert!(seen.insert(k), "duplicate key {k}");
            }
        }
    }
}

/// Transactional hash set over `i64`.
pub struct TxHashSet {
    map: TxHashMap<()>,
}

impl TxHashSet {
    /// Empty set with `buckets` chains.
    pub fn new(buckets: usize) -> Self {
        Self::with_keys(buckets, [])
    }

    /// Set with `buckets` chains holding `keys`, chained in order
    /// ([`TxHashMap::with_entries`]).
    pub fn with_keys(buckets: usize, keys: impl IntoIterator<Item = i64>) -> Self {
        TxHashSet {
            map: TxHashMap::with_entries(buckets, keys.into_iter().map(|k| (k, ()))),
        }
    }

    /// The underlying map (audits).
    pub fn map(&self) -> &TxHashMap<()> {
        &self.map
    }
}

impl TxIntSet for TxHashSet {
    fn insert(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        self.map.insert(tx, key, ())
    }

    fn remove(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        Ok(self.map.remove(tx, key)?.is_some())
    }

    fn contains(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        self.map.contains_key(tx, key)
    }

    fn snapshot_keys(&self) -> Vec<i64> {
        self.map.snapshot().into_iter().map(|(k, _)| k).collect()
    }

    fn name(&self) -> &'static str {
        "HashSet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wtm_stm::cm::AbortSelfManager;
    use wtm_stm::Stm;

    fn stm1() -> Stm {
        Stm::new(Arc::new(AbortSelfManager), 1)
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let m: TxHashMap<String> = TxHashMap::new(8);
        assert!(ctx.atomic(|tx| m.put(tx, 1, "a".into())));
        assert!(!ctx.atomic(|tx| m.put(tx, 1, "b".into())), "overwrite");
        assert_eq!(ctx.atomic(|tx| m.get(tx, 1)), Some("b".to_string()));
        assert_eq!(ctx.atomic(|tx| m.remove(tx, 1)), Some("b".to_string()));
        assert_eq!(ctx.atomic(|tx| m.get(tx, 1)), None);
        assert_eq!(ctx.atomic(|tx| m.remove(tx, 1)), None);
        m.check_invariants();
    }

    #[test]
    fn insert_does_not_overwrite() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let m: TxHashMap<u32> = TxHashMap::new(4);
        assert!(ctx.atomic(|tx| m.insert(tx, 5, 100)));
        assert!(!ctx.atomic(|tx| m.insert(tx, 5, 200)));
        assert_eq!(ctx.atomic(|tx| m.get(tx, 5)), Some(100));
    }

    #[test]
    fn collisions_chain_correctly() {
        let stm = stm1();
        let ctx = stm.thread(0);
        // One bucket: everything collides.
        let m: TxHashMap<u32> = TxHashMap::new(1);
        for k in 0..20 {
            assert!(ctx.atomic(|tx| m.insert(tx, k, k as u32 * 3)));
        }
        assert_eq!(m.len(), 20);
        for k in 0..20 {
            assert_eq!(ctx.atomic(|tx| m.get(tx, k)), Some(k as u32 * 3));
        }
        m.check_invariants();
    }

    #[test]
    fn hashset_matches_btreeset_oracle() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let stm = stm1();
        let ctx = stm.thread(0);
        let set = TxHashSet::new(16);
        let mut oracle = BTreeSet::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4242);
        for _ in 0..800 {
            let k: i64 = rng.random_range(0..50);
            match rng.random_range(0..3) {
                0 => assert_eq!(ctx.atomic(|tx| set.insert(tx, k)), oracle.insert(k)),
                1 => assert_eq!(ctx.atomic(|tx| set.remove(tx, k)), oracle.remove(&k)),
                _ => assert_eq!(ctx.atomic(|tx| set.contains(tx, k)), oracle.contains(&k)),
            }
        }
        assert_eq!(set.snapshot_keys(), oracle.into_iter().collect::<Vec<_>>());
        set.map().check_invariants();
    }

    #[test]
    fn concurrent_disjoint_inserts_under_greedy() {
        let stm = Stm::new(Arc::new(wtm_stm::managers::Greedy), 3);
        let set = Arc::new(TxHashSet::new(32));
        std::thread::scope(|s| {
            for t in 0..3usize {
                let ctx = stm.thread(t);
                let set = Arc::clone(&set);
                s.spawn(move || {
                    for i in 0..50 {
                        ctx.atomic(|tx| set.insert(tx, (t * 1000 + i) as i64).map(|_| ()));
                    }
                });
            }
        });
        assert_eq!(set.snapshot_keys().len(), 150);
        set.map().check_invariants();
    }
}
