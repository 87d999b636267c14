//! Skip-list IntSet.
//!
//! A hierarchy of sorted linked lists: level 0 links every node, each
//! higher level links a sparser subsequence. Because towers split the
//! traffic across lanes and updates only touch a handful of predecessor
//! pointers, the conflict probability is far lower than List — this is
//! the benchmark where the paper's window overhead is *not* amortized
//! away (Fig. 5, bottom left).
//!
//! Tower heights are derived deterministically from the key (a hash →
//! geometric distribution), so a retried insert rebuilds exactly the same
//! tower and the structure is reproducible across runs.

use std::collections::BTreeSet;

use wtm_stm::{ReadRef, TVar, TxResult, Txn};

use crate::intset::TxIntSet;

/// Maximum tower height; supports ~2^20 elements comfortably.
pub const MAX_LEVEL: usize = 20;

/// One skip-list node: key plus one forward pointer per level of its tower.
#[derive(Clone, Debug)]
pub struct SkipNode {
    key: i64,
    nexts: Vec<Option<TVar<SkipNode>>>,
}

/// Transactional skip list.
pub struct TxSkipList {
    head: TVar<SkipNode>,
}

/// Deterministic tower height: hash the key, count trailing ones of the
/// hash (geometric with p = 1/2), cap at [`MAX_LEVEL`].
fn level_for(key: i64) -> usize {
    let mut h = key as u64 ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    ((h.trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

impl Default for TxSkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl TxSkipList {
    /// Empty skip list.
    pub fn new() -> Self {
        Self::with_keys([])
    }

    /// Skip list holding `keys`. Tower heights depend on the key alone, so
    /// any sequence of insert transactions of them leaves this structure;
    /// it is linked back to front in plain memory, with no engine:
    /// `nexts[l]` holds the next tower that reaches level `l`.
    pub fn with_keys(keys: impl IntoIterator<Item = i64>) -> Self {
        let keys: BTreeSet<i64> = keys.into_iter().collect();
        assert!(!keys.contains(&i64::MIN), "head sentinel key reserved");
        let mut nexts: Vec<Option<TVar<SkipNode>>> = vec![None; MAX_LEVEL];
        for key in keys.into_iter().rev() {
            let height = level_for(key);
            let node = TVar::new(SkipNode {
                key,
                nexts: nexts[..height].to_vec(),
            });
            nexts[..height].fill(Some(node));
        }
        TxSkipList {
            head: TVar::new(SkipNode {
                key: i64::MIN,
                nexts,
            }),
        }
    }

    /// Per-level predecessors of `key`: `preds[l]` is the last node at
    /// level `l` with `node.key < key`, as `(handle, observed value)`.
    #[allow(clippy::type_complexity)]
    fn find_preds<'t>(
        &self,
        tx: &mut Txn<'t>,
        key: i64,
    ) -> TxResult<Vec<(TVar<SkipNode>, ReadRef<'t, SkipNode>)>> {
        let mut preds = Vec::with_capacity(MAX_LEVEL);
        let mut pred = self.head.clone();
        let mut pred_val = tx.read(&pred)?;
        for lvl in (0..MAX_LEVEL).rev() {
            loop {
                let Some(next) = pred_val.nexts[lvl].clone() else {
                    break;
                };
                let next_val = tx.read(&next)?;
                if next_val.key < key {
                    pred = next;
                    pred_val = next_val;
                } else {
                    break;
                }
            }
            preds.push((pred.clone(), pred_val.clone()));
        }
        preds.reverse(); // index by level
        Ok(preds)
    }
}

impl TxIntSet for TxSkipList {
    fn insert(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        assert!(key > i64::MIN, "head sentinel key reserved");
        let preds = self.find_preds(tx, key)?;
        if let Some(succ) = preds[0].1.nexts[0].clone() {
            if tx.read(&succ)?.key == key {
                return Ok(false);
            }
        }
        let height = level_for(key);
        // Build the full tower before publishing: nobody can see the node
        // until the predecessors are re-linked and the transaction commits.
        let mut nexts = Vec::with_capacity(height);
        for pred in preds.iter().take(height) {
            nexts.push(pred.1.nexts[nexts.len()].clone());
        }
        let node = TVar::new(SkipNode { key, nexts });
        for (lvl, (pred, _)) in preds.iter().take(height).enumerate() {
            let node = node.clone();
            tx.modify(pred, move |p| p.nexts[lvl] = Some(node))?;
        }
        Ok(true)
    }

    fn remove(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        let preds = self.find_preds(tx, key)?;
        let Some(victim) = preds[0].1.nexts[0].clone() else {
            return Ok(false);
        };
        let victim_val = tx.read(&victim)?;
        if victim_val.key != key {
            return Ok(false);
        }
        for (lvl, (pred, pred_val)) in preds.iter().take(victim_val.nexts.len()).enumerate() {
            let points_at_victim = pred_val.nexts[lvl]
                .as_ref()
                .is_some_and(|n| n.id() == victim.id());
            if points_at_victim {
                let after = victim_val.nexts[lvl].clone();
                tx.modify(pred, move |p| p.nexts[lvl] = after)?;
            }
        }
        Ok(true)
    }

    fn contains(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        let preds = self.find_preds(tx, key)?;
        match preds[0].1.nexts[0].clone() {
            Some(succ) => Ok(tx.read(&succ)?.key == key),
            None => Ok(false),
        }
    }

    fn snapshot_keys(&self) -> Vec<i64> {
        self.towers().into_iter().map(|(k, _)| k).collect()
    }

    fn name(&self) -> &'static str {
        "SkipList"
    }
}

impl TxSkipList {
    /// Each level's keys in link order, level 0 first. Quiescence only.
    pub fn level_keys(&self) -> Vec<Vec<i64>> {
        (0..MAX_LEVEL)
            .map(|lvl| {
                let mut keys = Vec::new();
                let mut cur = self.head.sample();
                while let Some(next) = cur.nexts.get(lvl).and_then(|n| n.clone()) {
                    cur = next.sample();
                    keys.push(cur.key);
                }
                keys
            })
            .collect()
    }

    /// `(key, tower height)` of every node, in level-0 order. Quiescence
    /// only.
    pub fn towers(&self) -> Vec<(i64, usize)> {
        let mut out = Vec::new();
        let mut cur = self.head.sample();
        while let Some(next) = cur.nexts[0].clone() {
            cur = next.sample();
            out.push((cur.key, cur.nexts.len()));
        }
        out
    }
}

/// Non-transactional structural audit: every level is strictly sorted,
/// and a node is linked into exactly the levels below its tower height.
/// Panics with a description on violation. Only meaningful at
/// quiescence.
pub fn check_skiplist(sl: &TxSkipList) {
    let levels = sl.level_keys();
    for (lvl, keys) in levels.iter().enumerate() {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "level {lvl} must be strictly sorted"
        );
    }
    let towers = sl.towers();
    for &(key, height) in &towers {
        for (lvl, keys) in levels.iter().enumerate() {
            assert_eq!(
                keys.binary_search(&key).is_ok(),
                lvl < height,
                "key {key} with a tower of {height} at level {lvl}"
            );
        }
    }
    let linked: usize = levels.iter().map(Vec::len).sum();
    let towered: usize = towers.iter().map(|&(_, h)| h).sum();
    assert_eq!(linked, towered, "every level is a subsequence of level 0");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use wtm_stm::cm::AbortSelfManager;
    use wtm_stm::Stm;

    fn stm1() -> Stm {
        Stm::new(StdArc::new(AbortSelfManager), 1)
    }

    #[test]
    fn level_distribution_is_geometric_ish() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        for k in 0..100_000i64 {
            counts[level_for(k)] += 1;
        }
        assert!(counts[1] > 40_000, "≈half the towers have height 1");
        assert!(counts[2] > 20_000 && counts[2] < 30_000);
        // Determinism.
        assert_eq!(level_for(42), level_for(42));
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let sl = TxSkipList::new();
        assert!(ctx.atomic(|tx| sl.insert(tx, 10)));
        assert!(!ctx.atomic(|tx| sl.insert(tx, 10)));
        assert!(ctx.atomic(|tx| sl.contains(tx, 10)));
        assert!(ctx.atomic(|tx| sl.remove(tx, 10)));
        assert!(!ctx.atomic(|tx| sl.contains(tx, 10)));
        assert!(!ctx.atomic(|tx| sl.remove(tx, 10)));
        check_skiplist(&sl);
    }

    #[test]
    fn many_keys_sorted_and_structurally_valid() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let sl = TxSkipList::new();
        let keys: Vec<i64> = (0..200).map(|i| (i * 37) % 500).collect();
        for &k in &keys {
            ctx.atomic(|tx| sl.insert(tx, k));
        }
        let mut expect: Vec<i64> = keys.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(sl.snapshot_keys(), expect);
        check_skiplist(&sl);
    }

    #[test]
    fn matches_btreeset_oracle() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let stm = stm1();
        let ctx = stm.thread(0);
        let sl = TxSkipList::new();
        let mut oracle = BTreeSet::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1234);
        for _ in 0..800 {
            let k: i64 = rng.random_range(0..60);
            match rng.random_range(0..3) {
                0 => assert_eq!(ctx.atomic(|tx| sl.insert(tx, k)), oracle.insert(k)),
                1 => assert_eq!(ctx.atomic(|tx| sl.remove(tx, k)), oracle.remove(&k)),
                _ => assert_eq!(ctx.atomic(|tx| sl.contains(tx, k)), oracle.contains(&k)),
            }
        }
        assert_eq!(sl.snapshot_keys(), oracle.into_iter().collect::<Vec<_>>());
        check_skiplist(&sl);
    }

    #[test]
    fn concurrent_inserts_under_greedy() {
        let stm = Stm::new(StdArc::new(wtm_stm::managers::Greedy), 3);
        let sl = StdArc::new(TxSkipList::new());
        std::thread::scope(|s| {
            for t in 0..3usize {
                let ctx = stm.thread(t);
                let sl = StdArc::clone(&sl);
                s.spawn(move || {
                    for i in 0..40 {
                        ctx.atomic(|tx| sl.insert(tx, (t * 1000 + i) as i64));
                    }
                });
            }
        });
        assert_eq!(sl.snapshot_keys().len(), 120);
        check_skiplist(&sl);
    }
}
