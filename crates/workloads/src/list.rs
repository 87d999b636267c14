//! Sorted linked-list IntSet (the DSTM `IntSet` benchmark).
//!
//! A singly-linked sorted list between two sentinel nodes
//! (`i64::MIN`, `i64::MAX`). Every operation walks from the head, reading
//! each node it passes — with visible reads this makes the list the
//! highest-contention benchmark of the four: a writer at position `k`
//! conflicts with *every* concurrent operation that walked past `k`.

use std::collections::BTreeSet;

use wtm_stm::{ReadRef, TVar, TxResult, Txn};

use crate::intset::TxIntSet;

/// One list cell. `next` is `None` only for the tail sentinel.
#[derive(Clone, Debug)]
pub struct ListNode {
    key: i64,
    next: Option<TVar<ListNode>>,
}

/// Transactional sorted linked list.
pub struct TxList {
    head: TVar<ListNode>,
}

impl Default for TxList {
    fn default() -> Self {
        Self::new()
    }
}

impl TxList {
    /// Empty list (two sentinels).
    pub fn new() -> Self {
        Self::with_keys([])
    }

    /// List holding `keys` — the chain any sequence of insert
    /// transactions of them leaves — linked back to front in plain memory,
    /// with no engine.
    pub fn with_keys(keys: impl IntoIterator<Item = i64>) -> Self {
        let keys: BTreeSet<i64> = keys.into_iter().collect();
        assert!(
            !keys.contains(&i64::MIN) && !keys.contains(&i64::MAX),
            "sentinel keys reserved"
        );
        let tail = TVar::new(ListNode {
            key: i64::MAX,
            next: None,
        });
        let first = keys.into_iter().rev().fold(tail, |next, key| {
            TVar::new(ListNode {
                key,
                next: Some(next),
            })
        });
        let head = TVar::new(ListNode {
            key: i64::MIN,
            next: Some(first),
        });
        TxList { head }
    }

    /// Walk to the last node with `node.key < key`. Returns
    /// `(pred_handle, pred_value)`; the successor (possibly the tail
    /// sentinel) is `pred_value.next`.
    ///
    /// Each step opens the `next` handle where it lies, inside the version
    /// just read (a read stays valid for the rest of the attempt): the walk
    /// touches no handle's reference count. Only the predecessor's handle
    /// is cloned, once, out of the version before it.
    fn find_pred<'t>(
        &self,
        tx: &mut Txn<'t>,
        key: i64,
    ) -> TxResult<(TVar<ListNode>, ReadRef<'t, ListNode>)> {
        // The version whose `next` is the handle of `cur_val`'s node
        // (`None` while that node is the head).
        let mut before: Option<ReadRef<ListNode>> = None;
        let mut cur_val = tx.read(&self.head)?;
        loop {
            let next_val = tx.read(next_of(&cur_val))?;
            if next_val.key >= key {
                let cur = before.as_deref().map_or(&self.head, next_of);
                return Ok((cur.clone(), cur_val));
            }
            before = Some(std::mem::replace(&mut cur_val, next_val));
        }
    }
}

/// The successor's handle; only the tail sentinel has none.
fn next_of(node: &ListNode) -> &TVar<ListNode> {
    node.next
        .as_ref()
        .expect("walk can never step past the tail sentinel")
}

impl TxIntSet for TxList {
    fn insert(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        assert!(key > i64::MIN && key < i64::MAX, "sentinel keys reserved");
        let (pred, pred_val) = self.find_pred(tx, key)?;
        let succ = next_of(&pred_val);
        let succ_val = tx.read(succ)?;
        if succ_val.key == key {
            return Ok(false);
        }
        let node = TVar::new(ListNode {
            key,
            next: Some(succ.clone()),
        });
        tx.modify(&pred, |p| p.next = Some(node.clone()))?;
        Ok(true)
    }

    fn remove(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        let (pred, pred_val) = self.find_pred(tx, key)?;
        let succ_val = tx.read(next_of(&pred_val))?;
        if succ_val.key != key {
            return Ok(false);
        }
        let after = succ_val.next.clone();
        tx.modify(&pred, |p| p.next = after.clone())?;
        Ok(true)
    }

    fn contains(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        let (_, pred_val) = self.find_pred(tx, key)?;
        Ok(tx.read(next_of(&pred_val))?.key == key)
    }

    fn snapshot_keys(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut cur = self.head.sample();
        while let Some(next) = cur.next.clone() {
            let v = next.sample();
            if v.key != i64::MAX {
                out.push(v.key);
            }
            cur = v;
        }
        out
    }

    fn name(&self) -> &'static str {
        "List"
    }
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
    fn insert_contains_remove_roundtrip() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let list = TxList::new();
        assert!(ctx.atomic(|tx| list.insert(tx, 5)));
        assert!(ctx.atomic(|tx| list.contains(tx, 5)));
        assert!(!ctx.atomic(|tx| list.insert(tx, 5)), "duplicate rejected");
        assert!(ctx.atomic(|tx| list.remove(tx, 5)));
        assert!(!ctx.atomic(|tx| list.contains(tx, 5)));
        assert!(!ctx.atomic(|tx| list.remove(tx, 5)), "double remove");
    }

    #[test]
    fn keys_stay_sorted() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let list = TxList::new();
        for k in [5, 1, 9, 3, 7, 2, 8] {
            ctx.atomic(|tx| list.insert(tx, k));
        }
        assert_eq!(list.snapshot_keys(), vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn remove_middle_and_ends() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let list = TxList::new();
        for k in 1..=5 {
            ctx.atomic(|tx| list.insert(tx, k));
        }
        ctx.atomic(|tx| list.remove(tx, 3)); // middle
        ctx.atomic(|tx| list.remove(tx, 1)); // front
        ctx.atomic(|tx| list.remove(tx, 5)); // back
        assert_eq!(list.snapshot_keys(), vec![2, 4]);
    }

    #[test]
    fn empty_list_queries() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let list = TxList::new();
        assert!(!ctx.atomic(|tx| list.contains(tx, 1)));
        assert!(!ctx.atomic(|tx| list.remove(tx, 1)));
        assert!(list.snapshot_keys().is_empty());
    }

    #[test]
    fn matches_btreeset_oracle() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let stm = stm1();
        let ctx = stm.thread(0);
        let list = TxList::new();
        let mut oracle = BTreeSet::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        for _ in 0..500 {
            let k: i64 = rng.random_range(0..40);
            match rng.random_range(0..3) {
                0 => {
                    let a = ctx.atomic(|tx| list.insert(tx, k));
                    assert_eq!(a, oracle.insert(k));
                }
                1 => {
                    let a = ctx.atomic(|tx| list.remove(tx, k));
                    assert_eq!(a, oracle.remove(&k));
                }
                _ => {
                    let a = ctx.atomic(|tx| list.contains(tx, k));
                    assert_eq!(a, oracle.contains(&k));
                }
            }
        }
        assert_eq!(list.snapshot_keys(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        // Greedy guarantees progress (pending-commit property), so this
        // cannot livelock even on a single hardware thread.
        let stm = Stm::new(StdArc::new(wtm_stm::managers::Greedy), 4);
        let list = StdArc::new(TxList::new());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let ctx = stm.thread(t);
                let list = StdArc::clone(&list);
                s.spawn(move || {
                    for i in 0..25 {
                        let k = (t * 100 + i) as i64;
                        ctx.atomic(|tx| list.insert(tx, k));
                    }
                });
            }
        });
        let keys = list.snapshot_keys();
        assert_eq!(keys.len(), 100);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "list must remain sorted");
    }
}
