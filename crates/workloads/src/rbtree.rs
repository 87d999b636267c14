//! Red-black tree IntSet / map (the DSTM `RBTree` benchmark).
//!
//! A classic CLRS red-black tree with parent pointers, stored in a fixed
//! **arena** of `TVar` cells addressed by `u32` index (avoiding `Arc`
//! cycles that parent pointers would otherwise create). Node allocation
//! pops a *transactional free list* — if the transaction aborts, the
//! allocation rolls back with everything else, so the arena can never
//! leak or double-allocate.
//!
//! Contention profile: every operation reads the path from the root;
//! inserts and deletes recolor and rotate near the root, creating bursts
//! of conflicts against all concurrent path-walkers — the "medium-high"
//! contention benchmark of the paper.
//!
//! [`TxRBMap`] is the general ordered map (also the index of the Vacation
//! benchmark's tables, whose rows live in objects of their own);
//! [`TxRBTree`] is its `IntSet` facade.

use wtm_stm::{ReadRef, TVar, TxObject, TxResult, Txn};

use crate::intset::TxIntSet;

/// Null node index.
pub const NIL: u32 = u32::MAX;

/// One arena slot.
#[derive(Clone, Debug)]
struct RBNode<V: TxObject> {
    key: i64,
    value: V,
    red: bool,
    left: u32,
    right: u32,
    parent: u32,
    /// Next slot in the free list when this slot is unallocated.
    free_next: u32,
    /// Whether the slot currently holds a live node (audit only).
    in_use: bool,
}

/// Transactional ordered map `i64 → V` with fixed capacity.
pub struct TxRBMap<V: TxObject> {
    nodes: Box<[TVar<RBNode<V>>]>,
    root: TVar<u32>,
    free_head: TVar<u32>,
}

impl<V: TxObject + Default> TxRBMap<V> {
    /// Map with room for `capacity` entries. Inserting beyond capacity
    /// panics — size the arena for the workload's key range.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        assert!((capacity as u64) < u64::from(NIL), "capacity too large");
        let nodes: Box<[TVar<RBNode<V>>]> = (0..capacity)
            .map(|i| {
                TVar::new(RBNode {
                    key: 0,
                    value: V::default(),
                    red: false,
                    left: NIL,
                    right: NIL,
                    parent: NIL,
                    free_next: if i + 1 < capacity {
                        (i + 1) as u32
                    } else {
                        NIL
                    },
                    in_use: false,
                })
            })
            .collect();
        TxRBMap {
            nodes,
            root: TVar::new(NIL),
            free_head: TVar::new(0),
        }
    }
}

impl<V: TxObject> TxRBMap<V> {
    /// Arena capacity.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    // ---- tiny transactional accessors -----------------------------------

    fn node(&self, i: u32) -> &TVar<RBNode<V>> {
        &self.nodes[i as usize]
    }

    fn get_node<'t>(&self, tx: &mut Txn<'t>, i: u32) -> TxResult<ReadRef<'t, RBNode<V>>> {
        tx.read(self.node(i))
    }

    fn root_idx(&self, tx: &mut Txn) -> TxResult<u32> {
        Ok(*tx.read(&self.root)?)
    }

    fn set_root(&self, tx: &mut Txn, i: u32) -> TxResult<()> {
        tx.write(&self.root, i)
    }

    fn left(&self, tx: &mut Txn, i: u32) -> TxResult<u32> {
        Ok(self.get_node(tx, i)?.left)
    }

    fn right(&self, tx: &mut Txn, i: u32) -> TxResult<u32> {
        Ok(self.get_node(tx, i)?.right)
    }

    fn parent(&self, tx: &mut Txn, i: u32) -> TxResult<u32> {
        Ok(self.get_node(tx, i)?.parent)
    }

    /// Color test that treats NIL as black (red-black convention).
    fn is_red(&self, tx: &mut Txn, i: u32) -> TxResult<bool> {
        if i == NIL {
            return Ok(false);
        }
        Ok(self.get_node(tx, i)?.red)
    }

    fn set_left(&self, tx: &mut Txn, i: u32, v: u32) -> TxResult<()> {
        tx.modify(self.node(i), |n| n.left = v)
    }

    fn set_right(&self, tx: &mut Txn, i: u32, v: u32) -> TxResult<()> {
        tx.modify(self.node(i), |n| n.right = v)
    }

    fn set_parent(&self, tx: &mut Txn, i: u32, v: u32) -> TxResult<()> {
        tx.modify(self.node(i), |n| n.parent = v)
    }

    fn set_red(&self, tx: &mut Txn, i: u32, red: bool) -> TxResult<()> {
        tx.modify(self.node(i), |n| n.red = red)
    }

    // ---- allocation ------------------------------------------------------

    /// Pop a slot from the transactional free list and initialize it as a
    /// red leaf. Rolls back like any other write if the transaction aborts.
    fn alloc(&self, tx: &mut Txn, key: i64, value: V, parent: u32) -> TxResult<u32> {
        let slot = *tx.read(&self.free_head)?;
        assert_ne!(
            slot,
            NIL,
            "TxRBMap arena exhausted (capacity {}); size it for the key range",
            self.nodes.len()
        );
        let next_free = self.get_node(tx, slot)?.free_next;
        tx.write(&self.free_head, next_free)?;
        tx.write(
            self.node(slot),
            RBNode {
                key,
                value,
                red: true,
                left: NIL,
                right: NIL,
                parent,
                free_next: NIL,
                in_use: true,
            },
        )?;
        Ok(slot)
    }

    /// Return a slot to the free list.
    fn free(&self, tx: &mut Txn, i: u32) -> TxResult<()> {
        let head = *tx.read(&self.free_head)?;
        tx.modify(self.node(i), move |n| {
            n.in_use = false;
            n.free_next = head;
            n.left = NIL;
            n.right = NIL;
            n.parent = NIL;
        })?;
        tx.write(&self.free_head, i)
    }

    // ---- search ----------------------------------------------------------

    /// Index of the node with `key`, or NIL.
    fn find(&self, tx: &mut Txn, key: i64) -> TxResult<u32> {
        Ok(self.find_node(tx, key)?.map_or(NIL, |(i, _)| i))
    }

    /// The node with `key` — its index and the version the walk read.
    fn find_node<'t>(
        &self,
        tx: &mut Txn<'t>,
        key: i64,
    ) -> TxResult<Option<(u32, ReadRef<'t, RBNode<V>>)>> {
        let mut x = self.root_idx(tx)?;
        while x != NIL {
            let xv = self.get_node(tx, x)?;
            if key == xv.key {
                return Ok(Some((x, xv)));
            }
            x = if key < xv.key { xv.left } else { xv.right };
        }
        Ok(None)
    }

    /// Leftmost node of the subtree rooted at `i` (`i` must not be NIL).
    fn minimum(&self, tx: &mut Txn, mut i: u32) -> TxResult<u32> {
        loop {
            let l = self.left(tx, i)?;
            if l == NIL {
                return Ok(i);
            }
            i = l;
        }
    }

    // ---- rotations ---------------------------------------------------------

    fn rotate_left(&self, tx: &mut Txn, x: u32) -> TxResult<()> {
        let y = self.right(tx, x)?;
        debug_assert_ne!(y, NIL, "rotate_left requires a right child");
        let y_left = self.left(tx, y)?;
        self.set_right(tx, x, y_left)?;
        if y_left != NIL {
            self.set_parent(tx, y_left, x)?;
        }
        let xp = self.parent(tx, x)?;
        self.set_parent(tx, y, xp)?;
        if xp == NIL {
            self.set_root(tx, y)?;
        } else if self.left(tx, xp)? == x {
            self.set_left(tx, xp, y)?;
        } else {
            self.set_right(tx, xp, y)?;
        }
        self.set_left(tx, y, x)?;
        self.set_parent(tx, x, y)
    }

    fn rotate_right(&self, tx: &mut Txn, x: u32) -> TxResult<()> {
        let y = self.left(tx, x)?;
        debug_assert_ne!(y, NIL, "rotate_right requires a left child");
        let y_right = self.right(tx, y)?;
        self.set_left(tx, x, y_right)?;
        if y_right != NIL {
            self.set_parent(tx, y_right, x)?;
        }
        let xp = self.parent(tx, x)?;
        self.set_parent(tx, y, xp)?;
        if xp == NIL {
            self.set_root(tx, y)?;
        } else if self.right(tx, xp)? == x {
            self.set_right(tx, xp, y)?;
        } else {
            self.set_left(tx, xp, y)?;
        }
        self.set_right(tx, y, x)?;
        self.set_parent(tx, x, y)
    }

    // ---- insert ------------------------------------------------------------

    /// Insert `key → value`. Returns `true` if the key was new; an
    /// existing key keeps its old value (use [`put`](Self::put) to
    /// overwrite).
    pub fn insert(&self, tx: &mut Txn, key: i64, value: V) -> TxResult<bool> {
        let mut y = NIL;
        let mut x = self.root_idx(tx)?;
        while x != NIL {
            let xv = self.get_node(tx, x)?;
            if key == xv.key {
                return Ok(false);
            }
            y = x;
            x = if key < xv.key { xv.left } else { xv.right };
        }
        let z = self.alloc(tx, key, value, y)?;
        if y == NIL {
            self.set_root(tx, z)?;
        } else if key < self.get_node(tx, y)?.key {
            self.set_left(tx, y, z)?;
        } else {
            self.set_right(tx, y, z)?;
        }
        self.insert_fixup(tx, z)?;
        Ok(true)
    }

    /// Insert or overwrite. Returns `true` if the key was new.
    pub fn put(&self, tx: &mut Txn, key: i64, value: V) -> TxResult<bool> {
        let existing = self.find(tx, key)?;
        if existing != NIL {
            tx.modify(self.node(existing), move |n| n.value = value)?;
            return Ok(false);
        }
        self.insert(tx, key, value)
    }

    /// CLRS 13.3.
    fn insert_fixup(&self, tx: &mut Txn, mut z: u32) -> TxResult<()> {
        loop {
            let zp = self.parent(tx, z)?;
            if zp == NIL || !self.is_red(tx, zp)? {
                break;
            }
            let zpp = self.parent(tx, zp)?;
            debug_assert_ne!(zpp, NIL, "red parent implies a grandparent");
            if zp == self.left(tx, zpp)? {
                let uncle = self.right(tx, zpp)?;
                if self.is_red(tx, uncle)? {
                    self.set_red(tx, zp, false)?;
                    self.set_red(tx, uncle, false)?;
                    self.set_red(tx, zpp, true)?;
                    z = zpp;
                } else {
                    if z == self.right(tx, zp)? {
                        z = zp;
                        self.rotate_left(tx, z)?;
                    }
                    let zp = self.parent(tx, z)?;
                    let zpp = self.parent(tx, zp)?;
                    self.set_red(tx, zp, false)?;
                    self.set_red(tx, zpp, true)?;
                    self.rotate_right(tx, zpp)?;
                }
            } else {
                let uncle = self.left(tx, zpp)?;
                if self.is_red(tx, uncle)? {
                    self.set_red(tx, zp, false)?;
                    self.set_red(tx, uncle, false)?;
                    self.set_red(tx, zpp, true)?;
                    z = zpp;
                } else {
                    if z == self.left(tx, zp)? {
                        z = zp;
                        self.rotate_right(tx, z)?;
                    }
                    let zp = self.parent(tx, z)?;
                    let zpp = self.parent(tx, zp)?;
                    self.set_red(tx, zp, false)?;
                    self.set_red(tx, zpp, true)?;
                    self.rotate_left(tx, zpp)?;
                }
            }
        }
        let root = self.root_idx(tx)?;
        self.set_red(tx, root, false)
    }

    // ---- delete ------------------------------------------------------------

    /// Replace the subtree rooted at `u` with the one rooted at `v`
    /// (CLRS transplant, NIL-safe).
    fn transplant(&self, tx: &mut Txn, u: u32, v: u32) -> TxResult<()> {
        let up = self.parent(tx, u)?;
        if up == NIL {
            self.set_root(tx, v)?;
        } else if self.left(tx, up)? == u {
            self.set_left(tx, up, v)?;
        } else {
            self.set_right(tx, up, v)?;
        }
        if v != NIL {
            self.set_parent(tx, v, up)?;
        }
        Ok(())
    }

    /// Remove `key`; returns the removed value if present.
    pub fn remove_entry(&self, tx: &mut Txn, key: i64) -> TxResult<Option<V>> {
        let z = self.find(tx, key)?;
        if z == NIL {
            return Ok(None);
        }
        let removed = self.get_node(tx, z)?.value.clone();

        // `x` is the node that moves into the vacated position (may be
        // NIL); `xp` is its parent after the splice — tracked explicitly
        // because we use no sentinel node.
        let x;
        let mut xp;
        let y_was_red;

        let z_left = self.left(tx, z)?;
        let z_right = self.right(tx, z)?;
        if z_left == NIL {
            y_was_red = self.is_red(tx, z)?;
            x = z_right;
            xp = self.parent(tx, z)?;
            self.transplant(tx, z, z_right)?;
        } else if z_right == NIL {
            y_was_red = self.is_red(tx, z)?;
            x = z_left;
            xp = self.parent(tx, z)?;
            self.transplant(tx, z, z_left)?;
        } else {
            // Two children: splice z's successor y into z's place.
            let y = self.minimum(tx, z_right)?;
            y_was_red = self.is_red(tx, y)?;
            x = self.right(tx, y)?;
            if self.parent(tx, y)? == z {
                xp = y;
            } else {
                xp = self.parent(tx, y)?;
                self.transplant(tx, y, x)?;
                let zr = self.right(tx, z)?;
                self.set_right(tx, y, zr)?;
                self.set_parent(tx, zr, y)?;
            }
            self.transplant(tx, z, y)?;
            let zl = self.left(tx, z)?;
            self.set_left(tx, y, zl)?;
            self.set_parent(tx, zl, y)?;
            let z_red = self.is_red(tx, z)?;
            self.set_red(tx, y, z_red)?;
        }
        self.free(tx, z)?;
        if !y_was_red {
            self.delete_fixup(tx, x, &mut xp)?;
        }
        Ok(Some(removed))
    }

    /// CLRS 13.4 delete-fixup, with the parent of `x` tracked explicitly
    /// so NIL needs no sentinel.
    fn delete_fixup(&self, tx: &mut Txn, mut x: u32, xp: &mut u32) -> TxResult<()> {
        while x != self.root_idx(tx)? && !self.is_red(tx, x)? {
            if *xp == NIL {
                break; // x is the root
            }
            if x == self.left(tx, *xp)? {
                let mut w = self.right(tx, *xp)?;
                debug_assert_ne!(w, NIL, "sibling of a doubly-black node exists");
                if self.is_red(tx, w)? {
                    self.set_red(tx, w, false)?;
                    self.set_red(tx, *xp, true)?;
                    self.rotate_left(tx, *xp)?;
                    w = self.right(tx, *xp)?;
                }
                let wl = self.left(tx, w)?;
                let wr = self.right(tx, w)?;
                if !self.is_red(tx, wl)? && !self.is_red(tx, wr)? {
                    self.set_red(tx, w, true)?;
                    x = *xp;
                    *xp = self.parent(tx, x)?;
                } else {
                    if !self.is_red(tx, wr)? {
                        if wl != NIL {
                            self.set_red(tx, wl, false)?;
                        }
                        self.set_red(tx, w, true)?;
                        self.rotate_right(tx, w)?;
                        w = self.right(tx, *xp)?;
                    }
                    let xp_red = self.is_red(tx, *xp)?;
                    self.set_red(tx, w, xp_red)?;
                    self.set_red(tx, *xp, false)?;
                    let wr = self.right(tx, w)?;
                    if wr != NIL {
                        self.set_red(tx, wr, false)?;
                    }
                    self.rotate_left(tx, *xp)?;
                    x = self.root_idx(tx)?;
                    *xp = NIL;
                }
            } else {
                let mut w = self.left(tx, *xp)?;
                debug_assert_ne!(w, NIL, "sibling of a doubly-black node exists");
                if self.is_red(tx, w)? {
                    self.set_red(tx, w, false)?;
                    self.set_red(tx, *xp, true)?;
                    self.rotate_right(tx, *xp)?;
                    w = self.left(tx, *xp)?;
                }
                let wl = self.left(tx, w)?;
                let wr = self.right(tx, w)?;
                if !self.is_red(tx, wl)? && !self.is_red(tx, wr)? {
                    self.set_red(tx, w, true)?;
                    x = *xp;
                    *xp = self.parent(tx, x)?;
                } else {
                    if !self.is_red(tx, wl)? {
                        if wr != NIL {
                            self.set_red(tx, wr, false)?;
                        }
                        self.set_red(tx, w, true)?;
                        self.rotate_left(tx, w)?;
                        w = self.left(tx, *xp)?;
                    }
                    let xp_red = self.is_red(tx, *xp)?;
                    self.set_red(tx, w, xp_red)?;
                    self.set_red(tx, *xp, false)?;
                    let wl = self.left(tx, w)?;
                    if wl != NIL {
                        self.set_red(tx, wl, false)?;
                    }
                    self.rotate_right(tx, *xp)?;
                    x = self.root_idx(tx)?;
                    *xp = NIL;
                }
            }
        }
        if x != NIL {
            self.set_red(tx, x, false)?;
        }
        Ok(())
    }

    // ---- queries -----------------------------------------------------------

    /// Value for `key`, if present.
    pub fn get(&self, tx: &mut Txn, key: i64) -> TxResult<Option<V>> {
        let i = self.find(tx, key)?;
        if i == NIL {
            Ok(None)
        } else {
            Ok(Some(self.get_node(tx, i)?.value.clone()))
        }
    }

    /// Run `f` on the value stored under `key`, borrowed from the version
    /// of its node the lookup read; `None` if the key is absent. Unlike
    /// [`get`](Self::get) this clones nothing, and `f` may keep opening
    /// objects — the handle of a value that lives in an object of its own,
    /// for instance.
    pub fn with_value<'t, R>(
        &self,
        tx: &mut Txn<'t>,
        key: i64,
        f: impl FnOnce(&mut Txn<'t>, &V) -> TxResult<R>,
    ) -> TxResult<Option<R>> {
        match self.find_node(tx, key)? {
            Some((_, node)) => f(tx, &node.value).map(Some),
            None => Ok(None),
        }
    }

    /// Membership test.
    pub fn contains_key(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        Ok(self.find(tx, key)? != NIL)
    }

    /// Greatest key `≤ key` with its value, or `None` if all keys are
    /// greater.
    pub fn floor(&self, tx: &mut Txn, key: i64) -> TxResult<Option<(i64, V)>> {
        let mut best: Option<(i64, V)> = None;
        let mut x = self.root_idx(tx)?;
        while x != NIL {
            let xv = self.get_node(tx, x)?;
            if xv.key == key {
                return Ok(Some((xv.key, xv.value.clone())));
            }
            if xv.key < key {
                best = Some((xv.key, xv.value.clone()));
                x = xv.right;
            } else {
                x = xv.left;
            }
        }
        Ok(best)
    }

    // ---- non-transactional audits -------------------------------------------

    /// Snapshot of `(key, value)` pairs in key order. Quiescence only.
    pub fn snapshot(&self) -> Vec<(i64, V)> {
        let mut out = Vec::new();
        self.walk(*self.root.sample(), &mut out);
        out
    }

    fn walk(&self, i: u32, out: &mut Vec<(i64, V)>) {
        if i == NIL {
            return;
        }
        let n = self.node(i).sample();
        self.walk(n.left, out);
        out.push((n.key, n.value.clone()));
        self.walk(n.right, out);
    }

    /// Validate every red-black invariant; panics with a description on
    /// violation. Quiescence only. Returns the number of live nodes.
    pub fn check_invariants(&self) -> usize {
        let root = *self.root.sample();
        if root == NIL {
            return 0;
        }
        let rn = self.node(root).sample();
        assert!(!rn.red, "root must be black");
        assert_eq!(rn.parent, NIL, "root has no parent");
        let mut count = 0;
        self.check_node(root, i64::MIN, i64::MAX, &mut count);
        count
    }

    /// Returns the black height of the subtree; checks BST bounds,
    /// red-red, parent pointers, and black-height equality.
    fn check_node(&self, i: u32, lo: i64, hi: i64, count: &mut usize) -> usize {
        if i == NIL {
            return 1;
        }
        let n = self.node(i).sample();
        assert!(n.in_use, "reachable node {i} must be marked in use");
        assert!(
            n.key > lo && n.key < hi,
            "BST violation at node {i}: key {} outside ({lo}, {hi})",
            n.key
        );
        *count += 1;
        for child in [n.left, n.right] {
            if child != NIL {
                let cv = self.node(child).sample();
                assert_eq!(cv.parent, i, "parent pointer of {child} must be {i}");
                assert!(
                    !(n.red && cv.red),
                    "red-red violation between {i} and {child}"
                );
            }
        }
        let bl = self.check_node(n.left, lo, n.key, count);
        let br = self.check_node(n.right, n.key, hi, count);
        assert_eq!(bl, br, "black-height mismatch under node {i}");
        bl + usize::from(!n.red)
    }

    /// Free-list audit: live nodes + free slots == capacity, no overlap.
    pub fn check_freelist(&self) {
        let live = {
            let mut v = Vec::new();
            self.collect_indices(*self.root.sample(), &mut v);
            v
        };
        let mut free = Vec::new();
        let mut f = *self.free_head.sample();
        while f != NIL {
            free.push(f);
            f = self.node(f).sample().free_next;
            assert!(free.len() <= self.nodes.len(), "free list cycle detected");
        }
        let mut all: Vec<u32> = live.iter().chain(free.iter()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            self.nodes.len(),
            "live ({}) + free ({}) must partition the arena ({})",
            live.len(),
            free.len(),
            self.nodes.len()
        );
    }

    fn collect_indices(&self, i: u32, out: &mut Vec<u32>) {
        if i == NIL {
            return;
        }
        let n = self.node(i).sample();
        out.push(i);
        self.collect_indices(n.left, out);
        self.collect_indices(n.right, out);
    }
}

/// IntSet facade over [`TxRBMap<()>`] — the paper's RBTree benchmark.
pub struct TxRBTree {
    map: TxRBMap<()>,
}

impl TxRBTree {
    /// Tree with room for `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        TxRBTree {
            map: TxRBMap::new(capacity),
        }
    }

    /// The underlying map (audits).
    pub fn map(&self) -> &TxRBMap<()> {
        &self.map
    }
}

impl TxIntSet for TxRBTree {
    fn insert(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        self.map.insert(tx, key, ())
    }

    fn remove(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        Ok(self.map.remove_entry(tx, key)?.is_some())
    }

    fn contains(&self, tx: &mut Txn, key: i64) -> TxResult<bool> {
        self.map.contains_key(tx, key)
    }

    fn snapshot_keys(&self) -> Vec<i64> {
        self.map.snapshot().into_iter().map(|(k, _)| k).collect()
    }

    fn name(&self) -> &'static str {
        "RBTree"
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
        let t = TxRBTree::new(64);
        assert!(ctx.atomic(|tx| t.insert(tx, 7)));
        assert!(!ctx.atomic(|tx| t.insert(tx, 7)));
        assert!(ctx.atomic(|tx| t.contains(tx, 7)));
        assert!(ctx.atomic(|tx| t.remove(tx, 7)));
        assert!(!ctx.atomic(|tx| t.contains(tx, 7)));
        assert!(!ctx.atomic(|tx| t.remove(tx, 7)));
        t.map().check_invariants();
        t.map().check_freelist();
    }

    #[test]
    fn ascending_and_descending_inserts_stay_balanced() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let t = TxRBTree::new(256);
        for k in 0..100 {
            ctx.atomic(|tx| t.insert(tx, k));
            t.map().check_invariants();
        }
        for k in (100..200).rev() {
            ctx.atomic(|tx| t.insert(tx, k));
            t.map().check_invariants();
        }
        assert_eq!(t.snapshot_keys(), (0..200).collect::<Vec<_>>());
        assert_eq!(t.map().check_invariants(), 200);
    }

    #[test]
    fn deletes_keep_invariants() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let t = TxRBTree::new(128);
        for k in 0..100 {
            ctx.atomic(|tx| t.insert(tx, k));
        }
        // Delete evens, then odds in reverse.
        for k in (0..100).step_by(2) {
            assert!(ctx.atomic(|tx| t.remove(tx, k)));
            t.map().check_invariants();
            t.map().check_freelist();
        }
        for k in (1..100i64).step_by(2).collect::<Vec<_>>().into_iter().rev() {
            assert!(ctx.atomic(|tx| t.remove(tx, k)));
            t.map().check_invariants();
        }
        assert_eq!(t.map().check_invariants(), 0);
        t.map().check_freelist();
    }

    #[test]
    fn matches_btreeset_oracle() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let stm = stm1();
        let ctx = stm.thread(0);
        let t = TxRBTree::new(80);
        let mut oracle = BTreeSet::new();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        for step in 0..1500 {
            let k: i64 = rng.random_range(0..60);
            match rng.random_range(0..3) {
                0 => assert_eq!(ctx.atomic(|tx| t.insert(tx, k)), oracle.insert(k)),
                1 => assert_eq!(ctx.atomic(|tx| t.remove(tx, k)), oracle.remove(&k)),
                _ => assert_eq!(ctx.atomic(|tx| t.contains(tx, k)), oracle.contains(&k)),
            }
            if step % 100 == 0 {
                t.map().check_invariants();
                t.map().check_freelist();
            }
        }
        assert_eq!(t.snapshot_keys(), oracle.into_iter().collect::<Vec<_>>());
        t.map().check_invariants();
        t.map().check_freelist();
    }

    #[test]
    fn map_put_get_with_value_floor() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let m: TxRBMap<u64> = TxRBMap::new(32);
        assert!(ctx.atomic(|tx| m.put(tx, 10, 100)));
        assert!(!ctx.atomic(|tx| m.put(tx, 10, 101)), "overwrite not new");
        assert_eq!(ctx.atomic(|tx| m.get(tx, 10)), Some(101));
        assert_eq!(
            ctx.atomic(|tx| m.with_value(tx, 10, |_, v| Ok(*v + 1))),
            Some(102)
        );
        assert_eq!(ctx.atomic(|tx| m.with_value(tx, 11, |_, v| Ok(*v))), None);
        ctx.atomic(|tx| m.put(tx, 20, 200));
        assert_eq!(ctx.atomic(|tx| m.floor(tx, 15)), Some((10, 101)));
        assert_eq!(ctx.atomic(|tx| m.floor(tx, 20)), Some((20, 200)));
        assert_eq!(ctx.atomic(|tx| m.floor(tx, 5)), None);
        assert_eq!(ctx.atomic(|tx| m.remove_entry(tx, 10)), Some(101));
        assert_eq!(ctx.atomic(|tx| m.get(tx, 10)), None);
    }

    #[test]
    fn aborted_alloc_rolls_back_freelist() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let t = TxRBTree::new(8);
        // A transaction that allocates and then aborts must not leak slots.
        for _ in 0..20 {
            let _: Option<()> = ctx.atomic_with_budget(0, &mut |tx| {
                t.insert(tx, 3)?;
                Err(tx.abort_self())
            });
        }
        t.map().check_freelist();
        assert_eq!(t.map().check_invariants(), 0);
        // All 8 slots still usable.
        for k in 0..8 {
            assert!(ctx.atomic(|tx| t.insert(tx, k)));
        }
        assert_eq!(t.map().check_invariants(), 8);
    }

    #[test]
    #[should_panic(expected = "arena exhausted")]
    fn capacity_overflow_panics() {
        let stm = stm1();
        let ctx = stm.thread(0);
        let t = TxRBTree::new(4);
        for k in 0..5 {
            ctx.atomic(|tx| t.insert(tx, k));
        }
    }

    #[test]
    fn concurrent_mixed_ops_under_greedy() {
        use rand::{Rng, SeedableRng};
        let stm = Stm::new(StdArc::new(wtm_stm::managers::Greedy), 3);
        let t = StdArc::new(TxRBTree::new(512));
        std::thread::scope(|s| {
            for tid in 0..3usize {
                let ctx = stm.thread(tid);
                let t = StdArc::clone(&t);
                s.spawn(move || {
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(tid as u64);
                    for _ in 0..150 {
                        let k: i64 = rng.random_range(0..100);
                        if rng.random_bool(0.5) {
                            ctx.atomic(|tx| t.insert(tx, k));
                        } else {
                            ctx.atomic(|tx| t.remove(tx, k));
                        }
                    }
                });
            }
        });
        t.map().check_invariants();
        t.map().check_freelist();
    }
}
