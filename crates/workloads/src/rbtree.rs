//! Red-black tree IntSet / map (the DSTM `RBTree` benchmark).
//!
//! A classic CLRS red-black tree with parent pointers, stored in a fixed
//! **arena** of `TVar` cells addressed by `u32` index (avoiding `Arc`
//! cycles that parent pointers would otherwise create). Node allocation
//! pops a *transactional free list* — if the transaction aborts, the
//! allocation rolls back with everything else, so the arena can never
//! leak or double-allocate. The list lives in the free slots' `left`
//! links, which a free slot has no child for, so it costs a node no field
//! of its own.
//!
//! CLRS 13.3 (insert, its fixup and both rotations) is written once, over
//! the private node-access trait `Arena`. A transaction runs it through
//! `InTxn`, which opens one object per access; a constructor runs it
//! through `PlainArena`, plain memory that it fills before wrapping each
//! slot in its `TVar`, so [`TxRBMap::with_entries`] starts exactly where
//! [`TxRBMap::new`] plus one insert transaction per entry would end,
//! without an engine.
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

/// One arena slot. Public only so audits can compare two arenas slot for
/// slot ([`TxRBMap::image`]); its fields stay private.
#[derive(Clone, Debug, PartialEq)]
pub struct RBNode<V> {
    key: i64,
    value: V,
    red: bool,
    /// Left child; in a free slot, the next free slot.
    left: u32,
    right: u32,
    parent: u32,
    /// Whether the slot currently holds a live node (audit only).
    in_use: bool,
}

// 24 bytes: `Arc`'s two counts make a set node's version a 40-byte
// `ArcInner`, which with glibc's 8-byte chunk header fills a 48-byte
// chunk; one word more and every version takes a 64-byte one.
const _: () = assert!(std::mem::size_of::<RBNode<()>>() <= 24);

impl<V> RBNode<V> {
    /// A free slot whose free-list successor is `next_free`.
    fn free(value: V, next_free: u32) -> Self {
        RBNode {
            key: 0,
            value,
            red: false,
            left: next_free,
            right: NIL,
            parent: NIL,
            in_use: false,
        }
    }

    /// A freshly allocated red leaf.
    fn leaf(key: i64, value: V, parent: u32) -> Self {
        RBNode {
            key,
            value,
            red: true,
            left: NIL,
            right: NIL,
            parent,
            in_use: true,
        }
    }

    fn links(&self) -> Links {
        Links {
            key: self.key,
            red: self.red,
            left: self.left,
            right: self.right,
            parent: self.parent,
        }
    }
}

/// A whole arena at quiescence — root, free-list head and every slot,
/// free or not — with each value mapped by the audit that took it. Two
/// maps with equal images hold the same tree node for node.
#[derive(Clone, Debug, PartialEq)]
pub struct ArenaImage<W> {
    /// Root index ([`NIL`] when empty).
    pub root: u32,
    /// First free slot ([`NIL`] when full).
    pub free_head: u32,
    /// Every slot, in index order.
    pub slots: Vec<RBNode<W>>,
}

/// What one open of a node tells the tree algorithms.
#[derive(Clone, Copy)]
struct Links {
    key: i64,
    red: bool,
    left: u32,
    right: u32,
    parent: u32,
}

/// Panic unless the free list had a slot to give.
fn assert_slot(slot: u32, capacity: usize) {
    assert_ne!(
        slot, NIL,
        "TxRBMap arena exhausted (capacity {capacity}); size it for the key range"
    );
}

/// Node access for the CLRS algorithms. Every accessor of [`InTxn`] is
/// one open of one object, so the provided methods open exactly what the
/// transactional tree opened before they were shared.
trait Arena<V> {
    /// Node `i`'s key, colour and links, as one read sees them.
    fn links(&mut self, i: u32) -> TxResult<Links>;
    /// Write node `i`.
    fn modify(&mut self, i: u32, f: impl FnOnce(&mut RBNode<V>)) -> TxResult<()>;
    fn root(&mut self) -> TxResult<u32>;
    fn set_root(&mut self, i: u32) -> TxResult<()>;
    /// Pop a slot off the free list and make it a red leaf under `parent`.
    fn alloc(&mut self, key: i64, value: V, parent: u32) -> TxResult<u32>;

    fn left(&mut self, i: u32) -> TxResult<u32> {
        Ok(self.links(i)?.left)
    }

    fn right(&mut self, i: u32) -> TxResult<u32> {
        Ok(self.links(i)?.right)
    }

    fn parent(&mut self, i: u32) -> TxResult<u32> {
        Ok(self.links(i)?.parent)
    }

    /// Color test that treats NIL as black (red-black convention).
    fn is_red(&mut self, i: u32) -> TxResult<bool> {
        if i == NIL {
            return Ok(false);
        }
        Ok(self.links(i)?.red)
    }

    fn set_left(&mut self, i: u32, v: u32) -> TxResult<()> {
        self.modify(i, |n| n.left = v)
    }

    fn set_right(&mut self, i: u32, v: u32) -> TxResult<()> {
        self.modify(i, |n| n.right = v)
    }

    fn set_parent(&mut self, i: u32, v: u32) -> TxResult<()> {
        self.modify(i, |n| n.parent = v)
    }

    fn set_red(&mut self, i: u32, red: bool) -> TxResult<()> {
        self.modify(i, |n| n.red = red)
    }

    fn rotate_left(&mut self, x: u32) -> TxResult<()> {
        let y = self.right(x)?;
        debug_assert_ne!(y, NIL, "rotate_left requires a right child");
        let y_left = self.left(y)?;
        self.set_right(x, y_left)?;
        if y_left != NIL {
            self.set_parent(y_left, x)?;
        }
        let xp = self.parent(x)?;
        self.set_parent(y, xp)?;
        if xp == NIL {
            self.set_root(y)?;
        } else if self.left(xp)? == x {
            self.set_left(xp, y)?;
        } else {
            self.set_right(xp, y)?;
        }
        self.set_left(y, x)?;
        self.set_parent(x, y)
    }

    fn rotate_right(&mut self, x: u32) -> TxResult<()> {
        let y = self.left(x)?;
        debug_assert_ne!(y, NIL, "rotate_right requires a left child");
        let y_right = self.right(y)?;
        self.set_left(x, y_right)?;
        if y_right != NIL {
            self.set_parent(y_right, x)?;
        }
        let xp = self.parent(x)?;
        self.set_parent(y, xp)?;
        if xp == NIL {
            self.set_root(y)?;
        } else if self.right(xp)? == x {
            self.set_right(xp, y)?;
        } else {
            self.set_left(xp, y)?;
        }
        self.set_right(y, x)?;
        self.set_parent(x, y)
    }

    /// Insert `key → value` (CLRS 13.3). Returns `true` if the key was
    /// new; an existing key keeps its old value.
    fn insert(&mut self, key: i64, value: V) -> TxResult<bool> {
        let mut y = NIL;
        let mut x = self.root()?;
        while x != NIL {
            let xv = self.links(x)?;
            if key == xv.key {
                return Ok(false);
            }
            y = x;
            x = if key < xv.key { xv.left } else { xv.right };
        }
        let z = self.alloc(key, value, y)?;
        if y == NIL {
            self.set_root(z)?;
        } else if key < self.links(y)?.key {
            self.set_left(y, z)?;
        } else {
            self.set_right(y, z)?;
        }
        self.insert_fixup(z)?;
        Ok(true)
    }

    /// CLRS 13.3.
    fn insert_fixup(&mut self, mut z: u32) -> TxResult<()> {
        loop {
            let zp = self.parent(z)?;
            if zp == NIL || !self.is_red(zp)? {
                break;
            }
            let zpp = self.parent(zp)?;
            debug_assert_ne!(zpp, NIL, "red parent implies a grandparent");
            if zp == self.left(zpp)? {
                let uncle = self.right(zpp)?;
                if self.is_red(uncle)? {
                    self.set_red(zp, false)?;
                    self.set_red(uncle, false)?;
                    self.set_red(zpp, true)?;
                    z = zpp;
                } else {
                    if z == self.right(zp)? {
                        z = zp;
                        self.rotate_left(z)?;
                    }
                    let zp = self.parent(z)?;
                    let zpp = self.parent(zp)?;
                    self.set_red(zp, false)?;
                    self.set_red(zpp, true)?;
                    self.rotate_right(zpp)?;
                }
            } else {
                let uncle = self.left(zpp)?;
                if self.is_red(uncle)? {
                    self.set_red(zp, false)?;
                    self.set_red(uncle, false)?;
                    self.set_red(zpp, true)?;
                    z = zpp;
                } else {
                    if z == self.left(zp)? {
                        z = zp;
                        self.rotate_right(z)?;
                    }
                    let zp = self.parent(z)?;
                    let zpp = self.parent(zp)?;
                    self.set_red(zp, false)?;
                    self.set_red(zpp, true)?;
                    self.rotate_left(zpp)?;
                }
            }
        }
        let root = self.root()?;
        self.set_red(root, false)
    }
}

/// The arena a constructor fills before anything is shared: the slots
/// [`TxRBMap::new`] would start from, in plain memory.
struct PlainArena<V> {
    nodes: Vec<RBNode<V>>,
    root: u32,
    free_head: u32,
}

impl<V> Arena<V> for PlainArena<V> {
    fn links(&mut self, i: u32) -> TxResult<Links> {
        Ok(self.nodes[i as usize].links())
    }

    fn modify(&mut self, i: u32, f: impl FnOnce(&mut RBNode<V>)) -> TxResult<()> {
        f(&mut self.nodes[i as usize]);
        Ok(())
    }

    fn root(&mut self) -> TxResult<u32> {
        Ok(self.root)
    }

    fn set_root(&mut self, i: u32) -> TxResult<()> {
        self.root = i;
        Ok(())
    }

    fn alloc(&mut self, key: i64, value: V, parent: u32) -> TxResult<u32> {
        let slot = self.free_head;
        assert_slot(slot, self.nodes.len());
        let node = &mut self.nodes[slot as usize];
        self.free_head = node.left;
        *node = RBNode::leaf(key, value, parent);
        Ok(slot)
    }
}

/// A map seen through one transaction: every access opens one object.
struct InTxn<'m, 'x, 't, V: TxObject> {
    map: &'m TxRBMap<V>,
    tx: &'x mut Txn<'t>,
}

impl<V: TxObject> Arena<V> for InTxn<'_, '_, '_, V> {
    fn links(&mut self, i: u32) -> TxResult<Links> {
        Ok(self.tx.read(self.map.node(i))?.links())
    }

    fn modify(&mut self, i: u32, f: impl FnOnce(&mut RBNode<V>)) -> TxResult<()> {
        self.tx.modify(self.map.node(i), f)
    }

    fn root(&mut self) -> TxResult<u32> {
        Ok(*self.tx.read(&self.map.root)?)
    }

    fn set_root(&mut self, i: u32) -> TxResult<()> {
        self.tx.write(&self.map.root, i)
    }

    /// Rolls back like any other write if the transaction aborts.
    fn alloc(&mut self, key: i64, value: V, parent: u32) -> TxResult<u32> {
        let slot = *self.tx.read(&self.map.free_head)?;
        assert_slot(slot, self.map.capacity());
        let next_free = self.tx.read(self.map.node(slot))?.left;
        self.tx.write(&self.map.free_head, next_free)?;
        self.tx
            .write(self.map.node(slot), RBNode::leaf(key, value, parent))?;
        Ok(slot)
    }
}

impl<V: TxObject> InTxn<'_, '_, '_, V> {
    /// Return a slot to the free list.
    fn free(&mut self, i: u32) -> TxResult<()> {
        let head = *self.tx.read(&self.map.free_head)?;
        self.tx.modify(self.map.node(i), move |n| {
            n.in_use = false;
            n.left = head;
            n.right = NIL;
            n.parent = NIL;
        })?;
        self.tx.write(&self.map.free_head, i)
    }

    /// Leftmost node of the subtree rooted at `i` (`i` must not be NIL).
    fn minimum(&mut self, mut i: u32) -> TxResult<u32> {
        loop {
            let l = self.left(i)?;
            if l == NIL {
                return Ok(i);
            }
            i = l;
        }
    }

    /// Replace the subtree rooted at `u` with the one rooted at `v`
    /// (CLRS transplant, NIL-safe).
    fn transplant(&mut self, u: u32, v: u32) -> TxResult<()> {
        let up = self.parent(u)?;
        if up == NIL {
            self.set_root(v)?;
        } else if self.left(up)? == u {
            self.set_left(up, v)?;
        } else {
            self.set_right(up, v)?;
        }
        if v != NIL {
            self.set_parent(v, up)?;
        }
        Ok(())
    }

    /// Remove `key`; returns the removed value if present.
    fn remove(&mut self, key: i64) -> TxResult<Option<V>> {
        let z = self.map.find(self.tx, key)?;
        if z == NIL {
            return Ok(None);
        }
        let removed = self.tx.read(self.map.node(z))?.value.clone();

        // `x` is the node that moves into the vacated position (may be
        // NIL); `xp` is its parent after the splice — tracked explicitly
        // because we use no sentinel node.
        let x;
        let mut xp;
        let y_was_red;

        let z_left = self.left(z)?;
        let z_right = self.right(z)?;
        if z_left == NIL {
            y_was_red = self.is_red(z)?;
            x = z_right;
            xp = self.parent(z)?;
            self.transplant(z, z_right)?;
        } else if z_right == NIL {
            y_was_red = self.is_red(z)?;
            x = z_left;
            xp = self.parent(z)?;
            self.transplant(z, z_left)?;
        } else {
            // Two children: splice z's successor y into z's place.
            let y = self.minimum(z_right)?;
            y_was_red = self.is_red(y)?;
            x = self.right(y)?;
            if self.parent(y)? == z {
                xp = y;
            } else {
                xp = self.parent(y)?;
                self.transplant(y, x)?;
                let zr = self.right(z)?;
                self.set_right(y, zr)?;
                self.set_parent(zr, y)?;
            }
            self.transplant(z, y)?;
            let zl = self.left(z)?;
            self.set_left(y, zl)?;
            self.set_parent(zl, y)?;
            let z_red = self.is_red(z)?;
            self.set_red(y, z_red)?;
        }
        self.free(z)?;
        if !y_was_red {
            self.delete_fixup(x, &mut xp)?;
        }
        Ok(Some(removed))
    }

    /// CLRS 13.4 delete-fixup, with the parent of `x` tracked explicitly
    /// so NIL needs no sentinel.
    fn delete_fixup(&mut self, mut x: u32, xp: &mut u32) -> TxResult<()> {
        while x != self.root()? && !self.is_red(x)? {
            if *xp == NIL {
                break; // x is the root
            }
            if x == self.left(*xp)? {
                let mut w = self.right(*xp)?;
                debug_assert_ne!(w, NIL, "sibling of a doubly-black node exists");
                if self.is_red(w)? {
                    self.set_red(w, false)?;
                    self.set_red(*xp, true)?;
                    self.rotate_left(*xp)?;
                    w = self.right(*xp)?;
                }
                let wl = self.left(w)?;
                let wr = self.right(w)?;
                if !self.is_red(wl)? && !self.is_red(wr)? {
                    self.set_red(w, true)?;
                    x = *xp;
                    *xp = self.parent(x)?;
                } else {
                    if !self.is_red(wr)? {
                        if wl != NIL {
                            self.set_red(wl, false)?;
                        }
                        self.set_red(w, true)?;
                        self.rotate_right(w)?;
                        w = self.right(*xp)?;
                    }
                    let xp_red = self.is_red(*xp)?;
                    self.set_red(w, xp_red)?;
                    self.set_red(*xp, false)?;
                    let wr = self.right(w)?;
                    if wr != NIL {
                        self.set_red(wr, false)?;
                    }
                    self.rotate_left(*xp)?;
                    x = self.root()?;
                    *xp = NIL;
                }
            } else {
                let mut w = self.left(*xp)?;
                debug_assert_ne!(w, NIL, "sibling of a doubly-black node exists");
                if self.is_red(w)? {
                    self.set_red(w, false)?;
                    self.set_red(*xp, true)?;
                    self.rotate_right(*xp)?;
                    w = self.left(*xp)?;
                }
                let wl = self.left(w)?;
                let wr = self.right(w)?;
                if !self.is_red(wl)? && !self.is_red(wr)? {
                    self.set_red(w, true)?;
                    x = *xp;
                    *xp = self.parent(x)?;
                } else {
                    if !self.is_red(wl)? {
                        if wr != NIL {
                            self.set_red(wr, false)?;
                        }
                        self.set_red(w, true)?;
                        self.rotate_left(w)?;
                        w = self.left(*xp)?;
                    }
                    let xp_red = self.is_red(*xp)?;
                    self.set_red(w, xp_red)?;
                    self.set_red(*xp, false)?;
                    let wl = self.left(w)?;
                    if wl != NIL {
                        self.set_red(wl, false)?;
                    }
                    self.rotate_right(*xp)?;
                    x = self.root()?;
                    *xp = NIL;
                }
            }
        }
        if x != NIL {
            self.set_red(x, false)?;
        }
        Ok(())
    }
}

/// Transactional ordered map `i64 → V` with fixed capacity.
pub struct TxRBMap<V: TxObject> {
    nodes: Box<[TVar<RBNode<V>>]>,
    root: TVar<u32>,
    free_head: TVar<u32>,
}

impl<V: TxObject + Default> TxRBMap<V> {
    /// Empty map with room for `capacity` entries. Inserting beyond
    /// capacity panics — size the arena for the workload's key range.
    pub fn new(capacity: usize) -> Self {
        Self::with_entries(capacity, [])
    }

    /// Map with room for `capacity` entries that holds `entries`, as if
    /// each had been inserted into [`new`](Self::new)`(capacity)` by a
    /// transaction of its own, in order — node for node: the same slots,
    /// colours, links and free list. A repeated key keeps its first value.
    /// Built in plain memory, one `TVar` per slot at the end: no engine,
    /// no transaction. More distinct keys than `capacity` panics like an
    /// insert into a full arena.
    pub fn with_entries(capacity: usize, entries: impl IntoIterator<Item = (i64, V)>) -> Self {
        assert!(capacity >= 1, "capacity must be positive");
        assert!((capacity as u64) < u64::from(NIL), "capacity too large");
        let mut arena = PlainArena {
            nodes: (1..=capacity)
                .map(|next| {
                    RBNode::free(
                        V::default(),
                        if next < capacity { next as u32 } else { NIL },
                    )
                })
                .collect(),
            root: NIL,
            free_head: 0,
        };
        for (key, value) in entries {
            arena
                .insert(key, value)
                .expect("plain memory has no conflicts to abort on");
        }
        TxRBMap {
            nodes: arena.nodes.into_iter().map(TVar::new).collect(),
            root: TVar::new(arena.root),
            free_head: TVar::new(arena.free_head),
        }
    }
}

impl<V: TxObject> TxRBMap<V> {
    /// Arena capacity.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, i: u32) -> &TVar<RBNode<V>> {
        &self.nodes[i as usize]
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
        let mut x = *tx.read(&self.root)?;
        while x != NIL {
            let xv = tx.read(self.node(x))?;
            if key == xv.key {
                return Ok(Some((x, xv)));
            }
            x = if key < xv.key { xv.left } else { xv.right };
        }
        Ok(None)
    }

    // ---- updates -----------------------------------------------------------

    /// Insert `key → value`. Returns `true` if the key was new; an
    /// existing key keeps its old value (use [`put`](Self::put) to
    /// overwrite).
    pub fn insert(&self, tx: &mut Txn, key: i64, value: V) -> TxResult<bool> {
        InTxn { map: self, tx }.insert(key, value)
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

    /// Remove `key`; returns the removed value if present.
    pub fn remove_entry(&self, tx: &mut Txn, key: i64) -> TxResult<Option<V>> {
        InTxn { map: self, tx }.remove(key)
    }

    // ---- queries -----------------------------------------------------------

    /// Value for `key`, if present.
    pub fn get(&self, tx: &mut Txn, key: i64) -> TxResult<Option<V>> {
        let i = self.find(tx, key)?;
        if i == NIL {
            Ok(None)
        } else {
            Ok(Some(tx.read(self.node(i))?.value.clone()))
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
        let mut x = *tx.read(&self.root)?;
        while x != NIL {
            let xv = tx.read(self.node(x))?;
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

    /// The whole arena with each value mapped through `f`. Quiescence
    /// only.
    pub fn image<W>(&self, f: impl Fn(&V) -> W) -> ArenaImage<W> {
        let slots = self
            .nodes
            .iter()
            .map(|n| {
                let n = n.sample();
                RBNode {
                    key: n.key,
                    value: f(&n.value),
                    red: n.red,
                    left: n.left,
                    right: n.right,
                    parent: n.parent,
                    in_use: n.in_use,
                }
            })
            .collect();
        ArenaImage {
            root: *self.root.sample(),
            free_head: *self.free_head.sample(),
            slots,
        }
    }

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
            f = self.node(f).sample().left;
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
    /// Empty tree with room for `capacity` keys.
    pub fn new(capacity: usize) -> Self {
        Self::with_keys(capacity, [])
    }

    /// Tree with room for `capacity` keys that holds `keys`, node for node
    /// as one insert transaction per key, in order, would leave it
    /// ([`TxRBMap::with_entries`]).
    pub fn with_keys(capacity: usize, keys: impl IntoIterator<Item = i64>) -> Self {
        TxRBTree {
            map: TxRBMap::with_entries(capacity, keys.into_iter().map(|k| (k, ()))),
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
    fn capacity_overflow_panics() {
        let message = |build: fn()| {
            let err = std::panic::catch_unwind(build).expect_err("a full arena must panic");
            match err.downcast::<String>() {
                Ok(s) => *s,
                Err(e) => e.downcast_ref::<&str>().unwrap().to_string(),
            }
        };
        let transacted = message(|| {
            let stm = stm1();
            let ctx = stm.thread(0);
            let t = TxRBTree::new(4);
            for k in 0..5 {
                ctx.atomic(|tx| t.insert(tx, k));
            }
        });
        // The constructor fills the same arena: the fifth distinct key must
        // hit the same check, not an index out of range. Repeats take no
        // slot.
        let constructed = message(|| {
            TxRBTree::with_keys(4, [0, 1, 1, 2, 3, 3, 4]);
        });
        assert!(transacted.contains("arena exhausted"), "{transacted}");
        assert_eq!(constructed, transacted);
        TxRBTree::with_keys(4, [3, 1, 3, 2, 0, 1])
            .map()
            .check_freelist();
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
