//! Write-set entries: one payload type, stored inline or boxed by size.
//!
//! Every entry holds a [`Payload`]: the written object's handle and the
//! transaction's private copy of its value (DSTM2's shadow copy). One
//! `Box<dyn ErasedWrite>` per written object per attempt would be one heap
//! allocation each, so [`WriteEntry::new`] stores a payload that fits
//! [`INLINE_BUF_BYTES`] at alignment ≤ [`INLINE_ALIGN`] *in the entry
//! itself* — any `T` of ≤ 24 bytes, which covers every List and SkipList
//! node and every counter of the paper's workloads — and boxes a larger or
//! over-aligned one. That choice is made in `new` alone: the accessors, the
//! engines and the commit paths see the same `Payload<T>` either way.
//!
//! An entry derefs to `dyn ErasedWrite`, so every engine operation on an
//! entry is one virtual call. An inline entry carries a single fn pointer,
//! which turns its untyped buffer back into that trait object; a boxed
//! entry is the trait object.
//!
//! Every publish, fused commit and lazy write-back builds the object's new
//! version through `ObjState::version_of`, which rewrites the locator's
//! retired version `Arc` (its `spare`) in place instead of allocating, and
//! the entries themselves sit in a `Vec` pooled by the thread context. So a
//! steady-state commit performs **zero** heap allocations for small values
//! and exactly one, the entry's `Box`, for large ones, under both engines
//! (asserted by the `write_path_allocs` integration test).
//!
//! What a large value pays for holding its copy by value, not in a shared
//! shadow `Arc`:
//!
//! * reading back one's own write builds a snapshot `Arc` (one
//!   allocation), as it does for a small value, where a shadow `Arc` would
//!   hand out a count (the RB-tree insert fixup reads back its writes);
//! * an eager commit copies the value once more, from the entry into the
//!   recycled `spare`.
//!
//! A shadow `Arc` for *every* type would fit inline, but a lazy open takes
//! no object lock and so cannot recycle `spare`: each lazy write would
//! allocate its shadow at open.
//!
//! The id of the written object is hoisted into the entry header, so
//! write-set lookups (`Txn::find_write`) scan a plain `u64` field instead
//! of making one virtual call per entry.

use std::any::Any;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::tvar::TVar;
use crate::txstate::TxState;
use crate::TxObject;

/// A write-set entry, type-erased so one list can hold writes to objects
/// of different types.
pub(crate) trait ErasedWrite: Send {
    /// Install the shadow copy as the locator's `new` version, iff the
    /// committing transaction still owns the object.
    fn publish(&self, me: &TxState);
    /// Fold `me`'s terminal outcome into the locator
    /// ([`crate::tvar::TVarInner::collapse_terminal`]).
    fn release(&self, me: &TxState);
    /// The status CAS under this entry's object lock, installing its
    /// value there ([`crate::tvar::TVarInner::commit_fused`]). Called on
    /// the write set's last entry, after every other entry is published.
    fn commit_fused(&self, me: &TxState) -> bool;
    /// Lazy engine: try to take the object's commit lock
    /// ([`crate::tvar::TVarInner::lazy_try_lock`]).
    fn lazy_lock(&self, slot_idx: usize, attempt_id: u64) -> bool;
    /// Lazy engine: the live commit-lock holder ([`crate::tvar::TVarInner::lazy_owner`]).
    fn lazy_owner(&self) -> Option<Arc<TxState>>;
    /// Lazy engine: release the commit lock without writing
    /// ([`crate::tvar::TVarInner::lazy_unlock`]).
    fn lazy_unlock(&self);
    /// Lazy engine: write the shadow back under the held lock
    /// ([`crate::tvar::TVarInner::lazy_writeback`]).
    fn lazy_writeback(&self, wv: u64);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What an entry holds for a value of type `T`, inline or boxed: the
/// object handle plus the private shadow copy.
struct Payload<T: TxObject> {
    tvar: TVar<T>,
    value: T,
}

impl<T: TxObject> ErasedWrite for Payload<T> {
    fn publish(&self, me: &TxState) {
        self.tvar.inner().publish_value(&self.value, me);
    }

    fn release(&self, me: &TxState) {
        self.tvar.inner().collapse_terminal(me);
    }

    fn commit_fused(&self, me: &TxState) -> bool {
        self.tvar.inner().commit_fused(me, &self.value)
    }

    fn lazy_lock(&self, slot_idx: usize, attempt_id: u64) -> bool {
        self.tvar.inner().lazy_try_lock(slot_idx, attempt_id)
    }

    fn lazy_owner(&self) -> Option<Arc<TxState>> {
        self.tvar.inner().lazy_owner()
    }

    fn lazy_unlock(&self) {
        self.tvar.inner().lazy_unlock();
    }

    fn lazy_writeback(&self, wv: u64) {
        self.tvar.inner().lazy_writeback(&self.value, wv);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Size of the inline payload buffer: the object handle (8 bytes) plus up
/// to 24 bytes of value.
pub(crate) const INLINE_BUF_BYTES: usize = 32;

/// Maximum alignment the inline buffer guarantees.
pub(crate) const INLINE_ALIGN: usize = 8;

/// Inline storage: `[u64; 4]` gives 32 bytes at alignment 8.
type InlineBuf = MaybeUninit<[u64; 4]>;

/// An entry of a transaction's write set. Derefs to [`ErasedWrite`] for
/// the engines' untyped operations (publish, release, lock, write back).
pub(crate) struct WriteEntry {
    tvar_id: u64,
    kind: EntryKind,
}

// A write set is scanned on every open, and copied when its `Vec` grows.
const _: () = assert!(size_of::<WriteEntry>() <= 48);

enum EntryKind {
    Inline(InlineWrite),
    Boxed(Box<dyn ErasedWrite>),
}

/// A type-erased inline entry: the raw payload bytes, plus the one
/// monomorphized fn that knows what they are.
struct InlineWrite {
    /// `buf` as the `Payload<T>` it holds, behind its vtable.
    erase: fn(*mut InlineBuf) -> *mut dyn ErasedWrite,
    buf: InlineBuf,
}

fn erase<T: TxObject>(buf: *mut InlineBuf) -> *mut dyn ErasedWrite {
    buf.cast::<Payload<T>>()
}

// SAFETY: `buf` always holds a `Payload<T>` with `T: TxObject` (so
// `TVar<T>` and `T` are both `Send`); the fn pointer carries no state.
unsafe impl Send for InlineWrite {}

impl Drop for InlineWrite {
    fn drop(&mut self) {
        // SAFETY: `buf` holds a live `Payload` of the type `erase` was
        // instantiated with; after this the entry is gone, so nothing
        // reads the buffer again.
        unsafe { std::ptr::drop_in_place((self.erase)(&mut self.buf)) };
    }
}

impl Deref for WriteEntry {
    type Target = dyn ErasedWrite;

    #[inline]
    fn deref(&self) -> &Self::Target {
        match &self.kind {
            // SAFETY: `buf` holds a live `Payload` of the type `erase` was
            // instantiated with, borrowed for as long as `self`; the
            // pointer is only made `*mut` to share `erase` with
            // `deref_mut`, nothing is written through it.
            EntryKind::Inline(iw) => unsafe {
                &*(iw.erase)(std::ptr::from_ref(&iw.buf).cast_mut())
            },
            EntryKind::Boxed(b) => &**b,
        }
    }
}

impl DerefMut for WriteEntry {
    #[inline]
    fn deref_mut(&mut self) -> &mut Self::Target {
        match &mut self.kind {
            // SAFETY: as in `deref`, and `&mut self` makes the borrow
            // exclusive.
            EntryKind::Inline(iw) => unsafe { &mut *(iw.erase)(&mut iw.buf) },
            EntryKind::Boxed(b) => &mut **b,
        }
    }
}

const TYPE_MISMATCH: &str = "write-set entry type mismatch";

impl WriteEntry {
    /// Whether values of type `T` are stored inline (true iff the payload
    /// fits the buffer and needs no stricter alignment).
    #[inline]
    fn fits_inline<T: TxObject>() -> bool {
        size_of::<Payload<T>>() <= INLINE_BUF_BYTES && align_of::<Payload<T>>() <= INLINE_ALIGN
    }

    /// An entry writing `value` to `tvar`: inline when the payload
    /// [fits](Self::fits_inline), boxed otherwise.
    pub(crate) fn new<T: TxObject>(tvar: TVar<T>, value: T) -> Self {
        let tvar_id = tvar.id();
        let payload = Payload { tvar, value };
        let kind = if Self::fits_inline::<T>() {
            let mut buf: InlineBuf = MaybeUninit::uninit();
            // SAFETY: `fits_inline` guarantees size and alignment; the
            // buffer is exclusively ours and the payload is dropped
            // exactly once (in `InlineWrite::drop`).
            unsafe { buf.as_mut_ptr().cast::<Payload<T>>().write(payload) };
            EntryKind::Inline(InlineWrite {
                erase: erase::<T>,
                buf,
            })
        } else {
            EntryKind::Boxed(Box::new(payload))
        };
        WriteEntry { tvar_id, kind }
    }

    /// Id of the written object (plain field — no virtual call).
    #[inline]
    pub(crate) fn tvar_id(&self) -> u64 {
        self.tvar_id
    }

    /// True iff this entry stores its value inline (test introspection).
    #[cfg(test)]
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self.kind, EntryKind::Inline(_))
    }

    /// Read-your-writes: a stable snapshot of the value this entry holds,
    /// copied into a fresh `Arc` (rare — the benchmarks' transactions
    /// mostly read *before* writing). Later writes to the object go to the
    /// entry's value, never to the snapshot.
    pub(crate) fn read_snapshot<T: TxObject>(&self) -> Arc<T> {
        let p = self.as_any().downcast_ref::<Payload<T>>();
        Arc::new(p.expect(TYPE_MISMATCH).value.clone())
    }

    /// The entry's value, for writing in place.
    fn value_mut<T: TxObject>(&mut self) -> &mut T {
        let p = self.as_any_mut().downcast_mut::<Payload<T>>();
        &mut p.expect(TYPE_MISMATCH).value
    }

    /// Replace the entry's value.
    pub(crate) fn set_value<T: TxObject>(&mut self, value: T) {
        *self.value_mut() = value;
    }

    /// Mutate the entry's value in place.
    pub(crate) fn modify_value<T: TxObject>(&mut self, f: impl FnOnce(&mut T)) {
        f(self.value_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clockns;
    use std::fmt::Debug;

    fn state(id: u64) -> Arc<TxState> {
        Arc::new(TxState::new(id, id, 0, 0, clockns::now(), 0))
    }

    #[test]
    fn inline_threshold_is_24_value_bytes() {
        assert!(WriteEntry::fits_inline::<u64>());
        assert!(WriteEntry::fits_inline::<[u8; 24]>());
        assert!(WriteEntry::fits_inline::<[u8; 1]>());
        assert!(WriteEntry::fits_inline::<()>());
        assert!(!WriteEntry::fits_inline::<[u8; 25]>());
        assert!(!WriteEntry::fits_inline::<[u64; 4]>());
        // Vec<T> is 24 bytes of header: inline (its heap payload is its
        // own business, same as for a boxed entry).
        assert!(WriteEntry::fits_inline::<Vec<u32>>());
    }

    #[test]
    fn inline_entry_roundtrips_value_and_drops_it() {
        // A droppable payload (Vec) exercises drop_in_place.
        let tv: TVar<Vec<u32>> = TVar::new(vec![1]);
        let mut e = WriteEntry::new(tv.clone(), vec![1, 2]);
        assert!(e.is_inline());
        assert_eq!(e.tvar_id(), tv.id());
        assert_eq!(*e.read_snapshot::<Vec<u32>>(), vec![1, 2]);
        e.set_value::<Vec<u32>>(vec![9]);
        e.modify_value::<Vec<u32>>(|v| v.push(10));
        assert_eq!(*e.read_snapshot::<Vec<u32>>(), vec![9, 10]);
        drop(e); // must drop the inline Vec (Miri/asan would catch a leak)
    }

    #[test]
    fn boxed_entry_roundtrips_value() {
        let tv: TVar<[u64; 8]> = TVar::new([0; 8]);
        let mut e = WriteEntry::new(tv.clone(), [1u64; 8]);
        assert!(!e.is_inline());
        assert_eq!(e.tvar_id(), tv.id());
        e.set_value([2u64; 8]);
        e.modify_value::<[u64; 8]>(|v| v[0] = 7);
        let snap = e.read_snapshot::<[u64; 8]>();
        assert_eq!(snap[0], 7);
        assert_eq!(snap[1], 2);
    }

    /// `snapshot_is_stable_across_later_writes` for one value type.
    fn snapshot_is_stable<T: TxObject + PartialEq + Debug>(a: T, b: T, inline: bool) {
        let tv: TVar<T> = TVar::new(a.clone());
        let mut e = WriteEntry::new(tv, a.clone());
        assert_eq!(e.is_inline(), inline);
        let snap = e.read_snapshot::<T>();
        e.set_value(b.clone());
        assert_eq!(*snap, a, "snapshot must not see later writes");
        assert_eq!(*e.read_snapshot::<T>(), b);
    }

    #[test]
    fn snapshot_is_stable_across_later_writes() {
        snapshot_is_stable(5u64, 6u64, true);
        snapshot_is_stable([5u64; 4], [6u64; 4], false);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_type_downcast_panics() {
        let tv: TVar<u64> = TVar::new(0);
        let e = WriteEntry::new(tv, 1u64);
        let _ = e.read_snapshot::<u32>();
    }

    /// `publish_installs_only_while_owner` for one value type.
    fn publish_only_while_owner<T: TxObject + PartialEq + Debug>(a: T, b: T, inline: bool) {
        let tv: TVar<T> = TVar::new(a.clone());
        let me = state(11);
        let e = WriteEntry::new(tv.clone(), b.clone());
        assert_eq!(e.is_inline(), inline);
        // Not the owner: publish is a no-op.
        e.publish(&me);
        assert!(tv.inner().state.lock().new.is_none());
        // A stale owner must not clobber a newer writer's locator.
        {
            let mut st = tv.inner().state.lock();
            tv.inner().lock_snapshot();
            st.writer = Some(state(12));
        }
        e.publish(&me);
        assert!(tv.inner().state.lock().new.is_none());
        assert_eq!(*tv.sample(), a);
        // Install ourselves as the writer, then publish and commit.
        tv.inner().state.lock().writer = Some(Arc::clone(&me));
        e.publish(&me);
        assert!(me.try_commit());
        assert_eq!(*tv.sample(), b);
    }

    #[test]
    fn publish_installs_only_while_owner() {
        publish_only_while_owner(3u64, 42u64, true);
        publish_only_while_owner([3u64; 4], [42u64; 4], false);
    }
}
