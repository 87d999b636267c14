//! Write-set entries with inline value storage.
//!
//! One `Box<dyn ErasedWrite>` per written object per attempt would be one
//! heap allocation each. [`WriteEntry`] avoids it for the common case:
//! values whose payload fits [`INLINE_BUF_BYTES`] (any `T` with size ≤ 24
//! bytes and alignment ≤ 8 — every List/RBTree/SkipList node payload and
//! counter in the paper's workloads) are stored *in the entry itself*,
//! next to the object handle. Larger or over-aligned types are boxed.
//!
//! Both representations are one erasure: the inline payload and the boxed
//! [`TypedWrite`] each implement [`ErasedWrite`], and an entry derefs to
//! `dyn ErasedWrite`, so every engine operation on an entry is one virtual
//! call. An inline entry carries a single fn pointer, which turns its
//! untyped buffer back into that trait object.
//!
//! At commit, an inline entry publishes through
//! `TVarInner::publish_value`, which recycles the object's retired
//! version `Arc` (the `spare` slot of the locator) instead of allocating
//! a fresh one, and the entries themselves sit in a `Vec` pooled by the
//! thread context — so a steady-state small-value commit performs **zero**
//! heap allocations end to end (asserted by the `write_path_allocs`
//! integration test).
//!
//! The id of the written object is hoisted into the entry header, so
//! write-set lookups (`Txn::find_write`) scan a plain `u64` field instead
//! of making one virtual call per entry.

use std::any::Any;
use std::mem::{align_of, size_of, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::tvar::{ObjState, TVar};
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
    /// ([`crate::tvar::TVarInner::lazy_writeback_arc`]).
    fn lazy_writeback(&self, wv: u64);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Typed write-set entry: the object handle plus the private shadow copy.
struct TypedWrite<T: TxObject> {
    tvar: TVar<T>,
    shadow: Arc<T>,
}

impl<T: TxObject> ErasedWrite for TypedWrite<T> {
    fn release(&self, me: &TxState) {
        self.tvar.inner().collapse_terminal(me);
    }

    fn commit_fused(&self, me: &TxState) -> bool {
        let shadow = |_: &mut ObjState<T>| Arc::clone(&self.shadow);
        self.tvar.inner().commit_fused(me, shadow)
    }

    fn publish(&self, me: &TxState) {
        let mut st = self.tvar.inner().state.lock();
        if st.owned_by(me) {
            st.new = Some(Arc::clone(&self.shadow));
        }
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
        self.tvar.inner().lazy_writeback_arc(&self.shadow, wv);
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

/// What actually lives in the inline buffer for a value of type `T`.
struct InlinePayload<T: TxObject> {
    tvar: TVar<T>,
    value: T,
}

impl<T: TxObject> ErasedWrite for InlinePayload<T> {
    fn publish(&self, me: &TxState) {
        self.tvar.inner().publish_value(&self.value, me);
    }

    fn release(&self, me: &TxState) {
        self.tvar.inner().collapse_terminal(me);
    }

    fn commit_fused(&self, me: &TxState) -> bool {
        self.tvar
            .inner()
            .commit_fused(me, |st| st.version_of(&self.value))
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
        self.tvar.inner().lazy_writeback_value(&self.value, wv);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

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
    /// `buf` as the `InlinePayload<T>` it holds, behind its vtable.
    erase: fn(*mut InlineBuf) -> *mut dyn ErasedWrite,
    buf: InlineBuf,
}

fn erase<T: TxObject>(buf: *mut InlineBuf) -> *mut dyn ErasedWrite {
    buf.cast::<InlinePayload<T>>()
}

// SAFETY: `buf` always holds an `InlinePayload<T>` with `T: TxObject` (so
// `TVar<T>` and `T` are both `Send`); the fn pointer carries no state.
unsafe impl Send for InlineWrite {}

impl Drop for InlineWrite {
    fn drop(&mut self) {
        // SAFETY: `buf` holds a live `InlinePayload` of the type `erase`
        // was instantiated with; after this the entry is gone, so nothing
        // reads the buffer again.
        unsafe { std::ptr::drop_in_place((self.erase)(&mut self.buf)) };
    }
}

impl Deref for WriteEntry {
    type Target = dyn ErasedWrite;

    #[inline]
    fn deref(&self) -> &Self::Target {
        match &self.kind {
            // SAFETY: `buf` holds a live `InlinePayload` of the type
            // `erase` was instantiated with, borrowed for as long as
            // `self`; the pointer is only made `*mut` to share `erase`
            // with `deref_mut`, nothing is written through it.
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
    pub(crate) fn fits_inline<T: TxObject>() -> bool {
        size_of::<InlinePayload<T>>() <= INLINE_BUF_BYTES
            && align_of::<InlinePayload<T>>() <= INLINE_ALIGN
    }

    /// Build an inline entry. `T` must [fit](Self::fits_inline).
    pub(crate) fn new_inline<T: TxObject>(tvar: TVar<T>, value: T) -> Self {
        assert!(Self::fits_inline::<T>());
        let tvar_id = tvar.id();
        let mut buf: InlineBuf = MaybeUninit::uninit();
        // SAFETY: the assertion guarantees size and alignment; the buffer
        // is exclusively ours and the payload is dropped exactly once (in
        // `InlineWrite::drop`).
        unsafe {
            buf.as_mut_ptr()
                .cast::<InlinePayload<T>>()
                .write(InlinePayload { tvar, value });
        }
        WriteEntry {
            tvar_id,
            kind: EntryKind::Inline(InlineWrite {
                erase: erase::<T>,
                buf,
            }),
        }
    }

    /// Build a boxed entry, for a type too large (or over-aligned) to store
    /// inline: the typed accessors pick the representation by `T` alone.
    pub(crate) fn new_boxed<T: TxObject>(tvar: TVar<T>, shadow: Arc<T>) -> Self {
        debug_assert!(!Self::fits_inline::<T>());
        WriteEntry {
            tvar_id: tvar.id(),
            kind: EntryKind::Boxed(Box::new(TypedWrite { tvar, shadow })),
        }
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

    /// Read-your-writes: a stable snapshot of the value this entry holds.
    ///
    /// For a boxed entry this is the shadow `Arc` itself; for an inline
    /// entry a snapshot is materialized on demand (rare — the benchmarks'
    /// transactions read *before* writing). Either way the returned `Arc`
    /// never changes under the caller: later writes to the object go to
    /// the inline value or clone-on-write through `Arc::make_mut`.
    pub(crate) fn read_snapshot<T: TxObject>(&self) -> Arc<T> {
        let any = self.as_any();
        if Self::fits_inline::<T>() {
            let p = any.downcast_ref::<InlinePayload<T>>();
            Arc::new(p.expect(TYPE_MISMATCH).value.clone())
        } else {
            let tw = any.downcast_ref::<TypedWrite<T>>();
            Arc::clone(&tw.expect(TYPE_MISMATCH).shadow)
        }
    }

    /// The entry's value, for writing in place.
    fn value_mut<T: TxObject>(&mut self) -> &mut T {
        let any = self.as_any_mut();
        if Self::fits_inline::<T>() {
            let p = any.downcast_mut::<InlinePayload<T>>();
            &mut p.expect(TYPE_MISMATCH).value
        } else {
            let tw = any.downcast_mut::<TypedWrite<T>>();
            Arc::make_mut(&mut tw.expect(TYPE_MISMATCH).shadow)
        }
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

    fn state(id: u64) -> Arc<TxState> {
        Arc::new(TxState::new(id, id, 0, 0, id, clockns::now(), 0))
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
        // own business, same as under the boxed representation).
        assert!(WriteEntry::fits_inline::<Vec<u32>>());
    }

    #[test]
    fn inline_entry_roundtrips_value_and_drops_it() {
        // A droppable payload (Vec) exercises drop_in_place.
        let tv: TVar<Vec<u32>> = TVar::new(vec![1]);
        let mut e = WriteEntry::new_inline(tv.clone(), vec![1, 2]);
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
        let mut e = WriteEntry::new_boxed(tv.clone(), Arc::new([1u64; 8]));
        assert!(!e.is_inline());
        assert_eq!(e.tvar_id(), tv.id());
        e.set_value([2u64; 8]);
        e.modify_value::<[u64; 8]>(|v| v[0] = 7);
        let snap = e.read_snapshot::<[u64; 8]>();
        assert_eq!(snap[0], 7);
        assert_eq!(snap[1], 2);
    }

    #[test]
    fn snapshot_is_stable_across_later_writes() {
        let tv: TVar<u64> = TVar::new(0);
        let mut e = WriteEntry::new_inline(tv, 5u64);
        let snap = e.read_snapshot::<u64>();
        e.set_value(6u64);
        assert_eq!(*snap, 5, "snapshot must not see later writes");
        assert_eq!(*e.read_snapshot::<u64>(), 6);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn wrong_type_downcast_panics() {
        let tv: TVar<u64> = TVar::new(0);
        let e = WriteEntry::new_inline(tv, 1u64);
        let _ = e.read_snapshot::<u32>();
    }

    #[test]
    fn publish_installs_only_while_owner() {
        let tv: TVar<u64> = TVar::new(3);
        let me = state(11);
        let e = WriteEntry::new_inline(tv.clone(), 42u64);
        // Not the owner: publish is a no-op.
        e.publish(&me);
        assert_eq!(*tv.sample(), 3);
        // Install ourselves as the writer, then publish and commit.
        {
            let mut st = tv.inner().state.lock();
            tv.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&me));
        }
        e.publish(&me);
        assert!(me.try_commit());
        assert_eq!(*tv.sample(), 42);
    }
    #[test]
    fn publish_only_when_still_owner() {
        let tv: TVar<u32> = TVar::new(1);
        let w1 = state(1);
        {
            let mut st = tv.inner().state.lock();
            tv.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&w1));
        }
        let entry = TypedWrite {
            tvar: tv.clone(),
            shadow: Arc::new(42),
        };
        entry.publish(&w1);
        assert!(tv.inner().state.lock().new.is_some());

        // A stale owner must not clobber a newer writer's locator.
        let tv2: TVar<u32> = TVar::new(1);
        let w2 = state(2);
        {
            let mut st = tv2.inner().state.lock();
            tv2.inner().lock_snapshot();
            st.writer = Some(Arc::clone(&w2));
        }
        let stale = TypedWrite {
            tvar: tv2.clone(),
            shadow: Arc::new(99),
        };
        stale.publish(&w1); // w1 is not the owner of tv2
        assert!(tv2.inner().state.lock().new.is_none());
    }
}
