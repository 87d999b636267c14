//! # wtm-stm — an eager, object-based software transactional memory engine
//!
//! This crate is a from-scratch Rust implementation of the STM substrate the
//! paper *"On the Performance of Window-Based Contention Managers for
//! Transactional Memory"* (Sharma & Busch, IPDPS Workshops 2011) runs its
//! evaluation on. The paper used **DSTM2** (Herlihy, Luchangco, Moir), a Java
//! STM with *eager conflict management*, the *shadow factory*, and *visible
//! reads*. `wtm-stm` reproduces those semantics:
//!
//! * **Object-based**: the unit of synchronization is a [`TVar<T>`]
//!   (transactional object), not a memory word.
//! * **Eager conflict management**: a conflict is discovered the moment a
//!   transaction *opens* an object that another active transaction has open,
//!   and the installed [`ContentionManager`] is consulted right away.
//! * **Visible reads**: readers register themselves on the object, so a
//!   writer discovers read-write conflicts eagerly and can abort readers.
//! * **Shadow copies**: a writer works on a private clone of the object,
//!   published atomically at commit via the object's *locator*.
//! * **Obstruction-free locator protocol**: each object points at a
//!   [`Locator`](tvar) holding `(writer, old version, new version)`. The
//!   current value is `new` iff the writer committed, `old` otherwise.
//!   Transaction status changes with a single compare-and-swap, so commits
//!   and enemy aborts serialize correctly without global locks.
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use wtm_stm::{Stm, TVar, cm::AbortSelfManager};
//!
//! let stm = Stm::new(Arc::new(AbortSelfManager::default()), 1);
//! let counter: TVar<u64> = TVar::new(0);
//! let ctx = stm.thread(0);
//! let v = ctx.atomic(|tx| {
//!     let v = *tx.read(&counter)?;
//!     tx.write(&counter, v + 1)?;
//!     Ok(v + 1)
//! });
//! assert_eq!(v, 1);
//! ```
//!
//! ## Crate layout
//!
//! | module | contents |
//! |---|---|
//! | [`status`] | transaction status word and its CAS rules |
//! | [`txstate`] | the shared per-attempt transaction record ([`TxState`]) |
//! | [`cm`] | the [`ContentionManager`] trait, [`Resolution`], [`ConflictKind`] |
//! | [`dispatch`] | [`CmDispatch`]: enum dispatch over the built-in managers |
//! | [`managers`] | the classic contention managers (Polka, Greedy, …) |
//! | [`tvar`] | transactional objects and the locator protocol |
//! | [`txn`] | the transaction API: read/write/modify/commit |
//! | [`stm`] | the engine handle, per-thread contexts, the retry loop |
//! | [`stats`] | lock-free per-thread metrics and snapshots |
//! | [`clockns`] | cheap coarse nanosecond timestamps: metrics, window frames, transaction age |
//! | [`slots`] | reader-slot indices, the per-index reader rows and the attempt registry (a lock per record) |
//! | [`sync`] | the engine's lock, cancellable barrier and cooperative waiting helpers |
//! | [`trace`] | per-thread event rings behind a runtime flag (`windowtm trace`) |

pub mod clockns;
pub mod cm;
pub mod dispatch;
pub mod engine;
pub mod managers;
/// Thread-local operation counters: debug-only hot-path ones (scan/RMW
/// cost assertions) and the window manager's boundary lock count.
pub mod probe;
pub mod slots;
pub mod stats;
pub mod status;
pub mod stm;
pub mod sync;
pub mod trace;
pub mod tvar;
pub mod txn;
pub mod txstate;
mod writeset;

pub use cm::{ConflictKind, ContentionManager, Resolution};
pub use dispatch::CmDispatch;
pub use engine::EngineKind;
pub use stats::{StatsSnapshot, ThreadStats};
pub use status::TxStatus;
pub use stm::{Stm, ThreadCtx};
pub use tvar::TVar;
pub use txn::{ReadRef, TxError, TxResult, Txn};
pub use txstate::TxState;

/// Marker trait for values that can live inside a [`TVar`].
///
/// Blanket-implemented: anything `Clone + Send + Sync + 'static` qualifies.
/// `Clone` is required because the engine makes shadow copies of objects
/// opened for writing (DSTM's "shadow factory").
pub trait TxObject: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> TxObject for T {}
