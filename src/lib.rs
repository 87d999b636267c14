//! # windowtm — window-based contention managers for transactional memory
//!
//! A complete Rust reproduction of *"On the Performance of Window-Based
//! Contention Managers for Transactional Memory"* (Gokarna Sharma & Costas
//! Busch, IEEE IPDPS Workshops 2011).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`stm`] — the eager object-based STM engine (the DSTM2 substitute),
//! * [`managers`] — the classic contention managers (Polka, Greedy,
//!   Priority); every manager, classic or window, is built by name
//!   through [`harness::managers::build_manager`],
//! * [`policy`] — the window policy both window drivers call (α, the
//!   frame schedule, the Cᵢ rules, the bad event, the priority key),
//! * [`window`] — the paper's window-based contention managers,
//! * [`workloads`] — List, RBTree, SkipList, and Vacation benchmarks,
//! * [`sim`] — the discrete-time scheduling simulator (Offline algorithm,
//!   makespan/theory experiments),
//! * [`harness`] — experiment drivers that regenerate every figure.
//!
//! See the `examples/` directory for runnable entry points and
//! `EXPERIMENTS.md` for paper-vs-measured results.

pub use wtm_harness as harness;
pub use wtm_policy as policy;
pub use wtm_sim as sim;
pub use wtm_stm as stm;
pub use wtm_stm::managers;
pub use wtm_window as window;
pub use wtm_workloads as workloads;

pub use wtm_stm::{Stm, TVar, TxError, TxResult, Txn};
