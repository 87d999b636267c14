//! # wtm-workloads — transactional benchmarks over `wtm-stm`
//!
//! The paper's four §III benchmarks — the DSTM IntSet family (sorted
//! linked **List**, **RBTree**, **SkipList**) and the STAMP-style
//! **Vacation** travel-booking database — plus **HashMap**, the
//! low-contention control. All operations run as transactions against
//! the [`wtm_stm`] engine, so their conflict topology matches the
//! originals:
//!
//! * **List**: every operation walks the sorted chain from the head, so
//!   readers pile up on the prefix and any writer conflicts with every
//!   concurrent walker that passed its node — the paper's high-contention
//!   workhorse.
//! * **RBTree**: rotations and recoloring near the root create bursts of
//!   write contention; most of the structure is read-shared.
//! * **SkipList**: towers spread writers across lanes, so conflict
//!   probability is low — the benchmark where the paper's window overhead
//!   is *visible* rather than amortized.
//! * **Vacation**: each transaction makes several bookings across three
//!   tables (flights/hotels/cars), mixing point queries and updates — a
//!   "realistic application" mix. As in STAMP, each row and customer
//!   record is an object of its own beside the red-black index, so a
//!   booking conflicts with users of its row, not with every lookup that
//!   walks past the row's tree node.
//! * **HashMap**: accesses touch exactly one bucket; conflicts scale with
//!   `1/buckets` — the polar opposite of the List.
//!
//! Workloads are *data, not code*: the [`workload::Workload`] trait
//! (construct populated + deterministic per-thread op stream) and the
//! name-keyed [`registry`] let the harness run any of them — the paper
//! grid and the control alike — by name. A workload starts in the state
//! the paper's setup fills it to, computed in plain memory by each
//! structure's constructor (`with_keys`, `with_entries`), so no engine
//! runs before the measured one; the red-black tree's CLRS insert is one
//! piece of code that both the constructor and transactions run. The [`generator`] module
//! provides the deterministic operation streams with the paper's
//! contention knobs (update percentage: 20% low / 60% medium / 100% high,
//! Fig. 5) and key-range control.

pub mod generator;
pub mod hashmap;
pub mod intset;
pub mod list;
pub mod rbtree;
pub mod registry;
pub mod skiplist;
pub mod vacation;
pub mod workload;

pub use generator::{ContentionLevel, OpKind, SetOp, SetOpGenerator};
pub use hashmap::{TxHashMap, TxHashSet};
pub use intset::TxIntSet;
pub use list::TxList;
pub use rbtree::{TxRBMap, TxRBTree};
pub use registry::{
    build_workload, default_key_range, paper_workload_names, workload_info, workload_infos,
    workload_names, WorkloadInfo,
};
pub use skiplist::TxSkipList;
pub use vacation::{Vacation, VacationConfig, VacationOp, VacationOpGenerator};
pub use workload::{OpStream, Workload, WorkloadParams};
