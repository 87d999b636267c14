//! Name-keyed workload registry.
//!
//! Every workload the repository implements is registered here, so the
//! harness, the CLI (`windowtm list`, `windowtm run <name>`), and the
//! trace-capture pipeline can construct any of them from a string. The
//! paper's four benchmarks are flagged [`WorkloadInfo::paper`]; the one
//! other entry, HashMap, is the low-contention control the benchmark
//! runs.
//!
//! [`build_workload`] returns a workload already prepopulated: the
//! IntSet structures hold every even key below the range and Vacation's
//! tables hold their rows, each built by its constructor in plain memory.
//! Nothing is left for a caller to fill through an engine.

use wtm_stm::{ThreadCtx, TxResult, Txn};

use crate::generator::{OpKind, SetOpGenerator};
use crate::hashmap::TxHashSet;
use crate::intset::TxIntSet;
use crate::list::TxList;
use crate::rbtree::TxRBTree;
use crate::skiplist::TxSkipList;
use crate::vacation::{Vacation, VacationConfig, VacationOpGenerator};
use crate::workload::{OpStream, Workload, WorkloadParams};

/// One registry entry.
pub struct WorkloadInfo {
    /// Registry name (also the report label).
    pub name: &'static str,
    /// One-line description for `windowtm list`.
    pub summary: &'static str,
    /// Default size knob when [`WorkloadParams::key_range`] is 0.
    pub default_key_range: i64,
    /// Part of the paper's §III evaluation (vs. an extension).
    pub paper: bool,
    build: fn(WorkloadParams) -> Box<dyn Workload>,
}

/// The registry, in presentation order: the paper's four benchmarks
/// first, then the HashMap control.
pub fn workload_infos() -> &'static [WorkloadInfo] {
    &[
        WorkloadInfo {
            name: "List",
            summary: "sorted linked-list IntSet (DSTM); long shared walks, the paper's high-contention workhorse",
            default_key_range: 64,
            paper: true,
            build: |p| {
                let set = Box::new(TxList::with_keys(even_keys(&p)));
                Box::new(SetWorkload::new("List", set, p))
            },
        },
        WorkloadInfo {
            name: "RBTree",
            summary: "red-black tree IntSet (DSTM); write bursts near the root, read-shared elsewhere",
            default_key_range: 256,
            paper: true,
            build: |p| {
                let set = Box::new(TxRBTree::with_keys(p.key_range as usize + 8, even_keys(&p)));
                Box::new(SetWorkload::new("RBTree", set, p))
            },
        },
        WorkloadInfo {
            name: "SkipList",
            summary: "skip-list IntSet; towers spread writers, low conflict probability",
            default_key_range: 256,
            paper: true,
            build: |p| {
                let set = Box::new(TxSkipList::with_keys(even_keys(&p)));
                Box::new(SetWorkload::new("SkipList", set, p))
            },
        },
        WorkloadInfo {
            name: "Vacation",
            summary: "STAMP-style travel-booking database; multi-table read/update mix",
            default_key_range: 128,
            paper: true,
            build: |p| Box::new(VacationWorkload::new(p)),
        },
        WorkloadInfo {
            name: "HashMap",
            summary: "chained transactional hash set; single-bucket ops, the low-contention control",
            default_key_range: 256,
            paper: false,
            build: |p| {
                let set = Box::new(TxHashSet::with_keys(p.key_range as usize, even_keys(&p)));
                Box::new(SetWorkload::new("HashMap", set, p))
            },
        },
    ]
}

/// All registered workload names, presentation order.
pub fn workload_names() -> Vec<&'static str> {
    workload_infos().iter().map(|i| i.name).collect()
}

/// The paper's §III benchmark names (Figs. 2–5 grid).
pub fn paper_workload_names() -> Vec<&'static str> {
    workload_infos()
        .iter()
        .filter(|i| i.paper)
        .map(|i| i.name)
        .collect()
}

/// Registry lookup (case-insensitive).
pub fn workload_info(name: &str) -> Option<&'static WorkloadInfo> {
    workload_infos()
        .iter()
        .find(|i| i.name.eq_ignore_ascii_case(name))
}

/// The registry default for [`WorkloadParams::key_range`].
pub fn default_key_range(name: &str) -> Option<i64> {
    workload_info(name).map(|i| i.default_key_range)
}

/// Construct a workload by name, already in its prepopulated state. A
/// zero `key_range` selects the registry's per-workload default. Returns
/// `None` for unknown names.
pub fn build_workload(name: &str, params: &WorkloadParams) -> Option<Box<dyn Workload>> {
    let info = workload_info(name)?;
    let mut p = params.clone();
    if p.key_range <= 0 {
        p.key_range = info.default_key_range;
    }
    p.threads = p.threads.max(1);
    Some((info.build)(p))
}

// ---------------------------------------------------------------------------
// IntSet adapter (List, RBTree, SkipList, HashMap)
// ---------------------------------------------------------------------------

/// The prepopulated key set of the IntSet workloads: every even key
/// below the range in ascending order, ~50 % occupancy as in the paper's
/// setup.
fn even_keys(p: &WorkloadParams) -> impl Iterator<Item = i64> {
    (0..p.key_range).step_by(2)
}

/// Adapter driving any [`TxIntSet`] with the paper's operation mix.
struct SetWorkload {
    name: &'static str,
    set: Box<dyn TxIntSet>,
    params: WorkloadParams,
}

impl SetWorkload {
    fn new(name: &'static str, set: Box<dyn TxIntSet>, params: WorkloadParams) -> Self {
        SetWorkload { name, set, params }
    }
}

impl Workload for SetWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn stream(&self, thread: usize) -> Box<dyn OpStream + '_> {
        Box::new(SetStream {
            set: self.set.as_ref(),
            generator: SetOpGenerator::new(
                self.params.seed,
                thread,
                self.params.key_range,
                self.params.update_pct,
            ),
        })
    }
}

struct SetStream<'a> {
    set: &'a dyn TxIntSet,
    generator: SetOpGenerator,
}

fn run_set_op(set: &dyn TxIntSet, tx: &mut Txn, kind: OpKind, key: i64) -> TxResult<()> {
    match kind {
        OpKind::Insert => set.insert(tx, key).map(|_| ()),
        OpKind::Remove => set.remove(tx, key).map(|_| ()),
        OpKind::Contains => set.contains(tx, key).map(|_| ()),
    }
}

impl OpStream for SetStream<'_> {
    fn step(&mut self, ctx: &ThreadCtx) {
        let op = self.generator.next_op();
        ctx.atomic(|tx| run_set_op(self.set, tx, op.kind, op.key));
    }

    fn step_traced(&mut self, ctx: &ThreadCtx) -> Vec<(u64, bool)> {
        let op = self.generator.next_op();
        ctx.atomic_traced(|tx| run_set_op(self.set, tx, op.kind, op.key))
            .1
    }
}

// ---------------------------------------------------------------------------
// Vacation adapter
// ---------------------------------------------------------------------------

struct VacationWorkload {
    vacation: Vacation,
}

impl VacationWorkload {
    fn new(p: WorkloadParams) -> Self {
        VacationWorkload {
            vacation: Vacation::new(VacationConfig {
                num_relations: p.key_range,
                num_queries: 4,
                query_range_pct: 60,
                update_pct: p.update_pct,
                seed: p.seed,
            }),
        }
    }
}

impl Workload for VacationWorkload {
    fn name(&self) -> &'static str {
        "Vacation"
    }

    fn stream(&self, thread: usize) -> Box<dyn OpStream + '_> {
        Box::new(VacationStream {
            vacation: &self.vacation,
            generator: VacationOpGenerator::new(self.vacation.config(), thread),
        })
    }
}

struct VacationStream<'a> {
    vacation: &'a Vacation,
    generator: VacationOpGenerator,
}

impl OpStream for VacationStream<'_> {
    fn step(&mut self, ctx: &ThreadCtx) {
        let op = self.generator.next_op();
        ctx.atomic(|tx| self.vacation.run_op(tx, &op).map(|_| ()));
    }

    fn step_traced(&mut self, ctx: &ThreadCtx) -> Vec<(u64, bool)> {
        let op = self.generator.next_op();
        ctx.atomic_traced(|tx| self.vacation.run_op(tx, &op).map(|_| ()))
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtm_stm::{CmDispatch, Stm};

    #[test]
    fn registry_is_the_paper_workloads_and_the_hashmap_control() {
        assert_eq!(
            workload_names(),
            ["List", "RBTree", "SkipList", "Vacation", "HashMap"]
        );
        assert_eq!(
            paper_workload_names(),
            ["List", "RBTree", "SkipList", "Vacation"]
        );
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert_eq!(workload_info("hashmap").unwrap().name, "HashMap");
        assert_eq!(workload_info("RBTREE").unwrap().name, "RBTree");
        assert!(workload_info("NoSuchWorkload").is_none());
        assert!(build_workload("nope", &WorkloadParams::default()).is_none());
    }

    #[test]
    fn default_key_ranges_positive() {
        for info in workload_infos() {
            assert!(info.default_key_range > 0, "{}", info.name);
            assert_eq!(default_key_range(info.name), Some(info.default_key_range));
        }
    }

    #[test]
    fn every_workload_builds_populated_and_steps() {
        for info in workload_infos() {
            let params = WorkloadParams {
                key_range: 0,
                update_pct: 100,
                seed: 7,
                threads: 1,
            };
            let stm = Stm::new(CmDispatch::AbortSelf, 1);
            let w = build_workload(info.name, &params).unwrap();
            assert_eq!(w.name(), info.name);
            let ctx = stm.thread(0);
            let mut s = w.stream(0);
            for _ in 0..32 {
                s.step(&ctx);
            }
            let fp = s.step_traced(&ctx);
            // Every workload's transactions touch at least one object.
            assert!(!fp.is_empty(), "{}: empty footprint", info.name);
            assert!(stm.aggregate().commits >= 33, "{}", info.name);
        }
    }

    #[test]
    fn streams_are_deterministic_per_seed_and_thread() {
        // Footprints of the same (seed, thread) stream must match across
        // two independently built instances — up to object-id renaming,
        // since TVar ids come from a process-global counter. A different
        // thread or seed diverges.
        let fp = |thread: usize, seed: u64| -> Vec<Vec<(u64, bool)>> {
            let params = WorkloadParams {
                key_range: 0,
                update_pct: 100,
                seed,
                threads: 2,
            };
            let stm = Stm::new(CmDispatch::AbortSelf, 1);
            let w = build_workload("List", &params).unwrap();
            let ctx = stm.thread(0);
            let mut s = w.stream(thread);
            let raw: Vec<Vec<(u64, bool)>> = (0..16).map(|_| s.step_traced(&ctx)).collect();
            // Rename ids to first-seen dense indices.
            let mut rename = std::collections::HashMap::new();
            raw.iter()
                .map(|ops| {
                    ops.iter()
                        .map(|(id, w)| {
                            let next = rename.len() as u64;
                            (*rename.entry(*id).or_insert(next), *w)
                        })
                        .collect()
                })
                .collect()
        };
        assert_eq!(fp(0, 42), fp(0, 42));
        assert_ne!(fp(0, 42), fp(1, 42));
        assert_ne!(fp(0, 42), fp(0, 43));
    }
}
