//! Trace-driven simulation: the bridge between the real STM and the
//! abstract scheduling model.
//!
//! The paper's evaluation ran on real hardware with 8× thread
//! oversubscription; on a different host the *absolute* interleavings
//! change and contention-manager gaps compress. Trace-driven simulation
//! removes the hardware from the equation while keeping the *workload*
//! real: we execute an `M × N` window of benchmark operations once,
//! record each transaction's `(object, read/write)` footprint via
//! [`wtm_workloads::OpStream::step_traced`], derive the exact conflict
//! graph of that window (§II-A's definition), and then schedule it with
//! every policy in the deterministic simulator.
//!
//! Approximation note: footprints are captured from one serial execution,
//! so key-dependent control flow under different interleavings is not
//! modelled (the standard trace-driven caveat). For the IntSet
//! benchmarks the footprint is the search path, which depends only weakly
//! on interleaving at 50% occupancy.

use wtm_sim::engine::{SimConfig, SimOutcome};
use wtm_sim::graph::ConflictGraph;
use wtm_sim::SIM_SCHEDULER_NAMES;
use wtm_stm::CmDispatch;
use wtm_stm::Stm;
use wtm_workloads::{build_workload, paper_workload_names, WorkloadParams};

use crate::preset::Preset;
use crate::report::Table;
use crate::theory::{mean, sim_runs};

/// Capture the conflict graph of one `m × n` window of `workload`
/// operations, in the paper's high-contention configuration. Any
/// registered workload works: the registry builds it and its per-thread
/// streams supply traced footprints.
pub fn capture_window_graph(workload: &str, m: usize, n: usize, seed: u64) -> ConflictGraph {
    let stm = Stm::new(CmDispatch::AbortSelf, 1);
    let ctx = stm.thread(0);
    let params = WorkloadParams {
        key_range: 0, // registry default
        update_pct: 100,
        seed,
        threads: m,
    };
    let w = build_workload(workload, &params)
        .unwrap_or_else(|| panic!("unknown workload {workload:?}"));
    let mut streams: Vec<_> = (0..m).map(|t| w.stream(t)).collect();
    let mut footprints: Vec<Vec<(u64, bool)>> = vec![Vec::new(); m * n];
    // Column-major execution approximates the concurrent interleaving:
    // all threads' j-th transactions run "together".
    for j in 0..n {
        for (i, stream) in streams.iter_mut().enumerate() {
            footprints[i * n + j] = stream.step_traced(&ctx);
        }
    }
    ConflictGraph::from_footprints(m, n, &footprints)
}

/// T4: trace-driven simulated comparison — one table per benchmark.
/// Columns: makespan (steps), speed-up over the one-shot baseline, and
/// aborts per commit, per scheduler.
pub fn trace_tables(preset: &Preset) -> Vec<Table> {
    let m = preset.sim_m.min(16); // capture cost is O(m·n) transactions
    let n = preset.sim_n;
    let tau = 4;
    let mut tables = Vec::new();
    for workload in paper_workload_names() {
        eprintln!("[windowtm] T4 capturing {workload} window ({m}×{n})");
        let graph = capture_window_graph(workload, m, n, 0x7124CE);
        let cfg = SimConfig::new(m, n, tau);
        let mut t = Table::new(
            format!(
                "T4: trace-driven simulation — {workload} (M={m}, N={n}, C={}, edges={})",
                graph.contention(),
                graph.edge_count()
            ),
            "scheduler",
            vec![
                "makespan".into(),
                "vs OneShot".into(),
                "aborts/commit".into(),
            ],
        );
        // Registry order: `OneShot` comes first, so every later row has its
        // baseline.
        let mut oneshot = f64::NAN;
        for &name in SIM_SCHEDULER_NAMES {
            let runs = sim_runs(&graph, &cfg, name, &[99]);
            let makespan = mean(&runs, |o| o.makespan as f64);
            if name == "OneShot" {
                oneshot = makespan;
            }
            let aborts_per_commit = mean(&runs, SimOutcome::aborts_per_commit);
            t.push_row(name, vec![makespan, oneshot / makespan, aborts_per_commit]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captured_graphs_have_window_shape() {
        for workload in paper_workload_names() {
            let g = capture_window_graph(workload, 4, 6, 1);
            assert_eq!(g.m(), 4);
            assert_eq!(g.n(), 6);
            // High-contention configs must actually conflict.
            assert!(
                g.edge_count() > 0,
                "{workload}: captured window has no conflicts"
            );
        }
    }

    #[test]
    fn list_traces_are_denser_than_skiplist() {
        // The List's shared walk prefix makes nearly every pair conflict;
        // the SkipList spreads accesses. The paper leans on exactly this
        // contrast (SkipList = low conflict probability, §III-C).
        let list = capture_window_graph("List", 6, 8, 3);
        let skip = capture_window_graph("SkipList", 6, 8, 3);
        assert!(
            list.edge_count() > skip.edge_count(),
            "List {} edges vs SkipList {}",
            list.edge_count(),
            skip.edge_count()
        );
    }

    #[test]
    fn extension_workloads_capture_too() {
        // The registry makes the HashMap control first-class: the same
        // capture path must work for it.
        let g = capture_window_graph("HashMap", 3, 4, 5);
        assert_eq!(g.m(), 3);
        assert_eq!(g.n(), 4);
    }

    #[test]
    fn trace_tables_smoke() {
        let mut p = Preset::smoke();
        p.sim_m = 4;
        p.sim_n = 6;
        let tables = trace_tables(&p);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(
                t.rows, SIM_SCHEDULER_NAMES,
                "one row per registered scheduler"
            );
            // Offline aborts nothing.
            let last = t.rows.len() - 1;
            assert_eq!(t.rows[last], "Offline");
            assert_eq!(t.cells[last][2], 0.0);
        }
    }
}
