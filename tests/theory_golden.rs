//! Golden check of the simulator theory tables: `windowtm theory --smoke`
//! (T1–T3) must reproduce `tests/data/theory_smoke.golden` cell for cell,
//! and the trace-driven T4 tables must list the scheduler registry, repeat
//! exactly, and schedule conflict graphs of pinned size.
//!
//! The golden was captured from the hand-rolled scheduler factories that
//! `harness/theory.rs` used to carry; the tables now build every scheduler
//! through `wtm_sim::build_sim_scheduler` with the same seeds `[11, 29,
//! 47]`, so the numbers may not move. The one difference from that
//! capture is the column label `Adaptive`, which now reads
//! `Adaptive-Dynamic` like the registry name (T1's column and T2's
//! `Adaptive-Dynamic/OneShot`). T4's rows follow the registry's order.

use windowtm::harness::report::Table;
use windowtm::harness::simtrace::{capture_window_graph, trace_tables};
use windowtm::harness::theory::makespan_tables;
use windowtm::harness::Preset;
use windowtm::sim::SIM_SCHEDULER_NAMES;
use windowtm::workloads::paper_workload_names;

fn render(tables: &[Table]) -> String {
    tables
        .iter()
        .map(|t| format!("## {}\n{}\n", t.title, t.to_csv()))
        .collect()
}

#[test]
fn t1_to_t3_smoke_cells_match_the_golden() {
    let golden = include_str!("data/theory_smoke.golden");
    assert_eq!(render(&makespan_tables(&Preset::smoke())), golden);
}

#[test]
fn t4_lists_the_registry_and_repeats_exactly() {
    let preset = Preset::smoke();
    let first = trace_tables(&preset);
    assert_eq!(first.len(), 4, "one table per paper workload");
    for t in &first {
        assert_eq!(t.rows, SIM_SCHEDULER_NAMES, "{}", t.title);
        assert_eq!(t.rows[0], "OneShot", "the baseline row comes first");
        assert_eq!(t.get(0, "vs OneShot"), Some(1.0));
    }
    assert_eq!(render(&first), render(&trace_tables(&preset)));
}

/// The conflict graphs T4 schedules, pinned by size: a workload whose
/// populated state changed shape (another tree, other towers, other
/// chains) captures other footprints and moves these counts, while two
/// runs of the changed code would still agree with each other.
#[test]
fn t4_captured_graphs_keep_their_shape() {
    let preset = Preset::smoke();
    let (m, n) = (preset.sim_m.min(16), preset.sim_n);
    assert_eq!((m, n), (6, 8), "the smoke shape the counts were taken at");
    // (workload, edge_count, contention) at seed 0x7124CE, as
    // `trace_tables` captures them.
    let pinned = [
        ("List", 432, 45),
        ("RBTree", 560, 47),
        ("SkipList", 69, 7),
        ("Vacation", 64, 8),
    ];
    assert_eq!(
        pinned.map(|(w, _, _)| w).to_vec(),
        paper_workload_names(),
        "one pin per paper workload"
    );
    for (workload, edges, contention) in pinned {
        let graph = capture_window_graph(workload, m, n, 0x7124CE);
        assert_eq!(
            (graph.edge_count(), graph.contention()),
            (edges, contention),
            "{workload}: (edges, C)"
        );
    }
}
