//! Golden check of the simulator theory tables: `windowtm theory --smoke`
//! (T1–T3) must reproduce `tests/data/theory_smoke.golden` cell for cell,
//! and the trace-driven T4 tables must list the scheduler registry and
//! repeat exactly.
//!
//! The golden was captured from the hand-rolled scheduler factories that
//! `harness/theory.rs` used to carry; the tables now build every scheduler
//! through `wtm_sim::build_sim_scheduler` with the same seeds `[11, 29,
//! 47]`, so the numbers may not move. The one difference from that
//! capture is the column label `Adaptive`, which now reads
//! `Adaptive-Dynamic` like the registry name (T1's column and T2's
//! `Adaptive-Dynamic/OneShot`). T4's rows follow the registry's order.

use windowtm::harness::report::Table;
use windowtm::harness::simtrace::trace_tables;
use windowtm::harness::theory::makespan_tables;
use windowtm::harness::Preset;
use windowtm::sim::SIM_SCHEDULER_NAMES;

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
