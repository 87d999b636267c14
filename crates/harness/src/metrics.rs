//! The paper's §IV "future work" metrics, implemented: wasted work,
//! repeat conflicts, average committed-transaction duration, and average
//! response time, for the Fig. 3 manager set across all benchmarks.
//!
//! > "window-based algorithms can also be evaluated for other performance
//! > measures such as wasted work, repeat conflicts, average committed
//! > transactions duration, average response time … We defer the
//! > evaluation of window model evaluation on these aforementioned
//! > performance measures for future work." — §IV
//!
//! This module is that evaluation. Because every [`CellResult`] already
//! carries all the metrics, this spec's cells coincide with the Fig. 3
//! cells at the top thread count — when `fig34` ran first into the same
//! `--out`, the executor serves these from the checkpoint for free.

use wtm_workloads::paper_workload_names;

use crate::experiment::{project, Executor, ExperimentSpec};
use crate::managers::comparison_manager_names;
use crate::preset::Preset;
use crate::report::Table;

/// One table per metric; rows = benchmarks, columns = managers.
pub fn future_work_tables(preset: &Preset, exec: &mut Executor) -> Vec<Table> {
    let threads = preset.max_threads();
    let spec = ExperimentSpec {
        threads: vec![threads],
        ..ExperimentSpec::from_preset(
            "metrics",
            preset,
            paper_workload_names(),
            comparison_manager_names(),
        )
    };
    let results = exec.run(&spec);

    let views: [(&str, String); 4] = [
        (
            "wasted_work",
            format!("FW1: wasted work (fraction of cycles in aborted attempts, M={threads})"),
        ),
        (
            "repeat_conflicts_per_kcommit",
            format!("FW2: repeat conflicts per 1000 commits (M={threads})"),
        ),
        (
            "avg_committed_duration_us",
            format!("FW3: average committed-transaction duration (µs, M={threads})"),
        ),
        (
            "avg_response_time_us",
            format!("FW4: average response time (µs, first start → commit, M={threads})"),
        ),
    ];
    views
        .into_iter()
        .map(|(metric, title)| {
            project(
                &results,
                metric,
                Table::new(title, "benchmark", spec.managers.clone()),
                spec.workloads.iter().cloned(),
                |r| Some((r.workload.clone(), r.manager.clone())),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn future_work_tables_have_full_shape() {
        let dir = std::env::temp_dir().join(format!("wtm_fw_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut exec = Executor::new(&dir);
        let tables = future_work_tables(&Preset::smoke(), &mut exec);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.rows.len(), 4, "{}", t.title);
            assert_eq!(t.columns.len(), 5);
            for row in &t.cells {
                for v in row {
                    assert!(v.is_finite() && *v >= 0.0, "bad cell in {}", t.title);
                }
            }
        }
        // Response time can never be below committed duration.
        let d = &tables[2];
        let r = &tables[3];
        for i in 0..d.rows.len() {
            for c in 0..d.columns.len() {
                assert!(
                    r.cells[i][c] + 1e-9 >= d.cells[i][c],
                    "response < duration at {i},{c}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
