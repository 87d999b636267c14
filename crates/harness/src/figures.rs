//! Figs. 2–5 as declarative experiment specs.
//!
//! Each figure is now ~20 lines: a grid declaration handed to the shared
//! [`Executor`] (which owns repetition, aggregation, progress, and
//! resume) plus a projection of the returned cells into report tables.

use wtm_workloads::{paper_workload_names, ContentionLevel};

use crate::experiment::{project, CellResult, Executor, ExperimentSpec};
use crate::managers::{comparison_manager_names, window_manager_names};
use crate::preset::Preset;
use crate::report::Table;
use crate::runner::StopRule;

/// Project a thread-sweep spec into one table per workload: rows =
/// thread counts, columns = managers, cells = `metric` mean ± sd.
pub fn sweep_tables(
    spec: &ExperimentSpec,
    results: &[CellResult],
    metric: &str,
    title: impl Fn(&str) -> String,
) -> Vec<Table> {
    spec.workloads
        .iter()
        .map(|w| {
            project(
                results,
                metric,
                Table::new(title(w), "threads", spec.managers.clone()),
                spec.threads.iter().map(usize::to_string),
                |r| (r.workload == *w).then(|| (r.threads.to_string(), r.manager.clone())),
            )
        })
        .collect()
}

/// Fig. 2 — throughput (commits/s) of the five window variants across the
/// thread sweep, one table per benchmark.
pub fn fig2(preset: &Preset, exec: &mut Executor) -> Vec<Table> {
    let spec = ExperimentSpec::from_preset(
        "fig2",
        preset,
        paper_workload_names(),
        window_manager_names(),
    );
    let results = exec.run(&spec);
    sweep_tables(&spec, &results, "throughput", |w| {
        format!("Fig 2: window-variant throughput — {w}")
    })
}

/// Figs. 3 and 4 — the best window variants vs Polka/Greedy/Priority.
/// Both figures come from the *same* runs (the paper measures throughput
/// and aborts-per-commit of one experiment), so this driver returns both:
/// `(fig3 throughput tables, fig4 aborts-per-commit tables)`.
pub fn fig34(preset: &Preset, exec: &mut Executor) -> (Vec<Table>, Vec<Table>) {
    let spec = ExperimentSpec::from_preset(
        "fig34",
        preset,
        paper_workload_names(),
        comparison_manager_names(),
    );
    let results = exec.run(&spec);
    let f3 = sweep_tables(&spec, &results, "throughput", |w| {
        format!("Fig 3: window vs classic throughput — {w}")
    });
    let f4 = sweep_tables(&spec, &results, "aborts_per_commit", |w| {
        format!("Fig 4: aborts per commit — {w}")
    });
    (f3, f4)
}

/// Fig. 5 — total time (seconds) to commit the transaction budget at 32
/// threads under Low/Medium/High contention, one table per benchmark.
pub fn fig5(preset: &Preset, exec: &mut Executor) -> Vec<Table> {
    let levels = ContentionLevel::all();
    let spec = ExperimentSpec {
        stop: StopRule::Budget(preset.budget),
        threads: vec![preset.fig5_threads],
        update_pcts: levels.iter().map(|l| l.update_pct()).collect(),
        ..ExperimentSpec::from_preset(
            "fig5",
            preset,
            paper_workload_names(),
            comparison_manager_names(),
        )
    };
    let results = exec.run(&spec);
    spec.workloads
        .iter()
        .map(|w| {
            let title = format!(
                "Fig 5: seconds to commit {} txns ({} threads) — {w}",
                preset.budget, preset.fig5_threads
            );
            project(
                &results,
                "total_time_s",
                Table::new(title, "contention", spec.managers.clone()),
                levels.iter().map(|l| l.name()),
                |r| {
                    let level = levels.iter().find(|l| l.update_pct() == r.update_pct)?;
                    (r.workload == *w).then(|| (level.name().to_string(), r.manager.clone()))
                },
            )
        })
        .collect()
}

/// Quick textual shape-check of Fig. 3-style tables: for each benchmark,
/// the throughput ratio of the best window variant over each classic
/// manager at the largest thread count. These are the numbers §III-B
/// quotes ("2–4 fold in List", "comparable to Polka", …).
pub fn fig3_ratios(tables: &[Table]) -> Table {
    let mut out = Table::new(
        "Fig 3 shape check: best-window / classic throughput at max threads",
        "benchmark",
        vec!["vs Polka".into(), "vs Greedy".into(), "vs Priority".into()],
    );
    for t in tables {
        let last = t.rows.len().saturating_sub(1);
        let window_best = ["Online-Dynamic", "Adaptive-Improved-Dynamic"]
            .iter()
            .filter_map(|m| t.get(last, m))
            .fold(f64::NAN, f64::max);
        let ratio = |name: &str| {
            let v = t.get(last, name).unwrap_or(f64::NAN);
            if v > 0.0 {
                window_best / v
            } else {
                f64::NAN
            }
        };
        let bench = t.title.rsplit("— ").next().unwrap_or(&t.title).to_string();
        out.push_row(
            bench,
            vec![ratio("Polka"), ratio("Greedy"), ratio("Priority")],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_exec(tag: &str) -> (std::path::PathBuf, Executor) {
        let dir = std::env::temp_dir().join(format!("wtm_fig_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let exec = Executor::new(&dir);
        (dir, exec)
    }

    #[test]
    fn fig2_smoke_produces_full_tables() {
        let p = Preset::smoke();
        let (dir, mut exec) = temp_exec("fig2");
        let tables = fig2(&p, &mut exec);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.columns.len(), 5, "five window variants");
            assert_eq!(t.rows.len(), p.thread_counts.len());
            assert_eq!(t.sds.len(), t.rows.len(), "variance column present");
            assert!(
                t.cells.iter().flatten().all(|v| *v >= 0.0),
                "throughput is non-negative"
            );
            assert!(
                t.cells.iter().flatten().any(|v| *v > 0.0),
                "something must commit: {}",
                t.render()
            );
        }
        // The engine checkpointed every cell.
        assert!(dir.join("results.json").is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig34_returns_paired_tables() {
        let mut p = Preset::smoke();
        p.thread_counts = vec![2];
        let (dir, mut exec) = temp_exec("fig34");
        let (f3, f4) = fig34(&p, &mut exec);
        assert_eq!(f3.len(), 4);
        assert_eq!(f4.len(), 4);
        assert!(f3[0].title.contains("Fig 3"));
        assert!(f4[0].title.contains("Fig 4"));
        let ratios = fig3_ratios(&f3);
        assert_eq!(ratios.rows.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fig3_ratios_surface_missing_baselines_as_na() {
        // Synthetic Fig 3 table with a zero Polka column and no Priority
        // column at all: those ratios are undefined and must surface as
        // "n/a" in reports, never as NaN.
        let mut t = Table::new(
            "Fig 3: synthetic — List",
            "threads",
            vec!["Online-Dynamic".into(), "Polka".into(), "Greedy".into()],
        );
        t.push_row("8", vec![1000.0, 0.0, 500.0]);
        let ratios = fig3_ratios(&[t]);
        assert_eq!(ratios.get(0, "vs Greedy"), Some(2.0));
        assert!(ratios.get(0, "vs Polka").unwrap().is_nan());
        assert!(ratios.get(0, "vs Priority").unwrap().is_nan());
        let rendered = ratios.render();
        assert!(!rendered.contains("NaN"), "{rendered}");
        assert!(rendered.contains("n/a"), "{rendered}");
        let csv = ratios.to_csv();
        assert!(!csv.contains("NaN"), "{csv}");
    }

    #[test]
    fn fig5_smoke_produces_times() {
        let mut p = Preset::smoke();
        p.budget = 80;
        let (dir, mut exec) = temp_exec("fig5");
        let tables = fig5(&p, &mut exec);
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert_eq!(t.rows, vec!["Low", "Medium", "High"]);
            assert!(t.cells.iter().flatten().all(|v| *v > 0.0));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
