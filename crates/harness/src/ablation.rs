//! Ablations of the window-manager design choices (DESIGN.md §3).
//!
//! The paper motivates several knobs without sweeping them; these tables
//! quantify each one:
//!
//! * **A1 — frame factor**: the constant `c` in `Φ = c·ln(MN)` trades
//!   randomization spread against dead frame time.
//! * **A2 — window width `N`**: a longer window amortizes the barrier and
//!   randomization overhead over more transactions (the SkipList overhead
//!   of Fig. 5 shrinks as `N` grows).
//! * **A3 — dynamic contraction**: static vs dynamic frames, isolating
//!   §III-B's claim that "dynamic variants always perform better".
//! * **A4 — contention estimate `C`**: what the Online variants lose when
//!   the configured `C` is wrong by ×¼ … ×16.
//!
//! Every sweep is a plain [`ExperimentSpec`] over *parameterized manager
//! names* (`Online-Dynamic@phi=2,n=16` — see [`crate::managers`]): the
//! ablations ride the same executor, checkpointing, and variance
//! aggregation as the paper figures, instead of the bespoke hand-tuned
//! run loop this module used to carry.

use crate::experiment::{project, Executor, ExperimentSpec};
use crate::preset::Preset;
use crate::report::Table;

/// An ablation grid: `managers` on `workloads` at the preset's top
/// thread count.
fn spec_for(
    id: &str,
    preset: &Preset,
    workloads: &[&str],
    managers: Vec<String>,
) -> ExperimentSpec {
    ExperimentSpec {
        threads: vec![preset.max_threads()],
        ..ExperimentSpec::from_preset(id, preset, workloads.iter().copied(), managers)
    }
}

/// One-column sweep table: each manager variant becomes a row.
fn column_sweep(
    exec: &mut Executor,
    spec: &ExperimentSpec,
    title: String,
    row_key: &str,
    labels: &[String],
) -> Table {
    let results = exec.run(spec);
    project(
        &results,
        "throughput",
        Table::new(title, row_key, vec!["txn/s".into()]),
        labels.iter().cloned(),
        |r| {
            let i = spec.managers.iter().position(|m| *m == r.manager)?;
            Some((labels[i].clone(), "txn/s".into()))
        },
    )
}

/// A1: throughput vs the frame factor `c` (List, Online-Dynamic; N = 16
/// keeps the sweep comparable to the historical capture).
pub fn a1_frame_factor(preset: &Preset, exec: &mut Executor) -> Table {
    let threads = preset.max_threads();
    let phis = [0.5, 1.0, 2.0, 4.0, 8.0];
    let spec = spec_for(
        "a1",
        preset,
        &["List"],
        phis.iter()
            .map(|phi| format!("Online-Dynamic@phi={phi},n=16"))
            .collect(),
    );
    let labels: Vec<String> = phis.iter().map(|p| p.to_string()).collect();
    column_sweep(
        exec,
        &spec,
        format!("A1: throughput vs frame factor c (List, Online-Dynamic, M={threads})"),
        "phi_factor",
        &labels,
    )
}

/// A2: throughput vs window width `N` (SkipList — where the per-window
/// overhead is most visible).
pub fn a2_window_width(preset: &Preset, exec: &mut Executor) -> Table {
    let threads = preset.max_threads();
    let widths = [4usize, 16, 50, 200];
    let spec = spec_for(
        "a2",
        preset,
        &["SkipList"],
        widths
            .iter()
            .map(|n| format!("Adaptive-Improved-Dynamic@n={n}"))
            .collect(),
    );
    let labels: Vec<String> = widths.iter().map(|n| n.to_string()).collect();
    column_sweep(
        exec,
        &spec,
        format!(
            "A2: throughput vs window width N (SkipList, Adaptive-Improved-Dynamic, M={threads})"
        ),
        "N",
        &labels,
    )
}

/// A3: static vs dynamic frames across benchmarks (§III-B's claim).
pub fn a3_dynamic_vs_static(preset: &Preset, exec: &mut Executor) -> Table {
    let spec = spec_for(
        "a3",
        preset,
        &["List", "RBTree", "SkipList"],
        vec!["Online".into(), "Online-Dynamic".into()],
    );
    let thr = project(
        &exec.run(&spec),
        "throughput",
        Table::new("", "", spec.managers.clone()),
        spec.workloads.iter().cloned(),
        |r| Some((r.workload.clone(), r.manager.clone())),
    );
    let mut columns = spec.managers.clone();
    columns.push("dynamic/static".into());
    let mut t = Table::new(
        format!(
            "A3: dynamic vs static frames, throughput (M={})",
            preset.max_threads()
        ),
        "benchmark",
        columns,
    );
    for (workload, row) in thr.rows.iter().zip(&thr.cells) {
        let (stat, dynamic) = (row[0], row[1]);
        let ratio = if stat > 0.0 { dynamic / stat } else { f64::NAN };
        t.push_row(workload.clone(), vec![stat, dynamic, ratio]);
    }
    t
}

/// A4: Online sensitivity to a mis-configured contention estimate.
pub fn a4_c_sensitivity(preset: &Preset, exec: &mut Executor) -> Table {
    let threads = preset.max_threads();
    let base_c = threads as f64;
    let mults = [0.25, 1.0, 4.0, 16.0];
    let spec = spec_for(
        "a4",
        preset,
        &["List"],
        mults
            .iter()
            .map(|mult| format!("Online-Dynamic@c={},n=16", base_c * mult))
            .collect(),
    );
    let labels: Vec<String> = mults.iter().map(|m| format!("{m}×")).collect();
    column_sweep(
        exec,
        &spec,
        format!(
            "A4: throughput vs configured C (List, Online-Dynamic, M={threads}, true C≈{base_c})"
        ),
        "C multiplier",
        &labels,
    )
}

/// All ablation tables.
pub fn ablation_tables(preset: &Preset, exec: &mut Executor) -> Vec<Table> {
    vec![
        a1_frame_factor(preset, exec),
        a2_window_width(preset, exec),
        a3_dynamic_vs_static(preset, exec),
        a4_c_sensitivity(preset, exec),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_produce_positive_throughput() {
        let dir = std::env::temp_dir().join(format!("wtm_abl_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut exec = Executor::new(&dir);
        let p = Preset::smoke();
        for table in ablation_tables(&p, &mut exec) {
            for row in &table.cells {
                assert!(row[0] > 0.0, "dead cell in {}", table.title);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
