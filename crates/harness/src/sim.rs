//! The `windowtm sim` driver: discrete-event scenarios through the
//! experiment engine.
//!
//! One declarative [`ExperimentSpec`] sweeps the sim-scenario registry
//! (paper-shaped windows plus the beyond-paper distributed ones) against
//! a latency grid (`zero` / `fixed:1` / `fixed:4`) for every sim
//! scheduler. Cells run through the shared [`Executor`], so sim results
//! land in the same `results.json` as the STM figures — network model
//! and scenario are part of cell identity, and resume is byte-identical.
//!
//! Reported tables:
//!
//! * per scenario — makespan (virtual steps) and aborts per commit,
//!   rows = schedulers, columns = network models;
//! * the latency-degradation summary — `makespan(net) / makespan(zero)`
//!   on the paper's fig2-shape window, the headline number for how much
//!   a window CM's guarantees erode when the verdict is no longer
//!   instantaneous.

use crate::experiment::{project, CellResult, Executor, ExperimentSpec, SimAxes};
use crate::preset::Preset;
use crate::report::Table;

/// Network sweep every sim cell runs under: the paper's instantaneous
/// verdict, then 1- and 4-step verdict delivery.
pub const SIM_NETS: &[&str] = &["zero", "fixed:1", "fixed:4"];

/// Transaction duration τ used by the sim sweep (matches the
/// determinism-gate fixtures).
pub const SIM_TAU: u32 = 2;

/// Scenario specs swept by `windowtm sim`: every registry entry, with
/// the distributed ones pinned to small parameterizations that stay
/// meaningful at smoke scale.
pub fn sim_scenario_specs() -> Vec<String> {
    vec![
        "fig2-shape".into(),
        "clustered".into(),
        "distributed@nodes=4,skew=1".into(),
        "replicated@nodes=2".into(),
        "crash-recovery@nodes=2,node=1,at=8,down=16".into(),
    ]
}

/// The sim grid: `scenarios × nets × {preset.sim_m} × schedulers`. A sim
/// cell's key holds neither the stop rule nor the engine, so the preset's
/// are carried but never read.
pub fn sim_spec(preset: &Preset) -> ExperimentSpec {
    ExperimentSpec {
        threads: vec![preset.sim_m],
        window_n: preset.sim_n,
        sim: Some(SimAxes {
            scenarios: sim_scenario_specs(),
            nets: SIM_NETS.iter().map(|n| n.to_string()).collect(),
            tau: SIM_TAU,
        }),
        ..ExperimentSpec::from_preset(
            "sim",
            preset,
            Vec::<String>::new(),
            wtm_sim::SIM_SCHEDULER_NAMES.iter().copied(),
        )
    }
}

/// Project one metric of one scenario: rows = schedulers, columns = nets.
fn scenario_table(
    spec: &ExperimentSpec,
    results: &[CellResult],
    scenario: &str,
    metric: &str,
    title: String,
) -> Table {
    let nets = SIM_NETS.iter().map(|n| n.to_string()).collect();
    project(
        results,
        metric,
        Table::new(title, "scheduler", nets),
        spec.managers.iter().cloned(),
        |r| match &r.net {
            Some(net) if r.workload == scenario => Some((r.manager.clone(), net.clone())),
            _ => None,
        },
    )
}

/// Run the sim sweep and render every table.
pub fn sim_tables(preset: &Preset, exec: &mut Executor) -> Vec<Table> {
    let spec = sim_spec(preset);
    let results = exec.run(&spec);
    render_tables(preset, &spec, &results)
}

/// Every sim table of `results`. A row holding a cell whose runs did not
/// all commit within the simulator's step bound is labelled
/// `(truncated)`, in the degradation table too.
fn render_tables(preset: &Preset, spec: &ExperimentSpec, results: &[CellResult]) -> Vec<Table> {
    let (m, n) = (preset.sim_m, preset.sim_n);

    let mut tables = Vec::new();
    for scenario in sim_scenario_specs() {
        tables.push(scenario_table(
            spec,
            results,
            &scenario,
            "makespan",
            format!("Sim makespan (steps) vs verdict latency — {scenario} (M={m}, N={n}, tau={SIM_TAU})"),
        ));
        tables.push(scenario_table(
            spec,
            results,
            &scenario,
            "aborts_per_commit",
            format!("Sim aborts per commit vs verdict latency — {scenario} (M={m}, N={n}, tau={SIM_TAU})"),
        ));
    }

    // The headline summary: how much each scheduler's makespan degrades on
    // the paper's own window shape when the verdict takes 1 or 4 steps.
    let makespan = scenario_table(spec, results, "fig2-shape", "makespan", String::new());
    let mut deg = Table::new(
        format!("Sim latency degradation: makespan(net)/makespan(zero) — fig2-shape (M={m}, N={n}, tau={SIM_TAU})"),
        "scheduler",
        makespan.columns[1..].to_vec(),
    );
    for (sched, row) in makespan.rows.iter().zip(&makespan.cells) {
        deg.push_row(sched.clone(), row[1..].iter().map(|v| v / row[0]).collect());
    }
    tables.push(deg);
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_smoke_produces_full_tables() {
        let p = Preset::smoke();
        let dir = std::env::temp_dir().join(format!("wtm_sim_tables_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut exec = Executor::new(&dir);
        let tables = sim_tables(&p, &mut exec);
        // Two tables per scenario plus the degradation summary.
        assert_eq!(tables.len(), sim_scenario_specs().len() * 2 + 1);
        for t in &tables[..tables.len() - 1] {
            assert_eq!(t.columns.len(), SIM_NETS.len());
            assert_eq!(t.rows.len(), wtm_sim::SIM_SCHEDULER_NAMES.len());
        }
        // Makespan tables are strictly positive and finite.
        assert!(
            tables[0]
                .cells
                .iter()
                .flatten()
                .all(|v| v.is_finite() && *v > 0.0),
            "{}",
            tables[0].render()
        );
        // Degradation ratios are well-defined. (They are not necessarily
        // >= 1: a delayed verdict lets the loser keep executing, which can
        // accidentally help abort-happy schedulers like OneShot.)
        let deg = tables.last().unwrap();
        assert_eq!(deg.columns, vec!["fixed:1", "fixed:4"]);
        for (r, row) in deg.cells.iter().enumerate() {
            for v in row {
                assert!(v.is_finite() && *v > 0.0, "{}: bad ratio {v}", deg.rows[r]);
            }
        }
        // Everything was checkpointed with v3 sim keys.
        let json = std::fs::read_to_string(dir.join("results.json")).unwrap();
        assert!(
            json.contains("\"net\": \"fixed:4\""),
            "net field serialized"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_row_holding_a_cell_that_did_not_all_commit_is_labelled_truncated() {
        let p = Preset::smoke();
        let dir = std::env::temp_dir().join(format!("wtm_sim_truncated_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = sim_spec(&p);
        let mut results = Executor::new(&dir).run(&spec);
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            results.iter().all(|r| !r.truncated),
            "smoke cells all commit"
        );
        let cut = results
            .iter_mut()
            .find(|r| {
                r.workload == "fig2-shape"
                    && r.manager == "Greedy"
                    && r.net.as_deref() == Some("fixed:4")
            })
            .unwrap();
        cut.truncated = true;
        let tables = render_tables(&p, &spec, &results);
        let labelled = |t: &Table| -> Vec<String> {
            t.rows
                .iter()
                .filter(|r| r.contains("truncated"))
                .cloned()
                .collect()
        };
        // fig2-shape's makespan and aborts tables, and the degradation
        // table built from its makespans: that row alone.
        for t in [&tables[0], &tables[1], tables.last().unwrap()] {
            assert_eq!(labelled(t), ["Greedy (truncated)"], "{}", t.title);
        }
        for t in &tables[2..tables.len() - 1] {
            assert!(labelled(t).is_empty(), "{}", t.title);
        }
    }
}
