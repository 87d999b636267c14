//! Simulator-based theory tables (§II-C of the paper).
//!
//! Three artifacts:
//!
//! * **T1 — makespan scaling**: for complete-column windows
//!   (`C = M − 1`), the makespans of the window schedulers against the
//!   one-shot baseline and the theoretical reference
//!   `τ·(C + N·ln MN)` of Theorem 2.1. The *ratio* column should stay
//!   roughly flat as `N` grows — that is the "within poly-log of optimal"
//!   claim.
//! * **T2 — window vs one-shot**: the §I-B motivation. Sweeping `M` on
//!   clustered graphs, the window schedulers' makespan relative to the
//!   one-shot decomposition.
//! * **T3 — competitive ratio vs `s`**: resource-footprint graphs with a
//!   shrinking resource pool; reports makespan over the trivial lower
//!   bound `τ·max(N, clique)` (Theorems 2.2/2.4 predict growth roughly
//!   linear in `s`... bounded by `O(s + log MN)`).

use wtm_sim::build_sim_scheduler;
use wtm_sim::engine::{simulate, SimConfig, SimOutcome};
use wtm_sim::graph::ConflictGraph;

use crate::experiment::aggregate;
use crate::preset::Preset;
use crate::report::Table;

const TAU: u32 = 4;
const SEEDS: [u64; 3] = [11, 29, 47];

/// T1's columns: every registered scheduler, `Offline` first because the
/// bound ratio is taken against it.
const T1_SCHEDULERS: [&str; 8] = [
    "Offline",
    "Online",
    "Online-Dynamic",
    "Adaptive-Dynamic",
    "OneShot",
    "Greedy",
    "Polka",
    "RandomizedRounds",
];

/// Schedule `graph` with the registry scheduler `name` once per seed: the
/// one way T1–T4 turn a scheduler name into numbers.
pub(crate) fn sim_runs(
    graph: &ConflictGraph,
    cfg: &SimConfig,
    name: &str,
    seeds: &[u64],
) -> Vec<SimOutcome> {
    seeds
        .iter()
        .map(|&seed| {
            let mut s = build_sim_scheduler(name, cfg, graph, seed)
                .expect("the theory tables name registered schedulers");
            let out = simulate(graph, cfg, s.as_mut());
            assert!(out.all_committed, "{name} did not finish");
            out
        })
        .collect()
}

/// The mean of `read` over `runs`, through [`aggregate`] as in every
/// results cell.
pub(crate) fn mean(runs: &[SimOutcome], read: fn(&SimOutcome) -> f64) -> f64 {
    aggregate(&runs.iter().map(read).collect::<Vec<_>>()).mean
}

/// The mean makespan of [`sim_runs`].
fn mean_makespan(graph: &ConflictGraph, cfg: &SimConfig, name: &str, seeds: &[u64]) -> f64 {
    mean(&sim_runs(graph, cfg, name, seeds), |o| o.makespan as f64)
}

/// T1: makespan vs `N` on complete columns; plus the Theorem 2.1 reference
/// and the Offline/reference ratio.
pub fn t1_makespan_scaling(preset: &Preset) -> Table {
    let m = preset.sim_m;
    let n_sweep: Vec<usize> = [
        preset.sim_n / 4,
        preset.sim_n / 2,
        preset.sim_n,
        2 * preset.sim_n,
    ]
    .into_iter()
    .filter(|&n| n >= 2)
    .collect();
    let mut cols: Vec<String> = T1_SCHEDULERS.iter().map(|s| s.to_string()).collect();
    cols.push("bound τ(C+N·lnMN)".into());
    cols.push("Offline/bound".into());
    let mut t = Table::new(
        format!("T1: makespan vs N (complete columns, M={m}, tau={TAU})"),
        "N",
        cols,
    );
    for n in n_sweep {
        let graph = ConflictGraph::complete_columns(m, n);
        let cfg = SimConfig::new(m, n, TAU);
        let mut row: Vec<f64> = T1_SCHEDULERS
            .iter()
            .map(|name| mean_makespan(&graph, &cfg, name, &SEEDS))
            .collect();
        let c = graph.contention() as f64;
        let bound = TAU as f64 * (c + n as f64 * cfg.ln_mn());
        let offline = row[0];
        row.push(bound);
        row.push(offline / bound);
        t.push_row(n.to_string(), row);
    }
    t
}

/// T2: window vs one-shot makespan ratio across `M` (clustered graphs —
/// the regime of §I-B where windows shine).
pub fn t2_window_vs_oneshot(preset: &Preset) -> Table {
    let n = preset.sim_n;
    let m_sweep: Vec<usize> = [2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&m| m <= preset.sim_m.max(8))
        .collect();
    let versus = ["Offline", "Online-Dynamic", "Adaptive-Dynamic", "Greedy"];
    let mut cols = vec!["OneShot".to_string()];
    cols.extend(versus.iter().map(|name| format!("{name}/OneShot")));
    let mut t = Table::new(
        format!("T2: makespan relative to one-shot (clustered conflicts, N={n}, tau={TAU})"),
        "M",
        cols,
    );
    for m in m_sweep {
        let graph = ConflictGraph::clustered(m, n, 0.9, 0.05, 1234 + m as u64);
        let cfg = SimConfig::new(m, n, TAU);
        let makespan = |name| mean_makespan(&graph, &cfg, name, &SEEDS);
        let one = makespan("OneShot");
        let mut row = vec![one];
        row.extend(versus.iter().map(|name| makespan(name) / one));
        t.push_row(m.to_string(), row);
    }
    t
}

/// T3: makespan over the trivial lower bound as the resource pool
/// shrinks (competitive-ratio shape, Theorems 2.2/2.4).
pub fn t3_competitive_vs_s(preset: &Preset) -> Table {
    let m = preset.sim_m.min(16);
    let n = preset.sim_n.min(24);
    let versus = ["Offline", "Online-Dynamic", "OneShot"];
    let mut cols = vec!["C (max conflicts)".to_string()];
    cols.extend(versus.iter().map(|name| format!("{name}/LB")));
    let mut t = Table::new(
        format!("T3: makespan / lower bound vs shared resources s (M={m}, N={n}, tau={TAU})"),
        "s",
        cols,
    );
    for s_resources in [4usize, 16, 64, 256] {
        let graph = ConflictGraph::from_resources(m, n, s_resources, 4, 0.5, 777);
        let cfg = SimConfig::new(m, n, TAU);
        let lb = (TAU as f64) * (n.max(graph.column_clique_bound()) as f64);
        let mut row = vec![graph.contention() as f64];
        row.extend(
            versus
                .iter()
                .map(|name| mean_makespan(&graph, &cfg, name, &SEEDS) / lb),
        );
        t.push_row(s_resources.to_string(), row);
    }
    t
}

/// All theory tables.
pub fn makespan_tables(preset: &Preset) -> Vec<Table> {
    vec![
        t1_makespan_scaling(preset),
        t2_window_vs_oneshot(preset),
        t3_competitive_vs_s(preset),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_rows_and_bound_ratio_sane() {
        let t = t1_makespan_scaling(&Preset::smoke());
        assert!(!t.rows.is_empty());
        for r in 0..t.rows.len() {
            let ratio = t.get(r, "Offline/bound").unwrap();
            assert!(
                ratio > 0.0 && ratio < 10.0,
                "Offline should sit within a small constant of the bound, got {ratio}"
            );
        }
    }

    #[test]
    fn t1_covers_the_scheduler_registry() {
        let mut ours = T1_SCHEDULERS.to_vec();
        let mut registry = wtm_sim::SIM_SCHEDULER_NAMES.to_vec();
        ours.sort_unstable();
        registry.sort_unstable();
        assert_eq!(ours, registry);
    }

    #[test]
    fn t2_ratios_positive() {
        let t = t2_window_vs_oneshot(&Preset::smoke());
        for row in &t.cells {
            for v in row {
                assert!(*v > 0.0);
            }
        }
    }

    #[test]
    fn t3_lower_bound_respected() {
        let t = t3_competitive_vs_s(&Preset::smoke());
        for r in 0..t.rows.len() {
            for col in ["Offline/LB", "Online-Dynamic/LB", "OneShot/LB"] {
                let v = t.get(r, col).unwrap();
                assert!(v >= 0.99, "{col} below the lower bound: {v}");
            }
        }
    }
}
