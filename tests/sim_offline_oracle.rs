//! The Offline scheduler's slot plan and the greedy coloring, checked
//! against the implementations they replaced. The oracles below are the
//! first versions, kept verbatim in spirit: colors in a `HashMap`, the
//! independent-set extension through `plan.contains` and
//! `ConflictGraph::conflicts`, and a per-call `issued.contains` filter.
//! The scheduler's transaction-indexed masks must agree with them on every
//! color class, every slot plan and every `select`.

use std::collections::HashMap;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use windowtm::sim::coloring::greedy_coloring;
use windowtm::sim::engine::{simulate, SimConfig};
use windowtm::sim::graph::{ConflictGraph, TxnId};
use windowtm::sim::sched::{OfflineWindowScheduler, SimScheduler};

/// Greedy coloring (largest degree first) with the colors in a hash map.
fn oracle_coloring(graph: &ConflictGraph, nodes: &[TxnId]) -> Vec<Vec<TxnId>> {
    if nodes.is_empty() {
        return Vec::new();
    }
    let mut order: Vec<TxnId> = nodes.to_vec();
    order.sort_unstable_by_key(|&t| std::cmp::Reverse(graph.degree(t)));
    let mut color: HashMap<TxnId, usize> = HashMap::new();
    let mut classes: Vec<Vec<TxnId>> = Vec::new();
    for &t in &order {
        let mut used = vec![false; classes.len()];
        for &nb in graph.neighbors(t) {
            if let Some(&c) = color.get(&nb) {
                used[c] = true;
            }
        }
        let c = used.iter().position(|&u| !u).unwrap_or(classes.len());
        if c == classes.len() {
            classes.push(Vec::new());
        }
        classes[c].push(t);
        color.insert(t, c);
    }
    classes.sort_by_key(|c| std::cmp::Reverse(c.len()));
    classes
}

/// Offline as first written: plan by scans, filter by `contains`.
struct OracleOffline {
    tau: u64,
    phi_steps: u64,
    assigned: Vec<u64>,
    slot_plan: Vec<TxnId>,
    plan_slot: u64,
}

impl OracleOffline {
    /// Frames assigned from the same draws `OfflineWindowScheduler::new`
    /// makes.
    fn new(cfg: &SimConfig, graph: &ConflictGraph, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0FF11E);
        let ln_mn = cfg.ln_mn();
        let mut assigned = vec![0u64; cfg.m * cfg.n];
        for i in 0..cfg.m {
            let c = graph.contention_of_thread(i).max(1) as f64;
            let alpha = ((c / ln_mn).ceil() as u64).clamp(1, cfg.n as u64);
            let q = rng.random_range(0..alpha);
            for j in 0..cfg.n {
                assigned[i * cfg.n + j] = q + j as u64;
            }
        }
        OracleOffline {
            tau: cfg.tau as u64,
            phi_steps: cfg.phi_steps(),
            assigned,
            slot_plan: Vec::new(),
            plan_slot: u64::MAX,
        }
    }

    /// The selection, and whether this call planned a new slot.
    fn select(&mut self, step: u64, issued: &[TxnId], graph: &ConflictGraph) -> (Vec<TxnId>, bool) {
        let slot = step / self.tau;
        let planned = slot != self.plan_slot;
        if planned {
            self.plan_slot = slot;
            let cur_frame = step / self.phi_steps;
            let high: Vec<TxnId> = issued
                .iter()
                .copied()
                .filter(|&t| self.assigned[t as usize] <= cur_frame)
                .collect();
            let classes = oracle_coloring(graph, &high);
            let mut plan: Vec<TxnId> = classes.into_iter().next().unwrap_or_default();
            for &t in issued {
                if !plan.contains(&t) && plan.iter().all(|&p| !graph.conflicts(t, p)) {
                    plan.push(t);
                }
            }
            self.slot_plan = plan;
        }
        let selected = self
            .slot_plan
            .iter()
            .copied()
            .filter(|t| issued.contains(t))
            .collect();
        (selected, planned)
    }
}

impl SimScheduler for OracleOffline {
    fn select(&mut self, step: u64, issued: &mut Vec<TxnId>, graph: &ConflictGraph) {
        *issued = OracleOffline::select(self, step, issued, graph).0;
    }

    fn priority(&self, _step: u64, t: TxnId) -> u128 {
        t as u128
    }
}

/// One graph of each generator the scenarios use.
fn graph_of(kind: u32, m: usize, n: usize, p: f64, seed: u64) -> ConflictGraph {
    match kind {
        0 => ConflictGraph::per_column_random(m, n, p, seed),
        1 => ConflictGraph::clustered(m, n, p, p / 8.0, seed),
        _ => ConflictGraph::from_resources(m, n, 4 + (seed % 60) as usize, 3, p, seed),
    }
}

/// A random subset of the graph's transactions, in id order.
fn subset(rng: &mut SmallRng, g: &ConflictGraph, keep: f64) -> Vec<TxnId> {
    (0..g.len() as TxnId)
        .filter(|_| rng.random_bool(keep))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn coloring_classes_match_the_hash_map_oracle(
        kind in 0u32..3,
        m in 2usize..24,
        n in 1usize..12,
        p in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let g = graph_of(kind, m, n, p, seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for keep in [1.0, 0.7, 0.3] {
            let nodes = subset(&mut rng, &g, keep);
            prop_assert_eq!(greedy_coloring(&g, &nodes), oracle_coloring(&g, &nodes));
        }
    }

    #[test]
    fn offline_plans_and_selections_match_the_scan_oracle(
        kind in 0u32..3,
        m in 2usize..24,
        n in 2usize..12,
        tau in 1u32..4,
        p in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let g = graph_of(kind, m, n, p, seed);
        let cfg = SimConfig::new(m, n, tau);
        let mut offline = OfflineWindowScheduler::new(&cfg, &g, seed);
        let mut oracle = OracleOffline::new(&cfg, &g, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA11CE);
        // Threads issue their next transaction when up; some of what runs
        // commits; steps advance by 0 to 3, so a slot sees several calls
        // with different issued sets, and some slots are skipped.
        let mut next_j = vec![0usize; m];
        let mut step = 0u64;
        for _ in 0..4 * n * tau as usize {
            let issued: Vec<TxnId> = (0..m)
                .filter(|&i| next_j[i] < n && rng.random_bool(0.85))
                .map(|i| g.id(i, next_j[i]))
                .collect();
            let (expected, planned) = oracle.select(step, &issued, &g);
            let mut selected = issued.clone();
            offline.select(step, &mut selected, &g);
            prop_assert_eq!(&selected, &expected, "step {}", step);
            if planned {
                // The planning call's issued set holds the whole plan.
                prop_assert_eq!(&selected, &oracle.slot_plan);
            }
            for &t in &selected {
                if rng.random_bool(0.4) {
                    next_j[g.coords(t).0] += 1;
                }
            }
            step += rng.random_range(0..4u64);
        }
    }

    #[test]
    fn offline_runs_as_the_scan_oracle_runs(
        kind in 0u32..3,
        m in 2usize..16,
        n in 2usize..10,
        p in 0.0f64..1.0,
        seed in 0u64..10_000,
    ) {
        let g = graph_of(kind, m, n, p, seed);
        let cfg = SimConfig::new(m, n, 2);
        let fast = simulate(&g, &cfg, &mut OfflineWindowScheduler::new(&cfg, &g, seed));
        let slow = simulate(&g, &cfg, &mut OracleOffline::new(&cfg, &g, seed));
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast.aborts, 0);
    }
}
