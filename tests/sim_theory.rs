//! Simulator-level validation of the paper's theory claims (§II-C):
//! completion under arbitrary graphs, the Offline algorithm's
//! conflict-freedom, makespan lower bounds, and — the headline — the
//! Theorem 2.1/2.3 scaling shapes.

use proptest::prelude::*;

use windowtm::sim::build_sim_scheduler;
use windowtm::sim::engine::{simulate, SimConfig, SimOutcome};
use windowtm::sim::graph::ConflictGraph;
use windowtm::sim::sched::{
    FreeRandomizedScheduler, GreedyTimestampScheduler, OfflineWindowScheduler, OneShotScheduler,
    OnlineWindowScheduler, SimScheduler, WindowMode,
};

/// Simulate and assert the run finished; a failure points at the caller.
#[track_caller]
fn run(graph: &ConflictGraph, cfg: &SimConfig, s: &mut dyn SimScheduler) -> SimOutcome {
    let out = simulate(graph, cfg, s);
    assert!(out.all_committed, "the scheduler must finish");
    out
}

#[test]
fn offline_makespan_within_theorem_bound_constant() {
    // Theorem 2.1: makespan = O(τ·(C + N·log MN)) w.h.p. Check that the
    // ratio makespan / (τ·(C + N·ln MN)) stays below a small constant
    // across very different contention regimes.
    for (m, n, p) in [(8, 16, 1.0), (16, 24, 0.5), (32, 16, 0.25), (4, 40, 1.0)] {
        let graph = ConflictGraph::per_column_random(m, n, p, 42);
        let cfg = SimConfig::new(m, n, 3);
        let out = run(
            &graph,
            &cfg,
            &mut OfflineWindowScheduler::new(&cfg, &graph, 1),
        );
        let bound = cfg.tau as f64 * (graph.contention() as f64 + n as f64 * cfg.ln_mn());
        let ratio = out.makespan as f64 / bound;
        assert!(
            ratio < 3.0,
            "Offline ratio {ratio:.2} too large for M={m} N={n} p={p} (makespan {} bound {bound:.0})",
            out.makespan
        );
    }
}

#[test]
fn online_makespan_within_theorem_bound_constant() {
    // Theorem 2.3: makespan = O(τ·(C·log MN + N·log² MN)) w.h.p.
    for (m, n, p) in [(8, 16, 1.0), (16, 24, 0.5), (32, 16, 0.25)] {
        let graph = ConflictGraph::per_column_random(m, n, p, 42);
        let cfg = SimConfig::new(m, n, 3);
        let out = run(
            &graph,
            &cfg,
            &mut OnlineWindowScheduler::new(&cfg, &graph, WindowMode::Static, 1),
        );
        let l = cfg.ln_mn();
        let bound = cfg.tau as f64 * (graph.contention() as f64 * l + n as f64 * l * l);
        let ratio = out.makespan as f64 / bound;
        assert!(
            ratio < 3.0,
            "Online ratio {ratio:.2} too large for M={m} N={n} p={p}"
        );
    }
}

#[test]
fn makespan_never_beats_the_sequential_floor() {
    // N·τ is a hard lower bound: each thread's N transactions serialize.
    let graph = ConflictGraph::per_column_random(6, 12, 0.7, 9);
    let cfg = SimConfig::new(6, 12, 5);
    let floor = 12 * 5;
    let outs = [
        run(&graph, &cfg, &mut OneShotScheduler::new(&cfg, 4)),
        run(&graph, &cfg, &mut FreeRandomizedScheduler::new(&cfg, 4)),
        run(&graph, &cfg, &mut GreedyTimestampScheduler::new(&cfg)),
        run(
            &graph,
            &cfg,
            &mut OfflineWindowScheduler::new(&cfg, &graph, 4),
        ),
        run(
            &graph,
            &cfg,
            &mut OnlineWindowScheduler::new(&cfg, &graph, WindowMode::Dynamic, 4),
        ),
    ];
    for o in outs {
        assert!(o.makespan >= floor);
    }
}

#[test]
fn window_improves_on_oneshot_in_motivating_regime() {
    // §I-B: dense same-column conflicts, none across columns — the random
    // shifts should (on average over seeds) beat the one-shot baseline by
    // a wide margin.
    let mut win_total = 0.0;
    let mut one_total = 0.0;
    for seed in 0..6 {
        let graph = ConflictGraph::complete_columns(12, 16);
        let cfg = SimConfig::new(12, 16, 2);
        let one = run(&graph, &cfg, &mut OneShotScheduler::new(&cfg, seed));
        let win = run(
            &graph,
            &cfg,
            &mut OnlineWindowScheduler::new(&cfg, &graph, WindowMode::Dynamic, seed),
        );
        one_total += one.makespan as f64;
        win_total += win.makespan as f64;
    }
    assert!(
        win_total * 2.0 < one_total,
        "window should be at least 2× faster than one-shot here (window {win_total}, one-shot {one_total})"
    );
}

#[test]
fn offline_produces_zero_aborts_always() {
    for seed in 0..5 {
        let graph = ConflictGraph::clustered(10, 10, 0.8, 0.1, seed);
        let cfg = SimConfig::new(10, 10, 2);
        let out = run(
            &graph,
            &cfg,
            &mut OfflineWindowScheduler::new(&cfg, &graph, seed),
        );
        assert_eq!(out.aborts, 0, "coloring schedules cannot conflict");
    }
}

#[test]
fn dynamic_contraction_never_hurts_online() {
    // Contraction removes dead frame time; across seeds it should be at
    // least as good as the static frames on average.
    let mut stat_total = 0.0;
    let mut dyn_total = 0.0;
    for seed in 0..8 {
        let graph = ConflictGraph::per_column_random(10, 16, 0.6, 100 + seed);
        let cfg = SimConfig::new(10, 16, 3);
        stat_total += run(
            &graph,
            &cfg,
            &mut OnlineWindowScheduler::new(&cfg, &graph, WindowMode::Static, seed),
        )
        .makespan as f64;
        dyn_total += run(
            &graph,
            &cfg,
            &mut OnlineWindowScheduler::new(&cfg, &graph, WindowMode::Dynamic, seed),
        )
        .makespan as f64;
    }
    assert!(
        dyn_total <= stat_total * 1.05,
        "dynamic {dyn_total} should not lose to static {stat_total}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_schedulers_complete_arbitrary_graphs(
        m in 2usize..8,
        n in 2usize..10,
        p in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let graph = ConflictGraph::per_column_random(m, n, p, seed);
        let cfg = SimConfig::new(m, n, 2);
        for name in [
            "RandomizedRounds",
            "OneShot",
            "Greedy",
            "Online",
            "Online-Dynamic",
            "Adaptive-Dynamic",
            "Offline",
        ] {
            let mut s = build_sim_scheduler(name, &cfg, &graph, seed).unwrap();
            let out = simulate(&graph, &cfg, s.as_mut());
            prop_assert!(out.all_committed, "{name} stuck on M={m} N={n} p={p}");
            prop_assert!(out.makespan >= (n as u64) * 2);
            prop_assert_eq!(out.commits, (m * n) as u64);
        }
    }

    #[test]
    fn simulation_is_deterministic(
        m in 2usize..6,
        n in 2usize..8,
        seed in 0u64..500,
    ) {
        let graph = ConflictGraph::clustered(m, n, 0.7, 0.1, seed);
        let cfg = SimConfig::new(m, n, 3);
        let a = simulate(&graph, &cfg, &mut OnlineWindowScheduler::new(&cfg, &graph, WindowMode::Dynamic, seed));
        let b = simulate(&graph, &cfg, &mut OnlineWindowScheduler::new(&cfg, &graph, WindowMode::Dynamic, seed));
        prop_assert_eq!(a, b);
    }
}
