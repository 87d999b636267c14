//! Makespan shoot-out in the discrete-time simulator: every registered
//! scheduler (the paper's window algorithms, the one-shot decomposition,
//! RandomizedRounds, Greedy and Polka), on the conflict regime that
//! motivates the window model (§I-B — dense conflicts inside columns,
//! none across).
//!
//! ```text
//! cargo run --example makespan
//! ```

use windowtm::sim::engine::{simulate, SimConfig};
use windowtm::sim::graph::ConflictGraph;
use windowtm::sim::{build_sim_scheduler, SIM_SCHEDULER_NAMES};

fn main() {
    let (m, n, tau) = (16, 24, 4);
    println!("window: M={m} threads × N={n} txns, τ={tau} steps");
    println!("graph : every column a clique (C = M−1 = {})\n", m - 1);

    let g = ConflictGraph::complete_columns(m, n);
    let cfg = SimConfig::new(m, n, tau);
    let seed = 7;

    println!(
        "{:<20} {:>9} {:>9} {:>14}",
        "scheduler", "makespan", "aborts", "avg response"
    );
    let mut oneshot_makespan = None;
    for &name in SIM_SCHEDULER_NAMES {
        let mut s = build_sim_scheduler(name, &cfg, &g, seed).expect("a registered name");
        let out = simulate(&g, &cfg, s.as_mut());
        assert!(out.all_committed, "{name} did not finish");
        if name == "OneShot" {
            oneshot_makespan = Some(out.makespan);
        }
        let rel = oneshot_makespan
            .map(|b| format!("({:.2}× one-shot)", out.makespan as f64 / b as f64))
            .unwrap_or_default();
        println!(
            "{name:<20} {:>9} {:>9} {:>10.1}  {rel}",
            out.makespan,
            out.aborts,
            out.avg_response(),
        );
    }

    println!(
        "\nlower bound N·τ = {} — the window schedulers approach it by\n\
         shifting threads into different columns; the one-shot baseline\n\
         must serialize each {m}-clique behind a barrier.",
        n * tau as usize
    );
}
