//! Golden pin of the event core on *latency* networks.
//!
//! `tests/data/sim_golden.log` covers one `fixed:2` Online-Dynamic run of
//! a 6×8 window. Everything the engine does between a duel and the
//! loser's abort — verdicts in flight, stale verdicts, drops, acks,
//! crashes — depends on the scheduler, the topology and the network model
//! together, so this file pins the whole cross product: for every
//! scheduler × beyond-paper scenario × latency network, the FNV-1a hash of
//! `record_run` (header, outcome and the full event log) on a small
//! window, and the outcome alone on the benchmark's 32×50 window.
//!
//! `tests/data/sim_latency.golden` was captured before the engine learned
//! to leave verdicts that can only arrive stale out of the queue; an
//! engine change that reorders, drops or adds one logged decision on any
//! of the 96 cells moves a hash.

use windowtm::sim::scenario::{record_run, run_sim, SimRunSpec, SIM_SCHEDULER_NAMES};

const SCENARIOS: &[&str] = &[
    "distributed@nodes=4,skew=1",
    "replicated@nodes=2",
    "crash-recovery@nodes=2,node=1,at=8,down=16",
];
const NETS: &[&str] = &[
    "fixed:1",
    "fixed:4",
    "jitter:2,j=2,drop=50",
    "jitter:1,j=6,drop=0",
];
const SEED: u64 = 0x5EED_1A7E;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn render() -> String {
    let mut out = String::from(
        "# scenario scheduler net | fnv1a(record_run) at 8x6 | \
         makespan commits aborts zombies sum_response all_committed at 32x50\n",
    );
    for scenario in SCENARIOS {
        for scheduler in SIM_SCHEDULER_NAMES {
            for net in NETS {
                let small = SimRunSpec {
                    scenario: scenario.to_string(),
                    scheduler: scheduler.to_string(),
                    m: 8,
                    n: 6,
                    tau: 2,
                    net: net.to_string(),
                    seed: SEED,
                };
                let recorded = record_run(&small).unwrap();
                let full = SimRunSpec {
                    m: 32,
                    n: 50,
                    ..small
                };
                let o = run_sim(&full, false).unwrap().outcome;
                out.push_str(&format!(
                    "{scenario} {scheduler} {net} | {:016x} | {} {} {} {} {} {}\n",
                    fnv1a(recorded.as_bytes()),
                    o.makespan,
                    o.commits,
                    o.aborts,
                    o.zombie_commits,
                    o.sum_response,
                    o.all_committed,
                ));
            }
        }
    }
    out
}

#[test]
fn latency_cells_match_the_golden() {
    let golden = include_str!("data/sim_latency.golden");
    let fresh = render();
    if fresh != golden {
        let actual = std::env::temp_dir().join("sim_latency.golden.actual");
        std::fs::write(&actual, &fresh).unwrap();
        let line = fresh
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fresh.lines().count().min(golden.lines().count()));
        panic!(
            "latency golden diverges at line {}; fresh rendering written to {}",
            line + 1,
            actual.display()
        );
    }
}
