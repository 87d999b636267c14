//! The scenario layer: named, parameterized simulation setups.
//!
//! A scenario bundles everything above the event core — the conflict
//! graph, the topology, the fault plan, and replication — behind a
//! registry name with optional `@k=v,…` parameters (the same idiom the
//! harness uses for manager names). The paper-shaped scenarios build
//! single-node windows; the *beyond-paper* scenarios place threads on
//! nodes and exercise the network model:
//!
//! | name | shape |
//! |---|---|
//! | `fig2-shape` | every column a clique (`C = M−1`), single node |
//! | `per-column@p=50` | per-column random conflicts, single node |
//! | `clustered@pin=90,pcross=5` | dense columns, sparse cross edges |
//! | `resources@s=64,ops=4,write=50` | §II-A resource-footprint conflicts |
//! | `distributed@nodes=2,skew=0,…` | clustered graph, threads round-robin over nodes, optional per-node clock skew |
//! | `replicated@nodes=2,p=50` | each base thread replicated K ways, one replica block per node, commit-ack gating between columns |
//! | `crash-recovery@nodes=2,node=1,at=8,down=16,…` | distributed + one scheduled node failure mid-window |
//!
//! Schedulers are likewise built by registry name
//! ([`build_sim_scheduler`]), and a whole run is described by a
//! [`SimRunSpec`] — which is what the harness sweeps, what
//! [`record_run`] serializes, and what [`replay`] re-executes and
//! byte-compares.

use crate::engine::{run_events, SimConfig, SimOutcome, SimSetup};
use crate::error::SimError;
use crate::event::EventLog;
use crate::graph::{check_fits, ConflictGraph};
use crate::net::{CrashEvent, NetSpec, Topology};
use crate::params::Params;
use crate::sched::{
    FreeRandomizedScheduler, GreedyTimestampScheduler, OfflineWindowScheduler, OneShotScheduler,
    OnlineWindowScheduler, PolkaProgressScheduler, SimScheduler, WindowMode,
};

/// Registry metadata for one scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioInfo {
    pub name: &'static str,
    pub summary: &'static str,
    /// True for scenarios the paper's model cannot express (distributed
    /// topologies, replication, faults).
    pub beyond_paper: bool,
}

/// Everything the registry knows.
pub fn scenario_infos() -> &'static [ScenarioInfo] {
    &[
        ScenarioInfo {
            name: "fig2-shape",
            summary: "every column a clique (C = M-1), single node",
            beyond_paper: false,
        },
        ScenarioInfo {
            name: "per-column",
            summary: "per-column random conflicts (p= percent), single node",
            beyond_paper: false,
        },
        ScenarioInfo {
            name: "clustered",
            summary: "dense columns (pin=), sparse cross edges (pcross=)",
            beyond_paper: false,
        },
        ScenarioInfo {
            name: "resources",
            summary: "resource-footprint conflicts (s=, ops=, write=)",
            beyond_paper: false,
        },
        ScenarioInfo {
            name: "distributed",
            summary: "threads round-robin over nodes= with clock skew=",
            beyond_paper: true,
        },
        ScenarioInfo {
            name: "replicated",
            summary: "K-way replicated window (nodes=), ack-gated columns",
            beyond_paper: true,
        },
        ScenarioInfo {
            name: "crash-recovery",
            summary: "distributed + node= crashes at= for down= steps",
            beyond_paper: true,
        },
    ]
}

fn scenario_names() -> Vec<&'static str> {
    scenario_infos().iter().map(|i| i.name).collect()
}

/// Scheduler registry names accepted by [`build_sim_scheduler`].
pub const SIM_SCHEDULER_NAMES: &[&str] = &[
    "OneShot",
    "RandomizedRounds",
    "Greedy",
    "Polka",
    "Online",
    "Online-Dynamic",
    "Adaptive-Dynamic",
    "Offline",
];

/// Build a scheduler by registry name. The seed is passed through to the
/// scheduler constructor untouched (each mixes in its own constant).
pub fn build_sim_scheduler(
    name: &str,
    cfg: &SimConfig,
    graph: &ConflictGraph,
    seed: u64,
) -> Result<Box<dyn SimScheduler>, SimError> {
    use WindowMode::{Dynamic, Static};
    Ok(match name {
        "OneShot" => Box::new(OneShotScheduler::new(cfg, seed)),
        "RandomizedRounds" => Box::new(FreeRandomizedScheduler::new(cfg, seed)),
        "Greedy" => Box::new(GreedyTimestampScheduler::new(cfg)),
        "Polka" => Box::new(PolkaProgressScheduler::new(cfg, seed)),
        "Online" => Box::new(OnlineWindowScheduler::new(cfg, graph, Static, seed)),
        "Online-Dynamic" => Box::new(OnlineWindowScheduler::new(cfg, graph, Dynamic, seed)),
        "Adaptive-Dynamic" => Box::new(OnlineWindowScheduler::adaptive(cfg, Dynamic, seed)),
        "Offline" => Box::new(OfflineWindowScheduler::new(cfg, graph, seed)),
        _ => {
            return Err(SimError::UnknownScheduler {
                name: name.to_string(),
                known: SIM_SCHEDULER_NAMES.to_vec(),
            })
        }
    })
}

/// A built scenario, ready for [`run_events`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The spec string it was built from.
    pub spec: String,
    /// Expanded conflict graph (`m × replicas` threads when replicated).
    pub graph: ConflictGraph,
    pub topo: Topology,
    pub crash_plan: Vec<CrashEvent>,
    pub replicas: usize,
    pub beyond_paper: bool,
}

/// Build a scenario from its spec string for an `m × n` base window.
pub fn build_scenario(spec: &str, m: usize, n: usize, seed: u64) -> Result<Scenario, SimError> {
    if m == 0 || n == 0 {
        return Err(SimError::BadConfig {
            reason: format!("scenario dimensions must be >= 1, got m={m} n={n}"),
        });
    }
    let (base, params) = Params::split(spec);
    let mut p = params?;
    let info = scenario_infos()
        .iter()
        .find(|i| i.name == base)
        .copied()
        .ok_or_else(|| SimError::UnknownScenario {
            name: base.to_string(),
            known: scenario_names(),
        })?;

    // Ids and row offsets are `u32`: refuse, before building it, a window
    // whose ids or whose row entries, every candidate pair kept, won't fit.
    let (mm, nn) = (m as u128, n as u128);
    let worst = match base {
        "resources" => mm * nn * (mm * nn - 1),
        "clustered" | "distributed" | "crash-recovery" => (3 * nn - 2) * mm * (mm - 1),
        _ => nn * mm * (mm - 1),
    };
    let fits = |copies: u128| check_fits(mm * nn * copies, worst * copies);
    fits(1)?;
    let bad = |reason: String| SimError::BadParams {
        name: spec.to_string(),
        reason,
    };
    let mut crash_plan = Vec::new();
    let mut replicas = 1usize;
    let (graph, topo) = match base {
        "fig2-shape" => (
            ConflictGraph::complete_columns(m, n),
            Topology::single_node(m),
        ),
        "per-column" => {
            let prob = p.pct_or("p", 50)?;
            (
                ConflictGraph::per_column_random(m, n, prob, seed),
                Topology::single_node(m),
            )
        }
        "clustered" => {
            let pin = p.pct_or("pin", 90)?;
            let pcross = p.pct_or("pcross", 5)?;
            (
                ConflictGraph::clustered(m, n, pin, pcross, seed),
                Topology::single_node(m),
            )
        }
        "resources" => {
            let s = p.u64_or("s", 64)? as usize;
            let ops = p.u64_or("ops", 4)? as usize;
            let write = p.pct_or("write", 50)?;
            if s == 0 || ops == 0 {
                return Err(bad("s= and ops= must be >= 1".into()));
            }
            (
                ConflictGraph::from_resources(m, n, s, ops, write, seed),
                Topology::single_node(m),
            )
        }
        "distributed" | "crash-recovery" => {
            let nodes = p.u64_or("nodes", 2)? as usize;
            let skew = p.u64_or("skew", 0)?;
            let pin = p.pct_or("pin", 90)?;
            let pcross = p.pct_or("pcross", 5)?;
            if nodes == 0 {
                return Err(bad("nodes= must be >= 1".into()));
            }
            if base == "crash-recovery" {
                let node = p.u64_or("node", 1)? as usize;
                let at = p.u64_or("at", 8)?;
                let down = p.u64_or("down", 16)?;
                if node >= nodes {
                    return Err(bad(format!("node={node} out of range (nodes={nodes})")));
                }
                if at.checked_add(down).is_none() {
                    return Err(bad(format!(
                        "down={down} puts the recovery past the step clock (at={at})"
                    )));
                }
                crash_plan.push(CrashEvent { node, at, down });
            }
            (
                ConflictGraph::clustered(m, n, pin, pcross, seed),
                Topology::round_robin(m, nodes, skew),
            )
        }
        "replicated" => {
            let nodes = p.u64_or("nodes", 2)? as usize;
            let skew = p.u64_or("skew", 0)?;
            let prob = p.pct_or("p", 50)?;
            if nodes == 0 {
                return Err(bad("nodes= must be >= 1".into()));
            }
            fits(nodes as u128)?;
            replicas = nodes;
            let graph = ConflictGraph::per_column_random(m, n, prob, seed).replicate(nodes);
            (graph, Topology::blocks(m, nodes, skew))
        }
        _ => unreachable!("filtered by the registry lookup above"),
    };
    p.finish()?;
    Ok(Scenario {
        spec: spec.to_string(),
        graph,
        topo,
        crash_plan,
        replicas,
        beyond_paper: info.beyond_paper,
    })
}

/// A complete, serializable description of one simulator run — the unit
/// the harness sweeps and the replay format pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRunSpec {
    /// Scenario spec string (registry name + `@k=v,…` params).
    pub scenario: String,
    /// Scheduler registry name (see [`SIM_SCHEDULER_NAMES`]).
    pub scheduler: String,
    /// Base window height M (replicated scenarios expand this).
    pub m: usize,
    /// Window width N.
    pub n: usize,
    /// Transaction duration τ in steps.
    pub tau: u32,
    /// Network model spec (see [`NetSpec::parse`]).
    pub net: String,
    pub seed: u64,
}

/// What [`run_sim`] returns.
#[derive(Debug, Clone)]
pub struct SimRun {
    pub outcome: SimOutcome,
    /// Event log; empty unless `with_log` was set.
    pub log: EventLog,
    /// Thread count actually simulated (`m × replicas`).
    pub sim_m: usize,
}

/// Build everything from a [`SimRunSpec`] and run it through the event
/// core.
pub fn run_sim(spec: &SimRunSpec, with_log: bool) -> Result<SimRun, SimError> {
    let scenario = build_scenario(&spec.scenario, spec.m, spec.n, spec.seed)?;
    let cfg = SimConfig::try_new(scenario.graph.m(), spec.n, spec.tau)?;
    let net_spec = NetSpec::parse(&spec.net)?;
    let mut net = net_spec.build(spec.seed ^ 0x0005_EED5);
    let mut sched = build_sim_scheduler(&spec.scheduler, &cfg, &scenario.graph, spec.seed)?;
    let mut log = if with_log {
        EventLog::recording()
    } else {
        EventLog::disabled()
    };
    let setup = SimSetup {
        graph: &scenario.graph,
        cfg: &cfg,
        topo: &scenario.topo,
        crash_plan: &scenario.crash_plan,
        replicas: scenario.replicas,
        queue_seed: spec.seed,
    };
    let outcome = run_events(&setup, sched.as_mut(), net.as_mut(), &mut log);
    Ok(SimRun {
        outcome,
        log,
        sim_m: cfg.m,
    })
}

const LOG_HEADER: &str = "wtm-sim-log v1";

/// Run `spec` with logging and serialize the recorded run: a text header
/// naming the full spec, the outcome, and the event log in hex.
pub fn record_run(spec: &SimRunSpec) -> Result<String, SimError> {
    let run = run_sim(spec, true)?;
    let o = run.outcome;
    Ok(format!(
        "{LOG_HEADER}\nscenario={}\nscheduler={}\nm={}\nn={}\ntau={}\nnet={}\nseed={:#x}\n\
         outcome={} {} {} {} {} {}\nlog={}\n",
        spec.scenario,
        spec.scheduler,
        spec.m,
        spec.n,
        spec.tau,
        spec.net,
        spec.seed,
        o.makespan,
        o.commits,
        o.aborts,
        o.zombie_commits,
        o.sum_response,
        o.all_committed,
        run.log.hex(),
    ))
}

fn replay_err(reason: impl Into<String>) -> SimError {
    SimError::ReplayMismatch {
        reason: reason.into(),
    }
}

/// Re-execute a recorded run and assert the event log and outcome are
/// byte-identical; returns the (re-verified) outcome.
pub fn replay(recorded: &str) -> Result<SimOutcome, SimError> {
    let mut lines = recorded.lines();
    if lines.next() != Some(LOG_HEADER) {
        return Err(replay_err(format!("missing {LOG_HEADER:?} header")));
    }
    let mut field = |name: &str| -> Result<String, SimError> {
        let line = lines
            .next()
            .ok_or_else(|| replay_err(format!("truncated log: missing {name}=")))?;
        line.strip_prefix(name)
            .and_then(|r| r.strip_prefix('='))
            .map(str::to_string)
            .ok_or_else(|| replay_err(format!("expected {name}=, got {line:?}")))
    };
    let scenario = field("scenario")?;
    let scheduler = field("scheduler")?;
    let parse_num = |s: &str, what: &str| -> Result<u64, SimError> {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix("0x") {
            u64::from_str_radix(hex, 16)
        } else {
            s.parse()
        }
        .map_err(|_| replay_err(format!("bad {what}: {s:?}")))
    };
    let m = parse_num(&field("m")?, "m")? as usize;
    let n = parse_num(&field("n")?, "n")? as usize;
    let tau = parse_num(&field("tau")?, "tau")? as u32;
    let net = field("net")?;
    let seed = parse_num(&field("seed")?, "seed")?;
    let outcome_line = field("outcome")?;
    let log_hex = field("log")?;

    let spec = SimRunSpec {
        scenario,
        scheduler,
        m,
        n,
        tau,
        net,
        seed,
    };
    let run = run_sim(&spec, true)?;
    let fresh = run.log.hex();
    if fresh != log_hex {
        let at = fresh
            .bytes()
            .zip(log_hex.bytes())
            .position(|(a, b)| a != b)
            .map(|i| i / 2)
            .unwrap_or_else(|| fresh.len().min(log_hex.len()) / 2);
        return Err(replay_err(format!(
            "event log diverges at byte {at} (recorded {} bytes, replayed {})",
            log_hex.len() / 2,
            fresh.len() / 2,
        )));
    }
    let o = run.outcome;
    let fresh_outcome = format!(
        "{} {} {} {} {} {}",
        o.makespan, o.commits, o.aborts, o.zombie_commits, o.sum_response, o.all_committed
    );
    if fresh_outcome != outcome_line {
        return Err(replay_err(format!(
            "outcome mismatch: recorded {outcome_line:?}, replayed {fresh_outcome:?}"
        )));
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::Lists;
    use crate::graph::TxnId;

    #[test]
    fn registry_rejects_unknowns_and_bad_params() {
        let e = build_scenario("bogus", 4, 4, 1).unwrap_err();
        assert!(matches!(e, SimError::UnknownScenario { .. }), "{e}");
        for spec in [
            "per-column@p=abc",
            "per-column@p=150",
            "per-column@p=1,p=2",
            "per-column@junk",
            "fig2-shape@x=1",
            "crash-recovery@nodes=2,node=5",
            "resources@s=0",
        ] {
            let e = build_scenario(spec, 4, 4, 1).unwrap_err();
            assert!(matches!(e, SimError::BadParams { .. }), "{spec}: {e}");
        }
        let e = match build_sim_scheduler(
            "Bogus",
            &SimConfig::new(2, 2, 1),
            &ConflictGraph::empty(2, 2),
            1,
        ) {
            Err(e) => e,
            Ok(_) => panic!("expected an error for an unknown scheduler"),
        };
        assert!(matches!(e, SimError::UnknownScheduler { .. }));
    }

    #[test]
    fn crash_recovery_rejects_a_recovery_time_past_the_clock() {
        let spec = "crash-recovery@nodes=2,node=1,at=8,down=18446744073709551615";
        match build_scenario(spec, 4, 4, 1) {
            Err(SimError::BadParams { name, reason }) => {
                assert_eq!(name, spec);
                assert!(reason.contains("down="), "{reason}");
            }
            other => panic!("expected BadParams, got {other:?}"),
        }
        // The last representable recovery step still builds.
        let last = format!("crash-recovery@nodes=2,node=1,at=8,down={}", u64::MAX - 8);
        assert_eq!(build_scenario(&last, 4, 4, 1).unwrap().crash_plan.len(), 1);
    }

    #[test]
    fn run_sim_rejects_a_delay_past_u32_steps() {
        let spec = SimRunSpec {
            scenario: "distributed@nodes=2".into(),
            scheduler: "Greedy".into(),
            m: 4,
            n: 3,
            tau: 2,
            net: "fixed:18446744073709551615".into(),
            seed: 1,
        };
        let e = run_sim(&spec, false).unwrap_err();
        assert!(matches!(e, SimError::BadNetSpec { .. }), "{e}");
    }

    #[test]
    fn paper_shaped_scenarios_build_single_node() {
        for spec in ["fig2-shape", "per-column@p=30", "clustered", "resources"] {
            let sc = build_scenario(spec, 4, 5, 7).unwrap();
            assert_eq!(sc.topo.nodes(), 1, "{spec}");
            assert_eq!(sc.graph.m(), 4);
            assert_eq!(sc.replicas, 1);
            assert!(!sc.beyond_paper, "{spec}");
            assert!(sc.crash_plan.is_empty());
        }
    }

    #[test]
    fn distributed_scenarios_expose_topology_and_faults() {
        let d = build_scenario("distributed@nodes=4,skew=2", 8, 4, 7).unwrap();
        assert_eq!(d.topo.nodes(), 4);
        assert_eq!(d.topo.skew(3), 6);
        assert!(d.beyond_paper);

        let r = build_scenario("replicated@nodes=3,p=40", 4, 4, 7).unwrap();
        assert_eq!(r.replicas, 3);
        assert_eq!(r.graph.m(), 12, "replication expands the window height");
        // Edges stay within a replica block.
        for a in 0..r.graph.len() as TxnId {
            let block = r.graph.coords(a).0 / 4;
            for &b in r.graph.neighbors(a) {
                assert_eq!(r.graph.coords(b).0 / 4, block);
            }
        }

        let c = build_scenario("crash-recovery@nodes=2,node=1,at=5,down=9", 4, 4, 7).unwrap();
        assert_eq!(
            c.crash_plan,
            vec![CrashEvent {
                node: 1,
                at: 5,
                down: 9
            }]
        );
    }

    proptest::proptest! {
        /// `replicate` shifts each copy's ids by `r·len`: its rows are
        /// those `add_edge` builds edge by edge, later halves in order.
        #[test]
        fn replicated_lists_equal_those_add_edge_builds(
            m in 1usize..7,
            n in 1usize..6,
            k in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            // Clustered: its lists are not sorted, unlike per-column ones.
            let base = ConflictGraph::clustered(m, n, 0.6, 0.3, seed);
            let mut want = Lists::new(m * k * n);
            for r in 0..k {
                for a in 0..base.len() as TxnId {
                    let (i, j) = base.coords(a);
                    for &b in base.later_neighbors(a) {
                        let (i2, j2) = base.coords(b);
                        want.add_edge(((r * m + i) * n + j) as TxnId, ((r * m + i2) * n + j2) as TxnId);
                    }
                }
            }
            want.assert_rows_of(&base.replicate(k));
        }
    }

    #[test]
    fn every_scheduler_completes_every_scenario() {
        for info in scenario_infos() {
            for sched in SIM_SCHEDULER_NAMES {
                let spec = SimRunSpec {
                    scenario: info.name.to_string(),
                    scheduler: sched.to_string(),
                    m: 4,
                    n: 3,
                    tau: 2,
                    net: "fixed:1".into(),
                    seed: 11,
                };
                let run = run_sim(&spec, false).unwrap();
                assert!(
                    run.outcome.all_committed,
                    "{}/{sched}: {:?}",
                    info.name, run.outcome
                );
            }
        }
    }

    #[test]
    fn replicated_run_commits_every_replica() {
        let spec = SimRunSpec {
            scenario: "replicated@nodes=2".into(),
            scheduler: "Greedy".into(),
            m: 3,
            n: 4,
            tau: 2,
            net: "fixed:2".into(),
            seed: 5,
        };
        let run = run_sim(&spec, false).unwrap();
        assert_eq!(run.sim_m, 6);
        assert_eq!(run.outcome.commits, 6 * 4);
        assert!(run.outcome.all_committed);
        // Ack gating means a column can't finish before its siblings'
        // acks crossed the wire: makespan exceeds the unreplicated run.
        let solo = run_sim(
            &SimRunSpec {
                scenario: "per-column@p=50".into(),
                m: 3,
                ..spec.clone()
            },
            false,
        )
        .unwrap();
        assert!(run.outcome.makespan >= solo.outcome.makespan);
    }

    #[test]
    fn record_then_replay_roundtrips_and_detects_tampering() {
        let spec = SimRunSpec {
            scenario: "fig2-shape".into(),
            scheduler: "Online-Dynamic".into(),
            m: 4,
            n: 3,
            tau: 2,
            net: "fixed:1".into(),
            seed: 42,
        };
        let recorded = record_run(&spec).unwrap();
        let direct = run_sim(&spec, false).unwrap().outcome;
        let replayed = replay(&recorded).unwrap();
        assert_eq!(replayed, direct);

        // Flip hex digit 6 of the log: replay must refuse, naming byte 3
        // as the first that diverges.
        let idx = recorded.find("log=").unwrap() + 10;
        let mut bad = recorded.clone().into_bytes();
        bad[idx] = if bad[idx] == b'0' { b'1' } else { b'0' };
        let e = replay(std::str::from_utf8(&bad).unwrap()).unwrap_err();
        match &e {
            SimError::ReplayMismatch { reason } => {
                assert!(reason.contains("diverges at byte 3 "), "{e}")
            }
            _ => panic!("{e}"),
        }

        // Corrupt the header: typed error, not a panic.
        assert!(replay("not a log").is_err());
    }
}
