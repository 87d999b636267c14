//! `sim-grid`: the simulator grid through the harness's `Executor`
//! (pass A, the path users run) and through direct `run_sim` calls on
//! the same cells and seeds (pass B, which times each call).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wtm_harness::experiment::{Cell, SimAxes};
use wtm_harness::{Executor, ExperimentSpec, StopRule};
use wtm_sim::{build_scenario, record_run, replay, run_sim, SimRunSpec, SIM_SCHEDULER_NAMES};

use crate::hist::Hist;
use crate::span::Spans;
use crate::stm_run::{peak_rss_mb, setup_seconds};
use crate::summary::{median, Outcome};
use crate::table::{self, SimGrid};

fn experiment(grid: &SimGrid, seed: u64) -> ExperimentSpec {
    ExperimentSpec {
        managers: SIM_SCHEDULER_NAMES.iter().map(|s| s.to_string()).collect(),
        threads: vec![grid.m],
        reps: grid.reps,
        window_n: grid.n,
        base_seed: seed,
        sim: Some(SimAxes {
            scenarios: grid.scenarios.iter().map(|s| s.to_string()).collect(),
            nets: grid.nets.iter().map(|s| s.to_string()).collect(),
            tau: grid.tau,
        }),
        // The stop rule is unused by sim cells.
        ..ExperimentSpec::new("sim-grid", StopRule::Budget(0))
    }
}

/// The `run_sim` input of repetition `rep` of `cell`, seeded as the
/// `Executor` seeds it.
fn run_spec(cell: &Cell, rep: usize) -> SimRunSpec {
    let sim = cell.sim.as_ref().expect("sim cell");
    SimRunSpec {
        scenario: cell.workload.clone(),
        scheduler: cell.manager.clone(),
        m: cell.threads,
        n: cell.window_n,
        tau: sim.tau,
        net: sim.net.clone(),
        seed: cell.seed().wrapping_add(rep as u64 * 0x9E37),
    }
}

/// Counts of one pass over the grid; seeded, so they repeat exactly.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
pub struct Counts {
    pub commits: u64,
    pub aborts: u64,
    pub makespan_sum: u64,
    pub zombie_commits: u64,
    pub events: u64,
}

/// One direct pass over every cell and repetition of the grid.
pub struct DirectSet {
    pub wall: Duration,
    /// Wall picoseconds per simulated transaction execution (one that
    /// committed or one that aborted), one sample per `run_sim`. Per
    /// commit alone, a cell's sample follows how often its seed makes it
    /// abort: over 20 seeded grids the 95th percentile then spread 30 %
    /// where this spreads 6 %.
    pub ps_per_attempt: Hist,
    /// Wall and first/last instant per scenario, in grid order.
    pub scenarios: Vec<(Duration, Instant, Instant)>,
    /// Wall per scheduler, in `SIM_SCHEDULER_NAMES` order.
    pub schedulers: Vec<Duration>,
    pub counts: Counts,
    pub runs: u64,
}

pub fn direct_set(grid: &SimGrid, cells: &[Cell], with_log: bool, out: &mut Outcome) -> DirectSet {
    let now = Instant::now();
    let mut set = DirectSet {
        wall: Duration::ZERO,
        ps_per_attempt: Hist::new(),
        scenarios: vec![(Duration::ZERO, now, now); grid.scenarios.len()],
        schedulers: vec![Duration::ZERO; SIM_SCHEDULER_NAMES.len()],
        counts: Counts::default(),
        runs: 0,
    };
    for cell in cells {
        let scenario = grid.scenarios.iter().position(|s| *s == cell.workload);
        let scheduler = SIM_SCHEDULER_NAMES.iter().position(|s| *s == cell.manager);
        let (scenario, scheduler) = (scenario.expect("grid cell"), scheduler.expect("grid cell"));
        let lossless = !cell
            .sim
            .as_ref()
            .expect("sim cell")
            .net
            .starts_with("jitter");
        for rep in 0..grid.reps {
            let spec = run_spec(cell, rep);
            let t0 = Instant::now();
            let run = run_sim(&spec, with_log).unwrap_or_else(|e| panic!("{}: {e}", cell.key()));
            let t1 = Instant::now();
            let wall = t1 - t0;
            let o = run.outcome;
            set.runs += 1;
            out.attempted += 1;
            let expected = (run.sim_m * cell.window_n) as u64;
            if !o.all_committed || o.commits != expected || (lossless && o.zombie_commits != 0) {
                out.fail(
                    1,
                    format!(
                        "{} rep {rep}: {o:?}, expected {expected} commits",
                        cell.key()
                    ),
                );
            }
            set.wall += wall;
            set.ps_per_attempt
                .record(wall.as_nanos() as u64 * 1000 / (o.commits + o.aborts).max(1));
            let sc = &mut set.scenarios[scenario];
            if sc.0.is_zero() {
                sc.1 = t0;
            }
            sc.0 += wall;
            sc.2 = t1;
            set.schedulers[scheduler] += wall;
            set.counts.commits += o.commits;
            set.counts.aborts += o.aborts;
            set.counts.makespan_sum += o.makespan;
            set.counts.zombie_commits += o.zombie_commits;
            set.counts.events += run.log.records() as u64;
        }
    }
    set
}

/// `build_scenario` for every cell and repetition; seconds taken.
fn build_scenarios(cells: &[Cell], reps: usize) -> f64 {
    let t0 = Instant::now();
    for cell in cells {
        for rep in 0..reps {
            let spec = run_spec(cell, rep);
            let built = build_scenario(&spec.scenario, spec.m, spec.n, spec.seed);
            std::hint::black_box(built.unwrap_or_else(|e| panic!("{}: {e}", cell.key())));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// One `Executor::run` over the grid into a fresh directory: wall time,
/// simulated commits, size of `results.json`.
fn executor_set(spec: &ExperimentSpec, dir: &Path, out: &mut Outcome) -> (Duration, u64, u64) {
    // A leftover results.json would turn the run into a resume.
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut exec = Executor::new(dir);
    let t0 = Instant::now();
    let results = exec.run(spec);
    let wall = t0.elapsed();
    let mut commits = 0.0;
    for r in &results {
        out.attempted += r.reps as u64;
        if r.truncated || r.reps != spec.reps {
            out.fail(
                r.reps as u64,
                format!("executor cell {} / {} truncated", r.workload, r.manager),
            );
        }
        commits += r.metric("commits").mean * r.reps as f64;
    }
    let bytes = std::fs::metadata(exec.store().path()).map_or(0, |m| m.len());
    let _ = std::fs::remove_dir_all(dir);
    (wall, commits.round() as u64, bytes)
}

/// `replay(record_run(spec))` must equal the live outcome, for one cell
/// of every scenario (Online-Dynamic: the paper's scheduler, and a short
/// log, where OneShot's runs to hundreds of MB of hex); seconds taken.
fn replay_check(grid: &SimGrid, cells: &[Cell], out: &mut Outcome) -> f64 {
    let t0 = Instant::now();
    for scenario in grid.scenarios {
        let wanted = |c: &&Cell| c.workload == *scenario && c.manager == "Online-Dynamic";
        let cell = cells.iter().find(wanted).expect("grid cell");
        let spec = run_spec(cell, 0);
        out.attempted += 1;
        let live = run_sim(&spec, false).map(|r| r.outcome);
        let replayed = record_run(&spec).and_then(|log| replay(&log));
        if live.is_err() || live != replayed {
            out.fail(
                1,
                format!("replay of {scenario}: live {live:?}, replayed {replayed:?}"),
            );
        }
    }
    t0.elapsed().as_secs_f64()
}

fn check_counts_repeat(all: &[Counts], executor_commits: &[u64], out: &mut Outcome) {
    if all.iter().any(|c| *c != all[0]) {
        out.fail(1, format!("sim counts differ between sets: {all:?}"));
    }
    if executor_commits.iter().any(|c| *c != all[0].commits) {
        out.fail(
            1,
            format!(
                "executor commits {executor_commits:?} != direct {}",
                all[0].commits
            ),
        );
    }
}

/// One set, in a process of its own: pass A through the `Executor`,
/// pass B direct `run_sim` calls on the same cells and seeds.
pub fn rep(grid: &SimGrid, seed: u64, rep: u64, tmp: &Path) -> Outcome {
    let mut out = Outcome::default();
    // A grid of its own per rep: which cells are the slow ones depends on
    // the seed, so one grid's 95th percentile is one draw of that too.
    let spec = experiment(grid, seed.wrapping_add(rep));
    let cells = spec.cells();
    let dir = tmp.join(format!("sim-grid-{}", std::process::id()));
    let (mut txn_per_s, mut executor_commits) = (0.0, 0);
    let mut direct = None;

    // Set-up first, so that it is the first work of the process in every
    // rep: a cold pass of it reads up to 0.17 s and a warm one 0.10 s, and
    // which of passes A and B runs first alternates.
    let setup = build_scenarios(&cells, grid.reps);
    let setup = setup_seconds(setup, || build_scenarios(&cells, grid.reps));

    let mut pass_a = |out: &mut Outcome| {
        let (wall, commits, _) = executor_set(&spec, &dir, out);
        txn_per_s = commits as f64 / wall.as_secs_f64();
        executor_commits = commits;
    };
    let mut pass_b = |out: &mut Outcome| {
        direct = Some(direct_set(grid, &cells, false, out));
    };
    if rep.is_multiple_of(2) {
        pass_a(&mut out);
        pass_b(&mut out);
    } else {
        pass_b(&mut out);
        pass_a(&mut out);
    }
    let direct = direct.expect("pass B ran");
    check_counts_repeat(&[direct.counts], &[executor_commits], &mut out);
    if rep == 0 {
        replay_check(grid, &cells, &mut out);
    }
    // One sample per run_sim call: 120 on the full grid, six of them
    // beyond the 95th percentile.
    out.metrics = vec![
        ("txn_per_s", txn_per_s),
        ("txn_p50_us", direct.ps_per_attempt.quantile_ns(0.50) / 1e6),
        ("txn_p95_us", direct.ps_per_attempt.quantile_ns(0.95) / 1e6),
        ("setup_s", setup),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    out
}

fn scenario_base(spec: &str) -> &str {
    spec.split('@').next().unwrap_or(spec)
}

/// The traced run: per-layer numbers of the simulator and of the
/// harness's executor path, with spans around each phase.
pub fn traced(grid: &SimGrid, seed: u64, seconds: f64, tmp: &Path, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let spec = experiment(grid, seed);
    let cells = spec.cells();
    let runs = (cells.len() * grid.reps) as f64;
    let dir: PathBuf = tmp.join(format!("sim-grid-{}-trace", std::process::id()));

    let mut executor_s = Vec::new();
    let mut direct_s = Vec::new();
    let mut logged_s = Vec::new();
    let mut build_s = Vec::new();
    let mut scenario_s = vec![Vec::new(); grid.scenarios.len()];
    let mut scheduler_s = vec![Vec::new(); SIM_SCHEDULER_NAMES.len()];
    let mut counts = Vec::new();
    let mut executor_commits = Vec::new();
    let mut json_bytes = 0;

    let t0 = Instant::now();
    let mut set = 0;
    while set == 0 || t0.elapsed().as_secs_f64() < seconds {
        let rep = spans.open("rep", None);
        let built = spans.timed("setup.build_scenario", Some(rep), || {
            build_scenarios(&cells, grid.reps)
        });
        build_s.push(built);

        let id = spans.open("executor.run", Some(rep));
        let (wall, commits, bytes) = executor_set(&spec, &dir, &mut out);
        spans.close(id);
        executor_s.push(wall.as_secs_f64());
        executor_commits.push(commits);
        json_bytes = bytes;

        let id = spans.open("direct.run_sim", Some(rep));
        let direct = direct_set(grid, &cells, false, &mut out);
        spans.close(id);
        for (i, (wall, first, last)) in direct.scenarios.iter().enumerate() {
            let name = format!("scenario.{}", scenario_base(grid.scenarios[i]));
            let (a, b) = (spans.at(*first), spans.at(*last));
            let s = spans.add(&name, Some(id), 0, a, b);
            spans.arg(s, "run_sim_s", wall.as_secs_f64());
            scenario_s[i].push(wall.as_secs_f64());
        }
        for (i, wall) in direct.schedulers.iter().enumerate() {
            scheduler_s[i].push(wall.as_secs_f64());
        }
        spans.arg(id, "runs", direct.runs as f64);
        spans.arg(id, "run_sim_s", direct.wall.as_secs_f64());
        direct_s.push(direct.wall.as_secs_f64());

        let id = spans.open("direct.logged", Some(rep));
        let logged = direct_set(grid, &cells, true, &mut out);
        spans.close(id);
        spans.arg(id, "events", logged.counts.events as f64);
        logged_s.push(logged.wall.as_secs_f64());
        // The logged pass must simulate exactly what the unlogged one did.
        counts.push(Counts {
            events: logged.counts.events,
            ..direct.counts
        });
        counts.push(logged.counts);
        spans.close(rep);
        set += 1;
    }
    check_counts_repeat(&counts, &executor_commits, &mut out);
    let rep = spans.open("rep", None);
    let replay_s = spans.timed("replay", Some(rep), || replay_check(grid, &cells, &mut out));
    spans.close(rep);

    let c = counts[0];
    let (executor, direct, logged) = (median(&executor_s), median(&direct_s), median(&logged_s));
    let mut m: Vec<(String, f64)> = vec![
        (
            "harness.executor_ms_per_cell".into(),
            (executor - direct) * 1e3 / cells.len() as f64,
        ),
        ("harness.results_json_bytes".into(), json_bytes as f64),
        ("sim.run_sim_txn_per_s".into(), c.commits as f64 / direct),
        ("sim.events_per_s".into(), c.events as f64 / logged),
        ("sim.log_overhead_frac".into(), (logged - direct) / logged),
        (
            "sim.build_scenario_ms".into(),
            median(&build_s) * 1e3 / runs,
        ),
        ("sim.replay_s".into(), replay_s),
        ("sim.commits".into(), c.commits as f64),
        ("sim.aborts".into(), c.aborts as f64),
        ("sim.makespan_sum".into(), c.makespan_sum as f64),
        ("sim.zombie_commits".into(), c.zombie_commits as f64),
        ("sim.events".into(), c.events as f64),
    ];
    for (i, s) in grid.scenarios.iter().enumerate() {
        m.push((
            format!("sim.wall_s.{}", scenario_base(s)),
            median(&scenario_s[i]),
        ));
    }
    for (i, s) in SIM_SCHEDULER_NAMES.iter().enumerate() {
        m.push((format!("sim.sched_s.{s}"), median(&scheduler_s[i])));
    }
    // What the grid does not exercise (the STM layers, a scenario the
    // smoke grid leaves out) reads 0.
    out.metrics =
        table::per_layer_values(|name| m.iter().find(|(n, _)| n == name).map(|(_, v)| *v));
    out
}
