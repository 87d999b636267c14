//! The declarative experiment engine.
//!
//! A figure used to be a driver function owning four nested loops
//! (benchmark × manager × threads × reps) plus its own averaging and
//! progress printing; every new study re-implemented the stack. Now a
//! study is an [`ExperimentSpec`] — a value describing the grid — and one
//! shared [`Executor`] owns everything the loops used to: deterministic
//! per-cell seeding, repetition, mean ± stddev aggregation, progress/ETA
//! on stderr, and checkpoint/resume through the machine-readable
//! `results.json` it maintains next to the CSV reports.
//!
//! Resume: every cell's identity (workload, manager, threads, contention,
//! stop rule, reps, seeds, …) is folded into a key string; `results.json`
//! maps keys to aggregated results. Re-running a suite with the same
//! `--out` directory skips every cell whose key is already present, so an
//! interrupted `windowtm all --paper` continues where it stopped — and a
//! completed one is a no-op that rewrites `results.json` byte-identically.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wtm_stm::EngineKind;

use crate::json::Json;
use crate::preset::Preset;
use crate::report::Table;
use crate::runner::{run_one, RunOutcome, RunSpec, StopRule};

/// Simulator sweep axes: when set on an [`ExperimentSpec`], the grid is
/// `scenarios × nets × threads × managers` over the discrete-event
/// simulator instead of the STM runner. Scenario specs and scheduler
/// names resolve through the `wtm_sim` registries; `nets` are
/// [`wtm_sim::NetSpec`] strings (`"zero"`, `"fixed:4"`, `"jitter:…"`)
/// and are part of cell identity.
#[derive(Debug, Clone)]
pub struct SimAxes {
    pub scenarios: Vec<String>,
    pub nets: Vec<String>,
    /// Transaction duration τ in steps.
    pub tau: u32,
}

/// Per-cell simulator parameters (present iff the cell is a sim cell).
#[derive(Debug, Clone)]
pub struct SimCellParams {
    pub tau: u32,
    /// Canonical network spec, folded into the cell key.
    pub net: String,
}

/// A declarative experiment: the full factorial grid of
/// `workloads × managers × threads × update_pcts`, each cell run `reps`
/// times and aggregated.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Short id used in progress lines (e.g. `"fig2"`).
    pub id: String,
    /// Workload names (registry keys, see [`wtm_workloads::workload_names`]).
    pub workloads: Vec<String>,
    /// Manager names, optionally parameterized (`Online-Dynamic@phi=2`).
    pub managers: Vec<String>,
    /// Thread sweep `M`.
    pub threads: Vec<usize>,
    /// Contention sweep (percentage of updating operations).
    pub update_pcts: Vec<u32>,
    pub stop: StopRule,
    /// Repetitions aggregated per cell.
    pub reps: usize,
    /// `N`, transactions per thread per window.
    pub window_n: usize,
    /// Which STM engine executes every cell of the grid.
    pub engine: EngineKind,
    /// Base seed; per-cell seeds are derived from it and the cell
    /// identity (see [`Cell::seed`]).
    pub base_seed: u64,
    /// When set, the grid sweeps the discrete-event simulator
    /// (`scenarios × nets × threads × managers`) instead of the STM.
    pub sim: Option<SimAxes>,
}

impl ExperimentSpec {
    /// A grid with the defaults the paper's figures share.
    pub fn new(id: &str, stop: StopRule) -> Self {
        ExperimentSpec {
            id: id.to_string(),
            workloads: Vec::new(),
            managers: Vec::new(),
            threads: vec![1],
            update_pcts: vec![100],
            stop,
            reps: 1,
            window_n: 50,
            engine: EngineKind::Eager,
            base_seed: 0xBEEF,
            sim: None,
        }
    }

    /// `workloads × managers` at `preset`'s scale: timed at its duration
    /// over its thread sweep, with its repetitions, window width, engine
    /// and seed. Every driver's grid starts here.
    pub fn from_preset(
        id: &str,
        preset: &Preset,
        workloads: impl IntoIterator<Item = impl Into<String>>,
        managers: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        ExperimentSpec {
            workloads: workloads.into_iter().map(Into::into).collect(),
            managers: managers.into_iter().map(Into::into).collect(),
            threads: preset.thread_counts.clone(),
            reps: preset.reps,
            window_n: preset.window_n,
            engine: preset.engine,
            base_seed: preset.seed,
            ..ExperimentSpec::new(id, StopRule::Timed(preset.duration))
        }
    }

    /// Expand the grid into cells, workload-major then contention, thread
    /// count, manager — the order the figure tables are filled in. Sim
    /// grids expand scenario-major then network, thread count, scheduler;
    /// the scenario spec rides in `workload` and the scheduler in
    /// `manager`, so the reporting layer works unchanged.
    pub fn cells(&self) -> Vec<Cell> {
        if let Some(sim) = &self.sim {
            let mut out = Vec::new();
            for scenario in &sim.scenarios {
                for net in &sim.nets {
                    for &threads in &self.threads {
                        for manager in &self.managers {
                            out.push(Cell {
                                workload: scenario.clone(),
                                manager: manager.clone(),
                                threads,
                                update_pct: 0,
                                stop: self.stop,
                                reps: self.reps,
                                window_n: self.window_n,
                                key_range: 0,
                                engine: self.engine,
                                base_seed: self.base_seed,
                                sim: Some(SimCellParams {
                                    tau: sim.tau,
                                    net: net.clone(),
                                }),
                            });
                        }
                    }
                }
            }
            return out;
        }
        let mut out =
            Vec::with_capacity(self.workloads.len() * self.managers.len() * self.threads.len());
        for workload in &self.workloads {
            for &update_pct in &self.update_pcts {
                for &threads in &self.threads {
                    for manager in &self.managers {
                        out.push(Cell {
                            workload: workload.clone(),
                            manager: manager.clone(),
                            threads,
                            update_pct,
                            stop: self.stop,
                            reps: self.reps,
                            window_n: self.window_n,
                            key_range: wtm_workloads::default_key_range(workload).unwrap_or(0),
                            engine: self.engine,
                            base_seed: self.base_seed,
                            sim: None,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One point of an [`ExperimentSpec`] grid, fully resolved.
#[derive(Debug, Clone)]
pub struct Cell {
    pub workload: String,
    pub manager: String,
    pub threads: usize,
    pub update_pct: u32,
    pub stop: StopRule,
    pub reps: usize,
    pub window_n: usize,
    pub key_range: i64,
    pub engine: EngineKind,
    pub base_seed: u64,
    /// Simulator parameters; `Some` iff this is a sim cell (then
    /// `workload` is the scenario spec and `manager` the scheduler).
    pub sim: Option<SimCellParams>,
}

fn stop_key(stop: StopRule) -> String {
    match stop {
        StopRule::Timed(d) => format!("timed:{}", d.as_secs_f64()),
        StopRule::Budget(b) => format!("budget:{b}"),
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Cell {
    /// The checkpoint identity: every parameter that affects the run is
    /// folded in, so a preset/override change can never alias a cached
    /// result from a different configuration. Sim cells carry the
    /// scenario spec, scheduler, and network model instead of the STM
    /// axes — the network spec is cell identity, so `fixed:1` and
    /// `fixed:4` sweeps of the same scenario never alias.
    pub fn key(&self) -> String {
        if let Some(sim) = &self.sim {
            return format!(
                "v3|sim|sc={}|sched={}|net={}|m={}|n={}|tau={}|reps={}|seed={:#x}",
                self.workload,
                self.manager,
                sim.net,
                self.threads,
                self.window_n,
                sim.tau,
                self.reps,
                self.base_seed,
            );
        }
        format!(
            "v3|wl={}|mgr={}|eng={}|m={}|upd={}|kr={}|n={}|stop={}|reps={}|seed={:#x}",
            self.workload,
            self.manager,
            self.engine,
            self.threads,
            self.update_pct,
            self.key_range,
            self.window_n,
            stop_key(self.stop),
            self.reps,
            self.base_seed,
        )
    }

    /// Deterministic per-cell seed: the FNV-1a hash of the identity key.
    /// Distinct cells get decorrelated streams, and the same cell always
    /// replays the same one (the key already folds in `base_seed`, so
    /// `--seed` shifts every cell).
    pub fn seed(&self) -> u64 {
        fnv1a(&self.key())
    }

    /// The [`RunSpec`] for repetition `rep` of this cell.
    pub fn run_spec(&self, rep: usize) -> RunSpec {
        RunSpec {
            key_range: self.key_range,
            update_pct: self.update_pct,
            window_n: self.window_n,
            engine: self.engine,
            seed: self.seed().wrapping_add(rep as u64 * 0x9E37),
            ..RunSpec::new(&self.workload, &self.manager, self.threads, self.stop)
        }
    }
}

/// Mean and sample standard deviation over a cell's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agg {
    pub mean: f64,
    pub sd: f64,
}

impl Agg {
    /// No samples: what a table shows as `n/a`.
    const NONE: Agg = Agg {
        mean: f64::NAN,
        sd: f64::NAN,
    };
}

/// Aggregate repetition samples; one sample has zero deviation.
pub fn aggregate(values: &[f64]) -> Agg {
    if values.is_empty() {
        return Agg::NONE;
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let sd = if values.len() < 2 {
        0.0
    } else {
        (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
    };
    Agg { mean, sd }
}

/// A cell's metrics in serialization order, each with how to read it off
/// one repetition.
type MetricTable<O> = [(&'static str, fn(&O) -> f64)];

/// The metrics every STM cell reports.
const STM_METRICS: &MetricTable<RunOutcome> = &[
    ("throughput", |o| o.stats.throughput()),
    ("aborts_per_commit", |o| o.stats.aborts_per_commit()),
    ("total_time_s", |o| o.total_time.as_secs_f64()),
    ("commits", |o| o.stats.commits as f64),
    ("wasted_work", |o| o.stats.wasted_work()),
    ("repeat_conflicts_per_kcommit", |o| {
        o.stats.repeat_conflicts as f64 * 1000.0 / o.stats.commits.max(1) as f64
    }),
    ("avg_committed_duration_us", |o| {
        o.stats.avg_committed_duration().as_secs_f64() * 1e6
    }),
    ("avg_response_time_us", |o| {
        o.stats.avg_response_time().as_secs_f64() * 1e6
    }),
];

/// The metrics a **sim** cell reports. All in virtual steps/counts — no
/// wall time anywhere.
const SIM_METRICS: &MetricTable<wtm_sim::SimOutcome> = &[
    ("makespan", |o| o.makespan as f64),
    ("commits", |o| o.commits as f64),
    ("aborts", |o| o.aborts as f64),
    ("aborts_per_commit", |o| {
        o.aborts as f64 / o.commits.max(1) as f64
    }),
    ("avg_response_steps", |o| {
        o.sum_response as f64 / o.commits.max(1) as f64
    }),
    ("zombie_commits", |o| o.zombie_commits as f64),
    ("all_committed", |o| if o.all_committed { 1.0 } else { 0.0 }),
];

/// `(name, aggregate over the repetitions)` per metric of `table`.
fn aggregate_metrics<O>(outcomes: &[O], table: &MetricTable<O>) -> Vec<(String, Agg)> {
    table
        .iter()
        .map(|&(name, read)| {
            let values: Vec<f64> = outcomes.iter().map(read).collect();
            (name.to_string(), aggregate(&values))
        })
        .collect()
}

/// Aggregated result of one cell (what `results.json` stores).
#[derive(Debug, Clone)]
pub struct CellResult {
    pub workload: String,
    pub manager: String,
    pub threads: usize,
    pub update_pct: u32,
    pub key_range: i64,
    pub window_n: usize,
    /// Engine name (`"eager"` / `"lazy"`) as it appears in the JSON.
    pub engine: String,
    pub reps: usize,
    /// The derived per-cell seed actually used (hex in the JSON).
    pub seed: u64,
    /// `"timed:<secs>"`, `"budget:<txns>"`, or `"sim"`.
    pub stop: String,
    /// Any repetition hit the safety deadline; aggregates are partial.
    /// For sim cells: any repetition failed to commit its whole window.
    pub truncated: bool,
    /// Canonical network spec for sim cells, absent for STM cells.
    pub net: Option<String>,
    /// `(name, aggregate)` in `STM_METRICS` (or `SIM_METRICS`) order.
    pub metrics: Vec<(String, Agg)>,
}

/// One stderr line per repetition of a window cell: what the window
/// boundaries did and how many aborts they saw. Oversubscribed, a window
/// manager reads two ways at much the same throughput: with two CPUs its
/// barrier waiters park and the workers overlap and conflict; when the
/// process gets one CPU's worth of time (`taskset -c 0`, or a neighbour
/// taking the other) the waiters never park, the workers run one whole
/// window at a time and commit without a single abort. `barrier_parks=0`
/// with `aborts=0` tells which of the two a cell's numbers come from.
fn report_boundaries(outcomes: &[RunOutcome]) {
    for (rep, o) in outcomes.iter().enumerate() {
        if let Some(b) = o.boundaries {
            eprintln!(
                "[windowtm]   rep {rep}: windows={} barrier_parks={} barrier_timeouts={} \
                 free_mode_entries={} commits={} aborts={}",
                b.windows_started,
                b.barrier_parks,
                b.barrier_timeouts,
                b.free_mode_entries,
                o.stats.commits,
                o.stats.aborts,
            );
        }
    }
}

impl CellResult {
    /// Aggregate the repetitions of `cell`.
    pub fn from_outcomes(cell: &Cell, outcomes: &[RunOutcome]) -> Self {
        CellResult {
            workload: cell.workload.clone(),
            manager: cell.manager.clone(),
            threads: cell.threads,
            update_pct: cell.update_pct,
            key_range: cell.key_range,
            window_n: cell.window_n,
            engine: cell.engine.name().to_string(),
            reps: outcomes.len(),
            seed: cell.seed(),
            stop: stop_key(cell.stop),
            truncated: outcomes.iter().any(|o| o.truncated),
            net: None,
            metrics: aggregate_metrics(outcomes, STM_METRICS),
        }
    }

    /// Aggregate the repetitions of a **sim** cell. `engine` is `"sim"`
    /// and `stop` is `"sim"` (a sim run stops when the window commits or
    /// the internal step bound trips); virtual-time metrics replace the
    /// wall-clock ones.
    pub fn from_sim_outcomes(cell: &Cell, outcomes: &[wtm_sim::SimOutcome]) -> Self {
        let sim = cell.sim.as_ref().expect("sim cell");
        CellResult {
            workload: cell.workload.clone(),
            manager: cell.manager.clone(),
            threads: cell.threads,
            update_pct: cell.update_pct,
            key_range: cell.key_range,
            window_n: cell.window_n,
            engine: "sim".to_string(),
            reps: outcomes.len(),
            seed: cell.seed(),
            stop: "sim".to_string(),
            truncated: outcomes.iter().any(|o| !o.all_committed),
            net: Some(sim.net.clone()),
            metrics: aggregate_metrics(outcomes, SIM_METRICS),
        }
    }

    /// Metric lookup; `NaN` aggregate when absent.
    pub fn metric(&self, name: &str) -> Agg {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(Agg::NONE, |(_, a)| *a)
    }

    fn to_json(&self) -> Json {
        let mut members = vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("manager".into(), Json::Str(self.manager.clone())),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("update_pct".into(), Json::Num(self.update_pct as f64)),
            ("key_range".into(), Json::Num(self.key_range as f64)),
            ("window_n".into(), Json::Num(self.window_n as f64)),
            ("engine".into(), Json::Str(self.engine.clone())),
        ];
        if let Some(net) = &self.net {
            members.push(("net".into(), Json::Str(net.clone())));
        }
        members.extend([
            ("reps".into(), Json::Num(self.reps as f64)),
            ("seed".into(), Json::Str(format!("{:#x}", self.seed))),
            ("stop".into(), Json::Str(self.stop.clone())),
            ("truncated".into(), Json::Bool(self.truncated)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, agg)| {
                            (
                                name.clone(),
                                Json::Obj(vec![
                                    ("mean".into(), Json::Num(agg.mean)),
                                    ("sd".into(), Json::Num(agg.sd)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        Json::Obj(members)
    }

    /// The one decoder of a stored cell, and so the code form of a cell in
    /// `docs/results-schema.json`: every required field with its type, a
    /// `0x`-hex `seed`, an `engine` this build runs, a `stop` rule of the
    /// pattern, an optional string `net`, and `{mean, sd}` per metric.
    /// The error names the cell `key` and the wrong field.
    pub(crate) fn from_json(key: &str, v: &Json) -> Result<CellResult, String> {
        let bad = |field: &str| format!("cell {key:?}: bad or missing {field}");
        let text = |field: &str, ok: fn(&str) -> bool| match v.get(field).and_then(Json::as_str) {
            Some(s) if ok(s) => Ok(s.to_string()),
            _ => Err(bad(field)),
        };
        let num = |field: &str| {
            v.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(field))
        };
        let any = |_: &str| true;
        let seed = text("seed", |s| {
            s.strip_prefix("0x")
                .is_some_and(|hex| is_all(hex, |b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        })?;
        let seed = u64::from_str_radix(&seed[2..], 16).map_err(|_| bad("seed"))?;
        let net = v.get("net").map(|_| text("net", any)).transpose()?;
        let metrics = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("metrics"))?
            .iter()
            .map(|(name, m)| {
                let stat = |stat: &str| {
                    m.get(stat)
                        .and_then(Json::as_f64_or_nan)
                        .ok_or_else(|| format!("cell {key:?}: metric {name:?} missing {stat}"))
                };
                Ok((
                    name.clone(),
                    Agg {
                        mean: stat("mean")?,
                        sd: stat("sd")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CellResult {
            workload: text("workload", any)?,
            manager: text("manager", any)?,
            threads: num("threads")? as usize,
            update_pct: num("update_pct")? as u32,
            key_range: num("key_range")? as i64,
            window_n: num("window_n")? as usize,
            engine: text("engine", |e| {
                e == "sim" || EngineKind::ALL.iter().any(|k| k.name() == e)
            })?,
            reps: num("reps")? as usize,
            seed,
            stop: text("stop", |s| {
                s == "sim"
                    || s.strip_prefix("timed:")
                        .is_some_and(|t| is_all(t, |b| b.is_ascii_digit() || b == b'.'))
                    || s.strip_prefix("budget:")
                        .is_some_and(|t| is_all(t, |b| b.is_ascii_digit()))
            })?,
            truncated: v
                .get("truncated")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("truncated"))?,
            net,
            metrics,
        })
    }
}

/// `s` is non-empty and every byte of it passes `ok`.
fn is_all(s: &str, ok: impl Fn(u8) -> bool) -> bool {
    !s.is_empty() && s.bytes().all(ok)
}

/// The one cells→table projection every report table goes through:
/// `metric` of `results` with a row per `rows` label and a column per
/// column of `table`. `at` gives a result's `(row, column)` labels, or
/// `None` to leave it out of this table. A cell holds the mean ± sd of
/// the first result placed there, `n/a` where none is. A row holding a
/// truncated result says so in its label: that run stopped early (an STM
/// budget at its safety deadline, a simulation at its step bound), so the
/// row's numbers describe only the part that ran.
pub(crate) fn project(
    results: &[CellResult],
    metric: &str,
    mut table: Table,
    rows: impl IntoIterator<Item = impl Into<String>>,
    at: impl Fn(&CellResult) -> Option<(String, String)>,
) -> Table {
    let placed: Vec<((String, String), &CellResult)> =
        results.iter().filter_map(|r| Some((at(r)?, r))).collect();
    for row in rows {
        let row = row.into();
        let found: Vec<Option<&CellResult>> = table
            .columns
            .iter()
            .map(|col| {
                placed
                    .iter()
                    .find(|((r, c), _)| *r == row && c == col)
                    .map(|&(_, result)| result)
            })
            .collect();
        let aggs: Vec<Agg> = found
            .iter()
            .map(|r| r.map_or(Agg::NONE, |r| r.metric(metric)))
            .collect();
        let label = if found.iter().flatten().any(|r| r.truncated) {
            format!("{row} (truncated)")
        } else {
            row
        };
        table.push_row_sd(
            label,
            aggs.iter().map(|a| a.mean).collect(),
            aggs.iter().map(|a| a.sd).collect(),
        );
    }
    table
}

/// A stored cell and its bytes in `results.json`.
struct Stored {
    result: CellResult,
    /// `"<key>": {…}` as a member of the document's `cells` object,
    /// rendered once: a checkpoint concatenates these, so a suite formats
    /// each cell once, not once per cell that finishes after it.
    fragment: String,
}

impl Stored {
    fn new(key: &str, result: CellResult) -> Self {
        let fragment = format!(
            "    {}: {}",
            Json::Str(key.to_string()).render(),
            result.to_json().render_pretty_at(2)
        );
        Stored { result, fragment }
    }
}

/// The `results.json` schema version this build reads and writes. Bump on
/// any structural change, together with `docs/results-schema.json`.
///
/// v2: cells gained a required `engine` field (`"eager"` / `"lazy"`) and
/// fold the engine into their `v2|…|eng=…` identity keys.
///
/// v3: simulator cells joined the store — `engine` may be `"sim"`, `stop`
/// may be `"sim"`, and sim cells carry an optional `net` string (the
/// canonical network-model spec, also folded into their `v3|sim|…` keys).
/// STM keys were re-versioned to `v3|…` in the same sweep.
pub const RESULTS_SCHEMA_VERSION: f64 = 3.0;

/// Validate a parsed `results.json` document against the committed schema
/// (`docs/results-schema.json`) and return its cells, decoded: the
/// top-level shape here, each cell through `CellResult::from_json`.
/// Returns the first violation found.
pub fn validate_results(doc: &Json) -> Result<Vec<(String, CellResult)>, String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_f64)
        .ok_or("missing schema_version")?;
    if version != RESULTS_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {RESULTS_SCHEMA_VERSION}"
        ));
    }
    doc.get("generator")
        .and_then(Json::as_str)
        .ok_or("missing generator string")?;
    doc.get("cells")
        .and_then(Json::as_obj)
        .ok_or("missing cells object")?
        .iter()
        .map(|(key, cell)| Ok((key.clone(), CellResult::from_json(key, cell)?)))
        .collect()
}

/// The document around the cells, in the committed schema.
fn document(cells: Json) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::Num(RESULTS_SCHEMA_VERSION)),
        (
            "generator".into(),
            Json::Str(format!("windowtm {}", env!("CARGO_PKG_VERSION"))),
        ),
        ("cells".into(), cells),
    ])
}

/// One `results.journal` line, `{"<key>": {…}}`, decoded as a cell of
/// `results.json` is.
fn journal_cell(line: &str) -> Result<(String, CellResult), String> {
    match Json::parse(line).map_err(|e| e.to_string())?.as_obj() {
        Some([(key, cell)]) => Ok((key.clone(), CellResult::from_json(key, cell)?)),
        _ => Err("not one cell".into()),
    }
}

/// The `results.json` store: a key → [`CellResult`] map persisted next to
/// the CSV reports; doubles as the resume checkpoint. A finished cell is
/// appended to `results.journal` as one `{"<key>": {…}}` line;
/// [`save`](Self::save) folds the journal into `results.json`.
pub struct ResultsStore {
    path: PathBuf,
    cells: BTreeMap<String, Stored>,
    /// Append handle on the journal, open while it holds cells that
    /// `results.json` does not.
    journal: Option<File>,
    /// Cells found on disk at open time (resume candidates).
    pub loaded: usize,
}

impl ResultsStore {
    /// Load `out_dir/results.json` if present and valid: then every cell
    /// in it resumes. A missing, unparsable or invalid file starts an
    /// empty store (noted on stderr — stale results are never silently
    /// trusted). A journal left by a killed run is replayed on top, up to
    /// its first line that does not decode (the torn one the kill left),
    /// and compacted into `results.json`.
    pub fn open(out_dir: &Path) -> Self {
        let path = out_dir.join("results.json");
        let mut cells = BTreeMap::new();
        if let Ok(text) = std::fs::read_to_string(&path) {
            match Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|doc| validate_results(&doc))
            {
                Ok(decoded) => {
                    for (key, r) in decoded {
                        let stored = Stored::new(&key, r);
                        cells.insert(key, stored);
                    }
                }
                Err(e) => {
                    eprintln!(
                        "[windowtm] ignoring existing {}: {e}; starting fresh",
                        path.display()
                    );
                }
            }
        }
        let mut store = ResultsStore {
            path,
            cells,
            journal: None,
            loaded: 0,
        };
        if let Ok(bytes) = std::fs::read(store.journal_path()) {
            for (n, line) in String::from_utf8_lossy(&bytes).lines().enumerate() {
                match journal_cell(line) {
                    Ok((key, r)) => {
                        let stored = Stored::new(&key, r);
                        store.cells.insert(key, stored);
                    }
                    Err(e) => {
                        eprintln!("[windowtm] journal line {} is torn ({e})", n + 1);
                        break;
                    }
                }
            }
            if let Err(e) = store.save() {
                eprintln!("[windowtm] journal compaction failed: {e}");
            }
        }
        store.loaded = store.cells.len();
        store
    }

    pub fn get(&self, key: &str) -> Option<&CellResult> {
        self.cells.get(key).map(|s| &s.result)
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The full document as a [`Json`] tree: the reference
    /// [`save`](Self::save)'s bytes are tested against.
    #[cfg(test)]
    fn to_json(&self) -> Json {
        document(Json::Obj(
            self.cells
                .iter()
                .map(|(k, v)| (k.clone(), v.result.to_json()))
                .collect(),
        ))
    }

    /// Insert one result and append it to the journal: one line a cell,
    /// so an interrupted suite loses at most the in-flight cell.
    pub fn checkpoint(&mut self, key: String, result: CellResult) -> std::io::Result<()> {
        let mut line = Json::Obj(vec![(key.clone(), result.to_json())]).render();
        line.push('\n');
        let stored = Stored::new(&key, result);
        self.cells.insert(key, stored);
        if self.journal.is_none() {
            if let Some(dir) = self.path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            let file = File::options()
                .create(true)
                .append(true)
                .open(self.journal_path())?;
            self.journal = Some(file);
        }
        self.journal
            .as_mut()
            .expect("opened above")
            .write_all(line.as_bytes())
    }

    /// Rewrite `results.json` from the current map, then drop the journal
    /// it now covers: the document frame around the cells' cached
    /// fragments, written beside the file and renamed over it, so a run
    /// killed mid-write leaves the previous file and the journal whole.
    pub fn save(&mut self) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let frame = document(Json::Obj(Vec::new())).render_pretty();
        let (head, tail) = frame
            .rsplit_once("{}")
            .expect("an empty cells object renders as {}");
        let fragments: usize = self.cells.values().map(|s| s.fragment.len() + 2).sum();
        let mut doc = String::with_capacity(frame.len() + fragments + 4);
        doc.push_str(head);
        if self.cells.is_empty() {
            doc.push_str("{}");
        } else {
            for (i, stored) in self.cells.values().enumerate() {
                doc.push_str(if i == 0 { "{\n" } else { ",\n" });
                doc.push_str(&stored.fragment);
            }
            doc.push_str("\n  }");
        }
        doc.push_str(tail);
        let tmp = self.path.with_extension("json.tmp");
        std::fs::write(&tmp, doc)?;
        std::fs::rename(&tmp, &self.path)?;
        self.journal = None;
        match std::fs::remove_file(self.journal_path()) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    fn journal_path(&self) -> PathBuf {
        self.path.with_extension("journal")
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The shared executor: runs specs cell by cell with progress/ETA and
/// resume through a [`ResultsStore`].
pub struct Executor {
    store: ResultsStore,
    /// Cells actually executed by this process (not resumed).
    ran: usize,
    /// Cells skipped because the store already had them.
    pub skipped: usize,
    started: Instant,
    spent_running: Duration,
}

impl Executor {
    pub fn new(out_dir: &Path) -> Self {
        let store = ResultsStore::open(out_dir);
        if store.loaded > 0 {
            eprintln!(
                "[windowtm] resume: found {} cached cell(s) in {}",
                store.loaded,
                store.path().display()
            );
        }
        Executor {
            store,
            ran: 0,
            skipped: 0,
            started: Instant::now(),
            spent_running: Duration::ZERO,
        }
    }

    pub fn store(&self) -> &ResultsStore {
        &self.store
    }

    /// Run every cell of `spec` (resumed cells are returned from the
    /// store without re-running), in grid order.
    pub fn run(&mut self, spec: &ExperimentSpec) -> Vec<CellResult> {
        let cells = spec.cells();
        let total = cells.len();
        let mut results = Vec::with_capacity(total);
        let mut skipped_here = 0usize;
        for (i, cell) in cells.iter().enumerate() {
            let key = cell.key();
            if let Some(cached) = self.store.get(&key) {
                skipped_here += 1;
                self.skipped += 1;
                results.push(cached.clone());
                continue;
            }
            eprintln!(
                "[windowtm] {} {}/{} {} / {} / M={}{}{}",
                spec.id,
                i + 1,
                total,
                cell.workload,
                cell.manager,
                cell.threads,
                match &cell.sim {
                    Some(s) => format!(" net={}", s.net),
                    None => format!(" upd={}%", cell.update_pct),
                },
                self.eta(total - i),
            );
            let t0 = Instant::now();
            let result = if let Some(sim) = &cell.sim {
                let outcomes: Vec<wtm_sim::SimOutcome> = (0..spec.reps.max(1))
                    .map(|r| {
                        let run_spec = wtm_sim::SimRunSpec {
                            scenario: cell.workload.clone(),
                            scheduler: cell.manager.clone(),
                            m: cell.threads,
                            n: cell.window_n,
                            tau: sim.tau,
                            net: sim.net.clone(),
                            seed: cell.seed().wrapping_add(r as u64 * 0x9E37),
                        };
                        wtm_sim::run_sim(&run_spec, false)
                            .unwrap_or_else(|e| panic!("sim cell {}: {e}", cell.key()))
                            .outcome
                    })
                    .collect();
                CellResult::from_sim_outcomes(cell, &outcomes)
            } else {
                let outcomes: Vec<RunOutcome> = (0..spec.reps.max(1))
                    .map(|r| run_one(&cell.run_spec(r)))
                    .collect();
                report_boundaries(&outcomes);
                CellResult::from_outcomes(cell, &outcomes)
            };
            self.spent_running += t0.elapsed();
            self.ran += 1;
            if let Err(e) = self.store.checkpoint(key.clone(), result) {
                eprintln!("[windowtm] checkpoint write failed: {e}");
            }
            results.push(self.store.get(&key).expect("just inserted").clone());
        }
        if skipped_here < total {
            if let Err(e) = self.store.save() {
                eprintln!("[windowtm] results write failed: {e}");
            }
        }
        if skipped_here > 0 {
            eprintln!(
                "[windowtm] {}: resume: skipped {skipped_here}/{total} cached cell(s)",
                spec.id
            );
        }
        results
    }

    /// `" (eta ~Ns)"` once at least one cell has run; cells are assumed
    /// roughly equal-cost (true within a spec: same stop rule and reps).
    fn eta(&self, remaining: usize) -> String {
        if self.ran == 0 || remaining == 0 {
            return String::new();
        }
        let per_cell = self.spent_running / self.ran as u32;
        let eta = per_cell * remaining as u32;
        format!(" (eta ~{}s)", eta.as_secs().max(1))
    }

    /// Total wall time since the executor was created.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> ExperimentSpec {
        let mut s = ExperimentSpec::new("t", StopRule::Timed(Duration::from_millis(40)));
        s.workloads = vec!["List".into(), "RBTree".into()];
        s.managers = vec!["Polka".into(), "Greedy".into(), "Online-Dynamic".into()];
        s.threads = vec![1, 2];
        s.update_pcts = vec![20, 100];
        s.reps = 2;
        s.window_n = 8;
        s
    }

    #[test]
    fn grid_expands_to_the_full_factorial() {
        let cells = grid().cells();
        assert_eq!(cells.len(), 2 * 3 * 2 * 2);
        // Workload-major order, managers innermost.
        assert_eq!(cells[0].workload, "List");
        assert_eq!(cells[0].manager, "Polka");
        assert_eq!(cells[1].manager, "Greedy");
        assert_eq!(cells.last().unwrap().workload, "RBTree");
        // Cell keys are unique.
        let mut keys: Vec<String> = cells.iter().map(Cell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn key_range_resolves_registry_defaults() {
        let cells = grid().cells();
        assert_eq!(cells[0].key_range, 64, "List default");
        assert!(cells.iter().any(|c| c.key_range == 256), "RBTree default");
    }

    #[test]
    fn seeds_are_deterministic_and_cell_specific() {
        let a = grid().cells();
        let b = grid().cells();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed(), y.seed(), "same cell, same seed");
        }
        let mut seeds: Vec<u64> = a.iter().map(Cell::seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "distinct cells get distinct seeds");
        // The base seed shifts every cell.
        let mut shifted = grid();
        shifted.base_seed = 0xDEAD;
        for (x, y) in a.iter().zip(shifted.cells().iter()) {
            assert_ne!(x.seed(), y.seed());
        }
        // Repetitions get distinct engine seeds off the cell seed.
        assert_ne!(a[0].run_spec(0).seed, a[0].run_spec(1).seed);
        assert_eq!(a[0].run_spec(0).seed, a[0].seed());
    }

    #[test]
    fn engine_is_part_of_cell_identity() {
        let eager = grid().cells();
        let mut lazy_spec = grid();
        lazy_spec.engine = EngineKind::Lazy;
        let lazy = lazy_spec.cells();
        for (e, l) in eager.iter().zip(&lazy) {
            assert!(e.key().contains("|eng=eager|"), "{}", e.key());
            assert!(l.key().contains("|eng=lazy|"), "{}", l.key());
            assert_ne!(e.key(), l.key(), "engine must split the checkpoint key");
            assert_ne!(e.seed(), l.seed(), "engine shifts the derived seed");
            assert_eq!(l.run_spec(0).engine, EngineKind::Lazy);
        }
    }

    #[test]
    fn aggregate_mean_and_sample_sd() {
        let a = aggregate(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((a.mean - 5.0).abs() < 1e-12);
        assert!((a.sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        let single = aggregate(&[3.5]);
        assert_eq!(single.mean, 3.5);
        assert_eq!(single.sd, 0.0);
        assert!(aggregate(&[]).mean.is_nan());
    }

    #[test]
    fn cell_result_propagates_truncation_and_aggregates() {
        let cell = &grid().cells()[0];
        let mut spec = cell.run_spec(0);
        spec.stop = StopRule::Budget(60);
        let ok = run_one(&spec);
        assert!(!ok.truncated);
        let mut bad = ok;
        bad.truncated = true;
        let r = CellResult::from_outcomes(cell, &[ok, bad]);
        assert!(r.truncated, "one truncated rep flags the cell");
        assert_eq!(r.reps, 2);
        let thr = r.metric("throughput");
        assert!(thr.mean > 0.0);
        assert!(thr.sd >= 0.0);
        assert!(r.metric("nonexistent").mean.is_nan());
        let all_ok = CellResult::from_outcomes(cell, &[ok, ok]);
        assert!(!all_ok.truncated);
        assert_eq!(all_ok.metric("throughput").sd, 0.0, "identical reps");
    }

    #[test]
    fn cell_result_json_roundtrip() {
        let cell = &grid().cells()[0];
        let out = run_one(&cell.run_spec(0));
        let r = CellResult::from_outcomes(cell, &[out]);
        let back = CellResult::from_json(&cell.key(), &r.to_json()).unwrap();
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.seed, r.seed);
        assert_eq!(back.stop, r.stop);
        assert_eq!(back.engine, r.engine);
        assert_eq!(back.engine, "eager");
        assert_eq!(back.metrics.len(), r.metrics.len());
        for ((n1, a1), (n2, a2)) in r.metrics.iter().zip(&back.metrics) {
            assert_eq!(n1, n2);
            assert!(a1.mean == a2.mean || (a1.mean.is_nan() && a2.mean.is_nan()));
        }
    }

    #[test]
    fn executor_resumes_from_results_json() {
        let dir = std::env::temp_dir().join(format!("wtm_exec_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut spec = ExperimentSpec::new("resume", StopRule::Budget(40));
        spec.workloads = vec!["List".into()];
        spec.managers = vec!["Polka".into(), "Greedy".into()];
        spec.threads = vec![2];
        spec.window_n = 8;

        let mut first = Executor::new(&dir);
        let r1 = first.run(&spec);
        assert_eq!(r1.len(), 2);
        assert_eq!(first.skipped, 0);
        let json_text = std::fs::read_to_string(dir.join("results.json")).unwrap();
        assert_eq!(json_text, first.store().to_json().render_pretty());
        assert!(
            !dir.join("results.journal").exists(),
            "the run's save dropped it"
        );
        let doc = Json::parse(&json_text).unwrap();
        validate_results(&doc).expect("committed schema");

        // Same spec, fresh executor: every cell is served from disk and
        // the checkpoint file is untouched.
        let mut second = Executor::new(&dir);
        assert_eq!(second.store().loaded, 2);
        let r2 = second.run(&spec);
        assert_eq!(second.skipped, 2);
        assert_eq!(r2.len(), 2);
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.metric("commits").mean, b.metric("commits").mean);
        }
        assert_eq!(
            std::fs::read_to_string(dir.join("results.json")).unwrap(),
            json_text,
            "resume must be a byte-identical no-op"
        );

        // A different base seed is a different cell identity: nothing is
        // reused.
        let mut reseeded = spec.clone();
        reseeded.base_seed = 7;
        let mut third = Executor::new(&dir);
        third.run(&reseeded);
        assert_eq!(third.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A result as `from_outcomes` / `from_sim_outcomes` shape it, without
    /// running anything; an aggregate of no samples is NaN.
    fn result(net: Option<&str>, metrics: &[(&str, f64, f64)]) -> CellResult {
        CellResult {
            workload: "List \"quoted\"".into(),
            manager: "Online-Dynamic@phi=2".into(),
            threads: 4,
            update_pct: 20,
            key_range: 64,
            window_n: 8,
            engine: if net.is_some() { "sim" } else { "eager" }.into(),
            reps: 2,
            seed: 0xFEED_FACE_0123_4567,
            stop: if net.is_some() { "sim" } else { "timed:0.04" }.into(),
            truncated: false,
            net: net.map(str::to_string),
            metrics: metrics
                .iter()
                .map(|&(name, mean, sd)| (name.to_string(), Agg { mean, sd }))
                .collect(),
        }
    }

    #[test]
    fn save_writes_the_bytes_the_json_tree_renders() {
        let dir = std::env::temp_dir().join(format!("wtm_store_bytes_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let on_disk = |store: &ResultsStore| std::fs::read_to_string(store.path()).unwrap();

        let mut store = ResultsStore::open(&dir);
        store.save().unwrap();
        assert_eq!(on_disk(&store), store.to_json().render_pretty(), "no cells");
        // Inserted out of key order, one key needing escapes, STM and sim
        // cells, finite, fractional and NaN aggregates.
        let cells = [
            (
                "v3|wl=b",
                result(None, &[("throughput", 1234.5, 0.1 + 0.2)]),
            ),
            (
                "v3|sim|sc=a\\\"b\"|net=fixed:4",
                result(Some("fixed:4"), &[("makespan", 40.0, 0.0)]),
            ),
            (
                "v3|wl=a",
                result(None, &[("commits", f64::NAN, f64::NAN), ("x", 1e21, -0.0)]),
            ),
            ("v3|sim|sc=c|net=zero", result(Some("zero"), &[])),
        ];
        for (n, (key, r)) in cells.into_iter().enumerate() {
            store.checkpoint(key.to_string(), r).unwrap();
            store.save().unwrap();
            assert_eq!(on_disk(&store), store.to_json().render_pretty(), "{key}");
            assert_eq!(store.len(), n + 1);
        }
        let written = on_disk(&store);
        validate_and_count(&written, 4);

        // A reopened store renders what it loaded to the same bytes, and
        // keeps doing so after taking a new cell.
        let mut reopened = ResultsStore::open(&dir);
        assert_eq!(reopened.loaded, 4);
        reopened.save().unwrap();
        assert_eq!(on_disk(&reopened), written);
        assert_eq!(written, reopened.to_json().render_pretty());
        reopened
            .checkpoint("v3|wl=0".into(), result(None, &[("commits", 7.0, 0.0)]))
            .unwrap();
        reopened.save().unwrap();
        assert_eq!(on_disk(&reopened), reopened.to_json().render_pretty());
        validate_and_count(&on_disk(&reopened), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn validate_and_count(text: &str, cells: usize) {
        let doc = Json::parse(text).unwrap();
        validate_results(&doc).expect("committed schema");
        assert_eq!(doc.get("cells").unwrap().as_obj().unwrap().len(), cells);
    }

    #[test]
    fn save_goes_through_a_tmp_file_that_open_never_reads() {
        let dir = std::env::temp_dir().join(format!("wtm_store_tmp_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let tmp = dir.join("results.json.tmp");

        // A run killed before its first checkpoint was renamed: only a
        // partial .tmp exists. Nothing is loaded from it.
        std::fs::write(&tmp, "{\n  \"schema_version\": 3,\n  \"cells\": {").unwrap();
        let mut store = ResultsStore::open(&dir);
        assert_eq!(store.loaded, 0);
        store
            .checkpoint("k1".into(), result(None, &[("commits", 1.0, 0.0)]))
            .unwrap();
        store.save().unwrap();
        assert!(!tmp.exists(), "the save renamed its .tmp over results.json");
        let good = std::fs::read_to_string(store.path()).unwrap();

        // Killed mid-write of a later checkpoint: results.json still holds
        // the previous one whole, whatever the .tmp beside it holds.
        std::fs::write(&tmp, &good[..good.len() / 2]).unwrap();
        let mut resumed = ResultsStore::open(&dir);
        assert_eq!(resumed.loaded, 1, "the torn .tmp cost no finished cell");
        assert!(resumed.get("k1").is_some());
        resumed
            .checkpoint("k2".into(), result(Some("zero"), &[]))
            .unwrap();
        resumed.save().unwrap();
        assert!(!tmp.exists());
        assert_eq!(ResultsStore::open(&dir).loaded, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_results_file_that_validates_resumes_every_cell() {
        let dir = std::env::temp_dir().join(format!("wtm_store_valid_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultsStore::open(&dir);
        store
            .checkpoint("k1".into(), result(None, &[("commits", 1.0, 0.0)]))
            .unwrap();
        store.save().unwrap();
        let good = std::fs::read_to_string(store.path()).unwrap();
        // The written file, then a cell the schema rejects in each of the
        // fields a second decoder once let through: validating and
        // resuming are one decision, so a file either loads whole or not
        // at all.
        for (from, to) in [
            ("", ""),
            ("\"0xfeedface01234567\"", "\"12\""),
            ("\"eager\"", "\"turbo\""),
            ("\"timed:0.04\"", "\"forever\""),
        ] {
            std::fs::write(store.path(), good.replace(from, to)).unwrap();
            let text = std::fs::read_to_string(store.path()).unwrap();
            let valid = validate_results(&Json::parse(&text).unwrap()).is_ok();
            let loaded = ResultsStore::open(&dir).loaded;
            assert_eq!(loaded, usize::from(valid), "{to}: valid = {valid}");
            assert_eq!(valid, from.is_empty(), "{to}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_results_file_nested_past_the_parser_depth_starts_an_empty_store() {
        let dir = std::env::temp_dir().join(format!("wtm_store_deep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Used to overflow the stack and abort the process.
        std::fs::write(dir.join("results.json"), "[".repeat(1_000_000)).unwrap();
        let mut store = ResultsStore::open(&dir);
        assert_eq!((store.loaded, store.len()), (0, 0));
        store
            .checkpoint("k1".into(), result(None, &[("commits", 1.0, 0.0)]))
            .unwrap();
        assert_eq!(
            ResultsStore::open(&dir).loaded,
            1,
            "the journal replaced it"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn minimal_valid() -> Json {
        Json::parse(
            r#"{
              "schema_version": 3,
              "generator": "windowtm test",
              "cells": {
                "k1": {
                  "workload": "List", "manager": "Polka", "engine": "eager",
                  "threads": 2,
                  "update_pct": 100, "key_range": 64, "window_n": 8,
                  "reps": 2, "seed": "0x1", "stop": "timed:0.06",
                  "truncated": false,
                  "metrics": { "throughput": { "mean": 10.0, "sd": 1.0 } }
                }
              }
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn validator_accepts_wellformed_results() {
        validate_results(&minimal_valid()).unwrap();
    }

    #[test]
    fn validator_accepts_sim_cells_and_types_the_net_field() {
        let doc = Json::parse(
            r#"{
              "schema_version": 3,
              "generator": "windowtm test",
              "cells": {
                "k1": {
                  "workload": "fig2-shape", "manager": "Greedy", "engine": "sim",
                  "net": "fixed:4",
                  "threads": 8,
                  "update_pct": 0, "key_range": 0, "window_n": 16,
                  "reps": 2, "seed": "0x1", "stop": "sim",
                  "truncated": false,
                  "metrics": { "makespan": { "mean": 40.0, "sd": 0.0 } }
                }
              }
            }"#,
        )
        .unwrap();
        validate_results(&doc).unwrap();
        // A non-string net is a schema violation.
        let bad = Json::parse(&doc.render().replace("\"fixed:4\"", "4")).unwrap();
        assert!(validate_results(&bad).is_err());
    }

    #[test]
    fn validator_enforces_the_schema_patterns_and_names_the_field() {
        let good = minimal_valid().render();
        for (field, from, to) in [
            ("seed", "\"0x1\"", "\"12\""),
            ("seed", "\"0x1\"", "\"0xA\""),
            ("seed", "\"0x1\"", "\"0x\""),
            ("engine", "\"eager\"", "\"turbo\""),
            ("engine", "\"eager\"", "\"Eager\""),
            ("stop", "\"timed:0.06\"", "\"forever\""),
            ("stop", "\"timed:0.06\"", "\"budget:\""),
        ] {
            let doc = Json::parse(&good.replace(from, to)).unwrap();
            let e = validate_results(&doc).expect_err(to);
            assert!(e.contains("\"k1\"") && e.contains(field), "{to}: {e}");
        }
    }

    #[test]
    fn validator_rejects_missing_fields() {
        // Drop one required field at a time: the error names it.
        let doc = minimal_valid();
        let cell = doc.get("cells").and_then(|c| c.get("k1")).unwrap();
        for (victim, _) in cell.as_obj().unwrap() {
            let stripped = cell
                .render()
                .replacen(&format!("\"{victim}\":"), "\"x\":", 1);
            let text = doc.render().replace(&cell.render(), &stripped);
            let e = validate_results(&Json::parse(&text).unwrap()).expect_err(victim);
            assert!(e.contains("\"k1\"") && e.contains(victim.as_str()), "{e}");
        }
        assert!(validate_results(&Json::Obj(vec![])).is_err());
    }

    #[test]
    fn project_places_results_and_labels_truncated_rows() {
        let mut slow = result(None, &[("throughput", 5.0, 1.0)]);
        slow.truncated = true;
        let fast = result(None, &[("throughput", 9.0, 0.0)]);
        let t = project(
            &[fast, slow],
            "throughput",
            Table::new("t", "row", vec!["a".into(), "b".into()]),
            ["x", "y"],
            |r| Some(("x".into(), if r.truncated { "b" } else { "a" }.into())),
        );
        assert_eq!(t.rows, vec!["x (truncated)", "y"]);
        assert_eq!((t.cells[0][0], t.sds[0][0]), (9.0, 0.0));
        assert_eq!((t.cells[0][1], t.sds[0][1]), (5.0, 1.0));
        assert!(t.cells[1].iter().chain(&t.sds[1]).all(|v| v.is_nan()));
    }

    fn sim_grid() -> ExperimentSpec {
        let mut s = ExperimentSpec::new("simt", StopRule::Budget(0));
        s.managers = vec!["Greedy".into(), "Online-Dynamic".into()];
        s.threads = vec![4];
        s.reps = 2;
        s.window_n = 5;
        s.sim = Some(SimAxes {
            scenarios: vec!["fig2-shape".into(), "distributed@nodes=2,skew=1".into()],
            nets: vec!["zero".into(), "fixed:2".into()],
            tau: 2,
        });
        s
    }

    #[test]
    fn sim_grid_expands_scenarios_by_nets_with_net_in_the_key() {
        let cells = sim_grid().cells();
        // 2 scenarios x 2 nets x 1 thread-count x 2 managers.
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].workload, "fig2-shape");
        assert_eq!(cells[0].manager, "Greedy");
        assert_eq!(cells[0].sim.as_ref().unwrap().net, "zero");
        assert_eq!(cells[2].sim.as_ref().unwrap().net, "fixed:2");
        // The network model splits cell identity (and hence the seed).
        assert!(cells[0].key().starts_with("v3|sim|"), "{}", cells[0].key());
        assert!(cells[0].key().contains("|net=zero|"));
        assert!(cells[2].key().contains("|net=fixed:2|"));
        assert_ne!(cells[0].key(), cells[2].key());
        assert_ne!(cells[0].seed(), cells[2].seed());
        let mut keys: Vec<String> = cells.iter().map(Cell::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn sim_cells_run_aggregate_and_resume_byte_identically() {
        let dir = std::env::temp_dir().join(format!("wtm_sim_exec_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = sim_grid();

        let mut first = Executor::new(&dir);
        let r1 = first.run(&spec);
        assert_eq!(r1.len(), 8);
        assert_eq!(first.skipped, 0);
        for r in &r1 {
            assert_eq!(r.engine, "sim");
            assert_eq!(r.stop, "sim");
            assert!(r.net.is_some());
            assert!(!r.truncated, "smoke windows must fully commit");
            assert!(r.metric("makespan").mean > 0.0);
            assert_eq!(r.metric("all_committed").mean, 1.0);
            // Reps are decorrelated (distinct derived seeds), so sd is
            // merely finite; determinism shows up as the byte-identical
            // re-run below, not as zero spread.
            assert!(r.metric("makespan").sd.is_finite());
        }
        let json_text = std::fs::read_to_string(dir.join("results.json")).unwrap();
        assert_eq!(json_text, first.store().to_json().render_pretty());
        let doc = Json::parse(&json_text).unwrap();
        validate_results(&doc).expect("committed schema");

        let mut second = Executor::new(&dir);
        let r2 = second.run(&spec);
        assert_eq!(second.skipped, 8);
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.net, b.net);
            assert_eq!(a.metric("makespan").mean, b.metric("makespan").mean);
        }
        assert_eq!(
            std::fs::read_to_string(dir.join("results.json")).unwrap(),
            json_text,
            "sim resume must be a byte-identical no-op"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run killed after `k` cells leaves `k` journal lines and a torn
    /// one: exactly those `k` resume, and the finished run's results.json
    /// is a fresh run's, byte for byte.
    #[test]
    fn a_torn_journal_resumes_its_complete_lines() {
        let tmp = std::env::temp_dir();
        let fresh = tmp.join(format!("wtm_journal_fresh_{}", std::process::id()));
        let killed = tmp.join(format!("wtm_journal_killed_{}", std::process::id()));
        let (_, _) = (
            std::fs::remove_dir_all(&fresh),
            std::fs::remove_dir_all(&killed),
        );
        let spec = sim_grid();
        let want = Executor::new(&fresh).run(&spec);
        let want_bytes = std::fs::read(fresh.join("results.json")).unwrap();
        let lines: Vec<String> = spec
            .cells()
            .iter()
            .zip(&want)
            .map(|(c, r)| Json::Obj(vec![(c.key(), r.to_json())]).render() + "\n")
            .collect();
        for k in [0, 1, 5, lines.len() - 1] {
            let _ = std::fs::remove_dir_all(&killed);
            std::fs::create_dir_all(&killed).unwrap();
            let torn = &lines[k][..lines[k].len() / 2];
            std::fs::write(killed.join("results.journal"), lines[..k].concat() + torn).unwrap();
            let mut resumed = Executor::new(&killed);
            assert_eq!(resumed.store().loaded, k);
            assert!(
                !killed.join("results.journal").exists(),
                "open compacted it"
            );
            resumed.run(&spec);
            assert_eq!(resumed.skipped, k);
            assert_eq!(
                std::fs::read(killed.join("results.json")).unwrap(),
                want_bytes,
                "k = {k}"
            );
        }
        let (_, _) = (
            std::fs::remove_dir_all(&fresh),
            std::fs::remove_dir_all(&killed),
        );
    }

    #[test]
    fn sim_cell_result_json_roundtrips_the_net_field() {
        let cell = &sim_grid().cells()[0];
        let outcome = wtm_sim::run_sim(
            &wtm_sim::SimRunSpec {
                scenario: cell.workload.clone(),
                scheduler: cell.manager.clone(),
                m: cell.threads,
                n: cell.window_n,
                tau: 2,
                net: "zero".into(),
                seed: 1,
            },
            false,
        )
        .unwrap()
        .outcome;
        let r = CellResult::from_sim_outcomes(cell, &[outcome]);
        let back = CellResult::from_json(&cell.key(), &r.to_json()).unwrap();
        assert_eq!(back.net.as_deref(), Some("zero"));
        assert_eq!(back.engine, "sim");
        assert_eq!(back.stop, "sim");
        assert_eq!(back.metric("makespan").mean, r.metric("makespan").mean);
        // STM results keep omitting the field entirely.
        let stm = &grid().cells()[0];
        let out = run_one(&stm.run_spec(0));
        let stm_r = CellResult::from_outcomes(stm, &[out]);
        assert!(stm_r.net.is_none());
        assert!(!stm_r.to_json().render_pretty().contains("\"net\""));
    }
}
