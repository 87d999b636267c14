//! `windowtm trace` — transaction-event tracing over real experiment
//! cells.
//!
//! Runs an instrumented cell per `(workload, manager)` pair, drains the
//! per-thread ring buffers, and reports three views of each stream:
//!
//! * **TR1** — the who-killed-whom conflict matrix (`kills[killer][victim]`),
//!   the contention-manager behaviour the aggregate abort counters hide;
//! * **TR2** — log₂-bucketed latency histograms of commits, aborts,
//!   contention-manager waits, and barrier waits;
//! * **TR3** — raw event counts per kind.
//!
//! The three are computed straight from the drained event slice.
//!
//! Each cell's full stream is also exported as Chrome-trace JSON
//! (`trace_<benchmark>_<manager>.json`, rendered by `chrome_json`
//! through [`Json`]), loadable in Perfetto or `chrome://tracing` for
//! timeline inspection.

use std::path::Path;

use wtm_stm::sync::BarrierWait;
use wtm_stm::trace::{self, abort_reason_name, unpack_conflict, Event, EventKind};
use wtm_stm::Resolution;

use crate::json::Json;
use crate::preset::Preset;
use crate::report::{slugify, Table};
use crate::runner::{run_one, RunSpec, StopRule};

/// The cells `windowtm trace` instruments: one classic manager (Polka)
/// and one window manager (Online-Dynamic) on the two benchmarks the
/// paper discusses most. Event streams cannot be reconstructed from a
/// checkpoint, so trace cells always re-run (they are not part of
/// `results.json`).
pub const TRACE_CELLS: &[(&str, &str)] = &[
    ("List", "Polka"),
    ("List", "Online-Dynamic"),
    ("RBTree", "Polka"),
    ("RBTree", "Online-Dynamic"),
];

/// One instrumented run and its drained event stream.
pub struct TraceCell {
    pub workload: String,
    pub manager: String,
    pub threads: usize,
    pub commits: u64,
    pub events: Vec<Event>,
    /// Events that fell out of the ring buffers (stream was larger than
    /// a ring's fixed capacity).
    pub dropped: u64,
    /// Window barrier waits that timed out, as the run's window manager
    /// counted them (0 under a classic manager). Always zero for a healthy cell: the harness
    /// sizes every window manager with `m` = thread count, so a timeout
    /// means the window machinery broke and the cell silently degraded to
    /// free mode mid-measurement.
    pub barrier_timeouts: u64,
    /// Chrome-trace JSON of the full stream.
    pub json: String,
}

/// The Chrome-trace (Trace Event Format) document of one event stream,
/// with `metadata` as its `otherData`. Span events (commit, abort,
/// cm-wait, barrier-wait) become `"ph": "X"` complete events that start
/// at `ts_ns − dur_ns`; the others become thread-scoped `"ph": "i"`
/// instants. Times are in µs, the format's unit. Events are rendered one
/// at a time into the frame of the document, never built into one tree:
/// a `--quick` cell holds up to 8 × 65 536 of them.
fn chrome_json(events: &[Event], metadata: &[(&str, String)]) -> String {
    let other = metadata
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
        .collect();
    let mut out = String::with_capacity(64 + events.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&chrome_event(ev).render());
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":");
    out.push_str(&Json::Obj(other).render());
    out.push('}');
    out
}

/// One event as a Trace Event Format object. Payload words are JSON
/// numbers, exact below 2⁵³, as every id, frame and rank the engines hand
/// out is.
fn chrome_event(ev: &Event) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let num = |word: u64| Json::Num(word as f64);
    let text = |s: &str| Json::Str(s.to_string());
    let args = match ev.kind {
        EventKind::TxBegin | EventKind::Commit => vec![("txn", num(ev.a)), ("attempt", num(ev.b))],
        EventKind::Abort => vec![
            ("txn", num(ev.a)),
            ("reason", text(abort_reason_name(ev.b))),
        ],
        EventKind::Conflict => {
            let (kind, verdict, killed) = unpack_conflict(ev.b);
            vec![
                ("enemy_tid", num(ev.a)),
                ("kind", text(kind.name())),
                ("verdict", text(verdict.name())),
                ("killed", Json::Bool(killed)),
            ]
        }
        EventKind::Wait => vec![("enemy_tid", num(ev.a))],
        EventKind::BarrierWait => vec![
            ("phase", num(ev.a)),
            ("outcome", text(BarrierWait::ALL[ev.b as usize].name())),
        ],
        EventKind::FrameAssign => vec![("frame", num(ev.a)), ("rank", num(ev.b))],
        EventKind::WindowStart => vec![("window", num(ev.a)), ("q", num(ev.b))],
        EventKind::FrameAdvance => vec![("frame", num(ev.a)), ("high_water", num(ev.b))],
    };
    let span = matches!(
        ev.kind,
        EventKind::Commit | EventKind::Abort | EventKind::Wait | EventKind::BarrierWait
    );
    let obj = |members: Vec<(&str, Json)>| {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    obj(vec![
        ("name", text(ev.kind.name())),
        ("cat", text("wtm")),
        ("ph", text(if span { "X" } else { "i" })),
        ("ts", us(ev.ts_ns.saturating_sub(ev.dur_ns))),
        ("pid", num(0)),
        ("tid", num(ev.tid.into())),
        if span {
            ("dur", us(ev.dur_ns))
        } else {
            ("s", text("t"))
        },
        ("args", obj(args)),
    ])
}

/// Run one instrumented cell and drain its trace.
pub fn trace_cell(preset: &Preset, workload: &str, manager: &str) -> TraceCell {
    // Enough threads for interesting conflict structure, few enough that
    // the matrix stays readable.
    let threads = preset.max_threads().min(8);
    trace::reset();
    let mut spec = RunSpec::new(workload, manager, threads, StopRule::Timed(preset.duration));
    spec.window_n = preset.window_n;
    spec.engine = preset.engine;
    spec.trace = true;
    let out = run_one(&spec);
    let events = trace::drain();
    let dropped = trace::dropped_total();
    let barrier_timeouts = out.boundaries.map_or(0, |b| b.barrier_timeouts);
    let json = chrome_json(
        &events,
        &[
            ("benchmark", workload.to_string()),
            ("manager", manager.to_string()),
            ("threads", threads.to_string()),
            ("commits", out.stats.commits.to_string()),
            ("dropped_events", dropped.to_string()),
        ],
    );
    TraceCell {
        workload: workload.to_string(),
        manager: manager.to_string(),
        threads,
        commits: out.stats.commits,
        events,
        dropped,
        barrier_timeouts,
        json,
    }
}

/// TR1: the who-killed-whom matrix of one cell. `kills[killer][victim]`
/// counts the conflicts the contention manager settled by aborting
/// `victim`'s transaction in favour of `killer`'s: under `AbortEnemy` the
/// emitting thread is the killer, under `AbortSelf` the enemy is (the
/// emitter stepped aside for it). Retries, failed kills and threads
/// outside `0..threads` count nothing.
pub fn matrix_table(cell: &TraceCell) -> Table {
    let n = cell.threads;
    let mut kills = vec![vec![0.0; n]; n];
    for ev in cell.events.iter().filter(|e| e.kind == EventKind::Conflict) {
        let (killer, victim) = match unpack_conflict(ev.b) {
            (_, Resolution::AbortEnemy, true) => (ev.tid as usize, ev.a as usize),
            (_, Resolution::AbortSelf, true) => (ev.a as usize, ev.tid as usize),
            _ => continue,
        };
        if killer < n && victim < n {
            kills[killer][victim] += 1.0;
        }
    }
    let cols: Vec<String> = (0..n).map(|t| format!("kills t{t}")).collect();
    let mut t = Table::new(
        format!(
            "TR1: who-killed-whom — {} / {} (M={})",
            cell.workload, cell.manager, n
        ),
        "killer",
        cols,
    );
    for (killer, row) in kills.into_iter().enumerate() {
        t.push_row(format!("t{killer}"), row);
    }
    t
}

/// The log₂ bucket of a duration: bucket `i` holds `[2^i, 2^(i+1))` ns,
/// and 0 ns shares bucket 0 with 1 ns.
fn log2_bucket(ns: u64) -> usize {
    ns.max(1).ilog2() as usize
}

/// A bucket's row label, its upper bound: `"<2ns"`, `"<2.0µs"`, …
fn bucket_label(i: usize) -> String {
    let hi = 1u128 << (i + 1);
    if hi < 1_000 {
        format!("<{hi}ns")
    } else if hi < 1_000_000 {
        format!("<{:.1}µs", hi as f64 / 1e3)
    } else if hi < 1_000_000_000 {
        format!("<{:.1}ms", hi as f64 / 1e6)
    } else {
        format!("<{:.1}s", hi as f64 / 1e9)
    }
}

/// TR2: latency histograms of one cell's span kinds, one row per occupied
/// log₂ bucket, then the mean of each column.
pub fn histogram_table(cell: &TraceCell) -> Table {
    const COLUMNS: [(EventKind, &str); 4] = [
        (EventKind::Commit, "commit"),
        (EventKind::Abort, "abort"),
        (EventKind::Wait, "cm-wait"),
        (EventKind::BarrierWait, "barrier"),
    ];
    let mut buckets = [[0u64; 4]; 64];
    let mut count = [0u64; 4];
    let mut sum_ns = [0u64; 4];
    for ev in &cell.events {
        if let Some(c) = COLUMNS.iter().position(|(k, _)| *k == ev.kind) {
            buckets[log2_bucket(ev.dur_ns)][c] += 1;
            count[c] += 1;
            sum_ns[c] += ev.dur_ns;
        }
    }
    let mut t = Table::new(
        format!(
            "TR2: latency histograms (log2 buckets) — {} / {}",
            cell.workload, cell.manager
        ),
        "latency",
        COLUMNS.iter().map(|(_, name)| name.to_string()).collect(),
    );
    for (b, row) in buckets.iter().enumerate() {
        if row.iter().any(|&c| c > 0) {
            t.push_row(bucket_label(b), row.iter().map(|&c| c as f64).collect());
        }
    }
    let means = (0..4).map(|c| match count[c] {
        0 => 0.0,
        k => sum_ns[c] as f64 / k as f64 / 1e3,
    });
    t.push_row("mean µs", means.collect());
    t
}

/// TR3: event counts per kind across all traced cells.
pub fn summary_table(cells: &[TraceCell]) -> Table {
    let cols: Vec<String> = EventKind::ALL
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    let mut t = Table::new("TR3: trace event counts per kind", "cell", cols);
    for cell in cells {
        let mut counts = [0.0; EventKind::ALL.len()];
        for ev in &cell.events {
            counts[ev.kind as usize] += 1.0;
        }
        t.push_row(
            format!("{}/{}", cell.workload, cell.manager),
            counts.to_vec(),
        );
    }
    t
}

fn json_path(out_dir: &Path, cell: &TraceCell) -> std::path::PathBuf {
    out_dir.join(format!(
        "trace_{}_{}.json",
        slugify(&cell.workload),
        slugify(&cell.manager)
    ))
}

/// Run every [`TRACE_CELLS`] cell, write the Chrome-trace JSON exports
/// into `out_dir`, and return the report tables.
pub fn trace_report(preset: &Preset, out_dir: &Path) -> Vec<Table> {
    let mut tables = Vec::new();
    let mut cells = Vec::new();
    for (workload, manager) in TRACE_CELLS {
        eprintln!("[windowtm] trace {workload} / {manager}");
        let cell = trace_cell(preset, workload, manager);
        // Windowed cells run with m = thread count, so a barrier timeout
        // is a harness/manager bug, not a workload property — fail the
        // trace run (CI smoke included) instead of reporting poisoned
        // numbers from a cell that degraded to free mode.
        assert_eq!(
            cell.barrier_timeouts, 0,
            "{workload} / {manager}: {} window barrier timeout(s) at m = {} threads; \
             the cell degraded to free mode and its trace is not trustworthy",
            cell.barrier_timeouts, cell.threads
        );
        if cell.dropped > 0 {
            eprintln!(
                "[windowtm] trace {workload} / {manager}: {} events dropped (ring buffers full); \
                 matrices/histograms cover the retained tail",
                cell.dropped
            );
        }
        if let Err(e) = std::fs::create_dir_all(out_dir) {
            eprintln!("[windowtm] cannot create {}: {e}", out_dir.display());
        }
        let path = json_path(out_dir, &cell);
        match std::fs::write(&path, &cell.json) {
            Ok(()) => eprintln!("[windowtm] wrote {}", path.display()),
            Err(e) => eprintln!("[windowtm] json write failed: {e}"),
        }
        tables.push(matrix_table(&cell));
        tables.push(histogram_table(&cell));
        cells.push(cell);
    }
    tables.push(summary_table(&cells));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtm_stm::trace::{pack_conflict, ABORT_KILLED};
    use wtm_stm::ConflictKind;

    fn str_of<'a>(e: &'a Json, key: &str) -> Option<&'a str> {
        e.get(key).and_then(Json::as_str)
    }

    /// End-to-end smoke test: run a traced cell, parse its Chrome-trace
    /// export with the harness's JSON parser, and check the stream carries
    /// the events the views are built from. Uses a window manager so
    /// barrier and window events appear too.
    #[test]
    fn traced_cell_exports_valid_chrome_json_with_commits() {
        let cell = trace_cell(&Preset::smoke(), "List", "Online-Dynamic");
        let doc = Json::parse(&cell.json).unwrap_or_else(|e| panic!("chrome JSON must parse: {e}"));
        let exported = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(exported.len(), cell.events.len(), "one object per event");
        assert_eq!(
            cell.barrier_timeouts, 0,
            "Online-Dynamic at m = thread-count must never time out a window barrier"
        );
        let commits = cell
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Commit)
            .count();
        assert!(commits >= 1, "trace must contain at least one commit event");
        let slices = exported
            .iter()
            .filter(|e| str_of(e, "ph") == Some("X") && str_of(e, "name") == Some("commit"))
            .count();
        assert_eq!(slices, commits, "one \"X\" commit slice per Commit event");
        assert!(
            cell.events.iter().any(|e| e.kind == EventKind::TxBegin),
            "begins must be traced"
        );

        let mt = matrix_table(&cell);
        assert_eq!(mt.rows.len(), cell.threads);
        assert_eq!(mt.columns.len(), cell.threads);

        let ht = histogram_table(&cell);
        assert_eq!(ht.columns, vec!["commit", "abort", "cm-wait", "barrier"]);
        assert!(!ht.rows.is_empty());

        let st = summary_table(&[cell]);
        assert_eq!(st.rows.len(), 1);
        assert!(st.get(0, "commit").unwrap() >= 1.0);
    }

    #[test]
    fn chrome_export_names_every_kind_and_keeps_payloads_exact() {
        let events = [
            Event::instant(EventKind::TxBegin, 1_000, 0, 41, 0),
            Event::instant(
                EventKind::Conflict,
                1_500,
                0,
                1,
                pack_conflict(ConflictKind::WriteWrite, Resolution::AbortEnemy, true),
            ),
            Event::span(EventKind::Commit, 2_000, 900, 0, 41, 0),
            Event::span(EventKind::Abort, 2_500, 400, 1, 42, ABORT_KILLED),
            Event::span(EventKind::Wait, 3_000, 100, 1, 0, 0),
            Event::span(EventKind::BarrierWait, 4_000, 500, 1, 0, 0),
            Event::instant(EventKind::FrameAssign, 4_100, 1, 3, 2),
            Event::instant(EventKind::WindowStart, 4_200, 1, 1, 0),
            Event::instant(EventKind::FrameAdvance, 4_300, u32::MAX, (1 << 53) - 1, 9),
        ];
        let json = chrome_json(&events, &[("manager", "Polka \"q\"".into())]);
        let doc = Json::parse(&json).unwrap();
        let exported = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = exported.iter().filter_map(|e| str_of(e, "name")).collect();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names, kinds);
        for e in exported {
            let span = str_of(e, "ph") == Some("X");
            assert!(span || str_of(e, "ph") == Some("i"));
            assert_eq!(e.get("dur").is_some(), span, "{}", e.render());
            assert_eq!(str_of(e, "s").is_some(), !span, "{}", e.render());
        }
        let arg = |i: usize, key: &str| exported[i].get("args").unwrap().get(key).cloned();
        assert_eq!(arg(1, "verdict"), Some(Json::Str("abort-enemy".into())));
        assert_eq!(arg(1, "killed"), Some(Json::Bool(true)));
        assert_eq!(arg(3, "reason"), Some(Json::Str("killed".into())));
        assert_eq!(arg(5, "outcome"), Some(Json::Str("released".into())));
        assert_eq!(arg(8, "frame"), Some(Json::Num(((1u64 << 53) - 1) as f64)));
        // A complete event starts at ts − dur, in µs.
        assert_eq!(exported[2].get("ts"), Some(&Json::Num(1.1)));
        assert_eq!(exported[2].get("dur"), Some(&Json::Num(0.9)));
        assert_eq!(exported[8].get("tid"), Some(&Json::Num(u32::MAX.into())));
        let other = doc.get("otherData").unwrap();
        assert_eq!(str_of(other, "manager"), Some("Polka \"q\""));

        let empty = chrome_json(&[], &[]);
        assert!(empty.starts_with("{\"traceEvents\":[]"), "{empty}");
        assert!(Json::parse(&empty).is_ok());
    }

    fn cell_of(threads: usize, events: Vec<Event>) -> TraceCell {
        TraceCell {
            workload: "List".into(),
            manager: "Polka".into(),
            threads,
            commits: 0,
            events,
            dropped: 0,
            barrier_timeouts: 0,
            json: String::new(),
        }
    }

    fn conflict(tid: u32, enemy: u64, verdict: Resolution, killed: bool) -> Event {
        let word = pack_conflict(ConflictKind::WriteWrite, verdict, killed);
        Event::instant(EventKind::Conflict, 0, tid, enemy, word)
    }

    #[test]
    fn matrix_attributes_kills_to_the_winner() {
        let events = vec![
            // Thread 0 kills thread 1 directly.
            conflict(0, 1, Resolution::AbortEnemy, true),
            // Thread 2 steps aside for thread 0: the kill is 0 → 2.
            conflict(2, 0, Resolution::AbortSelf, true),
            // A retry verdict and an unsuccessful kill count nothing.
            conflict(1, 0, Resolution::Retry, false),
            conflict(1, 0, Resolution::AbortEnemy, false),
        ];
        let m = matrix_table(&cell_of(3, events));
        assert_eq!(m.get(0, "kills t1"), Some(1.0));
        assert_eq!(m.get(0, "kills t2"), Some(1.0));
        assert_eq!(m.get(1, "kills t0"), Some(0.0));
        let total: f64 = m.cells.iter().flatten().sum();
        assert_eq!(total, 2.0);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        assert_eq!(log2_bucket(0), 0, "0 and 1 share bucket 0");
        assert_eq!(log2_bucket(1), 0);
        assert_eq!(log2_bucket(2), 1, "2 and 3 in bucket 1");
        assert_eq!(log2_bucket(3), 1);
        assert_eq!(log2_bucket(1024), 10);
        let commits = [0, 1, 2, 3, 1024].map(|d| Event::span(EventKind::Commit, d, d, 0, 0, 0));
        let h = histogram_table(&cell_of(1, commits.to_vec()));
        let labels: Vec<String> = [0, 1, 10].map(bucket_label).to_vec();
        assert_eq!(
            h.rows[..3],
            labels,
            "occupied buckets only, the highest is 1024's"
        );
        assert_eq!(h.rows[3], "mean µs");
        let commit_col: Vec<f64> = (0..3).map(|r| h.get(r, "commit").unwrap()).collect();
        assert_eq!(commit_col, [2.0, 2.0, 1.0], "5 commits");
        assert!(h.get(3, "commit").unwrap() > 0.0);
    }

    #[test]
    fn bucket_labels_scale_units() {
        assert_eq!(bucket_label(0), "<2ns");
        assert!(bucket_label(10).ends_with("µs"));
        assert!(bucket_label(20).ends_with("ms"));
        assert!(bucket_label(30).ends_with('s'));
    }

    #[test]
    fn histograms_route_kinds() {
        let events = vec![
            Event::span(EventKind::Commit, 10, 5, 0, 0, 0),
            Event::span(EventKind::Abort, 10, 7, 0, 0, 0),
            Event::span(EventKind::Wait, 10, 9, 0, 0, 0),
            Event::span(EventKind::BarrierWait, 10, 11, 0, 0, 0),
            Event::instant(EventKind::TxBegin, 10, 0, 0, 0),
        ];
        let cell = cell_of(1, events);
        let h = histogram_table(&cell);
        for col in ["commit", "abort", "cm-wait", "barrier"] {
            let count: f64 = (0..h.rows.len() - 1).map(|r| h.get(r, col).unwrap()).sum();
            assert_eq!(count, 1.0, "{col}");
        }
        let counts = summary_table(&[cell]);
        assert_eq!(counts.get(0, "begin"), Some(1.0));
        assert_eq!(counts.get(0, "commit"), Some(1.0));
    }

    #[test]
    fn json_paths_are_slugged() {
        let cell = TraceCell {
            workload: "RBTree".into(),
            manager: "Online-Dynamic".into(),
            threads: 2,
            commits: 0,
            events: Vec::new(),
            dropped: 0,
            barrier_timeouts: 0,
            json: String::new(),
        };
        let p = json_path(Path::new("out"), &cell);
        assert_eq!(p, Path::new("out").join("trace_rbtree_online_dynamic.json"));
    }
}
