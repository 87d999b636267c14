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
//! Each cell's full stream is also exported as Chrome-trace JSON
//! (`trace_<benchmark>_<manager>.json`, rendered by `chrome_json`
//! through [`Json`]), loadable in Perfetto or `chrome://tracing` for
//! timeline inspection.

use std::path::Path;

use wtm_trace::collect::{counts_by_kind, ConflictMatrix, Histograms};
use wtm_trace::{
    abort_reason_name, barrier_outcome_name, conflict_kind_name, unpack_conflict, verdict_name,
    Event, EventKind,
};

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
    /// the configured capacity).
    pub dropped: u64,
    /// `BarrierWait` events that ended in `BARRIER_TIMED_OUT`. Always zero
    /// for a healthy cell: the harness sizes every window manager with
    /// `m` = thread count, so a timeout means the window machinery broke
    /// and the cell silently degraded to free mode mid-measurement.
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
                ("kind", text(conflict_kind_name(kind))),
                ("verdict", text(verdict_name(verdict))),
                ("killed", Json::Bool(killed)),
            ]
        }
        EventKind::Wait => vec![("enemy_tid", num(ev.a))],
        EventKind::BarrierWait => vec![
            ("phase", num(ev.a)),
            ("outcome", text(barrier_outcome_name(ev.b))),
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
    wtm_trace::reset();
    let mut spec = RunSpec::new(workload, manager, threads, StopRule::Timed(preset.duration));
    spec.window_n = preset.window_n;
    spec.engine = preset.engine;
    spec.trace = true;
    let out = run_one(&spec);
    let events = wtm_trace::drain();
    let dropped = wtm_trace::dropped_total();
    let barrier_timeouts = events
        .iter()
        .filter(|e| e.kind == EventKind::BarrierWait && e.b == wtm_trace::BARRIER_TIMED_OUT)
        .count() as u64;
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

/// TR1: the who-killed-whom matrix of one cell.
pub fn matrix_table(cell: &TraceCell) -> Table {
    let m = ConflictMatrix::from_events(&cell.events, cell.threads);
    let cols: Vec<String> = (0..cell.threads).map(|t| format!("kills t{t}")).collect();
    let mut t = Table::new(
        format!(
            "TR1: who-killed-whom — {} / {} (M={})",
            cell.workload, cell.manager, cell.threads
        ),
        "killer",
        cols,
    );
    for killer in 0..cell.threads {
        let row: Vec<f64> = (0..cell.threads)
            .map(|victim| m.get(killer, victim) as f64)
            .collect();
        t.push_row(format!("t{killer}"), row);
    }
    t
}

/// TR2: latency histograms of one cell, rows = occupied log₂ buckets.
pub fn histogram_table(cell: &TraceCell) -> Table {
    let h = Histograms::from_events(&cell.events);
    let named = h.named();
    let cols: Vec<String> = named.iter().map(|(n, _)| n.to_string()).collect();
    let mut t = Table::new(
        format!(
            "TR2: latency histograms (log2 buckets) — {} / {}",
            cell.workload, cell.manager
        ),
        "latency",
        cols,
    );
    let hi = named
        .iter()
        .filter_map(|(_, h)| h.max_bucket())
        .max()
        .unwrap_or(0);
    for b in 0..=hi {
        let row: Vec<f64> = named.iter().map(|(_, h)| h.bucket(b) as f64).collect();
        if row.iter().all(|v| *v == 0.0) {
            continue;
        }
        t.push_row(wtm_trace::collect::LogHistogram::bucket_label(b), row);
    }
    let means: Vec<f64> = named.iter().map(|(_, h)| h.mean_ns() / 1e3).collect();
    t.push_row("mean µs", means);
    t
}

/// TR3: event counts per kind across all traced cells.
pub fn summary_table(cells: &[TraceCell]) -> Table {
    let cols: Vec<String> = wtm_trace::EventKind::ALL
        .iter()
        .map(|k| k.name().to_string())
        .collect();
    let mut t = Table::new("TR3: trace event counts per kind", "cell", cols);
    for cell in cells {
        let counts = counts_by_kind(&cell.events);
        t.push_row(
            format!("{}/{}", cell.workload, cell.manager),
            counts.iter().map(|(_, c)| *c as f64).collect(),
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
    use wtm_trace::{pack_conflict, ABORT_KILLED, VERDICT_ABORT_ENEMY};

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
                pack_conflict(0, VERDICT_ABORT_ENEMY, true),
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
