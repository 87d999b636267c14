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
//! (`trace_<benchmark>_<manager>.json`), loadable in Perfetto or
//! `chrome://tracing` for timeline inspection.

use std::path::Path;

use wtm_trace::collect::{counts_by_kind, ConflictMatrix, Histograms};
use wtm_trace::Event;

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

/// Run one instrumented cell and drain its trace.
pub fn trace_cell(preset: &Preset, workload: &str, manager: &str) -> TraceCell {
    // Enough threads for interesting conflict structure, few enough that
    // the matrix stays readable.
    let threads = preset.thread_counts.last().copied().unwrap_or(2).min(8);
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
        .filter(|e| {
            e.kind == wtm_trace::EventKind::BarrierWait && e.b == wtm_trace::BARRIER_TIMED_OUT
        })
        .count() as u64;
    let threads_s = threads.to_string();
    let commits_s = out.stats.commits.to_string();
    let dropped_s = dropped.to_string();
    let json = wtm_trace::chrome::to_chrome_json(
        &events,
        &[
            ("benchmark", workload),
            ("manager", manager),
            ("threads", &threads_s),
            ("commits", &commits_s),
            ("dropped_events", &dropped_s),
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
    use wtm_trace::EventKind;

    /// End-to-end smoke test of the tentpole: run a traced cell, validate
    /// the Chrome-trace export parses, and check the stream carries the
    /// events the views are built from. Uses a window manager so barrier
    /// and window events appear too.
    #[test]
    fn traced_cell_exports_valid_chrome_json_with_commits() {
        let cell = trace_cell(&Preset::smoke(), "List", "Online-Dynamic");
        wtm_trace::chrome::validate_json(&cell.json)
            .unwrap_or_else(|e| panic!("chrome JSON must parse: {e}"));
        assert!(cell.json.contains("\"traceEvents\""));
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
