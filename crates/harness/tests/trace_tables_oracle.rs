//! TR1–TR3 checked against the collector layer they replaced. The oracles
//! below are the conflict matrix, the log₂ latency histograms, the
//! per-kind counter and the three table builders over them, kept as they
//! were written, reading conflict words with the bit layout and verdict
//! codes of that time. Over fixed synthetic streams the builders must
//! render the same tables, byte for byte.

use wtm_harness::report::Table;
use wtm_harness::trace::{histogram_table, matrix_table, summary_table, TraceCell};
use wtm_stm::sync::BarrierWait;
use wtm_stm::trace::{pack_conflict, Event, EventKind, ABORT_CM_SELF, ABORT_KILLED, ABORT_USER};
use wtm_stm::{ConflictKind, Resolution};

/// The conflict word's verdict codes, as the collector knew them.
const VERDICT_ABORT_ENEMY: u64 = 0;
const VERDICT_ABORT_SELF: u64 = 1;

/// `unpack_conflict` as it was: `(kind, verdict, killed)` codes.
fn oracle_unpack(b: u64) -> (u64, u64, bool) {
    (b & 0xFF, (b >> 8) & 0xFF, (b >> 16) & 1 != 0)
}

/// `collect::ConflictMatrix`.
struct ConflictMatrix {
    threads: usize,
    kills: Vec<u64>,
}

impl ConflictMatrix {
    fn from_events(events: &[Event], threads: usize) -> Self {
        let mut m = ConflictMatrix {
            threads,
            kills: vec![0; threads * threads],
        };
        for ev in events {
            if ev.kind != EventKind::Conflict {
                continue;
            }
            let (_kind, verdict, killed) = oracle_unpack(ev.b);
            if !killed {
                continue;
            }
            let (killer, victim) = match verdict {
                VERDICT_ABORT_ENEMY => (ev.tid as usize, ev.a as usize),
                VERDICT_ABORT_SELF => (ev.a as usize, ev.tid as usize),
                _ => continue,
            };
            if killer < threads && victim < threads {
                m.kills[killer * threads + victim] += 1;
            }
        }
        m
    }

    fn get(&self, killer: usize, victim: usize) -> u64 {
        self.kills[killer * self.threads + victim]
    }
}

/// `collect::LogHistogram`.
struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LogHistogram {
    fn record(&mut self, ns: u64) {
        let idx = if ns <= 1 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

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
}

/// `collect::Histograms`.
#[derive(Default)]
struct Histograms {
    commit: LogHistogram,
    abort: LogHistogram,
    wait: LogHistogram,
    barrier: LogHistogram,
}

impl Histograms {
    fn from_events(events: &[Event]) -> Self {
        let mut h = Histograms::default();
        for ev in events {
            match ev.kind {
                EventKind::Commit => h.commit.record(ev.dur_ns),
                EventKind::Abort => h.abort.record(ev.dur_ns),
                EventKind::Wait => h.wait.record(ev.dur_ns),
                EventKind::BarrierWait => h.barrier.record(ev.dur_ns),
                _ => {}
            }
        }
        h
    }

    fn named(&self) -> [(&'static str, &LogHistogram); 4] {
        [
            ("commit", &self.commit),
            ("abort", &self.abort),
            ("cm-wait", &self.wait),
            ("barrier", &self.barrier),
        ]
    }
}

/// `collect::counts_by_kind`.
fn counts_by_kind(events: &[Event]) -> [(EventKind, u64); 9] {
    let mut out = EventKind::ALL.map(|k| (k, 0u64));
    for ev in events {
        out[ev.kind as usize].1 += 1;
    }
    out
}

/// The harness's `matrix_table` over the collector.
fn oracle_matrix_table(cell: &TraceCell) -> Table {
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

/// The harness's `histogram_table` over the collector.
fn oracle_histogram_table(cell: &TraceCell) -> Table {
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
        t.push_row(LogHistogram::bucket_label(b), row);
    }
    let means: Vec<f64> = named.iter().map(|(_, h)| h.mean_ns() / 1e3).collect();
    t.push_row("mean µs", means);
    t
}

/// The harness's `summary_table` over the collector.
fn oracle_summary_table(cells: &[TraceCell]) -> Table {
    let cols: Vec<String> = EventKind::ALL
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

fn cell(manager: &str, threads: usize, events: Vec<Event>) -> TraceCell {
    TraceCell {
        workload: "List".into(),
        manager: manager.into(),
        threads,
        commits: 0,
        events,
        dropped: 0,
        barrier_timeouts: 0,
        json: String::new(),
    }
}

/// The durations the bucket rule has edges at, and far ones.
const DURATIONS: [u64; 8] = [0, 1, 2, 3, 1023, 1024, 1_000_000, 1_000_000_000];

/// Every event kind, both kill attributions, retries, failed kills, each
/// of [`DURATIONS`] on every span kind, and tids at and above `threads`.
fn hand_stream(threads: u32) -> Vec<Event> {
    use ConflictKind::{ReadWrite as RW, WriteRead as WR, WriteWrite as WW};
    use Resolution::{AbortEnemy, AbortSelf, Retry};
    let conflict = |tid: u32, enemy: u64, kind, verdict, killed| {
        let word = pack_conflict(kind, verdict, killed);
        Event::instant(EventKind::Conflict, 5, tid, enemy, word)
    };
    let mut ev = vec![
        Event::instant(EventKind::TxBegin, 1, 0, 7, 0),
        // 0 kills 1 (AbortEnemy: the emitter is the killer).
        conflict(0, 1, WW, AbortEnemy, true),
        // 2 steps aside for 1 (AbortSelf: the enemy is the killer).
        conflict(2, 1, RW, AbortSelf, true),
        // Neither a retry nor a kill that lost its CAS counts.
        conflict(1, 0, WR, Retry, false),
        conflict(1, 2, WW, AbortEnemy, false),
        // Kills naming a thread outside the run count nowhere.
        conflict(threads, 0, WW, AbortEnemy, true),
        conflict(0, threads.into(), RW, AbortSelf, true),
        conflict(u32::MAX, 1, WW, AbortEnemy, true),
        Event::instant(EventKind::FrameAssign, 9, 1, 3, 2),
        Event::instant(EventKind::WindowStart, 9, 1, 1, 0),
        Event::instant(EventKind::FrameAdvance, 9, u32::MAX, 4, 9),
    ];
    for (i, &d) in DURATIONS.iter().enumerate() {
        let tid = i as u32 % (threads + 2);
        ev.push(Event::span(EventKind::Commit, d, d, tid, i as u64, 0));
        ev.push(Event::span(
            EventKind::Abort,
            d,
            d,
            tid,
            i as u64,
            ABORT_KILLED,
        ));
        ev.push(Event::span(EventKind::Wait, d, d, tid, 0, 0));
        let outcome = BarrierWait::ALL[i % 3] as u64;
        ev.push(Event::span(EventKind::BarrierWait, d, d, tid, 0, outcome));
    }
    ev.push(Event::span(EventKind::Abort, 3, 3, 0, 9, ABORT_CM_SELF));
    ev.push(Event::span(EventKind::Abort, 3, 3, 0, 9, ABORT_USER));
    ev
}

/// A longer stream from a fixed xorshift: every kind, verdict and
/// conflict kind in varied proportions, durations spread over 40 buckets.
fn generated_stream(threads: u32, len: usize, mut x: u64) -> Vec<Event> {
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..len)
        .map(|i| {
            let r = next();
            let kind = EventKind::ALL[(r % 9) as usize];
            let tid = ((r >> 8) % u64::from(threads + 1)) as u32;
            let a = (r >> 16) % u64::from(threads + 1);
            let dur = (r >> 24) >> ((r >> 32) % 64).min(63);
            let b = match kind {
                EventKind::Conflict => pack_conflict(
                    ConflictKind::ALL[((r >> 40) % 3) as usize],
                    Resolution::ALL[((r >> 42) % 3) as usize],
                    (r >> 44) & 1 == 1,
                ),
                EventKind::BarrierWait => BarrierWait::ALL[((r >> 40) % 3) as usize] as u64,
                _ => (r >> 40) % 4,
            };
            Event::span(kind, i as u64, dur, tid, a, b)
        })
        .collect()
}

fn assert_same(new: &Table, old: &Table) {
    assert_eq!(new.render(), old.render());
    assert_eq!(new.to_csv(), old.to_csv());
}

#[test]
fn tr_tables_match_the_collectors() {
    let cells = vec![
        cell("Polka", 3, hand_stream(3)),
        cell(
            "Online-Dynamic",
            8,
            generated_stream(8, 5_000, 0x9E37_79B9_7F4A_7C15),
        ),
        cell("Greedy", 2, generated_stream(2, 997, 12345)),
        cell("Empty", 4, Vec::new()),
    ];
    for c in &cells {
        assert_same(&matrix_table(c), &oracle_matrix_table(c));
        assert_same(&histogram_table(c), &oracle_histogram_table(c));
    }
    assert_same(&summary_table(&cells), &oracle_summary_table(&cells));
}

#[test]
fn hand_stream_counts_both_attributions_and_only_in_range_kills() {
    let c = cell("Polka", 3, hand_stream(3));
    let m = matrix_table(&c);
    assert_eq!(m.get(0, "kills t1"), Some(1.0), "AbortEnemy: emitter kills");
    assert_eq!(m.get(1, "kills t2"), Some(1.0), "AbortSelf: enemy kills");
    let total: f64 = m.cells.iter().flatten().sum();
    assert_eq!(
        total, 2.0,
        "retries, failed kills and out-of-range tids count nothing"
    );
    let h = histogram_table(&c);
    // 0 and 1 share a bucket; 2, 3; 1023; 1024; 10⁶; 10⁹: six rows + mean.
    assert_eq!(h.rows.len(), 7, "{}", h.render());
}
