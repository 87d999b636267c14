//! The benchmark's own spans: recorded around calls into the crates'
//! public functions, kept in memory, written at exit as Chrome-trace
//! JSON (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! A span is a name, a start, an end and the span that caused it; the
//! spans of one repetition share `rep`. A layer's self time is its span
//! minus the part of it that its children cover.

use std::time::Instant;

use wtm_harness::Json;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u64,
    /// Chrome-trace row: 0 for the driving thread, 1 + worker index.
    pub tid: u32,
    /// Counts carried by the span (steps, summed step time, ...).
    pub args: Vec<(&'static str, f64)>,
}

pub struct Spans {
    t0: Instant,
    list: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            list: Vec::new(),
        }
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.t0).as_nanos() as u64
    }

    /// Start a span now; a root span (`parent` = `None`) starts a new rep.
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.at(Instant::now());
        self.add(name, parent, 0, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.list[id].end_ns = self.at(Instant::now());
    }

    /// Record a finished span, e.g. a worker's loop timed by the worker.
    pub fn add(
        &mut self,
        name: &str,
        parent: Option<usize>,
        tid: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let rep = match parent {
            Some(p) => self.list[p].rep,
            None => self.list.iter().filter(|s| s.parent.is_none()).count() as u64,
        };
        self.list.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep,
            tid,
            args: Vec::new(),
        });
        self.list.len() - 1
    }

    /// Run `f` inside a span.
    pub fn timed<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    pub fn arg(&mut self, id: usize, key: &'static str, value: f64) {
        self.list[id].args.push((key, value));
    }

    /// The span's duration minus the union of its children's intervals
    /// (children may run side by side, as worker loops do).
    pub fn self_ns(&self, id: usize) -> u64 {
        let me = &self.list[id];
        let mut kids: Vec<(u64, u64)> = self
            .list
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (me.end_ns - me.start_ns) - covered
    }

    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .list
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("id".to_string(), Json::Num(id as f64)),
                    ("rep".to_string(), Json::Num(s.rep as f64)),
                    (
                        "self_us".to_string(),
                        Json::Num(self.self_ns(id) as f64 / 1e3),
                    ),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::Num(p as f64)));
                }
                args.extend(s.args.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(f64::from(s.tid))),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ns".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_union_of_children() {
        let mut s = Spans::new();
        let rep = s.add("rep", None, 0, 0, 1000);
        let setup = s.add("setup", Some(rep), 0, 0, 100);
        let measure = s.add("measure", Some(rep), 0, 200, 900);
        // Two workers side by side, overlapping 300..800, one running past
        // its parent's end (clipped).
        s.add("thread.loop", Some(measure), 1, 250, 800);
        s.add("thread.loop", Some(measure), 2, 300, 950);
        assert_eq!(s.self_ns(rep), 1000 - 100 - 700);
        assert_eq!(s.self_ns(setup), 100);
        assert_eq!(s.self_ns(measure), 700 - (900 - 250));
        assert_eq!(s.list[measure].rep, s.list[rep].rep);
        let next = s.add("rep", None, 0, 1000, 2000);
        assert_eq!(s.list[next].rep, 1);
        let json = s.to_chrome_json().render();
        assert!(json.contains("\"traceEvents\"") && json.contains("\"thread.loop\""));
    }
}
