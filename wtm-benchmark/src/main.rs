//! `wtm-benchmark`: the repository's benchmark. See `README.md` beside
//! `Cargo.toml` for the metric definitions and how to read the output.
//!
//! ```text
//! wtm-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload; the last line of standard output is the result
//!     (the form BENCHMARK.json's command is run in)
//! wtm-benchmark run   [--seed N] [--out FILE] [--smoke]   every workload, end to end
//! wtm-benchmark trace [--seed N] [--out FILE] [--smoke]   every workload, per layer
//! wtm-benchmark check [--seed N]                          structure audits, both engines
//! wtm-benchmark agree A.json B.json                       compare two `run` files
//! wtm-benchmark list                                      workloads and metrics
//! ```

mod agree;
mod check;
mod hist;
mod layers;
mod sim_run;
mod span;
mod stm_run;
mod summary;
mod table;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use wtm_harness::Json;

use span::Spans;
use summary::{Outcome, Samples};
use table::Kind;

fn usage() -> ExitCode {
    eprintln!(
        "usage: wtm-benchmark --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      wtm-benchmark run|trace [--seed N] [--out FILE] [--smoke]\n\
         \x20      wtm-benchmark check [--seed N]\n\
         \x20      wtm-benchmark agree A.json B.json\n\
         \x20      wtm-benchmark list"
    );
    ExitCode::from(2)
}

/// Where the benchmark writes: `benchmark/` in the cargo target directory
/// the binary was built into, which is inside the checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("target directory");
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    dir
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The flags after the command word.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    /// Internal: run rep `R` in this process.
    rep: Option<u64>,
    out: Option<PathBuf>,
    smoke: bool,
    /// Arguments that are not flags (`agree`'s two files).
    files: Vec<String>,
}

impl Flags {
    /// `None` unless every flag is one of `allowed`, is given once and,
    /// `--smoke` apart, has a value that parses: a mistyped `--seed`
    /// must not quietly run the default one.
    fn parse(args: &[String], allowed: &[&str]) -> Option<Flags> {
        let mut flags = Flags::default();
        let mut seen = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                flags.files.push(arg.clone());
                continue;
            }
            if !allowed.contains(&arg.as_str()) || seen.contains(&arg) {
                return None;
            }
            seen.push(arg);
            if arg == "--smoke" {
                flags.smoke = true;
                continue;
            }
            let value = args.next()?;
            match arg.as_str() {
                "--workload" => flags.workload = Some(value.clone()),
                "--seed" => flags.seed = Some(parse_seed(value)?),
                "--seconds" => flags.seconds = Some(value.parse().ok()?),
                "--trace" => {
                    flags.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    })
                }
                "--rep" => flags.rep = Some(value.parse().ok()?),
                "--out" => flags.out = Some(PathBuf::from(value)),
                _ => return None,
            }
        }
        Some(flags)
    }

    /// `--smoke` swaps in its own `--seconds`.
    fn run_seconds(&self) -> f64 {
        if self.smoke {
            table::SMOKE_SECONDS
        } else {
            table::RUN_SECONDS
        }
    }
}

fn unit_of(metric: &str) -> &'static str {
    let e2e = table::END_TO_END.iter().map(|m| (m.name, m.unit));
    let layers = table::PER_LAYER.iter().map(|m| (m.name, m.unit));
    e2e.chain(layers)
        .find(|(n, _)| *n == metric)
        .map_or("", |(_, u)| u)
}

/// One repetition of one workload (`--trace 1`: its one traced rep) in
/// this process; it measures for its share of the run's `seconds`.
fn rep_in_process(
    w: &table::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rep: u64,
    smoke: bool,
) -> Outcome {
    let tmp = out_dir();
    let seconds = seconds / reps(w, trace, smoke) as f64;
    let grid = |grid| if smoke { &table::SMOKE_GRID } else { grid };
    let mut out = if trace {
        let mut spans = Spans::new();
        let out = match &w.kind {
            Kind::Stm(def) => {
                let steps = table::CALIBRATION_STEPS / if smoke { 20 } else { 1 };
                layers::traced(def, seed, seconds, steps, &mut spans)
            }
            Kind::Sim(g) => sim_run::traced(grid(g), seed, seconds, &tmp, &mut spans),
        };
        let path = tmp.join(format!("trace-{}.json", w.name));
        match std::fs::write(&path, spans.to_chrome_json().render()) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("{}: {e}", path.display()),
        }
        out
    } else {
        match &w.kind {
            Kind::Stm(def) => stm_run::rep(def, seed, rep, Duration::from_secs_f64(seconds / 2.0)),
            Kind::Sim(g) => sim_run::rep(grid(g), seed, rep, &tmp),
        }
    };
    if let (Kind::Stm(def), 0) = (&w.kind, rep) {
        check::check_structure(def.workload, def.engine, seed, &mut out);
    }
    out
}

fn result_json(out: &Outcome) -> Json {
    let metrics = out.metrics.iter().map(|(name, value)| {
        let fields = vec![
            ("value".to_string(), Json::Num(*value)),
            ("unit".to_string(), Json::Str(unit_of(name).into())),
        ];
        (name.to_string(), Json::Obj(fields))
    });
    Json::Obj(vec![
        ("correct".into(), Json::Bool(out.correct())),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), Json::Obj(metrics.collect())),
    ])
}

/// Quartiles and sample counts behind the values (the one traced rep has
/// none), and the failed checks.
fn detail_json(out: &Outcome) -> Json {
    let samples = out
        .samples
        .iter()
        .filter(|s| s.values.len() > 1)
        .map(|s| (s.name.to_string(), s.to_json(unit_of(s.name))));
    let problems = out.problems.iter().map(|p| Json::Str(p.clone()));
    Json::Obj(vec![
        ("samples".into(), Json::Obj(samples.collect())),
        ("problems".into(), Json::Arr(problems.collect())),
    ])
}

/// Repetitions of one run of `w`; the traced run is one.
fn reps(w: &table::Workload, trace: bool, smoke: bool) -> u64 {
    match (trace, smoke) {
        (true, _) => 1,
        (false, true) => table::SMOKE_REPS,
        (false, false) => w.reps(),
    }
}

/// One workload: its reps, each in a fresh child process (`--rep R`), so
/// that a run samples the process-to-process differences in speed and
/// nothing leaks from one rep or workload to the next. End to end, every
/// value is the median over the reps; the traced run is one rep.
fn measure(w: &table::Workload, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Outcome {
    let reps = reps(w, trace, smoke);
    let exe = std::env::current_exe().expect("path of this executable");
    let mut out = Outcome::default();
    let names: Vec<&str> = if trace {
        table::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        table::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut samples: Vec<Samples> = names.into_iter().map(Samples::new).collect();
    for rep in 0..reps {
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .args(["--rep", &rep.to_string()]);
        if smoke {
            child.arg("--smoke");
        }
        let output = child.output().expect("start a child benchmark process");
        for line in String::from_utf8_lossy(&output.stderr).lines() {
            // The executor's per-cell progress lines would bury the rest.
            if let Some(problem) = line.strip_prefix("FAILED ") {
                out.problems.push(format!("rep {rep}: {problem}"));
            } else if !line.starts_with("[windowtm]") {
                eprintln!("{} rep {rep}: {line}", w.name);
            }
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let Some(result) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
            out.fail(
                1,
                format!("rep {rep}: no result (exit {:?})", output.status.code()),
            );
            continue;
        };
        let number = |key| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        out.attempted += number("attempted");
        out.failed += number("failed");
        for s in &mut samples {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(s.name))
                .and_then(|m| m.get("value"));
            match value.and_then(Json::as_f64) {
                Some(value) => s.values.push(value),
                None => out.fail(1, format!("rep {rep}: no {}", s.name)),
            }
        }
    }
    for s in samples.into_iter().filter(|s| !s.values.is_empty()) {
        out.report(s);
    }
    out
}

/// A line per metric, the record behind the values, and last the result
/// line the contract asks for.
fn print_outcome(out: &Outcome) {
    for p in &out.problems {
        eprintln!("FAILED {p}");
    }
    for (name, value) in &out.metrics {
        println!("{name} {value} {}", unit_of(name));
    }
    println!("detail {}", detail_json(out).render());
    println!("{}", result_json(out).render());
}

fn single(flags: &Flags) -> ExitCode {
    let workload = flags.workload.as_deref().and_then(table::workload);
    let (Some(w), Some(seed), Some(seconds), Some(trace)) =
        (workload, flags.seed, flags.seconds, flags.trace)
    else {
        return usage();
    };
    // The flag is the driver's; the length of a run is not a setting.
    if seconds != flags.run_seconds() {
        eprintln!(
            "--seconds must be {}, the run_seconds of BENCHMARK.json",
            flags.run_seconds()
        );
        return ExitCode::from(2);
    }
    let out = match flags.rep {
        Some(rep) => rep_in_process(w, seed, seconds, trace, rep, flags.smoke),
        None => measure(w, seed, seconds, trace, flags.smoke),
    };
    print_outcome(&out);
    ExitCode::from(u8::from(!out.correct()))
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn environment() -> Json {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs() as f64);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    Json::Obj(vec![
        (
            "commit".into(),
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc".into(), Json::Num(cpus as f64)),
        (
            "rustc".into(),
            Json::Str(command_output("rustc", &["--version"])),
        ),
        ("unix_time".into(), Json::Num(unix)),
        ("kernel".into(), Json::Str(kernel.trim().to_string())),
    ])
}

/// `run` and `trace`: every workload, one after another.
fn all_workloads(flags: &Flags, trace: bool) -> ExitCode {
    let seed = flags.seed.unwrap_or(table::DEFAULT_SEED);
    let (smoke, seconds) = (flags.smoke, flags.run_seconds());
    let mut records = Vec::new();
    let mut all_correct = true;
    for w in &table::WORKLOADS {
        let out = measure(w, seed, seconds, trace, smoke);
        for p in &out.problems {
            eprintln!("FAILED {}: {p}", w.name);
        }
        for (name, value) in &out.metrics {
            println!("{}.{name} {value} {}", w.name, unit_of(name));
        }
        println!("{}.attempted {} count", w.name, out.attempted);
        println!("{}.failed {} count", w.name, out.failed);
        all_correct &= out.correct();
        let record = vec![
            ("result".into(), result_json(&out)),
            ("detail".into(), detail_json(&out)),
        ];
        records.push((w.name.to_string(), Json::Obj(record)));
    }
    let doc = Json::Obj(vec![
        (
            "kind".into(),
            Json::Str(if trace { "trace" } else { "run" }.into()),
        ),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("environment".into(), environment()),
        ("workloads".into(), Json::Obj(records)),
    ]);
    let default = out_dir().join(if trace { "trace.json" } else { "run.json" });
    let path = flags.out.clone().unwrap_or(default);
    match std::fs::write(&path, doc.render_pretty()) {
        Ok(()) => eprintln!("written to {}", path.display()),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            all_correct = false;
        }
    }
    ExitCode::from(u8::from(!all_correct))
}

fn list() {
    println!("run_seconds {}", table::RUN_SECONDS);
    for w in &table::WORKLOADS {
        println!("workload {} - {}", w.name, w.why);
    }
    for m in &table::END_TO_END {
        let (better, bound) = (m.better.as_str(), m.bound);
        println!(
            "end_to_end {} {} {better} {bound} - floor {} {}; {}",
            m.name, m.unit, m.floor, m.unit, m.what
        );
    }
    for m in &table::PER_LAYER {
        let better = m.better.as_str();
        println!(
            "per_layer {} {} {better} - moves: {}",
            m.name, m.unit, m.moves
        );
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(a) if !a.starts_with("--") => args.remove(0),
        _ => String::new(),
    };
    let allowed: &[&str] = match command.as_str() {
        "" => &[
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--rep",
            "--smoke",
        ],
        "run" | "trace" => &["--seed", "--out", "--smoke"],
        "check" => &["--seed"],
        _ => &[],
    };
    let Some(flags) = Flags::parse(&args, allowed) else {
        return usage();
    };
    let files = match command.as_str() {
        "agree" => 2,
        _ => 0,
    };
    if flags.files.len() != files {
        return usage();
    }
    match command.as_str() {
        "" => single(&flags),
        "run" => all_workloads(&flags, false),
        "trace" => all_workloads(&flags, true),
        "check" => {
            let out = check::check_all(flags.seed.unwrap_or(table::DEFAULT_SEED));
            for p in &out.problems {
                eprintln!("FAILED {p}");
            }
            println!("attempted {} failed {}", out.attempted, out.failed);
            ExitCode::from(u8::from(!out.correct()))
        }
        "agree" => agree::agree(&flags.files[0], &flags.files[1]),
        "list" => {
            list();
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
