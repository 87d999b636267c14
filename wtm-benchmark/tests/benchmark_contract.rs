//! The benchmark against its contract: `BENCHMARK.json` and the binary
//! name the same workloads and metrics, every workload reports every
//! metric, and a run ends in the one-line result the contract asks for.

use std::path::PathBuf;
use std::process::Command;

use wtm_harness::Json;

const BIN: &str = env!("CARGO_BIN_EXE_wtm-benchmark");

fn contract() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no {key}"))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no {key} in {v:?}"))
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    entries(doc, key)
        .iter()
        .map(|e| text(e, "name").to_string())
        .collect()
}

/// Run the binary, expect success, return its standard output.
fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("start wtm-benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{args:?} exited {:?}:\n{stderr}",
        out.status.code()
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    dir.join(name)
}

#[test]
fn list_matches_benchmark_json_exactly() {
    let doc = contract();
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    let mut expected = vec![format!("run_seconds {run_seconds}")];
    for w in entries(&doc, "workloads") {
        expected.push(format!("workload {}", text(w, "name")));
    }
    let bound_of = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    let setup = entries(&doc, "end_to_end")
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    for m in entries(&doc, "end_to_end") {
        let bound = bound_of(m);
        // The contract's cap; set-up time is to have the largest bound.
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
        assert!(
            bound <= bound_of(setup),
            "{} above setup_s",
            text(m, "name")
        );
        let (name, unit, better) = (text(m, "name"), text(m, "unit"), text(m, "better"));
        expected.push(format!("end_to_end {name} {unit} {better} {bound}"));
    }
    for m in entries(&doc, "per_layer") {
        let (name, unit, better) = (text(m, "name"), text(m, "unit"), text(m, "better"));
        expected.push(format!("per_layer {name} {unit} {better}"));
    }
    // `list` prints the same fields, then " - " and prose.
    let listed: Vec<String> = run(&["list"])
        .lines()
        .map(|l| l.split(" - ").next().unwrap_or(l).to_string())
        .collect();
    assert_eq!(listed, expected);

    let all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
        .iter()
        .flat_map(|k| names(&doc, k))
        .collect();
    for name in &all {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        assert!(name.len() <= 64 && name.chars().all(ok), "bad name {name}");
        assert_eq!(
            all.iter().filter(|n| *n == name).count(),
            1,
            "{name} used twice"
        );
    }
    assert!((2..=8).contains(&names(&doc, "workloads").len()));
    assert!(names(&doc, "end_to_end").len() <= 16);
    assert!(names(&doc, "per_layer").len() <= 128);
}

#[test]
fn malformed_command_lines_are_refused() {
    for args in [
        &["run", "--sed", "5"][..],
        &["run", "--seed"],
        &["run", "--seed", "5", "--seed", "6"],
        &["run", "--seed", "five"],
        &["check", "--smoke"],
        &["list", "extra"],
        &["agree", "only-one.json"],
        // The length of a run is run_seconds, not a setting.
        &[
            "--workload",
            "hashmap-short",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("start wtm-benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn smoke_run_reports_every_end_to_end_metric_for_every_workload() {
    let doc = contract();
    let out = scratch("smoke-run.json");
    let printed = run(&["run", "--smoke", "--out", out.to_str().expect("utf-8 path")]);
    let set =
        Json::parse(&std::fs::read_to_string(&out).expect("run file")).expect("run file parses");
    for w in names(&doc, "workloads") {
        let record = set
            .get("workloads")
            .and_then(|ws| ws.get(&w))
            .unwrap_or_else(|| panic!("no {w}"));
        let result = record.get("result").expect("result");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(
            result.get("failed").and_then(Json::as_f64),
            Some(0.0),
            "{w}"
        );
        assert!(
            result
                .get("attempted")
                .and_then(Json::as_f64)
                .expect("attempted")
                >= 1.0
        );
        for m in entries(&doc, "end_to_end") {
            let name = text(m, "name");
            let got = result
                .get("metrics")
                .and_then(|ms| ms.get(name))
                .unwrap_or_else(|| panic!("{w}.{name}"));
            let value = got.get("value").and_then(Json::as_f64).expect("value");
            assert!(value.is_finite() && value > 0.0, "{w}.{name} = {value}");
            assert_eq!(text(got, "unit"), text(m, "unit"));
            assert!(
                printed.contains(&format!("{w}.{name} ")),
                "{w}.{name} not printed"
            );
            let samples = record
                .get("detail")
                .and_then(|d| d.get("samples"))
                .and_then(|s| s.get(name));
            assert!(
                samples.and_then(|s| s.get("q3")).is_some(),
                "{w}.{name} has no quartiles"
            );
        }
    }
}

#[test]
fn one_workload_ends_in_the_contract_result_line() {
    let args = [
        "--smoke",
        "--workload",
        "hashmap-short",
        "--seed",
        "7",
        "--seconds",
        "0.4",
        "--trace",
    ];
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = run(&[&args[..], &[trace]].concat());
        let last = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
        let keys: Vec<&str> = last
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let reported: Vec<String> = last
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(reported, names(&contract(), key), "--trace {trace}");
    }
}

#[test]
fn smoke_trace_reports_every_layer_and_the_controls_hold() {
    let doc = contract();
    let out = scratch("smoke-trace.json");
    run(&[
        "trace",
        "--smoke",
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    let set = Json::parse(&std::fs::read_to_string(&out).expect("trace file"))
        .expect("trace file parses");
    for w in names(&doc, "workloads") {
        let metrics = set
            .get("workloads")
            .and_then(|ws| ws.get(&w))
            .and_then(|r| r.get("result"))
            .and_then(|r| r.get("metrics"))
            .unwrap_or_else(|| panic!("no metrics for {w}"));
        let value = |name: &str| {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64);
            v.unwrap_or_else(|| panic!("{w}.{name} missing or not finite"))
        };
        for name in names(&doc, "per_layer") {
            assert!(value(&name).is_finite(), "{w}.{name}");
            // Each layer is silent where it does no work.
            let silent = match name.split('.').next() {
                Some("window") => w != "list-window",
                Some("sim") => w != "sim-grid",
                Some("stm" | "cm" | "workloads" | "trace") => w == "sim-grid",
                _ => false,
            };
            if silent {
                assert_eq!(value(&name), 0.0, "{w}.{name} should read 0");
            }
        }
        if w == "sim-grid" {
            assert!(value("sim.commits") > 0.0 && value("sim.run_sim_txn_per_s") > 0.0);
        } else {
            assert!(value("harness.bare_txn_per_s") > 0.0 && value("stm.empty_txn_ns") > 0.0);
        }
    }
    let cm = |w: &str| {
        let m = set
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .and_then(|r| r.get("result"));
        let m = m
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get("cm.resolve_calls_per_txn"));
        m.and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("cm.resolve_calls_per_txn")
    };
    assert!(
        cm("hashmap-short") < 0.01,
        "hashmap-short should hardly conflict"
    );
    assert!(cm("list-polka") > cm("hashmap-short"));
}
