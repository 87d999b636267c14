//! `windowtm` — regenerate the paper's figures from the command line.
//!
//! ```text
//! windowtm <command> [--quick|--medium|--paper|--smoke]
//!          [--out DIR] [--threads N] [--reps N] [--seed S]
//!          [--engine eager|lazy]
//! ```
//!
//! Commands: `fig2 fig3 fig4 fig34 fig5 theory sim trace simtrace
//! ablation metrics all list run <workload> validate`. Tables print to
//! stdout and are also written as CSV into `--out` (default `results/`);
//! experiment commands additionally maintain a machine-readable
//! `--out/results.json` that doubles as a checkpoint — re-running with
//! the same `--out` skips every already-completed cell. `sim` sweeps the
//! discrete-event scenarios (paper-shaped and distributed) against the
//! verdict-latency grid through the same engine; `trace` runs
//! instrumented cells and writes Chrome-trace JSON (Perfetto-loadable)
//! into `--out`; `simtrace` is the T4 window-simulator schedule trace.

use std::path::PathBuf;
use std::process::ExitCode;

use wtm_harness::ablation::ablation_tables;
use wtm_harness::experiment::{validate_results, Executor, ExperimentSpec, RESULTS_SCHEMA_VERSION};
use wtm_harness::figures::{fig2, fig34, fig3_ratios, fig5, sweep_tables};
use wtm_harness::json::Json;
use wtm_harness::managers::{classic_manager_names, window_manager_names};
use wtm_harness::metrics::future_work_tables;
use wtm_harness::preset::Preset;
use wtm_harness::report::Table;
use wtm_harness::sim::sim_tables;
use wtm_harness::simtrace::trace_tables;
use wtm_harness::theory::makespan_tables;
use wtm_harness::trace::trace_report;
use wtm_harness::{all_manager_names, comparison_manager_names};

const COMMANDS: &str =
    "fig2 fig3 fig4 fig34 fig5 theory sim trace simtrace ablation metrics all list run validate";

fn usage() -> ExitCode {
    eprintln!(
        "usage: windowtm <command> [--quick|--medium|--paper|--smoke] [--out DIR] \
         [--threads N] [--reps N] [--seed S] [--engine eager|lazy]\n\
         commands: {COMMANDS}\n\
         \x20 run <workload>   named run: thread sweep of one registered workload\n\
         \x20 list             registered workloads and managers\n\
         \x20 validate         check --out/results.json against the committed schema"
    );
    ExitCode::from(2)
}

fn emit(tables: &[Table], out_dir: &std::path::Path) {
    for t in tables {
        println!("{}", t.render());
        match t.save_csv(out_dir) {
            Ok(p) => eprintln!("[windowtm] wrote {}", p.display()),
            Err(e) => eprintln!("[windowtm] csv write failed: {e}"),
        }
    }
}

/// `windowtm list` — everything the registries know.
fn list_registered() {
    println!("workloads ({}):", wtm_workloads::workload_names().len());
    for info in wtm_workloads::workload_infos() {
        println!(
            "  {:<10} key-range default {:>4}{}  — {}",
            info.name,
            info.default_key_range,
            if info.paper {
                "  [paper §III]"
            } else {
                "             "
            },
            info.summary,
        );
    }
    println!("\nmanagers ({}):", all_manager_names().len());
    println!("  window-based: {}", window_manager_names().join(", "));
    println!("  classic:      {}", classic_manager_names().join(", "));
    println!(
        "\nwindow managers accept parameter suffixes: \
         Online-Dynamic@phi=2,c=8,n=16 (frame factor, contention estimate, window width)"
    );
    println!(
        "\nengines ({}): {}  (select with --engine; default eager)",
        wtm_stm::EngineKind::ALL.len(),
        wtm_stm::EngineKind::ALL
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// `windowtm run <workload>` — a named thread-sweep of one workload over
/// the comparison manager set.
fn named_run(workload: &str, preset: &Preset, exec: &mut Executor) -> Result<Vec<Table>, String> {
    let info = wtm_workloads::workload_info(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; registered: {}",
            wtm_workloads::workload_names().join(", ")
        )
    })?;
    let spec = ExperimentSpec::from_preset(
        &format!("run-{}", info.name),
        preset,
        [info.name],
        comparison_manager_names(),
    );
    let results = exec.run(&spec);
    Ok([
        ("throughput", "throughput (txn/s)"),
        ("aborts_per_commit", "aborts per commit"),
    ]
    .into_iter()
    .flat_map(|(metric, what)| {
        sweep_tables(&spec, &results, metric, |w| format!("Run: {what} — {w}"))
    })
    .collect())
}

fn validate_out(out_dir: &std::path::Path) -> ExitCode {
    let path = out_dir.join("results.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[windowtm] cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|doc| validate_results(&doc))
    {
        Ok(cells) => {
            println!(
                "{}: valid (schema_version {}, {} cell(s))",
                path.display(),
                RESULTS_SCHEMA_VERSION,
                cells.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[windowtm] {}: INVALID: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let mut preset = Preset::quick();
    let mut out_dir = PathBuf::from("results");
    let mut run_target: Option<String> = None;
    let mut i = 1;
    // `run` takes its workload as the next positional argument.
    if cmd == "run" {
        match args.get(1) {
            Some(w) if !w.starts_with("--") => {
                run_target = Some(w.clone());
                i = 2;
            }
            _ => {
                eprintln!(
                    "run: missing workload name; registered: {}",
                    wtm_workloads::workload_names().join(", ")
                );
                return usage();
            }
        }
    }
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => preset = Preset::quick(),
            "--medium" => preset = Preset::medium(),
            "--paper" => preset = Preset::paper(),
            "--smoke" => preset = Preset::smoke(),
            "--out" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    return usage();
                };
                out_dir = PathBuf::from(dir);
            }
            "--threads" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--threads needs a positive integer");
                    return usage();
                };
                if n == 0 {
                    eprintln!("--threads needs a positive integer");
                    return usage();
                }
                preset.thread_counts = vec![n];
                preset.fig5_threads = n;
            }
            "--reps" => {
                i += 1;
                let Some(n) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("--reps needs a positive integer");
                    return usage();
                };
                if n == 0 {
                    eprintln!("--reps needs a positive integer");
                    return usage();
                }
                preset.reps = n;
            }
            "--seed" => {
                i += 1;
                let Some(s) = args.get(i).and_then(|v| parse_u64(v)) else {
                    eprintln!("--seed needs an integer (decimal or 0x-hex)");
                    return usage();
                };
                preset.seed = s;
            }
            "--engine" => {
                i += 1;
                let Some(e) = args.get(i).and_then(|v| wtm_stm::EngineKind::parse(v)) else {
                    eprintln!(
                        "--engine needs one of: {}",
                        wtm_stm::EngineKind::ALL
                            .iter()
                            .map(|e| e.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    return usage();
                };
                preset.engine = e;
            }
            other => {
                eprintln!("unknown flag {other:?}");
                return usage();
            }
        }
        i += 1;
    }

    // Commands that neither run experiments nor need the preset banner.
    match cmd.as_str() {
        "list" => {
            list_registered();
            return ExitCode::SUCCESS;
        }
        "validate" => return validate_out(&out_dir),
        _ => {}
    }

    eprintln!(
        "[windowtm] preset={} engine={} duration={:?} reps={} threads={:?} seed={:#x}",
        preset.name, preset.engine, preset.duration, preset.reps, preset.thread_counts, preset.seed
    );
    let mut exec = Executor::new(&out_dir);

    match cmd.as_str() {
        "fig2" => emit(&fig2(&preset, &mut exec), &out_dir),
        "fig3" | "fig4" | "fig34" => {
            let (f3, f4) = fig34(&preset, &mut exec);
            if cmd != "fig4" {
                emit(&f3, &out_dir);
                emit(&[fig3_ratios(&f3)], &out_dir);
            }
            if cmd != "fig3" {
                emit(&f4, &out_dir);
            }
        }
        "fig5" => emit(&fig5(&preset, &mut exec), &out_dir),
        "theory" => emit(&makespan_tables(&preset), &out_dir),
        "sim" => emit(&sim_tables(&preset, &mut exec), &out_dir),
        "ablation" => emit(&ablation_tables(&preset, &mut exec), &out_dir),
        "trace" => emit(&trace_report(&preset, &out_dir), &out_dir),
        "simtrace" => emit(&trace_tables(&preset), &out_dir),
        "metrics" => emit(&future_work_tables(&preset, &mut exec), &out_dir),
        "run" => {
            let workload = run_target.expect("parsed above");
            match named_run(&workload, &preset, &mut exec) {
                Ok(tables) => emit(&tables, &out_dir),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            }
        }
        "all" => {
            emit(&fig2(&preset, &mut exec), &out_dir);
            let (f3, f4) = fig34(&preset, &mut exec);
            emit(&f3, &out_dir);
            emit(&[fig3_ratios(&f3)], &out_dir);
            emit(&f4, &out_dir);
            emit(&fig5(&preset, &mut exec), &out_dir);
            emit(&makespan_tables(&preset), &out_dir);
            emit(&sim_tables(&preset, &mut exec), &out_dir);
            emit(&trace_tables(&preset), &out_dir);
            emit(&ablation_tables(&preset, &mut exec), &out_dir);
            emit(&future_work_tables(&preset, &mut exec), &out_dir);
            emit(&trace_report(&preset, &out_dir), &out_dir);
        }
        other => {
            eprintln!("unknown command {other:?}; available: {COMMANDS}");
            return usage();
        }
    }
    if exec.skipped > 0 {
        eprintln!(
            "[windowtm] resume: {} cell(s) served from {} without re-running",
            exec.skipped,
            exec.store().path().display()
        );
    }
    if !exec.store().is_empty() {
        eprintln!(
            "[windowtm] results.json at {}",
            exec.store().path().display()
        );
    }
    eprintln!("[windowtm] done in {:?}", exec.elapsed());
    ExitCode::SUCCESS
}
