//! Integration tests for the workload registry and the declarative
//! experiment engine: every registered workload runs end-to-end, the
//! engine's checkpoint file round-trips through its committed schema, and
//! a named run covers the workload outside the paper grid.

use std::time::Duration;

use windowtm::harness::experiment::{validate_results, Executor, ExperimentSpec};
use windowtm::harness::json::Json;
use windowtm::harness::runner::{run_one, RunSpec, StopRule};
use windowtm::stm::{CmDispatch, Stm};
use windowtm::workloads::{build_workload, workload_names, WorkloadParams};

/// Every registered workload completes a two-thread smoke cell on a bare
/// `AbortSelf` engine: populated construction and both worker streams
/// run without panicking or deadlocking, independent of any
/// contention manager's behaviour.
#[test]
fn every_registered_workload_survives_two_thread_abortself_smoke() {
    const THREADS: usize = 2;
    const STEPS: usize = 60;
    for name in workload_names() {
        let params = WorkloadParams {
            key_range: 0, // registry default
            update_pct: 100,
            seed: 0x51_0E,
            threads: THREADS,
        };
        let w = build_workload(name, &params).expect(name);
        let stm = Stm::new(CmDispatch::AbortSelf, THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let ctx = stm.thread(t);
                let w = &w;
                s.spawn(move || {
                    let mut stream = w.stream(t);
                    for _ in 0..STEPS {
                        stream.step(&ctx);
                    }
                });
            }
        });
        let stats = stm.aggregate();
        assert!(
            stats.commits >= (THREADS * STEPS) as u64,
            "{name}: {} commits",
            stats.commits
        );
    }
}

/// The HashMap control is first-class: a named run produces a report
/// table *and* a schema-valid `results.json`, through the same engine the
/// paper figures use.
#[test]
fn extension_workloads_complete_named_smoke_runs_with_results_json() {
    let dir = std::env::temp_dir().join(format!("wtm_named_run_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut exec = Executor::new(&dir);
    let mut spec = ExperimentSpec::new("run-HashMap", StopRule::Timed(Duration::from_millis(50)));
    spec.workloads = vec!["HashMap".into()];
    spec.managers = vec!["Polka".into(), "Online-Dynamic".into()];
    spec.threads = vec![2];
    spec.window_n = 8;
    let results = exec.run(&spec);
    assert_eq!(results.len(), 2);
    for r in &results {
        assert!(
            r.metric("throughput").mean > 0.0,
            "HashMap/{}: no throughput",
            r.manager
        );
    }
    let text = std::fs::read_to_string(dir.join("results.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    validate_results(&doc).expect("results.json matches the committed schema");
    assert_eq!(
        doc.get("cells").unwrap().as_obj().unwrap().len(),
        2,
        "one workload × two managers checkpointed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parameterized manager names flow through a full cell: the ablation
/// syntax is a first-class manager id everywhere, not a special case.
#[test]
fn parameterized_window_manager_completes_a_cell() {
    let mut spec = RunSpec::new(
        "RBTree",
        "Online-Dynamic@phi=2,c=4,n=8",
        2,
        StopRule::Timed(Duration::from_millis(50)),
    );
    spec.key_range = 32;
    let out = run_one(&spec);
    assert!(out.stats.commits > 0);
    assert!(!out.truncated);
}
