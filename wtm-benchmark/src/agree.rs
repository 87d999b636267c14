//! `wtm-benchmark agree A.json B.json`: do two `run` files agree?
//!
//! One row per (workload, end-to-end metric): both medians, B as a ratio
//! of A, the bound from `BENCHMARK.json`, and a verdict. The margin of a
//! row is the bound as a share of A's median, or the metric's absolute
//! floor (`table::EndToEnd::floor`) where that is larger. `disagree`: B
//! is worse than A by more than the margin. `unresolved`: it is not, but
//! the inter-quartile spread of either file is wider than the margin, so
//! "unchanged" cannot be told from noise. `agree` otherwise.

use std::path::Path;
use std::process::ExitCode;

use wtm_harness::Json;

use crate::table;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Agree,
    Disagree,
    Unresolved,
}

/// Median, first and third quartile of one metric in one file.
#[derive(Clone, Copy)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Stat {
    fn spread(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// `bound` is a share of `a`'s median, `floor` is in the metric's unit;
/// the larger of the two is the margin.
pub fn verdict(a: Stat, b: Stat, higher_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let margin = (bound * a.median).max(floor);
    let worse_by = if higher_is_better {
        a.median - b.median
    } else {
        b.median - a.median
    };
    if worse_by > margin {
        Verdict::Disagree
    } else if a.spread().max(b.spread()) > margin {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn stat(doc: &Json, workload: &str, metric: &str) -> Option<Stat> {
    let s = doc
        .get("workloads")?
        .get(workload)?
        .get("detail")?
        .get("samples")?
        .get(metric)?;
    Some(Stat {
        median: s.get("median")?.as_f64()?,
        q1: s.get("q1")?.as_f64()?,
        q3: s.get("q3")?.as_f64()?,
    })
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    // Beside the package's directory, wherever the command is typed.
    let contract = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let contract = load(&contract.to_string_lossy())?;
    let field = |v: &Json, k: &str| v.get(k).cloned().ok_or(format!("BENCHMARK.json: no {k}"));
    let mut all_agree = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound", "floor"
    );
    for w in field(&contract, "workloads")?.as_arr().unwrap_or_default() {
        let w = field(w, "name")?;
        let w = w.as_str().unwrap_or_default();
        for m in field(&contract, "end_to_end")?.as_arr().unwrap_or_default() {
            let (name, better, bound) =
                (field(m, "name")?, field(m, "better")?, field(m, "bound")?);
            let name = name.as_str().unwrap_or_default();
            let bound = bound
                .as_f64()
                .ok_or("BENCHMARK.json: bound is not a number")?;
            let (Some(sa), Some(sb)) = (stat(&a, w, name), stat(&b, w, name)) else {
                return Err(format!("{w}.{name} is missing from one of the files"));
            };
            let floor = table::END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.floor);
            let v = verdict(sa, sb, better.as_str() == Some("higher"), bound, floor);
            all_agree &= v != Verdict::Disagree;
            println!(
                "{w:<18} {name:<12} {:>14.6} {:>14.6} {:>8.4} {bound:>6} {floor:>6}  {}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                format!("{v:?}").to_lowercase(),
            );
        }
    }
    Ok(all_agree)
}

pub fn agree(a: &str, b: &str) -> ExitCode {
    match compare(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, q1: f64, q3: f64) -> Stat {
        Stat { median, q1, q3 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        // Higher is better: 12 % lower is a disagreement, 12 % higher is not.
        assert_eq!(
            verdict(tight(100.0), tight(88.0), true, 0.1, 0.0),
            Verdict::Disagree
        );
        assert_eq!(
            verdict(tight(100.0), tight(112.0), true, 0.1, 0.0),
            Verdict::Agree
        );
        // Lower is better: the other way round.
        assert_eq!(
            verdict(tight(100.0), tight(112.0), false, 0.1, 0.0),
            Verdict::Disagree
        );
        assert_eq!(
            verdict(tight(100.0), tight(95.0), false, 0.1, 0.0),
            Verdict::Agree
        );
        // Within the bound but too noisy to call unchanged.
        let noisy = s(101.0, 90.0, 110.0);
        assert_eq!(
            verdict(tight(100.0), noisy, false, 0.1, 0.0),
            Verdict::Unresolved
        );
        // Under the floor neither a difference nor a spread counts: a
        // set-up of 1.3 ms against 1.6 ms is not a quarter worse.
        assert_eq!(
            verdict(tight(100.0), tight(112.0), false, 0.1, 15.0),
            Verdict::Agree
        );
        assert_eq!(
            verdict(tight(100.0), noisy, false, 0.1, 25.0),
            Verdict::Agree
        );
        assert_eq!(
            verdict(tight(100.0), tight(130.0), false, 0.1, 25.0),
            Verdict::Disagree
        );
    }
}
