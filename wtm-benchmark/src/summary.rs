//! Medians and quartiles, and the result of one workload run.

use wtm_harness::Json;

/// Median of `values` (must not be empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them; both equal the single value when there is only one.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = v.len() + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The repetitions behind one reported value.
pub struct Samples {
    pub name: &'static str,
    pub values: Vec<f64>,
}

impl Samples {
    pub fn new(name: &'static str) -> Self {
        Samples {
            name,
            values: Vec::new(),
        }
    }

    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn to_json(&self, unit: &str) -> Json {
        let (q1, q3) = quartiles(&self.values);
        Json::Obj(vec![
            ("median".into(), Json::Num(self.median())),
            ("q1".into(), Json::Num(q1)),
            ("q3".into(), Json::Num(q3)),
            ("n".into(), Json::Num(self.values.len() as f64)),
            ("unit".into(), Json::Str(unit.into())),
        ])
    }
}

/// What one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: transactions stepped, or simulator cells run.
    pub attempted: u64,
    /// Operations that did not end as they should (see `README.md`).
    pub failed: u64,
    /// One line per failed check, for stderr and the detail record.
    pub problems: Vec<String>,
    /// Reported values, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// The repetitions behind the end-to-end values.
    pub samples: Vec<Samples>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Record a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.problems.push(what);
    }

    /// Report the median of `samples` and keep them for the quartiles.
    pub fn report(&mut self, samples: Samples) {
        self.metrics.push((samples.name, samples.median()));
        self.samples.push(samples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
