//! Log-bucket latency histogram: constant memory, no sample vectors.
//!
//! Values are nanoseconds. Each power-of-two octave is split into
//! [`SUB`] equal buckets, so a bucket is at most 1/64 of its lower bound
//! wide and any percentile read from it is within 1.6 % of the true
//! sample (the contract test allows 2.2 %). A percentile is interpolated
//! inside its bucket by rank, which keeps the reported value continuous:
//! a 300 ns median does not snap to the same bucket edge on every run.

/// Buckets per octave.
const SUB: u64 = 64;
const SUB_BITS: u32 = SUB.trailing_zeros();
/// Values below `SUB` get one bucket each; above, `SUB` per octave.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
    sum_ns: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let shift = octave - SUB_BITS;
    (((shift + 1) as u64 * SUB) + ((v >> shift) - SUB)) as usize
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i / SUB - 1) as u32;
    ((SUB + i % SUB) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            sum_ns: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean_ns(&self) -> f64 {
        self.sum_ns as f64 / self.total.max(1) as f64
    }

    /// The `q`-quantile (0 < q < 1) in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q * self.total as f64;
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let inside = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * inside;
            }
            before += c;
        }
        unreachable!("rank {rank} beyond {} samples", self.total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lands_in_its_own_bucket_bounds() {
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12_345, u64::MAX / 3, u64::MAX]) {
            let (lo, width) = bounds(index(v));
            assert!(lo <= v && v - lo < width, "{v} not in [{lo}, {lo}+{width})");
            assert!(width == 1 || width * SUB <= lo, "bucket of {v} too wide");
        }
    }

    #[test]
    fn percentile_error_is_within_2_2_percent() {
        // A deterministic long-tailed sample: exact percentiles from the
        // sorted vector are the reference.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut samples: Vec<u64> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                (250.0 * (1.0 / (1.0 - u * 0.9999)).powf(1.3)) as u64
            })
            .collect();
        let mut h = Hist::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = samples[(q * samples.len() as f64) as usize] as f64;
            let got = h.quantile_ns(q);
            let err = (got - exact).abs() / exact;
            assert!(err <= 0.022, "q={q}: {got} vs {exact} ({err:.4})");
        }
        assert_eq!(h.count(), 200_000);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::new(), Hist::new());
        a.record(100);
        b.record(300);
        b.record(300);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean_ns() - 700.0 / 3.0).abs() < 1e-9);
        assert!((300.0..305.0).contains(&a.quantile_ns(0.9)));
    }
}
