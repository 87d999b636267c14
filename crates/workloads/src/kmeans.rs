//! KMeans — the STAMP benchmark the paper's §IV names first for future
//! evaluation ("we also plan to continue our evaluation in other complex
//! benchmarks from the STAMP suite (such as kmeans, …)"). Implemented
//! here as an extension.
//!
//! Transactional structure mirrors STAMP: the points are immutable; each
//! transaction assigns one point — it reads every centroid's position
//! (read-mostly phase) and adds the point into the nearest centroid's
//! accumulator (one hot write). The per-iteration re-centering sweep is a
//! second transaction kind. Contention concentrates on popular centroids,
//! giving a different conflict topology from the IntSet benchmarks:
//! small, hot write-sets under a broad read umbrella.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wtm_stm::{Stm, TVar, TxResult, Txn};

/// Dimensionality of the synthetic points (STAMP uses 16–32; 4 keeps the
/// arithmetic cheap while preserving the conflict structure).
pub const DIM: usize = 4;

/// One centroid: running accumulator plus the current position.
#[derive(Debug, Clone, PartialEq)]
pub struct Centroid {
    /// Sum of assigned points (this iteration).
    pub sum: [f64; DIM],
    /// Number of assigned points (this iteration).
    pub count: u64,
    /// Current position (updated at iteration end).
    pub pos: [f64; DIM],
}

impl Centroid {
    fn at(pos: [f64; DIM]) -> Self {
        Centroid {
            sum: [0.0; DIM],
            count: 0,
            pos,
        }
    }
}

/// The transactional KMeans state.
pub struct KMeans {
    centroids: Vec<TVar<Centroid>>,
    points: Vec<[f64; DIM]>,
}

fn dist2(a: &[f64; DIM], b: &[f64; DIM]) -> f64 {
    let mut d = 0.0;
    for i in 0..DIM {
        let x = a[i] - b[i];
        d += x * x;
    }
    d
}

impl KMeans {
    /// Synthetic instance: `n_points` drawn from `k` Gaussian-ish blobs,
    /// centroids initialized at the first `k` points.
    pub fn new(k: usize, n_points: usize, seed: u64) -> Self {
        assert!(k >= 1 && n_points >= k);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Blob centers on a grid, points jittered around them.
        let centers: Vec<[f64; DIM]> = (0..k)
            .map(|i| {
                let mut c = [0.0; DIM];
                for (d, slot) in c.iter_mut().enumerate() {
                    *slot = ((i * (d + 3)) % 17) as f64 * 10.0;
                }
                c
            })
            .collect();
        let points: Vec<[f64; DIM]> = (0..n_points)
            .map(|i| {
                let c = centers[i % k];
                let mut p = [0.0; DIM];
                for (d, slot) in p.iter_mut().enumerate() {
                    *slot = c[d] + rng.random_range(-2.0..2.0);
                }
                p
            })
            .collect();
        let centroids = points
            .iter()
            .take(k)
            .map(|p| TVar::new(Centroid::at(*p)))
            .collect();
        KMeans { centroids, points }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the instance has no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Transaction: assign point `idx` — read every centroid position,
    /// accumulate into the nearest. Returns the chosen cluster.
    pub fn assign_point(&self, tx: &mut Txn, idx: usize) -> TxResult<usize> {
        let p = &self.points[idx % self.points.len()];
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, cv) in self.centroids.iter().enumerate() {
            let cen = tx.read(cv)?;
            let d = dist2(p, &cen.pos);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        let p = *p;
        tx.modify(&self.centroids[best], move |c| {
            for (acc, x) in c.sum.iter_mut().zip(p.iter()) {
                *acc += x;
            }
            c.count += 1;
        })?;
        Ok(best)
    }

    /// Transaction: fold one centroid's accumulator into its position and
    /// reset it (the end-of-iteration sweep runs this for every cluster).
    pub fn recenter(&self, tx: &mut Txn, cluster: usize) -> TxResult<()> {
        tx.modify(&self.centroids[cluster], |c| {
            if c.count > 0 {
                for d in 0..DIM {
                    c.pos[d] = c.sum[d] / c.count as f64;
                    c.sum[d] = 0.0;
                }
                c.count = 0;
            }
        })
    }

    /// Convenience driver: run `iters` full kmeans iterations on `m`
    /// threads of `stm`, splitting points and clusters evenly (strided).
    /// Returns the final inertia (sum of squared distances to the owning
    /// centroid).
    ///
    /// Window-manager note: window barriers require all `m` threads to
    /// issue the same number of transactions, so when `stm` runs a
    /// window-based manager choose `n_points` and `k` divisible by `m`
    /// (both phases here run on all `m` threads for exactly this reason).
    pub fn run(&self, stm: &Stm, iters: usize) -> f64 {
        let m = stm.num_threads();
        for _ in 0..iters {
            std::thread::scope(|s| {
                for t in 0..m {
                    let ctx = stm.thread(t);
                    s.spawn(move || {
                        let mut i = t;
                        while i < self.points.len() {
                            ctx.atomic(|tx| self.assign_point(tx, i).map(|_| ()));
                            i += m;
                        }
                    });
                }
            });
            std::thread::scope(|s| {
                for t in 0..m {
                    let ctx = stm.thread(t);
                    s.spawn(move || {
                        let mut c = t;
                        while c < self.k() {
                            ctx.atomic(|tx| self.recenter(tx, c));
                            c += m;
                        }
                    });
                }
            });
        }
        self.inertia()
    }

    /// Non-transactional audit: sum of assigned counts across centroids.
    pub fn total_assigned(&self) -> u64 {
        self.centroids.iter().map(|c| c.sample().count).sum()
    }

    /// Current inertia relative to the centroid positions (quiescence).
    pub fn inertia(&self) -> f64 {
        let pos: Vec<[f64; DIM]> = self.centroids.iter().map(|c| c.sample().pos).collect();
        self.points
            .iter()
            .map(|p| {
                pos.iter()
                    .map(|c| dist2(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wtm_stm::cm::AbortSelfManager;

    #[test]
    fn construction_shapes() {
        let km = KMeans::new(4, 100, 7);
        assert_eq!(km.k(), 4);
        assert_eq!(km.len(), 100);
        assert!(!km.is_empty());
        assert_eq!(km.total_assigned(), 0);
    }

    #[test]
    fn assignment_accumulates_counts() {
        let km = KMeans::new(3, 30, 7);
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let ctx = stm.thread(0);
        for i in 0..30 {
            ctx.atomic(|tx| km.assign_point(tx, i).map(|_| ()));
        }
        assert_eq!(km.total_assigned(), 30, "every point lands somewhere");
    }

    #[test]
    fn recenter_moves_centroid_to_mean_and_resets() {
        let km = KMeans::new(1, 4, 7); // one cluster: all points assigned to it
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let ctx = stm.thread(0);
        for i in 0..4 {
            ctx.atomic(|tx| km.assign_point(tx, i).map(|_| ()));
        }
        let mean: [f64; DIM] = {
            let mut m = [0.0; DIM];
            for p in &km.points {
                for (acc, x) in m.iter_mut().zip(p.iter()) {
                    *acc += x / 4.0;
                }
            }
            m
        };
        ctx.atomic(|tx| km.recenter(tx, 0));
        let c = km.centroids[0].sample();
        for (got, want) in c.pos.iter().zip(mean.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
        assert_eq!(c.count, 0, "accumulator resets");
    }

    #[test]
    fn iterations_do_not_increase_inertia() {
        let km = KMeans::new(4, 200, 11);
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let before = km.inertia();
        let after = km.run(&stm, 3);
        assert!(
            after <= before + 1e-6,
            "kmeans must not diverge: {before} -> {after}"
        );
    }

    #[test]
    fn concurrent_assignment_loses_no_points() {
        let km = Arc::new(KMeans::new(4, 120, 13));
        let stm = Stm::new(Arc::new(wtm_stm::managers::Greedy), 3);
        std::thread::scope(|s| {
            for t in 0..3usize {
                let ctx = stm.thread(t);
                let km = Arc::clone(&km);
                s.spawn(move || {
                    let mut i = t;
                    while i < km.len() {
                        ctx.atomic(|tx| km.assign_point(tx, i).map(|_| ()));
                        i += 3;
                    }
                });
            }
        });
        assert_eq!(km.total_assigned(), 120);
    }
}
