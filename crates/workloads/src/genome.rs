//! Genome — a simplified STAMP `genome` benchmark (extension; the paper's
//! §IV lists genome among the future-work benchmarks).
//!
//! STAMP's genome reassembles a DNA string from overlapping segments in
//! three transactional phases; this reproduction keeps the transactional
//! skeleton and the conflict topology:
//!
//! 1. **Deduplication** — threads insert (hashed) segments into a shared
//!    transactional hash set; duplicates collide in the same buckets.
//! 2. **Indexing** — unique segments are inserted into a prefix index
//!    (a [`TxRBMap`]), keyed by their leading `(k−1)`-mer.
//! 3. **Linking** — for each unique segment, threads look up which
//!    segment's prefix matches its suffix and record the link —
//!    read-mostly with point writes, like STAMP's chain-building phase.
//!
//! The workload is verifiable: with segments cut from a known synthetic
//! genome, phase 3 must reconstruct the original string.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wtm_stm::{Stm, TxResult, Txn};

use crate::hashmap::TxHashSet;
use crate::rbtree::TxRBMap;

/// Segment length in bases (k-mer size). Packed 2 bits/base into an i64,
/// so `k ≤ 31`.
pub const K: usize = 12;

fn pack(bases: &[u8]) -> i64 {
    debug_assert!(bases.len() <= 31);
    let mut v: i64 = 1; // leading 1 guards length
    for &b in bases {
        v = (v << 2) | i64::from(b & 0b11);
    }
    v
}

/// The transactional genome-assembly state.
pub struct Genome {
    /// The ground-truth base string (2-bit codes), for verification.
    genome: Vec<u8>,
    /// All k-mers handed to the workers, duplicated and shuffled.
    pub segments: Vec<i64>,
    /// Phase 1: dedup table.
    unique: TxHashSet,
    /// Phase 2/3: packed (k−1)-prefix → packed segment.
    by_prefix: TxRBMap<i64>,
}

impl Genome {
    /// Synthetic genome of `length` bases; every k-mer appears
    /// `duplication` times in the shuffled segment list.
    ///
    /// The genome is generated with **no repeated (k−1)-mer**, so the
    /// successor relation of phase 3 is a function and
    /// [`verify_chain`](Self::verify_chain) is exact. (A uniformly random
    /// genome of a few thousand bases would repeat an 11-mer with
    /// noticeable probability — the birthday bound — and break
    /// reassembly, as it would for real STAMP genome too.)
    pub fn new(length: usize, duplication: usize, seed: u64) -> Self {
        assert!(length > K);
        assert!(
            length < 1 << (2 * (K - 1) - 2),
            "length too close to the 4^(K-1) prefix space"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut genome: Vec<u8> = (0..K - 1).map(|_| rng.random_range(0..4u8)).collect();
        let mut seen = std::collections::HashSet::new();
        seen.insert(pack(&genome));
        while genome.len() < length {
            // Try the four bases in a random rotation; pick the first
            // whose new (k−1)-mer is fresh. The prefix space is vastly
            // larger than the genome, so a dead end (all four taken) is
            // astronomically unlikely; restart the tail if it happens.
            let start: u8 = rng.random_range(0..4);
            let mut placed = false;
            for off in 0..4u8 {
                let b = (start + off) % 4;
                genome.push(b);
                let tail = &genome[genome.len() - (K - 1)..];
                if seen.insert(pack(tail)) {
                    placed = true;
                    break;
                }
                genome.pop();
            }
            // All four extensions colliding requires 4 of 4^(K-1) ≈ 4M
            // specific prefixes to already be present in a genome capped
            // far below that (asserted above) — effectively impossible.
            assert!(placed, "dead end in repeat-free genome construction");
        }
        let mut segments = Vec::with_capacity((length - K + 1) * duplication);
        for _ in 0..duplication.max(1) {
            for w in genome.windows(K) {
                segments.push(pack(w));
            }
        }
        // Fisher–Yates shuffle, deterministic.
        for i in (1..segments.len()).rev() {
            let j = rng.random_range(0..=i);
            segments.swap(i, j);
        }
        let n_kmers = length - K + 1;
        Genome {
            genome,
            segments,
            unique: TxHashSet::new(n_kmers * 2),
            by_prefix: TxRBMap::new(n_kmers + 8),
        }
    }

    /// Number of distinct k-mers the genome contains (assuming no
    /// accidental repeats, which the verification detects).
    pub fn expected_unique(&self) -> usize {
        self.genome.len() - K + 1
    }

    /// Phase 1 transaction: dedup-insert one segment. Returns `true` if
    /// it was new.
    pub fn dedup_insert(&self, tx: &mut Txn, segment: i64) -> TxResult<bool> {
        use crate::intset::TxIntSet;
        self.unique.insert(tx, segment)
    }

    /// Phase 2 transaction: index one unique segment under its (k−1)-mer
    /// prefix.
    pub fn index_segment(&self, tx: &mut Txn, segment: i64) -> TxResult<bool> {
        let prefix = segment >> 2; // drop the last base, keep the guard bit
        self.by_prefix.insert(tx, prefix, segment)
    }

    /// Phase 3 transaction: the successor of `segment` — the unique
    /// segment whose (k−1)-prefix equals our (k−1)-suffix.
    pub fn successor(&self, tx: &mut Txn, segment: i64) -> TxResult<Option<i64>> {
        // suffix = drop the first base: clear the guard, reattach it one
        // position lower.
        let body_bits = 2 * (K - 1);
        let suffix = (segment & ((1 << body_bits) - 1)) | (1 << body_bits);
        self.by_prefix.get(tx, suffix)
    }

    /// Drive all three phases on `m` threads of `stm` and return the
    /// number of unique segments found. (Counts and thread splits are
    /// strided; with a window manager, choose sizes divisible by `m`.)
    pub fn run(&self, stm: &Stm) -> usize {
        let m = stm.num_threads();
        // Phase 1: dedup all segments.
        std::thread::scope(|s| {
            for t in 0..m {
                let ctx = stm.thread(t);
                s.spawn(move || {
                    let mut i = t;
                    while i < self.segments.len() {
                        let seg = self.segments[i];
                        ctx.atomic(|tx| self.dedup_insert(tx, seg).map(|_| ()));
                        i += m;
                    }
                });
            }
        });
        use crate::intset::TxIntSet;
        let uniques = self.unique.snapshot_keys();
        // Phase 2: index the unique set.
        std::thread::scope(|s| {
            for t in 0..m {
                let ctx = stm.thread(t);
                let uniques = &uniques;
                s.spawn(move || {
                    let mut i = t;
                    while i < uniques.len() {
                        let seg = uniques[i];
                        ctx.atomic(|tx| self.index_segment(tx, seg).map(|_| ()));
                        i += m;
                    }
                });
            }
        });
        uniques.len()
    }

    /// Verification: walk successor links from the genome's first k-mer
    /// and compare against the ground truth. Panics on mismatch.
    /// Quiescence only; requires phases 1–2 to have run.
    pub fn verify_chain(&self, stm: &Stm) {
        let ctx = stm.thread(0);
        let mut cur = pack(&self.genome[0..K]);
        let mut reconstructed = self.genome[0..K].to_vec();
        loop {
            let next = ctx.atomic(|tx| self.successor(tx, cur));
            match next {
                Some(seg) => {
                    reconstructed.push((seg & 0b11) as u8);
                    cur = seg;
                    assert!(
                        reconstructed.len() <= self.genome.len(),
                        "chain longer than the genome (cycle?)"
                    );
                }
                None => break,
            }
        }
        assert_eq!(
            reconstructed, self.genome,
            "reconstructed genome must equal the ground truth"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wtm_stm::cm::AbortSelfManager;

    #[test]
    fn packing_is_injective_for_kmers() {
        let a = pack(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
        let b = pack(&[0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 0]);
        assert_ne!(a, b);
        // The guard bit distinguishes lengths.
        assert_ne!(pack(&[0, 0]), pack(&[0, 0, 0]));
    }

    #[test]
    fn single_thread_assembles_genome() {
        let g = Genome::new(120, 3, 11);
        let stm = Stm::new(Arc::new(AbortSelfManager), 1);
        let uniques = g.run(&stm);
        // Random 4-letter genomes of this size rarely repeat 12-mers;
        // if one does, dedup merges it and verify_chain would catch a
        // broken chain below.
        assert!(uniques <= g.expected_unique());
        assert!(uniques >= g.expected_unique() - 2);
        g.verify_chain(&stm);
    }

    #[test]
    fn concurrent_assembly_matches_ground_truth() {
        let g = Genome::new(200, 2, 23);
        let stm = Stm::new(Arc::new(wtm_stm::managers::Greedy), 3);
        g.run(&stm);
        g.verify_chain(&stm);
    }

    #[test]
    fn duplication_factor_respected() {
        let g = Genome::new(50, 4, 7);
        assert_eq!(g.segments.len(), (50 - K + 1) * 4);
    }
}
