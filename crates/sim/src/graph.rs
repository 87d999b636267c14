//! Conflict graphs over an `M × N` execution window.
//!
//! Node `(i, j)` is thread `i`'s `j`-th transaction, numbered
//! `id = i·N + j`. An edge means the two transactions conflict whenever
//! they run concurrently (they share a resource with at least one
//! writer, §II-A). Generators cover the regimes the paper discusses:
//!
//! * [`per_column_random`](ConflictGraph::per_column_random) — conflicts
//!   only between same-position transactions of different threads: the
//!   regime where "the benefits become more apparent … conflicts are more
//!   frequent inside the same column … and less frequent between
//!   different column transactions" (§I-B).
//! * [`clustered`](ConflictGraph::clustered) — dense within a column,
//!   sparse across neighbouring columns.
//! * [`from_resources`](ConflictGraph::from_resources) — transactions
//!   draw read/write sets over `s` shared resources and edges follow the
//!   paper's conflict definition; used for competitive-ratio experiments
//!   where `s` is the parameter.
//! * [`complete_columns`](ConflictGraph::complete_columns) — worst case,
//!   every column a clique (`C = M − 1`).

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::SimError;

/// Transaction id inside a window (`i·N + j`).
pub type TxnId = u32;

/// [`SimError::WindowTooLarge`] unless `txns` ids and `row_entries`
/// adjacency entries (two per edge) fit the graph's `u32`s.
pub(crate) fn check_fits(txns: u128, row_entries: u128) -> Result<(), SimError> {
    if txns.max(row_entries) <= u32::MAX as u128 {
        return Ok(());
    }
    let reason = format!("{txns} transactions, {row_entries} row entries: past u32");
    Err(SimError::WindowTooLarge { reason })
}

/// Undirected conflict graph over the `M·N` window transactions, in one
/// flat adjacency array.
///
/// Row `t` is `adj[start[t]..start[t + 1]]`: first its later neighbours
/// (`b > t`, up to `split[t]`), then its earlier ones, each half in the
/// order its edges were added. The engine duels a transaction against its
/// later half, in that order; every other reader takes a row as a set.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    m: usize,
    n: usize,
    start: Vec<u32>,
    split: Vec<u32>,
    adj: Vec<TxnId>,
}

/// A conflict graph under construction: each unordered pair is an edge
/// once, from the first time it is added.
pub(crate) struct GraphBuilder {
    m: usize,
    n: usize,
    ends: Vec<TxnId>,
    /// Each row's later neighbours so far.
    later: Vec<Vec<TxnId>>,
}

impl GraphBuilder {
    /// No edges yet over an `m × n` window.
    pub(crate) fn new(m: usize, n: usize) -> Self {
        let later = vec![Vec::new(); m * n];
        GraphBuilder {
            m,
            n,
            ends: Vec::new(),
            later,
        }
    }

    /// Add an undirected edge (idempotent).
    pub(crate) fn add_edge(&mut self, a: TxnId, b: TxnId) {
        assert_ne!(a, b, "no self-conflicts");
        let (lo, hi) = (a.min(b), a.max(b));
        if !self.later[lo as usize].contains(&hi) {
            self.later[lo as usize].push(hi);
            self.ends.extend([lo, hi]);
        }
    }

    /// The graph of the edges added so far.
    pub(crate) fn build(self) -> ConflictGraph {
        let mut counts: Vec<[u32; 2]> = self.later.iter().map(|l| [l.len() as u32, 0]).collect();
        for e in self.ends.chunks_exact(2) {
            counts[e[1] as usize][1] += 1;
        }
        ConflictGraph::from_ends(self.m, self.n, &self.ends, counts)
    }
}

impl ConflictGraph {
    /// Empty graph (no conflicts).
    pub fn empty(m: usize, n: usize) -> Self {
        GraphBuilder::new(m, n).build()
    }

    /// The graph of edges `(ends[2k], ends[2k + 1])`, lower id first, in
    /// the order they were added, whose row `t` has `counts[t]` later and
    /// earlier neighbours. One pass lays the rows out, one scatters the
    /// ends into them. A generator lists one row's later neighbours in
    /// runs, so the current run's cursor stays in a register: a cursor in
    /// memory bumped once an edge would chain each bump on the last.
    fn from_ends(m: usize, n: usize, ends: &[TxnId], mut counts: Vec<[u32; 2]>) -> Self {
        assert!(m >= 1 && n >= 1);
        assert!(ends.len() <= u32::MAX as usize, "row offsets past u32");
        // From here `counts[t]` is row `t`'s write cursors into its halves.
        let (mut start, mut split) = (vec![0; m * n + 1], vec![0; m * n]);
        for (t, c) in counts.iter_mut().enumerate() {
            split[t] = start[t] + c[0];
            start[t + 1] = split[t] + c[1];
            *c = [start[t], split[t]];
        }
        let mut adj = vec![0; ends.len()];
        let (mut row, mut at) = (0, counts[0][0]);
        for e in ends.chunks_exact(2) {
            let (lo, hi) = (e[0] as usize, e[1] as usize);
            if lo != row {
                counts[row][0] = at;
                (row, at) = (lo, counts[lo][0]);
            }
            adj[at as usize] = e[1];
            at += 1;
            adj[counts[hi][1] as usize] = e[0];
            counts[hi][1] += 1;
        }
        ConflictGraph {
            m,
            n,
            start,
            split,
            adj,
        }
    }

    /// Threads.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Transactions per thread.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total transactions.
    pub fn len(&self) -> usize {
        self.m * self.n
    }

    /// True if the window has no transactions (never, by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Node id of thread `i`'s `j`-th transaction.
    pub fn id(&self, i: usize, j: usize) -> TxnId {
        debug_assert!(i < self.m && j < self.n);
        (i * self.n + j) as TxnId
    }

    /// `(thread, position)` of a node id.
    pub fn coords(&self, t: TxnId) -> (usize, usize) {
        let t = t as usize;
        (t / self.n, t % self.n)
    }

    /// Neighbours of `t`: its later ones first, then its earlier ones.
    pub fn neighbors(&self, t: TxnId) -> &[TxnId] {
        let t = t as usize;
        &self.adj[self.start[t] as usize..self.start[t + 1] as usize]
    }

    /// Neighbours of `t` with larger ids, in the order their edges were
    /// added: the duels `t` detects.
    pub fn later_neighbors(&self, t: TxnId) -> &[TxnId] {
        let t = t as usize;
        &self.adj[self.start[t] as usize..self.split[t] as usize]
    }

    /// Degree of `t`.
    pub fn degree(&self, t: TxnId) -> usize {
        self.neighbors(t).len()
    }
    /// The paper's contention measure `C`: the maximum conflicts of any
    /// transaction in the window (max degree).
    pub fn contention(&self) -> usize {
        (0..self.len())
            .map(|t| self.degree(t as TxnId))
            .max()
            .unwrap_or(0)
    }

    /// Per-thread contention `Cᵢ`: max degree among thread `i`'s txns.
    pub fn contention_of_thread(&self, i: usize) -> usize {
        (0..self.n)
            .map(|j| self.degree(self.id(i, j)))
            .max()
            .unwrap_or(0)
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    /// Are `a` and `b` adjacent?
    pub fn conflicts(&self, a: TxnId, b: TxnId) -> bool {
        self.neighbors(a).contains(&b)
    }

    // ---- generators -------------------------------------------------------
    //
    // A generator offers every candidate pair once, writing it after the
    // kept edges and advancing past it by its drawn bit: no branch on the
    // draw, and each sweep zeroes only its own candidates' slots.

    /// Each same-column pair with probability `p`, counted as it is kept:
    /// the edge ends and each row's later and earlier neighbour counts.
    fn column_edges(m: usize, n: usize, p: f64, seed: u64) -> (Vec<TxnId>, Vec<[u32; 2]>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (mut ends, mut counts) = (Vec::new(), vec![[0, 0]; m * n]);
        for j in 0..n {
            let mut k = ends.len();
            ends.resize(k + m * (m - 1), 0);
            for a in 0..m {
                let (lo, mut run) = (a * n + j, 0);
                for hi in (a + 1..m).map(|b| b * n + j) {
                    ends[k..k + 2].copy_from_slice(&[lo as TxnId, hi as TxnId]);
                    let keep = rng.random_bool(p) as u32;
                    k += 2 * keep as usize;
                    run += keep;
                    counts[hi][1] += keep;
                }
                counts[lo][0] += run;
            }
            ends.truncate(k);
        }
        (ends, counts)
    }

    /// Edges only inside columns, each pair with probability `p`.
    pub fn per_column_random(m: usize, n: usize, p: f64, seed: u64) -> Self {
        let (ends, counts) = Self::column_edges(m, n, p.clamp(0.0, 1.0), seed);
        Self::from_ends(m, n, &ends, counts)
    }

    /// Dense inside columns (`p_in`), sparse across adjacent columns
    /// (`p_cross`).
    pub fn clustered(m: usize, n: usize, p_in: f64, p_cross: f64, seed: u64) -> Self {
        let (p_in, p_cross) = (p_in.clamp(0.0, 1.0), p_cross.clamp(0.0, 1.0));
        let (mut ends, mut counts) = Self::column_edges(m, n, p_in, seed);
        let (from, mut rng) = (ends.len(), SmallRng::seed_from_u64(seed ^ 0xC105_7E2D));
        for j in 0..n.saturating_sub(1) {
            let mut k = ends.len();
            ends.resize(k + 2 * m * m, 0);
            for a in 0..m {
                for b in 0..m {
                    let (x, y) = ((a * n + j) as TxnId, (b * n + j + 1) as TxnId);
                    ends[k..k + 2].copy_from_slice(&[x.min(y), x.max(y)]);
                    k += 2 * (a != b && rng.random_bool(p_cross)) as usize;
                }
            }
            ends.truncate(k);
        }
        for e in ends[from..].chunks_exact(2) {
            counts[e[0] as usize][0] += 1;
            counts[e[1] as usize][1] += 1;
        }
        Self::from_ends(m, n, &ends, counts)
    }

    /// Every column is a clique: the worst case `C = M − 1`.
    pub fn complete_columns(m: usize, n: usize) -> Self {
        Self::per_column_random(m, n, 1.0, 0)
    }

    /// `k` copies of this graph stacked as one window of `k·M` threads,
    /// one per replica re-executing the window against its own node's
    /// state, so no edge joins two copies: copy `r` of thread `i` is
    /// thread `r·M + i`, which shifts every id of copy `r` by `r·len`.
    pub(crate) fn replicate(&self, k: usize) -> Self {
        assert!(self.adj.len().max(self.len()) * k <= u32::MAX as usize);
        let shifted = |v: &[u32], by: usize| -> Vec<u32> {
            (0..k)
                .flat_map(|r| v.iter().map(move |&x| x + (r * by) as u32))
                .collect()
        };
        let mut start = shifted(&self.start[..self.len()], self.adj.len());
        start.push((self.adj.len() * k) as u32);
        ConflictGraph {
            m: self.m * k,
            n: self.n,
            start,
            split: shifted(&self.split, self.adj.len()),
            adj: shifted(&self.adj, self.len()),
        }
    }

    /// Resource-footprint model: each transaction reads/writes
    /// `ops_per_txn` of `s` shared resources (each op a write with
    /// probability `write_frac`); transactions conflict iff they share a
    /// resource at least one of them writes (§II-A's definition).
    pub fn from_resources(
        m: usize,
        n: usize,
        s: usize,
        ops_per_txn: usize,
        write_frac: f64,
        seed: u64,
    ) -> Self {
        assert!(s >= 1);
        let (mut rng, w) = (SmallRng::seed_from_u64(seed), write_frac.clamp(0.0, 1.0));
        let footprints: Vec<Vec<(u64, bool)>> = (0..m * n)
            .map(|_| {
                let mut fp: Vec<(u64, bool)> = (0..ops_per_txn)
                    .map(|_| (rng.random_range(0..s) as u64, rng.random_bool(w)))
                    .collect();
                // One access per resource: the first after sorting, so a
                // resource a transaction both reads and writes counts as read.
                fp.sort_unstable();
                fp.dedup_by_key(|e| e.0);
                fp
            })
            .collect();
        Self::from_footprints(m, n, &footprints)
    }

    /// Build the conflict graph of an `M × N` window from *recorded*
    /// access footprints — e.g. traces captured from the real STM with
    /// `ThreadCtx::atomic_traced`. `footprints[i * n + j]` is transaction
    /// `(i, j)`'s `(object id, is_write)` list; two transactions conflict
    /// iff they share an object at least one of them writes (§II-A).
    pub fn from_footprints(m: usize, n: usize, footprints: &[Vec<(u64, bool)>]) -> Self {
        assert_eq!(footprints.len(), m * n, "one footprint per transaction");
        // object id → (txn, wrote?) users, in object order.
        let mut users: BTreeMap<u64, Vec<(TxnId, bool)>> = BTreeMap::new();
        for (t, fp) in footprints.iter().enumerate() {
            // Collapse duplicate accesses, keeping the strongest: sorted
            // descending, an object's write comes first.
            let mut fp = fp.clone();
            fp.sort_unstable_by(|x, y| y.cmp(x));
            fp.dedup_by_key(|e| e.0);
            for (obj, w) in fp {
                users.entry(obj).or_default().push((t as TxnId, w));
            }
        }
        let mut g = GraphBuilder::new(m, n);
        for list in users.values() {
            for (x, &(a, wa)) in list.iter().enumerate() {
                for &(b, wb) in &list[x + 1..] {
                    if wa || wb {
                        g.add_edge(a, b);
                    }
                }
            }
        }
        g.build()
    }

    /// Greedy heuristic for a large clique inside one column (a valid
    /// makespan lower-bound witness: clique members must serialize).
    pub fn column_clique_bound(&self) -> usize {
        let mut best = 1.min(self.m);
        for j in 0..self.n {
            // Greedy: repeatedly add the column node adjacent to all chosen.
            let mut chosen: Vec<TxnId> = Vec::new();
            for c in (0..self.m).map(|i| self.id(i, j)) {
                if chosen.iter().all(|&x| self.conflicts(c, x)) {
                    chosen.push(c);
                }
            }
            best = best.max(chosen.len());
        }
        best
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn ids_and_coords_roundtrip() {
        let g = ConflictGraph::empty(4, 7);
        for i in 0..4 {
            for j in 0..7 {
                let t = g.id(i, j);
                assert_eq!(g.coords(t), (i, j));
            }
        }
        assert_eq!(g.len(), 28);
    }

    #[test]
    fn add_edge_is_idempotent_and_symmetric() {
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 2);
        b.add_edge(2, 0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert!(g.conflicts(0, 2));
        assert!(g.conflicts(2, 0));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "no self-conflicts")]
    fn self_edge_rejected() {
        GraphBuilder::new(2, 2).add_edge(1, 1);
    }

    #[test]
    fn per_column_random_stays_in_columns() {
        let g = ConflictGraph::per_column_random(6, 5, 0.8, 3);
        for t in 0..g.len() as TxnId {
            let (_, j) = g.coords(t);
            for &nb in g.neighbors(t) {
                let (_, jn) = g.coords(nb);
                assert_eq!(j, jn, "edges must stay within a column");
            }
        }
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn complete_columns_has_full_contention() {
        let g = ConflictGraph::complete_columns(8, 3);
        assert_eq!(g.contention(), 7);
        assert_eq!(g.edge_count(), 3 * 8 * 7 / 2);
        assert_eq!(g.column_clique_bound(), 8);
    }

    #[test]
    fn clustered_includes_cross_column_edges() {
        let g = ConflictGraph::clustered(4, 6, 0.9, 0.3, 9);
        let mut cross = 0;
        for t in 0..g.len() as TxnId {
            let (_, j) = g.coords(t);
            for &nb in g.neighbors(t) {
                if nb > t && g.coords(nb).1 != j {
                    cross += 1;
                }
            }
        }
        assert!(cross > 0, "expected cross-column edges");
    }

    #[test]
    fn resource_model_read_only_never_conflicts() {
        let g = ConflictGraph::from_resources(4, 4, 8, 3, 0.0, 5);
        assert_eq!(g.edge_count(), 0, "pure readers cannot conflict");
    }

    #[test]
    fn resource_model_fewer_resources_more_conflicts() {
        let sparse = ConflictGraph::from_resources(8, 8, 1024, 4, 0.5, 7);
        let dense = ConflictGraph::from_resources(8, 8, 4, 4, 0.5, 7);
        assert!(dense.edge_count() > sparse.edge_count());
    }

    #[test]
    fn footprints_build_expected_edges() {
        // 2x2 window; object 100 written by txn 0, read by txn 2;
        // object 200 read by txns 1 and 3 (no writer: no edge).
        let fps = vec![
            vec![(100u64, true)],
            vec![(200, false)],
            vec![(100, false)],
            vec![(200, false)],
        ];
        let g = ConflictGraph::from_footprints(2, 2, &fps);
        assert!(g.conflicts(0, 2));
        assert!(!g.conflicts(1, 3), "read-read must not conflict");
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn footprints_duplicate_access_keeps_strongest() {
        // Txn 0 reads then writes object 5; txn 1 reads it: conflict.
        let fps = vec![vec![(5u64, false), (5, true)], vec![(5, false)]];
        let g = ConflictGraph::from_footprints(2, 1, &fps);
        assert!(g.conflicts(0, 1));
    }

    #[test]
    #[should_panic(expected = "one footprint per transaction")]
    fn footprints_length_checked() {
        let _ = ConflictGraph::from_footprints(2, 2, &[vec![]]);
    }

    #[test]
    fn determinism_per_seed() {
        let a = ConflictGraph::per_column_random(6, 6, 0.4, 11);
        let b = ConflictGraph::per_column_random(6, 6, 0.4, 11);
        for t in 0..a.len() as TxnId {
            assert_eq!(a.neighbors(t), b.neighbors(t));
        }
    }

    /// One adjacency list per transaction, pushed to by idempotent
    /// `add_edge` in call order: how the graph was stored before it was
    /// one array, and the reference for its rows.
    pub(crate) struct Lists(pub(crate) Vec<Vec<TxnId>>);

    impl Lists {
        pub(crate) fn new(len: usize) -> Self {
            Lists(vec![Vec::new(); len])
        }

        pub(crate) fn add_edge(&mut self, a: TxnId, b: TxnId) {
            if !self.0[a as usize].contains(&b) {
                self.0[a as usize].push(b);
                self.0[b as usize].push(a);
            }
        }

        /// `g` has these rows: each later half equal, in order, to the
        /// list's neighbours `> t` (the engine duels in that order), and
        /// each whole row equal as a set.
        pub(crate) fn assert_rows_of(&self, g: &ConflictGraph) {
            assert_eq!(g.len(), self.0.len());
            for (t, list) in self.0.iter().enumerate() {
                let t = t as TxnId;
                let later: Vec<TxnId> = list.iter().copied().filter(|&b| b > t).collect();
                assert_eq!(g.later_neighbors(t), later, "later neighbours of {t}");
                let (mut got, mut want) = (g.neighbors(t).to_vec(), list.clone());
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "neighbours of {t}");
            }
        }
    }

    /// `per_column_random` as it was written against `add_edge`.
    fn per_column_by_add_edge(m: usize, n: usize, p: f64, seed: u64) -> Lists {
        let mut g = Lists::new(m * n);
        let mut rng = SmallRng::seed_from_u64(seed);
        for j in 0..n {
            for a in 0..m {
                for b in (a + 1)..m {
                    if rng.random_bool(p.clamp(0.0, 1.0)) {
                        g.add_edge((a * n + j) as TxnId, (b * n + j) as TxnId);
                    }
                }
            }
        }
        g
    }

    /// `clustered`, likewise.
    fn clustered_by_add_edge(m: usize, n: usize, p_in: f64, p_cross: f64, seed: u64) -> Lists {
        let mut g = per_column_by_add_edge(m, n, p_in, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC105_7E2D);
        for j in 0..n.saturating_sub(1) {
            for a in 0..m {
                for b in 0..m {
                    if a != b && rng.random_bool(p_cross.clamp(0.0, 1.0)) {
                        g.add_edge((a * n + j) as TxnId, (b * n + j + 1) as TxnId);
                    }
                }
            }
        }
        g
    }

    proptest::proptest! {
        /// Every generator's rows: the later halves in the order
        /// `add_edge` would have listed them, the rows as sets.
        #[test]
        fn later_neighbors_follow_add_edge_order_in_every_generator(
            m in 1usize..10,
            n in 1usize..7,
            p_in in -0.1f64..1.2,
            p_cross in -0.1f64..0.7,
            seed in 0u64..1_000_000,
        ) {
            per_column_by_add_edge(m, n, p_in, seed)
                .assert_rows_of(&ConflictGraph::per_column_random(m, n, p_in, seed));
            per_column_by_add_edge(m, n, 1.0, 0).assert_rows_of(&ConflictGraph::complete_columns(m, n));
            clustered_by_add_edge(m, n, p_in, p_cross, seed)
                .assert_rows_of(&ConflictGraph::clustered(m, n, p_in, p_cross, seed));
        }

        /// The builder behind `from_resources`, `from_footprints` and the
        /// tests keeps each pair's first occurrence, in call order.
        #[test]
        fn the_builder_keeps_add_edge_order(
            m in 1usize..6,
            n in 1usize..6,
            pairs in proptest::collection::vec((0u32..36, 0u32..36), 0..80),
        ) {
            let len = (m * n) as TxnId;
            let (mut want, mut b) = (Lists::new(m * n), GraphBuilder::new(m, n));
            for (x, y) in pairs.into_iter().map(|(x, y)| (x % len, y % len)).filter(|(x, y)| x != y) {
                want.add_edge(x, y);
                b.add_edge(x, y);
            }
            want.assert_rows_of(&b.build());
        }
    }

    #[test]
    fn contention_per_thread_bounded_by_global() {
        let g = ConflictGraph::clustered(5, 5, 0.7, 0.2, 13);
        let global = g.contention();
        for i in 0..5 {
            assert!(g.contention_of_thread(i) <= global);
        }
    }
}
