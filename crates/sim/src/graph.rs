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

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Transaction id inside a window (`i·N + j`).
pub type TxnId = u32;

/// Undirected conflict graph over the `M·N` window transactions.
#[derive(Debug, Clone)]
pub struct ConflictGraph {
    m: usize,
    n: usize,
    adj: Vec<Vec<TxnId>>,
}

impl ConflictGraph {
    /// Empty graph (no conflicts).
    pub fn empty(m: usize, n: usize) -> Self {
        assert!(m >= 1 && n >= 1);
        ConflictGraph {
            m,
            n,
            adj: vec![Vec::new(); m * n],
        }
    }

    /// Empty graph whose adjacency lists are reserved, once, for the
    /// `degree(i, j)` neighbours a generator expects to push to each.
    pub(crate) fn with_degrees(m: usize, n: usize, degree: impl Fn(usize, usize) -> usize) -> Self {
        assert!(m >= 1 && n >= 1);
        ConflictGraph {
            m,
            n,
            adj: (0..m * n)
                .map(|t| Vec::with_capacity(degree(t / n, t % n)))
                .collect(),
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

    /// Add an undirected edge (idempotent).
    pub fn add_edge(&mut self, a: TxnId, b: TxnId) {
        assert_ne!(a, b, "no self-conflicts");
        if !self.adj[a as usize].contains(&b) {
            self.adj[a as usize].push(b);
            self.adj[b as usize].push(a);
        }
    }

    /// [`add_edge`](Self::add_edge) for a caller whose loops visit every
    /// unordered pair once: the edge is new, so the O(degree) scan that
    /// keeps `add_edge` idempotent is skipped. Same list order.
    pub(crate) fn push_new_edge(&mut self, a: TxnId, b: TxnId) {
        debug_assert!(
            a != b && !self.conflicts(a, b),
            "generator visited the pair ({a}, {b}) twice"
        );
        self.adj[a as usize].push(b);
        self.adj[b as usize].push(a);
    }

    /// Neighbours of `t`.
    pub fn neighbors(&self, t: TxnId) -> &[TxnId] {
        &self.adj[t as usize]
    }

    /// Degree of `t`.
    pub fn degree(&self, t: TxnId) -> usize {
        self.adj[t as usize].len()
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
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Are `a` and `b` adjacent?
    pub fn conflicts(&self, a: TxnId, b: TxnId) -> bool {
        self.adj[a as usize].contains(&b)
    }

    // ---- generators -------------------------------------------------------

    /// Each same-column pair with probability `p`.
    fn push_column_edges(&mut self, p: f64, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for j in 0..self.n {
            for a in 0..self.m {
                for b in (a + 1)..self.m {
                    if rng.random_bool(p) {
                        self.push_new_edge(self.id(a, j), self.id(b, j));
                    }
                }
            }
        }
    }

    /// Edges only inside columns, each pair with probability `p`.
    pub fn per_column_random(m: usize, n: usize, p: f64, seed: u64) -> Self {
        let p = p.clamp(0.0, 1.0);
        let degree = expected_degree(p, m);
        let mut g = Self::with_degrees(m, n, |_, _| degree);
        g.push_column_edges(p, seed);
        g
    }

    /// Dense inside columns (`p_in`), sparse across adjacent columns
    /// (`p_cross`).
    pub fn clustered(m: usize, n: usize, p_in: f64, p_cross: f64, seed: u64) -> Self {
        let (p_in, p_cross) = (p_in.clamp(0.0, 1.0), p_cross.clamp(0.0, 1.0));
        // An inner column has a cross pair towards each side, each way.
        let degree = expected_degree(p_in + 2.0 * p_cross, m);
        let mut g = Self::with_degrees(m, n, |_, _| degree);
        g.push_column_edges(p_in, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC105_7E2D);
        for j in 0..n.saturating_sub(1) {
            for a in 0..m {
                for b in 0..m {
                    if a != b && rng.random_bool(p_cross) {
                        g.push_new_edge(g.id(a, j), g.id(b, j + 1));
                    }
                }
            }
        }
        g
    }

    /// Every column is a clique: the worst case `C = M − 1`.
    pub fn complete_columns(m: usize, n: usize) -> Self {
        Self::per_column_random(m, n, 1.0, 0)
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
        let mut g = Self::empty(m, n);
        let mut rng = SmallRng::seed_from_u64(seed);
        // Footprints: per txn, sorted resource ids with a write flag.
        let mut footprints: Vec<Vec<(usize, bool)>> = Vec::with_capacity(m * n);
        for _ in 0..m * n {
            let mut fp: Vec<(usize, bool)> = (0..ops_per_txn)
                .map(|_| {
                    (
                        rng.random_range(0..s),
                        rng.random_bool(write_frac.clamp(0.0, 1.0)),
                    )
                })
                .collect();
            fp.sort_unstable();
            fp.dedup_by_key(|e| e.0); // keep strongest access per resource? writes sort after reads on ties of id
            footprints.push(fp);
        }
        // Invert: resource → (txn, writes?) list, then connect.
        let mut users: Vec<Vec<(TxnId, bool)>> = vec![Vec::new(); s];
        for (t, fp) in footprints.iter().enumerate() {
            for &(r, w) in fp {
                users[r].push((t as TxnId, w));
            }
        }
        for list in &users {
            for x in 0..list.len() {
                for y in (x + 1)..list.len() {
                    let (a, wa) = list[x];
                    let (b, wb) = list[y];
                    if (wa || wb) && a != b {
                        g.add_edge(a, b);
                    }
                }
            }
        }
        g
    }

    /// Build the conflict graph of an `M × N` window from *recorded*
    /// access footprints — e.g. traces captured from the real STM with
    /// `ThreadCtx::atomic_traced`. `footprints[i * n + j]` is transaction
    /// `(i, j)`'s `(object id, is_write)` list; two transactions conflict
    /// iff they share an object at least one of them writes (§II-A).
    pub fn from_footprints(m: usize, n: usize, footprints: &[Vec<(u64, bool)>]) -> Self {
        assert_eq!(footprints.len(), m * n, "one footprint per transaction");
        let mut g = Self::empty(m, n);
        // object id → (txn, wrote?) users.
        let mut users: std::collections::HashMap<u64, Vec<(TxnId, bool)>> =
            std::collections::HashMap::new();
        for (t, fp) in footprints.iter().enumerate() {
            // Collapse duplicate accesses, keeping the strongest (write).
            let mut seen: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
            for &(obj, w) in fp {
                let e = seen.entry(obj).or_insert(false);
                *e |= w;
            }
            for (obj, w) in seen {
                users.entry(obj).or_default().push((t as TxnId, w));
            }
        }
        for list in users.values() {
            for x in 0..list.len() {
                for y in (x + 1)..list.len() {
                    let (a, wa) = list[x];
                    let (b, wb) = list[y];
                    if (wa || wb) && a != b {
                        g.add_edge(a, b);
                    }
                }
            }
        }
        g
    }

    /// Greedy heuristic for a large clique inside one column (a valid
    /// makespan lower-bound witness: clique members must serialize).
    pub fn column_clique_bound(&self) -> usize {
        let mut best = 1.min(self.m);
        for j in 0..self.n {
            let col: Vec<TxnId> = (0..self.m).map(|i| self.id(i, j)).collect();
            // Greedy: repeatedly add the column node adjacent to all chosen.
            let mut chosen: Vec<TxnId> = Vec::new();
            for &c in &col {
                if chosen.iter().all(|&x| self.conflicts(c, x)) {
                    chosen.push(c);
                }
            }
            best = best.max(chosen.len());
        }
        best
    }
}

/// Mean degree of a node whose candidate pairs with any one of the other
/// `m − 1` threads have edge probabilities summing to `per_peer`.
fn expected_degree(per_peer: f64, m: usize) -> usize {
    (per_peer * (m - 1) as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
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
        let mut g = ConflictGraph::empty(2, 2);
        g.add_edge(0, 2);
        g.add_edge(2, 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.conflicts(0, 2));
        assert!(g.conflicts(2, 0));
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "no self-conflicts")]
    fn self_edge_rejected() {
        let mut g = ConflictGraph::empty(2, 2);
        g.add_edge(1, 1);
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

    /// `per_column_random` as it was written against idempotent
    /// `add_edge`: the reference for the generators' list order.
    fn per_column_by_add_edge(m: usize, n: usize, p: f64, seed: u64) -> ConflictGraph {
        let mut g = ConflictGraph::empty(m, n);
        let mut rng = SmallRng::seed_from_u64(seed);
        for j in 0..n {
            for a in 0..m {
                for b in (a + 1)..m {
                    if rng.random_bool(p.clamp(0.0, 1.0)) {
                        g.add_edge(g.id(a, j), g.id(b, j));
                    }
                }
            }
        }
        g
    }

    /// `clustered`, likewise.
    fn clustered_by_add_edge(
        m: usize,
        n: usize,
        p_in: f64,
        p_cross: f64,
        seed: u64,
    ) -> ConflictGraph {
        let mut g = per_column_by_add_edge(m, n, p_in, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC105_7E2D);
        for j in 0..n.saturating_sub(1) {
            for a in 0..m {
                for b in 0..m {
                    if a != b && rng.random_bool(p_cross.clamp(0.0, 1.0)) {
                        g.add_edge(g.id(a, j), g.id(b, j + 1));
                    }
                }
            }
        }
        g
    }

    proptest::proptest! {
        /// The generators push without `add_edge`'s scan; every adjacency
        /// list must still equal, in order, the one `add_edge` builds
        /// (the engine duels in list order, so order is behaviour).
        #[test]
        fn generators_build_the_lists_add_edge_would(
            m in 1usize..10,
            n in 1usize..7,
            p_in in -0.1f64..1.2,
            p_cross in -0.1f64..0.7,
            seed in 0u64..1_000_000,
        ) {
            let fast = ConflictGraph::per_column_random(m, n, p_in, seed);
            assert_eq!(fast.adj, per_column_by_add_edge(m, n, p_in, seed).adj);
            let fast = ConflictGraph::clustered(m, n, p_in, p_cross, seed);
            assert_eq!(fast.adj, clustered_by_add_edge(m, n, p_in, p_cross, seed).adj);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "visited the pair (2, 0) twice")]
    fn push_new_edge_checks_its_claim_in_debug_builds() {
        let mut g = ConflictGraph::empty(2, 2);
        g.push_new_edge(0, 2);
        g.push_new_edge(2, 0);
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
