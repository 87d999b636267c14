//! Greedy vertex coloring.
//!
//! The Offline window algorithm commits "all transactions of the same
//! color simultaneously" (§II-A): inside a frame it colors the subgraph of
//! high-priority pending transactions and schedules one color class per
//! time slot. Greedy coloring in largest-degree-first order uses at most
//! `Δ + 1` colors, which is all the theory needs.

use crate::graph::{ConflictGraph, TxnId};

/// Color the induced subgraph on `nodes` greedily (largest degree first).
/// Returns the color classes, each an independent set; classes are
/// ordered largest-first so slot schedules drain the bulk early.
pub fn greedy_coloring(graph: &ConflictGraph, nodes: &[TxnId]) -> Vec<Vec<TxnId>> {
    let mut coloring = Coloring::new(graph.len());
    coloring.color(graph, nodes);
    let mut classes: Vec<Vec<TxnId>> = vec![Vec::new(); coloring.sizes.len()];
    for &t in &coloring.order {
        classes[coloring.color[t as usize] as usize].push(t);
    }
    classes.sort_by_key(|c| std::cmp::Reverse(c.len()));
    classes
}

/// A greedy coloring kept for reuse: the color of every transaction, by
/// id, and the scratch a pass needs, so coloring allocates nothing once
/// warm. [`greedy_coloring`] is one pass of it; the Offline scheduler
/// keeps one and colors each slot's high-priority set through it.
pub(crate) struct Coloring {
    /// The last pass's nodes, in coloring order.
    order: Vec<TxnId>,
    /// Color of each node of `order`; [`UNCOLORED`] for every other id.
    color: Vec<u32>,
    /// `used[c] == k + 1` while the `k`-th node of `order` has a neighbor
    /// of color `c`.
    used: Vec<u32>,
    /// Nodes per color.
    sizes: Vec<usize>,
}

const UNCOLORED: u32 = u32::MAX;

impl Coloring {
    /// A colorer for graphs of `len` transactions.
    pub(crate) fn new(len: usize) -> Self {
        Coloring {
            order: Vec::new(),
            color: vec![UNCOLORED; len],
            used: Vec::new(),
            sizes: Vec::new(),
        }
    }

    /// Color the induced subgraph on `nodes`, largest degree first, each
    /// node taking the lowest color no colored neighbor holds.
    pub(crate) fn color(&mut self, graph: &ConflictGraph, nodes: &[TxnId]) {
        for &t in &self.order {
            self.color[t as usize] = UNCOLORED;
        }
        self.order.clear();
        self.order.extend_from_slice(nodes);
        self.order
            .sort_unstable_by_key(|&t| std::cmp::Reverse(graph.degree(t)));
        self.used.clear();
        self.sizes.clear();
        for (k, &t) in self.order.iter().enumerate() {
            let mark = k as u32 + 1;
            for &nb in graph.neighbors(t) {
                let c = self.color[nb as usize];
                if c != UNCOLORED {
                    self.used[c as usize] = mark;
                }
            }
            let c = match self.used.iter().position(|&u| u != mark) {
                Some(c) => c,
                None => {
                    self.used.push(0);
                    self.sizes.push(0);
                    self.used.len() - 1
                }
            };
            self.sizes[c] += 1;
            self.color[t as usize] = c as u32;
        }
    }

    /// The largest color class of the last pass (the lowest color among
    /// equals, as [`greedy_coloring`]'s stable sort orders them), in
    /// coloring order, into `out`.
    pub(crate) fn largest_class(&self, out: &mut Vec<TxnId>) {
        out.clear();
        let Some(max) = self.sizes.iter().copied().max() else {
            return;
        };
        let best = self.sizes.iter().position(|&s| s == max).unwrap_or(0) as u32;
        out.extend(
            self.order
                .iter()
                .copied()
                .filter(|&t| self.color[t as usize] == best),
        );
    }
}

/// Check that every class is an independent set and the classes
/// partition `nodes`. Used by tests and debug assertions.
pub fn is_valid_coloring(graph: &ConflictGraph, nodes: &[TxnId], classes: &[Vec<TxnId>]) -> bool {
    let mut seen = std::collections::HashSet::new();
    for class in classes {
        for (x, &a) in class.iter().enumerate() {
            if !seen.insert(a) {
                return false;
            }
            for &b in &class[x + 1..] {
                if graph.conflicts(a, b) {
                    return false;
                }
            }
        }
    }
    nodes.len() == seen.len() && nodes.iter().all(|t| seen.contains(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_no_classes() {
        let g = ConflictGraph::empty(2, 2);
        assert!(greedy_coloring(&g, &[]).is_empty());
    }

    #[test]
    fn independent_nodes_one_class() {
        let g = ConflictGraph::empty(3, 1);
        let nodes = [0, 1, 2];
        let classes = greedy_coloring(&g, &nodes);
        assert_eq!(classes.len(), 1);
        assert!(is_valid_coloring(&g, &nodes, &classes));
    }

    #[test]
    fn clique_needs_one_class_per_node() {
        let g = ConflictGraph::complete_columns(5, 1);
        let nodes: Vec<_> = (0..5).collect();
        let classes = greedy_coloring(&g, &nodes);
        assert_eq!(classes.len(), 5);
        assert!(is_valid_coloring(&g, &nodes, &classes));
    }

    #[test]
    fn colors_bounded_by_max_degree_plus_one() {
        for seed in 0..10 {
            let g = ConflictGraph::per_column_random(8, 4, 0.5, seed);
            let nodes: Vec<_> = (0..g.len() as u32).collect();
            let classes = greedy_coloring(&g, &nodes);
            assert!(classes.len() <= g.contention() + 1);
            assert!(is_valid_coloring(&g, &nodes, &classes));
        }
    }

    #[test]
    fn subset_coloring_only_covers_subset() {
        let g = ConflictGraph::complete_columns(4, 2);
        let subset = [g.id(0, 0), g.id(1, 0), g.id(2, 1)];
        let classes = greedy_coloring(&g, &subset);
        assert!(is_valid_coloring(&g, &subset, &classes));
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn validity_checker_catches_conflict_in_class() {
        let g = ConflictGraph::complete_columns(2, 1);
        // Both nodes in one class conflict: invalid.
        assert!(!is_valid_coloring(&g, &[0, 1], &[vec![0, 1]]));
        // Duplicated node: invalid.
        assert!(!is_valid_coloring(&g, &[0], &[vec![0], vec![0]]));
    }
}
