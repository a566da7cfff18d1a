//! # dkc-mis — maximum independent set solvers
//!
//! The paper's exact baseline (OPT) computes a maximum independent set on
//! the materialised *clique graph*: every k-clique becomes a vertex and two
//! vertices conflict when the cliques share a node. An MIS of that graph is
//! exactly a maximum set of disjoint k-cliques. The paper uses the
//! branch-and-reduce solver of Akiba & Iwata (reference \[42\]); this crate
//! provides a self-contained equivalent:
//!
//! * [`ExactMis`] — exact branch-and-reduce with degree-0/1 reductions,
//!   greedy clique-cover upper bounds and a configurable time/node budget.
//!   When the budget trips, the best solution found so far is returned with
//!   `optimal = false` (the harness reports this as the paper's "OOT").
//! * [`greedy_mis`] — the classic min-degree greedy that the paper's
//!   Section IV-B uses to motivate clique-score ordering: repeatedly take a
//!   minimum-degree vertex and delete its closed neighbourhood.
//! * [`AdjGraph`] — a small adjacency-list graph type, independent of the
//!   rest of the workspace so the solver is reusable in isolation. Graphs
//!   up to [`DENSE_NODE_LIMIT`] nodes carry a dense bit-matrix mirror that
//!   turns the exact solver's clique-cover candidate filtering into
//!   word-parallel mask tests — the search tree is identical either way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exact;
mod graph;
mod greedy;

pub use exact::{ExactMis, MisBudget, MisResult};
pub use graph::{AdjGraph, DENSE_NODE_LIMIT};
pub use greedy::greedy_mis;

/// Checks that `set` is an independent set of `g` (no two members adjacent,
/// no duplicates).
pub fn verify_independent(g: &AdjGraph, set: &[u32]) -> bool {
    let mut seen = vec![false; g.num_nodes()];
    for &u in set {
        if u as usize >= g.num_nodes() || seen[u as usize] {
            return false;
        }
        seen[u as usize] = true;
    }
    for &u in set {
        for &v in g.neighbors(u) {
            if seen[v as usize] {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_accepts_independent_sets_only() {
        let g = AdjGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(verify_independent(&g, &[0, 2]));
        assert!(verify_independent(&g, &[0, 3]));
        assert!(verify_independent(&g, &[]));
        assert!(!verify_independent(&g, &[0, 1]));
        assert!(!verify_independent(&g, &[0, 0]));
        assert!(!verify_independent(&g, &[9]));
    }
}
