//! # dkc-core — static disjoint k-clique solvers
//!
//! The primary contribution of *"Finding Near-Optimal Maximum Set of
//! Disjoint k-Cliques in Real-World Social Networks"* (ICDE 2025), as a
//! library. Given an undirected graph `G` and a fixed `k >= 3`, every solver
//! produces a **maximal set of pairwise node-disjoint k-cliques** — by
//! Theorem 3 of the paper, a k-approximation of the (NP-hard) maximum.
//!
//! | Solver | Paper name | Algorithm |
//! |---|---|---|
//! | [`HgSolver`] | HG | Basic framework (Alg. 1): first-found clique per node in a total order |
//! | [`GcSolver`] | GC | Clique-score greedy (Alg. 2): stores all k-cliques, ascending clique score |
//! | [`LightweightSolver`] (`prune=false`) | L | Lightweight (Alg. 3): per-root local minima in a global min-heap |
//! | [`LightweightSolver`] (`prune=true`) | LP | Alg. 3 plus the score-driven pruning rule |
//! | [`OptSolver`] | OPT | Exact: materialised clique graph + branch-and-reduce MIS |
//! | [`GreedyCliqueGraphSolver`] | — | Min-degree greedy MIS on the clique graph (Section IV-B's motivating heuristic; ablation baseline) |
//!
//! The solver structs are the implementation layer; the supported entry
//! point is the [`Engine`], which dispatches a typed [`SolveRequest`]
//! (algorithm + `k` + ordering + [`Budget`] + executor configuration) to
//! the right solver and returns a [`SolveReport`] with provenance, phase
//! timings and JSON rendering:
//!
//! ```
//! use dkc_core::{Algo, Engine, SolveRequest};
//! use dkc_graph::CsrGraph;
//!
//! // Two disjoint triangles joined by a bridge.
//! let g = CsrGraph::from_edges(6, vec![
//!     (0, 1), (1, 2), (0, 2),
//!     (3, 4), (4, 5), (3, 5),
//!     (2, 3),
//! ]).unwrap();
//! let report = Engine::solve(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
//! assert_eq!(report.solution.len(), 2);
//! report.solution.verify(&g).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod basic;
mod bounds;
mod engine;
mod error;
mod gc;
mod lightweight;
mod opt;
mod residual;
mod solution;

pub use basic::HgSolver;
pub use bounds::{approx_guarantee_holds, clique_degree_bounds, verify_theorem2, DegreeBounds};
pub use engine::{
    Algo, Budget, Engine, OptDetail, ParseAlgoError, ParseReportError, PartitionReport,
    PhaseTiming, SolveReport, SolveRequest,
};
pub use error::SolveError;
pub use gc::GcSolver;
pub use lightweight::{LightweightSolver, LpRunStats};
pub use opt::{GreedyCliqueGraphSolver, OptOutcome, OptSolver};
pub use residual::{partition_all, partition_all_par, Partition};
pub use solution::{InvalidSolution, Solution};

/// The anytime improvement layer (re-export of the `dkc-improve` crate):
/// [`Engine::solve`] runs it as a timed `improve` phase when the request's
/// budget sets `improve_steps`.
pub use dkc_improve::{improve, ImproveConfig, ImproveOutcome, ImproveStats, MoveKind, MoveRecord};

/// The shared JSON value tree (re-export of the `dkc-json` crate): the one
/// parse/render layer behind [`SolveReport::to_json`], the `dkc-serve`
/// wire protocol and every other machine rendering in the workspace.
pub use dkc_json as json;

use dkc_graph::CsrGraph;

/// Smallest clique size the problem is defined for (`k >= 3`; `k = 2` is
/// classical maximum matching, see Section III of the paper).
pub const MIN_K: usize = 3;

/// Common interface of all static solvers.
pub trait Solver {
    /// Short identifier matching the paper's competitor names.
    fn name(&self) -> &'static str;

    /// Computes a maximal disjoint k-clique set of `g`.
    fn solve(&self, g: &CsrGraph, k: usize) -> Result<Solution, SolveError>;
}

/// Validates `k` for the solvers: `MIN_K <= k <= dkc_clique::MAX_K`.
pub(crate) fn check_k(k: usize) -> Result<(), SolveError> {
    if !(MIN_K..=dkc_clique::MAX_K).contains(&k) {
        Err(SolveError::InvalidK { k })
    } else {
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod testgraphs {
    use dkc_graph::CsrGraph;

    /// The Fig. 2 running-example graph (v1..v9 → 0..8): seven 3-cliques,
    /// maximal set of size 2 (Fig. 2c), maximum of size 3 (Fig. 2d).
    pub fn paper_fig2() -> CsrGraph {
        CsrGraph::from_edges(
            9,
            vec![
                (0, 2),
                (0, 5),
                (2, 5),
                (2, 4),
                (4, 5),
                (4, 7),
                (5, 7),
                (4, 6),
                (6, 7),
                (6, 8),
                (7, 8),
                (3, 6),
                (3, 8),
                (1, 3),
                (1, 8),
            ],
        )
        .unwrap()
    }

    /// `t` disjoint triangles plus a chain of bridges between them; the
    /// optimum is exactly `t` disjoint 3-cliques.
    pub fn planted_triangles(t: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for i in 0..t as u32 {
            let b = 3 * i;
            edges.push((b, b + 1));
            edges.push((b + 1, b + 2));
            edges.push((b, b + 2));
            if i > 0 {
                edges.push((b - 1, b)); // bridge, creates no new triangle
            }
        }
        CsrGraph::from_edges(3 * t, edges).unwrap()
    }
}
