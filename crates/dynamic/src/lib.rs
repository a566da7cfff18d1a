//! # dkc-dynamic — maintaining a near-optimal disjoint k-clique set under
//! edge updates (Section V of the paper)
//!
//! Real social graphs churn: the paper reports ≥1% of all edges changing
//! per day in Tencent's MOBA friendship graph. Recomputing `S` from scratch
//! per update is far too slow, so the paper maintains:
//!
//! * a **candidate-clique index** (Algorithm 5): for every clique `C ∈ S`,
//!   the k-cliques whose non-free nodes all lie in `C` and that contain at
//!   least one free node — exactly the cliques a swap can trade `C` for;
//! * a **swap operation** `TrySwap` (Algorithm 4): pop a clique `C` from a
//!   work queue, greedily pick a maximal set of pairwise-disjoint candidates
//!   `S_dis ⊆ C(C)`; if `|S_dis| > 1`, trading `C` for `S_dis` grows `S`;
//! * **insertion** (Algorithm 6) and **deletion** (Algorithm 7) handlers
//!   that update the graph, repair the index, and trigger swaps only where
//!   the update can possibly matter.
//!
//! The entry point is [`DynamicSolver`]: build it from a static graph (it
//! bootstraps `S` with the LP solver), then feed edge updates.
//!
//! On top of the raw solver sits the **serving model** (single writer,
//! many readers): [`ServingSolver`] journals every batch to a durable
//! [`UpdateLog`], bumps an epoch per batch, and publishes an immutable
//! [`SolutionView`] snapshot that reader threads access through a
//! [`SharedView`] handle without ever blocking the writer. A state
//! directory (graph snapshot + metadata + log) makes the whole thing
//! restartable: restart = load snapshot + replay the committed log tail,
//! reproducing the killed process's exact epoch, `|S|` and membership.
//!
//! ```
//! use dkc_dynamic::DynamicSolver;
//! use dkc_graph::CsrGraph;
//!
//! // Two triangles sharing no node, bridged by an edge.
//! let g = CsrGraph::from_edges(6, vec![
//!     (0, 1), (1, 2), (0, 2),
//!     (3, 4), (4, 5), (3, 5),
//!     (2, 3),
//! ]).unwrap();
//! let mut solver = DynamicSolver::new(&g, 3).unwrap();
//! assert_eq!(solver.len(), 2);
//!
//! // Deleting an edge inside a triangle breaks it...
//! solver.delete_edge(0, 1);
//! assert_eq!(solver.len(), 1);
//! // ...and re-inserting it brings the triangle back.
//! solver.insert_edge(0, 1);
//! assert_eq!(solver.len(), 2);
//! solver.validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;
mod log;
mod serving;
mod solver;
mod state;
mod view;

pub use index::{CandId, CandidateIndex};
pub use log::{parse_records, render_record, FsyncPolicy, LogError, UpdateLog};
pub use serving::{stats_from_json, stats_to_json, ServeStateError, ServingSolver};
pub use solver::{BatchOutcome, DynamicSolver, EdgeUpdate, UpdateOutcome, UpdateStats};
pub use state::{CliqueId, SolutionState};
pub use view::{SharedView, SolutionView};
