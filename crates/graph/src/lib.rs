//! # dkc-graph — graph substrate for the disjoint k-clique toolkit
//!
//! This crate provides the in-memory graph representations every algorithm in
//! the workspace builds upon:
//!
//! * [`CsrGraph`] — an immutable, compressed-sparse-row undirected graph with
//!   sorted neighbour arrays. All static solvers (HG / GC / L / LP / OPT)
//!   operate on this representation.
//! * [`DynGraph`] — a mutable adjacency-list graph supporting edge insertion
//!   and deletion in `O(deg)`, used by the dynamic-maintenance crate
//!   (Section V of the paper).
//! * [`NodeOrder`] / [`OrderingKind`] — total node orderings (identity,
//!   degree, degeneracy, external score) used to orient the graph into a DAG.
//! * [`Dag`] — the directed acyclic orientation of a [`CsrGraph`] under a
//!   total order. Following Algorithm 1 of the paper, an edge points from the
//!   node with the *larger* order value to the node with the *smaller* one,
//!   i.e. `v ∈ N⁺(u)` implies `η(v) < η(u)`. Every k-clique is therefore
//!   enumerated exactly once, rooted at its highest-ranked member.
//! * [`io`] — layered graph ingestion: a chunked parallel text edge-list
//!   parser compatible with the KONECT / Network-Repository formats, a
//!   versioned checksummed binary CSR snapshot format (`.dkcsr`), and a
//!   format-detecting loader ([`io::load_graph`]).
//!
//! Node identifiers are dense `u32` values in `0..n`. The graph is simple:
//! self-loops are dropped and parallel edges de-duplicated at construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod dag;
mod dynamic;
mod error;
pub mod io;
mod order;
mod stats;
mod subgraph;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dag::Dag;
pub use dynamic::DynGraph;
pub use error::{GraphError, SnapshotError};
pub use order::{
    degeneracy_removal_order, greedy_coloring, NodeOrder, OrderingKind, ParseOrderingError,
};
pub use stats::GraphStats;
pub use subgraph::InducedSubgraph;

/// Dense node identifier. Nodes of a graph with `n` nodes are `0..n`.
pub type NodeId = u32;

/// An undirected edge. By convention stored with `0 <= e.0`, `e.1 < n`;
/// orientation of the tuple carries no meaning.
pub type Edge = (NodeId, NodeId);
