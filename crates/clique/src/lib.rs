//! # dkc-clique — k-clique listing, counting and search
//!
//! Implements the kClist-style machinery (Danisch, Balalau, Sozio — WWW'18,
//! the paper's reference \[13\]) that every solver in the workspace relies on:
//!
//! * [`for_each_kclique`] — enumerate every k-clique of a DAG-oriented
//!   graph exactly once, rooted at its highest-ranked member, in
//!   `O(k · m · (d/2)^(k-2))`, through a sequential callback.
//! * [`collect_kcliques`] — the one collector, for the storage-heavy paths
//!   (GC and the clique graph behind OPT and greedy-CG): it fans roots out
//!   over the deterministic `dkc-par` executor and returns a [`CliqueStore`]
//!   holding the callback's rows, each sorted, in enumeration order, for
//!   any thread count. An optional clique budget aborts with `Err(limit)`,
//!   and that decision does not depend on the schedule either.
//! * [`count_kcliques`] / [`node_scores`] — count k-cliques globally and per
//!   node *without materialising them* (Definition 5 of the paper: the node
//!   score `s_n(u)` is the number of k-cliques containing `u`). The parallel
//!   variants ([`count_kcliques_parallel`], [`node_scores_parallel`]) are
//!   bit-identical to the sequential passes for any thread count.
//!   [`node_scores_kernel`] also marks, as a [`ScorePass`], every arc that
//!   lies in some k-clique — the only edges the rest of Algorithm 3 uses.
//! * [`FirstFinder`] — the `FindOne` procedure of Algorithm 1: return the
//!   first (k-1)-clique inside a root's out-neighbourhood, restricted to
//!   still-valid nodes.
//! * [`MinScoreFinder`] — the `FindMin` procedure of Algorithm 3: return the
//!   clique of minimum *clique score* (Definition 6) rooted at a node,
//!   optionally applying the paper's score-driven pruning rule.
//!
//!   Both finders run the listing recursion of [`for_each_kclique`] over
//!   one root, restricted to `valid` nodes, so they visit candidates in
//!   listing order; each differs from listing only in a small visitor.
//! * [`for_each_kclique_in_subset`] — bitset-based enumeration inside an
//!   arbitrary node subset of a dynamic graph, used by the candidate-clique
//!   index of Section V (Algorithm 5) and the improvement layer.
//! * [`Clique`] — an inline, allocation-free clique value type.
//! * [`CliqueStore`] — a flat stride-`k` arena for clique *sets*: one
//!   contiguous `Vec<u32>` instead of one 72-byte `Clique` per row.
//! * [`KernelMode`] — per-root choice between the sorted-slice merge kernel
//!   and a dense bit-matrix kernel (Rossi et al., "A Fast Parallel Maximum
//!   Clique Algorithm for Large Sparse Graphs"). Every `*_kernel` variant
//!   and the finders' `with_kernel` accept a mode; the default
//!   [`KernelMode::Adaptive`] densifies roots whose out-degree lands in
//!   `DENSE_MIN_DEGREE..=DENSE_MAX_DEGREE`, and every mode emits
//!   bit-identical cliques in the identical order. Two walks make that
//!   choice: the counting pass and the listing recursion.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod count;
mod find;
mod kernel;
mod list;
mod store;
mod subset;
mod types;

pub use count::{
    count_kcliques, count_kcliques_kernel, count_kcliques_parallel, node_scores,
    node_scores_kernel, node_scores_parallel, ScorePass,
};
pub use find::{FirstFinder, MinScoreFinder, ScoredClique};
pub use kernel::{KernelMode, DENSE_MAX_DEGREE, DENSE_MIN_DEGREE};
pub use list::{for_each_kclique, for_each_kclique_kernel};
pub use store::{collect_kcliques, collect_kcliques_kernel, CliqueStore};
pub use subset::for_each_kclique_in_subset;
pub use types::{Clique, MAX_K};
