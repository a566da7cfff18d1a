use crate::kernel::{self, DenseIndex, KernelMode};
use crate::list::intersect_sorted;
use dkc_graph::{Dag, NodeId};
use dkc_par::{par_reduce, ParConfig};

/// Counts all k-cliques of the graph without materialising them.
pub fn count_kcliques(dag: &Dag, k: usize) -> u64 {
    count_kcliques_parallel(dag, k, ParConfig::sequential())
}

/// Computes per-node k-clique counts — the *node scores* `s_n(u)` of
/// Definition 5 — in a single enumeration pass and `O(n + m)` memory.
///
/// This is Line 2 of Algorithm 3: scores are accumulated during the kClist
/// recursion; no clique is ever stored. At the innermost level, every
/// candidate completes a clique, so the counts are aggregated wholesale
/// (`O(|cand| + k)` per parent instead of `O(k)` per clique).
pub fn node_scores(dag: &Dag, k: usize) -> Vec<u64> {
    node_scores_parallel(dag, k, ParConfig::sequential())
}

/// Parallel [`node_scores`] on the [`dkc_par`] executor: root nodes are
/// distributed over workers in chunks; per-worker score arrays are summed
/// element-wise at the end. Bit-identical to the sequential pass for any
/// thread count (`u64` addition commutes).
pub fn node_scores_parallel(dag: &Dag, k: usize, par: ParConfig) -> Vec<u64> {
    score_pass(dag, k, par, KernelMode::default(), false).scores
}

/// What [`node_scores_kernel`] returns: the node scores plus the arcs the
/// pass found inside some k-clique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScorePass {
    /// Per-node k-clique counts, equal to [`node_scores`].
    pub scores: Vec<u64>,
    /// One bit per arc of the DAG, by arc position (see
    /// [`Dag::arc_offset`]): set iff the arc's edge lies in some k-clique.
    pub clique_arcs: Vec<u64>,
}

/// [`node_scores_parallel`] with an explicit intersection kernel that also
/// marks every arc lying in some k-clique — the only edges the rest of
/// Algorithm 3 can use. Every mode produces identical scores and marks.
///
/// The marks cost one bit set per clique edge found, not a lookup:
/// * the slice kernel keeps, per recursion level, where each candidate came
///   from in the level above and the arc position its merge matched, so a
///   completed clique walks that trail up to the root;
/// * the bitset kernel sets the local pairs each clique uses in a matrix
///   shaped like its adjacency rows, then maps them back to arc positions
///   recorded by the same scatter that builds those rows.
///
/// Per-worker bitsets are ORed, so the marks do not depend on the schedule.
pub fn node_scores_kernel(dag: &Dag, k: usize, par: ParConfig, mode: KernelMode) -> ScorePass {
    score_pass(dag, k, par, mode, true)
}

fn score_pass(dag: &Dag, k: usize, par: ParConfig, mode: KernelMode, mark: bool) -> ScorePass {
    let n = dag.num_nodes();
    let words = if mark { dag.num_arcs().div_ceil(64) } else { 0 };
    par_reduce(
        par,
        n,
        || CountCtx::with_kernel(dag, k, mode),
        || ScorePass { scores: vec![0u64; n], clique_arcs: vec![0u64; words] },
        |ctx, acc, range| {
            for u in range {
                let arcs = mark.then_some(&mut acc.clique_arcs[..]);
                ctx.run_root(u as NodeId, Some(&mut acc.scores), arcs);
            }
        },
        |merged, local| {
            for (m, l) in merged.scores.iter_mut().zip(local.scores) {
                *m += l;
            }
            for (m, l) in merged.clique_arcs.iter_mut().zip(local.clique_arcs) {
                *m |= l;
            }
        },
    )
}

/// Parallel [`count_kcliques`] on the [`dkc_par`] executor; per-worker
/// totals are summed, so the count is thread-count invariant.
pub fn count_kcliques_parallel(dag: &Dag, k: usize, par: ParConfig) -> u64 {
    count_kcliques_kernel(dag, k, par, KernelMode::default())
}

/// [`count_kcliques_parallel`] with an explicit intersection kernel; every
/// mode produces the identical count.
pub fn count_kcliques_kernel(dag: &Dag, k: usize, par: ParConfig, mode: KernelMode) -> u64 {
    par_reduce(
        par,
        dag.num_nodes(),
        || CountCtx::with_kernel(dag, k, mode),
        || 0u64,
        |ctx, total, range| {
            for u in range {
                *total += ctx.run_root(u as NodeId, None, None);
            }
        },
        |a, b| *a += b,
    )
}

/// Reusable recursion state for counting, optionally accumulating per-node
/// scores and clique arcs into caller-provided arrays (kept outside the
/// context so one context can serve as per-worker scratch while the
/// accumulators live in the executor's reduction slot). Holds both
/// kernels' scratch; [`KernelMode`] picks per root.
struct CountCtx<'a> {
    dag: &'a Dag,
    k: usize,
    mode: KernelMode,
    stack: Vec<NodeId>,
    bufs: Vec<Vec<NodeId>>,
    levels: Vec<Vec<u64>>,
    dense: DenseIndex,
    /// Marking, slice kernel: `trails[d]` says where each candidate of
    /// `bufs[d]` (`d >= 1`) came from in `bufs[d - 1]`, and the arc from
    /// `stack[d]` to it.
    trails: Vec<Trail>,
    /// Marking: the root's first arc position (level 0's arcs are
    /// `first_arc + i`, in both kernels).
    first_arc: usize,
    /// Bitset kernel: local ids of the stack below the root (read only
    /// when marking).
    local_stack: Vec<usize>,
    /// Marking, bitset kernel: the local pairs some clique uses, shaped
    /// like [`DenseIndex`]'s rows.
    pairs: Vec<u64>,
    /// Marking, bitset kernel: the local nodes some clique uses.
    members: Vec<u64>,
}

/// One slice-kernel level's provenance, parallel to its candidate list.
#[derive(Debug, Clone, Default)]
struct Trail {
    /// Index of the candidate in the level above.
    parent: Vec<u32>,
    /// Arc position from the level's stack node to the candidate.
    arc: Vec<usize>,
}

/// [`intersect_sorted`] that also fills `trail`: for each match, its index
/// in `a` and its arc position, `first_arc` plus its index in `b`.
fn intersect_tracked(
    a: &[NodeId],
    b: &[NodeId],
    first_arc: usize,
    out: &mut Vec<NodeId>,
    trail: &mut Trail,
) {
    out.clear();
    trail.parent.clear();
    trail.arc.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                trail.parent.push(i as u32);
                trail.arc.push(first_arc + j);
                i += 1;
                j += 1;
            }
        }
    }
}

impl<'a> CountCtx<'a> {
    fn with_kernel(dag: &'a Dag, k: usize, mode: KernelMode) -> Self {
        assert!(k >= 1, "k must be at least 1");
        CountCtx {
            dag,
            k,
            mode,
            stack: Vec::with_capacity(k),
            bufs: vec![Vec::new(); k.saturating_sub(1)],
            levels: vec![Vec::new(); k.saturating_sub(1)],
            dense: DenseIndex::default(),
            trails: vec![Trail::default(); k.saturating_sub(1)],
            first_arc: 0,
            local_stack: Vec::new(),
            pairs: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Counts (and scores / marks arcs, when given) the k-cliques rooted
    /// at `u`; returns the count.
    fn run_root(
        &mut self,
        u: NodeId,
        mut scores: Option<&mut [u64]>,
        arcs: Option<&mut [u64]>,
    ) -> u64 {
        if self.k == 1 {
            if let Some(s) = scores.as_deref_mut() {
                s[u as usize] += 1;
            }
            return 1;
        }
        let d = self.dag.out_degree(u);
        if d < self.k - 1 {
            return 0;
        }
        self.first_arc = self.dag.arc_offset(u);
        if self.mode.dense_for(self.k, d) {
            return self.run_root_dense(u, scores, arcs);
        }
        self.stack.clear();
        self.stack.push(u);
        let mut first = std::mem::take(&mut self.bufs[0]);
        first.clear();
        first.extend_from_slice(self.dag.out_neighbors(u));
        let c = self.recurse(self.k - 1, &first, scores, arcs);
        self.bufs[0] = first;
        c
    }

    fn recurse(
        &mut self,
        l: usize,
        cand: &[NodeId],
        mut scores: Option<&mut [u64]>,
        mut arcs: Option<&mut [u64]>,
    ) -> u64 {
        if cand.len() < l {
            return 0;
        }
        // `cand` is `bufs[level]`.
        let level = self.k - 1 - l;
        if l == 1 {
            // Every candidate completes a clique with the current stack:
            // aggregate instead of touching counters once per clique.
            if let Some(scores) = scores.as_deref_mut() {
                for &v in cand {
                    scores[v as usize] += 1;
                }
                let found = cand.len() as u64;
                for &c in &self.stack {
                    scores[c as usize] += found;
                }
            }
            if let Some(arcs) = arcs {
                for i in 0..cand.len() {
                    self.mark_trail(arcs, level, i);
                }
            }
            return cand.len() as u64;
        }
        let depth = level + 1;
        let dag = self.dag;
        let mut sub = std::mem::take(&mut self.bufs[depth]);
        let mut total = 0u64;
        for (i, &v) in cand.iter().enumerate() {
            if arcs.is_some() {
                let trail = &mut self.trails[depth];
                intersect_tracked(cand, dag.out_neighbors(v), dag.arc_offset(v), &mut sub, trail);
            } else {
                intersect_sorted(cand, dag.out_neighbors(v), &mut sub);
            }
            if sub.len() >= l - 1 {
                self.stack.push(v);
                let found = self.recurse(l - 1, &sub, scores.as_deref_mut(), arcs.as_deref_mut());
                self.stack.pop();
                if found > 0 {
                    if let Some(arcs) = arcs.as_deref_mut() {
                        self.mark_trail(arcs, level, i);
                    }
                }
                total += found;
            }
        }
        self.bufs[depth] = sub;
        total
    }

    /// Marks the arcs from every stack node up to `level` to candidate `i`
    /// of `bufs[level]`, walking the trails up to the root.
    fn mark_trail(&self, arcs: &mut [u64], level: usize, mut i: usize) {
        for trail in self.trails[1..=level].iter().rev() {
            kernel::set_bit(arcs, trail.arc[i]);
            i = trail.parent[i] as usize;
        }
        kernel::set_bit(arcs, self.first_arc + i);
    }

    /// Bitset-kernel root: one matrix build, then word-AND recursion. The
    /// innermost aggregation mirrors the slice kernel (candidate popcount
    /// credited wholesale), so counts and scores are bit-identical.
    fn run_root_dense(
        &mut self,
        u: NodeId,
        scores: Option<&mut [u64]>,
        mut arcs: Option<&mut [u64]>,
    ) -> u64 {
        let d = if arcs.is_some() {
            let d = self.dense.build_with_arcs(self.dag, u);
            self.local_stack.clear();
            self.pairs.clear();
            self.pairs.resize(d * self.dense.stride, 0);
            d
        } else {
            self.dense.build(self.dag, u, None)
        };
        self.stack.clear();
        self.stack.push(u);
        let mut first = std::mem::take(&mut self.levels[0]);
        kernel::fill_full(&mut first, d);
        let c = self.recurse_dense(self.k - 1, &first, scores, arcs.as_deref_mut());
        self.levels[0] = first;
        if c > 0 {
            if let Some(arcs) = arcs {
                self.mark_pairs(arcs);
            }
        }
        c
    }

    fn recurse_dense(
        &mut self,
        l: usize,
        cand: &[u64],
        mut scores: Option<&mut [u64]>,
        mut arcs: Option<&mut [u64]>,
    ) -> u64 {
        let cand_ones = kernel::count_ones(cand);
        if cand_ones < l {
            return 0;
        }
        let stride = self.dense.stride;
        if l == 1 {
            if let Some(scores) = scores.as_deref_mut() {
                for i in kernel::ones(cand) {
                    scores[self.dense.globals[i] as usize] += 1;
                }
                let found = cand_ones as u64;
                for &c in &self.stack {
                    scores[c as usize] += found;
                }
            }
            if arcs.is_some() {
                for &s in &self.local_stack {
                    for (p, &c) in self.pairs[s * stride..(s + 1) * stride].iter_mut().zip(cand) {
                        *p |= c;
                    }
                }
            }
            return cand_ones as u64;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.levels[depth]);
        let mut total = 0u64;
        for i in kernel::ones(cand) {
            kernel::and_into(&mut sub, cand, self.dense.row(i));
            if kernel::count_ones(&sub) >= l - 1 {
                self.stack.push(self.dense.globals[i]);
                self.local_stack.push(i);
                let found =
                    self.recurse_dense(l - 1, &sub, scores.as_deref_mut(), arcs.as_deref_mut());
                self.stack.pop();
                self.local_stack.pop();
                if found > 0 && arcs.is_some() {
                    for &s in &self.local_stack {
                        kernel::set_bit(&mut self.pairs[s * stride..(s + 1) * stride], i);
                    }
                }
                total += found;
            }
        }
        self.levels[depth] = sub;
        total
    }

    /// Maps the root's used local pairs back to arcs. The root's own arcs
    /// go to every local node in a clique: at `k >= 3` each such node is in
    /// a used pair, as its row or as a column.
    fn mark_pairs(&mut self, arcs: &mut [u64]) {
        let stride = self.dense.stride;
        self.members.clear();
        self.members.resize(stride, 0);
        for (i, row) in self.pairs.chunks_exact(stride).enumerate() {
            if row.iter().any(|&w| w != 0) {
                kernel::set_bit(&mut self.members, i);
                for (m, &w) in self.members.iter_mut().zip(row) {
                    *m |= w;
                }
            }
        }
        for i in kernel::ones(&self.members) {
            kernel::set_bit(arcs, self.first_arc + i);
        }
        self.dense.for_each_arc_in(&self.pairs, |arc| kernel::set_bit(arcs, arc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::for_each_kclique;
    use dkc_graph::{CsrGraph, NodeOrder, OrderingKind};

    fn paper_graph() -> CsrGraph {
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

    fn dag(g: &CsrGraph) -> Dag {
        Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy))
    }

    #[test]
    fn counts_match_example1() {
        let g = paper_graph();
        let d = dag(&g);
        assert_eq!(count_kcliques(&d, 3), 7);
        assert_eq!(count_kcliques(&d, 1), 9);
        assert_eq!(count_kcliques(&d, 2), 15);
        assert_eq!(count_kcliques(&d, 4), 0); // no 4-clique in Fig. 2
    }

    #[test]
    fn node_scores_match_example3() {
        // Example 3: s_n(v6) = s_n(v5) = s_n(v8) = 3.
        let g = paper_graph();
        let d = dag(&g);
        let s = node_scores(&d, 3);
        assert_eq!(s[5], 3); // v6
        assert_eq!(s[4], 3); // v5
        assert_eq!(s[7], 3); // v8
                             // Total score = k * number of cliques.
        assert_eq!(s.iter().sum::<u64>(), 3 * 7);
    }

    #[test]
    fn scores_agree_with_explicit_enumeration() {
        let g = paper_graph();
        let d = dag(&g);
        for k in 1..=4 {
            let fast = node_scores(&d, k);
            let mut slow = vec![0u64; 9];
            for_each_kclique(&d, k, |nodes| {
                for &v in nodes {
                    slow[v as usize] += 1;
                }
            });
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn complete_graph_counts_are_binomials() {
        let mut edges = Vec::new();
        for a in 0..8u32 {
            for b in (a + 1)..8 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(8, edges).unwrap();
        let d = dag(&g);
        // C(8, k) cliques; every node participates in C(7, k-1).
        let binom = |n: u64, k: u64| -> u64 { (0..k).fold(1u64, |acc, i| acc * (n - i) / (i + 1)) };
        for k in 1..=8usize {
            assert_eq!(count_kcliques(&d, k), binom(8, k as u64), "k={k}");
            let s = node_scores(&d, k);
            for (u, &score) in s.iter().enumerate() {
                assert_eq!(score, binom(7, k as u64 - 1), "k={k} u={u}");
            }
        }
    }

    #[test]
    fn kernel_modes_agree_on_counts_and_scores() {
        let g = paper_graph();
        let d = dag(&g);
        let par = ParConfig::sequential();
        for k in 1..=4 {
            let base_count = count_kcliques_kernel(&d, k, par, KernelMode::Slice);
            let base = node_scores_kernel(&d, k, par, KernelMode::Slice);
            assert_eq!(base.scores, node_scores(&d, k), "k={k}");
            for mode in [KernelMode::Bitset, KernelMode::Adaptive] {
                assert_eq!(count_kcliques_kernel(&d, k, par, mode), base_count, "k={k} {mode}");
                assert_eq!(node_scores_kernel(&d, k, par, mode), base, "k={k} {mode}");
            }
        }
    }

    /// The arcs of `d` whose edge lies in some enumerated k-clique.
    fn clique_arcs_by_enumeration(d: &Dag, k: usize) -> Vec<u64> {
        let mut arcs = vec![0u64; d.num_arcs().div_ceil(64)];
        for_each_kclique(d, k, |nodes| {
            for &a in nodes {
                for &b in nodes {
                    if let Ok(i) = d.out_neighbors(a).binary_search(&b) {
                        kernel::set_bit(&mut arcs, d.arc_offset(a) + i);
                    }
                }
            }
        });
        arcs
    }

    #[test]
    fn marked_arcs_are_the_clique_edges() {
        // Fig. 2 plus the edge v1-v2 (ids 0-1), which lies in no triangle:
        // all 15 edges of Fig. 2 lie in one of its seven triangles.
        let mut edges = paper_graph().edges();
        edges.push((0, 1));
        let g = CsrGraph::from_edges(9, edges).unwrap();
        let d = dag(&g);
        let pass = node_scores_kernel(&d, 3, ParConfig::sequential(), KernelMode::Slice);
        let marked: u32 = pass.clique_arcs.iter().map(|w| w.count_ones()).sum();
        assert_eq!(marked, 15);
        let (hi, lo) = if d.has_arc(0, 1) { (0, 1) } else { (1, 0) };
        let at = d.arc_offset(hi) + d.out_neighbors(hi).binary_search(&lo).unwrap();
        assert_eq!(pass.clique_arcs[at / 64] & (1 << (at % 64)), 0, "v1-v2 is in no triangle");
        for k in 1..=4 {
            let expect = clique_arcs_by_enumeration(&d, k);
            for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
                let pass = node_scores_kernel(&d, k, ParConfig::sequential(), mode);
                assert_eq!(pass.clique_arcs, expect, "k={k} {mode}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // Random-ish graph built deterministically. A small chunk forces
        // genuinely parallel execution despite the modest size.
        let mut edges = Vec::new();
        for i in 0..600u32 {
            edges.push((i % 200, (i * 7 + 3) % 200));
            edges.push((i % 200, (i * 13 + 11) % 200));
        }
        let g = CsrGraph::from_edges(200, edges).unwrap();
        let d = dag(&g);
        for threads in [2usize, 4, 8] {
            let par = ParConfig::new(threads).with_chunk(16);
            for k in 3..=5 {
                assert_eq!(
                    count_kcliques_parallel(&d, k, par),
                    count_kcliques(&d, k),
                    "count k={k} threads={threads}"
                );
                assert_eq!(
                    node_scores_parallel(&d, k, par),
                    node_scores(&d, k),
                    "scores k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = CsrGraph::empty();
        let d = dag(&g);
        assert_eq!(count_kcliques(&d, 3), 0);
        assert!(node_scores(&d, 3).is_empty());

        let g = CsrGraph::from_edges(2, vec![(0, 1)]).unwrap();
        let d = dag(&g);
        assert_eq!(count_kcliques(&d, 3), 0);
        assert_eq!(node_scores(&d, 3), vec![0, 0]);
    }
}
