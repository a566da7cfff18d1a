use crate::kernel::{self, DenseIndex, KernelMode};
use crate::list::intersect_sorted;
use crate::types::Clique;
use dkc_graph::{Dag, NodeId};

/// A clique together with its clique score `s_c(C)` (Definition 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoredClique {
    /// The clique members (sorted).
    pub clique: Clique,
    /// Sum of the members' node scores.
    pub score: u64,
}

/// `FindOne` of Algorithm 1: finds the *first* k-clique rooted at a node.
///
/// Given a root `u`, searches for any (k-1)-clique inside the still-valid
/// part of `N⁺(u)` and returns `{u} ∪ clique`. The search visits candidates
/// in ascending node id — in both kernels — so results are deterministic.
/// Recursion buffers are reused across calls — create one finder per solve,
/// then call [`FirstFinder::find`] for every processed node.
pub struct FirstFinder<'a> {
    dag: &'a Dag,
    k: usize,
    mode: KernelMode,
    stack: Vec<NodeId>,
    bufs: Vec<Vec<NodeId>>,
    levels: Vec<Vec<u64>>,
    dense: DenseIndex,
}

impl<'a> FirstFinder<'a> {
    /// Creates a finder for k-cliques (`k >= 2`).
    pub fn new(dag: &'a Dag, k: usize) -> Self {
        Self::with_kernel(dag, k, KernelMode::default())
    }

    /// [`FirstFinder::new`] with an explicit intersection kernel; every
    /// mode finds the identical clique.
    pub fn with_kernel(dag: &'a Dag, k: usize, mode: KernelMode) -> Self {
        assert!(k >= 2, "FirstFinder requires k >= 2");
        FirstFinder {
            dag,
            k,
            mode,
            stack: Vec::with_capacity(k),
            bufs: vec![Vec::new(); k],
            levels: vec![Vec::new(); k],
            dense: DenseIndex::default(),
        }
    }

    /// Returns the first k-clique rooted at `root` whose members are all
    /// `valid`, or `None` when no such clique exists.
    pub fn find(&mut self, root: NodeId, valid: &[bool]) -> Option<Clique> {
        if !valid[root as usize] {
            return None;
        }
        self.stack.clear();
        self.stack.push(root);
        let found = if self.mode.dense_for(self.k, self.dag.out_degree(root)) {
            let d = self.dense.build_filtered(self.dag, root, valid);
            let mut cand = std::mem::take(&mut self.levels[0]);
            kernel::fill_full(&mut cand, d);
            let found = self.recurse_dense(self.k - 1, &cand);
            self.levels[0] = cand;
            found
        } else {
            let mut cand = std::mem::take(&mut self.bufs[0]);
            cand.clear();
            cand.extend(
                self.dag.out_neighbors(root).iter().copied().filter(|&v| valid[v as usize]),
            );
            let found = self.recurse(self.k - 1, &cand);
            self.bufs[0] = cand;
            found
        };
        if found {
            Some(Clique::new(&self.stack))
        } else {
            None
        }
    }

    fn recurse(&mut self, l: usize, cand: &[NodeId]) -> bool {
        if cand.len() < l {
            return false;
        }
        if l == 1 {
            self.stack.push(cand[0]);
            return true;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.bufs[depth]);
        let mut found = false;
        for &v in cand {
            // cand is already valid-filtered, so the intersection is too.
            intersect_sorted(cand, self.dag.out_neighbors(v), &mut sub);
            if sub.len() >= l - 1 {
                self.stack.push(v);
                if self.recurse(l - 1, &sub) {
                    found = true;
                    break;
                }
                self.stack.pop();
            }
        }
        self.bufs[depth] = sub;
        found
    }

    /// Bitset-kernel mirror of [`FirstFinder::recurse`]: local ids ascend
    /// with global ids, so the first clique found is the same one.
    fn recurse_dense(&mut self, l: usize, cand: &[u64]) -> bool {
        if kernel::count_ones(cand) < l {
            return false;
        }
        if l == 1 {
            let first = kernel::ones(cand).next().expect("count checked above");
            self.stack.push(self.dense.globals[first]);
            return true;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.levels[depth]);
        let mut found = false;
        for i in kernel::ones(cand) {
            kernel::and_into(&mut sub, cand, self.dense.row(i));
            if kernel::count_ones(&sub) >= l - 1 {
                self.stack.push(self.dense.globals[i]);
                if self.recurse_dense(l - 1, &sub) {
                    found = true;
                    break;
                }
                self.stack.pop();
            }
        }
        self.levels[depth] = sub;
        found
    }
}

/// `FindMin` of Algorithm 3: finds the clique of minimum clique score
/// rooted at a node.
///
/// With `prune = true`, applies the paper's score-driven pruning rule
/// (Lines 19-20 / 27-28): a branch is abandoned as soon as the partial score
/// plus the next node's score reaches the best complete score found so far.
/// This is lossless — every node of a real k-clique has `s_n >= 1`, so any
/// completion through the pruned branch would score at least as much as the
/// incumbent, and ties keep the first-encountered clique either way.
/// `prune = false` gives the exhaustive variant (the paper's competitor L).
pub struct MinScoreFinder<'a> {
    dag: &'a Dag,
    scores: &'a [u64],
    k: usize,
    prune: bool,
    mode: KernelMode,
    stack: Vec<NodeId>,
    bufs: Vec<Vec<NodeId>>,
    levels: Vec<Vec<u64>>,
    dense: DenseIndex,
    best: Option<ScoredClique>,
}

impl<'a> MinScoreFinder<'a> {
    /// Creates a finder for k-cliques with the given per-node scores.
    pub fn new(dag: &'a Dag, scores: &'a [u64], k: usize, prune: bool) -> Self {
        Self::with_kernel(dag, scores, k, prune, KernelMode::default())
    }

    /// [`MinScoreFinder::new`] with an explicit intersection kernel; every
    /// mode finds the identical clique and score (pruning decisions depend
    /// only on the incumbent best, which evolves identically because both
    /// kernels visit candidates in ascending id).
    pub fn with_kernel(
        dag: &'a Dag,
        scores: &'a [u64],
        k: usize,
        prune: bool,
        mode: KernelMode,
    ) -> Self {
        assert!(k >= 2, "MinScoreFinder requires k >= 2");
        assert_eq!(scores.len(), dag.num_nodes(), "one score per node required");
        MinScoreFinder {
            dag,
            scores,
            k,
            prune,
            mode,
            stack: Vec::with_capacity(k),
            bufs: vec![Vec::new(); k],
            levels: vec![Vec::new(); k],
            dense: DenseIndex::default(),
            best: None,
        }
    }

    /// Finds the minimum-score k-clique rooted at `root` among `valid`
    /// nodes. Deterministic: among equal-score cliques the first in the
    /// ascending-id recursion order wins (the tie rule the paper's
    /// implementation adopts for efficiency).
    pub fn find(&mut self, root: NodeId, valid: &[bool]) -> Option<ScoredClique> {
        if !valid[root as usize] {
            return None;
        }
        self.best = None;
        self.stack.clear();
        self.stack.push(root);
        if self.mode.dense_for(self.k, self.dag.out_degree(root)) {
            let d = self.dense.build_filtered(self.dag, root, valid);
            let mut cand = std::mem::take(&mut self.levels[0]);
            kernel::fill_full(&mut cand, d);
            self.recurse_dense(self.k - 1, &cand, self.scores[root as usize]);
            self.levels[0] = cand;
        } else {
            let mut cand = std::mem::take(&mut self.bufs[0]);
            cand.clear();
            cand.extend(
                self.dag.out_neighbors(root).iter().copied().filter(|&v| valid[v as usize]),
            );
            self.recurse(self.k - 1, &cand, self.scores[root as usize]);
            self.bufs[0] = cand;
        }
        self.best.take()
    }

    fn recurse(&mut self, l: usize, cand: &[NodeId], cur_sum: u64) {
        if cand.len() < l {
            return;
        }
        if l == 1 {
            for &v in cand {
                let total = cur_sum + self.scores[v as usize];
                if self.best.is_none_or(|b| total < b.score) {
                    self.stack.push(v);
                    self.best =
                        Some(ScoredClique { clique: Clique::new(&self.stack), score: total });
                    self.stack.pop();
                }
            }
            return;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.bufs[depth]);
        for &v in cand {
            let s = cur_sum + self.scores[v as usize];
            if self.prune {
                if let Some(best) = self.best {
                    if s >= best.score {
                        continue; // score-driven pruning
                    }
                }
            }
            intersect_sorted(cand, self.dag.out_neighbors(v), &mut sub);
            if sub.len() >= l - 1 {
                self.stack.push(v);
                self.recurse(l - 1, &sub, s);
                self.stack.pop();
            }
        }
        self.bufs[depth] = sub;
    }

    /// Bitset-kernel mirror of [`MinScoreFinder::recurse`].
    fn recurse_dense(&mut self, l: usize, cand: &[u64], cur_sum: u64) {
        if kernel::count_ones(cand) < l {
            return;
        }
        if l == 1 {
            for i in kernel::ones(cand) {
                let total = cur_sum + self.scores[self.dense.globals[i] as usize];
                if self.best.is_none_or(|b| total < b.score) {
                    self.stack.push(self.dense.globals[i]);
                    self.best =
                        Some(ScoredClique { clique: Clique::new(&self.stack), score: total });
                    self.stack.pop();
                }
            }
            return;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.levels[depth]);
        for i in kernel::ones(cand) {
            let v = self.dense.globals[i];
            let s = cur_sum + self.scores[v as usize];
            if self.prune {
                if let Some(best) = self.best {
                    if s >= best.score {
                        continue; // score-driven pruning
                    }
                }
            }
            kernel::and_into(&mut sub, cand, self.dense.row(i));
            if kernel::count_ones(&sub) >= l - 1 {
                self.stack.push(v);
                self.recurse_dense(l - 1, &sub, s);
                self.stack.pop();
            }
        }
        self.levels[depth] = sub;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::node_scores;
    use crate::list::tests::for_each_kclique_rooted;
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
        Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Identity))
    }

    #[test]
    fn first_finder_follows_example2_structure() {
        // Example 2 processes v6 (id 5) under the identity order and finds a
        // 3-clique rooted at it. The paper's trace picks (v6, v5, v3); the
        // exact pick depends on FindOne's unspecified iteration order, so we
        // assert the invariants: the result is a 3-clique of G containing
        // the root, drawn from the root's out-neighbourhood.
        let g = paper_graph();
        let d = dag(&g);
        let mut f = FirstFinder::new(&d, 3);
        let valid = vec![true; 9];
        let c = f.find(5, &valid).expect("v6 roots a 3-clique");
        assert!(c.contains(5));
        for (i, &a) in c.as_slice().iter().enumerate() {
            for &b in &c.as_slice()[i + 1..] {
                assert!(g.has_edge(a, b), "{a}-{b} missing");
            }
        }
        // Remove the found clique; a further clique must exist rooted at v9
        // (id 8) because C5/C6/C7 all live in the untouched region.
        let mut valid = valid;
        for u in c.iter() {
            valid[u as usize] = false;
        }
        let c2 = f.find(8, &valid).expect("v9 roots a clique in the residual graph");
        assert!(c2.contains(8));
        assert!(c2.is_disjoint(&c));
        for (i, &a) in c2.as_slice().iter().enumerate() {
            for &b in &c2.as_slice()[i + 1..] {
                assert!(g.has_edge(a, b), "{a}-{b} missing");
            }
        }
    }

    #[test]
    fn first_finder_kernels_agree_under_churned_validity() {
        let g = paper_graph();
        let d = dag(&g);
        let mut slice = FirstFinder::with_kernel(&d, 3, KernelMode::Slice);
        let mut dense = FirstFinder::with_kernel(&d, 3, KernelMode::Bitset);
        // Walk every validity pattern derived from a small counter.
        for pattern in 0..512u32 {
            let valid: Vec<bool> = (0..9).map(|i| pattern & (1 << i) != 0).collect();
            for root in 0..9 {
                assert_eq!(
                    slice.find(root, &valid),
                    dense.find(root, &valid),
                    "root={root} pattern={pattern:b}"
                );
            }
        }
    }

    #[test]
    fn first_finder_respects_validity() {
        let g = paper_graph();
        let d = dag(&g);
        let mut f = FirstFinder::new(&d, 3);
        let mut valid = vec![true; 9];
        valid[5] = false;
        assert!(f.find(5, &valid).is_none(), "invalid root yields nothing");
        valid[5] = true;
        valid[2] = false;
        valid[4] = false;
        // v6's only out-cliques used v3/v5; with both gone nothing remains.
        assert!(f.find(5, &valid).is_none());
    }

    #[test]
    fn first_finder_returns_none_without_cliques() {
        let g = CsrGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = dag(&g);
        let mut f = FirstFinder::new(&d, 3);
        let valid = vec![true; 4];
        for u in 0..4 {
            assert!(f.find(u, &valid).is_none());
        }
    }

    #[test]
    fn min_finder_picks_minimum_score_clique() {
        let g = paper_graph();
        let d = dag(&g);
        let scores = node_scores(&d, 3);
        // Root v9 (id 8) has out-cliques {6,7,8} (C5), {3,6,8} (C6), {1,3,8} (C7).
        // Scores: v7=2 wait — verify through exhaustive listing instead.
        for prune in [false, true] {
            let mut f = MinScoreFinder::new(&d, &scores, 3, prune);
            let valid = vec![true; 9];
            let got = f.find(8, &valid).expect("v9 roots cliques");
            // Exhaustive check.
            let mut best: Option<(u64, Vec<NodeId>)> = None;
            for_each_kclique_rooted(&d, 8, 3, |nodes| {
                let s: u64 = nodes.iter().map(|&v| scores[v as usize]).sum();
                if best.as_ref().is_none_or(|(bs, _)| s < *bs) {
                    let mut v = nodes.to_vec();
                    v.sort_unstable();
                    best = Some((s, v));
                }
            });
            let (bs, bc) = best.unwrap();
            assert_eq!(got.score, bs, "prune={prune}");
            assert_eq!(got.clique.as_slice(), bc.as_slice(), "prune={prune}");
        }
    }

    #[test]
    fn min_finder_kernels_agree_under_churned_validity() {
        let g = paper_graph();
        let d = dag(&g);
        let scores = node_scores(&d, 3);
        for prune in [false, true] {
            let mut slice = MinScoreFinder::with_kernel(&d, &scores, 3, prune, KernelMode::Slice);
            let mut dense = MinScoreFinder::with_kernel(&d, &scores, 3, prune, KernelMode::Bitset);
            for pattern in 0..512u32 {
                let valid: Vec<bool> = (0..9).map(|i| pattern & (1 << i) != 0).collect();
                for root in 0..9 {
                    assert_eq!(
                        slice.find(root, &valid),
                        dense.find(root, &valid),
                        "prune={prune} root={root} pattern={pattern:b}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_and_exhaustive_agree_everywhere() {
        let g = paper_graph();
        let d = dag(&g);
        let scores = node_scores(&d, 3);
        let valid = vec![true; 9];
        let mut lp = MinScoreFinder::new(&d, &scores, 3, true);
        let mut l = MinScoreFinder::new(&d, &scores, 3, false);
        for u in 0..9 {
            assert_eq!(lp.find(u, &valid), l.find(u, &valid), "root {u}");
        }
    }

    #[test]
    fn min_finder_score_includes_root() {
        let g = paper_graph();
        let d = dag(&g);
        let scores = node_scores(&d, 3);
        let mut f = MinScoreFinder::new(&d, &scores, 3, true);
        let valid = vec![true; 9];
        let got = f.find(5, &valid).unwrap();
        assert_eq!(got.score, got.clique.score(&scores));
        assert!(got.clique.contains(5), "root must be a member");
    }

    #[test]
    fn finders_reject_small_k() {
        let g = paper_graph();
        let d = dag(&g);
        let scores = vec![0u64; 9];
        assert!(std::panic::catch_unwind(|| FirstFinder::new(&d, 1)).is_err());
        assert!(std::panic::catch_unwind(|| MinScoreFinder::new(&d, &scores, 1, true)).is_err());
    }
}
