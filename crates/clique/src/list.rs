use crate::kernel::{self, DenseIndex, KernelMode};
use dkc_graph::{Dag, NodeId};

/// Enumerates every k-clique of the DAG-oriented graph exactly once.
///
/// Each clique is reported as a slice whose first element is the clique's
/// *root* — the member with the highest rank under the DAG's total order.
/// The remaining members appear in recursion order. The slice is only valid
/// for the duration of the callback.
///
/// `k = 1` reports every node, `k = 2` every edge; `k >= 3` is the paper's
/// regime. The recursion intersects sorted candidate lists (or, for dense
/// roots, word-ANDs the per-root bit matrix — see [`KernelMode`]), giving
/// the `O(k · m · (d/2)^(k-2))` bound of reference \[13\] when the order is
/// a degeneracy order.
pub fn for_each_kclique<F>(dag: &Dag, k: usize, cb: F)
where
    F: FnMut(&[NodeId]),
{
    for_each_kclique_kernel(dag, k, KernelMode::default(), cb)
}

/// [`for_each_kclique`] with an explicit intersection kernel. Every mode
/// reports the same cliques in the same order.
pub fn for_each_kclique_kernel<F>(dag: &Dag, k: usize, mode: KernelMode, mut cb: F)
where
    F: FnMut(&[NodeId]),
{
    let mut ctx = ListCtx::with_kernel(dag, k, mode);
    for u in 0..dag.num_nodes() as NodeId {
        ctx.run_root(u, None, (), &mut |nodes: &[NodeId]| {
            cb(nodes);
            true
        });
    }
}

/// What a rooted walk ([`ListCtx::run_root`]) does besides descending.
///
/// Listing, `FindOne` and `FindMin` share the recursion and differ only
/// here: in a value carried down the member stack, in a bound that cuts a
/// branch before its intersection, and in what a completed clique does.
/// Any `FnMut(&[NodeId]) -> bool` is the listing visitor: it sees every
/// clique, root first, and returns `false` to stop the walk.
pub(crate) trait Visit {
    /// The value carried down the member stack (a partial score, or `()`).
    type Acc: Copy;

    /// Asked before `v` joins a stack that carries `acc` — the root
    /// included — and before any intersection through `v`. Returns what the
    /// stack carries with `v` on it, or `None` to cut every branch
    /// through `v`.
    fn admit(&mut self, acc: Self::Acc, v: NodeId) -> Option<Self::Acc>;

    /// `v` completes a k-clique with `stack`, which carries `acc`. Pushes
    /// `v` (and pops it again) only when it keeps the clique. Returns
    /// `false` to stop the walk.
    fn leaf(&mut self, acc: Self::Acc, stack: &mut Vec<NodeId>, v: NodeId) -> bool;
}

impl<F: FnMut(&[NodeId]) -> bool> Visit for F {
    type Acc = ();

    #[inline]
    fn admit(&mut self, _: (), _: NodeId) -> Option<()> {
        Some(())
    }

    #[inline]
    fn leaf(&mut self, _: (), stack: &mut Vec<NodeId>, v: NodeId) -> bool {
        stack.push(v);
        let keep_going = self(stack);
        stack.pop();
        keep_going
    }
}

/// The one rooted k-clique walk: one candidate buffer per depth plus the
/// member stack, so a walk performs no per-clique allocation. Holds both
/// kernels' scratch; [`KernelMode`] picks per root. A [`Visit`] decides
/// what the walk keeps, so listing, [`FirstFinder`] and
/// [`MinScoreFinder`] all run it.
///
/// [`FirstFinder`]: crate::FirstFinder
/// [`MinScoreFinder`]: crate::MinScoreFinder
pub(crate) struct ListCtx<'a> {
    dag: &'a Dag,
    k: usize,
    mode: KernelMode,
    stack: Vec<NodeId>,
    /// `bufs[d]` holds the slice-kernel candidate set at recursion depth `d`.
    bufs: Vec<Vec<NodeId>>,
    /// `levels[d]` holds the bitset-kernel candidate words at depth `d`.
    levels: Vec<Vec<u64>>,
    dense: DenseIndex,
}

impl<'a> ListCtx<'a> {
    pub(crate) fn with_kernel(dag: &'a Dag, k: usize, mode: KernelMode) -> Self {
        assert!(k >= 1, "k must be at least 1");
        ListCtx {
            dag,
            k,
            mode,
            stack: Vec::with_capacity(k),
            bufs: vec![Vec::new(); k.saturating_sub(1)],
            levels: vec![Vec::new(); k.saturating_sub(1)],
            dense: DenseIndex::default(),
        }
    }

    /// Walks the k-cliques rooted at `u` whose members are all `valid`
    /// (every node when `None`), in ascending member id. `acc` is what the
    /// empty stack carries; the root is admitted like any other member.
    /// Returns `false` when the visitor stopped the walk.
    pub(crate) fn run_root<V: Visit>(
        &mut self,
        u: NodeId,
        valid: Option<&[bool]>,
        acc: V::Acc,
        visit: &mut V,
    ) -> bool {
        self.stack.clear();
        if valid.is_some_and(|valid| !valid[u as usize]) {
            return true;
        }
        if self.k == 1 {
            return visit.leaf(acc, &mut self.stack, u);
        }
        let d = self.dag.out_degree(u);
        if d < self.k - 1 {
            return true;
        }
        let Some(acc) = visit.admit(acc, u) else {
            return true;
        };
        self.stack.push(u);
        if self.mode.dense_for(self.k, d) {
            // Local ids ascend with global ids, so the bitset kernel visits
            // (and completes) cliques in exactly the slice kernel's order.
            let d = self.dense.build(self.dag, u, valid);
            let mut first = std::mem::take(&mut self.levels[0]);
            kernel::fill_full(&mut first, d);
            let keep_going = self.recurse_dense(self.k - 1, &first, acc, visit);
            self.levels[0] = first;
            keep_going
        } else {
            let mut first = std::mem::take(&mut self.bufs[0]);
            kernel::out_neighbors_in(self.dag, u, valid, &mut first);
            let keep_going = self.recurse(self.k - 1, &first, acc, visit);
            self.bufs[0] = first;
            keep_going
        }
    }

    /// Extends the member stack with `l` more nodes drawn from `cand`.
    /// Returns `false` when the visitor stopped the walk.
    fn recurse<V: Visit>(&mut self, l: usize, cand: &[NodeId], acc: V::Acc, visit: &mut V) -> bool {
        if cand.len() < l {
            return true;
        }
        if l == 1 {
            for &v in cand {
                if !visit.leaf(acc, &mut self.stack, v) {
                    return false;
                }
            }
            return true;
        }
        let depth = self.k - l; // 1-based depth into bufs
        let mut sub = std::mem::take(&mut self.bufs[depth]);
        let mut keep_going = true;
        for &v in cand {
            let Some(next) = visit.admit(acc, v) else { continue };
            // Only descend through v's out-neighbours: this de-duplicates
            // member selection the same way the DAG de-duplicates roots.
            intersect_sorted(cand, self.dag.out_neighbors(v), &mut sub);
            if sub.len() >= l - 1 {
                self.stack.push(v);
                keep_going = self.recurse(l - 1, &sub, next, visit);
                self.stack.pop();
                if !keep_going {
                    break;
                }
            }
        }
        self.bufs[depth] = sub;
        keep_going
    }

    /// Bitset-kernel mirror of [`ListCtx::recurse`] over the root's
    /// [`DenseIndex`].
    fn recurse_dense<V: Visit>(
        &mut self,
        l: usize,
        cand: &[u64],
        acc: V::Acc,
        visit: &mut V,
    ) -> bool {
        if kernel::count_ones(cand) < l {
            return true;
        }
        if l == 1 {
            for i in kernel::ones(cand) {
                if !visit.leaf(acc, &mut self.stack, self.dense.globals[i]) {
                    return false;
                }
            }
            return true;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.levels[depth]);
        let mut keep_going = true;
        for i in kernel::ones(cand) {
            let v = self.dense.globals[i];
            let Some(next) = visit.admit(acc, v) else { continue };
            kernel::and_into(&mut sub, cand, self.dense.row(i));
            if kernel::count_ones(&sub) >= l - 1 {
                self.stack.push(v);
                keep_going = self.recurse_dense(l - 1, &sub, next, visit);
                self.stack.pop();
                if !keep_going {
                    break;
                }
            }
        }
        self.levels[depth] = sub;
        keep_going
    }
}

/// `out = a ∩ b` for sorted slices; clears `out` first.
pub(crate) fn intersect_sorted(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    // Galloping is not worth it at these sizes; plain merge is branch-cheap.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::store::{collect_kcliques, collect_kcliques_kernel};
    use dkc_graph::{CsrGraph, NodeOrder, OrderingKind};
    use dkc_par::ParConfig;
    use std::collections::BTreeSet;

    /// Enumerates only the k-cliques rooted at `root` (those in which
    /// `root` is the highest-ranked member).
    pub(crate) fn for_each_kclique_rooted<F>(dag: &Dag, root: NodeId, k: usize, mut cb: F)
    where
        F: FnMut(&[NodeId]),
    {
        let mut ctx = ListCtx::with_kernel(dag, k, KernelMode::default());
        ctx.run_root(root, None, (), &mut |nodes: &[NodeId]| {
            cb(nodes);
            true
        });
    }

    /// Fig. 2 graph of the paper (v1..v9 → 0..8), with seven 3-cliques.
    pub(crate) fn paper_graph() -> CsrGraph {
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

    pub(crate) fn dag_of(g: &CsrGraph, kind: OrderingKind) -> Dag {
        Dag::from_graph(g, NodeOrder::compute(g, kind))
    }

    fn clique_set(dag: &Dag, k: usize) -> BTreeSet<Vec<NodeId>> {
        let mut out = BTreeSet::new();
        for_each_kclique(dag, k, |nodes| {
            let mut v = nodes.to_vec();
            v.sort_unstable();
            assert!(out.insert(v), "clique reported twice: {nodes:?}");
        });
        out
    }

    #[test]
    fn paper_graph_has_exactly_the_seven_3cliques_of_example1() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        let expected: BTreeSet<Vec<NodeId>> = [
            vec![0, 2, 5], // C1 = (v1, v3, v6)
            vec![2, 4, 5], // C2 = (v3, v5, v6)
            vec![4, 5, 7], // C3 = (v5, v6, v8)
            vec![4, 6, 7], // C4 = (v5, v7, v8)
            vec![6, 7, 8], // C5 = (v7, v8, v9)
            vec![3, 6, 8], // C6 = (v4, v7, v9)
            vec![1, 3, 8], // C7 = (v2, v4, v9)
        ]
        .into_iter()
        .collect();
        assert_eq!(clique_set(&dag, 3), expected);
    }

    #[test]
    fn enumeration_is_order_invariant() {
        let g = paper_graph();
        let identity = clique_set(&dag_of(&g, OrderingKind::Identity), 3);
        for kind in [OrderingKind::DegreeAsc, OrderingKind::DegreeDesc, OrderingKind::Degeneracy] {
            assert_eq!(clique_set(&dag_of(&g, kind), 3), identity, "{kind:?}");
        }
    }

    #[test]
    fn kernel_modes_emit_identical_sequences() {
        let g = paper_graph();
        for kind in [OrderingKind::Identity, OrderingKind::Degeneracy] {
            let dag = dag_of(&g, kind);
            for k in 1..=4 {
                let mut baseline = Vec::new();
                for_each_kclique_kernel(&dag, k, KernelMode::Slice, |c| baseline.push(c.to_vec()));
                for mode in [KernelMode::Bitset, KernelMode::Adaptive] {
                    let mut got = Vec::new();
                    for_each_kclique_kernel(&dag, k, mode, |c| got.push(c.to_vec()));
                    assert_eq!(got, baseline, "{kind:?} k={k} {mode}");
                }
            }
        }
    }

    #[test]
    fn k1_reports_nodes_and_k2_reports_edges() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        assert_eq!(clique_set(&dag, 1).len(), 9);
        assert_eq!(clique_set(&dag, 2).len(), 15);
    }

    #[test]
    fn root_is_highest_ranked_member() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        for_each_kclique(&dag, 3, |nodes| {
            let root = nodes[0];
            for &v in &nodes[1..] {
                assert!(dag.rank(v) < dag.rank(root));
            }
        });
    }

    #[test]
    fn rooted_enumeration_partitions_the_clique_set() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        let mut total = 0usize;
        for u in 0..9 {
            for_each_kclique_rooted(&dag, u, 3, |_| total += 1);
        }
        assert_eq!(total, 7);
    }

    #[test]
    fn k4_in_complete_graph() {
        // K6 has C(6,4) = 15 4-cliques, C(6,3) = 20 triangles.
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(6, edges).unwrap();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        assert_eq!(clique_set(&dag, 3).len(), 20);
        assert_eq!(clique_set(&dag, 4).len(), 15);
        assert_eq!(clique_set(&dag, 5).len(), 6);
        assert_eq!(clique_set(&dag, 6).len(), 1);
        assert_eq!(clique_set(&dag, 7).len(), 0);
    }

    #[test]
    fn forced_bitset_handles_complete_graphs() {
        let mut edges = Vec::new();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                edges.push((a, b));
            }
        }
        let g = CsrGraph::from_edges(6, edges).unwrap();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        for k in 3..=7 {
            let seq = ParConfig::sequential();
            assert_eq!(
                collect_kcliques_kernel(&dag, k, None, seq, KernelMode::Bitset),
                collect_kcliques_kernel(&dag, k, None, seq, KernelMode::Slice),
                "k={k}"
            );
        }
    }

    #[test]
    fn triangle_free_graph_has_no_3cliques() {
        // C5 (5-cycle) is triangle-free.
        let g = CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).unwrap();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        assert!(clique_set(&dag, 3).is_empty());
    }

    #[test]
    fn collect_matches_for_each() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        let collected = collect_kcliques(&dag, 3, None, ParConfig::sequential()).unwrap();
        assert_eq!(collected.len(), 7);
        let set: BTreeSet<Vec<NodeId>> = collected.iter().map(<[NodeId]>::to_vec).collect();
        assert_eq!(set, clique_set(&dag, 3));
    }

    #[test]
    fn bounded_collection_respects_the_budget() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        let seq = ParConfig::sequential();
        // Exactly at the limit succeeds.
        let ok = collect_kcliques(&dag, 3, Some(7), seq).unwrap();
        assert_eq!(ok.len(), 7);
        // Below the limit aborts without materialising everything.
        assert_eq!(collect_kcliques(&dag, 3, Some(6), seq), Err(6));
        assert_eq!(collect_kcliques(&dag, 3, Some(0), seq), Err(0));
        // Generous limit behaves like the unbounded collector.
        let all = collect_kcliques(&dag, 3, Some(1_000), seq).unwrap();
        assert_eq!(all, collect_kcliques(&dag, 3, None, seq).unwrap());
    }

    #[test]
    fn bounded_parallel_matches_sequential_decisions_and_output() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
            for threads in [1usize, 2, 8] {
                let par = ParConfig::new(threads).with_chunk(1);
                for limit in [None, Some(0), Some(3), Some(6), Some(7), Some(1000)] {
                    let seq = collect_kcliques(&dag, 3, limit, ParConfig::sequential());
                    let par_res = collect_kcliques_kernel(&dag, 3, limit, par, mode);
                    assert_eq!(par_res, seq, "threads={threads} limit={limit:?} {mode}");
                }
            }
        }
    }

    #[test]
    fn early_stop_enumeration_visits_a_prefix() {
        // The bounded collector relies on `run_root` honouring a `false`
        // from the callback at once, inside the recursion.
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Identity);
        for mode in [KernelMode::Slice, KernelMode::Bitset] {
            let mut ctx = ListCtx::with_kernel(&dag, 3, mode);
            let mut seen = 0;
            for u in 0..dag.num_nodes() as NodeId {
                if !ctx.run_root(u, None, (), &mut |_: &[NodeId]| {
                    seen += 1;
                    seen < 3
                }) {
                    break;
                }
            }
            assert_eq!(seen, 3, "stopped after the third clique ({mode})");
        }
    }

    #[test]
    fn intersect_sorted_basic() {
        let mut out = Vec::new();
        intersect_sorted(&[1, 3, 5, 7], &[2, 3, 4, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
        intersect_sorted(&[], &[1], &mut out);
        assert!(out.is_empty());
    }
}
