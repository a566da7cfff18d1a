use crate::{CsrGraph, NodeId, NodeOrder};

/// A directed acyclic orientation of a [`CsrGraph`] under a total order.
///
/// Following Algorithm 1 of the paper: node `u` points to neighbour `v` iff
/// `η(v) < η(u)`, so `N⁺(u)` is the set of *lower-ranked* neighbours. Every
/// k-clique of the underlying graph appears exactly once as
/// `{u} ∪ K` with `K ⊆ N⁺(u)` where `u` is the clique's highest-ranked
/// member — the standard trick that de-duplicates clique enumeration.
///
/// Out-neighbour lists are sorted by node id so set intersections run as
/// linear merges.
#[derive(Debug, Clone)]
pub struct Dag {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    order: NodeOrder,
}

impl Dag {
    /// Orients `g` according to `order`.
    pub fn from_graph(g: &CsrGraph, order: NodeOrder) -> Self {
        Self::orient(g, order, None)
    }

    /// [`Dag::from_graph`] on the edges of `g` whose CSR slots are set in
    /// `slots` — one bit per entry of [`CsrGraph::adjacency`], both slots
    /// of an edge alike, as [`Dag::spread_arc_mask`] makes them. Nodes keep
    /// their ids, so a node with no kept edge has no arcs.
    pub fn from_graph_masked(g: &CsrGraph, order: NodeOrder, slots: &[u64]) -> Self {
        assert_eq!(slots.len(), g.adjacency().len().div_ceil(64), "one bit per CSR slot");
        Self::orient(g, order, Some(slots))
    }

    fn orient(g: &CsrGraph, order: NodeOrder, slots: Option<&[u64]>) -> Self {
        let n = g.num_nodes();
        assert_eq!(order.len(), n, "order must cover every node");
        let arcs = slots.map_or(g.num_edges(), |s| count_ones(s) / 2);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        // Branch-free filter: every neighbour is written at `len` and only
        // a kept one advances it (the spare slot takes the last write), so
        // the random keep decisions cost no mispredicted branch.
        let mut targets = vec![0 as NodeId; arcs + 1];
        let mut len = 0;
        for u in 0..n as NodeId {
            let ru = order.rank(u);
            let first_slot = g.offsets()[u as usize];
            // Neighbour lists are id-sorted already; filtering preserves
            // that.
            for (slot, &v) in (first_slot..).zip(g.neighbors(u)) {
                let in_mask = slots.map_or(1, |s| bit_or_zero(s, slot));
                if len == targets.len() {
                    // Only a mask that sets one slot of an edge gets here:
                    // its arcs then follow their tail's slot.
                    targets.push(0);
                }
                targets[len] = v;
                len += (in_mask & u64::from(order.rank(v) < ru)) as usize;
            }
            offsets.push(len);
        }
        targets.truncate(len);
        Dag { offsets, targets, order }
    }

    /// Spreads `arcs` — one bit per arc of this DAG, by position in the
    /// arc array (see [`Dag::arc_offset`]) — onto the CSR slots of `g`, the
    /// graph this DAG orients: both slots of an edge are set iff its arc
    /// is. The result feeds [`Dag::from_graph_masked`].
    ///
    /// One `O(n + m)` pass with no search. Walking `u` in ascending order,
    /// `u`'s out-arcs are a sorted sub-list of its neighbours, so a merge
    /// finds each slot's arc. A per-node cursor `next[v]` (as in
    /// [`CsrGraph::from_raw_parts`]) tracks the slot in `v`'s list of the
    /// next larger node listing `v`, so each edge `{v, u}` with `v < u` is
    /// settled at `u`'s turn: its lower slot was set at `v`'s turn if `v`
    /// owns the arc.
    pub fn spread_arc_mask(&self, g: &CsrGraph, arcs: &[u64]) -> Vec<u64> {
        let n = g.num_nodes();
        assert_eq!(n, self.num_nodes(), "the DAG must orient g");
        assert_eq!(arcs.len(), self.num_arcs().div_ceil(64), "one bit per arc");
        let slot_of = g.offsets();
        let mut slots = vec![0u64; g.adjacency().len().div_ceil(64)];
        let mut next = vec![0usize; n];
        for u in 0..n as NodeId {
            let list = g.neighbors(u);
            let first_slot = slot_of[u as usize];
            next[u as usize] = first_slot + list.partition_point(|&v| v < u);
            let out = self.out_neighbors(u);
            let first_arc = self.offsets[u as usize];
            let mut owned = 0;
            // Branch-free apart from the (predictable) `v < u` split: the
            // bits are random, so testing them would mispredict.
            for (slot, &v) in (first_slot..).zip(list) {
                let own = out.get(owned) == Some(&v);
                let marked = u64::from(own) & bit_or_zero(arcs, first_arc + owned);
                owned += usize::from(own);
                if v < u {
                    let twin = next[v as usize];
                    next[v as usize] += 1;
                    let kept = marked | bit_or_zero(&slots, twin);
                    slots[slot / 64] |= kept << (slot % 64);
                    slots[twin / 64] |= kept << (twin % 64);
                } else {
                    slots[slot / 64] |= marked << (slot % 64);
                }
            }
            debug_assert_eq!(owned, out.len(), "out-list of {u} is not a sub-list of g's");
        }
        slots
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Out-neighbours of `u` (lower-ranked neighbours), sorted by node id.
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Position of `u`'s first out-arc in the arc array: `u`'s arcs are
    /// positions `arc_offset(u)..arc_offset(u) + out_degree(u)`, in
    /// [`Dag::out_neighbors`] order. Per-arc bitsets index by it.
    #[inline]
    pub fn arc_offset(&self, u: NodeId) -> usize {
        self.offsets[u as usize]
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// The total order used for the orientation.
    #[inline]
    pub fn order(&self) -> &NodeOrder {
        &self.order
    }

    /// Rank of node `u` under the orientation order.
    #[inline]
    pub fn rank(&self, u: NodeId) -> u32 {
        self.order.rank(u)
    }

    /// Maximum out-degree — with a degeneracy order this equals at most the
    /// graph's degeneracy, which bounds clique-listing work.
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId).map(|u| self.out_degree(u)).max().unwrap_or(0)
    }

    /// Directed adjacency test (`v ∈ N⁺(u)`), `O(log out_degree)`.
    #[inline]
    pub fn has_arc(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Total number of arcs (equals the number of undirected edges).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }
}

/// Bit `i` as `0` or `1`; `0` past the end.
#[inline]
fn bit_or_zero(words: &[u64], i: usize) -> u64 {
    words.get(i / 64).map_or(0, |w| (w >> (i % 64)) & 1)
}

#[cfg(test)]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OrderingKind;

    /// The 9-node, 15-edge graph of the paper's Fig. 2 (nodes renumbered
    /// v1..v9 → 0..8). Its seven 3-cliques are C1..C7 of Example 1.
    pub(crate) fn paper_fig2_graph() -> CsrGraph {
        let edges = vec![
            (0, 2), // v1-v3
            (0, 5), // v1-v6
            (2, 5), // v3-v6
            (2, 4), // v3-v5
            (4, 5), // v5-v6
            (4, 7), // v5-v8
            (5, 7), // v6-v8
            (4, 6), // v5-v7
            (6, 7), // v7-v8
            (6, 8), // v7-v9
            (7, 8), // v8-v9
            (3, 6), // v4-v7
            (3, 8), // v4-v9
            (1, 3), // v2-v4
            (1, 8), // v2-v9
        ];
        CsrGraph::from_edges(9, edges).unwrap()
    }

    #[test]
    fn identity_orientation_matches_example2() {
        // Example 2: with η(v_i) < η(v_j) for i < j, only v6, v7, v8, v9
        // (ids 5, 6, 7, 8) have at least two out-neighbours.
        let g = paper_fig2_graph();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Identity));
        let with_two: Vec<NodeId> = (0..9).filter(|&u| dag.out_degree(u) >= 2).collect();
        assert_eq!(with_two, vec![5, 6, 7, 8]);
        // v6's out-neighbours are v1, v3, v5 (ids 0, 2, 4).
        assert_eq!(dag.out_neighbors(5), &[0, 2, 4]);
    }

    #[test]
    fn arcs_point_to_lower_ranks() {
        let g = paper_fig2_graph();
        for kind in [
            OrderingKind::Identity,
            OrderingKind::DegreeAsc,
            OrderingKind::DegreeDesc,
            OrderingKind::Degeneracy,
            OrderingKind::Color,
        ] {
            let dag = Dag::from_graph(&g, NodeOrder::compute(&g, kind));
            for u in 0..9 {
                for &v in dag.out_neighbors(u) {
                    assert!(dag.rank(v) < dag.rank(u), "{kind:?}: arc {u}->{v} not descending");
                }
            }
        }
    }

    #[test]
    fn arc_count_equals_edge_count() {
        let g = paper_fig2_graph();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
        assert_eq!(dag.num_arcs(), g.num_edges());
    }

    #[test]
    fn out_neighbors_sorted_by_id() {
        let g = paper_fig2_graph();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::DegreeDesc));
        for u in 0..9 {
            let out = dag.out_neighbors(u);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "node {u}: {out:?}");
        }
    }

    #[test]
    fn has_arc_agrees_with_listing() {
        let g = paper_fig2_graph();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Identity));
        for u in 0..9u32 {
            for v in 0..9u32 {
                let expect = dag.out_neighbors(u).contains(&v);
                assert_eq!(dag.has_arc(u, v), expect);
            }
        }
    }

    #[test]
    fn empty_graph_dag() {
        let g = CsrGraph::empty();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Identity));
        assert_eq!(dag.num_nodes(), 0);
        assert_eq!(dag.max_out_degree(), 0);
        let masked =
            Dag::from_graph_masked(&g, NodeOrder::compute(&g, OrderingKind::Identity), &[]);
        assert_eq!(masked.num_arcs(), 0);
        assert!(dag.spread_arc_mask(&g, &[]).is_empty());
    }

    /// Keeps the arcs of `dag` whose head and tail satisfy `keep`, as one
    /// bit per arc position.
    fn arc_mask(dag: &Dag, keep: impl Fn(NodeId, NodeId) -> bool) -> Vec<u64> {
        let mut arcs = vec![0u64; dag.num_arcs().div_ceil(64)];
        for u in 0..dag.num_nodes() as NodeId {
            for (i, &v) in dag.out_neighbors(u).iter().enumerate() {
                if keep(u, v) {
                    set_bit(&mut arcs, dag.arc_offset(u) + i);
                }
            }
        }
        arcs
    }

    #[test]
    fn spread_mask_marks_both_slots_of_each_kept_edge() {
        let g = paper_fig2_graph();
        let keep = |u: NodeId, v: NodeId| !(u + v).is_multiple_of(3);
        for kind in [OrderingKind::Identity, OrderingKind::DegreeDesc, OrderingKind::Degeneracy] {
            let dag = Dag::from_graph(&g, NodeOrder::compute(&g, kind));
            let slots = dag.spread_arc_mask(&g, &arc_mask(&dag, keep));
            for u in 0..9 {
                for (i, &v) in g.neighbors(u).iter().enumerate() {
                    let slot = g.offsets()[u as usize] + i;
                    assert_eq!(
                        bit_or_zero(&slots, slot) == 1,
                        keep(u, v),
                        "{kind:?}: slot {u}->{v}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_orientation_equals_orienting_the_kept_edges() {
        // Mask under one order, orient under another: the result must be
        // the plain orientation of the graph holding only the kept edges.
        let g = paper_fig2_graph();
        let keep = |u: NodeId, v: NodeId| u.min(v) != 4;
        let score_dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::DegreeDesc));
        let slots = score_dag.spread_arc_mask(&g, &arc_mask(&score_dag, keep));
        let kept = CsrGraph::from_edges(9, g.iter_edges().filter(|&(u, v)| keep(u, v))).unwrap();
        for kind in [OrderingKind::Identity, OrderingKind::DegreeAsc, OrderingKind::Degeneracy] {
            let order = NodeOrder::compute(&g, kind);
            let masked = Dag::from_graph_masked(&g, order.clone(), &slots);
            let plain = Dag::from_graph(&kept, order);
            assert_eq!(masked.num_arcs(), kept.num_edges(), "{kind:?}");
            for u in 0..9 {
                assert_eq!(masked.out_neighbors(u), plain.out_neighbors(u), "{kind:?}: node {u}");
                assert_eq!(masked.arc_offset(u), plain.arc_offset(u), "{kind:?}: node {u}");
            }
        }
    }
}
