use crate::{CsrGraph, NodeId};

/// A subgraph induced on a node subset, with local↔global id translation.
///
/// Used by the residual partition loop (each phase after the first solves
/// the graph induced on the still-uncovered nodes) and by maximality
/// checks, which count cliques among the uncovered nodes.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    graph: CsrGraph,
    /// `global[local]` is the original node id; sorted ascending so that the
    /// inverse mapping is a binary search.
    global: Vec<NodeId>,
}

impl InducedSubgraph {
    /// Induces on `nodes` (duplicates are removed) of a static graph in
    /// `O(n + m)`: each kept node's sorted neighbour list is filtered through
    /// a dense global→local map. Local ids are ranks of the sorted global
    /// ids, so the filtered lists stay sorted and form the CSR arrays as is.
    pub fn of_csr(g: &CsrGraph, nodes: &[NodeId]) -> Self {
        let mut global = nodes.to_vec();
        global.sort_unstable();
        global.dedup();
        let mut local = vec![NodeId::MAX; g.num_nodes()];
        for (l, &u) in global.iter().enumerate() {
            local[u as usize] = l as NodeId;
        }
        let mut offsets = Vec::with_capacity(global.len() + 1);
        offsets.push(0);
        let mut neighbors = Vec::new();
        for &u in &global {
            let kept = g.neighbors(u).iter().map(|&v| local[v as usize]);
            neighbors.extend(kept.filter(|&l| l != NodeId::MAX));
            offsets.push(neighbors.len());
        }
        let graph = CsrGraph::from_raw_parts(offsets, neighbors)
            .expect("a subgraph induced from a valid graph is valid");
        InducedSubgraph { graph, global }
    }

    /// The local graph on `0..len` ids.
    #[inline]
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Number of nodes in the subgraph.
    #[inline]
    pub fn len(&self) -> usize {
        self.global.len()
    }

    /// True when induced on an empty set.
    pub fn is_empty(&self) -> bool {
        self.global.is_empty()
    }

    /// Translates a local id back to the original graph.
    #[inline]
    pub fn to_global(&self, local: NodeId) -> NodeId {
        self.global[local as usize]
    }

    /// Translates an original id to the local id, if the node is included.
    #[inline]
    pub fn to_local(&self, global: NodeId) -> Option<NodeId> {
        self.global.binary_search(&global).ok().map(|i| i as NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrGraph {
        // Two triangles sharing node 2: {0,1,2} and {2,3,4}; plus isolated 5.
        CsrGraph::from_edges(6, vec![(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]).unwrap()
    }

    #[test]
    fn induces_correct_edges() {
        let g = sample();
        let sub = InducedSubgraph::of_csr(&g, &[2, 3, 4]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.graph().num_edges(), 3); // full triangle
        let sub2 = InducedSubgraph::of_csr(&g, &[0, 3, 4]);
        assert_eq!(sub2.graph().num_edges(), 1); // only 3-4 survives
    }

    #[test]
    fn id_translation_roundtrips() {
        let g = sample();
        let sub = InducedSubgraph::of_csr(&g, &[4, 0, 2]);
        for local in 0..sub.len() as NodeId {
            let global = sub.to_global(local);
            assert_eq!(sub.to_local(global), Some(local));
        }
        assert_eq!(sub.to_local(5), None);
        assert_eq!([0, 1, 2].map(|l| sub.to_global(l)), [0, 2, 4]);
    }

    #[test]
    fn duplicates_in_node_set_are_ignored() {
        let g = sample();
        let sub = InducedSubgraph::of_csr(&g, &[1, 1, 2, 2, 0]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.graph().num_edges(), 3);
    }

    #[test]
    fn empty_induction() {
        let g = sample();
        let sub = InducedSubgraph::of_csr(&g, &[]);
        assert!(sub.is_empty());
        assert_eq!(sub.graph().num_nodes(), 0);
    }
}
