use crate::{Edge, GraphError, NodeId};

/// An immutable undirected graph in compressed-sparse-row form.
///
/// Neighbour lists are sorted ascending, contain no duplicates and no
/// self-loops. This is the canonical input representation of every static
/// solver in the workspace: adjacency tests are `O(log deg)` binary searches
/// and neighbourhood scans are cache-friendly slice walks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` indexes `neighbors` for node `u`. Length `n+1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists. Length `2m`.
    neighbors: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a graph with `n` nodes from an edge iterator.
    ///
    /// Self-loops are silently dropped and duplicate edges de-duplicated, so
    /// the result is always a simple graph. Edges referencing nodes `>= n`
    /// produce [`GraphError::NodeOutOfRange`].
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut deg = vec![0usize; n];
        let mut buf: Vec<Edge> = Vec::new();
        for (a, b) in edges {
            if a as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: a as u64, num_nodes: n });
            }
            if b as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: b as u64, num_nodes: n });
            }
            if a == b {
                continue; // drop self-loops
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            buf.push((lo, hi));
        }
        buf.sort_unstable();
        buf.dedup();
        for &(a, b) in &buf {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut neighbors = vec![0 as NodeId; acc];
        for &(a, b) in &buf {
            neighbors[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        // `buf` is sorted by (a, b); for node `a` the `b` targets arrive in
        // order, but the reverse direction does not, so sort each list.
        let mut g = CsrGraph { offsets, neighbors };
        for u in 0..n {
            let (s, e) = (g.offsets[u], g.offsets[u + 1]);
            g.neighbors[s..e].sort_unstable();
        }
        Ok(g)
    }

    /// Rebuilds a graph from pre-built CSR arrays, as produced by
    /// [`CsrGraph::offsets`] / [`CsrGraph::adjacency`] (the binary snapshot
    /// path). Every structural invariant is re-validated in `O(n + m)` —
    /// monotone offsets, sorted duplicate-free neighbour lists, no
    /// self-loops, in-range ids and symmetry — so untrusted input can never
    /// produce a malformed graph.
    ///
    /// Symmetry needs no search: walking `u` in ascending order, the entries
    /// below `v` in `v`'s sorted list must be exactly the nodes `u < v` that
    /// list `v`, in the order they are walked. A per-node cursor `next[v]`
    /// matches each forward entry `v > u` of `u` and advances; when the walk
    /// reaches `v`, its cursor must have consumed every entry below `v`.
    pub fn from_raw_parts(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Result<Self, GraphError> {
        let invalid = |message: String| GraphError::InvalidCsr { message };
        if offsets.first() != Some(&0) {
            return Err(invalid("offsets must start with 0".into()));
        }
        if *offsets.last().expect("non-empty") != neighbors.len() {
            return Err(invalid(format!(
                "last offset {} != neighbour array length {}",
                offsets.last().unwrap(),
                neighbors.len()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid("offsets must be non-decreasing".into()));
        }
        let n = offsets.len() - 1;
        let g = CsrGraph { offsets, neighbors };
        // `next[v]`: the first entry of `v`'s list not yet matched to a
        // smaller node's forward entry.
        let mut next: Vec<usize> = g.offsets[..n].to_vec();
        for u in 0..n as NodeId {
            let list = g.neighbors(u);
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(invalid(format!("neighbour list of {u} not strictly sorted")));
            }
            if let Some(&v) = list.last() {
                if v as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node: v as u64, num_nodes: n });
                }
            }
            let below = list.partition_point(|&v| v < u);
            if list.get(below) == Some(&u) {
                return Err(invalid(format!("self-loop on node {u}")));
            }
            if next[u as usize] != g.offsets[u as usize] + below {
                let v = g.neighbors[next[u as usize]];
                return Err(invalid(format!("edge ({u}, {v}) has no reverse entry")));
            }
            for &v in &list[below..] {
                let at = next[v as usize];
                let end = g.offsets[v as usize + 1];
                if at < end && g.neighbors[at] == u {
                    next[v as usize] += 1;
                    continue;
                }
                // Either `v` lacks `u`, or `v` first lists a smaller node
                // that never listed `v`.
                let (a, b) = match g.neighbors[at..end].first() {
                    Some(&w) if w < u => (v, w),
                    _ => (u, v),
                };
                return Err(invalid(format!("edge ({a}, {b}) has no reverse entry")));
            }
        }
        Ok(g)
    }

    /// The empty graph on zero nodes.
    pub fn empty() -> Self {
        CsrGraph { offsets: vec![0], neighbors: Vec::new() }
    }

    /// The raw CSR offset array (length `n + 1`), for serialisation.
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated neighbour array (length `2m`), for
    /// serialisation. Per-node slices are exposed by [`CsrGraph::neighbors`].
    #[inline]
    pub fn adjacency(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u as usize + 1] - self.offsets[u as usize]
    }

    /// Sorted neighbour slice of node `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u as usize]..self.offsets[u as usize + 1]]
    }

    /// Adjacency test via binary search: `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Search the smaller list for a tiny constant-factor win.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Iterates every undirected edge exactly once as `(u, v)` with `u < v`.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_nodes() as NodeId).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Collects all edges into a vector (`u < v` per edge).
    pub fn edges(&self) -> Vec<Edge> {
        self.iter_edges().collect()
    }

    /// Iterates node ids `0..n`.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// Number of common neighbours of `u` and `v` (sorted-merge intersection).
    pub fn common_neighbor_count(&self, u: NodeId, v: NodeId) -> usize {
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        let mut cnt = 0usize;
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    cnt += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        cnt
    }

    /// Approximate heap footprint in bytes (offsets + neighbour array).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle; 3 pendant off 2.
        CsrGraph::from_edges(4, vec![(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn has_edge_is_symmetric_and_rejects_loops() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(3, 0));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn duplicate_edges_and_self_loops_are_dropped() {
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = CsrGraph::from_edges(2, vec![(0, 5)]).unwrap_err();
        match err {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                assert_eq!(node, 5);
                assert_eq!(num_nodes, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn iter_edges_yields_each_edge_once_in_canonical_form() {
        let g = triangle_plus_pendant();
        let e = g.edges();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges(), Vec::<Edge>::new());
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = CsrGraph::from_edges(10, vec![(0, 1)]).unwrap();
        assert_eq!(g.num_nodes(), 10);
        for u in 2..10 {
            assert_eq!(g.degree(u), 0);
            assert!(g.neighbors(u).is_empty());
        }
    }

    #[test]
    fn common_neighbors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.common_neighbor_count(0, 1), 1); // node 2
        assert_eq!(g.common_neighbor_count(0, 2), 1); // node 1
        assert_eq!(g.common_neighbor_count(0, 3), 1); // node 2
        assert_eq!(g.common_neighbor_count(1, 3), 1); // node 2
    }

    #[test]
    fn raw_parts_roundtrip() {
        let g = triangle_plus_pendant();
        let back = CsrGraph::from_raw_parts(g.offsets().to_vec(), g.adjacency().to_vec()).unwrap();
        assert_eq!(g, back);
        assert_eq!(CsrGraph::from_raw_parts(vec![0], vec![]).unwrap(), CsrGraph::empty());
    }

    #[test]
    fn raw_parts_validation_rejects_malformed_arrays() {
        // Empty offsets.
        assert!(CsrGraph::from_raw_parts(vec![], vec![]).is_err());
        // First offset non-zero.
        assert!(CsrGraph::from_raw_parts(vec![1, 2], vec![0, 0]).is_err());
        // Last offset disagrees with neighbour length.
        assert!(CsrGraph::from_raw_parts(vec![0, 1], vec![]).is_err());
        // Non-monotone offsets.
        assert!(CsrGraph::from_raw_parts(vec![0, 2, 1, 2], vec![1, 0]).is_err());
        // Unsorted neighbour list.
        assert!(CsrGraph::from_raw_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).is_err());
        // Self-loop.
        assert!(CsrGraph::from_raw_parts(vec![0, 1, 2], vec![0, 0]).is_err());
        // Out-of-range id.
        assert!(CsrGraph::from_raw_parts(vec![0, 1, 2], vec![1, 9]).is_err());
        // Asymmetric adjacency: 0 lists 1 but 1 lists nothing back.
        assert!(CsrGraph::from_raw_parts(vec![0, 1, 1], vec![1]).is_err());
        // Asymmetric the other way: 1 lists 0 but 0 lists nothing back.
        assert!(CsrGraph::from_raw_parts(vec![0, 0, 1], vec![0]).is_err());
        for bad in [
            CsrGraph::from_raw_parts(vec![0, 2, 1, 2], vec![1, 0]).unwrap_err(),
            CsrGraph::from_raw_parts(vec![0, 1, 1], vec![1]).unwrap_err(),
        ] {
            assert!(matches!(bad, GraphError::InvalidCsr { .. }), "unexpected: {bad}");
        }
    }

    #[test]
    fn neighbors_always_sorted() {
        // Insert edges in scrambled order; the per-node lists must be sorted.
        let g = CsrGraph::from_edges(6, vec![(5, 0), (3, 0), (0, 4), (0, 1), (2, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4, 5]);
    }
}
