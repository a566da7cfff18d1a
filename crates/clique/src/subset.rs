use crate::kernel;
use dkc_graph::{DynGraph, NodeId};

/// Enumerates every k-clique of the subgraph induced on `nodes`.
///
/// This is the workhorse of the dynamic index (Algorithm 5): candidate
/// cliques for a solution clique `C` are exactly the k-cliques of the
/// induced subgraph on `B = C ∪ N_F(C)`. The subset is typically small
/// (a clique plus its free neighbours), so adjacency is densified into
/// bit rows (shared with the dense listing kernel) and cliques are extended
/// in increasing local id order, reporting each exactly once.
///
/// Duplicates in `nodes` are ignored. The callback receives *global* node
/// ids, sorted ascending, valid only for the duration of the call.
pub fn for_each_kclique_in_subset<F>(g: &DynGraph, nodes: &[NodeId], k: usize, mut cb: F)
where
    F: FnMut(&[NodeId]),
{
    assert!(k >= 1, "k must be at least 1");
    let mut local: Vec<NodeId> = nodes.to_vec();
    local.sort_unstable();
    local.dedup();
    let s = local.len();
    if s < k {
        return;
    }
    if k == 1 {
        for &u in &local {
            cb(&[u]);
        }
        return;
    }
    // Densify adjacency restricted to the subset: row i holds the local ids
    // adjacent to local node i, packed `stride` words per row.
    let stride = s.div_ceil(64);
    let mut rows = vec![0u64; s * stride];
    for (i, &gu) in local.iter().enumerate() {
        let row = &mut rows[i * stride..(i + 1) * stride];
        // Walk gu's (sorted) neighbour list against the (sorted) subset.
        let nbrs = g.neighbors(gu);
        let (mut a, mut b) = (0usize, 0usize);
        while a < nbrs.len() && b < s {
            match nbrs[a].cmp(&local[b]) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    kernel::set_bit(row, b);
                    a += 1;
                    b += 1;
                }
            }
        }
    }
    let mut ctx = SubsetCtx {
        rows: &rows,
        stride,
        global: &local,
        k,
        stack: Vec::with_capacity(k),
        out: Vec::with_capacity(k),
        bufs: vec![Vec::new(); k],
    };
    let mut full = Vec::new();
    kernel::fill_full(&mut full, s);
    ctx.recurse(k, &full, &mut cb);
}

struct SubsetCtx<'a> {
    rows: &'a [u64],
    stride: usize,
    global: &'a [NodeId],
    k: usize,
    /// Chosen local ids, strictly increasing.
    stack: Vec<usize>,
    /// Scratch for the translated global ids.
    out: Vec<NodeId>,
    bufs: Vec<Vec<u64>>,
}

impl SubsetCtx<'_> {
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    fn emit<F: FnMut(&[NodeId])>(&mut self, last: usize, cb: &mut F) {
        self.out.clear();
        self.out.extend(self.stack.iter().map(|&i| self.global[i]));
        self.out.push(self.global[last]);
        // Local ids are chosen in increasing order and `global` is sorted,
        // so `out` is already ascending.
        cb(&self.out);
    }

    fn recurse<F: FnMut(&[NodeId])>(&mut self, l: usize, cand: &[u64], cb: &mut F) {
        if l == 1 {
            for i in kernel::ones(cand) {
                self.emit(i, cb);
            }
            return;
        }
        if kernel::count_ones(cand) < l {
            return;
        }
        let depth = self.k - l;
        let mut sub = std::mem::take(&mut self.bufs[depth]);
        for i in kernel::ones(cand) {
            kernel::and_above_into(&mut sub, cand, self.row(i), i);
            if kernel::count_ones(&sub) >= l - 1 {
                self.stack.push(i);
                self.recurse(l - 1, &sub, cb);
                self.stack.pop();
            }
        }
        self.bufs[depth] = sub;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn paper_dyn_graph() -> DynGraph {
        let mut g = DynGraph::new(9);
        for (a, b) in [
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
        ] {
            g.insert_edge(a, b);
        }
        g
    }

    fn subset_cliques(g: &DynGraph, nodes: &[NodeId], k: usize) -> BTreeSet<Vec<NodeId>> {
        let mut set = BTreeSet::new();
        for_each_kclique_in_subset(g, nodes, k, |c| {
            assert!(set.insert(c.to_vec()), "duplicate clique {c:?}");
        });
        set
    }

    #[test]
    fn full_subset_matches_known_cliques() {
        let g = paper_dyn_graph();
        let all: Vec<NodeId> = (0..9).collect();
        let cliques = subset_cliques(&g, &all, 3);
        assert_eq!(cliques.len(), 7);
        assert!(cliques.contains(&vec![0, 2, 5]));
        assert!(cliques.contains(&vec![1, 3, 8]));
    }

    #[test]
    fn restricted_subset_filters_cliques() {
        let g = paper_dyn_graph();
        // Only the neighbourhood of v5/v6/v8 region.
        let cliques = subset_cliques(&g, &[4, 5, 6, 7], 3);
        assert_eq!(cliques, [vec![4, 5, 7], vec![4, 6, 7]].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn duplicates_in_subset_are_harmless() {
        let g = paper_dyn_graph();
        let a = subset_cliques(&g, &[4, 5, 7, 4, 5], 3);
        let b = subset_cliques(&g, &[4, 5, 7], 3);
        assert_eq!(a, b);
    }

    #[test]
    fn k_larger_than_subset_yields_nothing() {
        let g = paper_dyn_graph();
        assert!(subset_cliques(&g, &[4, 5], 3).is_empty());
        assert!(subset_cliques(&g, &[], 3).is_empty());
    }

    #[test]
    fn k1_and_k2_special_cases() {
        let g = paper_dyn_graph();
        assert_eq!(subset_cliques(&g, &[2, 4, 5], 1).len(), 3);
        // Edges within {2,4,5}: (2,4), (2,5), (4,5).
        assert_eq!(subset_cliques(&g, &[2, 4, 5], 2).len(), 3);
    }

    #[test]
    fn collect_returns_sorted_clique_values() {
        // Callers collect the reported slices as they come (`Clique::from_sorted`,
        // `CliqueStore::from_flat`), so each must already be ascending.
        let g = paper_dyn_graph();
        let mut rows = Vec::new();
        for_each_kclique_in_subset(&g, &(0..9).collect::<Vec<_>>(), 3, |c| rows.push(c.to_vec()));
        assert_eq!(rows.len(), 7);
        for c in &rows {
            assert_eq!(c.len(), 3);
            assert!(c.windows(2).all(|w| w[0] < w[1]), "{c:?} not ascending");
        }
    }

    #[test]
    fn large_subset_crossing_word_boundaries() {
        // A clique of size 5 placed at ids 60..65 inside a 130-node subset
        // exercises multi-word bit rows.
        let mut g = DynGraph::new(130);
        for a in 60..65u32 {
            for b in (a + 1)..65 {
                g.insert_edge(a, b);
            }
        }
        let all: Vec<NodeId> = (0..130).collect();
        let c5 = subset_cliques(&g, &all, 5);
        assert_eq!(c5.len(), 1);
        assert_eq!(c5.iter().next().unwrap(), &vec![60, 61, 62, 63, 64]);
        assert_eq!(subset_cliques(&g, &all, 4).len(), 5);
    }
}
