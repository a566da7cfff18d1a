use crate::AdjGraph;
use std::time::{Duration, Instant};

/// Resource budget for the exact solver.
///
/// The paper aborts OPT after 24 hours ("OOT") on its 64-core testbed; the
/// harness uses much smaller budgets at laptop scale. `None` means
/// unlimited.
#[derive(Debug, Clone, Copy, Default)]
pub struct MisBudget {
    /// Wall-clock limit.
    pub time_limit: Option<Duration>,
    /// Limit on explored search-tree nodes.
    pub node_limit: Option<u64>,
}

impl MisBudget {
    /// Unlimited budget.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Outcome of an exact MIS run.
#[derive(Debug, Clone)]
pub struct MisResult {
    /// The best independent set found (sorted).
    pub set: Vec<u32>,
    /// True when the search completed, i.e. `set` is a *maximum*
    /// independent set. False when the budget tripped first.
    pub optimal: bool,
    /// Number of search-tree nodes explored.
    pub search_nodes: u64,
}

/// Exact maximum-independent-set solver: branch-and-reduce in the style of
/// Akiba & Iwata (the paper's reference \[42\]).
///
/// * **Reductions**: isolated vertices are taken; pendant (degree-1)
///   vertices are taken (always safe).
/// * **Bound**: a greedy clique cover of the remaining vertices — an
///   independent set contains at most one vertex per clique, so
///   `|current| + #cover cliques <= |best|` prunes the branch. Clique
///   covers are particularly tight on clique graphs, which are unions of
///   large overlapping cliques (Lemma 1 of the paper).
/// * **Branching**: on a maximum-degree vertex `v`: either `v` joins the
///   solution (delete `N[v]`) or it does not (delete `v`).
#[derive(Debug, Clone, Default)]
pub struct ExactMis {
    budget: MisBudget,
}

impl ExactMis {
    /// Solver with unlimited budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with the given budget.
    pub fn with_budget(budget: MisBudget) -> Self {
        ExactMis { budget }
    }

    /// Runs the search.
    pub fn solve(&self, g: &AdjGraph) -> MisResult {
        let n = g.num_nodes();
        // Dense mirror present → keep an alive bitset in lockstep with the
        // bool array; every neighbourhood scan then works on 64 vertices
        // per word. The kernels visit exactly the vertices the slice scans
        // visit, in the same order, so the search tree is bit-identical.
        let alive_mask = if n > 0 && g.dense_row(0).is_some() {
            let mut mask = vec![u64::MAX; n.div_ceil(64)];
            if !n.is_multiple_of(64) {
                *mask.last_mut().expect("n > 0") = (1u64 << (n % 64)) - 1;
            }
            Some(mask)
        } else {
            None
        };
        let mut s = SearchState {
            g,
            alive: vec![true; g.num_nodes()],
            alive_mask,
            deg: (0..g.num_nodes() as u32).map(|u| g.degree(u)).collect(),
            current: Vec::new(),
            best: Vec::new(),
            nodes: 0,
            aborted: false,
            deadline: self.budget.time_limit.map(|d| Instant::now() + d),
            node_limit: self.budget.node_limit,
            cover_scratch: Vec::new(),
            cover_masks: Vec::new(),
        };
        s.search();
        let mut set = s.best;
        set.sort_unstable();
        MisResult { set, optimal: !s.aborted, search_nodes: s.nodes }
    }
}

struct SearchState<'a> {
    g: &'a AdjGraph,
    alive: Vec<bool>,
    /// Bitset mirror of `alive`, maintained only when the graph carries its
    /// dense adjacency rows — the word-parallel kernels below AND it with
    /// adjacency rows for neighbourhood scans.
    alive_mask: Option<Vec<u64>>,
    deg: Vec<usize>,
    current: Vec<u32>,
    best: Vec<u32>,
    nodes: u64,
    aborted: bool,
    deadline: Option<Instant>,
    node_limit: Option<u64>,
    /// Scratch: clique id assigned per vertex during the cover bound.
    cover_scratch: Vec<u32>,
    /// Scratch for the dense cover bound: per-clique running AND of the
    /// members' adjacency rows (bit `v` set ⇔ `v` adjacent to them all).
    cover_masks: Vec<Vec<u64>>,
}

impl SearchState<'_> {
    fn over_budget(&mut self) -> bool {
        if self.aborted {
            return true;
        }
        if let Some(limit) = self.node_limit {
            if self.nodes >= limit {
                self.aborted = true;
                return true;
            }
        }
        if self.nodes.is_multiple_of(256) {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.aborted = true;
                    return true;
                }
            }
        }
        false
    }

    /// Removes vertex `v`, decrementing alive neighbours' degrees. Returns
    /// nothing; restoration is [`Self::restore`].
    fn remove(&mut self, v: u32, trail: &mut Vec<u32>) {
        debug_assert!(self.alive[v as usize]);
        self.alive[v as usize] = false;
        if let Some(mask) = &mut self.alive_mask {
            mask[v as usize / 64] &= !(1u64 << (v as usize % 64));
            trail.push(v);
            let row = self.g.dense_row(v).expect("mask implies dense rows");
            for (wi, &rw) in row.iter().enumerate() {
                let mut bits = rw & self.alive_mask.as_ref().expect("just set")[wi];
                while bits != 0 {
                    let w = wi * 64 + bits.trailing_zeros() as usize;
                    self.deg[w] -= 1;
                    bits &= bits - 1;
                }
            }
            return;
        }
        trail.push(v);
        for &w in self.g.neighbors(v) {
            if self.alive[w as usize] {
                self.deg[w as usize] -= 1;
            }
        }
    }

    /// Restores every vertex removed since `mark`, in reverse order.
    fn restore(&mut self, trail: &mut Vec<u32>, mark: usize) {
        while trail.len() > mark {
            let v = trail.pop().expect("trail shorter than mark");
            self.alive[v as usize] = true;
            if let Some(mask) = &mut self.alive_mask {
                mask[v as usize / 64] |= 1u64 << (v as usize % 64);
                let row = self.g.dense_row(v).expect("mask implies dense rows");
                let mut d = 0usize;
                for (wi, &rw) in row.iter().enumerate() {
                    let mut bits = rw & self.alive_mask.as_ref().expect("just set")[wi];
                    while bits != 0 {
                        let w = wi * 64 + bits.trailing_zeros() as usize;
                        self.deg[w] += 1;
                        d += 1;
                        bits &= bits - 1;
                    }
                }
                self.deg[v as usize] = d;
                continue;
            }
            let mut d = 0usize;
            for &w in self.g.neighbors(v) {
                if self.alive[w as usize] {
                    self.deg[w as usize] += 1;
                    d += 1;
                }
            }
            self.deg[v as usize] = d;
        }
    }

    /// First alive neighbour of `v` (ascending id): the pendant partner
    /// lookup. A bit scan over `row ∧ alive` when the dense mirror exists,
    /// a slice scan otherwise — both visit ids ascending.
    fn first_alive_neighbor(&self, v: u32) -> Option<u32> {
        if let Some(mask) = &self.alive_mask {
            let row = self.g.dense_row(v).expect("mask implies dense rows");
            for (wi, (&r, &m)) in row.iter().zip(mask.iter()).enumerate() {
                let bits = r & m;
                if bits != 0 {
                    return Some((wi * 64) as u32 + bits.trailing_zeros());
                }
            }
            return None;
        }
        self.g.neighbors(v).iter().copied().find(|&u| self.alive[u as usize])
    }

    /// Alive neighbours of `v`, ascending — the branch-1 deletion set.
    fn alive_neighbors(&self, v: u32) -> Vec<u32> {
        if let Some(mask) = &self.alive_mask {
            let row = self.g.dense_row(v).expect("mask implies dense rows");
            let mut out = Vec::new();
            for (wi, (&r, &m)) in row.iter().zip(mask.iter()).enumerate() {
                let mut bits = r & m;
                while bits != 0 {
                    out.push((wi * 64) as u32 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            return out;
        }
        self.g.neighbors(v).iter().copied().filter(|&w| self.alive[w as usize]).collect()
    }

    /// Number of alive vertices: a popcount sweep in dense mode.
    fn alive_count(&self) -> usize {
        match &self.alive_mask {
            Some(mask) => mask.iter().map(|w| w.count_ones() as usize).sum(),
            None => self.alive.iter().filter(|&&a| a).count(),
        }
    }

    /// The branch vertex: the alive vertex of maximum degree, ties to the
    /// **highest** id — exactly what `max_by_key` over an ascending range
    /// returns, so both modes branch identically.
    fn branch_vertex(&self) -> Option<u32> {
        if let Some(mask) = &self.alive_mask {
            let mut best: Option<u32> = None;
            for (wi, &m) in mask.iter().enumerate() {
                let mut bits = m;
                while bits != 0 {
                    let u = (wi * 64) as u32 + bits.trailing_zeros();
                    if best.is_none_or(|b| self.deg[u as usize] >= self.deg[b as usize]) {
                        best = Some(u);
                    }
                    bits &= bits - 1;
                }
            }
            return best;
        }
        (0..self.g.num_nodes() as u32)
            .filter(|&u| self.alive[u as usize])
            .max_by_key(|&u| self.deg[u as usize])
    }

    fn search(&mut self) {
        self.nodes += 1;
        if self.over_budget() {
            return;
        }
        let mut trail: Vec<u32> = Vec::new();
        let taken_mark = self.current.len();

        // --- Reductions: take isolated and pendant vertices exhaustively.
        loop {
            let mut changed = false;
            for v in 0..self.g.num_nodes() as u32 {
                if !self.alive[v as usize] {
                    continue;
                }
                match self.deg[v as usize] {
                    0 => {
                        self.current.push(v);
                        self.remove(v, &mut trail);
                        changed = true;
                    }
                    1 => {
                        // Taking a pendant vertex is always at least as good
                        // as taking its single neighbour.
                        self.current.push(v);
                        let u = self
                            .first_alive_neighbor(v)
                            .expect("degree-1 vertex must have an alive neighbour");
                        self.remove(v, &mut trail);
                        self.remove(u, &mut trail);
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }

        let alive_count = self.alive_count();
        if alive_count == 0 {
            if self.current.len() > self.best.len() {
                self.best = self.current.clone();
            }
        } else {
            // --- Bound: greedy clique cover of the remaining vertices.
            let bound = self.current.len() + self.clique_cover_size();
            if bound > self.best.len() {
                // --- Branch on a maximum-degree vertex.
                let v = self.branch_vertex().expect("alive_count > 0");

                // Branch 1: take v.
                let mark = trail.len();
                self.current.push(v);
                self.remove(v, &mut trail);
                let nbrs = self.alive_neighbors(v);
                for w in nbrs {
                    self.remove(w, &mut trail);
                }
                self.search();
                self.current.pop();
                self.restore(&mut trail, mark);

                // Branch 2: exclude v.
                if !self.aborted {
                    let mark = trail.len();
                    self.remove(v, &mut trail);
                    self.search();
                    self.restore(&mut trail, mark);
                }
            }
        }

        // Undo reductions.
        self.current.truncate(taken_mark);
        self.restore(&mut trail, 0);
    }

    /// Greedily partitions the alive vertices into cliques; the number of
    /// cliques upper-bounds the MIS size of the remaining graph.
    ///
    /// When the graph carries its dense adjacency mirror, each clique keeps
    /// the running AND of its members' bit rows, so "is `v` adjacent to
    /// every member?" is a single bit test — the first-fit placement (and
    /// therefore the cover size and every pruning decision downstream) is
    /// identical to the member-scan fallback.
    fn clique_cover_size(&mut self) -> usize {
        let g = self.g;
        let n = g.num_nodes();
        self.cover_scratch.clear();
        self.cover_scratch.resize(n, u32::MAX);
        if n == 0 {
            return 0;
        }
        if g.dense_row(0).is_some() {
            let mut used = 0usize;
            for v in 0..n as u32 {
                if !self.alive[v as usize] {
                    continue;
                }
                let row = g.dense_row(v).expect("dense mirror present");
                let word = v as usize / 64;
                let bit = 1u64 << (v as usize % 64);
                let mut placed = false;
                for ci in 0..used {
                    if self.cover_masks[ci][word] & bit != 0 {
                        for (m, &r) in self.cover_masks[ci].iter_mut().zip(row) {
                            *m &= r;
                        }
                        self.cover_scratch[v as usize] = ci as u32;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    if self.cover_masks.len() == used {
                        self.cover_masks.push(Vec::new());
                    }
                    let mask = &mut self.cover_masks[used];
                    mask.clear();
                    mask.extend_from_slice(row);
                    self.cover_scratch[v as usize] = used as u32;
                    used += 1;
                }
            }
            return used;
        }
        // clique_members[c] lists vertices of clique c.
        let mut clique_members: Vec<Vec<u32>> = Vec::new();
        for v in 0..n as u32 {
            if !self.alive[v as usize] {
                continue;
            }
            let mut placed = false;
            'cliques: for (ci, members) in clique_members.iter_mut().enumerate() {
                for &m in members.iter() {
                    if !g.has_edge(v, m) {
                        continue 'cliques;
                    }
                }
                members.push(v);
                self.cover_scratch[v as usize] = ci as u32;
                placed = true;
                break;
            }
            if !placed {
                self.cover_scratch[v as usize] = clique_members.len() as u32;
                clique_members.push(vec![v]);
            }
        }
        clique_members.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_independent;

    /// Reference brute force: plain take/skip recursion, no pruning.
    fn brute_force_mis(g: &AdjGraph) -> usize {
        fn rec(g: &AdjGraph, v: u32, blocked: &mut Vec<bool>) -> usize {
            if v as usize == g.num_nodes() {
                return 0;
            }
            let skip = rec(g, v + 1, blocked);
            if blocked[v as usize] {
                return skip;
            }
            let newly: Vec<u32> =
                g.neighbors(v).iter().copied().filter(|&w| w > v && !blocked[w as usize]).collect();
            for &w in &newly {
                blocked[w as usize] = true;
            }
            let take = 1 + rec(g, v + 1, blocked);
            for &w in &newly {
                blocked[w as usize] = false;
            }
            take.max(skip)
        }
        rec(g, 0, &mut vec![false; g.num_nodes()])
    }

    #[test]
    fn solves_small_known_instances() {
        // Path P5: MIS = 3.
        let p5 = AdjGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = ExactMis::new().solve(&p5);
        assert!(r.optimal);
        assert_eq!(r.set.len(), 3);
        assert!(verify_independent(&p5, &r.set));

        // Cycle C5: MIS = 2.
        let c5 = AdjGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let r = ExactMis::new().solve(&c5);
        assert_eq!(r.set.len(), 2);

        // K6: MIS = 1.
        let edges: Vec<(u32, u32)> =
            (0..6).flat_map(|a| ((a + 1)..6).map(move |b| (a, b))).collect();
        let k6 = AdjGraph::from_edges(6, &edges);
        assert_eq!(ExactMis::new().solve(&k6).set.len(), 1);
    }

    #[test]
    fn petersen_graph_mis_is_four() {
        // Outer C5 0..4, inner pentagram 5..9, spokes i—i+5.
        let edges = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5),
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
        ];
        let g = AdjGraph::from_edges(10, &edges);
        let r = ExactMis::new().solve(&g);
        assert!(r.optimal);
        assert_eq!(r.set.len(), 4);
        assert!(verify_independent(&g, &r.set));
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_graphs() {
        for seed in 0u64..20 {
            let n = 12 + (seed % 4) as usize;
            let mut edges = Vec::new();
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 100 < 30 {
                        edges.push((a, b));
                    }
                }
            }
            let g = AdjGraph::from_edges(n, &edges);
            let r = ExactMis::new().solve(&g);
            assert!(r.optimal);
            assert!(verify_independent(&g, &r.set));
            assert_eq!(r.set.len(), brute_force_mis(&g), "seed {seed}");
        }
    }

    #[test]
    fn dense_and_sparse_cover_bounds_explore_identical_trees() {
        for seed in 0u64..20 {
            let n = 18 + (seed % 5) as usize;
            let mut edges = Vec::new();
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if state % 100 < 40 {
                        edges.push((a, b));
                    }
                }
            }
            let dense = AdjGraph::from_edges_with_density(n, &edges, true);
            let sparse = AdjGraph::from_edges_with_density(n, &edges, false);
            let rd = ExactMis::new().solve(&dense);
            let rs = ExactMis::new().solve(&sparse);
            assert_eq!(rd.set, rs.set, "seed {seed}");
            assert_eq!(rd.optimal, rs.optimal);
            // Same cover sizes → same pruning → the searches are the same
            // tree, node for node.
            assert_eq!(rd.search_nodes, rs.search_nodes, "seed {seed}");
        }
    }

    #[test]
    fn node_budget_aborts_with_feasible_answer() {
        // A moderately hard instance: 3 disjoint C7 cycles + chords.
        let mut edges = Vec::new();
        for c in 0..3u32 {
            let base = c * 7;
            for i in 0..7 {
                edges.push((base + i, base + (i + 1) % 7));
                edges.push((base + i, base + (i + 2) % 7));
            }
        }
        let g = AdjGraph::from_edges(21, &edges);
        let r =
            ExactMis::with_budget(MisBudget { time_limit: None, node_limit: Some(2) }).solve(&g);
        assert!(!r.optimal, "tiny node budget must abort");
        assert!(verify_independent(&g, &r.set));
        assert!(r.search_nodes >= 2);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let r = ExactMis::new().solve(&AdjGraph::new(0));
        assert!(r.optimal);
        assert!(r.set.is_empty());

        let r = ExactMis::new().solve(&AdjGraph::new(5));
        assert_eq!(r.set, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn star_takes_all_leaves() {
        let g = AdjGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let r = ExactMis::new().solve(&g);
        assert_eq!(r.set, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let g = AdjGraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let r = ExactMis::new().solve(&g);
        assert_eq!(r.set.len(), 2);
        assert!(verify_independent(&g, &r.set));
    }
}
