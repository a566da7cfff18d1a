use crate::engine::PhaseTiming;
use crate::{check_k, Solution, SolveError, Solver};
use dkc_clique::{node_scores_kernel, CliqueStore, KernelMode, MinScoreFinder, ScorePass};
use dkc_graph::{CsrGraph, Dag, NodeId, NodeOrder, OrderingKind};
use dkc_par::{par_reduce, ParConfig};
use std::time::Instant;

/// **L / LP** — the lightweight implementation (Algorithm 3).
///
/// Produces the same greedy-by-clique-score result as [`crate::GcSolver`]
/// *without storing the clique set*:
///
/// 1. One parallel enumeration pass computes the node scores `s_n(u)`
///    (Definition 5) in `O(n + m)` memory (Line 2). A score counts the
///    k-cliques through a node under any orientation, so the pass orients
///    by descending degree, which needs no serial degeneracy peel. The
///    same pass marks every edge that lies in some k-clique.
/// 2. Nodes are totally ordered by ascending score and the marked edges
///    oriented into a DAG, so every k-clique is owned by exactly one
///    *root* — its highest-ordered member (Lines 3-4). No later step can
///    use an edge that lies in no k-clique, so dropping those edges keeps
///    every clique, score, root and per-root visit order: the result is
///    bit-identical to orienting all of `g`, with shorter out-lists.
/// 3. `HeapInit`: for every root, `FindMin` locates the clique of locally
///    minimum clique score, in parallel across roots; the local minima
///    seed a global min-heap (Lines 10-14).
/// 4. `Calculation`: one sequential drain repeatedly pops the global
///    minimum. If its members are all still valid it joins `S`; otherwise,
///    if its root is still valid, the root is re-probed against the
///    shrunken graph and its new local minimum re-enters the heap
///    (Lines 31-39). Heap keys are 16 bytes — `(score, first member,
///    root)` — with each root's clique in a flat row table; ties compare
///    the full clique, then the root.
///
/// With [`LightweightSolver::prune`] the `FindMin` search applies the
/// score-driven pruning rule (the paper's **LP**); without it the search is
/// exhaustive (**L**). Both return identical solutions — pruning only skips
/// branches that cannot beat the incumbent — which the test-suite checks.
///
/// Time `O(n · m · (d/2)^(k-2))` worst case, space `O(n + m)`.
#[derive(Debug, Clone, Copy)]
pub struct LightweightSolver {
    /// Apply score-driven pruning (LP) or search exhaustively (L).
    pub prune: bool,
    /// Executor configuration for the score pass and `HeapInit`; the
    /// `Calculation` drain is sequential. Results are deterministic
    /// regardless of thread count.
    pub par: ParConfig,
}

impl Default for LightweightSolver {
    fn default() -> Self {
        LightweightSolver { prune: true, par: ParConfig::default() }
    }
}

impl LightweightSolver {
    /// The paper's **LP** configuration (pruning on).
    pub fn lp() -> Self {
        LightweightSolver { prune: true, par: ParConfig::default() }
    }

    /// The paper's **L** configuration (pruning off).
    pub fn l() -> Self {
        LightweightSolver { prune: false, par: ParConfig::default() }
    }

    /// Overrides the thread count (1 = fully sequential).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.par = self.par.with_threads(threads);
        self
    }

    /// Overrides the full executor configuration.
    pub fn with_par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }
}

/// Instrumentation of one L/LP run — the quantities behind the paper's
/// "redundant computation is limited" argument (Section IV-C analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpRunStats {
    /// Entries pushed during `HeapInit` (one per root with a clique).
    pub initial_entries: u64,
    /// Total heap pops.
    pub heap_pops: u64,
    /// Pops whose clique had an invalidated member (the redundant work the
    /// score pruning keeps small).
    pub stale_pops: u64,
    /// `FindMin` re-probes triggered by stale pops with a live root.
    pub reprobes: u64,
    /// Re-probes that produced a replacement entry.
    pub reprobe_hits: u64,
    /// Cliques added to `S`.
    pub cliques_added: u64,
    /// Edges that lie in some k-clique: the ones the score pass kept for
    /// the score-ordered DAG.
    pub clique_edges: u64,
}

impl Solver for LightweightSolver {
    fn name(&self) -> &'static str {
        if self.prune {
            "LP"
        } else {
            "L"
        }
    }

    fn solve(&self, g: &CsrGraph, k: usize) -> Result<Solution, SolveError> {
        self.solve_with_stats(g, k).map(|(s, _)| s)
    }
}

impl LightweightSolver {
    /// [`Solver::solve`] plus run instrumentation.
    pub fn solve_with_stats(
        &self,
        g: &CsrGraph,
        k: usize,
    ) -> Result<(Solution, LpRunStats), SolveError> {
        self.solve_with_phases(g, k).map(|(s, stats, _)| (s, stats))
    }

    /// [`LightweightSolver::solve_with_stats`] plus the wall-clock split of
    /// the run: `score_order`, `scores`, `order`, `dag`, `heap_init` and
    /// `drain`. The timings are only recorded; nothing branches on them.
    pub fn solve_with_phases(
        &self,
        g: &CsrGraph,
        k: usize,
    ) -> Result<(Solution, LpRunStats, Vec<PhaseTiming>), SolveError> {
        check_k(k)?;
        let mut phases = Vec::with_capacity(6);
        let mut last = Instant::now();
        let mut lap = |name: &str| {
            let now = Instant::now();
            phases.push(PhaseTiming::new(name, now - last));
            last = now;
        };
        // Line 2: node scores from one parallel enumeration pass, which
        // also marks the arcs that lie in some k-clique.
        let score_dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::DegreeDesc));
        lap("score_order");
        let ScorePass { scores, clique_arcs } =
            node_scores_kernel(&score_dag, k, self.par, KernelMode::default());
        lap("scores");

        // Lines 3-4: score-ascending total order; every clique is owned by
        // its maximum-score member (ties by id). Only the marked edges are
        // oriented.
        let order = NodeOrder::from_scores_asc(&scores);
        lap("order");
        let slots = score_dag.spread_arc_mask(g, &clique_arcs);
        drop((score_dag, clique_arcs));
        let dag = Dag::from_graph_masked(g, order, &slots);
        lap("dag");

        let mut stats = LpRunStats { clique_edges: dag.num_arcs() as u64, ..LpRunStats::default() };
        let mut valid = vec![true; g.num_nodes()];
        let mut heap = self.heap_init(&dag, &scores, &valid, k);
        stats.initial_entries = heap.keys.len() as u64;
        lap("heap_init");

        // Lines 31-39 (Calculation).
        let mut finder = MinScoreFinder::new(&dag, &scores, k, self.prune);
        let mut chosen = CliqueStore::new(k);
        while let Some(root) = heap.pop() {
            stats.heap_pops += 1;
            let clique = heap.row(root);
            if clique.iter().all(|&u| valid[u as usize]) {
                for &u in clique {
                    valid[u as usize] = false;
                }
                chosen.push(clique);
                stats.cliques_added += 1;
            } else {
                stats.stale_pops += 1;
                if valid[root as usize] {
                    // Stale local minimum: re-probe the root against the
                    // current residual graph.
                    stats.reprobes += 1;
                    if let Some(found) = finder.find(root, &valid) {
                        stats.reprobe_hits += 1;
                        heap.push(found.score, found.clique.as_slice(), root);
                    }
                }
            }
        }
        lap("drain");
        Ok((Solution::from_store(chosen), stats, phases))
    }

    /// Lines 10-14 of Algorithm 3: one `FindMin` probe per root, fanned out
    /// on the executor. Each worker reuses a single [`MinScoreFinder`]
    /// (recursion buffers grow once) and fills a heap of its own; the
    /// worker heaps are then merged. A heap's pop order depends only on the
    /// set of keys it holds, so the merge order cannot change the drain.
    fn heap_init(&self, dag: &Dag, scores: &[u64], valid: &[bool], k: usize) -> KeyHeap {
        let n = dag.num_nodes();
        par_reduce(
            self.par,
            n,
            || MinScoreFinder::new(dag, scores, k, self.prune),
            || KeyHeap::new(n, k),
            |finder, heap, roots| {
                for u in roots.map(|u| u as NodeId) {
                    if dag.out_degree(u) < k - 1 {
                        continue;
                    }
                    if let Some(found) = finder.find(u, valid) {
                        heap.push(found.score, found.clique.as_slice(), u);
                    }
                }
            },
            |merged, local| merged.absorb(&local),
        )
    }
}

/// A heap key: 16 bytes instead of a whole `(score, clique, root)` entry.
#[derive(Clone, Copy)]
struct Key {
    score: u64,
    first: NodeId,
    root: NodeId,
}

/// The global min-heap of the `Calculation` drain. The heap never holds two
/// entries for one root, so each key's clique lives in a root-indexed flat
/// row table (`n · k` ids) and keys compare as `(score, clique, root)`:
/// `(score, first member)` decides almost every comparison, the rest of the
/// row and then the root break the remaining ties. A drain pushes at most
/// one entry per pop, so once `HeapInit` is done pops and pushes never
/// allocate.
struct KeyHeap {
    keys: Vec<Key>,
    rows: Vec<NodeId>,
    k: usize,
}

impl KeyHeap {
    fn new(n: usize, k: usize) -> Self {
        KeyHeap { keys: Vec::new(), rows: vec![0; n * k], k }
    }

    /// The clique of `root`'s current (or just popped) entry.
    fn row(&self, root: NodeId) -> &[NodeId] {
        &self.rows[root as usize * self.k..][..self.k]
    }

    fn less(&self, a: Key, b: Key) -> bool {
        (a.score, a.first)
            .cmp(&(b.score, b.first))
            .then_with(|| self.row(a.root).cmp(self.row(b.root)))
            .then(a.root.cmp(&b.root))
            .is_lt()
    }

    /// Pushes `root`'s entry; `root` must not be in the heap.
    fn push(&mut self, score: u64, clique: &[NodeId], root: NodeId) {
        self.rows[root as usize * self.k..][..self.k].copy_from_slice(clique);
        let key = Key { score, first: clique[0], root };
        self.keys.push(key);
        self.sift_up(self.keys.len() - 1, key);
    }

    /// Pops the minimum entry and returns its root; the clique stays in
    /// [`KeyHeap::row`] until that root is pushed again.
    fn pop(&mut self) -> Option<NodeId> {
        let last = self.keys.pop()?;
        let Some(&top) = self.keys.first() else {
            return Some(last.root);
        };
        // Walk the hole down along the smaller children to a leaf, then
        // sift the former last key up from there (the bottom-up variant
        // `std::collections::BinaryHeap::pop` uses).
        let len = self.keys.len();
        let mut hole = 0;
        let mut child = 1;
        while child < len {
            if child + 1 < len && self.less(self.keys[child + 1], self.keys[child]) {
                child += 1;
            }
            self.keys[hole] = self.keys[child];
            hole = child;
            child = 2 * hole + 1;
        }
        self.sift_up(hole, last);
        Some(top.root)
    }

    /// Adds every entry of `other` (whose roots must be disjoint from ours).
    fn absorb(&mut self, other: &KeyHeap) {
        self.keys.reserve_exact(other.keys.len());
        for key in &other.keys {
            self.push(key.score, other.row(key.root), key.root);
        }
    }

    fn sift_up(&mut self, mut hole: usize, key: Key) {
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if !self.less(key, self.keys[parent]) {
                break;
            }
            self.keys[hole] = self.keys[parent];
            hole = parent;
        }
        self.keys[hole] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgraphs::{paper_fig2, planted_triangles};
    use crate::GcSolver;
    use dkc_clique::Clique;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A sorted k-member clique whose first member is `first`; the gaps
    /// come from the bits of `spread`, so equal `(first, spread)` pairs
    /// give equal cliques and nearby ones share prefixes.
    fn clique_from(k: usize, first: NodeId, spread: u32) -> Clique {
        let mut members = vec![first];
        for i in 1..k {
            let last = members[i - 1];
            members.push(last + 1 + ((spread >> (2 * i)) & 3));
        }
        Clique::new(&members)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The 16-byte-key heap pops in exactly the order of a heap of
        /// whole `(score, clique, root)` entries. Scores and first members
        /// come from tiny ranges, so `(score, first)` ties — and whole-
        /// clique ties broken by the root — are common. Pushes follow the
        /// drain's pattern: each pop may re-push its own root with a score
        /// no smaller than the popped one.
        #[test]
        fn key_heap_pops_in_whole_entry_order(
            k in 2usize..=5,
            initial in vec((0u64..6, 0u32..4, 0u32..1024), 0..160),
            repush in vec((0u64..3, 0u32..4, 0u32..1024, 0u8..4), 0..400),
        ) {
            let n = initial.len();
            let mut heap = KeyHeap::new(n, k);
            let mut reference = BinaryHeap::new();
            for (root, &(score, first, spread)) in initial.iter().enumerate() {
                let c = clique_from(k, first, spread);
                heap.push(score, c.as_slice(), root as NodeId);
                reference.push(Reverse((score, c, root as NodeId)));
            }
            let mut repush = repush.into_iter();
            while let Some(Reverse((score, clique, root))) = reference.pop() {
                prop_assert_eq!(heap.pop(), Some(root));
                prop_assert_eq!(heap.row(root), clique.as_slice());
                prop_assert_eq!(heap.keys.len(), reference.len());
                // Drain-like: three times in four, re-push the popped root.
                if let Some((bump, first, spread, coin)) = repush.next() {
                    if coin != 0 {
                        let c = clique_from(k, first, spread);
                        heap.push(score + bump, c.as_slice(), root);
                        reference.push(Reverse((score + bump, c, root)));
                    }
                }
            }
            prop_assert_eq!(heap.pop(), None);
        }
    }

    #[test]
    fn key_heap_merges_in_any_order_to_the_same_pops() {
        // HeapInit merges per-worker heaps in schedule order; the pops must
        // not depend on it.
        let k = 3;
        let entries: Vec<(u64, Clique)> =
            (0..64u32).map(|r| (u64::from(r % 5), clique_from(k, r % 3, r * 37))).collect();
        let pops = |parts: &[std::ops::Range<usize>]| {
            let mut merged = KeyHeap::new(entries.len(), k);
            for part in parts {
                let mut local = KeyHeap::new(entries.len(), k);
                for root in part.clone() {
                    let (score, c) = entries[root];
                    local.push(score, c.as_slice(), root as NodeId);
                }
                merged.absorb(&local);
            }
            std::iter::from_fn(|| merged.pop()).collect::<Vec<_>>()
        };
        let base = pops(&[0..32, 32..64]);
        assert_eq!(base.len(), 64);
        assert_eq!(pops(&[32..64, 0..32]), base);
        assert_eq!(pops(&[48..64, 0..16, 16..48]), base);
    }

    #[test]
    fn phases_cover_the_run_in_order() {
        let g = planted_triangles(20);
        let (s, st, phases) = LightweightSolver::lp().solve_with_phases(&g, 3).unwrap();
        let names: Vec<&str> = phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["score_order", "scores", "order", "dag", "heap_init", "drain"]);
        assert_eq!((s, st), LightweightSolver::lp().solve_with_stats(&g, 3).unwrap());
    }

    #[test]
    fn lp_finds_the_maximum_on_fig2() {
        let g = paper_fig2();
        let s = LightweightSolver::lp().solve(&g, 3).unwrap();
        assert_eq!(s.len(), 3, "LP must find the maximum set S2 on Fig. 2");
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
    }

    #[test]
    fn lp_matches_gc_on_fig2_exactly() {
        // Theorem 4: with fixed total node and clique orders, Algorithms 2
        // and 3 produce the same S. Our tie-breaking differs slightly from a
        // strict global clique order (as does the paper's implementation),
        // but on Fig. 2 all choices coincide.
        let g = paper_fig2();
        let gc = GcSolver::new().solve(&g, 3).unwrap();
        let lp = LightweightSolver::lp().solve(&g, 3).unwrap();
        assert_eq!(gc.sorted_cliques(), lp.sorted_cliques());
    }

    #[test]
    fn l_and_lp_produce_identical_solutions() {
        let g = paper_fig2();
        for k in 3..=4 {
            let l = LightweightSolver::l().solve(&g, k).unwrap();
            let lp = LightweightSolver::lp().solve(&g, k).unwrap();
            assert_eq!(l, lp, "k={k}");
        }
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let g = planted_triangles(40);
        let base = LightweightSolver::lp().with_threads(1).solve(&g, 3).unwrap();
        for threads in [2, 4, 8] {
            // The small chunk forces real fan-out even on this small graph.
            let par = ParConfig::new(threads).with_chunk(8);
            let s = LightweightSolver::lp().with_par(par).solve(&g, 3).unwrap();
            assert_eq!(s.sorted_cliques(), base.sorted_cliques(), "threads={threads}");
        }
    }

    #[test]
    fn run_stats_are_thread_count_invariant() {
        let g = planted_triangles(40);
        let (base_sol, base_stats) =
            LightweightSolver::lp().with_threads(1).solve_with_stats(&g, 3).unwrap();
        for threads in [2, 4, 8] {
            let par = ParConfig::new(threads).with_chunk(8);
            let (sol, stats) =
                LightweightSolver::lp().with_par(par).solve_with_stats(&g, 3).unwrap();
            assert_eq!(sol, base_sol, "threads={threads}");
            assert_eq!(stats, base_stats, "LpRunStats must not depend on threads={threads}");
        }
    }

    #[test]
    fn recovers_planted_triangles() {
        let g = planted_triangles(12);
        let s = LightweightSolver::lp().solve(&g, 3).unwrap();
        assert_eq!(s.len(), 12);
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
    }

    #[test]
    fn rejects_invalid_k() {
        let g = paper_fig2();
        assert!(matches!(LightweightSolver::lp().solve(&g, 2), Err(SolveError::InvalidK { .. })));
    }

    #[test]
    fn run_stats_are_coherent() {
        let g = paper_fig2();
        let (s, st) = LightweightSolver::lp().solve_with_stats(&g, 3).unwrap();
        assert_eq!(st.cliques_added, s.len() as u64);
        assert_eq!(st.heap_pops, st.cliques_added + st.stale_pops);
        assert!(st.reprobes <= st.stale_pops);
        assert!(st.reprobe_hits <= st.reprobes);
        assert!(st.initial_entries >= s.len() as u64);
        // Total pushes = initial + reprobe hits = pops when the heap drains.
        assert_eq!(st.initial_entries + st.reprobe_hits, st.heap_pops);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(LightweightSolver::lp().name(), "LP");
        assert_eq!(LightweightSolver::l().name(), "L");
    }

    #[test]
    fn empty_graph_and_oversized_k() {
        let s = LightweightSolver::lp().solve(&CsrGraph::empty(), 3).unwrap();
        assert!(s.is_empty());
        let g = paper_fig2();
        let s = LightweightSolver::lp().solve(&g, 5).unwrap();
        assert!(s.is_empty());
    }
}
