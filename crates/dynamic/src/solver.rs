use crate::index::CandidateIndex;
use crate::state::{CliqueId, SolutionState};
use dkc_clique::Clique;
use dkc_core::{Algo, Engine, Solution, SolveError, SolveReport, SolveRequest};
use dkc_graph::{CsrGraph, DynGraph, NodeId};
use dkc_improve::{ImproveConfig, ImproveOutcome, ImproveStats};
use std::collections::{BTreeSet, VecDeque};

/// Cumulative counters over a solver's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Edge insertions applied (duplicates excluded).
    pub insertions: u64,
    /// Edge deletions applied (missing edges excluded).
    pub deletions: u64,
    /// `TrySwap` queue pops that evaluated a clique.
    pub swaps_attempted: u64,
    /// Swaps that actually replaced a clique with ≥ 2 candidates.
    pub swaps_applied: u64,
    /// Cliques ever added to `S` (including via swaps).
    pub cliques_added: u64,
    /// Cliques ever removed from `S`.
    pub cliques_removed: u64,
}

/// Effect of a single update call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// False when the edge was already present (insert) / absent (delete).
    pub applied: bool,
    /// Change of `|S|` caused by this update.
    pub size_delta: i64,
}

/// One edge update, for [`DynamicSolver::apply`] / [`DynamicSolver::apply_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Insert the edge.
    Insert(NodeId, NodeId),
    /// Delete the edge.
    Delete(NodeId, NodeId),
}

impl EdgeUpdate {
    /// The endpoints, regardless of direction.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeUpdate::Insert(a, b) | EdgeUpdate::Delete(a, b) => (a, b),
        }
    }

    /// True for [`EdgeUpdate::Insert`].
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert(..))
    }
}

/// Aggregate effect of a batch of updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Updates that changed the graph.
    pub applied: usize,
    /// Updates that were no-ops (duplicate insert / missing delete).
    pub skipped: usize,
    /// Net change of `|S|` over the batch.
    pub size_delta: i64,
}

/// Maintains a near-optimal maximal disjoint k-clique set under edge
/// updates — the complete machinery of Section V.
///
/// Invariants upheld after every update (audited by
/// [`DynamicSolver::validate`]):
///
/// 1. `S` is a valid disjoint k-clique set of the current graph;
/// 2. `S` is maximal (no k-clique among free nodes);
/// 3. the candidate index equals a from-scratch Algorithm 5 run.
///
/// Its future behaviour is a function of the graph and `S` alone (plus the
/// request [`DynamicSolver::rebuild`] replays). Cliques are keyed by their
/// leaders, every choice among candidates sorts them or compares them as
/// sets, and no decision reads a candidate id. So a solver built from
/// another's graph and solution, as a restart or a replica does, continues
/// bit-identically.
#[derive(Debug, Clone)]
pub struct DynamicSolver {
    k: usize,
    graph: DynGraph,
    state: SolutionState,
    index: CandidateIndex,
    stats: UpdateStats,
    /// The request replayed by [`DynamicSolver::rebuild`]; `k` equals
    /// `self.k` by construction.
    request: SolveRequest,
}

impl DynamicSolver {
    /// Bootstraps from a static graph with the paper's default: the
    /// initial `S` comes from the LP solver (Algorithm 3), the candidate
    /// index from Algorithm 5. Shorthand for [`DynamicSolver::from_scratch`]
    /// with an [`Algo::Lp`] request.
    pub fn new(g: &CsrGraph, k: usize) -> Result<Self, SolveError> {
        Self::from_scratch(g, SolveRequest::new(Algo::Lp, k))
    }

    /// Bootstraps from a static graph with an explicit engine request, so
    /// dynamic maintenance can start from (and [`DynamicSolver::rebuild`]
    /// with) any algorithm/budget/executor configuration, not just the
    /// hard-wired LP default.
    pub fn from_scratch(g: &CsrGraph, request: SolveRequest) -> Result<Self, SolveError> {
        let report = Engine::solve(g, request)?;
        Ok(Self::with_request(g, report.solution, request))
    }

    /// Starts from a pre-computed solution (must be valid and maximal —
    /// e.g. produced by any solver in `dkc-core`). Rebuilds replay LP.
    pub fn from_solution(g: &CsrGraph, solution: Solution) -> Self {
        let request = SolveRequest::new(Algo::Lp, solution.k());
        Self::with_request(g, solution, request)
    }

    /// [`DynamicSolver::from_solution`] with an explicit rebuild request —
    /// the restore path of [`crate::ServingSolver`], which must come back
    /// with the same request provenance it was created with.
    pub fn from_solution_with_request(
        g: &CsrGraph,
        solution: Solution,
        request: SolveRequest,
    ) -> Self {
        Self::with_request(g, solution, request)
    }

    fn with_request(g: &CsrGraph, solution: Solution, request: SolveRequest) -> Self {
        let graph = DynGraph::from_csr(g);
        let state = SolutionState::from_solution(&solution);
        let index = CandidateIndex::build(&graph, &state, request.par);
        DynamicSolver {
            k: solution.k(),
            graph,
            state,
            index,
            stats: UpdateStats::default(),
            request,
        }
    }

    /// Recomputes `S` and the candidate index from scratch on the *current*
    /// graph by replaying this solver's [`SolveRequest`] — the "rebuild"
    /// baseline the paper's Table VIII compares maintained quality against.
    /// Lifetime [`UpdateStats`] counters are preserved; the returned
    /// [`SolveReport`] carries the rebuild's provenance and timings.
    pub fn rebuild(&mut self) -> Result<SolveReport, SolveError> {
        let csr = self.graph.to_csr();
        let report = Engine::solve(&csr, self.request)?;
        self.state.replace(&report.solution);
        self.index = CandidateIndex::build(&self.graph, &self.state, self.request.par);
        Ok(report)
    }

    /// The engine request used to bootstrap (and rebuild) this solver.
    pub fn request(&self) -> SolveRequest {
        self.request
    }

    /// The clique size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current `|S|`.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    /// True when `S` is empty.
    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// The current graph.
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// Number of candidate cliques in the index (Table VII's "index size").
    pub fn index_size(&self) -> usize {
        self.index.len()
    }

    /// The candidate-clique index, keyed by the clique ids (leaders) of
    /// [`DynamicSolver::state`].
    pub fn index(&self) -> &CandidateIndex {
        &self.index
    }

    /// The solution state: `S` keyed by leader, and which nodes are free.
    pub fn state(&self) -> &SolutionState {
        &self.state
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Snapshot of the current solution in canonical (sorted-clique)
    /// order, read off the maintained group pages without sorting.
    pub fn solution(&self) -> Solution {
        self.state.to_solution()
    }

    /// An epoch-stamped, canonical read snapshot of the current solution
    /// (see [`crate::SolutionView`]). The epoch is supplied by the caller —
    /// [`crate::ServingSolver`] counts applied batches.
    ///
    /// The solver keeps the view's pages up to date as it mutates `S`, so
    /// this clones a table of shared pages: no sort, no copy of `S`.
    pub fn solution_view(&self, epoch: u64) -> crate::SolutionView {
        crate::SolutionView::publish(epoch, self.graph.num_nodes(), self.state.groups(), self.stats)
    }

    /// Does nothing. A solver's behaviour is already a function of its
    /// graph and `S` alone: cliques are keyed by their leaders, and every
    /// swap decision sorts candidates or compares them as sets, so a
    /// solver behaves exactly like one freshly built from its own
    /// solution. Kept only for existing callers; it will be removed.
    pub fn canonicalize(&mut self) {}

    /// Restores lifetime counters (the [`crate::ServingSolver`] restart
    /// path carries them across process boundaries).
    pub(crate) fn set_stats(&mut self, stats: UpdateStats) {
        self.stats = stats;
    }

    /// Runs the deterministic local search ([`dkc_improve::improve`]) over
    /// the current solution **without mutating the solver** — the propose
    /// half of the improvement write path. The request's executor
    /// configuration is reused; the outcome is a pure function of
    /// (graph, solution, seed, steps).
    pub fn propose_improvement(&self, steps: u64, seed: u64) -> ImproveOutcome {
        let cfg = ImproveConfig { steps, seed, par: self.request.par };
        let solution = self.solution();
        dkc_improve::improve(&self.graph, self.k, solution.store(), &cfg)
    }

    /// Replaces the solution with an improved clique set and rebuilds the
    /// candidate index — the install half of the improvement write path.
    /// Only the cliques that changed touch the group pages.
    pub fn install_improvement(&mut self, cliques: &[Clique]) {
        let mut improved = Solution::new(self.k);
        for &c in cliques {
            improved.push(c);
        }
        self.state.replace(&improved);
        self.index = CandidateIndex::build(&self.graph, &self.state, self.request.par);
    }

    /// Budgeted local-search improvement: propose, then install when any
    /// move applied. Deterministic: the same (state, steps, seed) always
    /// yields the same solution, which is what lets the serving journal
    /// log just the parameters and replay the identical improvement.
    pub fn improve(&mut self, steps: u64, seed: u64) -> ImproveStats {
        let out = self.propose_improvement(steps, seed);
        if out.stats.moves_applied > 0 {
            self.install_improvement(&out.cliques);
        }
        out.stats
    }

    /// **Insertion** (Algorithm 6).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> UpdateOutcome {
        let before = self.state.len() as i64;
        if !self.graph.insert_edge(u, v) {
            return UpdateOutcome { applied: false, size_delta: 0 };
        }
        self.index.ensure_node(u.max(v));
        self.stats.insertions += 1;
        match (self.state.is_free(u), self.state.is_free(v)) {
            (false, false) => {
                // Both endpoints are covered: no candidate can use the new
                // edge (its non-free nodes would span two cliques).
            }
            (true, true) => self.insert_between_free(u, v),
            (true, false) => self.insert_one_free(v),
            (false, true) => self.insert_one_free(u),
        }
        UpdateOutcome { applied: true, size_delta: self.state.len() as i64 - before }
    }

    /// **Deletion** (Algorithm 7).
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> UpdateOutcome {
        let before = self.state.len() as i64;
        if !self.graph.remove_edge(u, v) {
            return UpdateOutcome { applied: false, size_delta: 0 };
        }
        self.stats.deletions += 1;
        // Candidates through (u, v) are no longer cliques (Line 6).
        self.index.drop_with_edge(u, v);
        let (ou, ov) = (self.state.owner(u), self.state.owner(v));
        if let (Some(cu), Some(cv)) = (ou, ov) {
            if cu == cv {
                self.handle_broken_clique(cu);
            }
        }
        UpdateOutcome { applied: true, size_delta: self.state.len() as i64 - before }
    }

    /// Applies one [`EdgeUpdate`].
    pub fn apply(&mut self, update: EdgeUpdate) -> UpdateOutcome {
        match update {
            EdgeUpdate::Insert(a, b) => self.insert_edge(a, b),
            EdgeUpdate::Delete(a, b) => self.delete_edge(a, b),
        }
    }

    /// Applies a stream of updates, aggregating the outcome.
    pub fn apply_batch<I>(&mut self, updates: I) -> BatchOutcome
    where
        I: IntoIterator<Item = EdgeUpdate>,
    {
        let mut out = BatchOutcome::default();
        for u in updates {
            let r = self.apply(u);
            if r.applied {
                out.applied += 1;
            } else {
                out.skipped += 1;
            }
            out.size_delta += r.size_delta;
        }
        out
    }

    /// Removes node `u` by deleting every incident edge — the paper's
    /// convention: "updates on the nodes can be treated equivalently as the
    /// updates on the edges incident to the corresponding nodes". Returns
    /// the number of edges removed.
    pub fn remove_node(&mut self, u: NodeId) -> usize {
        if u as usize >= self.graph.num_nodes() {
            return 0;
        }
        let nbrs: Vec<NodeId> = self.graph.neighbors(u).to_vec();
        for &v in &nbrs {
            self.delete_edge(u, v);
        }
        nbrs.len()
    }

    /// Case "only one endpoint free" (Algorithm 6, Lines 1-6): the new edge
    /// can only create candidates attached to the covered endpoint's clique.
    fn insert_one_free(&mut self, covered: NodeId) {
        let id = self.state.owner(covered).expect("covered endpoint has an owner");
        let report = self.index.rebuild_for_clique(&self.graph, &self.state, id);
        self.absorb_all_free(report.all_free);
        if report.has_new {
            let mut queue = VecDeque::from([id]);
            self.try_swap(&mut queue);
        }
    }

    /// Case "both endpoints free" (Algorithm 6, Lines 7-15).
    fn insert_between_free(&mut self, u: NodeId, v: NodeId) {
        if let Some(clique) = self.find_free_clique_with_edge(u, v) {
            // Lines 8-10: a brand-new clique of free nodes joins S outright;
            // no swap needed — no other clique gains candidates from this.
            self.add_clique(clique);
            return;
        }
        // Lines 12-15: the edge may create candidates for any clique owning
        // a common (non-free) neighbour of u and v.
        let mut affected: BTreeSet<CliqueId> = BTreeSet::new();
        let (a, b) = (self.graph.neighbors(u), self.graph.neighbors(v));
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if let Some(id) = self.state.owner(a[i]) {
                        affected.insert(id);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut queue = VecDeque::new();
        for id in affected {
            let report = self.index.rebuild_for_clique(&self.graph, &self.state, id);
            self.absorb_all_free(report.all_free);
            if report.has_new {
                queue.push_back(id);
            }
        }
        self.try_swap(&mut queue);
    }

    /// Deletion case "u and v shared a clique of S" (Algorithm 7, Lines
    /// 1-4): the clique is gone; refill from its candidates and swap onward.
    fn handle_broken_clique(&mut self, id: CliqueId) {
        // Snapshot candidates before tearing the clique down — they remain
        // valid cliques (edge-hit ones were already dropped).
        let candidates = self.index.candidates_of(id);
        let removed = self.remove_clique(id);
        // Greedy refill: any pairwise-disjoint subset is pure gain because
        // every candidate's nodes are now free.
        let filled =
            greedy_disjoint(candidates, |c| c.iter().filter(|&n| removed.contains(n)).count());
        let mut queue = VecDeque::new();
        let mut added = Vec::new();
        for c in filled {
            added.push(self.add_clique_deferred(c));
        }
        for id in &added {
            let report = self.index.rebuild_for_clique(&self.graph, &self.state, *id);
            self.absorb_all_free(report.all_free);
            if !self.index.candidates_of(*id).is_empty() {
                queue.push_back(*id);
            }
        }
        self.requeue_neighbors_of_freed(&removed, &added, &mut queue);
        self.try_swap(&mut queue);
    }

    /// **TrySwap** (Algorithm 4): pop cliques, trade each for a larger set
    /// of pairwise-disjoint candidates when possible, and keep following
    /// newly created candidates until the queue drains.
    fn try_swap(&mut self, queue: &mut VecDeque<CliqueId>) {
        while let Some(id) = queue.pop_front() {
            if self.state.clique(id).is_none() {
                continue; // an earlier swap removed it
            }
            self.stats.swaps_attempted += 1;
            let candidates = self.index.candidates_of(id);
            if candidates.len() < 2 {
                continue;
            }
            let s_dis = greedy_disjoint(candidates, |c| {
                c.iter().filter(|&n| !self.state.is_free(n)).count()
            });
            if s_dis.len() > 1 {
                self.stats.swaps_applied += 1;
                self.apply_swap(id, s_dis, queue);
            }
        }
    }

    fn apply_swap(&mut self, id: CliqueId, s_dis: Vec<Clique>, queue: &mut VecDeque<CliqueId>) {
        let removed = self.remove_clique(id);
        let mut added = Vec::new();
        for c in s_dis {
            added.push(self.add_clique_deferred(c));
        }
        for s in &added {
            let report = self.index.rebuild_for_clique(&self.graph, &self.state, *s);
            self.absorb_all_free(report.all_free);
            if !self.index.candidates_of(*s).is_empty() {
                queue.push_back(*s);
            }
        }
        self.requeue_neighbors_of_freed(&removed, &added, queue);
    }

    /// After nodes of `removed` went free, cliques adjacent to the ones
    /// that *stayed* free may have gained candidates: rebuild them and
    /// queue those whose candidate set grew (Algorithm 4, Lines 7-8).
    fn requeue_neighbors_of_freed(
        &mut self,
        removed: &Clique,
        exclude: &[CliqueId],
        queue: &mut VecDeque<CliqueId>,
    ) {
        let mut affected: BTreeSet<CliqueId> = BTreeSet::new();
        for w in removed.iter() {
            if !self.state.is_free(w) {
                continue;
            }
            for &x in self.graph.neighbors(w) {
                if let Some(id) = self.state.owner(x) {
                    if !exclude.contains(&id) {
                        affected.insert(id);
                    }
                }
            }
        }
        for id in affected {
            let report = self.index.rebuild_for_clique(&self.graph, &self.state, id);
            self.absorb_all_free(report.all_free);
            if report.has_new {
                queue.push_back(id);
            }
        }
    }

    /// Adds a clique to `S` and immediately derives its candidate set.
    fn add_clique(&mut self, c: Clique) -> CliqueId {
        let id = self.add_clique_deferred(c);
        let report = self.index.rebuild_for_clique(&self.graph, &self.state, id);
        self.absorb_all_free(report.all_free);
        id
    }

    /// Adds a clique to `S` without rebuilding its candidates (callers
    /// adding several cliques rebuild after the batch, when the free-node
    /// set is final).
    fn add_clique_deferred(&mut self, c: Clique) -> CliqueId {
        // Nodes turning non-free invalidate every candidate they sat in.
        for u in c.iter() {
            self.index.drop_containing_node(u);
        }
        let id = self.state.add(c);
        self.stats.cliques_added += 1;
        id
    }

    fn remove_clique(&mut self, id: CliqueId) -> Clique {
        self.index.drop_attached(id);
        let c = self.state.remove(id);
        self.stats.cliques_removed += 1;
        c
    }

    /// Defensive self-healing: cliques of only free nodes (reported by
    /// index rebuilds) mean `S` is not maximal — add them greedily.
    fn absorb_all_free(&mut self, cliques: Vec<Clique>) {
        for c in cliques {
            if c.iter().all(|u| self.state.is_free(u)) {
                self.add_clique(c);
            }
        }
    }

    /// Searches for a k-clique consisting of `u`, `v` and `k-2` further
    /// *free* common neighbours (Algorithm 6, Line 8).
    fn find_free_clique_with_edge(&self, u: NodeId, v: NodeId) -> Option<Clique> {
        let (a, b) = (self.graph.neighbors(u), self.graph.neighbors(v));
        let mut common: Vec<NodeId> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if self.state.is_free(a[i]) {
                        common.push(a[i]);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        let mut acc: Vec<NodeId> = Vec::with_capacity(self.k);
        if find_clique_among(&self.graph, &common, self.k - 2, &mut acc) {
            acc.push(u);
            acc.push(v);
            Some(Clique::new(&acc))
        } else {
            None
        }
    }

    /// Audits all invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        // 1. Validity.
        let solution = self.solution();
        solution
            .verify_with(self.graph.num_nodes(), |a, b| self.graph.has_edge(a, b))
            .map_err(|e| format!("solution invalid: {e}"))?;
        // 2. Maximality: no k-clique among free nodes.
        let free: Vec<NodeId> =
            (0..self.graph.num_nodes() as NodeId).filter(|&u| self.state.is_free(u)).collect();
        let mut residual_clique = None;
        dkc_clique::for_each_kclique_in_subset(&self.graph, &free, self.k, |c| {
            if residual_clique.is_none() {
                residual_clique = Some(c.to_vec());
            }
        });
        if let Some(c) = residual_clique {
            return Err(format!("not maximal: free nodes {c:?} form a k-clique"));
        }
        // 3. Index coherence.
        self.index
            .validate(&self.graph, &self.state)
            .map_err(|e| format!("index incoherent: {e}"))?;
        Ok(())
    }
}

/// Greedily selects a maximal pairwise-disjoint subset, visiting candidates
/// in ascending `(weight, clique)` order. The weight is the number of
/// non-free nodes a candidate consumes — candidates that claim fewer of the
/// outgoing clique's nodes pack better, the same "cheapest first" intuition
/// Algorithm 2 applies via clique scores.
fn greedy_disjoint<W>(mut candidates: Vec<Clique>, weight: W) -> Vec<Clique>
where
    W: Fn(&Clique) -> usize,
{
    let mut keyed: Vec<(usize, Clique)> = candidates.drain(..).map(|c| (weight(&c), c)).collect();
    keyed.sort_unstable();
    let mut used: BTreeSet<NodeId> = BTreeSet::new();
    let mut chosen = Vec::new();
    'next: for (_, c) in keyed {
        for u in c.iter() {
            if used.contains(&u) {
                continue 'next;
            }
        }
        for u in c.iter() {
            used.insert(u);
        }
        chosen.push(c);
    }
    chosen
}

/// First `need`-subset of `cand` (sorted ids) that is pairwise adjacent.
fn find_clique_among(g: &DynGraph, cand: &[NodeId], need: usize, acc: &mut Vec<NodeId>) -> bool {
    if need == 0 {
        return true;
    }
    if cand.len() < need {
        return false;
    }
    for (i, &x) in cand.iter().enumerate() {
        let rest: Vec<NodeId> =
            cand[i + 1..].iter().copied().filter(|&y| g.has_edge(x, y)).collect();
        if rest.len() + 1 >= need {
            acc.push(x);
            if find_clique_among(g, &rest, need - 1, acc) {
                return true;
            }
            acc.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 5(a): G1 on 11 nodes (0-based), S = {(v3,v4,v5), (v9,v10,v11)}.
    fn fig5_solver() -> DynamicSolver {
        let g = CsrGraph::from_edges(
            11,
            vec![
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (2, 4),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (8, 10),
                (9, 10),
            ],
        )
        .unwrap();
        let mut s = Solution::new(3);
        s.push(Clique::new(&[2, 3, 4]));
        s.push(Clique::new(&[8, 9, 10]));
        s.verify(&g).unwrap();
        s.verify_maximal(&g).unwrap();
        DynamicSolver::from_solution(&g, s)
    }

    #[test]
    fn fig5_insertion_triggers_the_papers_swap() {
        // Inserting (v5, v7) creates candidate (v5,v6,v7) for C = (v3,v4,v5),
        // which already has candidate (v1,v2,v3). TrySwap removes C and adds
        // both candidates: |S| grows from 2 to 3 — the paper's exact walk.
        let mut solver = fig5_solver();
        assert_eq!(solver.len(), 2);
        let out = solver.insert_edge(4, 6);
        assert!(out.applied);
        assert_eq!(out.size_delta, 1);
        assert_eq!(solver.len(), 3);
        let cliques = solver.solution().sorted_cliques();
        assert!(cliques.contains(&Clique::new(&[0, 1, 2]))); // (v1,v2,v3)
        assert!(cliques.contains(&Clique::new(&[4, 5, 6]))); // (v5,v6,v7)
        assert!(cliques.contains(&Clique::new(&[8, 9, 10]))); // untouched C2
        solver.validate().unwrap();
        assert_eq!(solver.stats().swaps_applied, 1);
    }

    #[test]
    fn fig5_deletion_reverts_the_swap_scenario() {
        // Start from G2 (with (v5,v7)) and |S| = 3, then delete (v5, v7):
        // the clique (v5,v6,v7) breaks. The paper ends with
        // S = {(v1,v2,v3), (v9,v10,v11)} — size 2 — because (v3,v4,v5) is
        // blocked by v3 being taken.
        let mut solver = fig5_solver();
        solver.insert_edge(4, 6);
        assert_eq!(solver.len(), 3);
        let out = solver.delete_edge(4, 6);
        assert!(out.applied);
        assert_eq!(solver.len(), 2);
        let cliques = solver.solution().sorted_cliques();
        assert!(cliques.contains(&Clique::new(&[0, 1, 2])));
        assert!(cliques.contains(&Clique::new(&[8, 9, 10])));
        solver.validate().unwrap();
    }

    #[test]
    fn duplicate_and_missing_edges_are_noops() {
        let mut solver = fig5_solver();
        let out = solver.insert_edge(2, 3); // already present
        assert!(!out.applied);
        let out = solver.delete_edge(0, 9); // absent
        assert!(!out.applied);
        assert_eq!(solver.stats().insertions, 0);
        assert_eq!(solver.stats().deletions, 0);
        solver.validate().unwrap();
    }

    #[test]
    fn deleting_inside_a_clique_refills_from_candidates() {
        // Deleting (v3, v4) destroys (v3,v4,v5); the candidate (v1,v2,v3)
        // refills immediately, so |S| stays 2.
        let mut solver = fig5_solver();
        let out = solver.delete_edge(2, 3);
        assert!(out.applied);
        assert_eq!(solver.len(), 2);
        let cliques = solver.solution().sorted_cliques();
        assert!(cliques.contains(&Clique::new(&[0, 1, 2])));
        solver.validate().unwrap();
    }

    #[test]
    fn insertion_between_free_nodes_forms_new_clique_directly() {
        // Free nodes of Fig. 5(a): v1? no — free nodes are 0? Let's use
        // nodes 5, 6, 7 (v6, v7, v8): inserting (5, 7) completes the free
        // triangle (v6, v7, v8), which joins S directly.
        let mut solver = fig5_solver();
        let out = solver.insert_edge(5, 7);
        assert!(out.applied);
        assert_eq!(out.size_delta, 1);
        assert!(solver.solution().sorted_cliques().contains(&Clique::new(&[5, 6, 7])));
        solver.validate().unwrap();
    }

    #[test]
    fn insert_between_covered_nodes_is_cheap_and_safe() {
        let mut solver = fig5_solver();
        let before = solver.len();
        let out = solver.insert_edge(3, 9); // v4 (in C1) — v10 (in C2)
        assert!(out.applied);
        assert_eq!(out.size_delta, 0);
        assert_eq!(solver.len(), before);
        solver.validate().unwrap();
    }

    #[test]
    fn growth_beyond_initial_node_range() {
        let mut solver = fig5_solver();
        // New nodes 11, 12 appear; with node 0? 0 is free... use fresh
        // nodes plus free node 6: triangle (6, 11, 12).
        solver.insert_edge(11, 12);
        solver.insert_edge(6, 11);
        let out = solver.insert_edge(6, 12);
        assert!(out.applied);
        assert!(solver.solution().sorted_cliques().contains(&Clique::new(&[6, 11, 12])));
        solver.validate().unwrap();
    }

    #[test]
    fn stats_track_update_counts() {
        let mut solver = fig5_solver();
        solver.insert_edge(4, 6);
        solver.delete_edge(4, 6);
        let st = solver.stats();
        assert_eq!(st.insertions, 1);
        assert_eq!(st.deletions, 1);
        assert!(st.cliques_added >= 2);
        assert!(st.cliques_removed >= 1);
    }

    #[test]
    fn remove_node_breaks_its_clique_and_stays_consistent() {
        let mut solver = fig5_solver();
        assert_eq!(solver.len(), 2);
        // Removing v4 (id 3) kills (v3,v4,v5); candidate (v1,v2,v3) refills.
        let removed = solver.remove_node(3);
        assert_eq!(removed, 2, "v4 has neighbours v3 and v5");
        assert_eq!(solver.len(), 2);
        assert!(solver.solution().sorted_cliques().contains(&Clique::new(&[0, 1, 2])));
        solver.validate().unwrap();
        // Removing an out-of-range node is a no-op.
        assert_eq!(solver.remove_node(999), 0);
    }

    #[test]
    fn batch_application_aggregates_outcomes() {
        let mut solver = fig5_solver();
        let out = solver.apply_batch(vec![
            EdgeUpdate::Insert(4, 6),  // the Fig. 5 swap: +1
            EdgeUpdate::Insert(4, 6),  // duplicate: skipped
            EdgeUpdate::Delete(4, 6),  // revert: -1
            EdgeUpdate::Delete(99, 5), // missing: skipped
        ]);
        assert_eq!(out.applied, 2);
        assert_eq!(out.skipped, 2);
        assert_eq!(out.size_delta, 0);
        solver.validate().unwrap();
    }

    #[test]
    fn from_scratch_is_parameterised_by_algo() {
        let g =
            CsrGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        for algo in [Algo::Hg, Algo::Gc, Algo::Lp, Algo::GreedyCg] {
            let solver = DynamicSolver::from_scratch(&g, SolveRequest::new(algo, 3)).unwrap();
            assert_eq!(solver.len(), 2, "{algo}");
            assert_eq!(solver.request().algo, algo);
            solver.validate().unwrap();
        }
        // The default bootstrap records an LP request.
        assert_eq!(DynamicSolver::new(&g, 3).unwrap().request().algo, Algo::Lp);
    }

    #[test]
    fn rebuild_replays_the_request_on_the_current_graph() {
        let mut solver = fig5_solver();
        solver.insert_edge(4, 6);
        solver.delete_edge(2, 3);
        let maintained = solver.len();
        let report = solver.rebuild().unwrap();
        assert_eq!(report.algo, Algo::Lp);
        solver.validate().unwrap();
        // The rebuild equals a from-scratch engine run on the same graph.
        let scratch = Engine::solve(&solver.graph().to_csr(), solver.request()).unwrap().solution;
        assert_eq!(solver.len(), scratch.len());
        assert_eq!(solver.solution().sorted_cliques(), scratch.sorted_cliques());
        // Table VIII's claim on this tiny instance: maintenance kept up.
        assert!(maintained as i64 - scratch.len() as i64 >= -1);
    }

    #[test]
    fn k4_dynamics() {
        // Two K4s sharing nothing; delete one edge, reinsert.
        let mut edges = Vec::new();
        for base in [0u32, 4u32] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    edges.push((base + i, base + j));
                }
            }
        }
        edges.push((3, 4));
        let g = CsrGraph::from_edges(8, edges).unwrap();
        let mut solver = DynamicSolver::new(&g, 4).unwrap();
        assert_eq!(solver.len(), 2);
        solver.delete_edge(0, 1);
        assert_eq!(solver.len(), 1);
        solver.validate().unwrap();
        solver.insert_edge(0, 1);
        assert_eq!(solver.len(), 2);
        solver.validate().unwrap();
    }
}
