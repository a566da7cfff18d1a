use crate::state::{CliqueId, SolutionState};
use dkc_clique::{for_each_kclique_in_subset, Clique};
use dkc_graph::{DynGraph, NodeId};
use dkc_par::ParConfig;
use std::collections::BTreeSet;

/// Identifier of a candidate clique inside the index (slot; reused).
pub type CandId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Candidate {
    clique: Clique,
    attached: CliqueId,
}

/// The candidate-clique index of Section V-B (Algorithm 5).
///
/// For every clique `C ∈ S`, stores the set `C(C)` of *candidate cliques*:
/// k-cliques of the current graph that (i) contain at least one free node,
/// (ii) contain at least one non-free node, and (iii) have all their
/// non-free nodes inside `C`. These are precisely the cliques that a swap
/// may trade `C` for — the "strong constraint \[that\] limits the index
/// size" (Section VI-E, Table VII).
///
/// Besides the per-clique lists, an inverted node → candidates map supports
/// the incremental repairs of Algorithms 6/7 (dropping candidates hit by an
/// edge deletion or by nodes changing free status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateIndex {
    cands: Vec<Option<Candidate>>,
    vacant: Vec<CandId>,
    by_clique: Vec<Vec<CandId>>,
    by_node: Vec<Vec<CandId>>,
    len: usize,
}

/// Result of re-deriving one clique's candidate set.
#[derive(Debug, Default)]
pub(crate) struct RebuildReport {
    /// Some candidate not present before appeared (triggers a swap attempt).
    pub has_new: bool,
    /// K-cliques found on `B` consisting *entirely* of free nodes. These
    /// indicate the solution is not maximal (they can be added outright);
    /// steady-state invariants keep this empty, but the solver handles them
    /// defensively to stay self-healing.
    pub all_free: Vec<Clique>,
}

/// What Algorithm 5 finds for one clique `C` of `S`, in enumeration
/// order: its candidates, plus any k-cliques of only free nodes.
#[derive(Debug, Default)]
struct Found {
    candidates: Vec<Clique>,
    all_free: Vec<Clique>,
}

/// Work-stealing chunks per worker in one [`CandidateIndex::build`]
/// window. A window's per-clique results are held until its insertion
/// step, so this bounds the transient memory of a build.
const WINDOW_CHUNKS_PER_WORKER: usize = 16;

/// Algorithm 5 for one clique: enumerates every k-clique on
/// `B = C ∪ N_F(C)` (the clique plus its free neighbours) and sorts those
/// mixing free and non-free nodes from those of free nodes only. Reads
/// `g` and `state` only, so cliques can be searched concurrently.
fn enumerate_for_clique(g: &DynGraph, state: &SolutionState, clique: &Clique) -> Found {
    let mut b: Vec<NodeId> = clique.as_slice().to_vec();
    for u in clique.iter() {
        b.extend(g.neighbors(u).iter().copied().filter(|&w| state.is_free(w)));
    }
    let k = clique.len();
    let mut found = Found::default();
    for_each_kclique_in_subset(g, &b, k, |members| {
        let cand = Clique::from_sorted(members);
        if cand == *clique {
            return;
        }
        if members.iter().all(|&u| state.is_free(u)) {
            found.all_free.push(cand);
        } else {
            // By construction of B, every non-free member lies in `clique`.
            debug_assert!(cand.iter().all(|u| state.is_free(u) || clique.contains(u)));
            found.candidates.push(cand);
        }
    });
    found
}

impl CandidateIndex {
    /// Builds the index from scratch — Algorithm 5 over every clique in `S`.
    ///
    /// The per-clique searches run on `par`'s workers, a bounded window of
    /// slots at a time; each window's results are inserted in slot order,
    /// so candidate ids and every list come out identical for any thread
    /// count.
    pub fn build(g: &DynGraph, state: &SolutionState, par: ParConfig) -> Self {
        let mut idx = CandidateIndex {
            cands: Vec::new(),
            vacant: Vec::new(),
            by_clique: vec![Vec::new(); state.slot_bound()],
            by_node: vec![Vec::new(); g.num_nodes()],
            len: 0,
        };
        let live: Vec<(CliqueId, &Clique)> = state.iter().collect();
        let window = par.chunk.max(1) * par.threads.max(1) * WINDOW_CHUNKS_PER_WORKER;
        for slots in live.chunks(window) {
            let found = dkc_par::par_for_each_root(
                par,
                slots.len(),
                || (),
                |_, i, out| out.push(enumerate_for_clique(g, state, slots[i].1)),
            );
            for (&(slot, _), found) in slots.iter().zip(found) {
                debug_assert!(found.all_free.is_empty(), "index built over a non-maximal solution");
                for cand in found.candidates {
                    idx.insert(cand, slot);
                }
            }
        }
        idx
    }

    /// Number of live candidate cliques — the paper's "index size".
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no candidates are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the node range.
    pub(crate) fn ensure_node(&mut self, u: NodeId) {
        if u as usize >= self.by_node.len() {
            self.by_node.resize(u as usize + 1, Vec::new());
        }
    }

    /// Grows the clique-slot range.
    pub(crate) fn ensure_slot(&mut self, slot: CliqueId) {
        if slot as usize >= self.by_clique.len() {
            self.by_clique.resize(slot as usize + 1, Vec::new());
        }
    }

    /// The live candidate cliques of `C(slot)`.
    pub fn candidates_of(&self, slot: CliqueId) -> Vec<Clique> {
        match self.by_clique.get(slot as usize) {
            None => Vec::new(),
            Some(ids) => ids
                .iter()
                .filter_map(|&id| self.cands[id as usize].as_ref().map(|c| c.clique))
                .collect(),
        }
    }

    fn insert(&mut self, clique: Clique, attached: CliqueId) {
        self.ensure_slot(attached);
        for u in clique.iter() {
            self.ensure_node(u);
        }
        let id = match self.vacant.pop() {
            Some(id) => {
                self.cands[id as usize] = Some(Candidate { clique, attached });
                id
            }
            None => {
                self.cands.push(Some(Candidate { clique, attached }));
                (self.cands.len() - 1) as CandId
            }
        };
        self.by_clique[attached as usize].push(id);
        for u in clique.iter() {
            self.by_node[u as usize].push(id);
        }
        self.len += 1;
    }

    fn drop_candidate(&mut self, id: CandId) {
        let Some(cand) = self.cands[id as usize].take() else {
            return;
        };
        retain_id(&mut self.by_clique[cand.attached as usize], id);
        for u in cand.clique.iter() {
            retain_id(&mut self.by_node[u as usize], id);
        }
        self.vacant.push(id);
        self.len -= 1;
    }

    /// Drops every candidate attached to `slot` (when its clique leaves `S`).
    pub(crate) fn drop_attached(&mut self, slot: CliqueId) {
        if (slot as usize) < self.by_clique.len() {
            let ids = std::mem::take(&mut self.by_clique[slot as usize]);
            for id in ids {
                let Some(cand) = self.cands[id as usize].take() else { continue };
                for u in cand.clique.iter() {
                    retain_id(&mut self.by_node[u as usize], id);
                }
                self.vacant.push(id);
                self.len -= 1;
            }
        }
    }

    /// Drops every candidate containing node `u` — used when `u` turns
    /// non-free, which invalidates any candidate it participated in.
    pub(crate) fn drop_containing_node(&mut self, u: NodeId) {
        if (u as usize) < self.by_node.len() {
            let ids: Vec<CandId> = self.by_node[u as usize].clone();
            for id in ids {
                self.drop_candidate(id);
            }
        }
    }

    /// Drops every candidate containing the edge `(u, v)` — used on edge
    /// deletion, which destroys those cliques (Algorithm 7, Line 6).
    pub(crate) fn drop_with_edge(&mut self, u: NodeId, v: NodeId) {
        if (u as usize) >= self.by_node.len() {
            return;
        }
        let ids: Vec<CandId> = self.by_node[u as usize].clone();
        for id in ids {
            if let Some(cand) = &self.cands[id as usize] {
                if cand.clique.contains(v) {
                    self.drop_candidate(id);
                }
            }
        }
    }

    /// Re-derives `C(slot)` from scratch (Algorithm 5 for one clique):
    /// drops the old set and stores what [`enumerate_for_clique`] finds.
    pub(crate) fn rebuild_for_clique(
        &mut self,
        g: &DynGraph,
        state: &SolutionState,
        slot: CliqueId,
    ) -> RebuildReport {
        let Some(clique) = state.clique(slot) else {
            return RebuildReport::default();
        };
        self.ensure_slot(slot);
        let old: BTreeSet<Clique> = self.by_clique[slot as usize]
            .iter()
            .filter_map(|&id| self.cands[id as usize].as_ref().map(|c| c.clique))
            .collect();
        self.drop_attached(slot);
        let found = enumerate_for_clique(g, state, clique);
        let has_new = found.candidates.iter().any(|c| !old.contains(c));
        for cand in found.candidates {
            self.insert(cand, slot);
        }
        RebuildReport { has_new, all_free: found.all_free }
    }

    /// Audits the incremental index against a from-scratch Algorithm 5 run.
    /// Returns a description of the first mismatch. Test/debug helper; the
    /// fresh index is built sequentially, the simplest reference.
    pub fn validate(&self, g: &DynGraph, state: &SolutionState) -> Result<(), String> {
        let fresh = CandidateIndex::build(g, state, ParConfig::sequential());
        if fresh.len() != self.len() {
            return Err(format!(
                "index size mismatch: incremental {} vs fresh {}",
                self.len(),
                fresh.len()
            ));
        }
        for (slot, _) in state.iter() {
            let mut mine: Vec<Clique> = self.candidates_of(slot);
            let mut theirs: Vec<Clique> = fresh.candidates_of(slot);
            mine.sort_unstable();
            theirs.sort_unstable();
            if mine != theirs {
                return Err(format!(
                    "candidate sets differ for clique slot {slot}: incremental {mine:?} vs fresh {theirs:?}"
                ));
            }
        }
        Ok(())
    }
}

fn retain_id(list: &mut Vec<CandId>, id: CandId) {
    if let Some(pos) = list.iter().position(|&x| x == id) {
        list.swap_remove(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::DynGraph;

    /// Fig. 5(a) of the paper: G1 with S = {(v3,v4,v5), (v9,v10,v11)}
    /// (0-based: {2,3,4} and {8,9,10}).
    fn fig5_g1() -> (DynGraph, SolutionState) {
        let mut g = DynGraph::new(11);
        for (a, b) in [
            (0, 1),  // v1-v2
            (0, 2),  // v1-v3
            (1, 2),  // v2-v3
            (2, 3),  // v3-v4
            (2, 4),  // v3-v5
            (3, 4),  // v4-v5
            (4, 5),  // v5-v6
            (5, 6),  // v6-v7
            (6, 7),  // v7-v8
            (7, 8),  // v8-v9
            (8, 9),  // v9-v10
            (8, 10), // v9-v11
            (9, 10), // v10-v11
        ] {
            g.insert_edge(a, b);
        }
        let mut state = SolutionState::new(3, 11);
        state.add(Clique::new(&[2, 3, 4]));
        state.add(Clique::new(&[8, 9, 10]));
        (g, state)
    }

    #[test]
    fn fig5_candidates_match_the_paper() {
        // The paper: C1 = (v3,v4,v5) has exactly one candidate (v1,v2,v3);
        // C2 = (v9,v10,v11) has none (no free neighbours complete a clique).
        let (g, state) = fig5_g1();
        let idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        assert_eq!(idx.len(), 1);
        let c1 = state.owner(2).unwrap();
        let c2 = state.owner(8).unwrap();
        assert_eq!(idx.candidates_of(c1), vec![Clique::new(&[0, 1, 2])]);
        assert!(idx.candidates_of(c2).is_empty());
    }

    #[test]
    fn inserting_edge_v5_v7_creates_the_second_candidate() {
        // Fig. 5(b): adding (v5, v7) forms candidate (v5, v6, v7) for C1.
        let (mut g, state) = fig5_g1();
        g.insert_edge(4, 6);
        let mut idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        let c1 = state.owner(2).unwrap();
        let mut cands = idx.candidates_of(c1);
        cands.sort_unstable();
        assert_eq!(cands, vec![Clique::new(&[0, 1, 2]), Clique::new(&[4, 5, 6])]);

        // Rebuild must be a no-op fixpoint.
        let report = idx.rebuild_for_clique(&g, &state, c1);
        assert!(!report.has_new);
        assert!(report.all_free.is_empty());
        idx.validate(&g, &state).unwrap();
    }

    #[test]
    fn drop_with_edge_removes_hit_candidates_only() {
        let (mut g, state) = fig5_g1();
        g.insert_edge(4, 6);
        let mut idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        assert_eq!(idx.len(), 2);
        idx.drop_with_edge(4, 6);
        assert_eq!(idx.len(), 1);
        let c1 = state.owner(2).unwrap();
        assert_eq!(idx.candidates_of(c1), vec![Clique::new(&[0, 1, 2])]);
    }

    #[test]
    fn drop_containing_node_clears_stale_candidates() {
        let (g, state) = fig5_g1();
        let mut idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        idx.drop_containing_node(1); // v2 is free and inside (v1,v2,v3)
        assert!(idx.is_empty());
    }

    #[test]
    fn drop_attached_clears_a_cliques_candidates() {
        let (g, state) = fig5_g1();
        let mut idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        let c1 = state.owner(2).unwrap();
        idx.drop_attached(c1);
        assert!(idx.is_empty());
        // Dropping again is harmless.
        idx.drop_attached(c1);
        assert!(idx.is_empty());
    }

    #[test]
    fn rebuild_reports_new_candidates() {
        let (mut g, state) = fig5_g1();
        let mut idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        let c1 = state.owner(2).unwrap();
        g.insert_edge(4, 6); // creates (v5, v6, v7)
        let report = idx.rebuild_for_clique(&g, &state, c1);
        assert!(report.has_new);
        assert!(report.all_free.is_empty());
        assert_eq!(idx.candidates_of(c1).len(), 2);
        idx.validate(&g, &state).unwrap();
    }

    /// A 240-node graph: sparse random edges plus dense planted groups,
    /// with an LP solution of k-cliques (maximal by construction).
    fn planted_graph(k: usize, seed: u64) -> (DynGraph, SolutionState) {
        let n = 240u32;
        let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |bound: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as NodeId
        };
        let mut edges = Vec::new();
        for _ in 0..500 {
            edges.push((next(n), next(n)));
        }
        for base in (0..n - 6).step_by(6) {
            for a in base..base + 6 {
                for b in a + 1..base + 6 {
                    if next(4) != 0 {
                        edges.push((a, b));
                    }
                }
            }
        }
        let csr = dkc_graph::CsrGraph::from_edges(n as usize, edges).unwrap();
        let request = dkc_core::SolveRequest::new(dkc_core::Algo::Lp, k);
        let solution = dkc_core::Engine::solve(&csr, request).unwrap().solution;
        (DynGraph::from_csr(&csr), SolutionState::from_solution(&solution, csr.num_nodes()))
    }

    #[test]
    fn build_is_identical_for_any_thread_count() {
        let configs = [
            ParConfig::new(2).with_chunk(1),
            ParConfig::new(2).with_chunk(3),
            ParConfig::new(4).with_chunk(2),
            ParConfig::new(4).with_chunk(8),
            ParConfig::new(1).with_chunk(5),
        ];
        for (k, seed) in [(3, 1), (3, 2), (4, 3)] {
            let (g, state) = planted_graph(k, seed);
            let reference = CandidateIndex::build(&g, &state, ParConfig::sequential());
            assert!(reference.len() > 20, "the graph must yield candidates: {}", reference.len());
            // Later deletions free ids and rebuilds reuse them; the ids
            // must stay in lockstep too.
            let churn = |idx: &mut CandidateIndex| {
                let mut freed = Vec::new();
                for (slot, c) in state.iter().step_by(3) {
                    let ids = idx.by_clique[slot as usize].clone();
                    if let Some(&id) = ids.first() {
                        let cand = idx.cands[id as usize].as_ref().unwrap().clique;
                        let (u, v) = (cand.as_slice()[0], cand.as_slice()[1]);
                        idx.drop_with_edge(u, v);
                    }
                    if let Some(w) =
                        g.neighbors(c.as_slice()[0]).iter().find(|&&w| state.is_free(w))
                    {
                        idx.drop_containing_node(*w);
                    }
                    freed.push(slot);
                }
                let vacant = idx.vacant.clone();
                for slot in freed {
                    idx.rebuild_for_clique(&g, &state, slot);
                }
                vacant
            };
            let mut reference_churned = reference.clone();
            let reference_vacant = churn(&mut reference_churned);
            assert!(!reference_vacant.is_empty(), "the churn must free ids");
            for par in configs {
                let mut idx = CandidateIndex::build(&g, &state, par);
                assert_eq!(idx.len(), reference.len(), "{par:?}");
                for (slot, _) in state.iter() {
                    assert_eq!(idx.candidates_of(slot), reference.candidates_of(slot), "{par:?}");
                }
                assert!(idx == reference, "ids or lists differ under {par:?}");
                assert_eq!(churn(&mut idx), reference_vacant, "freed ids under {par:?}");
                assert!(idx == reference_churned, "reused ids differ under {par:?}");
            }
        }
    }

    #[test]
    fn all_free_cliques_are_reported_not_indexed() {
        // Break maximality artificially: S holds triangle {0,1,2} while the
        // free triangle {3,4,5} sits entirely inside N_F of node 2.
        let mut g = DynGraph::new(6);
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (2, 4), (2, 5), (3, 4), (4, 5), (3, 5)] {
            g.insert_edge(a, b);
        }
        let mut state = SolutionState::new(3, 6);
        let slot = state.add(Clique::new(&[0, 1, 2]));
        let mut idx = CandidateIndex {
            cands: Vec::new(),
            vacant: Vec::new(),
            by_clique: vec![Vec::new(); state.slot_bound()],
            by_node: vec![Vec::new(); 6],
            len: 0,
        };
        let report = idx.rebuild_for_clique(&g, &state, slot);
        // {3,4,5} is all-free: surfaced in the report, never stored.
        assert_eq!(report.all_free, vec![Clique::new(&[3, 4, 5])]);
        // Mixed cliques through node 2 are genuine candidates:
        // (2,3,4), (2,3,5), (2,4,5).
        let mut cands = idx.candidates_of(slot);
        cands.sort_unstable();
        assert_eq!(
            cands,
            vec![Clique::new(&[2, 3, 4]), Clique::new(&[2, 3, 5]), Clique::new(&[2, 4, 5]),]
        );
    }
}
