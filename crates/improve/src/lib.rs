//! Anytime local-search improvement over a disjoint k-clique solution.
//!
//! The paper's pipeline (HG/GC/L/LP/OPT) is construct-only: once a pass
//! emits a set of disjoint k-cliques, quality is frozen. This crate adds a
//! deterministic, seeded, budgeted improvement engine in the
//! construct-then-improve tradition of clique local search (dogs-color's
//! swap / conflict-weighting searches). Four move families:
//!
//! 1. **Free-pool completion** — find a k-clique among currently
//!    unassigned nodes and add it as a new group.
//! 2. **Boundary swap** — exchange a group member for a free node when the
//!    swap keeps the group a k-clique *and* the freed member completes a
//!    new group in the free pool (net +1).
//! 3. **Dissolve-and-recombine** — dissolve a group whose node
//!    neighbourhood recombines into ≥ 2 disjoint new groups, then re-run
//!    completion rooted at any still-free dissolved node so maximality is
//!    preserved.
//! 4. **Conflict weighting** — nodes that repeatedly block moves are
//!    penalised and visited last in later rounds, diversifying the search.
//!
//! # The anytime contract
//!
//! [`improve`] is a pure function of `(graph, solution, seed, budget)`:
//!
//! - the result never has fewer groups than the input (`uplift ≥ 0`);
//! - the result is always a valid set of vertex-disjoint k-cliques, and a
//!   *maximal* one whenever the input was maximal (or the step budget
//!   covers one full completion pass);
//! - the move trace and final solution are **bit-identical across thread
//!   counts** — proposals are evaluated in parallel with [`dkc_par`]'s
//!   chunk-ordered collection and applied sequentially in output order;
//! - stopping early (small `steps`) simply yields fewer applied moves; the
//!   intermediate result after every applied move is itself valid.
//!
//! # Example
//!
//! ```
//! use dkc_clique::CliqueStore;
//! use dkc_graph::DynGraph;
//! use dkc_improve::{improve, ImproveConfig};
//!
//! // Two disjoint triangles; start from an empty solution.
//! let mut g = DynGraph::new(6);
//! for (a, b) in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)] {
//!     g.insert_edge(a, b);
//! }
//! let out = improve(&g, 3, &CliqueStore::new(3), &ImproveConfig::new(64, 7));
//! assert_eq!(out.cliques.len(), 2);
//! assert_eq!(out.stats.uplift, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dkc_clique::{for_each_kclique_in_subset, Clique, CliqueStore, MAX_K};
use dkc_graph::{DynGraph, NodeId};
use dkc_json::Json;
use dkc_par::{par_collect, ParConfig};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Upper bound on completion searches spent on one swap proposal, keeping
/// per-step cost bounded on dense neighbourhoods.
const SWAP_ATTEMPTS: usize = 16;

/// Budget and determinism knobs for one [`improve`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImproveConfig {
    /// Maximum number of move proposals to evaluate (`moves_tried` cap).
    pub steps: u64,
    /// Seed for the round-order shuffle; same seed ⇒ same move sequence.
    pub seed: u64,
    /// Thread configuration for parallel proposal evaluation. The result
    /// is identical for every thread count.
    pub par: ParConfig,
}

impl ImproveConfig {
    /// A config with the given step budget and seed, sequential threads.
    pub fn new(steps: u64, seed: u64) -> Self {
        ImproveConfig { steps, seed, par: ParConfig::sequential() }
    }

    /// Replaces the thread configuration.
    #[must_use]
    pub fn with_par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }
}

/// Counters describing one improvement run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImproveStats {
    /// Move proposals evaluated (bounded by `ImproveConfig::steps`).
    pub moves_tried: u64,
    /// Proposals that survived revalidation and were applied.
    pub moves_applied: u64,
    /// Net growth in |S|: final group count minus initial group count.
    pub uplift: u64,
}

impl ImproveStats {
    /// Renders the counters as a JSON object.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("moves_tried".into(), Json::u64(self.moves_tried)),
            ("moves_applied".into(), Json::u64(self.moves_applied)),
            ("uplift".into(), Json::u64(self.uplift)),
        ])
    }

    /// Parses counters rendered by [`to_json_value`](Self::to_json_value).
    pub fn from_json_value(v: &Json) -> Result<ImproveStats, String> {
        let get = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing improve stats field {name:?}"))
        };
        Ok(ImproveStats {
            moves_tried: get("moves_tried")?,
            moves_applied: get("moves_applied")?,
            uplift: get("uplift")?,
        })
    }
}

/// Which move family produced a trace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Free-pool completion: a new group from unassigned nodes.
    Complete,
    /// Boundary swap plus the completion it enabled.
    Swap,
    /// Dissolve-and-recombine (including maximality repair completions).
    Dissolve,
}

/// One applied move: the groups it removed and the groups it added.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveRecord {
    /// The move family.
    pub kind: MoveKind,
    /// Groups removed from the solution (empty for completions).
    pub removed: Vec<Clique>,
    /// Groups added to the solution.
    pub added: Vec<Clique>,
}

/// Result of an [`improve`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImproveOutcome {
    /// The improved solution, sorted ascending (canonical order).
    pub cliques: Vec<Clique>,
    /// Run counters.
    pub stats: ImproveStats,
    /// Every applied move, in application order.
    pub trace: Vec<MoveRecord>,
}

/// Runs budgeted local-search improvement over the clique arena on `g`.
///
/// See the crate docs for the move taxonomy and the anytime contract. The
/// input must be a set of vertex-disjoint k-cliques of `g` (the solver's
/// `verify` invariant); `k` must be in `2..=MAX_K` and match the arena's
/// stride.
///
/// # Panics
/// Panics when `k` is out of range or the input is not a valid disjoint
/// k-clique set.
pub fn improve(
    g: &DynGraph,
    k: usize,
    cliques: &CliqueStore,
    cfg: &ImproveConfig,
) -> ImproveOutcome {
    assert!((2..=MAX_K).contains(&k), "improve: k = {k} out of range");
    assert_eq!(cliques.k(), k, "improve: arena stride {} != k = {k}", cliques.k());
    let n = g.num_nodes();
    let mut st = SearchState::new(g, k, cliques, n);
    let initial = cliques.len() as u64;
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut stats = ImproveStats::default();
    let mut trace = Vec::new();

    loop {
        let before = stats.moves_applied;
        phase_complete(g, k, cfg, &mut st, &mut rng, &mut stats, &mut trace);
        phase_swap(g, k, cfg, &mut st, &mut rng, &mut stats, &mut trace);
        phase_dissolve(g, k, cfg, &mut st, &mut rng, &mut stats, &mut trace);
        if stats.moves_tried >= cfg.steps || stats.moves_applied == before {
            break;
        }
    }

    let mut out: Vec<Clique> = st.slots.into_iter().flatten().collect();
    out.sort_unstable();
    stats.uplift = out.len() as u64 - initial;
    ImproveOutcome { cliques: out, stats, trace }
}

/// Mutable search state: group slots, free mask, conflict weights.
struct SearchState {
    /// Group slots; `None` marks a dissolved slot.
    slots: Vec<Option<Clique>>,
    /// `free[u]` ⇔ node `u` belongs to no group.
    free: Vec<bool>,
    /// Conflict weights: bumped when a node blocks a move.
    weights: Vec<u64>,
}

impl SearchState {
    fn new(g: &DynGraph, k: usize, cliques: &CliqueStore, n: usize) -> Self {
        let mut free = vec![true; n];
        for members in cliques.iter() {
            assert_eq!(members.len(), k, "improve: input clique has wrong size");
            assert!(g.is_clique(members), "improve: input clique is not a clique of g");
            for &u in members {
                assert!(free[u as usize], "improve: input cliques are not disjoint");
                free[u as usize] = false;
            }
        }
        SearchState { slots: cliques.iter_cliques().map(Some).collect(), free, weights: vec![0; n] }
    }

    fn assign(&mut self, c: &Clique) {
        for u in c.iter() {
            debug_assert!(self.free[u as usize]);
            self.free[u as usize] = false;
        }
        self.slots.push(Some(*c));
    }

    fn bump(&mut self, u: NodeId) {
        self.weights[u as usize] += 1;
    }

    /// Proposals evaluated this phase, truncated to the remaining budget.
    fn take_budget(&self, cfg: &ImproveConfig, stats: &ImproveStats, want: usize) -> usize {
        let remaining = cfg.steps.saturating_sub(stats.moves_tried);
        want.min(usize::try_from(remaining).unwrap_or(usize::MAX))
    }

    /// Seeded tiebreak + conflict-weight priority: shuffle, then stable
    /// sort ascending by weight so repeatedly-blocking items go last.
    fn order_by_weight<T: Copy>(
        &self,
        items: &mut [T],
        rng: &mut SmallRng,
        weight: impl Fn(T) -> u64,
    ) {
        items.shuffle(rng);
        items.sort_by_key(|&it| weight(it));
    }
}

/// Finds any k-clique containing `root` whose other members all satisfy
/// `usable`, choosing members in ascending node order (so the first — and
/// returned — solution is deterministic). Early-exits on the first hit.
fn find_completion(
    g: &DynGraph,
    usable: &dyn Fn(NodeId) -> bool,
    root: NodeId,
    k: usize,
) -> Option<Clique> {
    let cand: Vec<NodeId> = g.neighbors(root).iter().copied().filter(|&v| usable(v)).collect();
    let mut chosen = Vec::with_capacity(k);
    chosen.push(root);
    if extend_completion(g, &mut chosen, &cand, k) {
        chosen.sort_unstable();
        Some(Clique::new(&chosen))
    } else {
        None
    }
}

fn extend_completion(g: &DynGraph, chosen: &mut Vec<NodeId>, cand: &[NodeId], k: usize) -> bool {
    if chosen.len() == k {
        return true;
    }
    if chosen.len() + cand.len() < k {
        return false;
    }
    for (i, &c) in cand.iter().enumerate() {
        // Members are picked in ascending candidate order, so restricting
        // the recursion to later candidates is exhaustive and duplicate-free.
        let next: Vec<NodeId> =
            cand[i + 1..].iter().copied().filter(|&v| g.has_edge(c, v)).collect();
        chosen.push(c);
        if extend_completion(g, chosen, &next, k) {
            return true;
        }
        chosen.pop();
    }
    false
}

/// Phase A: free-pool completion rooted at each free node.
fn phase_complete(
    g: &DynGraph,
    k: usize,
    cfg: &ImproveConfig,
    st: &mut SearchState,
    rng: &mut SmallRng,
    stats: &mut ImproveStats,
    trace: &mut Vec<MoveRecord>,
) {
    let mut roots: Vec<NodeId> = (0..g.num_nodes() as NodeId)
        .filter(|&u| st.free[u as usize] && g.degree(u) >= k - 1)
        .collect();
    st.order_by_weight(&mut roots, rng, |u| st.weights[u as usize]);
    roots.truncate(st.take_budget(cfg, stats, roots.len()));
    if roots.is_empty() {
        return;
    }
    let free = &st.free;
    let usable = |v: NodeId| free[v as usize];
    let proposals: Vec<Option<Clique>> = par_collect(
        cfg.par,
        roots.len(),
        || (),
        |_, range, out| {
            for i in range {
                out.push(find_completion(g, &usable, roots[i], k));
            }
        },
    );
    stats.moves_tried += roots.len() as u64;
    for c in proposals.into_iter().flatten() {
        let blocked: Vec<NodeId> = c.iter().filter(|&u| !st.free[u as usize]).collect();
        if blocked.is_empty() {
            st.assign(&c);
            stats.moves_applied += 1;
            trace.push(MoveRecord { kind: MoveKind::Complete, removed: vec![], added: vec![c] });
        } else {
            for u in blocked {
                st.bump(u);
            }
        }
    }
}

/// A boundary-swap proposal: swap `out_v` (member of slot `slot`) for free
/// node `in_w`, then complete a new group `completion` rooted at `out_v`.
struct SwapProposal {
    slot: usize,
    expect: Clique,
    out_v: NodeId,
    in_w: NodeId,
    completion: Clique,
}

/// Phase B: boundary swap — net +1 per applied proposal.
fn phase_swap(
    g: &DynGraph,
    k: usize,
    cfg: &ImproveConfig,
    st: &mut SearchState,
    rng: &mut SmallRng,
    stats: &mut ImproveStats,
    trace: &mut Vec<MoveRecord>,
) {
    let mut slots: Vec<usize> = (0..st.slots.len()).filter(|&i| st.slots[i].is_some()).collect();
    st.order_by_weight(&mut slots, rng, |i| {
        st.slots[i].as_ref().map_or(0, |c| c.iter().map(|u| st.weights[u as usize]).sum())
    });
    slots.truncate(st.take_budget(cfg, stats, slots.len()));
    if slots.is_empty() {
        return;
    }
    let free = &st.free;
    let groups = &st.slots;
    let proposals: Vec<Option<SwapProposal>> = par_collect(
        cfg.par,
        slots.len(),
        || (),
        |_, range, out| {
            for i in range {
                out.push(propose_swap(g, k, groups, free, slots[i]));
            }
        },
    );
    stats.moves_tried += slots.len() as u64;
    for p in proposals.into_iter().flatten() {
        if !revalidate_swap(st, &p) {
            let blocked: Vec<NodeId> = std::iter::once(p.in_w)
                .chain(p.completion.iter().filter(|&u| u != p.out_v))
                .filter(|&u| !st.free[u as usize])
                .collect();
            for u in blocked {
                st.bump(u);
            }
            continue;
        }
        let mut swapped: Vec<NodeId> =
            p.expect.iter().filter(|&u| u != p.out_v).chain(std::iter::once(p.in_w)).collect();
        swapped.sort_unstable();
        let swapped = Clique::new(&swapped);
        st.slots[p.slot] = Some(swapped);
        st.free[p.in_w as usize] = false;
        st.free[p.out_v as usize] = true;
        st.assign(&p.completion);
        stats.moves_applied += 1;
        trace.push(MoveRecord {
            kind: MoveKind::Swap,
            removed: vec![p.expect],
            added: vec![swapped, p.completion],
        });
    }
}

/// First (ascending `(v, w)` order) profitable swap for slot `slot`, or
/// `None`. Pure: reads only the shared pre-phase state.
fn propose_swap(
    g: &DynGraph,
    k: usize,
    groups: &[Option<Clique>],
    free: &[bool],
    slot: usize,
) -> Option<SwapProposal> {
    let expect = groups[slot]?;
    let mut attempts = 0usize;
    for out_v in expect.iter() {
        let keep: Vec<NodeId> = expect.iter().filter(|&u| u != out_v).collect();
        // Free nodes adjacent to every kept member can replace `out_v`.
        let mut cands: Vec<NodeId> =
            g.neighbors(keep[0]).iter().copied().filter(|&w| free[w as usize]).collect();
        for &m in &keep[1..] {
            cands.retain(|&w| g.has_edge(m, w));
        }
        for &in_w in &cands {
            if attempts >= SWAP_ATTEMPTS {
                return None;
            }
            attempts += 1;
            // After the swap, `in_w` is assigned and `out_v` is free.
            let usable = |x: NodeId| x != in_w && free[x as usize];
            if let Some(completion) = find_completion(g, &usable, out_v, k) {
                return Some(SwapProposal { slot, expect, out_v, in_w, completion });
            }
        }
    }
    None
}

fn revalidate_swap(st: &SearchState, p: &SwapProposal) -> bool {
    st.slots[p.slot] == Some(p.expect)
        && st.free[p.in_w as usize]
        && p.completion.iter().all(|u| u == p.out_v || st.free[u as usize])
}

/// A dissolve proposal: replace slot `slot` with ≥ 2 recombined groups.
struct DissolveProposal {
    slot: usize,
    expect: Clique,
    picked: Vec<Clique>,
}

/// Phase C: dissolve-and-recombine with maximality repair.
fn phase_dissolve(
    g: &DynGraph,
    k: usize,
    cfg: &ImproveConfig,
    st: &mut SearchState,
    rng: &mut SmallRng,
    stats: &mut ImproveStats,
    trace: &mut Vec<MoveRecord>,
) {
    let mut slots: Vec<usize> = (0..st.slots.len()).filter(|&i| st.slots[i].is_some()).collect();
    st.order_by_weight(&mut slots, rng, |i| {
        st.slots[i].as_ref().map_or(0, |c| c.iter().map(|u| st.weights[u as usize]).sum())
    });
    slots.truncate(st.take_budget(cfg, stats, slots.len()));
    if slots.is_empty() {
        return;
    }
    let free = &st.free;
    let groups = &st.slots;
    let proposals: Vec<(usize, Option<DissolveProposal>)> = par_collect(
        cfg.par,
        slots.len(),
        || (),
        |_, range, out| {
            for i in range {
                out.push((slots[i], propose_dissolve(g, k, groups, free, slots[i])));
            }
        },
    );
    stats.moves_tried += slots.len() as u64;
    for (slot, p) in proposals {
        let Some(p) = p else {
            // No recombination found: penalise the group to diversify.
            let members: Vec<NodeId> =
                st.slots[slot].map(|c| c.iter().collect()).unwrap_or_default();
            for u in members {
                st.bump(u);
            }
            continue;
        };
        if !revalidate_dissolve(st, &p) {
            let blocked: Vec<NodeId> = p
                .picked
                .iter()
                .flat_map(|c| c.iter())
                .filter(|&u| !p.expect.contains(u) && !st.free[u as usize])
                .collect();
            for u in blocked {
                st.bump(u);
            }
            continue;
        }
        st.slots[p.slot] = None;
        for u in p.expect.iter() {
            st.free[u as usize] = true;
        }
        let mut added = Vec::with_capacity(p.picked.len());
        for c in &p.picked {
            st.assign(c);
            added.push(*c);
        }
        // Maximality repair: a new free k-clique must contain a node the
        // dissolve just freed, so rooted completions there restore it.
        for x in p.expect.iter() {
            while st.free[x as usize] {
                let free = &st.free;
                let usable = |v: NodeId| free[v as usize];
                match find_completion(g, &usable, x, k) {
                    Some(c) => {
                        st.assign(&c);
                        added.push(c);
                    }
                    None => break,
                }
            }
        }
        stats.moves_applied += 1;
        trace.push(MoveRecord { kind: MoveKind::Dissolve, removed: vec![p.expect], added });
    }
}

/// Greedy lexicographic recombination of slot `slot`'s neighbourhood; a
/// proposal only when ≥ 2 disjoint groups come back. Pure.
fn propose_dissolve(
    g: &DynGraph,
    k: usize,
    groups: &[Option<Clique>],
    free: &[bool],
    slot: usize,
) -> Option<DissolveProposal> {
    let expect = groups[slot]?;
    let mut subset: Vec<NodeId> = expect.iter().collect();
    for u in expect.iter() {
        subset.extend(g.neighbors(u).iter().copied().filter(|&v| free[v as usize]));
    }
    let mut cliques = Vec::new();
    for_each_kclique_in_subset(g, &subset, k, |c| cliques.push(Clique::from_sorted(c)));
    cliques.sort_unstable();
    let mut picked: Vec<Clique> = Vec::new();
    for c in cliques {
        // Re-picking the dissolved group itself never helps: any clique
        // disjoint from it would be all-free and the completion phase has
        // already exhausted those.
        if c != expect && picked.iter().all(|p| p.is_disjoint(&c)) {
            picked.push(c);
        }
    }
    if picked.len() >= 2 {
        Some(DissolveProposal { slot, expect, picked })
    } else {
        None
    }
}

fn revalidate_dissolve(st: &SearchState, p: &DissolveProposal) -> bool {
    st.slots[p.slot] == Some(p.expect)
        && p.picked.iter().all(|c| c.iter().all(|u| p.expect.contains(u) || st.free[u as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Fig. 2 graph (9 nodes, 15 edges) as a DynGraph.
    fn fig2() -> DynGraph {
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

    fn validate(g: &DynGraph, k: usize, cliques: &[Clique]) {
        let mut seen = vec![false; g.num_nodes()];
        for c in cliques {
            assert_eq!(c.len(), k);
            assert!(g.is_clique(c.as_slice()));
            for u in c.iter() {
                assert!(!seen[u as usize], "node {u} reused");
                seen[u as usize] = true;
            }
        }
    }

    /// Packs test fixtures (plain `Clique` slices) into the arena the
    /// public API takes.
    fn store(k: usize, cliques: &[Clique]) -> CliqueStore {
        CliqueStore::from_cliques(k, cliques)
    }

    #[test]
    fn empty_start_reaches_optimum_on_fig2() {
        let g = fig2();
        let out = improve(&g, 3, &store(3, &[]), &ImproveConfig::new(256, 1));
        validate(&g, 3, &out.cliques);
        // Fig. 2 admits 3 disjoint triangles, e.g. {0,2,5},{4,6,7},{1,3,8}.
        assert_eq!(out.cliques.len(), 3);
        assert_eq!(out.stats.uplift, 3);
        assert!(out.stats.moves_applied >= 3);
    }

    #[test]
    fn never_decreases_and_stats_roundtrip() {
        let g = fig2();
        let start = [Clique::new(&[4, 5, 7])];
        let out = improve(&g, 3, &store(3, &start), &ImproveConfig::new(128, 3));
        validate(&g, 3, &out.cliques);
        assert!(out.cliques.len() >= start.len());
        let parsed = ImproveStats::from_json_value(&out.stats.to_json_value()).unwrap();
        assert_eq!(parsed, out.stats);
    }

    #[test]
    fn dissolve_recombines_blocking_group() {
        // Group {2,3,8} takes one node from each of three otherwise-free
        // triangles {0,1,2}, {3,4,5}, {6,7,8}. No completion exists in the
        // free pool and no single swap helps (no free node is adjacent to
        // two group members), so only dissolve-and-recombine reaches 3.
        let mut g = DynGraph::new(9);
        for (a, b) in [
            (0, 1),
            (0, 2),
            (1, 2),
            (3, 4),
            (3, 5),
            (4, 5),
            (6, 7),
            (6, 8),
            (7, 8),
            (2, 3),
            (2, 8),
            (3, 8),
        ] {
            g.insert_edge(a, b);
        }
        let start = [Clique::new(&[2, 3, 8])];
        let out = improve(&g, 3, &store(3, &start), &ImproveConfig::new(64, 9));
        validate(&g, 3, &out.cliques);
        assert_eq!(out.cliques.len(), 3);
        assert!(out.trace.iter().any(|m| m.kind == MoveKind::Dissolve));
    }

    #[test]
    fn zero_budget_is_identity() {
        let g = fig2();
        let start = [Clique::new(&[4, 5, 7])];
        let out = improve(&g, 3, &store(3, &start), &ImproveConfig::new(0, 5));
        assert_eq!(out.cliques, start.to_vec());
        assert_eq!(out.stats, ImproveStats::default());
        assert!(out.trace.is_empty());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = fig2();
        let start = [Clique::new(&[4, 5, 7])];
        let base = improve(&g, 3, &store(3, &start), &ImproveConfig::new(200, 11));
        for threads in [2, 8] {
            let cfg = ImproveConfig::new(200, 11).with_par(ParConfig::new(threads).with_chunk(1));
            let out = improve(&g, 3, &store(3, &start), &cfg);
            assert_eq!(out, base, "threads = {threads}");
        }
    }

    #[test]
    fn seed_changes_are_still_valid() {
        let g = fig2();
        for seed in 0..8 {
            let out = improve(&g, 3, &store(3, &[]), &ImproveConfig::new(100, seed));
            validate(&g, 3, &out.cliques);
            assert_eq!(out.cliques.len(), 3, "seed = {seed}");
        }
    }

    #[test]
    fn budget_truncates_moves_tried() {
        let g = fig2();
        let out = improve(&g, 3, &store(3, &[]), &ImproveConfig::new(2, 1));
        assert!(out.stats.moves_tried <= 2);
        validate(&g, 3, &out.cliques);
    }
}
