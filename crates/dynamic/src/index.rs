use crate::state::{CliqueId, SolutionState};
use dkc_clique::{for_each_kclique_in_subset, Clique, MAX_K};
use dkc_graph::{DynGraph, NodeId};
use dkc_par::ParConfig;

/// Identifier of a candidate clique inside the index: its slot (reused
/// after a drop). Ids depend on the index's history; no solver decision
/// reads them.
pub type CandId = u32;

/// End of a list, an empty list's head, and a vacant slot's leader.
const NIL: u32 = u32::MAX;

/// List elements are *entries* `s << POS_BITS | i`: member position `i`
/// of slot `s` (position 0 for a slot's place in its leader's list).
const POS_BITS: u32 = 4;
const _: () = assert!(MAX_K <= 1 << POS_BITS);

/// The entry of member position `i` of slot `s`.
fn entry(s: CandId, i: usize) -> u32 {
    s << POS_BITS | i as u32
}

/// The slot an entry belongs to.
fn slot_of(e: u32) -> CandId {
    e >> POS_BITS
}

/// The member position of an entry.
fn position(e: u32) -> usize {
    (e & ((1 << POS_BITS) - 1)) as usize
}

/// Slots per page of the per-slot arrays.
const PAGE_SLOTS: usize = 1 << 10;

/// A built index allocates room for `1 / SPARE_DIVISOR` more slots than it
/// fills. The inserts of later updates then reuse memory allocated (and
/// paged in) by the build, instead of allocating on the write path, until
/// the index has grown by that share.
const SPARE_DIVISOR: usize = 8;

/// `per` values per slot, in pages of [`PAGE_SLOTS`] slots. A page is
/// allocated once and never moved, so a growing index adds pages but never
/// copies, frees or over-allocates the rows already stored (a doubling
/// `Vec` would copy megabytes on the update that crosses its capacity, and
/// keep up to half of itself unused).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Paged<T> {
    per: usize,
    pages: Vec<Box<[T]>>,
}

impl<T: Copy> Paged<T> {
    fn new(per: usize) -> Self {
        Paged { per, pages: Vec::new() }
    }

    /// Slots with room allocated.
    fn capacity(&self) -> usize {
        self.pages.len() * PAGE_SLOTS
    }

    /// Allocates room for slot `s`, filling new pages with `fill`.
    fn reserve_slot(&mut self, s: CandId, fill: T) {
        while s as usize >= self.capacity() {
            self.pages.push(vec![fill; PAGE_SLOTS * self.per].into_boxed_slice());
        }
    }

    /// The `per` values of slot `s`.
    fn row(&self, s: CandId) -> &[T] {
        let at = s as usize % PAGE_SLOTS * self.per;
        &self.pages[s as usize / PAGE_SLOTS][at..at + self.per]
    }

    fn row_mut(&mut self, s: CandId) -> &mut [T] {
        let at = s as usize % PAGE_SLOTS * self.per;
        &mut self.pages[s as usize / PAGE_SLOTS][at..at + self.per]
    }

    /// The value of entry `e`.
    fn at(&self, e: u32) -> T {
        self.row(slot_of(e))[position(e)]
    }

    fn at_mut(&mut self, e: u32) -> &mut T {
        &mut self.row_mut(slot_of(e))[position(e)]
    }
}

/// One entry's place in its doubly-linked list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link { prev: NIL, next: NIL };

/// A family of intrusive doubly-linked lists over entries: list `l` starts
/// at `head[l]` and follows `next`. Each entry sits in at most one list,
/// and its owner knows which.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lists {
    head: Vec<u32>,
    link: Paged<Link>,
}

impl Lists {
    /// `lists` empty lists over entries with positions `0..per`.
    fn new(lists: usize, per: usize) -> Self {
        Lists { head: vec![NIL; lists], link: Paged::new(per) }
    }

    /// The first entry of list `l` (`NIL` when empty or out of range).
    fn first(&self, l: u32) -> u32 {
        self.head.get(l as usize).copied().unwrap_or(NIL)
    }

    /// The entries of list `l`, front to back.
    fn iter(&self, l: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(self.first(l)).filter(|&e| e != NIL), move |&e| {
            Some(self.link.at(e).next).filter(|&n| n != NIL)
        })
    }

    /// Makes `e` the first entry of list `l`.
    fn push_front(&mut self, l: u32, e: u32) {
        let old = self.head[l as usize];
        *self.link.at_mut(e) = Link { prev: NIL, next: old };
        if old != NIL {
            self.link.at_mut(old).prev = e;
        }
        self.head[l as usize] = e;
    }

    /// Takes `e` out of list `l`, which holds it.
    fn unlink(&mut self, l: u32, e: u32) {
        let Link { prev, next } = self.link.at(e);
        if prev == NIL {
            self.head[l as usize] = next;
        } else {
            self.link.at_mut(prev).next = next;
        }
        if next != NIL {
            self.link.at_mut(next).prev = prev;
        }
    }

    /// Walks list `l`, checking that every `prev` names the entry before
    /// it, and hands each entry to `visit`, which must check that the
    /// entry is in range and not seen before (this also ends a cycle).
    fn audit(
        &self,
        l: u32,
        mut visit: impl FnMut(u32) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut prev = NIL;
        let mut e = self.first(l);
        while e != NIL {
            visit(e)?;
            let link = self.link.at(e);
            if link.prev != prev {
                return Err(format!(
                    "list {l}: entry {e} has prev {} but follows {prev}",
                    link.prev
                ));
            }
            prev = e;
            e = link.next;
        }
        Ok(())
    }
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
/// Besides the per-clique lists, per-node lists support the incremental
/// repairs of Algorithms 6/7 (dropping candidates hit by an edge deletion
/// or by nodes changing free status).
///
/// # Layout
///
/// Each candidate lives in a numbered **slot**. Slot `s` keeps:
///
/// * its `k` members, ascending (a stride-k `u32` arena, the `CliqueStore`
///   idiom, stored in fixed pages of 1024 slots);
/// * the leader of the clique of `S` it is attached to (`NIL` while the
///   slot is vacant; vacant slots wait on a free list for reuse);
/// * a `prev`/`next` link in its leader's list;
/// * one `prev`/`next` link per member position `i`, in member `i`'s node
///   list.
///
/// Both kinds of list are intrusive and doubly linked, headed by one `u32`
/// per node, so inserting or dropping a candidate touches `k + 1` lists in
/// O(1) each. Per candidate that is `4k + 4 + 8 + 8k = 12k + 12` bytes
/// (48 B at k = 3, 60 B at k = 4), plus 8 B per node for the two heads.
/// A build leaves an eighth of its slots spare for later inserts. On DS@1
/// at k = 3 (260k nodes, 197,770 candidates) the index holds 12.2 MiB of
/// live heap.
///
/// List order follows insertion and drops, so it depends on the index's
/// history, as slot numbers do. No solver decision reads either: every
/// choice among candidates sorts them or compares them as sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateIndex {
    k: usize,
    /// Slot `s`'s sorted members.
    members: Paged<NodeId>,
    /// The leader each slot is attached to; `NIL` for a vacant slot.
    leader: Paged<CliqueId>,
    /// Slots ever used: `0..slots` are live or vacant.
    slots: usize,
    vacant: Vec<CandId>,
    /// Slots (entries at position 0), one list per leader.
    by_leader: Lists,
    /// Member entries, one list per node.
    by_node: Lists,
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
/// order: its candidates as stride-k rows, plus any k-cliques of only
/// free nodes.
#[derive(Debug, Default)]
struct Found {
    candidates: Vec<NodeId>,
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
fn enumerate_for_clique(g: &DynGraph, state: &SolutionState, clique: &[NodeId]) -> Found {
    let mut b: Vec<NodeId> = clique.to_vec();
    for &u in clique {
        b.extend(g.neighbors(u).iter().copied().filter(|&w| state.is_free(w)));
    }
    let mut found = Found::default();
    for_each_kclique_in_subset(g, &b, clique.len(), |members| {
        if members == clique {
            return;
        }
        if members.iter().all(|&u| state.is_free(u)) {
            found.all_free.push(Clique::from_sorted(members));
        } else {
            // By construction of B, every non-free member lies in `clique`.
            debug_assert!(members.iter().all(|&u| state.is_free(u) || clique.contains(&u)));
            found.candidates.extend_from_slice(members);
        }
    });
    found
}

impl CandidateIndex {
    /// An empty index of `k`-cliques over `num_nodes` nodes.
    fn empty(k: usize, num_nodes: usize) -> Self {
        CandidateIndex {
            k,
            members: Paged::new(k),
            leader: Paged::new(1),
            slots: 0,
            vacant: Vec::new(),
            by_leader: Lists::new(num_nodes, 1),
            by_node: Lists::new(num_nodes, k),
            len: 0,
        }
    }

    /// Builds the index from scratch — Algorithm 5 over every clique in `S`.
    ///
    /// The per-clique searches run on `par`'s workers, a bounded window of
    /// cliques at a time; each window's results are inserted in leader
    /// order, so slots and every list come out identical for any thread
    /// count.
    pub fn build(g: &DynGraph, state: &SolutionState, par: ParConfig) -> Self {
        let mut idx = CandidateIndex::empty(state.k(), g.num_nodes());
        let live: Vec<&[NodeId]> = state.iter().collect();
        let window = par.chunk.max(1) * par.threads.max(1) * WINDOW_CHUNKS_PER_WORKER;
        for cliques in live.chunks(window) {
            let found = dkc_par::par_for_each_root(
                par,
                cliques.len(),
                || (),
                |_, i, out| out.push(enumerate_for_clique(g, state, cliques[i])),
            );
            for (clique, found) in cliques.iter().zip(found) {
                debug_assert!(found.all_free.is_empty(), "index built over a non-maximal solution");
                for row in found.candidates.chunks_exact(idx.k) {
                    idx.insert(row, clique[0]);
                }
            }
        }
        idx.reserve_slots(idx.slots + idx.slots / SPARE_DIVISOR);
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

    /// Grows the node range (both list heads are node-indexed).
    pub(crate) fn ensure_node(&mut self, u: NodeId) {
        if u as usize >= self.by_node.head.len() {
            self.by_node.head.resize(u as usize + 1, NIL);
            self.by_leader.head.resize(u as usize + 1, NIL);
        }
    }

    /// Allocates room for slots `0..n` in every per-slot array.
    fn reserve_slots(&mut self, n: usize) {
        let Some(last) = n.checked_sub(1) else { return };
        let last = last as CandId;
        self.members.reserve_slot(last, NIL);
        self.leader.reserve_slot(last, NIL);
        self.by_leader.link.reserve_slot(last, UNLINKED);
        self.by_node.link.reserve_slot(last, UNLINKED);
    }

    /// The leader slot `s` is attached to (`NIL` when vacant).
    fn leader_of(&self, s: CandId) -> CliqueId {
        self.leader.row(s)[0]
    }

    /// The slots attached to the clique led by `leader`.
    fn slots_of(&self, leader: CliqueId) -> impl Iterator<Item = CandId> + '_ {
        self.by_leader.iter(leader).map(slot_of)
    }

    /// The live candidate cliques of `C(C)` for the clique `C` led by
    /// `leader`, in no particular order.
    pub fn candidates_of(&self, leader: CliqueId) -> Vec<Clique> {
        self.slots_of(leader).map(|s| Clique::from_sorted(self.members.row(s))).collect()
    }

    /// Stores the sorted `row` as a candidate of the clique led by `leader`.
    fn insert(&mut self, row: &[NodeId], leader: CliqueId) {
        debug_assert_eq!(row.len(), self.k);
        // Rows are sorted and one member lies in the attached clique, whose
        // smallest member is `leader`: the last member bounds both heads.
        let last = row[row.len() - 1];
        self.ensure_node(last);
        debug_assert!(leader <= last);
        let s = match self.vacant.pop() {
            Some(s) => s,
            None => {
                let s = self.slots as CandId;
                // Entries of every slot stay below `NIL`.
                assert!(s < NIL >> POS_BITS, "candidate index is full");
                self.slots += 1;
                self.reserve_slots(self.slots);
                s
            }
        };
        self.members.row_mut(s).copy_from_slice(row);
        self.leader.row_mut(s)[0] = leader;
        self.by_leader.push_front(leader, entry(s, 0));
        for (i, &u) in row.iter().enumerate() {
            self.by_node.push_front(u, entry(s, i));
        }
        self.len += 1;
    }

    /// Drops the live candidate in slot `s` and frees the slot.
    fn drop_slot(&mut self, s: CandId) {
        let leader = std::mem::replace(&mut self.leader.row_mut(s)[0], NIL);
        debug_assert_ne!(leader, NIL, "slot {s} is already vacant");
        self.by_leader.unlink(leader, entry(s, 0));
        for i in 0..self.k {
            self.by_node.unlink(self.members.row(s)[i], entry(s, i));
        }
        self.vacant.push(s);
        self.len -= 1;
    }

    /// Drops every candidate attached to the clique led by `leader` (when
    /// that clique leaves `S`).
    pub(crate) fn drop_attached(&mut self, leader: CliqueId) {
        loop {
            let e = self.by_leader.first(leader);
            if e == NIL {
                return;
            }
            self.drop_slot(slot_of(e));
        }
    }

    /// Drops every candidate containing node `u` — used when `u` turns
    /// non-free, which invalidates any candidate it participated in.
    pub(crate) fn drop_containing_node(&mut self, u: NodeId) {
        loop {
            let e = self.by_node.first(u);
            if e == NIL {
                return;
            }
            self.drop_slot(slot_of(e));
        }
    }

    /// Drops every candidate containing the edge `(u, v)` — used on edge
    /// deletion, which destroys those cliques (Algorithm 7, Line 6).
    pub(crate) fn drop_with_edge(&mut self, u: NodeId, v: NodeId) {
        let mut e = self.by_node.first(u);
        while e != NIL {
            // Dropping a slot unlinks only its own entries; `u` sits at one
            // position of it, so the next entry of `u`'s list survives.
            let next = self.by_node.link.at(e).next;
            let s = slot_of(e);
            if self.members.row(s).contains(&v) {
                self.drop_slot(s);
            }
            e = next;
        }
    }

    /// Re-derives `C(C)` for the clique led by `leader` from scratch
    /// (Algorithm 5 for one clique): drops the old set and stores what
    /// [`enumerate_for_clique`] finds.
    pub(crate) fn rebuild_for_clique(
        &mut self,
        g: &DynGraph,
        state: &SolutionState,
        leader: CliqueId,
    ) -> RebuildReport {
        let Some(clique) = state.clique(leader) else {
            return RebuildReport::default();
        };
        let found = enumerate_for_clique(g, state, clique);
        let mut old: Vec<&[NodeId]> = self.slots_of(leader).map(|s| self.members.row(s)).collect();
        old.sort_unstable();
        let has_new =
            found.candidates.chunks_exact(self.k).any(|row| old.binary_search(&row).is_err());
        self.drop_attached(leader);
        for row in found.candidates.chunks_exact(self.k) {
            self.insert(row, leader);
        }
        RebuildReport { has_new, all_free: found.all_free }
    }

    /// Checks the flat layout itself: every live slot is reached exactly
    /// once from its leader's list and, at each member position, from that
    /// member's node list; no list reaches a vacant slot; `prev` and
    /// `next` agree; the free list holds exactly the vacant slots; and
    /// `len` counts the live ones.
    fn audit(&self) -> Result<(), String> {
        let (k, slots) = (self.k, self.slots);
        let nodes = self.by_node.head.len();
        let pages = self.members.pages.len();
        let page_counts = [
            self.leader.pages.len(),
            self.by_leader.link.pages.len(),
            self.by_node.link.pages.len(),
        ];
        if slots > pages * PAGE_SLOTS
            || page_counts.iter().any(|&p| p != pages)
            || self.by_leader.head.len() != nodes
        {
            return Err(format!(
                "{slots} slots in {pages} member pages and {page_counts:?} other pages; \
                 {nodes} heads of each list"
            ));
        }
        let live = |s: usize| self.leader_of(s as CandId) != NIL;
        let mut freed = vec![false; slots];
        for &s in &self.vacant {
            let s = s as usize;
            if s >= slots || live(s) || std::mem::replace(&mut freed[s], true) {
                return Err(format!(
                    "free list holds slot {s}, which is not a distinct vacant slot"
                ));
            }
        }
        let live_count = (0..slots).filter(|&s| live(s)).count();
        if live_count != self.len || live_count + self.vacant.len() != slots {
            return Err(format!(
                "len {} but {live_count} live and {} free of {slots} slots",
                self.len,
                self.vacant.len()
            ));
        }
        for s in (0..slots).filter(|&s| live(s)) {
            let row = self.members.row(s as CandId);
            if row.windows(2).any(|w| w[0] >= w[1]) || row[k - 1] as usize >= nodes {
                return Err(format!("slot {s} holds {row:?}: not ascending or out of range"));
            }
        }
        let in_range = |e: u32, per: usize| (slot_of(e) as usize) < slots && position(e) < per;
        let mut on_leader_list = vec![false; slots];
        let mut on_node_list = vec![false; slots << POS_BITS];
        for l in 0..nodes as u32 {
            self.by_leader.audit(l, |e| {
                let s = slot_of(e) as usize;
                if !in_range(e, 1)
                    || self.leader_of(s as CandId) != l
                    || std::mem::replace(&mut on_leader_list[s], true)
                {
                    return Err(format!("leader list {l} reaches entry {e} wrongly or twice"));
                }
                Ok(())
            })?;
            self.by_node.audit(l, |e| {
                if !in_range(e, k)
                    || !live(slot_of(e) as usize)
                    || self.members.at(e) != l
                    || std::mem::replace(&mut on_node_list[e as usize], true)
                {
                    return Err(format!("node list {l} reaches entry {e} wrongly or twice"));
                }
                Ok(())
            })?;
        }
        for s in (0..slots as CandId).filter(|&s| live(s as usize)) {
            if !on_leader_list[s as usize] || (0..k).any(|i| !on_node_list[entry(s, i) as usize]) {
                return Err(format!("live slot {s} is missing from one of its lists"));
            }
        }
        Ok(())
    }

    /// Audits the flat layout, then the incremental index against a
    /// from-scratch Algorithm 5 run. Returns a description of the first
    /// mismatch. Test/debug helper; the fresh index is built sequentially,
    /// the simplest reference.
    pub fn validate(&self, g: &DynGraph, state: &SolutionState) -> Result<(), String> {
        self.audit()?;
        let fresh = CandidateIndex::build(g, state, ParConfig::sequential());
        if fresh.len() != self.len() {
            return Err(format!(
                "index size mismatch: incremental {} vs fresh {}",
                self.len(),
                fresh.len()
            ));
        }
        for clique in state.iter() {
            let leader = clique[0];
            let mut mine: Vec<Clique> = self.candidates_of(leader);
            let mut theirs: Vec<Clique> = fresh.candidates_of(leader);
            mine.sort_unstable();
            theirs.sort_unstable();
            if mine != theirs {
                return Err(format!(
                    "candidate sets differ for the clique led by {leader}: incremental {mine:?} vs fresh {theirs:?}"
                ));
            }
        }
        Ok(())
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
        let mut state = SolutionState::new(3);
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
        (DynGraph::from_csr(&csr), SolutionState::from_solution(&solution))
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
                for c in state.iter().step_by(3) {
                    let first = idx.slots_of(c[0]).next();
                    if let Some(s) = first {
                        let (u, v) = (idx.members.row(s)[0], idx.members.row(s)[1]);
                        idx.drop_with_edge(u, v);
                    }
                    if let Some(w) = g.neighbors(c[0]).iter().find(|&&w| state.is_free(w)) {
                        idx.drop_containing_node(*w);
                    }
                    freed.push(c[0]);
                }
                let vacant = idx.vacant.clone();
                for leader in freed {
                    idx.rebuild_for_clique(&g, &state, leader);
                }
                vacant
            };
            let mut reference_churned = reference.clone();
            let reference_vacant = churn(&mut reference_churned);
            assert!(!reference_vacant.is_empty(), "the churn must free ids");
            for par in configs {
                let mut idx = CandidateIndex::build(&g, &state, par);
                assert_eq!(idx.len(), reference.len(), "{par:?}");
                for c in state.iter() {
                    assert_eq!(idx.candidates_of(c[0]), reference.candidates_of(c[0]), "{par:?}");
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
        let mut state = SolutionState::new(3);
        let leader = state.add(Clique::new(&[0, 1, 2]));
        let mut idx = CandidateIndex::empty(3, 6);
        let report = idx.rebuild_for_clique(&g, &state, leader);
        // {3,4,5} is all-free: surfaced in the report, never stored.
        assert_eq!(report.all_free, vec![Clique::new(&[3, 4, 5])]);
        // Mixed cliques through node 2 are genuine candidates:
        // (2,3,4), (2,3,5), (2,4,5).
        let mut cands = idx.candidates_of(leader);
        cands.sort_unstable();
        assert_eq!(
            cands,
            vec![Clique::new(&[2, 3, 4]), Clique::new(&[2, 3, 5]), Clique::new(&[2, 4, 5]),]
        );
    }

    /// Four slots' entries pushed front onto one list, `0, 1, 2, 3` (so
    /// it reads `3, 2, 1, 0`), audited after every unlink.
    #[test]
    fn unlinking_a_lists_head_middle_and_tail_keeps_it_consistent() {
        let mut lists = Lists::new(2, 1);
        for s in 0..4 {
            lists.link.reserve_slot(s, UNLINKED);
            lists.push_front(1, entry(s, 0));
        }
        let walk = |lists: &Lists| {
            let mut seen = Vec::new();
            lists
                .audit(1, |e| {
                    seen.push(slot_of(e));
                    Ok(())
                })
                .unwrap();
            assert_eq!(lists.iter(1).map(slot_of).collect::<Vec<_>>(), seen);
            seen
        };
        assert_eq!(walk(&lists), [3, 2, 1, 0]);
        lists.unlink(1, entry(2, 0)); // middle
        assert_eq!(walk(&lists), [3, 1, 0]);
        lists.unlink(1, entry(3, 0)); // head
        assert_eq!(walk(&lists), [1, 0]);
        lists.unlink(1, entry(0, 0)); // tail
        assert_eq!(walk(&lists), [1]);
        lists.unlink(1, entry(1, 0)); // the only entry
        assert!(walk(&lists).is_empty());
        assert_eq!(lists.first(1), NIL);
        assert_eq!(lists.first(0), NIL, "the other list was never touched");
        assert_eq!(lists.first(9), NIL, "out of range reads as empty");
    }

    #[test]
    fn audit_rejects_a_broken_prev_link() {
        let mut lists = Lists::new(1, 1);
        for s in 0..3 {
            lists.link.reserve_slot(s, UNLINKED);
            lists.push_front(0, entry(s, 0));
        }
        lists.link.at_mut(entry(1, 0)).prev = NIL;
        assert!(lists.audit(0, |_| Ok(())).is_err());
    }

    #[test]
    fn dropped_slots_are_reused_last_freed_first() {
        let (mut g, state) = fig5_g1();
        g.insert_edge(4, 6);
        let mut idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        assert_eq!((idx.len(), idx.slots), (2, 2));
        let c1 = state.owner(2).unwrap();
        idx.drop_with_edge(4, 6); // (v5, v6, v7) sits in slot 1
        assert_eq!(idx.vacant, [1]);
        idx.audit().unwrap();
        let report = idx.rebuild_for_clique(&g, &state, c1);
        assert!(report.has_new);
        // Both candidates were dropped and re-inserted into the two slots;
        // no slot was added.
        assert_eq!((idx.len(), idx.slots), (2, 2));
        assert!(idx.vacant.is_empty());
        idx.validate(&g, &state).unwrap();
        idx.drop_attached(c1);
        assert_eq!(idx.vacant.len(), 2);
        assert!((0..2).all(|s| idx.leader_of(s) == NIL));
        idx.audit().unwrap();
    }

    #[test]
    fn a_built_index_keeps_spare_slots_for_later_inserts() {
        let (g, state) = planted_graph(3, 1);
        let mut idx = CandidateIndex::build(&g, &state, ParConfig::sequential());
        let (slots, pages) = (idx.slots, idx.members.pages.len());
        assert!(pages * PAGE_SLOTS >= slots + slots / SPARE_DIVISOR);
        // Fill every spare slot: no page is added.
        let leader = state.iter().next().unwrap()[0];
        let top = g.num_nodes() as NodeId;
        for i in slots..pages * PAGE_SLOTS {
            idx.insert(&[leader, top + 2 * i as NodeId, top + 2 * i as NodeId + 1], leader);
        }
        assert_eq!(idx.members.pages.len(), pages);
        idx.audit().unwrap();
        idx.insert(
            &[leader, 2 * top + 4 * PAGE_SLOTS as NodeId, 2 * top + 5 * PAGE_SLOTS as NodeId],
            leader,
        );
        assert_eq!(idx.members.pages.len(), pages + 1);
        idx.audit().unwrap();
    }

    #[test]
    fn slots_past_one_page_keep_their_rows_and_links() {
        // Three pages' worth of candidates on one leader: growth adds pages
        // and never moves a stored row.
        let mut idx = CandidateIndex::empty(3, 2);
        let n = 2 * PAGE_SLOTS as u32 + 5;
        for s in 0..n {
            idx.insert(&[0, 1 + 2 * s, 2 + 2 * s], 0);
        }
        assert_eq!((idx.len(), idx.slots, idx.members.pages.len()), (n as usize, n as usize, 3));
        assert_eq!(
            idx.members.row(PAGE_SLOTS as u32),
            [0, 1 + 2 * PAGE_SLOTS as u32, 2 + 2 * PAGE_SLOTS as u32]
        );
        assert_eq!(idx.candidates_of(0).len(), n as usize);
        idx.audit().unwrap();
        idx.drop_containing_node(1 + 2 * PAGE_SLOTS as u32);
        idx.drop_with_edge(0, 2);
        assert_eq!(idx.len(), n as usize - 2);
        idx.audit().unwrap();
        idx.drop_attached(0);
        assert!(idx.is_empty());
        idx.audit().unwrap();
    }

    #[test]
    fn inserting_beyond_the_node_range_grows_both_heads() {
        let mut idx = CandidateIndex::empty(3, 2);
        idx.insert(&[5, 6, 7], 5);
        assert_eq!((idx.by_leader.head.len(), idx.by_node.head.len()), (8, 8));
        idx.audit().unwrap();
        assert_eq!(idx.candidates_of(5), vec![Clique::new(&[5, 6, 7])]);
        // Reads and drops past the range are no-ops.
        assert!(idx.candidates_of(100).is_empty());
        idx.drop_containing_node(100);
        idx.drop_with_edge(100, 5);
        idx.drop_attached(100);
        assert_eq!(idx.len(), 1);
        idx.ensure_node(11);
        assert_eq!((idx.by_leader.head.len(), idx.by_node.head.len()), (12, 12));
        idx.ensure_node(3); // never shrinks
        assert_eq!(idx.by_node.head.len(), 12);
        idx.audit().unwrap();
        idx.drop_containing_node(6);
        assert!(idx.is_empty());
        idx.audit().unwrap();
    }
}
