use crate::view::GroupPages;
use dkc_clique::Clique;
use dkc_core::Solution;
use dkc_graph::NodeId;

/// Stable identifier of a clique inside [`SolutionState`] (a slot index;
/// slots are reused after removal).
pub type CliqueId = u32;

/// The mutable solution `S`: cliques in reusable slots plus the
/// node → owning-clique map that defines *free* vs *non-free* nodes.
///
/// [`SolutionState::add`] and [`SolutionState::remove`] are the only
/// mutation points of `S`: every swap, refill and absorb goes through
/// them. Both also keep the slot-free, canonically ordered group pages
/// that [`crate::SolutionView`]s are published from, so publication never
/// re-sorts `S`.
#[derive(Debug, Clone)]
pub struct SolutionState {
    k: usize,
    slots: Vec<Option<Clique>>,
    free_slots: Vec<CliqueId>,
    /// `owner[u] = Some(slot)` iff `u` is covered by the clique in `slot`.
    owner: Vec<Option<CliqueId>>,
    len: usize,
    groups: GroupPages,
}

impl SolutionState {
    /// Creates an empty state for a graph with `num_nodes` nodes.
    pub fn new(k: usize, num_nodes: usize) -> Self {
        SolutionState {
            k,
            slots: Vec::new(),
            free_slots: Vec::new(),
            owner: vec![None; num_nodes],
            len: 0,
            groups: GroupPages::new(k),
        }
    }

    /// Initialises from a static [`Solution`].
    pub fn from_solution(solution: &Solution, num_nodes: usize) -> Self {
        let mut state = SolutionState::new(solution.k(), num_nodes);
        for c in solution.cliques() {
            state.add(c);
        }
        state
    }

    /// The clique size.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cliques currently in `S`.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `S` is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Grows the node range (new nodes start free).
    pub fn ensure_node(&mut self, u: NodeId) {
        if u as usize >= self.owner.len() {
            self.owner.resize(u as usize + 1, None);
        }
    }

    /// True when `u` is not covered by any clique of `S`.
    #[inline]
    pub fn is_free(&self, u: NodeId) -> bool {
        self.owner.get(u as usize).is_none_or(|o| o.is_none())
    }

    /// The clique slot covering `u`, if any.
    #[inline]
    pub fn owner(&self, u: NodeId) -> Option<CliqueId> {
        self.owner.get(u as usize).copied().flatten()
    }

    /// The clique stored in `slot` (`None` after removal).
    #[inline]
    pub fn clique(&self, slot: CliqueId) -> Option<&Clique> {
        self.slots.get(slot as usize).and_then(|s| s.as_ref())
    }

    /// Upper bound (exclusive) on slot ids ever issued.
    #[inline]
    pub fn slot_bound(&self) -> usize {
        self.slots.len()
    }

    /// Iterates `(slot, clique)` for every live clique.
    pub fn iter(&self) -> impl Iterator<Item = (CliqueId, &Clique)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|c| (i as CliqueId, c)))
    }

    /// Adds a clique; all members must currently be free.
    ///
    /// # Panics
    /// Panics if a member is already covered or the size differs from `k`.
    pub fn add(&mut self, c: Clique) -> CliqueId {
        let slot = self.insert_slot(c);
        self.groups.add(c.as_slice());
        slot
    }

    /// [`SolutionState::add`] without the group pages.
    fn insert_slot(&mut self, c: Clique) -> CliqueId {
        assert_eq!(c.len(), self.k, "clique size must equal k");
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(c);
                s
            }
            None => {
                self.slots.push(Some(c));
                (self.slots.len() - 1) as CliqueId
            }
        };
        for u in c.iter() {
            self.ensure_node(u);
            assert!(
                self.owner[u as usize].is_none(),
                "node {u} already covered — cliques must stay disjoint"
            );
            self.owner[u as usize] = Some(slot);
        }
        self.len += 1;
        slot
    }

    /// Removes the clique in `slot`, freeing its nodes. Returns the clique.
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    pub fn remove(&mut self, slot: CliqueId) -> Clique {
        let c = self.slots[slot as usize].take().expect("slot already vacant");
        for u in c.iter() {
            debug_assert_eq!(self.owner[u as usize], Some(slot));
            self.owner[u as usize] = None;
        }
        self.free_slots.push(slot);
        self.len -= 1;
        self.groups.remove(c.as_slice());
        c
    }

    /// The canonically ordered group pages views are published from.
    pub(crate) fn groups(&self) -> &GroupPages {
        &self.groups
    }

    /// Replaces `S` by `solution`, issuing slots in its order exactly as
    /// [`SolutionState::from_solution`] does, but editing the group pages
    /// only where the group sets differ: re-slotting the same groups
    /// (canonicalisation) writes no page at all.
    pub(crate) fn reslot(&mut self, solution: &Solution, num_nodes: usize) {
        let mut next = SolutionState::new(self.k, num_nodes);
        for c in solution.cliques() {
            next.insert_slot(c);
        }
        let mut groups = std::mem::replace(&mut self.groups, GroupPages::new(self.k));
        let stale: Vec<Clique> = groups
            .iter()
            .filter(|row| next.clique_at(row[0]).is_none_or(|c| c.as_slice() != *row))
            .map(Clique::from_sorted)
            .collect();
        for c in &stale {
            groups.remove(c.as_slice());
        }
        for (_, c) in next.iter() {
            if groups.members_of(c.as_slice()[0]) != Some(c.as_slice()) {
                groups.add(c.as_slice());
            }
        }
        debug_assert_eq!(groups.len(), next.len);
        next.groups = groups;
        *self = next;
    }

    /// The clique covering `u`.
    fn clique_at(&self, u: NodeId) -> Option<&Clique> {
        self.owner(u).and_then(|slot| self.clique(slot))
    }

    /// Snapshots into an immutable [`Solution`] (slot order).
    pub fn to_solution(&self) -> Solution {
        let mut s = Solution::new(self.k);
        for (_, c) in self.iter() {
            s.push(*c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip_with_slot_reuse() {
        let mut s = SolutionState::new(3, 10);
        let a = s.add(Clique::new(&[0, 1, 2]));
        let b = s.add(Clique::new(&[3, 4, 5]));
        assert_eq!(s.len(), 2);
        assert!(!s.is_free(1));
        assert_eq!(s.owner(4), Some(b));

        let removed = s.remove(a);
        assert_eq!(removed.as_slice(), &[0, 1, 2]);
        assert!(s.is_free(0));
        assert_eq!(s.len(), 1);

        // Slot a is reused.
        let c = s.add(Clique::new(&[6, 7, 8]));
        assert_eq!(c, a);
        assert_eq!(s.clique(c).unwrap().as_slice(), &[6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "already covered")]
    fn overlapping_add_panics() {
        let mut s = SolutionState::new(3, 10);
        s.add(Clique::new(&[0, 1, 2]));
        s.add(Clique::new(&[2, 3, 4]));
    }

    #[test]
    fn nodes_beyond_range_are_free_and_growable() {
        let mut s = SolutionState::new(3, 2);
        assert!(s.is_free(99));
        s.add(Clique::new(&[7, 8, 9]));
        assert!(!s.is_free(8));
        assert!(s.is_free(6));
    }

    #[test]
    fn solution_roundtrip() {
        let mut s = SolutionState::new(3, 9);
        s.add(Clique::new(&[0, 1, 2]));
        s.add(Clique::new(&[3, 4, 5]));
        let snap = s.to_solution();
        assert_eq!(snap.len(), 2);
        let back = SolutionState::from_solution(&snap, 9);
        assert_eq!(back.len(), 2);
        assert_eq!(back.owner(4), back.owner(5));
        assert_ne!(back.owner(0), back.owner(4));
    }

    #[test]
    fn iter_skips_vacant_slots() {
        let mut s = SolutionState::new(3, 12);
        let a = s.add(Clique::new(&[0, 1, 2]));
        s.add(Clique::new(&[3, 4, 5]));
        s.remove(a);
        let live: Vec<CliqueId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(live.len(), 1);
        assert_ne!(live[0], a);
    }
}
