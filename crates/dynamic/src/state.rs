use crate::view::GroupPages;
use dkc_clique::Clique;
use dkc_core::Solution;
use dkc_graph::NodeId;

/// Identifier of a clique of [`SolutionState`]: its **leader**, the
/// smallest member. The cliques of `S` are disjoint, so no two share a
/// leader, and the id depends on the clique alone, never on the order in
/// which `S` was built.
pub type CliqueId = NodeId;

/// The mutable solution `S`, and which nodes it covers (*non-free*) vs
/// leaves *free*.
///
/// `S` is stored once: in the leader-keyed group pages that
/// [`crate::SolutionView`]s are published from, so publication never
/// re-sorts `S`. [`SolutionState::add`] and [`SolutionState::remove`] are
/// the only mutation points: every swap, refill and absorb goes through
/// them.
#[derive(Debug, Clone)]
pub struct SolutionState {
    groups: GroupPages,
}

impl SolutionState {
    /// Creates an empty state for cliques of size `k`.
    pub fn new(k: usize) -> Self {
        SolutionState { groups: GroupPages::new(k) }
    }

    /// Initialises from a static [`Solution`].
    pub fn from_solution(solution: &Solution) -> Self {
        let mut state = SolutionState::new(solution.k());
        for c in solution.cliques() {
            state.add(c);
        }
        state
    }

    /// The clique size.
    #[inline]
    pub fn k(&self) -> usize {
        self.groups.k()
    }

    /// Number of cliques currently in `S`.
    #[inline]
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when `S` is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.len() == 0
    }

    /// True when `u` is not covered by any clique of `S`.
    #[inline]
    pub fn is_free(&self, u: NodeId) -> bool {
        self.groups.leader_of(u).is_none()
    }

    /// The id (leader) of the clique covering `u`, if any.
    #[inline]
    pub fn owner(&self, u: NodeId) -> Option<CliqueId> {
        self.groups.leader_of(u)
    }

    /// The sorted members of the clique led by `id`, if one is.
    #[inline]
    pub fn clique(&self, id: CliqueId) -> Option<&[NodeId]> {
        self.groups.members_of(id).filter(|members| members[0] == id)
    }

    /// Every clique's sorted members, in leader order (a clique's id is
    /// its first member).
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.groups.iter()
    }

    /// Adds a clique; all members must currently be free.
    ///
    /// # Panics
    /// Panics if a member is already covered or the size differs from `k`.
    pub fn add(&mut self, c: Clique) -> CliqueId {
        assert_eq!(c.len(), self.k(), "clique size must equal k");
        for u in c.iter() {
            assert!(self.is_free(u), "node {u} already covered — cliques must stay disjoint");
        }
        self.groups.add(c.as_slice());
        c.as_slice()[0]
    }

    /// Removes the clique led by `id`, freeing its nodes. Returns the clique.
    ///
    /// # Panics
    /// Panics if no clique is led by `id`.
    pub fn remove(&mut self, id: CliqueId) -> Clique {
        let c = Clique::from_sorted(self.clique(id).expect("no clique led by this id"));
        self.groups.remove(c.as_slice());
        c
    }

    /// Replaces `S` by `solution`, editing the group pages only where the
    /// two differ: cliques in both keep their pages untouched.
    pub(crate) fn replace(&mut self, solution: &Solution) {
        let next = solution.sorted_cliques();
        let stale: Vec<CliqueId> = self
            .iter()
            .filter(|row| next.binary_search(&Clique::from_sorted(row)).is_err())
            .map(|row| row[0])
            .collect();
        for id in stale {
            self.remove(id);
        }
        for c in next {
            if self.clique(c.as_slice()[0]) != Some(c.as_slice()) {
                self.add(c);
            }
        }
    }

    /// The group pages views are published from.
    pub(crate) fn groups(&self) -> &GroupPages {
        &self.groups
    }

    /// Snapshots into an immutable [`Solution`], in leader order.
    pub fn to_solution(&self) -> Solution {
        self.groups.to_solution()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip_keyed_by_leader() {
        let mut s = SolutionState::new(3);
        let a = s.add(Clique::new(&[2, 0, 1]));
        let b = s.add(Clique::new(&[3, 4, 5]));
        assert_eq!((a, b), (0, 3), "a clique's id is its smallest member");
        assert_eq!(s.len(), 2);
        assert!(!s.is_free(1));
        assert_eq!(s.owner(4), Some(b));
        assert_eq!(s.clique(4), None, "4 is covered but leads nothing");

        let removed = s.remove(a);
        assert_eq!(removed.as_slice(), &[0, 1, 2]);
        assert!(s.is_free(0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.clique(a), None);

        let c = s.add(Clique::new(&[6, 7, 8]));
        assert_eq!(s.clique(c).unwrap(), &[6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "already covered")]
    fn overlapping_add_panics() {
        let mut s = SolutionState::new(3);
        s.add(Clique::new(&[0, 1, 2]));
        s.add(Clique::new(&[2, 3, 4]));
    }

    #[test]
    fn nodes_beyond_range_are_free_and_growable() {
        let mut s = SolutionState::new(3);
        assert!(s.is_free(99_999));
        s.add(Clique::new(&[7, 8, 9]));
        assert!(!s.is_free(8));
        assert!(s.is_free(6));
        s.add(Clique::new(&[5_000, 5_001, 99_999]));
        assert_eq!(s.owner(99_999), Some(5_000));
    }

    #[test]
    fn solution_roundtrip() {
        let mut s = SolutionState::new(3);
        s.add(Clique::new(&[3, 4, 5]));
        s.add(Clique::new(&[0, 1, 2]));
        let snap = s.to_solution();
        assert_eq!(snap.sorted_cliques(), snap.cliques().collect::<Vec<_>>());
        let back = SolutionState::from_solution(&snap);
        assert_eq!(back.len(), 2);
        assert_eq!(back.owner(4), back.owner(5));
        assert_ne!(back.owner(0), back.owner(4));
        let rows: Vec<&[NodeId]> = back.iter().collect();
        assert_eq!(rows, [&[0, 1, 2][..], &[3, 4, 5][..]]);
    }

    #[test]
    fn iter_skips_removed_cliques() {
        let mut s = SolutionState::new(3);
        let a = s.add(Clique::new(&[0, 1, 2]));
        s.add(Clique::new(&[3, 4, 5]));
        s.remove(a);
        let live: Vec<CliqueId> = s.iter().map(|c| c[0]).collect();
        assert_eq!(live, [3]);
    }

    #[test]
    fn replace_keeps_shared_cliques_and_swaps_the_rest() {
        let mut s = SolutionState::new(3);
        s.add(Clique::new(&[0, 1, 2]));
        s.add(Clique::new(&[3, 4, 5]));
        let mut next = Solution::new(3);
        next.push(Clique::new(&[6, 7, 8]));
        next.push(Clique::new(&[0, 1, 2]));
        next.push(Clique::new(&[4, 5, 9]));
        s.replace(&next);
        assert_eq!(s.to_solution().sorted_cliques(), next.sorted_cliques());
        assert!(s.is_free(3));
        assert_eq!(s.owner(9), Some(4));
    }
}
