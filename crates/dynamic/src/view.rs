//! Epoch-versioned read snapshots of the maintained solution.
//!
//! The serving model is single-writer / multi-reader: one writer owns the
//! [`crate::DynamicSolver`] and, after every applied batch, publishes an
//! immutable [`SolutionView`] behind an [`Arc`]. Readers hold a
//! [`SharedView`] handle and call [`SharedView::current`], which clones the
//! `Arc` under a read lock held only for the pointer copy — readers never
//! wait for a batch to apply, and a reader's view is never torn: every
//! query it answers from one `Arc` sees one consistent epoch.
//!
//! # Leader order
//!
//! Groups are disjoint and every row is sorted, so the canonical
//! (lexicographic) order of the rows is exactly the order of each group's
//! smallest member, its **leader**. A view therefore needs no sorted
//! arena. It keeps three node-indexed arrays:
//!
//! * `owner[u]`: the leader of the group covering `u` (or free);
//! * `rows[leader]`: the group's `k` sorted members, stored at its leader;
//! * a leader bitset with per-word and per-page set-bit counts.
//!
//! A group's canonical index is its leader's rank in the bitset, and
//! walking the bitset yields the groups in canonical order. Adding or
//! removing a group therefore touches only its own members' entries and
//! renumbers nothing else.
//!
//! # Publication cost
//!
//! Each array is split into pages of [`PAGE`] nodes held by `Arc`. The
//! writer's `S` lives in a writable set of these pages (its
//! [`crate::SolutionState`] stores nothing else), written by the only two
//! mutation points, `add` and `remove`. Publishing clones the page tables
//! (one `Arc` bump per page) and recomputes the per-page rank bases, so it
//! costs O(N / [`PAGE`]) pointer copies and no data.
//! The next mutation copies only the pages it writes (`Arc::make_mut`), so
//! a batch that adds or removes Δ groups costs O(Δ) page copies. A reader
//! still holding an older view keeps its pages alive: a retained view pins
//! exactly the pages touched since it was published, never a full copy.
//!
//! # Rendering cost
//!
//! Each leader page also caches, once a reader asks for it, the JSON text
//! of the groups it leads (`[a,b,c],[d,e,f],…`, see
//! [`SolutionView::cliques_json`]). The text depends on the page's leader
//! bits and on the rows stored at those leaders, and both are written only
//! by `add` and `remove`, which always flip a bit of that same leader page.
//! Flipping a bit drops the cached text, and a page copied by
//! `Arc::make_mut` starts without one, so the text can never outlive the
//! rows it renders. The writer never renders; readers fill the cache, and
//! every later view that shares a page shares its text. Rendering a new
//! epoch therefore re-renders only the pages the batches since the last
//! render touched, plus one concatenation. A retained view pins the text
//! of the pages it pins, about the size of their part of the reply.

use crate::UpdateStats;
use dkc_clique::CliqueStore;
use dkc_core::Solution;
use dkc_graph::NodeId;
use std::sync::{Arc, OnceLock, RwLock};

/// Nodes per page (a power of two).
pub(crate) const PAGE: usize = 1024;
const WORDS: usize = PAGE / 64;
/// `owner` entry of a free node.
const FREE: NodeId = NodeId::MAX;

#[inline]
fn split(u: NodeId) -> (usize, usize) {
    (u as usize / PAGE, u as usize % PAGE)
}

/// One page of the leader bitset, with the rank of every word's first bit
/// and the page's cached JSON text (see "Rendering cost").
#[derive(Debug)]
struct LeaderPage {
    words: [u64; WORDS],
    /// `before[w]` = set bits in `words[..w]`.
    before: [u16; WORDS],
    count: u32,
    /// The comma-joined rows of the groups led from this page, filled by
    /// the first reader that renders them and dropped by every `set`.
    json: OnceLock<Box<str>>,
}

impl Clone for LeaderPage {
    /// A copy starts without cached text: `Arc::make_mut` copies a page
    /// only to write it, and the write would drop the text anyway.
    fn clone(&self) -> Self {
        LeaderPage {
            words: self.words,
            before: self.before,
            count: self.count,
            json: OnceLock::new(),
        }
    }
}

impl LeaderPage {
    fn empty() -> Self {
        LeaderPage { words: [0; WORDS], before: [0; WORDS], count: 0, json: OnceLock::new() }
    }

    fn set(&mut self, o: usize, on: bool) {
        let (w, bit) = (o / 64, 1u64 << (o % 64));
        debug_assert_eq!(self.words[w] & bit != 0, !on, "leader bit already in that state");
        self.json.take();
        self.words[w] ^= bit;
        for b in &mut self.before[w + 1..] {
            *b = if on { *b + 1 } else { *b - 1 };
        }
        self.count = if on { self.count + 1 } else { self.count - 1 };
    }

    /// Set bits strictly before offset `o`.
    #[inline]
    fn rank(&self, o: usize) -> usize {
        let (w, b) = (o / 64, o % 64);
        self.before[w] as usize + (self.words[w] & ((1u64 << b) - 1)).count_ones() as usize
    }

    /// Offset of the `r`-th set bit (`r < count`).
    fn select(&self, r: usize) -> usize {
        let w = self.before.partition_point(|&b| b as usize <= r) - 1;
        let mut word = self.words[w];
        for _ in 0..r - self.before[w] as usize {
            word &= word - 1;
        }
        w * 64 + word.trailing_zeros() as usize
    }

    /// Offsets of the set bits, ascending.
    fn offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(w * 64 + b)
            })
        })
    }
}

/// The writable group index behind every [`SolutionView`], and the only
/// copy of the writer's `S` ([`crate::SolutionState`]): the three paged
/// arrays of the module docs. Pages are allocated on first write and
/// shared copy-on-write between the writer and published views.
#[derive(Debug, Clone)]
pub(crate) struct GroupPages {
    k: usize,
    len: usize,
    owner: Vec<Arc<Vec<NodeId>>>,
    rows: Vec<Arc<Vec<NodeId>>>,
    leaders: Vec<Arc<LeaderPage>>,
}

impl GroupPages {
    pub(crate) fn new(k: usize) -> Self {
        GroupPages { k, len: 0, owner: Vec::new(), rows: Vec::new(), leaders: Vec::new() }
    }

    pub(crate) fn k(&self) -> usize {
        self.k
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn grow(&mut self, u: NodeId) {
        let need = split(u).0 + 1;
        while self.owner.len() < need {
            self.owner.push(Arc::new(vec![FREE; PAGE]));
            self.rows.push(Arc::new(vec![0; PAGE * self.k]));
            self.leaders.push(Arc::new(LeaderPage::empty()));
        }
    }

    /// Adds a group given as its sorted members; all must be free.
    pub(crate) fn add(&mut self, members: &[NodeId]) {
        debug_assert_eq!(members.len(), self.k);
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "rows are sorted");
        let (Some(&leader), Some(&last)) = (members.first(), members.last()) else { return };
        self.grow(last);
        for &u in members {
            let (p, o) = split(u);
            let page = Arc::make_mut(&mut self.owner[p]);
            debug_assert_eq!(page[o], FREE, "overlapping groups");
            page[o] = leader;
        }
        let (p, o) = split(leader);
        Arc::make_mut(&mut self.rows[p])[o * self.k..(o + 1) * self.k].copy_from_slice(members);
        Arc::make_mut(&mut self.leaders[p]).set(o, true);
        self.len += 1;
    }

    /// Removes the group with these sorted members.
    pub(crate) fn remove(&mut self, members: &[NodeId]) {
        let Some(&leader) = members.first() else { return };
        debug_assert_eq!(self.members_of(leader), Some(members), "removing an absent group");
        for &u in members {
            let (p, o) = split(u);
            Arc::make_mut(&mut self.owner[p])[o] = FREE;
        }
        let (p, o) = split(leader);
        Arc::make_mut(&mut self.leaders[p]).set(o, false);
        self.len -= 1;
    }

    /// The leader of the group covering `u`.
    #[inline]
    pub(crate) fn leader_of(&self, u: NodeId) -> Option<NodeId> {
        let (p, o) = split(u);
        self.owner.get(p).map(|page| page[o]).filter(|&l| l != FREE)
    }

    #[inline]
    fn row(&self, leader: NodeId) -> &[NodeId] {
        let (p, o) = split(leader);
        &self.rows[p][o * self.k..(o + 1) * self.k]
    }

    /// The sorted members of the group covering `u`.
    pub(crate) fn members_of(&self, u: NodeId) -> Option<&[NodeId]> {
        self.leader_of(u).map(|l| self.row(l))
    }

    /// Every group, in canonical (leader) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.leaders.iter().enumerate().filter(|(_, page)| page.count > 0).flat_map(
            move |(p, page)| {
                let rows = &self.rows[p];
                page.offsets().map(move |o| &rows[o * self.k..(o + 1) * self.k])
            },
        )
    }

    /// The JSON text of the groups led from page `p`, rendered on first
    /// use and cached in the page.
    fn page_json(&self, p: usize) -> &str {
        let page = &self.leaders[p];
        page.json.get_or_init(|| {
            let rows = &self.rows[p];
            // Ids below 10^7 take at most 7 digits plus a separator.
            let mut out = Vec::with_capacity(page.count as usize * (8 * self.k + 2));
            for (i, o) in page.offsets().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                out.push(b'[');
                for (j, &u) in rows[o * self.k..(o + 1) * self.k].iter().enumerate() {
                    if j > 0 {
                        out.push(b',');
                    }
                    push_decimal(&mut out, u);
                }
                out.push(b']');
            }
            String::from_utf8(out).expect("ASCII digits and punctuation").into_boxed_str()
        })
    }

    /// The JSON text of every page that leads a group, in leader order.
    pub(crate) fn json_pages(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.leaders.len()).filter(|&p| self.leaders[p].count > 0).map(|p| self.page_json(p))
    }

    /// The groups as a [`Solution`] in canonical order.
    pub(crate) fn to_solution(&self) -> Solution {
        let mut flat = Vec::with_capacity(self.len * self.k);
        for row in self.iter() {
            flat.extend_from_slice(row);
        }
        Solution::from_store(CliqueStore::from_flat(self.k, flat))
    }
}

/// Appends the decimal digits of `u`.
fn push_decimal(out: &mut Vec<u8>, mut u: NodeId) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// One immutable, epoch-stamped snapshot of the maintained solution.
///
/// Groups are numbered in **canonical order** (ascending sorted rows), so
/// two views of the same epoch built from the same update history — e.g.
/// one from a live solver and one from a restart that replayed the update
/// log — answer every query identically, membership indices included.
/// Equality compares exactly that observable content (epoch, node count,
/// `k`, groups in order, stats), never the page layout.
///
/// Cloning is cheap: the pages are shared (see the module docs).
#[derive(Clone)]
pub struct SolutionView {
    epoch: u64,
    num_nodes: usize,
    stats: UpdateStats,
    groups: GroupPages,
    /// `bases[p]` = groups whose leader lies in a page before `p`.
    bases: Vec<u32>,
}

impl SolutionView {
    /// Builds a view from a solution from scratch — the reference
    /// constructor, independent of any solver's history.
    pub fn new(epoch: u64, num_nodes: usize, solution: &Solution, stats: UpdateStats) -> Self {
        let mut groups = GroupPages::new(solution.k());
        for members in solution.iter_members() {
            groups.add(members);
        }
        Self::publish(epoch, num_nodes, &groups, stats)
    }

    /// Snapshots the writer's pages: clones the page tables (no data) and
    /// derives the per-page rank bases.
    pub(crate) fn publish(
        epoch: u64,
        num_nodes: usize,
        groups: &GroupPages,
        stats: UpdateStats,
    ) -> Self {
        let mut bases = Vec::with_capacity(groups.leaders.len());
        let mut total = 0u32;
        for page in &groups.leaders {
            bases.push(total);
            total += page.count;
        }
        SolutionView { epoch, num_nodes, stats, groups: groups.clone(), bases }
    }

    /// The batch epoch this view was published at (number of update
    /// batches applied since the serving state was created).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The clique size `k`.
    pub fn k(&self) -> usize {
        self.groups.k
    }

    /// `|S|` — the number of disjoint k-cliques.
    pub fn len(&self) -> usize {
        self.groups.len
    }

    /// True when `S` is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.len == 0
    }

    /// Number of nodes of the graph this view was taken from.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Membership lookup: the canonical group index covering `u`, or
    /// `None` when `u` is free (or out of range). O(1): the leader's rank.
    pub fn group_of(&self, u: NodeId) -> Option<usize> {
        if u as usize >= self.num_nodes {
            return None;
        }
        let (p, o) = split(self.groups.leader_of(u)?);
        Some(self.bases[p] as usize + self.groups.leaders[p].rank(o))
    }

    /// The members of the group covering `u` (sorted), or `None` when `u`
    /// is free or out of range — `group(group_of(u)?)` without the rank
    /// and select round trip.
    pub fn members_of(&self, u: NodeId) -> Option<&[NodeId]> {
        if u as usize >= self.num_nodes {
            return None;
        }
        self.groups.members_of(u)
    }

    /// The members of group `i` (canonical index). O(log pages): a select
    /// in the leader bitset.
    pub fn group(&self, i: usize) -> Option<&[NodeId]> {
        if i >= self.groups.len {
            return None;
        }
        let p = self.bases.partition_point(|&b| b as usize <= i) - 1;
        let o = self.groups.leaders[p].select(i - self.bases[p] as usize);
        Some(self.groups.row((p * PAGE + o) as NodeId))
    }

    /// All groups, in canonical order (a walk of the leader bitset).
    pub fn cliques(&self) -> impl Iterator<Item = &[NodeId]> + '_ {
        self.groups.iter()
    }

    /// All groups as JSON text, one fragment per page that leads a group:
    /// the comma-joined `[a,b,c]` rows of that page's groups, in canonical
    /// order, so `"[" + fragments.join(",") + "]"` is the JSON array of
    /// [`SolutionView::cliques`]. A fragment is rendered on first use and
    /// then shared by every view that shares its page, so a view published
    /// after Δ page writes renders only those Δ pages (see the module
    /// docs).
    pub fn cliques_json(&self) -> impl Iterator<Item = &str> + '_ {
        self.groups.json_pages()
    }

    /// Nodes covered by some group (`k · |S|`).
    pub fn covered_nodes(&self) -> usize {
        self.groups.len * self.groups.k
    }

    /// Lifetime update counters at publication time.
    pub fn stats(&self) -> &UpdateStats {
        &self.stats
    }

    /// Copies the view back into a [`Solution`] (canonical order).
    pub fn to_solution(&self) -> Solution {
        self.groups.to_solution()
    }

    /// `(pages of this view shared with `other`, pages of this view)`,
    /// over all three arrays — the copy-on-write footprint of the
    /// publications between the two views.
    #[cfg(test)]
    fn pages_shared_with(&self, other: &SolutionView) -> (usize, usize) {
        fn count<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
            a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
        }
        let (a, b) = (&self.groups, &other.groups);
        let shared =
            count(&a.owner, &b.owner) + count(&a.rows, &b.rows) + count(&a.leaders, &b.leaders);
        (shared, a.owner.len() + a.rows.len() + a.leaders.len())
    }
}

impl PartialEq for SolutionView {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.num_nodes == other.num_nodes
            && self.stats == other.stats
            && self.groups.k == other.groups.k
            && self.groups.len == other.groups.len
            && self.cliques().eq(other.cliques())
    }
}

impl Eq for SolutionView {}

impl std::fmt::Debug for SolutionView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionView")
            .field("epoch", &self.epoch)
            .field("num_nodes", &self.num_nodes)
            .field("k", &self.k())
            .field("len", &self.len())
            .field("stats", &self.stats)
            .field("groups", &self.cliques().collect::<Vec<_>>())
            .finish()
    }
}

/// A cloneable reader handle onto the latest published [`SolutionView`].
///
/// `current()` is cheap (one read-lock acquisition for an `Arc` clone) and
/// never blocks behind batch application: the writer holds the write lock
/// only for the pointer swap in `publish`.
#[derive(Debug, Clone)]
pub struct SharedView {
    inner: Arc<RwLock<Arc<SolutionView>>>,
}

impl SharedView {
    /// A handle seeded with an initial view.
    pub fn new(initial: SolutionView) -> Self {
        SharedView { inner: Arc::new(RwLock::new(Arc::new(initial))) }
    }

    /// The latest published view. Each returned `Arc` is an immutable
    /// snapshot: answering several queries from it yields one consistent
    /// epoch even while the writer publishes newer views.
    pub fn current(&self) -> Arc<SolutionView> {
        // A poisoned lock means the writer panicked mid-swap; the stored
        // Arc is still a complete older view, so serve it.
        match self.inner.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Swaps in a new view (writer side).
    pub(crate) fn publish(&self, view: Arc<SolutionView>) {
        match self.inner.write() {
            Ok(mut guard) => *guard = view,
            Err(poisoned) => *poisoned.into_inner() = view,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeUpdate, ServingSolver};
    use dkc_clique::Clique;
    use dkc_core::{Algo, SolveRequest};
    use dkc_graph::CsrGraph;

    fn demo_solution() -> Solution {
        let mut s = Solution::new(3);
        s.push(Clique::new(&[6, 7, 8]));
        s.push(Clique::new(&[0, 1, 2]));
        s
    }

    #[test]
    fn view_is_canonical_and_answers_membership() {
        let v = SolutionView::new(5, 10, &demo_solution(), UpdateStats::default());
        assert_eq!(v.epoch(), 5);
        assert_eq!(v.len(), 2);
        assert_eq!(v.k(), 3);
        assert_eq!(v.covered_nodes(), 6);
        // Sorted: [0,1,2] becomes group 0 even though it was pushed second.
        assert_eq!(v.group_of(1), Some(0));
        assert_eq!(v.group_of(7), Some(1));
        assert_eq!(v.group_of(4), None);
        assert_eq!(v.group_of(999), None);
        assert_eq!(v.group(0).unwrap(), &[0, 1, 2]);
        assert_eq!(v.members_of(8).unwrap(), &[6, 7, 8]);
        assert_eq!(v.members_of(4), None);
        assert_eq!(v.to_solution().len(), 2);
    }

    #[test]
    fn insertion_order_does_not_change_the_view() {
        let mut reordered = Solution::new(3);
        reordered.push(Clique::new(&[0, 1, 2]));
        reordered.push(Clique::new(&[6, 7, 8]));
        let a = SolutionView::new(1, 10, &demo_solution(), UpdateStats::default());
        let b = SolutionView::new(1, 10, &reordered, UpdateStats::default());
        assert_eq!(a, b);
    }

    #[test]
    fn rank_and_select_agree_across_pages_and_words() {
        // Leaders scattered over several pages, some words and pages empty.
        let leaders: Vec<NodeId> = vec![0, 5, 63, 64, 200, 1023, 1024, 3000, 3001 + 64, 9000];
        let mut s = Solution::new(1);
        for &l in leaders.iter().rev() {
            s.push(Clique::new(&[l]));
        }
        let v = SolutionView::new(0, 10_000, &s, UpdateStats::default());
        let walked: Vec<NodeId> = v.cliques().map(|row| row[0]).collect();
        assert_eq!(walked, leaders);
        for (i, &l) in leaders.iter().enumerate() {
            assert_eq!(v.group_of(l), Some(i), "rank of {l}");
            assert_eq!(v.group(i), Some(&[l][..]), "select {i}");
        }
        assert_eq!(v.group(leaders.len()), None);
        assert_eq!(v.group_of(1), None);
    }

    #[test]
    fn shared_view_publishes_and_reads() {
        let shared =
            SharedView::new(SolutionView::new(0, 4, &Solution::new(3), UpdateStats::default()));
        let before = shared.current();
        assert_eq!(before.epoch(), 0);
        let next = SolutionView::new(1, 10, &demo_solution(), UpdateStats::default());
        shared.publish(Arc::new(next));
        // The old Arc stays valid; new reads see the new epoch.
        assert_eq!(before.epoch(), 0);
        assert_eq!(shared.current().epoch(), 1);
    }

    /// Disjoint triangles `{3i, 3i+1, 3i+2}` chained by one edge each over
    /// `n` nodes: LP keeps every triangle, and deleting a triangle edge
    /// frees exactly that group.
    fn triangle_chain(n: u32) -> CsrGraph {
        let mut edges = Vec::new();
        for t in 0..n / 3 {
            let b = 3 * t;
            edges.extend([(b, b + 1), (b + 1, b + 2), (b, b + 2)]);
            if b + 3 < n {
                edges.push((b + 2, b + 3));
            }
        }
        CsrGraph::from_edges(n as usize, edges).unwrap()
    }

    #[test]
    fn one_update_publication_copies_a_constant_number_of_pages() {
        let n = 52 * PAGE as u32;
        let g = triangle_chain(n);
        let mut serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let before = serving.view();
        assert!(before.len() > 17_000);
        for update in [EdgeUpdate::Delete(30_000, 30_001), EdgeUpdate::Insert(30_000, 30_001)] {
            let prev = serving.view();
            let (_, next) = serving.apply_batch(&[update]).unwrap();
            let (shared, total) = next.pages_shared_with(&prev);
            assert!(total >= 3 * 50, "the graph spans at least 50 pages per array");
            assert!(total - shared <= 6, "{} of {total} pages copied", total - shared);
            let solver = serving.solver();
            let reference =
                SolutionView::new(next.epoch(), n as usize, &solver.solution(), *solver.stats());
            assert_eq!(*next, reference);
        }
        // Compaction leaves `S` alone: it writes no page at all.
        let prev = serving.view();
        serving.compact().unwrap();
        let (shared, total) = serving.view().pages_shared_with(&prev);
        assert_eq!(shared, total, "compaction must not copy pages");
        // The view held across every publication is untouched.
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.group_of(30_000), Some(10_000));
    }

    /// `"[" + fragments + "]"`, the JSON array of a view's groups.
    fn rendered(v: &SolutionView) -> String {
        format!("[{}]", v.cliques_json().collect::<Vec<_>>().join(","))
    }

    /// `(fragments of `next` that are the same allocation as `prev`'s,
    /// fragments of `next`)`, page by page.
    fn fragments_shared(next: &SolutionView, prev: &SolutionView) -> (usize, usize) {
        let (a, b): (Vec<&str>, Vec<&str>) =
            (next.cliques_json().collect(), prev.cliques_json().collect());
        assert_eq!(a.len(), b.len(), "every page of the chain leads a group");
        (a.iter().zip(&b).filter(|(x, y)| std::ptr::eq(**x, **y)).count(), a.len())
    }

    #[test]
    fn one_update_rendering_renders_a_constant_number_of_pages() {
        let n = 52 * PAGE as u32;
        let g = triangle_chain(n);
        let mut serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
        let before = serving.view();
        let original = rendered(&before);
        let tree = |v: &SolutionView| {
            let rows = v.cliques().map(|c| {
                dkc_json::Json::Arr(c.iter().map(|&u| dkc_json::Json::u64(u as u64)).collect())
            });
            dkc_json::Json::Arr(rows.collect()).render()
        };
        assert_eq!(original, tree(&before));
        for update in [EdgeUpdate::Delete(30_000, 30_001), EdgeUpdate::Insert(30_000, 30_001)] {
            let prev = serving.view();
            rendered(&prev);
            let (_, next) = serving.apply_batch(&[update]).unwrap();
            let (shared, total) = fragments_shared(&next, &prev);
            assert!(total >= 50, "the chain leads groups from at least 50 pages");
            assert!(total - shared <= 2, "{} of {total} pages re-rendered", total - shared);
            assert_eq!(rendered(&next), tree(&next));
        }
        // Compaction leaves `S` alone: nothing is re-rendered.
        let prev = serving.view();
        rendered(&prev);
        serving.compact().unwrap();
        let (shared, total) = fragments_shared(&serving.view(), &prev);
        assert_eq!(shared, total, "compaction must not re-render pages");
        // The view held across every publication renders its own bytes.
        assert_eq!(rendered(&before), original);
    }
}
