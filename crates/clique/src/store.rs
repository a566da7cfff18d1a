//! Flat arena storage for fixed-`k` clique sets.
//!
//! [`CliqueStore`] packs a set of k-cliques into one `Vec<NodeId>` with
//! stride `k`: clique `i` occupies `data[i*k .. (i+1)*k]`, sorted ascending.
//! Compared to `Vec<Clique>` (72 bytes per clique regardless of `k`) the
//! arena costs `4k` bytes per clique — 6× smaller at `k = 3` — and iterating
//! it walks one contiguous allocation instead of striding over padding.
//!
//! The store preserves the order of whatever produced it. [`collect_kcliques`],
//! the one k-clique collector, fills it with the rows of the sequential
//! callback enumeration in enumeration order, for every kernel mode and
//! thread count (property-tested in `tests/proptest_clique_store.rs`).

use crate::kernel::KernelMode;
use crate::list::ListCtx;
use crate::types::{Clique, MAX_K};
use dkc_graph::{Dag, NodeId};
use dkc_par::{par_try_collect, ParConfig, SharedBudget};

/// A flat arena of k-cliques: one `Vec<NodeId>` with stride `k`.
///
/// Rows are sorted ascending and duplicate-free (the [`Clique`] invariant);
/// row order is whatever the producer pushed, so stores built by the
/// enumeration collectors carry the canonical enumeration order.
///
/// ```
/// use dkc_clique::CliqueStore;
///
/// let mut store = CliqueStore::new(3);
/// store.push(&[5, 1, 3]); // sorted on insert
/// store.push(&[0, 2, 4]);
/// assert_eq!(store.len(), 2);
/// assert_eq!(store.get(0), &[1, 3, 5]);
/// assert_eq!(store.iter().collect::<Vec<_>>(), vec![&[1, 3, 5][..], &[0, 2, 4][..]]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct CliqueStore {
    k: usize,
    data: Vec<NodeId>,
}

impl CliqueStore {
    /// Creates an empty store for cliques of exactly `k` members.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= MAX_K`.
    pub fn new(k: usize) -> Self {
        assert!((1..=MAX_K).contains(&k), "CliqueStore k = {k} out of range 1..={MAX_K}");
        CliqueStore { k, data: Vec::new() }
    }

    /// [`CliqueStore::new`] with room for `cliques` rows.
    pub fn with_capacity(k: usize, cliques: usize) -> Self {
        let mut s = CliqueStore::new(k);
        s.data.reserve(cliques.saturating_mul(k));
        s
    }

    /// Wraps an existing flat member array (stride-`k` rows, each sorted
    /// ascending and duplicate-free).
    ///
    /// # Panics
    /// Panics when `k` is out of range or `data.len()` is not a multiple of
    /// `k`. Row invariants are checked in debug builds only.
    pub fn from_flat(k: usize, data: Vec<NodeId>) -> Self {
        assert!((1..=MAX_K).contains(&k), "CliqueStore k = {k} out of range 1..={MAX_K}");
        assert!(
            data.len().is_multiple_of(k),
            "flat length {} is not a multiple of k = {k}",
            data.len()
        );
        debug_assert!(
            data.chunks_exact(k).all(|row| row.windows(2).all(|w| w[0] < w[1])),
            "from_flat row not strictly ascending"
        );
        CliqueStore { k, data }
    }

    /// Copies a legacy `Vec<Clique>`-style slice into an arena.
    ///
    /// # Panics
    /// Panics when any clique's length differs from `k`.
    pub fn from_cliques(k: usize, cliques: &[Clique]) -> Self {
        let mut s = CliqueStore::with_capacity(k, cliques.len());
        for c in cliques {
            s.push_clique(c);
        }
        s
    }

    /// The fixed clique size.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of cliques stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.k
    }

    /// True when no cliques are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a clique. `nodes` need not be sorted: the members are copied
    /// to the arena tail and sorted in place, so the push performs no heap
    /// allocation beyond the arena's own amortised growth.
    ///
    /// # Panics
    /// Panics when `nodes.len() != k`; duplicate members are caught in debug
    /// builds only (enumeration can never produce them).
    #[inline]
    pub fn push(&mut self, nodes: &[NodeId]) {
        assert_eq!(nodes.len(), self.k, "clique size {} != k = {}", nodes.len(), self.k);
        let start = self.data.len();
        self.data.extend_from_slice(nodes);
        self.data[start..].sort_unstable();
        debug_assert!(
            self.data[start..].windows(2).all(|w| w[0] < w[1]),
            "duplicate member in pushed clique {nodes:?}"
        );
    }

    /// Appends an owned [`Clique`] (already sorted).
    ///
    /// # Panics
    /// Panics when `c.len() != k`.
    #[inline]
    pub fn push_clique(&mut self, c: &Clique) {
        assert_eq!(c.len(), self.k, "clique size {} != k = {}", c.len(), self.k);
        self.data.extend_from_slice(c.as_slice());
    }

    /// The members of clique `i`, sorted ascending.
    #[inline]
    pub fn get(&self, i: usize) -> &[NodeId] {
        &self.data[i * self.k..(i + 1) * self.k]
    }

    /// Clique `i` as an owned [`Clique`] value.
    #[inline]
    pub fn clique(&self, i: usize) -> Clique {
        Clique::from_sorted(self.get(i))
    }

    /// Iterates member slices in row order.
    #[inline]
    pub fn iter(&self) -> std::slice::ChunksExact<'_, NodeId> {
        self.data.chunks_exact(self.k)
    }

    /// Iterates rows as owned [`Clique`] values (the compatibility bridge
    /// for call sites still written against `Vec<Clique>`).
    pub fn iter_cliques(&self) -> impl Iterator<Item = Clique> + '_ {
        self.iter().map(Clique::from_sorted)
    }

    /// The whole arena as one flat slice (stride `k`).
    #[inline]
    pub fn as_flat(&self) -> &[NodeId] {
        &self.data
    }

    /// Materialises the legacy representation.
    pub fn to_cliques(&self) -> Vec<Clique> {
        self.iter_cliques().collect()
    }

    /// Removes clique `i` by moving the last row into its place (mirrors
    /// `Vec::swap_remove`). Returns the removed clique.
    pub fn swap_remove(&mut self, i: usize) -> Clique {
        let removed = self.clique(i);
        let last = self.len() - 1;
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.k);
            head[i * self.k..(i + 1) * self.k].copy_from_slice(tail);
        }
        self.data.truncate(last * self.k);
        removed
    }

    /// Removes all cliques, keeping the arena allocation.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Sorts rows into canonical ascending order (the [`Clique`] `Ord`,
    /// which for fixed `k` is lexicographic member order).
    pub fn sort_canonical(&mut self) {
        let k = self.k;
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            self.data[a * k..(a + 1) * k].cmp(&self.data[b * k..(b + 1) * k])
        });
        let mut sorted = Vec::with_capacity(self.data.len());
        for i in order {
            sorted.extend_from_slice(&self.data[i * k..(i + 1) * k]);
        }
        self.data = sorted;
    }

    /// Heap bytes held by the arena.
    pub fn memory_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<NodeId>()
    }
}

impl std::fmt::Debug for CliqueStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CliqueStore(k={})", self.k)?;
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a CliqueStore {
    type Item = &'a [NodeId];
    type IntoIter = std::slice::ChunksExact<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Collects every k-clique of the DAG-oriented graph into a [`CliqueStore`]
/// — the storage-heavy path behind GC (Algorithm 2) and the clique graph.
///
/// Roots fan out over the [`dkc_par`] executor, each worker with its own
/// reusable recursion scratch, and every clique is written as `k` sorted ids
/// into its chunk's flat segment. Segments are concatenated in ascending
/// chunk order, and every clique contributes exactly `k` ids, so the arena
/// holds the rows of [`for_each_kclique`](crate::for_each_kclique), each
/// sorted, in enumeration order, for any thread count.
///
/// `max_cliques = Some(limit)` aborts with `Err(limit)` as soon as more than
/// `limit` cliques exist, without materialising the excess — the mechanism
/// behind the harness's deterministic "OOM" markers. Workers charge a
/// [`SharedBudget`] once per clique and abandon their root once it is
/// exhausted. The total population is a property of the input alone, so
/// either every schedule stays within budget (and returns the full,
/// chunk-ordered arena) or every schedule crosses it (and returns
/// `Err(limit)`, discarding all partial output): the decision does not
/// depend on the thread count. `None` charges nothing.
pub fn collect_kcliques(
    dag: &Dag,
    k: usize,
    max_cliques: Option<usize>,
    par: ParConfig,
) -> Result<CliqueStore, usize> {
    collect_kcliques_kernel(dag, k, max_cliques, par, KernelMode::default())
}

/// [`collect_kcliques`] with an explicit intersection kernel. Every mode
/// collects the same rows in the same order.
pub fn collect_kcliques_kernel(
    dag: &Dag,
    k: usize,
    max_cliques: Option<usize>,
    par: ParConfig,
    mode: KernelMode,
) -> Result<CliqueStore, usize> {
    let budget = max_cliques.map(SharedBudget::new);
    let data = par_try_collect(
        par,
        dag.num_nodes(),
        || ListCtx::with_kernel(dag, k, mode),
        |ctx, range, out: &mut Vec<NodeId>| {
            for u in range {
                let mut over = false;
                ctx.run_root(u as NodeId, None, (), &mut |nodes: &[NodeId]| {
                    if budget.as_ref().is_some_and(|b| !b.charge(1)) {
                        over = true;
                        return false;
                    }
                    let start = out.len();
                    out.extend_from_slice(nodes);
                    out[start..].sort_unstable();
                    true
                });
                if over {
                    return Err(max_cliques.unwrap_or_default());
                }
            }
            Ok(())
        },
    )?;
    Ok(CliqueStore::from_flat(k, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::for_each_kclique_kernel;
    use crate::list::tests::{dag_of, paper_graph};
    use dkc_graph::OrderingKind;

    #[test]
    fn push_get_iter_roundtrip() {
        let mut s = CliqueStore::new(3);
        assert!(s.is_empty());
        s.push(&[9, 4, 6]);
        s.push(&[0, 1, 2]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[4, 6, 9]);
        assert_eq!(s.clique(1), Clique::new(&[0, 1, 2]));
        assert_eq!(s.as_flat(), &[4, 6, 9, 0, 1, 2]);
        let rows: Vec<&[u32]> = s.iter().collect();
        assert_eq!(rows, vec![&[4, 6, 9][..], &[0, 1, 2][..]]);
    }

    #[test]
    fn from_cliques_and_back() {
        let cliques = vec![Clique::new(&[3, 1, 2]), Clique::new(&[7, 5, 6])];
        let s = CliqueStore::from_cliques(3, &cliques);
        assert_eq!(s.to_cliques(), cliques);
        assert_eq!(CliqueStore::from_flat(3, s.as_flat().to_vec()), s);
    }

    #[test]
    fn swap_remove_mirrors_vec_semantics() {
        let mut s = CliqueStore::new(2);
        let mut v = vec![Clique::new(&[0, 1]), Clique::new(&[2, 3]), Clique::new(&[4, 5])];
        for c in &v {
            s.push_clique(c);
        }
        assert_eq!(s.swap_remove(0), v.swap_remove(0));
        assert_eq!(s.to_cliques(), v);
        assert_eq!(s.swap_remove(1), v.swap_remove(1));
        assert_eq!(s.to_cliques(), v);
        assert_eq!(s.swap_remove(0), v.swap_remove(0));
        assert!(s.is_empty());
    }

    #[test]
    fn sort_canonical_matches_clique_sort() {
        let mut s = CliqueStore::new(3);
        for nodes in [[4, 5, 7], [0, 2, 5], [2, 4, 5], [1, 3, 8]] {
            s.push(&nodes);
        }
        let mut expected = s.to_cliques();
        expected.sort_unstable();
        s.sort_canonical();
        assert_eq!(s.to_cliques(), expected);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_k_rejected() {
        let _ = CliqueStore::new(0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_flat_rejected() {
        let _ = CliqueStore::from_flat(3, vec![1, 2]);
    }

    /// The callback model: the rows of the slice-kernel enumeration, each
    /// sorted, in enumeration order, as legacy `Clique` values.
    fn legacy_model(dag: &Dag, k: usize) -> Vec<Clique> {
        let mut rows = Vec::new();
        for_each_kclique_kernel(dag, k, KernelMode::Slice, |nodes| rows.push(Clique::new(nodes)));
        rows
    }

    #[test]
    fn store_collectors_match_legacy_sequence() {
        let g = paper_graph();
        for kind in [OrderingKind::Identity, OrderingKind::Degeneracy] {
            let dag = dag_of(&g, kind);
            for k in 1..=4 {
                let legacy = legacy_model(&dag, k);
                for threads in [1usize, 2, 8] {
                    let par = ParConfig::new(threads).with_chunk(1);
                    assert_eq!(
                        collect_kcliques(&dag, k, None, par).unwrap().to_cliques(),
                        legacy,
                        "{kind:?} k={k} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_store_matches_legacy_decisions() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        let legacy = legacy_model(&dag, 3);
        for limit in [0usize, 3, 6, 7, 1000] {
            for threads in [1usize, 2, 8] {
                let par = ParConfig::new(threads).with_chunk(1);
                let got = collect_kcliques(&dag, 3, Some(limit), par);
                if legacy.len() > limit {
                    assert_eq!(got, Err(limit), "limit={limit} threads={threads}");
                } else {
                    assert_eq!(
                        got.unwrap().to_cliques(),
                        legacy,
                        "limit={limit} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn budgeted_store_dispatches_like_legacy() {
        let g = paper_graph();
        let dag = dag_of(&g, OrderingKind::Degeneracy);
        let par = ParConfig::new(2);
        let n = legacy_model(&dag, 3).len();
        assert_eq!(n, 7);
        assert_eq!(collect_kcliques(&dag, 3, None, par).unwrap().len(), n);
        assert_eq!(collect_kcliques(&dag, 3, Some(n - 1), par), Err(n - 1));
        assert_eq!(collect_kcliques(&dag, 3, Some(n), par).unwrap().len(), n);
    }
}
