//! Kernel selection and the dense per-root neighbourhood bit matrix.
//!
//! Every recursion in this crate intersects candidate sets with
//! out-neighbour lists. Two interchangeable kernels implement that step:
//!
//! * **slice** — merge-scan of two sorted `NodeId` slices
//!   (`intersect_sorted`), `O(|cand| + deg⁺(v))` per step. Cheap to enter,
//!   no setup, the right call for sparse roots.
//! * **bitset** — densify the root's out-neighbourhood `N⁺(u)` once into a
//!   `d × d` bit matrix ([`DenseIndex`]) with a scatter pass over the
//!   global→local id map (`O(d + Σ deg⁺(v))`, no per-neighbour merge), then
//!   every intersection is a word-AND over `⌈d/64⌉` words. The matrix build
//!   replaces the *first* level of merge scans, so deeper recursions
//!   (`k ≥ 4`) and dense neighbourhoods (`d ≳ 64`) run on words instead of
//!   repeated merges — the Rossi-style dense-neighbourhood trick.
//!
//! Both kernels visit candidates in ascending node id (local ids are
//! assigned in sorted global order), so they emit the **same cliques in the
//! same order** and produce identical counters — property-tested in
//! `tests/proptests.rs` across forcing modes and thread counts. Selection
//! is per root via [`KernelMode`].

use dkc_graph::{Dag, NodeId};

/// Smallest out-degree for which [`KernelMode::Adaptive`] picks the bitset
/// kernel: below this, the matrix build amortises over too few word-ANDs
/// to beat plain merge scans. Measured on the FB stand-in (bench_listing),
/// the crossover sits well below one word — the scatter build costs about
/// as much as the first level of merge scans it replaces.
pub const DENSE_MIN_DEGREE: usize = 8;

/// Largest out-degree for which [`KernelMode::Adaptive`] picks the bitset
/// kernel: the matrix holds `d²` bits, so this caps per-worker scratch at
/// 2 MiB per root (degeneracy orders keep `d` far below this on real
/// graphs; degree orders can exceed it on hub nodes).
pub const DENSE_MAX_DEGREE: usize = 4096;

/// Which intersection kernel the clique recursions run.
///
/// `Adaptive` decides per root from the out-degree (see
/// [`DENSE_MIN_DEGREE`] / [`DENSE_MAX_DEGREE`]); the forcing variants exist
/// for property tests and benchmarks — results are bit-identical in every
/// mode, only the work per intersection changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KernelMode {
    /// Per-root choice: bitset for dense neighbourhoods, slice otherwise.
    #[default]
    Adaptive,
    /// Always merge-scan sorted slices (the pre-kernel behaviour).
    Slice,
    /// Always densify (unbounded `d² ` scratch — forcing/testing only).
    Bitset,
}

impl KernelMode {
    /// CLI/debug token.
    pub fn token(self) -> &'static str {
        match self {
            KernelMode::Adaptive => "adaptive",
            KernelMode::Slice => "slice",
            KernelMode::Bitset => "bitset",
        }
    }

    /// True when the bitset kernel should run a root with out-degree `d`
    /// at clique size `k`. `k <= 2` never densifies: those recursions do
    /// no intersections at all.
    #[inline]
    pub(crate) fn dense_for(self, k: usize, d: usize) -> bool {
        match self {
            KernelMode::Slice => false,
            KernelMode::Bitset => k >= 3 && d >= 2,
            KernelMode::Adaptive => k >= 3 && (DENSE_MIN_DEGREE..=DENSE_MAX_DEGREE).contains(&d),
        }
    }
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "adaptive" => Ok(KernelMode::Adaptive),
            "slice" => Ok(KernelMode::Slice),
            "bitset" | "dense" => Ok(KernelMode::Bitset),
            other => Err(format!("unknown kernel mode {other:?} (adaptive|slice|bitset)")),
        }
    }
}

/// The dense per-root index: `N⁺(root)` relabelled to local ids `0..d`
/// (ascending global id, so bit iteration preserves the slice kernel's
/// visit order) plus the induced `d × d` adjacency bit matrix
/// `rows[i] ∋ j ⇔ globals[j] ∈ N⁺(globals[i])`.
///
/// All buffers are reused across roots — building is allocation-free once
/// the high-water marks are reached, which is what makes per-root
/// densification viable inside the executor's per-worker scratch.
#[derive(Debug, Default)]
pub(crate) struct DenseIndex {
    /// Local id → global node id, sorted ascending.
    pub(crate) globals: Vec<NodeId>,
    /// Words per row.
    pub(crate) stride: usize,
    /// `d × stride` row-major bit matrix.
    rows: Vec<u64>,
    /// Global id → local id + 1 (0 = not in this root's neighbourhood).
    /// Stamped during build and cleared after, so it stays all-zero
    /// between roots without an `O(n)` reset.
    local_of: Vec<u32>,
    /// Filled by [`DenseIndex::build_with_arcs`] only: the DAG arc position
    /// of each set bit of `rows`, row by row in ascending column order.
    arcs: Vec<usize>,
}

impl DenseIndex {
    /// Builds the index over the `valid` out-neighbours of `root` (all of
    /// them when `None`), so invalid nodes never enter the matrix; returns
    /// their number `d`.
    pub(crate) fn build(&mut self, dag: &Dag, root: NodeId, valid: Option<&[bool]>) -> usize {
        out_neighbors_in(dag, root, valid, &mut self.globals);
        self.finish(dag, false)
    }

    /// [`DenseIndex::build`] over all of `N⁺(root)` that also records, in
    /// the same scatter, the DAG arc position of every matrix bit, so that
    /// [`DenseIndex::for_each_arc_in`] can map local pairs back to arcs.
    pub(crate) fn build_with_arcs(&mut self, dag: &Dag, root: NodeId) -> usize {
        out_neighbors_in(dag, root, None, &mut self.globals);
        self.finish(dag, true)
    }

    fn finish(&mut self, dag: &Dag, record_arcs: bool) -> usize {
        let d = self.globals.len();
        self.stride = d.div_ceil(64);
        self.rows.clear();
        self.rows.resize(d * self.stride, 0);
        if self.local_of.len() < dag.num_nodes() {
            self.local_of.resize(dag.num_nodes(), 0);
        }
        for (i, &v) in self.globals.iter().enumerate() {
            self.local_of[v as usize] = i as u32 + 1;
        }
        self.arcs.clear();
        for i in 0..d {
            let v = self.globals[i];
            let row = &mut self.rows[i * self.stride..(i + 1) * self.stride];
            for (arc, &w) in (dag.arc_offset(v)..).zip(dag.out_neighbors(v)) {
                let slot = self.local_of[w as usize];
                if slot != 0 {
                    let j = (slot - 1) as usize;
                    row[j / 64] |= 1u64 << (j % 64);
                    if record_arcs {
                        self.arcs.push(arc);
                    }
                }
            }
        }
        for &v in &self.globals {
            self.local_of[v as usize] = 0;
        }
        d
    }

    /// The adjacency row of local node `i`.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// Calls `f` with the DAG arc position of every pair set in `pairs`, a
    /// `d × stride` matrix shaped like the adjacency rows whose bits are a
    /// subset of theirs. Needs the index built by
    /// [`DenseIndex::build_with_arcs`]: the set bits of the rows, read in
    /// order, are the recorded arcs in order, so a pair's arc is found by
    /// counting the adjacency bits before it.
    pub(crate) fn for_each_arc_in(&self, pairs: &[u64], mut f: impl FnMut(usize)) {
        let mut below = 0;
        for (&word, &adjacent) in pairs.iter().zip(&self.rows) {
            debug_assert_eq!(word & !adjacent, 0, "pair outside the adjacency");
            let run = adjacent.count_ones() as usize;
            if word == adjacent {
                // Every arc of the word: its whole run.
                self.arcs[below..below + run].iter().for_each(|&arc| f(arc));
            } else {
                let mut picked = word;
                while picked != 0 {
                    let before = (1u64 << picked.trailing_zeros()) - 1;
                    f(self.arcs[below + (adjacent & before).count_ones() as usize]);
                    picked &= picked - 1;
                }
            }
            below += run;
        }
    }
}

/// Fills `out` with the `valid` out-neighbours of `u` (all of them when
/// `None`), ascending.
pub(crate) fn out_neighbors_in(
    dag: &Dag,
    u: NodeId,
    valid: Option<&[bool]>,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    match valid {
        Some(valid) => {
            out.extend(dag.out_neighbors(u).iter().copied().filter(|&v| valid[v as usize]))
        }
        None => out.extend_from_slice(dag.out_neighbors(u)),
    }
}

/// Fills `buf` with the all-ones candidate set over `0..len` (tail bits
/// beyond `len` cleared), resizing to the required word count.
pub(crate) fn fill_full(buf: &mut Vec<u64>, len: usize) {
    buf.clear();
    buf.resize(len.div_ceil(64), u64::MAX);
    let tail = len % 64;
    if tail != 0 {
        if let Some(last) = buf.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

/// Sets bit `i` of `buf`.
#[inline]
pub(crate) fn set_bit(buf: &mut [u64], i: usize) {
    buf[i / 64] |= 1u64 << (i % 64);
}

/// `dst = a & b` (all three the same word count).
#[inline]
pub(crate) fn and_into(dst: &mut Vec<u64>, a: &[u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    dst.clear();
    dst.extend(a.iter().zip(b).map(|(&x, &y)| x & y));
}

/// `dst = a & b`, then clears every bit `<= pivot` — the increasing-id
/// extension step of the subset enumerator, whose rows are symmetric.
pub(crate) fn and_above_into(dst: &mut Vec<u64>, a: &[u64], b: &[u64], pivot: usize) {
    and_into(dst, a, b);
    let word = pivot / 64;
    let zero_upto = word.min(dst.len());
    for w in &mut dst[..zero_upto] {
        *w = 0;
    }
    if word < dst.len() {
        let keep_from = pivot % 64 + 1;
        if keep_from >= 64 {
            dst[word] = 0;
        } else {
            dst[word] &= !((1u64 << keep_from) - 1);
        }
    }
}

/// Number of set bits.
#[inline]
pub(crate) fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Iterates set bit positions in ascending order.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_graph::{CsrGraph, NodeOrder, OrderingKind};

    #[test]
    fn mode_parsing_and_display_roundtrip() {
        for mode in [KernelMode::Adaptive, KernelMode::Slice, KernelMode::Bitset] {
            assert_eq!(mode.token().parse::<KernelMode>().unwrap(), mode);
            assert_eq!(format!("{mode}"), mode.token());
        }
        assert_eq!("dense".parse::<KernelMode>().unwrap(), KernelMode::Bitset);
        assert!("fast".parse::<KernelMode>().is_err());
        assert_eq!(KernelMode::default(), KernelMode::Adaptive);
    }

    #[test]
    fn selection_heuristic_bounds() {
        assert!(!KernelMode::Slice.dense_for(5, 1000));
        assert!(KernelMode::Bitset.dense_for(3, 2));
        assert!(!KernelMode::Bitset.dense_for(2, 1000), "k=2 has no intersections");
        assert!(KernelMode::Adaptive.dense_for(3, DENSE_MIN_DEGREE));
        assert!(!KernelMode::Adaptive.dense_for(3, DENSE_MIN_DEGREE - 1));
        assert!(!KernelMode::Adaptive.dense_for(3, DENSE_MAX_DEGREE + 1));
    }

    #[test]
    fn dense_index_matches_arc_relation() {
        // K5 plus a pendant: every pair inside the root's neighbourhood of
        // the last-ranked node is an arc in exactly one direction.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b));
            }
        }
        edges.push((0, 5));
        let g = CsrGraph::from_edges(6, edges).unwrap();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Identity));
        let mut idx = DenseIndex::default();
        // Find a root with out-degree >= 2 and check rows against has_arc.
        for root in 0..6u32 {
            let d = idx.build(&dag, root, None);
            assert_eq!(d, dag.out_degree(root));
            for i in 0..d {
                for j in 0..d {
                    let expect = dag.has_arc(idx.globals[i], idx.globals[j]);
                    let got = idx.row(i)[j / 64] & (1u64 << (j % 64)) != 0;
                    assert_eq!(got, expect, "root {root} i={i} j={j}");
                }
            }
        }
    }

    #[test]
    fn build_reuses_and_clears_the_scatter_map() {
        let g = CsrGraph::from_edges(4, vec![(0, 1), (0, 2), (1, 2), (2, 3)]).unwrap();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Identity));
        let mut idx = DenseIndex::default();
        idx.build(&dag, 0, None);
        let first = idx.globals.clone();
        idx.build(&dag, 2, None);
        idx.build(&dag, 0, None);
        assert_eq!(idx.globals, first, "rebuild after reuse is identical");
        assert!(idx.local_of.iter().all(|&s| s == 0), "scatter map cleared between roots");
    }

    #[test]
    fn word_helpers_behave() {
        let mut buf = Vec::new();
        fill_full(&mut buf, 70);
        assert_eq!(count_ones(&buf), 70);
        assert_eq!(ones(&buf).last(), Some(69));
        fill_full(&mut buf, 64);
        assert_eq!(count_ones(&buf), 64);
        buf.clear();
        buf.resize(130usize.div_ceil(64), 0);
        assert_eq!(count_ones(&buf), 0);
        set_bit(&mut buf, 0);
        set_bit(&mut buf, 64);
        set_bit(&mut buf, 129);
        assert_eq!(ones(&buf).collect::<Vec<_>>(), vec![0, 64, 129]);

        let mut a = vec![0u64; 2];
        let mut b = vec![0u64; 2];
        for i in 0..100 {
            if i % 2 == 0 {
                set_bit(&mut a, i);
            }
            if i % 3 == 0 {
                set_bit(&mut b, i);
            }
        }
        let mut out = Vec::new();
        and_into(&mut out, &a, &b);
        assert!(ones(&out).all(|i| i % 6 == 0));
        and_above_into(&mut out, &a, &b, 30);
        assert_eq!(
            ones(&out).collect::<Vec<_>>(),
            vec![36, 42, 48, 54, 60, 66, 72, 78, 84, 90, 96]
        );
    }

    #[test]
    fn and_above_pivot_edge_cases() {
        let mut a = Vec::new();
        fill_full(&mut a, 128);
        let b = a.clone();
        let mut out = Vec::new();
        and_above_into(&mut out, &a, &b, 63);
        assert_eq!(ones(&out).next(), Some(64));
        and_above_into(&mut out, &a, &b, 127);
        assert_eq!(count_ones(&out), 0);
        and_above_into(&mut out, &a, &b, 0);
        assert_eq!(count_ones(&out), 127);
    }
}
