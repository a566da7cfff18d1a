//! Property-based tests: the optimised listing/counting/search machinery is
//! compared against brute-force references on small random graphs.

use std::collections::BTreeSet;

use dkc_clique::{
    collect_kcliques, collect_kcliques_kernel, count_kcliques, count_kcliques_kernel,
    count_kcliques_parallel, for_each_kclique, for_each_kclique_in_subset, for_each_kclique_kernel,
    node_scores, node_scores_kernel, node_scores_parallel, Clique, FirstFinder, KernelMode,
    MinScoreFinder,
};
use dkc_graph::{CsrGraph, Dag, DynGraph, NodeId, NodeOrder, OrderingKind};
use dkc_par::ParConfig;
use proptest::prelude::*;

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (4..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, edges).unwrap())
    })
}

/// Brute force: all k-subsets that are pairwise adjacent.
fn brute_force_cliques(g: &CsrGraph, k: usize) -> BTreeSet<Vec<NodeId>> {
    let n = g.num_nodes();
    let mut out = BTreeSet::new();
    let mut subset: Vec<NodeId> = Vec::new();
    fn rec(
        g: &CsrGraph,
        k: usize,
        start: NodeId,
        subset: &mut Vec<NodeId>,
        out: &mut BTreeSet<Vec<NodeId>>,
    ) {
        if subset.len() == k {
            out.insert(subset.clone());
            return;
        }
        for v in start..g.num_nodes() as NodeId {
            if subset.iter().all(|&u| g.has_edge(u, v)) {
                subset.push(v);
                rec(g, k, v + 1, subset, out);
                subset.pop();
            }
        }
    }
    if k <= n {
        rec(g, k, 0, &mut subset, &mut out);
    }
    out
}

/// A validity mask over `g`'s nodes: a node is valid unless its `mask`
/// entry is 0 (so about three in four are).
fn valid_from(g: &CsrGraph, mask: &[u8]) -> Vec<bool> {
    (0..g.num_nodes()).map(|u| mask[u] != 0).collect()
}

/// The brute-force k-cliques of `g` whose members are all `valid`.
fn valid_cliques(g: &CsrGraph, k: usize, valid: &[bool]) -> BTreeSet<Vec<NodeId>> {
    let mut all = brute_force_cliques(g, k);
    all.retain(|c| c.iter().all(|&v| valid[v as usize]));
    all
}

/// The cliques of `all` rooted at `u`: `u` is their highest-ranked member.
fn rooted_at<'s>(
    all: &'s BTreeSet<Vec<NodeId>>,
    d: &'s Dag,
    u: NodeId,
) -> impl Iterator<Item = &'s Vec<NodeId>> {
    all.iter().filter(move |c| c.contains(&u) && c.iter().all(|&v| d.rank(v) <= d.rank(u)))
}

fn dag(g: &CsrGraph, kind: OrderingKind) -> Dag {
    Dag::from_graph(g, NodeOrder::compute(g, kind))
}

/// The callback model every collector is held to: the slice-kernel
/// enumeration's rows, each sorted, in enumeration order, flattened.
fn model_rows(d: &Dag, k: usize) -> Vec<NodeId> {
    let mut flat = Vec::new();
    for_each_kclique_kernel(d, k, KernelMode::Slice, |nodes| {
        let mut row = nodes.to_vec();
        row.sort_unstable();
        flat.extend(row);
    });
    flat
}

/// The arcs of `d` whose edge lies in some k-clique that
/// `for_each_kclique` enumerates, one bit per arc position.
fn clique_arcs_by_enumeration(d: &Dag, k: usize) -> Vec<u64> {
    let mut arcs = vec![0u64; d.num_arcs().div_ceil(64)];
    for_each_kclique(d, k, |nodes| {
        for &a in nodes {
            for &b in nodes {
                if let Ok(i) = d.out_neighbors(a).binary_search(&b) {
                    let at = d.arc_offset(a) + i;
                    arcs[at / 64] |= 1 << (at % 64);
                }
            }
        }
    });
    arcs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn score_pass_marks_exactly_the_clique_edges(
        g in graph_strategy(24, 140),
        k in 3usize..=5,
    ) {
        // The marks are a set: every kernel and executor shape must find
        // the same one, the edges of the enumerated cliques, and leave the
        // scores as the unmarked pass computes them.
        for kind in [OrderingKind::DegreeDesc, OrderingKind::Degeneracy] {
            let d = dag(&g, kind);
            let expect = clique_arcs_by_enumeration(&d, k);
            let scores = node_scores(&d, k);
            for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
                for threads in [1usize, 2, 4] {
                    let par = ParConfig::new(threads).with_chunk(3);
                    let pass = node_scores_kernel(&d, k, par, mode);
                    prop_assert_eq!(
                        &pass.clique_arcs, &expect, "marks, {:?} {} threads {}", kind, mode, threads);
                    prop_assert_eq!(
                        &pass.scores, &scores, "scores, {:?} {} threads {}", kind, mode, threads);
                }
            }
        }
    }

    #[test]
    fn listing_matches_brute_force(g in graph_strategy(12, 50), k in 3usize..=5) {
        let expected = brute_force_cliques(&g, k);
        for kind in [OrderingKind::Identity, OrderingKind::Degeneracy, OrderingKind::DegreeAsc] {
            let d = dag(&g, kind);
            let got: BTreeSet<Vec<NodeId>> = collect_kcliques(&d, k, None, ParConfig::sequential())
                .unwrap()
                .iter()
                .map(<[NodeId]>::to_vec)
                .collect();
            prop_assert_eq!(&got, &expected, "ordering {:?}", kind);
            prop_assert_eq!(count_kcliques(&d, k), expected.len() as u64);
        }
    }

    #[test]
    fn node_scores_sum_to_k_times_count(g in graph_strategy(14, 70), k in 3usize..=5) {
        let d = dag(&g, OrderingKind::Degeneracy);
        let scores = node_scores(&d, k);
        let total = count_kcliques(&d, k);
        prop_assert_eq!(scores.iter().sum::<u64>(), k as u64 * total);
        // Per-node cross-check against brute force.
        let cliques = brute_force_cliques(&g, k);
        for u in 0..g.num_nodes() as NodeId {
            let expected = cliques.iter().filter(|c| c.contains(&u)).count() as u64;
            prop_assert_eq!(scores[u as usize], expected, "node {}", u);
        }
    }

    #[test]
    fn subset_listing_equals_restricted_brute_force(
        g in graph_strategy(14, 70),
        k in 3usize..=4,
        mask in proptest::collection::vec(any::<bool>(), 14),
    ) {
        let nodes: Vec<NodeId> = (0..g.num_nodes() as NodeId)
            .filter(|&u| mask.get(u as usize).copied().unwrap_or(false))
            .collect();
        let dyn_g = DynGraph::from_csr(&g);
        let mut got: BTreeSet<Vec<NodeId>> = BTreeSet::new();
        for_each_kclique_in_subset(&dyn_g, &nodes, k, |c| {
            assert!(got.insert(c.to_vec()), "clique reported twice: {c:?}");
        });
        let expected: BTreeSet<Vec<NodeId>> = brute_force_cliques(&g, k)
            .into_iter()
            .filter(|c| c.iter().all(|u| nodes.contains(u)))
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn first_finder_finds_iff_a_rooted_clique_exists(
        g in graph_strategy(12, 60),
        k in 3usize..=4,
        mask in proptest::collection::vec(0u8..4, 12),
    ) {
        // The oracle is brute force over the valid nodes only: a clique is
        // rooted at `u` when `u` is its highest-ranked member.
        let d = dag(&g, OrderingKind::Degeneracy);
        let valid = valid_from(&g, &mask);
        let all = valid_cliques(&g, k, &valid);
        let mut reference = Vec::new();
        for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
            let mut finder = FirstFinder::with_kernel(&d, k, mode);
            let found: Vec<Option<Clique>> =
                (0..g.num_nodes() as NodeId).map(|u| finder.find(u, &valid)).collect();
            for (u, got) in (0..).zip(&found) {
                let rooted_exists = rooted_at(&all, &d, u).next().is_some();
                match got {
                    Some(c) => {
                        prop_assert!(rooted_exists, "found {:?} though none expected ({})", c, mode);
                        prop_assert!(
                            rooted_at(&all, &d, u).any(|r| r.as_slice() == c.as_slice()),
                            "{:?} is not a valid clique rooted at {}", c, u
                        );
                    }
                    None => prop_assert!(!rooted_exists, "missed a clique rooted at {} ({})", u, mode),
                }
                if !valid[u as usize] {
                    prop_assert!(got.is_none(), "invalid root {} returned a clique ({})", u, mode);
                }
            }
            // Every kernel walks candidates in the same order, so each
            // stops at the same first clique.
            if mode == KernelMode::Slice {
                reference = found;
            } else {
                prop_assert_eq!(&found, &reference, "{} differs from slice", mode);
            }
        }
    }

    #[test]
    fn min_finder_is_optimal_and_prune_invariant(
        g in graph_strategy(12, 60),
        k in 3usize..=4,
        mask in proptest::collection::vec(0u8..4, 12),
    ) {
        let d = dag(&g, OrderingKind::Degeneracy);
        let scores = node_scores(&d, k);
        let valid = valid_from(&g, &mask);
        let all = valid_cliques(&g, k, &valid);
        let mut reference = Vec::new();
        for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
            let mut pruned = MinScoreFinder::with_kernel(&d, &scores, k, true, mode);
            let mut exhaustive = MinScoreFinder::with_kernel(&d, &scores, k, false, mode);
            let mut found = Vec::new();
            for u in 0..g.num_nodes() as NodeId {
                let a = pruned.find(u, &valid);
                let b = exhaustive.find(u, &valid);
                prop_assert_eq!(a, b, "prune changed the result at root {} ({})", u, mode);
                if !valid[u as usize] {
                    prop_assert!(a.is_none(), "invalid root {} returned a clique ({})", u, mode);
                }
                // No valid rooted clique may score lower, and one exists
                // exactly when the finder returns one.
                let min_rooted = rooted_at(&all, &d, u)
                    .map(|c| c.iter().map(|&v| scores[v as usize]).sum::<u64>())
                    .min();
                prop_assert_eq!(a.map(|sc| sc.score), min_rooted, "root {} ({})", u, mode);
                if let Some(sc) = a {
                    prop_assert!(
                        rooted_at(&all, &d, u).any(|r| r.as_slice() == sc.clique.as_slice()),
                        "{:?} is not a valid clique rooted at {}", sc, u
                    );
                    prop_assert_eq!(sc.score, sc.clique.score(&scores));
                }
                found.push(a);
            }
            if mode == KernelMode::Slice {
                reference = found;
            } else {
                prop_assert_eq!(&found, &reference, "{} differs from slice", mode);
            }
        }
    }

    #[test]
    fn parallel_machinery_is_thread_invariant(
        g in graph_strategy(40, 250),
        k in 3usize..=5,
    ) {
        let d = dag(&g, OrderingKind::Degeneracy);
        let count = count_kcliques(&d, k);
        let scores = node_scores(&d, k);
        let listed = model_rows(&d, k);
        for threads in [1usize, 2, 8] {
            // Tiny chunks force genuine fan-out on these small graphs.
            let par = ParConfig::new(threads).with_chunk(3);
            prop_assert_eq!(
                count_kcliques_parallel(&d, k, par), count, "count, threads {}", threads);
            prop_assert_eq!(
                &node_scores_parallel(&d, k, par), &scores, "scores, threads {}", threads);
            // Listing must match element-for-element (order included).
            let store = collect_kcliques(&d, k, None, par).unwrap();
            prop_assert_eq!(store.as_flat(), &listed[..], "listing, threads {}", threads);
        }
    }

    #[test]
    fn kernel_modes_agree_on_cliques_counts_and_scores(
        g in graph_strategy(24, 140),
        k in 3usize..=5,
    ) {
        // The slice kernel is the reference; the forced-dense and adaptive
        // kernels must reproduce its cliques *in order*, its count and its
        // per-node scores — sequentially and on every executor shape.
        let d = dag(&g, OrderingKind::Degeneracy);
        let listed = model_rows(&d, k);
        let count = count_kcliques(&d, k);
        let scores = node_scores(&d, k);
        prop_assert_eq!(count, (listed.len() / k) as u64);
        for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
            let mut sequential = Vec::new();
            for_each_kclique_kernel(&d, k, mode, |c| {
                let mut row = c.to_vec();
                row.sort_unstable();
                sequential.extend(row);
            });
            prop_assert_eq!(&sequential, &listed, "sequential {}", mode);
            for threads in [1usize, 2, 8] {
                let par = ParConfig::new(threads).with_chunk(3);
                let store = collect_kcliques_kernel(&d, k, None, par, mode).unwrap();
                prop_assert_eq!(
                    store.as_flat(), &listed[..], "listing, threads {} {}", threads, mode);
                prop_assert_eq!(
                    count_kcliques_kernel(&d, k, par, mode), count,
                    "count, threads {} {}", threads, mode);
                prop_assert_eq!(
                    &node_scores_kernel(&d, k, par, mode).scores, &scores,
                    "scores, threads {} {}", threads, mode);
            }
        }
    }

    #[test]
    fn bounded_collection_decision_is_schedule_and_kernel_free(
        g in graph_strategy(18, 90),
        k in 3usize..=4,
        limit in 0usize..=40,
    ) {
        // The shared-budget collector must reach the callback model's
        // Err/Ok decision (`Err` exactly when the model counts more than
        // `limit`; on `Ok`, the model's rows) for every kernel and thread
        // count — the monotone-criterion determinism argument, exercised on
        // random graphs.
        let d = dag(&g, OrderingKind::Degeneracy);
        let listed = model_rows(&d, k);
        let expected = if listed.len() / k > limit { Err(limit) } else { Ok(&listed[..]) };
        for mode in [KernelMode::Slice, KernelMode::Bitset, KernelMode::Adaptive] {
            for threads in [1usize, 2, 8] {
                // Chunk 1 maximises interleaving opportunities.
                let par = ParConfig::new(threads).with_chunk(1);
                let got = collect_kcliques_kernel(&d, k, Some(limit), par, mode);
                prop_assert_eq!(
                    got.as_ref().map(|s| s.as_flat()).map_err(|&e| e), expected,
                    "threads {} limit {} {}", threads, limit, mode);
            }
        }
    }

    #[test]
    fn clique_disjointness_matches_set_semantics(
        a in proptest::collection::btree_set(0u32..30, 1..6),
        b in proptest::collection::btree_set(0u32..30, 1..6),
    ) {
        let ca = Clique::new(&a.iter().copied().collect::<Vec<_>>());
        let cb = Clique::new(&b.iter().copied().collect::<Vec<_>>());
        let expect = a.intersection(&b).next().is_none();
        prop_assert_eq!(ca.is_disjoint(&cb), expect);
        prop_assert_eq!(cb.is_disjoint(&ca), expect);
    }
}
