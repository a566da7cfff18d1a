//! Property suite for the flat `CliqueStore` arena: round-trips with the
//! legacy `Vec<Clique>` representation are lossless, mutation mirrors the
//! boxed model exactly, and the one k-clique collector, `collect_kcliques`,
//! holds to the sequential callback model for every kernel mode, thread
//! count and clique budget: either the model's rows, each sorted, in
//! enumeration order, or `Err(limit)` exactly when the model counts more
//! than `limit` cliques.

use disjoint_kcliques::clique::{
    collect_kcliques_kernel, for_each_kclique_kernel, Clique, CliqueStore, KernelMode,
};
use disjoint_kcliques::graph::{Dag, NodeOrder, OrderingKind};
use disjoint_kcliques::prelude::*;
use proptest::prelude::*;

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (6..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, edges).unwrap())
    })
}

/// Random `(k, cliques)` fixtures: sorted, duplicate-free rows of width
/// `k` over a small id space (rows may repeat and overlap — the store
/// imposes no disjointness).
fn cliques_strategy() -> impl Strategy<Value = (usize, Vec<Clique>)> {
    (2usize..=6).prop_flat_map(|k| {
        let row = proptest::collection::btree_set(0u32..64, k)
            .prop_map(|s| Clique::new(&s.into_iter().collect::<Vec<_>>()));
        (Just(k), proptest::collection::vec(row, 0..24))
    })
}

const MODES: [KernelMode; 3] = [KernelMode::Adaptive, KernelMode::Slice, KernelMode::Bitset];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Vec<Clique>` → arena → `Vec<Clique>` is the identity, and every
    /// row accessor agrees with the boxed representation.
    #[test]
    fn store_round_trips_the_boxed_representation((k, cliques) in cliques_strategy()) {
        let store = CliqueStore::from_cliques(k, &cliques);
        prop_assert_eq!(store.k(), k);
        prop_assert_eq!(store.len(), cliques.len());
        prop_assert_eq!(store.to_cliques(), cliques.clone());
        for (i, c) in cliques.iter().enumerate() {
            prop_assert_eq!(store.get(i), c.as_slice());
            prop_assert_eq!(&store.clique(i), c);
        }
        prop_assert_eq!(store.iter().count(), store.len());
        prop_assert_eq!(store.as_flat().len(), k * store.len());
        // Rebuilding from the flat buffer is also the identity.
        let rebuilt = CliqueStore::from_flat(k, store.as_flat().to_vec());
        prop_assert_eq!(&rebuilt, &store);
    }

    /// Arena `push`/`swap_remove` mirror the `Vec<Clique>` model move for
    /// move (swap_remove's replace-with-last included).
    #[test]
    fn mutation_mirrors_the_vec_model(
        (k, cliques) in cliques_strategy(),
        removals in proptest::collection::vec(0usize..1_000_000, 0..8),
    ) {
        let mut model: Vec<Clique> = Vec::new();
        let mut store = CliqueStore::new(k);
        for c in &cliques {
            model.push(*c);
            store.push(c.as_slice());
        }
        for idx in removals {
            if model.is_empty() {
                break;
            }
            let i = idx % model.len();
            let removed = store.swap_remove(i);
            prop_assert_eq!(removed, model.swap_remove(i));
            prop_assert_eq!(store.to_cliques(), model.clone());
        }
        store.sort_canonical();
        model.sort();
        prop_assert_eq!(store.to_cliques(), model);
    }

    /// The collector returns the rows of the slice-kernel callback
    /// enumeration as legacy `Clique` values (each sorted, in enumeration
    /// order), or `Err(limit)` exactly when that model holds more than
    /// `limit` cliques — for every kernel mode, thread count (1, 2, 8,
    /// tiny chunks) and budget (`None` or `0..=40`).
    #[test]
    fn arena_listing_is_bit_identical_to_legacy(
        g in graph_strategy(14, 70),
        k in 3usize..=4,
        unbounded in any::<bool>(),
        l in 0usize..=40,
    ) {
        let limit = (!unbounded).then_some(l);
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
        let mut legacy: Vec<Clique> = Vec::new();
        for_each_kclique_kernel(&dag, k, KernelMode::Slice, |c| legacy.push(Clique::new(c)));
        let over = limit.filter(|&l| legacy.len() > l);
        for mode in MODES {
            for threads in [1usize, 2, 8] {
                for chunk in [1usize, 2] {
                    let par = ParConfig::new(threads).with_chunk(chunk);
                    let got = collect_kcliques_kernel(&dag, k, limit, par, mode);
                    let ctx = format!("mode {mode:?}, threads {threads}, chunk {chunk}");
                    match (got, over) {
                        (Err(e), Some(l)) => prop_assert_eq!(e, l, "{}", ctx),
                        (Ok(store), None) => {
                            prop_assert_eq!(store.k(), k);
                            prop_assert_eq!(&store.to_cliques(), &legacy, "{}", ctx);
                            // The flat buffer itself is the concatenation
                            // of the legacy rows — the byte-level statement.
                            let flat: Vec<u32> =
                                legacy.iter().flat_map(|c| c.as_slice().iter().copied()).collect();
                            prop_assert_eq!(store.as_flat(), &flat[..], "{}", ctx);
                        }
                        (got, _) => prop_assert!(
                            false,
                            "{}: limit {:?} with {} cliques gave {:?}",
                            ctx, limit, legacy.len(), got.map(|s| s.len())
                        ),
                    }
                }
            }
        }
    }
}
