//! Property tests for the parallel conflict-graph construction: for any
//! graph, clique size and thread count, the structure — and the budgeted
//! `Err`/`Ok` decision — must be identical to the sequential build, and a
//! clique budget must refuse exactly the graphs with too many cliques.

use dkc_cliquegraph::{CliqueGraph, CliqueGraphError, CliqueGraphLimits};
use dkc_graph::CsrGraph;
use dkc_par::ParConfig;
use proptest::prelude::*;

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (6..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, edges).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn construction_is_thread_invariant(g in graph_strategy(22, 120), k in 3usize..=4) {
        let base = CliqueGraph::build_par(
            &g, k, CliqueGraphLimits::unlimited(), ParConfig::sequential()).unwrap();
        for threads in [2usize, 8] {
            // Tiny chunks force genuine fan-out despite the small size.
            let par = ParConfig::new(threads).with_chunk(2);
            let cg = CliqueGraph::build_par(&g, k, CliqueGraphLimits::unlimited(), par).unwrap();
            prop_assert_eq!(cg.num_cliques(), base.num_cliques(), "threads={}", threads);
            prop_assert_eq!(cg.num_conflicts(), base.num_conflicts(), "threads={}", threads);
            for id in 0..cg.num_cliques() as u32 {
                prop_assert_eq!(cg.clique(id), base.clique(id), "clique {}", id);
                prop_assert_eq!(cg.conflicts(id), base.conflicts(id), "conflicts of {}", id);
            }
        }
    }

    #[test]
    fn budget_decision_is_thread_invariant(
        g in graph_strategy(16, 80),
        k in 3usize..=4,
        max_conflicts in 0usize..24,
    ) {
        let limits = CliqueGraphLimits { max_cliques: None, max_conflicts: Some(max_conflicts) };
        let base = CliqueGraph::build_par(&g, k, limits, ParConfig::sequential());
        for threads in [2usize, 8] {
            let par = ParConfig::new(threads).with_chunk(1);
            let got = CliqueGraph::build_par(&g, k, limits, par);
            match (&base, &got) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.num_conflicts(), b.num_conflicts(), "threads={}", threads);
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "threads={}", threads),
                (a, b) => prop_assert!(
                    false,
                    "budget decision differs: sequential={:?} threads={}={:?}",
                    a.is_ok(), threads, b.is_ok()
                ),
            }
        }
    }

    /// A clique budget of `limit`: every thread count refuses with
    /// `TooManyCliques { limit }` exactly when the unlimited build holds
    /// more than `limit` cliques, and otherwise returns that build, clique
    /// by clique.
    #[test]
    fn clique_budget_refuses_exactly_past_the_limit(
        g in graph_strategy(16, 80),
        k in 3usize..=4,
        limit in 0usize..40,
    ) {
        let full = CliqueGraph::build_par(
            &g, k, CliqueGraphLimits::unlimited(), ParConfig::sequential()).unwrap();
        let limits = CliqueGraphLimits { max_cliques: Some(limit), max_conflicts: None };
        for threads in [1usize, 2, 8] {
            let par = ParConfig::new(threads).with_chunk(1);
            let got = CliqueGraph::build_par(&g, k, limits, par);
            if full.num_cliques() > limit {
                prop_assert_eq!(
                    got.err(),
                    Some(CliqueGraphError::TooManyCliques { limit }),
                    "{} cliques, threads={}", full.num_cliques(), threads
                );
                continue;
            }
            let cg = match got {
                Ok(cg) => cg,
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "{} cliques within limit {limit} refused at threads={threads}: {e:?}",
                        full.num_cliques()
                    )))
                }
            };
            prop_assert_eq!(cg.num_cliques(), full.num_cliques(), "threads={}", threads);
            prop_assert_eq!(cg.num_conflicts(), full.num_conflicts(), "threads={}", threads);
            for id in 0..cg.num_cliques() as u32 {
                prop_assert_eq!(cg.clique(id), full.clique(id), "clique {}", id);
                prop_assert_eq!(cg.conflicts(id), full.conflicts(id), "conflicts of {}", id);
            }
        }
    }
}

/// Denser deterministic fixture: a community-structured social stand-in has
/// a rich clique population, exercising long inverted-index lists.
#[test]
fn social_standin_build_is_thread_invariant() {
    let g = dkc_datagen::registry::social_standin(120, 520, 13);
    let base =
        CliqueGraph::build_par(&g, 3, CliqueGraphLimits::unlimited(), ParConfig::sequential())
            .unwrap();
    for threads in [2usize, 4, 8] {
        let par = ParConfig::new(threads).with_chunk(4);
        let cg = CliqueGraph::build_par(&g, 3, CliqueGraphLimits::unlimited(), par).unwrap();
        assert_eq!(cg.num_cliques(), base.num_cliques());
        assert_eq!(cg.num_conflicts(), base.num_conflicts());
        for id in 0..cg.num_cliques() as u32 {
            assert_eq!(cg.conflicts(id), base.conflicts(id));
        }
    }
}
