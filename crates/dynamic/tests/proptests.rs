//! Stress tests for the dynamic maintenance machinery: random update
//! streams must preserve every invariant at every step, and the maintained
//! solution must stay comparable to a from-scratch static solve.

use dkc_core::{approx_guarantee_holds, Algo, Engine, SolveRequest};
use dkc_dynamic::{DynamicSolver, EdgeUpdate, ServingSolver, SolutionView, UpdateStats};
use dkc_graph::{CsrGraph, NodeId};
use proptest::prelude::*;
use std::sync::Arc;

fn graph_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = CsrGraph> {
    (6..=max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_m)
            .prop_map(move |edges| CsrGraph::from_edges(n as usize, edges).unwrap())
    })
}

/// A raw op stream including duplicate inserts and missing deletes (the
/// generator does not look at the graph, so no-ops are common).
fn ops_strategy(max_node: u32, max_len: usize) -> impl Strategy<Value = Vec<EdgeUpdate>> {
    proptest::collection::vec((any::<bool>(), 0..max_node, 0..max_node), 1..max_len).prop_map(
        |raw| {
            raw.into_iter()
                .filter(|&(_, a, b)| a != b)
                .map(
                    |(ins, a, b)| {
                        if ins {
                            EdgeUpdate::Insert(a, b)
                        } else {
                            EdgeUpdate::Delete(a, b)
                        }
                    },
                )
                .collect()
        },
    )
}

/// Spreads node ids `stride` apart (`u ↦ u · stride`), so a small graph
/// and its update stream span many view pages.
fn spread_out(
    g: &CsrGraph,
    batches: &[Vec<EdgeUpdate>],
    stride: u32,
) -> (CsrGraph, Vec<Vec<EdgeUpdate>>) {
    let edges: Vec<_> = g.edges().into_iter().map(|(a, b)| (a * stride, b * stride)).collect();
    let spread = |u: &EdgeUpdate| match *u {
        EdgeUpdate::Insert(a, b) => EdgeUpdate::Insert(a * stride, b * stride),
        EdgeUpdate::Delete(a, b) => EdgeUpdate::Delete(a * stride, b * stride),
    };
    let n = (g.num_nodes() - 1) * stride as usize + 1;
    let batches = batches.iter().map(|b| b.iter().map(spread).collect()).collect();
    (CsrGraph::from_edges(n, edges).unwrap(), batches)
}

/// Everything a reader can observe of a view, as owned data: a deep copy
/// that shares nothing with the view's pages.
#[derive(Debug, PartialEq)]
struct Observed {
    epoch: u64,
    num_nodes: usize,
    k: usize,
    len: usize,
    covered_nodes: usize,
    stats: UpdateStats,
    /// `group_of(u)` and `members_of(u)` for every node and one past the range.
    group_of: Vec<(Option<usize>, Option<Vec<NodeId>>)>,
    /// `group(i)` for every index and one past the end.
    groups: Vec<Option<Vec<NodeId>>>,
    /// The canonical iteration.
    walk: Vec<Vec<NodeId>>,
}

fn observe(v: &SolutionView) -> Observed {
    Observed {
        epoch: v.epoch(),
        num_nodes: v.num_nodes(),
        k: v.k(),
        len: v.len(),
        covered_nodes: v.covered_nodes(),
        stats: *v.stats(),
        group_of: (0..=v.num_nodes() as NodeId)
            .map(|u| (v.group_of(u), v.members_of(u).map(<[NodeId]>::to_vec)))
            .collect(),
        groups: (0..=v.len()).map(|i| v.group(i).map(<[NodeId]>::to_vec)).collect(),
        walk: v.cliques().map(<[NodeId]>::to_vec).collect(),
    }
}

/// What a view of the solver's current state must show, computed from
/// the sorted cliques alone — no view code involved.
fn model(epoch: u64, solver: &DynamicSolver) -> Observed {
    let n = solver.graph().num_nodes();
    let walk: Vec<Vec<NodeId>> =
        solver.solution().sorted_cliques().iter().map(|c| c.as_slice().to_vec()).collect();
    let mut group_of = vec![(None, None); n + 1];
    for (i, row) in walk.iter().enumerate() {
        for &u in row {
            group_of[u as usize] = (Some(i), Some(row.clone()));
        }
    }
    let mut groups: Vec<Option<Vec<NodeId>>> = walk.iter().cloned().map(Some).collect();
    groups.push(None);
    Observed {
        epoch,
        num_nodes: n,
        k: solver.k(),
        len: walk.len(),
        covered_nodes: walk.len() * solver.k(),
        stats: *solver.stats(),
        group_of,
        groups,
        walk,
    }
}

/// Checks a published view against the from-scratch reference built from
/// the solver's own solution and against the plain model, then returns
/// its deep copy.
fn check_against_reference(
    view: &SolutionView,
    solver: &DynamicSolver,
) -> Result<Observed, TestCaseError> {
    let reference = SolutionView::new(
        view.epoch(),
        solver.graph().num_nodes(),
        &solver.solution(),
        *solver.stats(),
    );
    let seen = observe(view);
    prop_assert_eq!(&seen, &observe(&reference));
    prop_assert_eq!(&seen, &model(view.epoch(), solver));
    prop_assert_eq!(view, &reference);
    let canonical = solver.canonical_solution();
    prop_assert_eq!(canonical.store(), &solver.solution().sorted_store());
    Ok(seen)
}

/// Every view held since its publication still equals its deep copy.
fn check_held(held: &[(Arc<SolutionView>, Observed)]) -> Result<(), TestCaseError> {
    let last = held.last().map_or(0, |(v, _)| v.epoch());
    prop_assert!(held[0].0.epoch() + 20 <= last, "the first view must be held 20 epochs");
    for (view, copy) in held {
        prop_assert_eq!(&observe(view), copy, "view of epoch {} changed", view.epoch());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Incrementally maintained views equal from-scratch views. Serving
    /// path: random batch splits whose inserts grow the node range, mixed
    /// with improvement slices, compactions and export/import round
    /// trips. Every earlier view is held to the end and must never change
    /// (copy-on-write isolation).
    #[test]
    fn serving_views_equal_from_scratch_views(
        g in graph_strategy(12, 40),
        batches in proptest::collection::vec(ops_strategy(18, 6), 22..28),
        actions in proptest::collection::vec(0u8..6, 28),
        k in 3usize..=4,
        wide in any::<bool>(),
    ) {
        // Wide cases spread the nodes over up to six pages, about three
        // per page.
        let (g, batches) = spread_out(&g, &batches, if wide { 331 } else { 1 });
        let mut serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, k)).unwrap();
        let first = serving.view();
        let seen = check_against_reference(&first, serving.solver())?;
        let mut held = vec![(Arc::clone(&first), seen)];
        for (i, batch) in batches.iter().enumerate() {
            let (_, view) = serving.apply_batch(batch).unwrap();
            held.push((Arc::clone(&view), check_against_reference(&view, serving.solver())?));
            let view = match actions[i] {
                0 => serving.improve(16, i as u64).unwrap().1,
                1 => {
                    serving.compact().unwrap();
                    serving.view()
                }
                2 => {
                    let doc = serving.export_state();
                    let imported = ServingSolver::import_state(&doc).unwrap();
                    prop_assert_eq!(&*imported.view(), &*serving.view());
                    prop_assert_eq!(observe(&imported.view()), observe(&serving.view()));
                    serving.view()
                }
                _ => continue,
            };
            held.push((Arc::clone(&view), check_against_reference(&view, serving.solver())?));
        }
        check_held(&held)?;
    }

    /// The same equivalence on the bare solver, through the operations
    /// that re-slot `S`: `rebuild`, `canonicalize` and `improve`.
    #[test]
    fn solver_views_track_reslotting(
        g in graph_strategy(12, 40),
        batches in proptest::collection::vec(ops_strategy(18, 6), 22..28),
        actions in proptest::collection::vec(0u8..6, 28),
        k in 3usize..=4,
        wide in any::<bool>(),
    ) {
        // Wide cases spread the nodes over up to six pages, about three
        // per page.
        let (g, batches) = spread_out(&g, &batches, if wide { 331 } else { 1 });
        let mut solver = DynamicSolver::new(&g, k).unwrap();
        let mut epoch = 0;
        let first = Arc::new(solver.solution_view(epoch));
        let mut held = vec![(Arc::clone(&first), check_against_reference(&first, &solver)?)];
        for (i, batch) in batches.iter().enumerate() {
            solver.apply_batch(batch.iter().copied());
            match actions[i] {
                0 => {
                    solver.rebuild().unwrap();
                }
                1 => solver.canonicalize(),
                2 => {
                    solver.improve(16, i as u64);
                }
                _ => {}
            }
            epoch += 1;
            let view = Arc::new(solver.solution_view(epoch));
            held.push((Arc::clone(&view), check_against_reference(&view, &solver)?));
            solver.validate().map_err(TestCaseError::fail)?;
        }
        check_held(&held)?;
    }

    /// The heavyweight invariant check: after EVERY update the solution is
    /// valid, maximal, and the incremental index equals a fresh Algorithm 5
    /// run.
    #[test]
    fn invariants_hold_after_every_update(
        g in graph_strategy(14, 40),
        ops in proptest::collection::vec((any::<bool>(), 0u32..14, 0u32..14), 1..40),
        k in 3usize..=4,
    ) {
        let mut solver = DynamicSolver::new(&g, k).unwrap();
        solver.validate().map_err(TestCaseError::fail)?;
        for (insert, a, b) in ops {
            let (a, b) = (a.min(13), b.min(13));
            if insert {
                solver.insert_edge(a, b);
            } else {
                solver.delete_edge(a, b);
            }
            solver.validate().map_err(|e| {
                TestCaseError::fail(format!(
                    "after {} ({a},{b}): {e}",
                    if insert { "insert" } else { "delete" }
                ))
            })?;
        }
    }

    /// After a random stream, the maintained |S| must be a k-approximation
    /// of the true optimum on the final graph (it is maximal, so Theorem 3
    /// applies), and within the same guarantee band as a static LP run.
    #[test]
    fn final_quality_is_k_approximate(
        g in graph_strategy(12, 35),
        ops in proptest::collection::vec((any::<bool>(), 0u32..12, 0u32..12), 1..25),
    ) {
        let k = 3;
        let mut solver = DynamicSolver::new(&g, k).unwrap();
        for (insert, a, b) in ops {
            if insert {
                solver.insert_edge(a, b);
            } else {
                solver.delete_edge(a, b);
            }
        }
        let final_graph = solver.graph().to_csr();
        let opt = Engine::solve(&final_graph, SolveRequest::new(Algo::Opt, k)).unwrap().solution;
        prop_assert!(
            approx_guarantee_holds(opt.len(), solver.len(), k),
            "dynamic |S| = {} vs OPT = {}",
            solver.len(),
            opt.len()
        );
        // A static LP re-solve (the rebuild path) is also maximal; both
        // sit in [opt/k, opt].
        let mut rebuilt = solver.clone();
        let static_lp = rebuilt.rebuild().unwrap().solution;
        prop_assert_eq!(rebuilt.len(), static_lp.len());
        prop_assert!(approx_guarantee_holds(opt.len(), static_lp.len(), k));
    }

    /// `apply_batch` ≡ the same updates applied one `apply` at a time:
    /// same final graph, same solution, same `UpdateStats` deltas, same
    /// aggregated outcome — for any batch split, duplicate-insert and
    /// missing-delete no-ops included.
    #[test]
    fn apply_batch_equals_single_applies(
        g in graph_strategy(12, 40),
        ops in ops_strategy(12, 48),
        batch_size in 1usize..16,
    ) {
        let k = 3;
        let mut batched = DynamicSolver::new(&g, k).unwrap();
        let mut single = batched.clone();
        let base_stats = *batched.stats();
        let mut applied_total = 0u64;
        for chunk in ops.chunks(batch_size) {
            let out = batched.apply_batch(chunk.iter().copied());
            let mut applied = 0usize;
            let mut skipped = 0usize;
            let mut size_delta = 0i64;
            for &u in chunk {
                let r = single.apply(u);
                if r.applied { applied += 1 } else { skipped += 1 }
                size_delta += r.size_delta;
            }
            prop_assert_eq!(out.applied, applied);
            prop_assert_eq!(out.skipped, skipped);
            prop_assert_eq!(out.size_delta, size_delta);
            applied_total += applied as u64;
        }
        prop_assert_eq!(batched.graph().to_csr(), single.graph().to_csr());
        prop_assert_eq!(batched.solution().sorted_cliques(), single.solution().sorted_cliques());
        prop_assert_eq!(batched.stats(), single.stats());
        // The stats deltas account exactly for the non-no-op updates.
        let applied_inserts = batched.stats().insertions - base_stats.insertions;
        let applied_deletes = batched.stats().deletions - base_stats.deletions;
        prop_assert_eq!(applied_inserts + applied_deletes, applied_total);
        batched.validate().map_err(TestCaseError::fail)?;
        single.validate().map_err(TestCaseError::fail)?;
    }

    /// The serving wrapper's durability contract: kill at any point (with
    /// or without an intervening compaction) and restore — the published
    /// view (epoch, |S|, membership, stats) is identical to the live one,
    /// and further updates keep both in lockstep.
    #[test]
    fn serving_restore_equals_live(
        g in graph_strategy(12, 40),
        ops in ops_strategy(12, 36),
        batch_size in 1usize..8,
        compact_after in 0usize..6,
        improve_every in 0usize..4,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "dkc_dyn_prop_{}_{:x}",
            std::process::id(),
            ops.len() * 31 + batch_size * 7 + compact_after + improve_every * 131
        ));
        std::fs::remove_dir_all(&dir).ok();
        let req = SolveRequest::new(Algo::Lp, 3);
        let mut live = ServingSolver::create(&dir, &g, req).unwrap();
        for (i, chunk) in ops.chunks(batch_size).enumerate() {
            live.apply_batch(chunk).unwrap();
            if i + 1 == compact_after {
                live.compact().unwrap();
            }
            // Background-improvement slices interleave with batches in
            // production; the journal must replay them in sequence too.
            if improve_every > 0 && i % improve_every == 0 {
                live.improve(16, i as u64).unwrap();
            }
        }
        let live_view = live.view();
        drop(live); // kill without further compaction
        let restored = ServingSolver::restore(&dir).unwrap();
        prop_assert_eq!(&*restored.view(), &*live_view);
        restored.solver().validate().map_err(TestCaseError::fail)?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Deleting and re-inserting the same edge returns to a state with at
    /// least the original solution size (swaps may have found a better one).
    #[test]
    fn delete_insert_roundtrip_never_degrades(
        g in graph_strategy(14, 50),
    ) {
        let k = 3;
        let mut solver = DynamicSolver::new(&g, k).unwrap();
        let baseline = solver.len();
        let edges = g.edges();
        for &(a, b) in edges.iter().take(10) {
            solver.delete_edge(a, b);
            solver.insert_edge(a, b);
        }
        prop_assert!(
            solver.len() >= baseline,
            "round-trip shrank |S|: {} -> {}",
            baseline,
            solver.len()
        );
        solver.validate().map_err(TestCaseError::fail)?;
    }
}
