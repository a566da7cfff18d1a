//! Stress tests for the dynamic maintenance machinery: random update
//! streams must preserve every invariant at every step, and the maintained
//! solution must stay comparable to a from-scratch static solve.

use dkc_clique::Clique;
use dkc_core::{approx_guarantee_holds, Algo, Engine, SolveRequest};
use dkc_dynamic::{DynamicSolver, EdgeUpdate, ServingSolver, SolutionView, UpdateStats};
use dkc_graph::{CsrGraph, NodeId};
use dkc_json::Json;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
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
    relabel(g, batches, |u| u * stride)
}

/// Renames every node id through the increasing map `f`; the graph keeps
/// `f(n - 1) + 1` nodes.
fn relabel(
    g: &CsrGraph,
    batches: &[Vec<EdgeUpdate>],
    f: impl Fn(NodeId) -> NodeId,
) -> (CsrGraph, Vec<Vec<EdgeUpdate>>) {
    let edges: Vec<_> = g.edges().into_iter().map(|(a, b)| (f(a), f(b))).collect();
    let rename = |u: &EdgeUpdate| match *u {
        EdgeUpdate::Insert(a, b) => EdgeUpdate::Insert(f(a), f(b)),
        EdgeUpdate::Delete(a, b) => EdgeUpdate::Delete(f(a), f(b)),
    };
    let n = f(g.num_nodes() as NodeId - 1) as usize + 1;
    let batches = batches.iter().map(|b| b.iter().map(rename).collect()).collect();
    (CsrGraph::from_edges(n, edges).unwrap(), batches)
}

/// The groups' JSON array through the view's cached page fragments.
fn fragments_json(v: &SolutionView) -> String {
    format!("[{}]", v.cliques_json().collect::<Vec<_>>().join(","))
}

/// The oracle: the same array rendered as a `Json` tree, the way the
/// `solution` reply was rendered before views cached page fragments.
fn tree_json<'a>(rows: impl Iterator<Item = &'a [NodeId]>) -> String {
    let rows = rows.map(|row| Json::Arr(row.iter().map(|&u| Json::u64(u as u64)).collect()));
    Json::Arr(rows.collect()).render()
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
    /// The groups' JSON array (`cliques_json`, joined).
    json: String,
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
        json: fragments_json(v),
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
    let json = tree_json(walk.iter().map(Vec::as_slice));
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
        json,
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
    let solution = solver.solution();
    prop_assert_eq!(solution.store(), &solution.sorted_store(), "solution() is in canonical order");
    Ok(seen)
}

/// A fresh solver over `solver`'s graph, solution and request (its
/// counters start at zero).
fn rebuilt_from_own_solution(solver: &DynamicSolver) -> DynamicSolver {
    let g = solver.graph().to_csr();
    DynamicSolver::from_solution_with_request(&g, solver.solution(), solver.request())
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

/// Every clique of a solver's `S`, in leader order, with its candidates
/// sorted. Candidate ids and list order depend on the index's history,
/// and no solver decision reads them, so they are left out.
fn cliques_and_candidates(solver: &DynamicSolver) -> Vec<(Vec<NodeId>, Vec<Clique>)> {
    let state = solver.state();
    state
        .iter()
        .map(|c| {
            let mut candidates = solver.index().candidates_of(c[0]);
            candidates.sort_unstable();
            (c.to_vec(), candidates)
        })
        .collect()
}

/// The serving solver and the reference agree on everything observable
/// and on every internal a decision reads: `S` in leader order, the
/// candidate set of each clique, counters and the published view.
fn check_same_solver(
    serving: &ServingSolver,
    reference: &DynamicSolver,
) -> Result<(), TestCaseError> {
    let solver = serving.solver();
    prop_assert_eq!(solver.solution(), reference.solution());
    prop_assert_eq!(cliques_and_candidates(solver), cliques_and_candidates(reference));
    prop_assert_eq!(solver.index_size(), reference.index_size());
    prop_assert_eq!(solver.stats(), reference.stats());
    prop_assert_eq!(&*serving.view(), &reference.solution_view(serving.epoch()));
    solver.validate().map_err(TestCaseError::fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The serving bootstrap (`create` and `in_memory`) yields exactly the
    /// solver of `from_scratch`. Both then stay in lockstep through
    /// node-growing batches, while the serving side is compacted, restored
    /// from its state directory (durable cases) or replaced by
    /// `import_state` of its own `export_state` (in-memory cases). The reference is never touched by any of those: a solver
    /// rebuilt from its graph and `S` at any point behaves exactly like
    /// the one that kept running, the restart and replica contract.
    #[test]
    fn serving_bootstrap_equals_from_scratch(
        g in graph_strategy(12, 40),
        batches in proptest::collection::vec(ops_strategy(18, 6), 8..14),
        actions in proptest::collection::vec(0u8..6, 14),
        k in 3usize..=4,
        durable in any::<bool>(),
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dkc_dyn_bootstrap_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::remove_dir_all(&dir).ok();
        let req = SolveRequest::new(Algo::Lp, k);
        let mut serving = if durable {
            ServingSolver::create(&dir, &g, req).unwrap()
        } else {
            ServingSolver::in_memory(&g, req).unwrap()
        };
        let mut reference = DynamicSolver::from_scratch(&g, req).unwrap();
        check_same_solver(&serving, &reference)?;
        for (i, batch) in batches.iter().enumerate() {
            let (outcome, _) = serving.apply_batch(batch).unwrap();
            prop_assert_eq!(outcome, reference.apply_batch(batch.iter().copied()));
            match actions[i] {
                1 => {
                    serving.compact().unwrap();
                }
                2 if durable => {
                    let epoch = serving.epoch();
                    drop(serving);
                    serving = ServingSolver::restore(&dir).unwrap();
                    prop_assert_eq!(serving.epoch(), epoch);
                }
                2 => {
                    let epoch = serving.epoch();
                    serving = ServingSolver::import_state(&serving.export_state()).unwrap();
                    prop_assert_eq!(serving.epoch(), epoch);
                }
                _ => {}
            }
            check_same_solver(&serving, &reference)?;
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Incrementally maintained views equal from-scratch views. Serving
    /// path: random batch splits whose inserts grow the node range, mixed
    /// with compactions and export/import round trips. Every earlier view
    /// is held to the end and must never change (copy-on-write isolation).
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
    /// that replace `S` wholesale: `rebuild` and a solver built afresh
    /// from its own graph and solution.
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
                1 => solver = rebuilt_from_own_solution(&solver),
                _ => {}
            }
            epoch += 1;
            let view = Arc::new(solver.solution_view(epoch));
            held.push((Arc::clone(&view), check_against_reference(&view, &solver)?));
            solver.validate().map_err(TestCaseError::fail)?;
        }
        check_held(&held)?;
    }

    /// Cached page text never goes stale. The bare solver publishes a view
    /// per batch through random batch splits, node-growing inserts,
    /// `rebuild`, fresh solvers built from the solution and export/import
    /// round trips;
    /// each view must render the tree oracle's bytes when published, and
    /// the retained ones again at the end, at least 20 epochs later. Most
    /// views are dropped right after their render, so the solver's pages
    /// are often unshared and written in place, which must drop their
    /// text too. The layouts put ids on both sides of 9/10, on both sides
    /// of 99,999/100,000 (behind ~97 pages that lead no group), and grow
    /// the graph up to `dkc serve`'s default growth cap.
    #[test]
    fn solution_json_equals_the_tree_rendering(
        g in graph_strategy(12, 40),
        batches in proptest::collection::vec(ops_strategy(18, 6), 22..28),
        actions in proptest::collection::vec(0u8..8, 28),
        keep in proptest::collection::vec(any::<bool>(), 28),
        k in 3usize..=4,
        layout in 0usize..3,
    ) {
        let n = g.num_nodes() as NodeId;
        // The default cap of an n-node server, max(2n, n + 1024) - 1.
        let cap = n + 1023;
        let (g, batches) = match layout {
            0 => relabel(&g, &batches, |u| u),
            1 => relabel(&g, &batches, |u| 99_990 + u),
            // Ids the graph does not have yet end exactly at the cap.
            _ => relabel(&g, &batches, |u| if u < n { u } else { cap - 17 + u }),
        };
        let oracle = |solver: &DynamicSolver| {
            let sorted = solver.solution().sorted_cliques();
            tree_json(sorted.iter().map(|c| c.as_slice()))
        };
        let mut solver = DynamicSolver::new(&g, k).unwrap();
        let first = Arc::new(solver.solution_view(0));
        let rendered = fragments_json(&first);
        prop_assert_eq!(&rendered, &oracle(&solver));
        let mut held = vec![(first, rendered)];
        for (i, batch) in batches.iter().enumerate() {
            solver.apply_batch(batch.iter().copied());
            match actions[i] {
                0 => {
                    solver.rebuild().unwrap();
                }
                1 => solver = rebuilt_from_own_solution(&solver),
                3 => {
                    let doc = ServingSolver::from_solver(solver.clone()).export_state();
                    solver = ServingSolver::import_state(&doc).unwrap().solver().clone();
                }
                _ => {}
            }
            let view = solver.solution_view(i as u64 + 1);
            let rendered = fragments_json(&view);
            prop_assert_eq!(&rendered, &oracle(&solver), "epoch {}", i + 1);
            if keep[i] {
                held.push((Arc::new(view), rendered));
            }
        }
        prop_assert!(held[0].0.epoch() + 20 <= batches.len() as u64);
        for (view, rendered) in &held {
            prop_assert_eq!(&fragments_json(view), rendered, "view of epoch {} changed", view.epoch());
        }
    }

    /// Views built from scratch render the tree oracle's bytes for every
    /// group size, `k = 1` and empty `S` included, with ids around digit
    /// and page boundaries and up to the default growth cap of a
    /// 100,001-node server (200,001).
    #[test]
    fn view_json_equals_the_tree_rendering(
        k_pick in 0usize..3,
        picks in proptest::collection::vec((0usize..17, 0u32..3), 0..40),
    ) {
        const AROUND: [NodeId; 17] = [
            0, 8, 98, 998, 1022, 1023, 2046, 9_998, 65_534, 99_998, 99_999, 100_000,
            131_070, 199_998, 199_999, 200_000, 200_001,
        ];
        let k = [1, 3, 4][k_pick];
        let ids: std::collections::BTreeSet<NodeId> =
            picks.iter().map(|&(i, d)| (AROUND[i] + d).min(200_001)).collect();
        let ids: Vec<NodeId> = ids.into_iter().collect();
        let mut s = dkc_core::Solution::new(k);
        for row in ids.chunks_exact(k) {
            s.push(dkc_clique::Clique::new(row));
        }
        let view = SolutionView::new(0, 200_002, &s, UpdateStats::default());
        let sorted = s.sorted_cliques();
        let expected = tree_json(sorted.iter().map(|c| c.as_slice()));
        prop_assert_eq!(fragments_json(&view), expected.clone());
        // A second render reads the cached text.
        prop_assert_eq!(fragments_json(&view), expected);
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
    ) {
        let dir = std::env::temp_dir().join(format!(
            "dkc_dyn_prop_{}_{:x}",
            std::process::id(),
            ops.len() * 31 + batch_size * 7 + compact_after
        ));
        std::fs::remove_dir_all(&dir).ok();
        let req = SolveRequest::new(Algo::Lp, 3);
        let mut live = ServingSolver::create(&dir, &g, req).unwrap();
        for (i, chunk) in ops.chunks(batch_size).enumerate() {
            live.apply_batch(chunk).unwrap();
            if i + 1 == compact_after {
                live.compact().unwrap();
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
