//! The static path: `Engine::solve` (LP, k = 3) and `Engine::partition_all`
//! (LP, k = 4), their correctness checks, and the traced replay of the
//! graph / clique calls LP makes.

use crate::report::Report;
use crate::trace::Tracer;
use crate::workload::{K, PARTITION_K};
use dkc_clique::node_scores_parallel;
use dkc_core::{Engine, LpRunStats, PartitionReport, SolveReport, SolveRequest};
use dkc_graph::{CsrGraph, Dag, NodeOrder, OrderingKind};
use std::time::Instant;

/// Repeated static solves of one graph.
pub struct StaticRun {
    /// Wall time of each `Engine::solve`, seconds.
    pub solve_s: Vec<f64>,
    /// Wall time of each `Engine::partition_all`, seconds.
    pub partition_s: Vec<f64>,
    /// The last solve.
    pub solve: SolveReport,
    /// The last partition.
    pub partition: PartitionReport,
}

impl StaticRun {
    /// LP run counters of the solve.
    pub fn lp(&self) -> LpRunStats {
        self.solve.lp_stats.unwrap_or_default()
    }
}

/// Alternates solve and partition until both `min_reps` and `budget_s`
/// are reached, after one untimed warm-up solve (first-touch page faults
/// of the large arrays otherwise land in the first timing). Every
/// repetition must reproduce the warm-up exactly.
pub fn repeat(
    g: &CsrGraph,
    req: SolveRequest,
    min_reps: usize,
    budget_s: f64,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<StaticRun, String> {
    let partition_req = SolveRequest { k: PARTITION_K, ..req };
    let warm = Engine::solve(g, req).map_err(|e| e.to_string())?;
    rep.attempted += 1;
    let started = Instant::now();
    let mut solve_s = Vec::new();
    let mut partition_s = Vec::new();
    let mut last: Option<(SolveReport, PartitionReport)> = None;
    while solve_s.len() < min_reps || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        let solve =
            tr.span("core.solve", 1, |_| Engine::solve(g, req)).map_err(|e| e.to_string())?;
        solve_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let partition = tr
            .span("core.partition", 1, |_| Engine::partition_all(g, partition_req))
            .map_err(|e| e.to_string())?;
        partition_s.push(t.elapsed().as_secs_f64());
        rep.attempted += 2;
        rep.check(warm.solution == solve.solution && warm.lp_stats == solve.lp_stats, || {
            "two LP solves of one graph differ".into()
        });
        if let Some((_, before)) = &last {
            rep.check(before.partition.groups == partition.partition.groups, || {
                "two partitions of one graph differ".into()
            });
        }
        last = Some((solve, partition));
    }
    let (solve, partition) = last.expect("at least one repetition");
    Ok(StaticRun { solve_s, partition_s, solve, partition })
}

/// Checks a static run: the k = 3 result is a valid, maximal disjoint
/// clique set; every partition group is a clique and every node sits in
/// exactly one group; with `one_thread`, `|S|` at one thread equals `|S|`
/// at `nproc` threads, and the one-thread solve time is returned.
pub fn check(
    g: &CsrGraph,
    run: &StaticRun,
    req: SolveRequest,
    one_thread: bool,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Option<f64> {
    let s = &run.solve.solution;
    rep.check(s.k() == K, || format!("solve returned k = {}", s.k()));
    if let Err(e) = s.verify(g) {
        rep.fail(format!("LP solution invalid: {e}"));
    }
    if let Err(e) = s.verify_maximal(g) {
        rep.fail(format!("LP solution not maximal: {e}"));
    }
    let mut seen = vec![false; g.num_nodes()];
    for group in &run.partition.partition.groups {
        let clique = group
            .iter()
            .enumerate()
            .all(|(i, &a)| group[i + 1..].iter().all(|&b| g.has_edge(a, b)));
        rep.check(clique && group.len() <= PARTITION_K, || {
            format!("partition group {group:?} is not a clique")
        });
        for &u in group {
            rep.check(!std::mem::replace(&mut seen[u as usize], true), || {
                format!("node {u} in two groups")
            });
        }
    }
    rep.check(seen.iter().all(|&x| x), || "partition leaves a node out".into());
    if !one_thread {
        return None;
    }
    let t = Instant::now();
    let single = tr.span("core.solve_1thread", 1, |_| Engine::solve(g, req.with_threads(1)));
    let single_s = t.elapsed().as_secs_f64();
    match single {
        Ok(one) => rep.check(one.solution.len() == s.len(), || {
            format!(
                "|S| is {} at one thread but {} at {} threads",
                one.solution.len(),
                s.len(),
                req.par.threads
            )
        }),
        Err(e) => rep.fail(format!("one-thread solve failed: {e}")),
    }
    Some(single_s)
}

/// What the traced replay of LP's graph and clique calls measured.
pub struct LayerReplay {
    /// Both node orderings LP computes (degeneracy, then score order).
    pub order_s: f64,
    /// Both DAG orientations.
    pub dag_s: f64,
    /// `node_scores_parallel` at `nproc` threads.
    pub scores_s: f64,
    /// The same scores call at one thread.
    pub scores_1thread_s: f64,
    /// k-cliques enumerated by the score pass.
    pub kcliques: u64,
}

/// Replays, call by call, the public graph and clique calls LP makes
/// before its selection phase, each inside its own span.
pub fn replay_layers(g: &CsrGraph, req: SolveRequest, tr: &mut Tracer) -> LayerReplay {
    let t = Instant::now();
    let order = tr.span("graph.order", 1, |_| NodeOrder::compute(g, OrderingKind::Degeneracy));
    let mut order_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dag = tr.span("graph.dag", 1, |_| Dag::from_graph(g, order));
    let mut dag_s = t.elapsed().as_secs_f64();
    // The first pass also faults in the DAG; time a second, warm one.
    let _ = node_scores_parallel(&dag, K, req.par);
    let t = Instant::now();
    let scores = tr.span("clique.scores", 1, |_| node_scores_parallel(&dag, K, req.par));
    let scores_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let single = tr.span("clique.scores_1thread", 1, |_| {
        node_scores_parallel(&dag, K, req.par.with_threads(1))
    });
    let scores_1thread_s = t.elapsed().as_secs_f64();
    assert_eq!(single, scores, "node scores must not depend on the thread count");
    drop(dag);
    let t = Instant::now();
    let order = tr.span("graph.order", 1, |_| NodeOrder::from_scores_asc(&scores));
    order_s += t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dag = tr.span("graph.dag", 1, |_| Dag::from_graph(g, order));
    dag_s += t.elapsed().as_secs_f64();
    drop(dag);
    let kcliques = scores.iter().sum::<u64>() / K as u64;
    LayerReplay { order_s, dag_s, scores_s, scores_1thread_s, kcliques }
}
