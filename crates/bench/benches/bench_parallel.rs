//! Criterion thread-scaling sweep for the `dkc-par` executor consumers:
//! counting, node scores, parallel listing, the LP solver (score pass +
//! `HeapInit`) and clique-graph conflict construction, each at
//! threads ∈ {1, 2, 4, 8} on the synthetic Watts–Strogatz sweep graphs.
//! Every parallel path is bit-identical across thread counts (enforced by
//! the test suites); this bench demonstrates the speedup side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkc_clique::{collect_kcliques, count_kcliques_parallel, node_scores_parallel};
use dkc_cliquegraph::{CliqueGraph, CliqueGraphLimits};
use dkc_core::{Algo, Engine, SolveRequest};
use dkc_datagen::watts_strogatz;
use dkc_graph::{Dag, NodeOrder, OrderingKind};
use dkc_par::ParConfig;
use std::time::Duration;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn bench_parallel(c: &mut Criterion) {
    let g = watts_strogatz(10_000, 16, 0.1, 42);
    let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));

    let mut group = c.benchmark_group("parallel/ws-10k-d16");
    group.sample_size(10).warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for threads in THREAD_SWEEP {
        let par = ParConfig::new(threads);
        group.bench_with_input(BenchmarkId::new("count/k3", threads), &par, |b, &par| {
            b.iter(|| count_kcliques_parallel(std::hint::black_box(&dag), 3, par))
        });
        group.bench_with_input(BenchmarkId::new("scores/k3", threads), &par, |b, &par| {
            b.iter(|| node_scores_parallel(std::hint::black_box(&dag), 3, par))
        });
        group.bench_with_input(BenchmarkId::new("list/k3", threads), &par, |b, &par| {
            b.iter(|| collect_kcliques(std::hint::black_box(&dag), 3, None, par).map(|s| s.len()))
        });
        group.bench_with_input(BenchmarkId::new("lp-solve/k3", threads), &par, |b, &par| {
            let req = SolveRequest::new(Algo::Lp, 3).with_par(par);
            b.iter(|| Engine::solve(std::hint::black_box(&g), req).unwrap().solution.len())
        });
        group.bench_with_input(BenchmarkId::new("cliquegraph/k3", threads), &par, |b, &par| {
            b.iter(|| {
                CliqueGraph::build_par(
                    std::hint::black_box(&g),
                    3,
                    CliqueGraphLimits::unlimited(),
                    par,
                )
                .unwrap()
                .num_conflicts()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
