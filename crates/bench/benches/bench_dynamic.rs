//! Criterion micro-bench behind Fig. 7 and the serving layer: per-update
//! cost of dynamic maintenance, `apply_batch` throughput as a function of
//! batch size, and the overhead of publishing an epoch snapshot per batch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkc_core::{Algo, SolveRequest};
use dkc_datagen::registry::DatasetId;
use dkc_datagen::watts_strogatz;
use dkc_datagen::workload::sample_edges;
use dkc_dynamic::{DynamicSolver, EdgeUpdate, ServingSolver};
use std::time::Duration;

fn bench_updates(c: &mut Criterion) {
    let g = DatasetId::Hst.standin(1.0, 42);
    let victims = sample_edges(&g, 64, 7);

    let mut group = c.benchmark_group("dynamic/HST");
    group.sample_size(10).warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for k in [3usize, 4] {
        // Churn: delete the victim set and re-insert it; the amortised cost
        // per update is elapsed / (2 * |victims|).
        group.bench_with_input(BenchmarkId::new("churn", k), &k, |b, &k| {
            let solver = DynamicSolver::new(&g, k).expect("bootstrap");
            b.iter_batched(
                || solver.clone(),
                |mut s| {
                    for &(a, bb) in &victims {
                        s.delete_edge(a, bb);
                    }
                    for &(a, bb) in &victims {
                        s.insert_edge(a, bb);
                    }
                    s.len()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// `apply_batch` throughput vs batch size on WS-10k: the same churn
/// workload (delete + re-insert a victim set) fed through the serving
/// entry point in batches of 1 / 64 / 4096. Small batches pay one epoch
/// publication per update; large ones amortise it.
fn bench_apply_batch(c: &mut Criterion) {
    let g = watts_strogatz(10_000, 16, 0.1, 42);
    let victims = sample_edges(&g, 2048, 11);
    let churn: Vec<EdgeUpdate> = victims
        .iter()
        .map(|&(a, b)| EdgeUpdate::Delete(a, b))
        .chain(victims.iter().map(|&(a, b)| EdgeUpdate::Insert(a, b)))
        .collect();

    let mut group = c.benchmark_group("dynamic/ws-10k/apply_batch");
    group.sample_size(10).warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).expect("bootstrap");
    for batch in [1usize, 64, 4096] {
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            b.iter_batched(
                || ServingSolver::from_solver(serving.solver().clone()),
                |mut s| {
                    for chunk in churn.chunks(batch) {
                        s.apply_batch(chunk).expect("in-memory apply");
                    }
                    s.view().epoch()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Snapshot-publication overhead on WS-10k: the cost of publishing one
/// canonical `SolutionView` from the live solver (cloning its page
/// tables) — the extra work every published epoch pays on top of the raw
/// `apply_batch`.
fn bench_publish(c: &mut Criterion) {
    let g = watts_strogatz(10_000, 16, 0.1, 42);
    let solver = DynamicSolver::new(&g, 3).expect("bootstrap");

    let mut group = c.benchmark_group("dynamic/ws-10k/publish");
    group.sample_size(10).warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.bench_function("solution_view", |b| {
        b.iter(|| std::hint::black_box(&solver).solution_view(1).len())
    });
    // The raw batch application without any view building, for the
    // subtraction: publication overhead ≈ batch(64) − raw.
    let victims = sample_edges(&g, 64, 13);
    let churn: Vec<EdgeUpdate> = victims
        .iter()
        .map(|&(a, b)| EdgeUpdate::Delete(a, b))
        .chain(victims.iter().map(|&(a, b)| EdgeUpdate::Insert(a, b)))
        .collect();
    group.bench_function("raw_apply_batch_128", |b| {
        b.iter_batched(
            || solver.clone(),
            |mut s| s.apply_batch(churn.iter().copied()).applied,
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_bootstrap(c: &mut Criterion) {
    let g = DatasetId::Hst.standin(1.0, 42);
    let mut group = c.benchmark_group("dynamic/bootstrap");
    group.sample_size(10).warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for k in [3usize, 4] {
        group.bench_with_input(BenchmarkId::new("HST", k), &k, |b, &k| {
            b.iter(|| DynamicSolver::new(std::hint::black_box(&g), k).unwrap().len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_updates, bench_apply_batch, bench_publish, bench_bootstrap);
criterion_main!(benches);
