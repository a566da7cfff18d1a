//! Criterion micro-bench behind Table VII: candidate-index construction
//! (Algorithm 5) from a fresh solution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkc_core::{Algo, Engine, SolveRequest};
use dkc_datagen::registry::DatasetId;
use dkc_dynamic::{CandidateIndex, SolutionState};
use dkc_graph::DynGraph;
use std::time::Duration;

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("index-build");
    group.sample_size(10).warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for (id, scale) in [(DatasetId::Hst, 1.0), (DatasetId::Fb, 0.02)] {
        let g = id.standin(scale, 42);
        for k in [3usize, 4] {
            let request = SolveRequest::new(Algo::Lp, k);
            let solution = Engine::solve(&g, request).expect("LP").solution;
            let dyn_g = DynGraph::from_csr(&g);
            let state = SolutionState::from_solution(&solution);
            group.bench_with_input(
                BenchmarkId::new(id.name(), k),
                &(&dyn_g, &state),
                |b, (dyn_g, state)| {
                    b.iter(|| CandidateIndex::build(dyn_g, state, request.par).len())
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_index_build);
criterion_main!(benches);
