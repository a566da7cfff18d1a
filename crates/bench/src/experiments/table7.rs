//! **Table VII** — indexing time and index size of the candidate-clique
//! index (Algorithm 5).

use crate::config::ReproConfig;
use crate::table::Table;
use crate::{human_count, timed};
use dkc_core::{Algo, Engine};
use dkc_dynamic::{CandidateIndex, SolutionState};
use dkc_graph::DynGraph;

/// Builds the index for every (dataset, k) and reports time + size.
pub fn run(cfg: &ReproConfig) -> String {
    let mut headers: Vec<String> = vec!["Dataset".into()];
    for k in &cfg.ks {
        headers.push(format!("k={k} time(ms)"));
    }
    for k in &cfg.ks {
        headers.push(format!("k={k} size"));
    }
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("Table VII: indexing time and index size", &headers_ref);
    let registry = cfg.registry();
    for id in cfg.dataset_list() {
        let g = cfg.graph(&registry, id);
        let mut times = Vec::new();
        let mut sizes = Vec::new();
        for &k in &cfg.ks {
            let request = cfg.request(Algo::Lp, k);
            let solution = Engine::solve(&g, request).expect("LP solve").solution;
            let dyn_g = DynGraph::from_csr(&g);
            let state = SolutionState::from_solution(&solution);
            let (index, elapsed) = timed(|| CandidateIndex::build(&dyn_g, &state, request.par));
            times.push(format!("{:.1}", elapsed.as_secs_f64() * 1e3));
            sizes.push(human_count(index.len() as u64));
        }
        let mut row = vec![id.name().to_string()];
        row.extend(times);
        row.extend(sizes);
        t.add_row(row);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_datagen::registry::DatasetId;

    #[test]
    fn reports_time_and_size_columns() {
        let cfg = ReproConfig {
            scale: 0.5,
            datasets: Some(vec![DatasetId::Ftb]),
            ks: vec![3],
            ..Default::default()
        };
        let text = run(&cfg);
        assert!(text.contains("Table VII"));
        assert!(text.contains("FTB"));
        assert!(text.contains("time(ms)"));
    }
}
