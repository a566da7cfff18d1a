//! Shared configuration of the `repro` experiments.

use dkc_core::{Algo, Budget, SolveRequest};
use dkc_datagen::registry::DatasetId;
use dkc_datagen::DatasetRegistry;
use std::path::PathBuf;
use std::time::Duration;

/// Knobs shared by all experiments. Defaults are sized for a laptop run of
/// a few minutes; `--scale 1.0` approaches paper-sized inputs (hours).
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Scale applied to the stand-in datasets (1.0 = paper size).
    pub scale: f64,
    /// Seed for every generator and workload.
    pub seed: u64,
    /// Clique sizes to sweep (the paper uses 3..=6).
    pub ks: Vec<usize>,
    /// Datasets to include (None = all ten).
    pub datasets: Option<Vec<DatasetId>>,
    /// Budget for the exact MIS search before reporting OOT.
    pub opt_time_limit: Duration,
    /// Clique-storage budget before reporting OOM for GC/OPT (emulates the
    /// paper's 504 GB ceiling at laptop scale).
    pub max_stored_cliques: usize,
    /// Number of updates per dynamic workload (the paper uses 10K).
    pub updates: usize,
    /// Data directory for the dataset registry (`--data-dir`). `None`
    /// resolves every dataset in memory (no snapshot cache); `Some(dir)`
    /// caches stand-ins as `.dkcsr` snapshots under `dir/cache` and picks
    /// up real edge lists dropped into `dir`.
    pub data_dir: Option<PathBuf>,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            scale: 0.01,
            seed: 42,
            ks: vec![3, 4, 5, 6],
            datasets: None,
            opt_time_limit: Duration::from_secs(10),
            max_stored_cliques: 20_000_000,
            updates: 2_000,
            data_dir: None,
        }
    }
}

impl ReproConfig {
    /// The dataset list to run over.
    pub fn dataset_list(&self) -> Vec<DatasetId> {
        self.datasets.clone().unwrap_or_else(|| DatasetId::ALL.to_vec())
    }

    /// The dataset registry every experiment resolves graphs through —
    /// cache-backed when `--data-dir` is set, in-memory otherwise.
    pub fn registry(&self) -> DatasetRegistry {
        match &self.data_dir {
            Some(dir) => DatasetRegistry::new(dir),
            None => DatasetRegistry::in_memory(),
        }
    }

    /// Resolves one stand-in through `registry` at this config's
    /// scale/seed, panicking with context on I/O failure (experiments have
    /// no error channel — a broken data dir should fail loudly).
    pub fn graph(&self, registry: &DatasetRegistry, id: DatasetId) -> dkc_graph::CsrGraph {
        registry
            .resolve_standin(id, self.scale, self.seed)
            .unwrap_or_else(|e| panic!("resolving dataset {}: {e}", id.name()))
            .loaded
            .graph
    }

    /// The engine [`Budget`] every experiment runs under: the stored-clique
    /// and conflict budgets emulate the paper's memory ceiling (OOM), the
    /// wall-clock term its exact-search timeout (OOT). HG/L/LP ignore it
    /// by construction.
    pub fn budget(&self) -> Budget {
        Budget::unlimited()
            .with_max_cliques(self.max_stored_cliques)
            .with_max_conflicts(self.max_stored_cliques.saturating_mul(8))
            .with_mis_time_limit(self.opt_time_limit)
    }

    /// One fully-specified engine request for `(algo, k)` under this
    /// config's budget — the single construction point the experiments
    /// share instead of hand-building solvers.
    pub fn request(&self, algo: Algo, k: usize) -> SolveRequest {
        SolveRequest::new(algo, k).with_budget(self.budget())
    }

    /// Parses a comma-separated dataset filter (`"FTB,HST"`).
    pub fn parse_datasets(spec: &str) -> Result<Vec<DatasetId>, String> {
        spec.split(',').map(str::parse).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_covers_paper_sweep() {
        let c = ReproConfig::default();
        assert_eq!(c.ks, vec![3, 4, 5, 6]);
        assert_eq!(c.dataset_list().len(), 10);
    }

    #[test]
    fn dataset_filter_parsing() {
        let list = ReproConfig::parse_datasets("ftb, or").unwrap();
        assert_eq!(list, vec![DatasetId::Ftb, DatasetId::Or]);
        assert!(ReproConfig::parse_datasets("NOPE").is_err());
    }
}
