//! The dataset registry: one resolution policy for every consumer.
//!
//! The `repro` experiments, the criterion benches and the `dkc` CLI all
//! need "a graph named X". Before this module each caller regenerated the
//! synthetic stand-in on every run — at `--scale 1.0` that rebuild costs
//! far more than the experiment it feeds. [`DatasetRegistry`] resolves a
//! dataset key through one policy:
//!
//! 1. **Binary cache hit** — `<data_dir>/cache/<key>.dkcsr` exists and
//!    decodes: one sequential read, no parsing, no generation.
//! 2. **Text file** — `<data_dir>/<key>{,.txt,.edges,.el}` exists (a real
//!    KONECT/SNAP download dropped in by the user): parallel parse, then
//!    the snapshot is written back so the next run takes path 1.
//! 3. **Synthetic stand-in** — generated from the paper's Table I shapes,
//!    then written back to the cache.
//!
//! Hit/miss/write counters are kept per registry so pipelines can assert
//! "no regeneration happened" (the CI io-smoke step greps
//! [`DatasetRegistry::stats_line`]).

use std::cell::Cell;
use std::path::PathBuf;
use std::time::Duration;

use crate::registry::{DatasetId, TinyDatasetId};
use dkc_graph::io::{self, LoadedGraph};
use dkc_graph::{CsrGraph, GraphError};
use dkc_par::ParConfig;

/// Which resolution path produced a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedFrom {
    /// Decoded from the binary snapshot cache.
    SnapshotCache,
    /// Parsed from a user-supplied file in the data directory.
    TextFile,
    /// Generated as a synthetic stand-in.
    Synthetic,
}

impl std::fmt::Display for ResolvedFrom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolvedFrom::SnapshotCache => write!(f, "snapshot-cache"),
            ResolvedFrom::TextFile => write!(f, "text-file"),
            ResolvedFrom::Synthetic => write!(f, "synthetic"),
        }
    }
}

/// One resolved dataset: the graph plus its provenance.
#[derive(Debug)]
pub struct ResolvedDataset {
    /// The loaded graph (labels are dense ids for synthetic stand-ins).
    pub loaded: LoadedGraph,
    /// Which path produced it.
    pub from: ResolvedFrom,
    /// True when this resolution wrote a snapshot back to the cache.
    pub cache_written: bool,
    /// Wall-clock time of the whole resolution.
    pub elapsed: Duration,
}

/// Cumulative counters of one registry (see [`DatasetRegistry::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Resolutions served from the binary snapshot cache.
    pub snapshot_hits: u64,
    /// Resolutions that parsed a user-supplied text file.
    pub text_loads: u64,
    /// Resolutions that generated a synthetic stand-in.
    pub synthetic_builds: u64,
    /// Snapshots written back to the cache.
    pub cache_writes: u64,
    /// Cache reads or writes that failed and were skipped (corrupt or
    /// unwritable cache entries never fail a resolution).
    pub cache_errors: u64,
    /// Cache entries removed by [`DatasetRegistry::evict_standins`].
    pub evictions: u64,
}

#[derive(Default)]
struct Counters {
    snapshot_hits: Cell<u64>,
    text_loads: Cell<u64>,
    synthetic_builds: Cell<u64>,
    cache_writes: Cell<u64>,
    cache_errors: Cell<u64>,
    evictions: Cell<u64>,
}

/// Which cached stand-in snapshots [`DatasetRegistry::evict_standins`]
/// removes. Unset fields match everything, so the empty filter GC's every
/// stand-in entry; tiny-dataset entries (keys without a scale component)
/// only match when `scale` is unset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvictFilter {
    /// Restrict to one Table I dataset.
    pub dataset: Option<DatasetId>,
    /// Restrict to entries generated at this exact scale.
    pub scale: Option<f64>,
    /// Restrict to entries generated from this seed.
    pub seed: Option<u64>,
}

/// Resolves dataset names to graphs through the cache → text → synthetic
/// policy. See the module docs.
pub struct DatasetRegistry {
    data_dir: Option<PathBuf>,
    par: ParConfig,
    counters: Counters,
}

impl DatasetRegistry {
    /// A registry rooted at `data_dir`, which writes resolved graphs back
    /// to its snapshot cache.
    pub fn new<P: Into<PathBuf>>(data_dir: P) -> Self {
        DatasetRegistry {
            data_dir: Some(data_dir.into()),
            par: ParConfig::default(),
            counters: Counters::default(),
        }
    }

    /// A registry with no data directory: every resolution is synthetic
    /// and nothing touches the filesystem.
    pub fn in_memory() -> Self {
        DatasetRegistry { data_dir: None, par: ParConfig::default(), counters: Counters::default() }
    }

    /// Overrides the parallelism used for text parsing.
    pub fn with_par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }

    /// The snapshot cache path a key resolves to (`None` for in-memory
    /// registries).
    pub fn cache_path(&self, key: &str) -> Option<PathBuf> {
        self.data_dir.as_ref().map(|d| d.join("cache").join(format!("{}.dkcsr", safe_key(key))))
    }

    fn text_candidates(&self, key: &str) -> Vec<PathBuf> {
        let Some(dir) = &self.data_dir else { return Vec::new() };
        let mut stems = vec![safe_key(key)];
        // Also try the key verbatim (when it is a plain file name), so a
        // user file whose name contains characters the sanitiser rewrites
        // — "My Graph.txt" — is still found.
        if key != stems[0] && !key.contains(['/', '\\']) && !key.starts_with('.') {
            stems.push(key.to_string());
        }
        let mut candidates = Vec::new();
        for stem in &stems {
            for ext in ["txt", "edges", "el"] {
                candidates.push(dir.join(format!("{stem}.{ext}")));
            }
            candidates.push(dir.join(stem));
        }
        candidates
    }

    /// Resolves `key`, calling `gen` only when neither the cache nor a
    /// text file can supply the graph. Cache read/write failures are
    /// counted and skipped; text files that exist but do not parse are
    /// real errors and propagate.
    pub fn resolve(
        &self,
        key: &str,
        gen: impl FnOnce() -> CsrGraph,
    ) -> Result<ResolvedDataset, GraphError> {
        let start = std::time::Instant::now();
        // 1. Binary cache.
        if let Some(cache) = self.cache_path(key) {
            if cache.is_file() {
                match io::read_snapshot_path(&cache) {
                    Ok(loaded) => {
                        bump(&self.counters.snapshot_hits);
                        return Ok(ResolvedDataset {
                            loaded,
                            from: ResolvedFrom::SnapshotCache,
                            cache_written: false,
                            elapsed: start.elapsed(),
                        });
                    }
                    // A corrupt cache entry must never fail the run — fall
                    // through and regenerate (the write-back overwrites it).
                    Err(_) => bump(&self.counters.cache_errors),
                }
            }
        }
        // 2. User-supplied file (text or foreign snapshot, auto-detected).
        for candidate in self.text_candidates(key) {
            if candidate.is_file() {
                let (loaded, _report) = io::load_graph(&candidate, self.par)?;
                bump(&self.counters.text_loads);
                let cache_written = self.write_back(key, &loaded);
                return Ok(ResolvedDataset {
                    loaded,
                    from: ResolvedFrom::TextFile,
                    cache_written,
                    elapsed: start.elapsed(),
                });
            }
        }
        // 3. Synthetic stand-in.
        let loaded = LoadedGraph::identity(gen());
        bump(&self.counters.synthetic_builds);
        let cache_written = self.write_back(key, &loaded);
        Ok(ResolvedDataset {
            loaded,
            from: ResolvedFrom::Synthetic,
            cache_written,
            elapsed: start.elapsed(),
        })
    }

    /// Resolves a Table I dataset stand-in at `scale`/`seed` (the cache key
    /// embeds both, so different configurations never collide).
    pub fn resolve_standin(
        &self,
        id: DatasetId,
        scale: f64,
        seed: u64,
    ) -> Result<ResolvedDataset, GraphError> {
        self.resolve(&standin_key(id, scale, seed), || id.standin(scale, seed))
    }

    /// Resolves a Table IV tiny dataset stand-in.
    pub fn resolve_tiny(
        &self,
        id: TinyDatasetId,
        seed: u64,
    ) -> Result<ResolvedDataset, GraphError> {
        self.resolve(&format!("{}-seed{seed}", id.name().to_ascii_lowercase()), || id.standin(seed))
    }

    fn write_back(&self, key: &str, loaded: &LoadedGraph) -> bool {
        // In-memory registries have no cache to write.
        let Some(cache) = self.cache_path(key) else { return false };
        let write = || -> Result<(), GraphError> {
            if let Some(parent) = cache.parent() {
                std::fs::create_dir_all(parent)?;
            }
            io::write_snapshot_path(loaded, &cache)
        };
        match write() {
            Ok(()) => {
                bump(&self.counters.cache_writes);
                true
            }
            Err(_) => {
                bump(&self.counters.cache_errors);
                false
            }
        }
    }

    /// Removes cached stand-in snapshots matching `filter` from this
    /// registry's cache directory and returns how many entries went away —
    /// the GC path for stale scale/seed configurations that would
    /// otherwise accumulate forever. Only files following the stand-in
    /// key shape (`<name>[-s<scale>]-seed<seed>.dkcsr`) are considered;
    /// user-supplied files outside `cache/` are never touched. In-memory
    /// registries trivially evict nothing.
    pub fn evict_standins(&self, filter: &EvictFilter) -> std::io::Result<usize> {
        let Some(dir) = &self.data_dir else { return Ok(0) };
        let cache_dir = dir.join("cache");
        if !cache_dir.is_dir() {
            return Ok(0);
        }
        let mut removed = 0usize;
        for entry in std::fs::read_dir(&cache_dir)? {
            let path = entry?.path();
            let Some(stem) = path.file_name().and_then(|n| n.to_str()) else { continue };
            let Some(stem) = stem.strip_suffix(".dkcsr") else { continue };
            let Some(parsed) = parse_standin_key(stem) else { continue };
            if filter.matches(&parsed) {
                std::fs::remove_file(&path)?;
                bump(&self.counters.evictions);
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// A copy of the cumulative counters.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            snapshot_hits: self.counters.snapshot_hits.get(),
            text_loads: self.counters.text_loads.get(),
            synthetic_builds: self.counters.synthetic_builds.get(),
            cache_writes: self.counters.cache_writes.get(),
            cache_errors: self.counters.cache_errors.get(),
            evictions: self.counters.evictions.get(),
        }
    }

    /// The counters as one greppable line, e.g.
    /// `snapshot-hits=2 text-loads=0 synthetic-builds=0 cache-writes=0 cache-errors=0 evictions=0`.
    pub fn stats_line(&self) -> String {
        let s = self.stats();
        format!(
            "snapshot-hits={} text-loads={} synthetic-builds={} cache-writes={} cache-errors={} evictions={}",
            s.snapshot_hits, s.text_loads, s.synthetic_builds, s.cache_writes, s.cache_errors,
            s.evictions
        )
    }
}

/// A cache key decomposed back into its stand-in components.
#[derive(Debug, Clone, PartialEq)]
struct ParsedStandinKey {
    name: String,
    /// `None` for tiny-dataset keys, which embed no scale.
    scale: Option<f64>,
    seed: u64,
}

impl EvictFilter {
    fn matches(&self, key: &ParsedStandinKey) -> bool {
        if let Some(id) = self.dataset {
            if key.name != id.name().to_ascii_lowercase() {
                return false;
            }
        }
        if let Some(scale) = self.scale {
            if key.scale != Some(scale) {
                return false;
            }
        }
        if let Some(seed) = self.seed {
            if key.seed != seed {
                return false;
            }
        }
        true
    }
}

/// Parses `<name>[-s<scale>]-seed<seed>` (the [`standin_key`] /
/// `resolve_tiny` shapes); anything else — e.g. the cache entry of a
/// user-named dataset — returns `None` and is left alone by eviction.
fn parse_standin_key(stem: &str) -> Option<ParsedStandinKey> {
    let seed_at = stem.rfind("-seed")?;
    let seed: u64 = stem[seed_at + "-seed".len()..].parse().ok()?;
    let head = &stem[..seed_at];
    match head.rfind("-s") {
        Some(scale_at) if stem[scale_at + 2..seed_at].parse::<f64>().is_ok() => {
            let scale: f64 = stem[scale_at + 2..seed_at].parse().ok()?;
            Some(ParsedStandinKey { name: head[..scale_at].to_string(), scale: Some(scale), seed })
        }
        _ => Some(ParsedStandinKey { name: head.to_string(), scale: None, seed }),
    }
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// Keeps keys filesystem-safe: lowercase, `[a-z0-9._-]` only. When the
/// sanitiser had to rewrite characters (beyond case folding), a hash of
/// the original key is appended so distinct keys can never collide onto
/// one cache entry ("my graph" and "my-graph" stay separate datasets).
fn safe_key(key: &str) -> String {
    let lower = key.to_ascii_lowercase();
    let sanitized: String = lower
        .chars()
        .map(
            |c| if c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-' { c } else { '-' },
        )
        .collect();
    if sanitized == lower {
        sanitized
    } else {
        format!("{sanitized}-{:08x}", key_hash(&lower))
    }
}

/// FNV-1a over the lowercased key, truncated for the cache-file suffix.
fn key_hash(s: &str) -> u32 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100000001b3)) as u32
}

/// The cache key of a Table I stand-in.
pub fn standin_key(id: DatasetId, scale: f64, seed: u64) -> String {
    format!("{}-s{scale}-seed{seed}", id.name().to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dkc_registry_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cleanup(dir: &Path) {
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn synthetic_then_cache_hit() {
        let dir = temp_dir("hit");
        let reg = DatasetRegistry::new(&dir);
        let a = reg.resolve_standin(DatasetId::Ftb, 1.0, 42).unwrap();
        assert_eq!(a.from, ResolvedFrom::Synthetic);
        assert!(a.cache_written);
        let b = reg.resolve_standin(DatasetId::Ftb, 1.0, 42).unwrap();
        assert_eq!(b.from, ResolvedFrom::SnapshotCache);
        assert_eq!(a.loaded.graph, b.loaded.graph);
        let s = reg.stats();
        assert_eq!(
            (s.snapshot_hits, s.synthetic_builds, s.cache_writes, s.cache_errors),
            (1, 1, 1, 0)
        );
        assert!(reg.stats_line().contains("snapshot-hits=1"));
        cleanup(&dir);
    }

    #[test]
    fn different_scale_or_seed_gets_its_own_cache_entry() {
        let dir = temp_dir("keys");
        let reg = DatasetRegistry::new(&dir);
        let a = reg.resolve_standin(DatasetId::Ftb, 1.0, 1).unwrap();
        let b = reg.resolve_standin(DatasetId::Ftb, 1.0, 2).unwrap();
        let c = reg.resolve_standin(DatasetId::Ftb, 0.5, 1).unwrap();
        assert_eq!(reg.stats().synthetic_builds, 3);
        assert_ne!(a.loaded.graph, b.loaded.graph);
        assert_ne!(a.loaded.graph.num_nodes(), c.loaded.graph.num_nodes());
        cleanup(&dir);
    }

    #[test]
    fn user_text_file_wins_over_synthetic_and_is_cached() {
        let dir = temp_dir("text");
        std::fs::write(dir.join("mygraph.txt"), "1 2\n2 3\n3 1\n").unwrap();
        let reg = DatasetRegistry::new(&dir);
        let a = reg.resolve("mygraph", || panic!("must not generate")).unwrap();
        assert_eq!(a.from, ResolvedFrom::TextFile);
        assert_eq!(a.loaded.graph.num_edges(), 3);
        assert_eq!(a.loaded.labels, vec![1, 2, 3]);
        // Second resolution: snapshot cache, labels preserved.
        let b = reg.resolve("mygraph", || panic!("must not generate")).unwrap();
        assert_eq!(b.from, ResolvedFrom::SnapshotCache);
        assert_eq!(b.loaded.labels, a.loaded.labels);
        cleanup(&dir);
    }

    #[test]
    fn corrupt_cache_entry_falls_through_and_is_replaced() {
        let dir = temp_dir("corrupt");
        let reg = DatasetRegistry::new(&dir);
        reg.resolve_standin(DatasetId::Ftb, 1.0, 7).unwrap();
        let cache = reg.cache_path(&standin_key(DatasetId::Ftb, 1.0, 7)).unwrap();
        let mut bytes = std::fs::read(&cache).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&cache, bytes).unwrap();
        let again = reg.resolve_standin(DatasetId::Ftb, 1.0, 7).unwrap();
        assert_eq!(again.from, ResolvedFrom::Synthetic);
        assert_eq!(reg.stats().cache_errors, 1);
        // The write-back repaired the entry.
        let third = reg.resolve_standin(DatasetId::Ftb, 1.0, 7).unwrap();
        assert_eq!(third.from, ResolvedFrom::SnapshotCache);
        cleanup(&dir);
    }

    #[test]
    fn in_memory_registry_never_touches_disk() {
        let reg = DatasetRegistry::in_memory();
        let a = reg.resolve_standin(DatasetId::Ftb, 1.0, 42).unwrap();
        assert_eq!(a.from, ResolvedFrom::Synthetic);
        assert!(!a.cache_written);
        assert!(reg.cache_path("x").is_none());
        let b = reg.resolve_standin(DatasetId::Ftb, 1.0, 42).unwrap();
        assert_eq!(b.from, ResolvedFrom::Synthetic);
        assert_eq!(a.loaded.graph, b.loaded.graph, "determinism does not need the cache");
    }

    #[test]
    fn tiny_datasets_resolve_too() {
        let dir = temp_dir("tiny");
        let reg = DatasetRegistry::new(&dir);
        let a = reg.resolve_tiny(TinyDatasetId::Swallow, 42).unwrap();
        assert_eq!(a.from, ResolvedFrom::Synthetic);
        let b = reg.resolve_tiny(TinyDatasetId::Swallow, 42).unwrap();
        assert_eq!(b.from, ResolvedFrom::SnapshotCache);
        assert_eq!(a.loaded.graph, b.loaded.graph);
        cleanup(&dir);
    }

    #[test]
    fn keys_are_filesystem_safe_and_collision_free() {
        assert_eq!(standin_key(DatasetId::Or, 0.01, 42), "or-s0.01-seed42");
        // Clean keys (case folding aside) pass through unchanged.
        assert_eq!(safe_key("or-s0.01-seed42"), "or-s0.01-seed42");
        assert_eq!(safe_key("FTB"), "ftb");
        // Rewritten keys get a disambiguating hash, so distinct keys can
        // never share a cache entry.
        let spaced = safe_key("my graph");
        assert!(spaced.starts_with("my-graph-"), "{spaced}");
        assert_ne!(spaced, safe_key("my-graph"));
        assert_ne!(safe_key("FTB 1.0/й"), safe_key("FTB 1.0 й"));
        // Case variants of the same rewritten key agree.
        assert_eq!(safe_key("My Graph"), safe_key("my graph"));
    }

    #[test]
    fn evict_standins_matches_scale_and_seed() {
        let dir = temp_dir("evict");
        let reg = DatasetRegistry::new(&dir);
        reg.resolve_standin(DatasetId::Ftb, 1.0, 1).unwrap();
        reg.resolve_standin(DatasetId::Ftb, 1.0, 2).unwrap();
        reg.resolve_standin(DatasetId::Ftb, 0.5, 1).unwrap();
        reg.resolve_standin(DatasetId::Hst, 1.0, 1).unwrap();
        reg.resolve_tiny(TinyDatasetId::Swallow, 1).unwrap();

        // Seed filter: hits ftb(1.0,1), ftb(0.5,1), hst(1.0,1) and the
        // tiny swallow entry, spares ftb seed 2.
        let removed =
            reg.evict_standins(&EvictFilter { seed: Some(1), ..Default::default() }).unwrap();
        assert_eq!(removed, 4);
        assert_eq!(reg.stats().evictions, 4);
        let again = reg.resolve_standin(DatasetId::Ftb, 1.0, 2).unwrap();
        assert_eq!(again.from, ResolvedFrom::SnapshotCache, "seed 2 must survive");

        // Dataset + scale filter on the rebuilt entries.
        reg.resolve_standin(DatasetId::Ftb, 1.0, 1).unwrap();
        reg.resolve_standin(DatasetId::Ftb, 0.5, 1).unwrap();
        let removed = reg
            .evict_standins(&EvictFilter {
                dataset: Some(DatasetId::Ftb),
                scale: Some(0.5),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(removed, 1);
        // The empty filter GC's every remaining stand-in entry.
        let removed = reg.evict_standins(&EvictFilter::default()).unwrap();
        assert!(removed >= 2, "{removed}");
        assert!(reg.stats_line().contains("evictions="), "{}", reg.stats_line());
        cleanup(&dir);
    }

    #[test]
    fn evict_leaves_foreign_cache_entries_alone() {
        let dir = temp_dir("evict_foreign");
        std::fs::write(dir.join("mygraph.txt"), "1 2\n2 3\n3 1\n").unwrap();
        let reg = DatasetRegistry::new(&dir);
        reg.resolve("mygraph", || panic!("text file must win")).unwrap();
        // The user dataset's cache entry does not follow the stand-in key
        // shape, so a full GC must not touch it (nor the source file).
        assert_eq!(reg.evict_standins(&EvictFilter::default()).unwrap(), 0);
        let again = reg.resolve("mygraph", || panic!("must stay cached")).unwrap();
        assert_eq!(again.from, ResolvedFrom::SnapshotCache);
        // In-memory registries trivially evict nothing.
        assert_eq!(
            DatasetRegistry::in_memory().evict_standins(&EvictFilter::default()).unwrap(),
            0
        );
        cleanup(&dir);
    }

    #[test]
    fn standin_key_parsing_roundtrips() {
        assert_eq!(
            parse_standin_key("ftb-s0.01-seed42"),
            Some(ParsedStandinKey { name: "ftb".into(), scale: Some(0.01), seed: 42 })
        );
        assert_eq!(
            parse_standin_key("swallow-seed7"),
            Some(ParsedStandinKey { name: "swallow".into(), scale: None, seed: 7 })
        );
        assert_eq!(parse_standin_key("mygraph"), None);
        assert_eq!(parse_standin_key("weird-seedless"), None);
    }

    #[test]
    fn user_file_with_unsanitized_name_is_still_found() {
        let dir = temp_dir("rawname");
        std::fs::write(dir.join("My Graph.txt"), "1 2\n2 3\n").unwrap();
        let reg = DatasetRegistry::new(&dir);
        let a = reg.resolve("My Graph", || panic!("text file must win")).unwrap();
        assert_eq!(a.from, ResolvedFrom::TextFile);
        assert_eq!(a.loaded.graph.num_edges(), 2);
        cleanup(&dir);
    }
}
