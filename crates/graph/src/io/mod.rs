//! Graph ingestion: text edge lists, binary CSR snapshots, and the
//! format-detecting loader.
//!
//! The paper's datasets come from KONECT and the Network Repository, which
//! ship whitespace-separated edge lists with `%` / `#` comment headers and
//! optional weight/timestamp columns. Parsing those at LiveJournal/Orkut
//! scale is itself a bottleneck, so ingestion is layered:
//!
//! * [`text`] — a chunked edge-list parser that byte-splits the input at
//!   line boundaries and parses chunks in parallel on the deterministic
//!   `dkc-par` executor. The merged result (graph, dense relabelling and
//!   error reporting included) is bit-identical to a sequential parse for
//!   any thread count or chunk size.
//! * [`snapshot`] — a versioned, checksummed binary CSR format (`.dkcsr`)
//!   so a graph parsed once can be reloaded with a single read and a
//!   linear decode (its checksum verified alongside), skipping tokenising,
//!   interning and CSR construction entirely.
//! * [`load_graph`] — reads a file once and dispatches on the magic bytes,
//!   so every consumer accepts either format transparently.
//!
//! [`read_edge_list`] accepts the KONECT format, remaps arbitrary
//! (possibly sparse, 1-based) node labels onto dense `0..n` ids, and
//! returns the mapping so results can be reported in the original
//! labelling.

use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

use crate::{CsrGraph, GraphError, NodeId};
use dkc_par::ParConfig;

pub mod snapshot;
pub mod text;

pub use snapshot::{
    is_snapshot_bytes, read_snapshot, read_snapshot_bytes, read_snapshot_path, write_csr_snapshot,
    write_csr_snapshot_path, write_snapshot, write_snapshot_path, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use text::{
    parse_edge_list, parse_edge_list_chunked, parse_edge_list_sharded, read_edge_list,
    read_edge_list_from, read_edge_list_parallel, read_edge_list_str, write_edge_list,
    write_edge_list_labeled, write_edge_list_path, LoadStats, DEFAULT_INTERN_SHARDS,
};

/// Result of loading a graph: the dense graph plus the original node labels
/// and an O(1) label→id lookup.
///
/// Construction goes through [`LoadedGraph::new`] / [`LoadedGraph::identity`]
/// (or the loaders). Identity labels (`labels[u] == u`, the case for
/// synthetic graphs and label-free snapshots) need no index: the lookup is
/// a range check. Any other label table gets a `HashMap` index. The
/// `graph`/`labels` fields stay `pub` for ergonomic read access;
/// *mutating* `labels` in place desyncs [`LoadedGraph::node_for_label`] and
/// [`LoadedGraph::labels_are_identity`] — rebuild via [`LoadedGraph::new`]
/// instead.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The dense, simple graph.
    pub graph: CsrGraph,
    /// `labels[u]` is the label the input file used for dense node `u`.
    pub labels: Vec<u64>,
    /// Inverse of `labels`: first-occurrence label → dense id. `None` when
    /// the labels are the identity, whose inverse needs no table.
    index: Option<HashMap<u64, NodeId>>,
}

/// True when `labels[u] == u` for every `u`.
fn is_identity(labels: &[u64]) -> bool {
    labels.iter().enumerate().all(|(i, &l)| l == i as u64)
}

impl LoadedGraph {
    /// Wraps a graph and its label table, building the label→id index
    /// unless the labels are the identity (one linear scan decides).
    /// When a label appears more than once in `labels`, the *first*
    /// position wins — the behaviour the old linear scan had.
    pub fn new(graph: CsrGraph, labels: Vec<u64>) -> Self {
        let index = (!is_identity(&labels)).then(|| {
            let mut index = HashMap::with_capacity(labels.len());
            for (i, &l) in labels.iter().enumerate() {
                index.entry(l).or_insert(i as NodeId);
            }
            index
        });
        LoadedGraph { graph, labels, index }
    }

    /// Wraps a graph whose labels are its dense ids (`labels[u] == u`), the
    /// case for synthetic graphs and label-free snapshots. Builds no index.
    pub fn identity(graph: CsrGraph) -> Self {
        let labels: Vec<u64> = (0..graph.num_nodes() as u64).collect();
        LoadedGraph { graph, labels, index: None }
    }

    /// Wraps a label table whose first-occurrence index the caller already
    /// built; the index is dropped when the labels are the identity.
    pub(crate) fn from_parts(
        graph: CsrGraph,
        labels: Vec<u64>,
        index: HashMap<u64, NodeId>,
    ) -> Self {
        let index = (!is_identity(&labels)).then_some(index);
        LoadedGraph { graph, labels, index }
    }

    /// Looks up the dense id of an original label in `O(1)`.
    pub fn node_for_label(&self, label: u64) -> Option<NodeId> {
        match &self.index {
            Some(index) => index.get(&label).copied(),
            None => (label < self.labels.len() as u64).then_some(label as NodeId),
        }
    }

    /// True when the labels are exactly the dense ids, in `O(1)`.
    pub fn labels_are_identity(&self) -> bool {
        self.index.is_none()
    }
}

/// How [`load_graph`] obtained a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSource {
    /// Parsed from a text edge list.
    Text,
    /// Decoded from a binary `.dkcsr` snapshot.
    Snapshot,
}

impl std::fmt::Display for LoadSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadSource::Text => write!(f, "text"),
            LoadSource::Snapshot => write!(f, "snapshot"),
        }
    }
}

/// Provenance of one [`load_graph`] call, for `dkc stats`-style reporting.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Which path produced the graph.
    pub source: LoadSource,
    /// Bytes read from disk.
    pub bytes: u64,
    /// Text-parse statistics (`None` for snapshot loads).
    pub stats: Option<LoadStats>,
    /// Whether the file bytes came from a zero-copy memory mapping
    /// (`dkc-mmap`) rather than a buffered read.
    pub mapped: bool,
    /// Wall-clock time for the whole load (read + parse/decode + build).
    pub elapsed: Duration,
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "source={} bytes={}{} ({:.1} ms)",
            self.source,
            self.bytes,
            if self.mapped { " mmap" } else { "" },
            self.elapsed.as_secs_f64() * 1e3
        )?;
        if let Some(s) = &self.stats {
            write!(f, " {s}")?;
        }
        Ok(())
    }
}

/// Loads a graph file of either supported format.
///
/// The file is memory-mapped when the platform allows it (zero-copy: the
/// decode reads straight from the page cache) and read into memory
/// otherwise; the first bytes decide the format ([`SNAPSHOT_MAGIC`] →
/// snapshot decode, its checksum alongside on `par`; anything else →
/// parallel text parse on `par`). Returns
/// the graph together with a [`LoadReport`] describing which path ran and
/// how long it took.
pub fn load_graph<P: AsRef<Path>>(
    path: P,
    par: ParConfig,
) -> Result<(LoadedGraph, LoadReport), GraphError> {
    let start = std::time::Instant::now();
    let path = path.as_ref();
    // Mapping failures (exotic filesystems, non-Unix) fall back to the
    // buffered read; decode errors are real and propagate either way,
    // since both paths see the identical bytes.
    let mapping = std::fs::File::open(path).ok().and_then(|f| dkc_mmap::Mmap::map(&f).ok());
    let buffered;
    let (bytes, mapped): (&[u8], bool) = match &mapping {
        Some(map) => (map, true),
        None => {
            buffered = std::fs::read(path)?;
            (&buffered, false)
        }
    };
    let (loaded, source, stats) = if is_snapshot_bytes(bytes) {
        (snapshot::read_snapshot_bytes_with(bytes, par)?, LoadSource::Snapshot, None)
    } else {
        let (loaded, stats) = text::parse_edge_list(bytes, par)?;
        (loaded, LoadSource::Text, Some(stats))
    };
    let report =
        LoadReport { source, bytes: bytes.len() as u64, stats, mapped, elapsed: start.elapsed() };
    Ok((loaded, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dkc_io_{}_{tag}", std::process::id()))
    }

    #[test]
    fn label_index_is_first_wins_and_o1() {
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        let loaded = LoadedGraph::new(g.clone(), vec![10, 20, 10]);
        assert_eq!(loaded.node_for_label(10), Some(0), "ties resolve to the first position");
        assert_eq!(loaded.node_for_label(20), Some(1));
        assert_eq!(loaded.node_for_label(99), None);
        let id = LoadedGraph::identity(g);
        assert!(id.labels_are_identity());
        assert_eq!(id.node_for_label(2), Some(2));
    }

    #[test]
    fn identity_labels_need_no_index_and_others_keep_first_occurrence() {
        let g = CsrGraph::from_edges(3, vec![(0, 1), (1, 2)]).unwrap();
        for loaded in [LoadedGraph::identity(g.clone()), LoadedGraph::new(g.clone(), vec![0, 1, 2])]
        {
            assert!(loaded.index.is_none(), "identity labels build no index");
            assert!(loaded.labels_are_identity());
            assert_eq!(loaded.node_for_label(2), Some(2));
            assert_eq!(loaded.node_for_label(3), None);
            assert_eq!(loaded.node_for_label(u64::MAX), None);
        }
        // A permutation of the ids, or a duplicate, is not the identity.
        for (labels, id_of_1) in [(vec![1, 0, 2], 0), (vec![0, 1, 1], 1)] {
            let loaded = LoadedGraph::new(g.clone(), labels);
            assert!(!loaded.labels_are_identity());
            assert_eq!(loaded.node_for_label(1), Some(id_of_1));
            assert_eq!(loaded.node_for_label(3), None);
        }
        // Text loads: dense labels in first-occurrence order are the
        // identity; anything else keeps its index and first-occurrence ids.
        let dense = text::read_edge_list_str("0 1\n1 2\n2 0\n").unwrap();
        assert!(dense.labels_are_identity());
        assert_eq!(dense.node_for_label(3), None);
        let sparse = text::read_edge_list_str("7 3\n3 9\n9 7\n").unwrap();
        assert!(!sparse.labels_are_identity());
        assert_eq!(sparse.labels, vec![7, 3, 9]);
        for (l, id) in [(7, 0), (3, 1), (9, 2)] {
            assert_eq!(sparse.node_for_label(l), Some(id));
        }
        assert_eq!(sparse.node_for_label(0), None);
    }

    #[test]
    fn load_graph_detects_both_formats() {
        let text_path = temp_path("detect.txt");
        let snap_path = temp_path("detect.dkcsr");
        std::fs::write(&text_path, "1 2\n2 3\n3 1\n").unwrap();
        let (from_text, report) = load_graph(&text_path, ParConfig::sequential()).unwrap();
        assert_eq!(report.source, LoadSource::Text);
        assert!(report.stats.is_some());
        assert!(report.to_string().contains("source=text"));

        write_snapshot_path(&from_text, &snap_path).unwrap();
        let (from_snap, report) = load_graph(&snap_path, ParConfig::sequential()).unwrap();
        assert_eq!(report.source, LoadSource::Snapshot);
        assert!(report.stats.is_none());
        if cfg!(unix) {
            assert!(report.mapped, "snapshot loads memory-map on Unix");
            assert!(report.to_string().contains("mmap"));
        }
        assert_eq!(from_snap.graph, from_text.graph);
        assert_eq!(from_snap.labels, from_text.labels);

        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn load_graph_missing_file_is_io_error() {
        let err = load_graph("/definitely/not/here.txt", ParConfig::sequential()).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}
