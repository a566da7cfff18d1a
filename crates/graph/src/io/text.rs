//! Plain-text edge-list parsing and writing.
//!
//! The parser is chunked: the input bytes are split at line boundaries into
//! roughly [`DEFAULT_PARSE_CHUNK_BYTES`]-sized chunks, each chunk is
//! tokenised independently (in parallel on the `dkc-par` executor), and the
//! per-chunk results are merged **in chunk order**. Because every line
//! belongs to exactly one chunk and the merge preserves line order, the
//! parsed edge sequence — and therefore the dense relabelling, the final
//! CSR, and even the first reported parse error — is bit-identical to a
//! sequential parse for any thread count and any chunk size.
//!
//! Self-loops (`u u` lines) are legal input but never become edges: they
//! are skipped during the merge and *counted* in [`LoadStats::self_loops`],
//! so data-quality problems are visible instead of silently relying on the
//! CSR builder's dedup. A node that appears only in self-loops still
//! receives a dense id, exactly as before.
//!
//! ## The label-interning merge is parallel too
//!
//! Interning (label → dense id in first-occurrence order) was the last
//! sequential section of the parse. It runs as a deterministic sharded
//! merge (inline at one thread, where it costs the same as a sequential
//! first-occurrence loop):
//!
//! 1. **local dedup** (parallel per chunk): each chunk's distinct labels
//!    in local first-occurrence order, pre-bucketed by label hash into
//!    shards;
//! 2. **shard merge** (parallel per shard): scanning chunks in input
//!    order, the first sighting of a label *is* its globally earliest
//!    `(chunk, local-rank)` position — shards are disjoint label sets, so
//!    no cross-shard coordination is needed;
//! 3. **id assignment** (sequential, but over *distinct labels*, not all
//!    pairs): sort the winners by position — exactly the sequential
//!    first-occurrence order — and build the label table;
//! 4. **translation** (parallel per chunk): map every pair through the
//!    frozen table, dropping and counting self-loops.
//!
//! The result is bit-identical to a sequential first-occurrence intern
//! loop for any thread count, chunk size and shard count —
//! property-tested in `tests/proptests.rs`, which keeps that loop as its
//! oracle.

use std::collections::{HashMap, HashSet};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::io::LoadedGraph;
use crate::{CsrGraph, Edge, GraphError, NodeId};
use dkc_par::{par_for_each_root, ParConfig};

/// Default byte size of one parse chunk. Small enough to fan out on
/// SNAP-scale files, large enough that chunk bookkeeping is noise.
pub const DEFAULT_PARSE_CHUNK_BYTES: usize = 1 << 20;

/// Default shard count of the parallel label-interning merge. Sharding is
/// a pure load-balancing knob: the result is identical for any value.
pub const DEFAULT_INTERN_SHARDS: usize = 64;

/// Statistics of one text parse, reported by `dkc stats` and the loaders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Total lines in the input (including comments and blanks).
    pub lines: usize,
    /// Comment (`%`, `#`, `//`) and blank lines skipped.
    pub comment_lines: usize,
    /// Edge records parsed (excluding self-loops, including duplicates).
    pub edge_records: usize,
    /// Self-loop records (`u u`) skipped with this counted warning.
    pub self_loops: usize,
    /// Worker threads the parallel tokenise phase actually used.
    pub parse_threads: usize,
}

impl std::fmt::Display for LoadStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lines={} comments={} edges={} self-loops={} parse-threads={}",
            self.lines, self.comment_lines, self.edge_records, self.self_loops, self.parse_threads
        )
    }
}

/// One tokenised chunk: label pairs in line order, line accounting, and the
/// first parse error (with its chunk-local 1-based line number).
struct ChunkParse {
    pairs: Vec<(u64, u64)>,
    lines: usize,
    comments: usize,
    err: Option<(usize, String)>,
}

/// Splits `bytes` into chunks that end on line boundaries. Every byte
/// belongs to exactly one chunk; the split points depend only on
/// `chunk_bytes`, never on thread scheduling.
fn chunk_boundaries(bytes: &[u8], chunk_bytes: usize) -> Vec<(usize, usize)> {
    let chunk_bytes = chunk_bytes.max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < bytes.len() {
        let mut end = (start + chunk_bytes).min(bytes.len());
        // Extend to the end of the current line.
        while end < bytes.len() && bytes[end - 1] != b'\n' {
            end += 1;
        }
        chunks.push((start, end));
        start = end;
    }
    chunks
}

/// Tokenises one chunk. Stops at the first malformed line, like the
/// sequential parser does.
fn parse_chunk(chunk: &[u8]) -> ChunkParse {
    let mut out = ChunkParse { pairs: Vec::new(), lines: 0, comments: 0, err: None };
    // Manual line walk instead of `split(b'\n')`: a trailing newline must
    // not count as one extra (empty) input line.
    let mut pos = 0usize;
    while pos < chunk.len() {
        let end = chunk[pos..].iter().position(|&b| b == b'\n').map_or(chunk.len(), |i| pos + i);
        let line = &chunk[pos..end];
        out.lines += 1;
        match parse_line(line) {
            LineKind::Skip => out.comments += 1,
            LineKind::Pair(a, b) => out.pairs.push((a, b)),
            LineKind::Bad(message) => {
                out.err = Some((out.lines, message));
                return out;
            }
        }
        pos = end + 1;
    }
    out
}

enum LineKind {
    Skip,
    Pair(u64, u64),
    Bad(String),
}

fn parse_line(line: &[u8]) -> LineKind {
    let trimmed = trim_ascii(line);
    if trimmed.is_empty() || trimmed[0] == b'%' || trimmed[0] == b'#' || trimmed.starts_with(b"//")
    {
        return LineKind::Skip;
    }
    let mut tokens = trimmed.split(|b| b.is_ascii_whitespace()).filter(|t| !t.is_empty());
    let a = match parse_token(tokens.next()) {
        Ok(v) => v,
        Err(m) => return LineKind::Bad(m),
    };
    let b = match parse_token(tokens.next()) {
        Ok(v) => v,
        Err(m) => return LineKind::Bad(m),
    };
    // Any further columns (weights, timestamps) are ignored.
    LineKind::Pair(a, b)
}

fn trim_ascii(mut s: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = s {
        if first.is_ascii_whitespace() {
            s = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = s {
        if last.is_ascii_whitespace() {
            s = rest;
        } else {
            break;
        }
    }
    s
}

fn parse_token(tok: Option<&[u8]>) -> Result<u64, String> {
    let tok = tok.ok_or_else(|| "expected two node tokens".to_string())?;
    let text = std::str::from_utf8(tok).map_err(|_| format!("invalid node id {tok:?}"))?;
    text.parse::<u64>().map_err(|_| format!("invalid node id {text:?}"))
}

/// Parses an edge list held in memory, tokenising chunks of
/// [`DEFAULT_PARSE_CHUNK_BYTES`] in parallel on `par`.
///
/// Deterministic: the result (and any error) is identical for every thread
/// count and chunk size — see the module docs.
pub fn parse_edge_list(
    bytes: &[u8],
    par: ParConfig,
) -> Result<(LoadedGraph, LoadStats), GraphError> {
    parse_edge_list_chunked(bytes, par, DEFAULT_PARSE_CHUNK_BYTES)
}

/// [`parse_edge_list`] with an explicit chunk byte size. Exposed so tests
/// can force many tiny chunks and property-check the determinism contract.
pub fn parse_edge_list_chunked(
    bytes: &[u8],
    par: ParConfig,
    chunk_bytes: usize,
) -> Result<(LoadedGraph, LoadStats), GraphError> {
    parse_edge_list_sharded(bytes, par, chunk_bytes, DEFAULT_INTERN_SHARDS)
}

/// [`parse_edge_list_chunked`] with an explicit intern-merge shard count.
/// Exposed so tests can property-check that the sharded merge is
/// bit-identical to a sequential intern loop for any configuration.
pub fn parse_edge_list_sharded(
    bytes: &[u8],
    par: ParConfig,
    chunk_bytes: usize,
    intern_shards: usize,
) -> Result<(LoadedGraph, LoadStats), GraphError> {
    let chunks = chunk_boundaries(bytes, chunk_bytes);
    // One executor "root" per chunk; chunk-ordered output is the executor's
    // contract, so the merge below sees chunks in input order.
    let chunk_par = par.with_chunk(1);
    let parse_threads = chunk_par.effective_threads(chunks.len());
    let parsed: Vec<ChunkParse> = par_for_each_root(
        chunk_par,
        chunks.len(),
        || (),
        |_, c, out| {
            let (start, end) = chunks[c];
            out.push(parse_chunk(&bytes[start..end]));
        },
    );

    // Line accounting and earliest-error selection (sequential, cheap).
    let mut stats = LoadStats { parse_threads, ..LoadStats::default() };
    let mut total_pairs = 0usize;
    for chunk in &parsed {
        if let Some((local_line, message)) = &chunk.err {
            return Err(GraphError::Parse {
                line: stats.lines + local_line,
                message: message.clone(),
            });
        }
        stats.lines += chunk.lines;
        stats.comment_lines += chunk.comments;
        total_pairs += chunk.pairs.len();
    }

    let (labels, remap) = intern_sharded(&parsed, chunk_par, intern_shards);

    // Translation: pairs → dense-id edges, dropping + counting self-loops.
    // Parallel per chunk over the frozen label table; chunk-ordered concat
    // reproduces the sequential edge order exactly.
    let translated: Vec<(Vec<Edge>, usize)> = par_for_each_root(
        chunk_par,
        parsed.len(),
        || (),
        |_, c, out| {
            let chunk = &parsed[c];
            let mut edges: Vec<Edge> = Vec::with_capacity(chunk.pairs.len());
            let mut self_loops = 0usize;
            for &(a, b) in &chunk.pairs {
                let ia = remap[&a];
                let ib = remap[&b];
                if ia == ib {
                    self_loops += 1;
                } else {
                    edges.push((ia, ib));
                }
            }
            out.push((edges, self_loops));
        },
    );
    let mut edges: Vec<Edge> = Vec::with_capacity(total_pairs);
    for (chunk_edges, self_loops) in translated {
        stats.self_loops += self_loops;
        stats.edge_records += chunk_edges.len();
        edges.extend(chunk_edges);
    }
    let graph = CsrGraph::from_edges(labels.len(), edges)?;
    Ok((LoadedGraph::from_parts(graph, labels, remap), stats))
}

/// Label interning: a deterministic sharded first-occurrence merge (see
/// the module docs), inline when `chunk_par` has one thread. Bit-identical
/// to one sequential first-occurrence pass over all pairs for any
/// thread/chunk/shard configuration.
fn intern_sharded(
    parsed: &[ChunkParse],
    chunk_par: ParConfig,
    intern_shards: usize,
) -> (Vec<u64>, HashMap<u64, NodeId>) {
    let shards = intern_shards.max(1);
    // Phase 1 (parallel per chunk): distinct labels in local
    // first-occurrence order, pre-bucketed by label hash. The local rank
    // (index in the chunk's distinct sequence) is the tie-breaker that
    // preserves in-chunk ordering downstream.
    let buckets: Vec<Vec<Vec<(u64, u32)>>> =
        par_for_each_root(chunk_par, parsed.len(), HashSet::<u64>::new, |seen, c, out| {
            seen.clear();
            let mut shard_lists: Vec<Vec<(u64, u32)>> = vec![Vec::new(); shards];
            let mut rank = 0u32;
            for &(a, b) in &parsed[c].pairs {
                for label in [a, b] {
                    if seen.insert(label) {
                        shard_lists[shard_of(label, shards)].push((label, rank));
                        rank += 1;
                    }
                }
            }
            out.push(shard_lists);
        });
    // Phase 2 (parallel per shard): scanning chunks in input order, the
    // first sighting of a label is its earliest (chunk, rank) position —
    // the winner. Shards partition the label space, so shard workers never
    // contend.
    let winners: Vec<Vec<(u32, u32, u64)>> =
        par_for_each_root(chunk_par.with_chunk(1), shards, HashSet::<u64>::new, |seen, s, out| {
            seen.clear();
            let mut shard_winners: Vec<(u32, u32, u64)> = Vec::new();
            for (chunk_idx, chunk_buckets) in buckets.iter().enumerate() {
                for &(label, rank) in &chunk_buckets[s] {
                    if seen.insert(label) {
                        shard_winners.push((chunk_idx as u32, rank, label));
                    }
                }
            }
            out.push(shard_winners);
        });
    // Phase 3 (sequential over distinct labels only): global id order is
    // first-occurrence position order.
    let mut ordered: Vec<(u32, u32, u64)> = winners.into_iter().flatten().collect();
    ordered.sort_unstable();
    let mut labels: Vec<u64> = Vec::with_capacity(ordered.len());
    let mut remap: HashMap<u64, NodeId> = HashMap::with_capacity(ordered.len());
    for (_, _, label) in ordered {
        remap.insert(label, labels.len() as NodeId);
        labels.push(label);
    }
    (labels, remap)
}

/// FNV-1a-based shard assignment (any deterministic function works — the
/// final position sort erases the sharding).
fn shard_of(label: u64, shards: usize) -> usize {
    let mut h = 0xcbf29ce484222325u64;
    for byte in label.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
    }
    (h % shards as u64) as usize
}

/// Reads an edge list from any reader (sequential parse). See
/// [`read_edge_list`].
pub fn read_edge_list_from<R: Read>(mut reader: R) -> Result<LoadedGraph, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    Ok(parse_edge_list(&bytes, ParConfig::sequential())?.0)
}

/// Reads a KONECT-style edge list file (sequential parse).
///
/// * blank lines and lines starting with `%`, `#` or `//` are skipped;
/// * the first two whitespace-separated integer tokens of each line are the
///   endpoints; extra columns are ignored;
/// * self-loops are skipped (see [`LoadStats::self_loops`]);
/// * node labels may be arbitrary `u64`s — they are remapped to dense ids.
///
/// For large files prefer [`read_edge_list_parallel`], which also returns
/// the parse statistics.
pub fn read_edge_list<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, GraphError> {
    let bytes = std::fs::read(path)?;
    Ok(parse_edge_list(&bytes, ParConfig::sequential())?.0)
}

/// Reads a KONECT-style edge list file, tokenising in parallel on `par`.
/// The result is bit-identical to [`read_edge_list`].
pub fn read_edge_list_parallel<P: AsRef<Path>>(
    path: P,
    par: ParConfig,
) -> Result<(LoadedGraph, LoadStats), GraphError> {
    let bytes = std::fs::read(path)?;
    parse_edge_list(&bytes, par)
}

/// Parses an edge list held in a string (convenience for tests and docs).
pub fn read_edge_list_str(text: &str) -> Result<LoadedGraph, GraphError> {
    Ok(parse_edge_list(text.as_bytes(), ParConfig::sequential())?.0)
}

/// Writes `g` as a plain edge list (`u v` per line, dense ids, `u < v`).
///
/// Degree-0 nodes have no edge to appear in, so they are encoded as
/// self-loop lines (`u u`) — the parser interns a self-loop's endpoint
/// without creating an edge, so write → read preserves the node set
/// exactly (the re-read counts them under [`LoadStats::self_loops`]).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "% {} nodes, {} edges", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.iter_edges() {
        writeln!(w, "{u} {v}")?;
    }
    for u in g.iter_nodes().filter(|&u| g.degree(u) == 0) {
        writeln!(w, "{u} {u}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes a loaded graph as an edge list in its *original* labelling, so a
/// snapshot → text conversion round-trips the labels. Degree-0 nodes are
/// encoded as self-loop lines, as in [`write_edge_list`].
pub fn write_edge_list_labeled<W: Write>(
    loaded: &LoadedGraph,
    writer: W,
) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    let g = &loaded.graph;
    writeln!(w, "% {} nodes, {} edges", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.iter_edges() {
        writeln!(w, "{} {}", loaded.labels[u as usize], loaded.labels[v as usize])?;
    }
    for u in g.iter_nodes().filter(|&u| g.degree(u) == 0) {
        writeln!(w, "{} {}", loaded.labels[u as usize], loaded.labels[u as usize])?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `g` to a file path. See [`write_edge_list`].
pub fn write_edge_list_path<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(g, file)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_konect_style_input() {
        let text = "\
% sym unweighted
# another comment style
// and a third
1 2
2 3 1.5 1234567
3 1
";
        let loaded = read_edge_list_str(text).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.labels, vec![1, 2, 3]);
        assert_eq!(loaded.node_for_label(3), Some(2));
        assert_eq!(loaded.node_for_label(9), None);
    }

    #[test]
    fn sparse_labels_are_remapped_densely() {
        let loaded = read_edge_list_str("1000 7\n7 42\n").unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.labels, vec![1000, 7, 42]);
        // 1000-7 and 7-42 edges must exist under dense ids.
        let g = &loaded.graph;
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn malformed_line_reports_position() {
        let err = read_edge_list_str("1 2\nfoo bar\n").unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("foo"));
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn malformed_line_position_is_chunking_invariant() {
        let text = "1 2\n2 3\n3 4\n4 5\nbad token\n5 6\n";
        for chunk_bytes in [1, 3, 5, 8, 1024] {
            for threads in [1, 4] {
                let err =
                    parse_edge_list_chunked(text.as_bytes(), ParConfig::new(threads), chunk_bytes)
                        .unwrap_err();
                match err {
                    GraphError::Parse { line, ref message } => {
                        assert_eq!(line, 5, "chunk_bytes={chunk_bytes} threads={threads}");
                        assert!(message.contains("bad"));
                    }
                    ref other => panic!("unexpected: {other}"),
                }
            }
        }
    }

    #[test]
    fn missing_second_token_is_an_error() {
        let err = read_edge_list_str("5\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let loaded = read_edge_list_str("1 2\n2 1\n1 2\n").unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
    }

    #[test]
    fn self_loops_are_skipped_and_counted() {
        let (loaded, stats) =
            parse_edge_list(b"7 7\n1 2\n7 7\n2 7\n", ParConfig::sequential()).unwrap();
        assert_eq!(stats.self_loops, 2);
        assert_eq!(stats.edge_records, 2);
        // Node 7 appears first in a self-loop: it still gets the first id.
        assert_eq!(loaded.labels, vec![7, 1, 2]);
        assert_eq!(loaded.graph.num_edges(), 2);
        assert!(!loaded.graph.has_edge(0, 0));
    }

    #[test]
    fn stats_account_for_every_line() {
        let text = "% c\n\n1 2\n# c\n2 2\n2 3\n";
        let (_, stats) = parse_edge_list(text.as_bytes(), ParConfig::sequential()).unwrap();
        assert_eq!(stats.lines, 6);
        assert_eq!(stats.comment_lines, 3);
        assert_eq!(stats.edge_records, 2);
        assert_eq!(stats.self_loops, 1);
        assert_eq!(stats.parse_threads, 1);
        assert!(stats.to_string().contains("self-loops=1"));
    }

    #[test]
    fn parallel_parse_is_chunking_and_thread_invariant() {
        let mut text = String::from("% header\n");
        for i in 0..500u64 {
            text.push_str(&format!("{} {}\n", i * 31 % 97, i * 17 % 89));
        }
        let (seq, seq_stats) = parse_edge_list(text.as_bytes(), ParConfig::sequential()).unwrap();
        for chunk_bytes in [1, 7, 64, 4096] {
            for threads in [2, 8] {
                let (par, par_stats) =
                    parse_edge_list_chunked(text.as_bytes(), ParConfig::new(threads), chunk_bytes)
                        .unwrap();
                assert_eq!(par.graph, seq.graph, "chunk_bytes={chunk_bytes} threads={threads}");
                assert_eq!(par.labels, seq.labels);
                assert_eq!(par_stats.self_loops, seq_stats.self_loops);
                assert_eq!(par_stats.lines, seq_stats.lines);
                assert_eq!(par_stats.edge_records, seq_stats.edge_records);
            }
        }
    }

    #[test]
    fn sharded_intern_merge_is_shard_count_invariant() {
        // Labels chosen to collide within shards and to appear first in
        // different chunks depending on the chunk size.
        let mut text = String::new();
        for i in 0..400u64 {
            text.push_str(&format!("{} {}\n", (i * 7919) % 101, (i * 104729) % 97 + 1000));
        }
        text.push_str("5000 5000\n"); // a self-loop-only node still gets an id
        let (seq, seq_stats) = parse_edge_list(text.as_bytes(), ParConfig::sequential()).unwrap();
        for shards in [1, 2, 3, 64, 1024] {
            for chunk_bytes in [1, 17, 4096] {
                let (par, par_stats) = parse_edge_list_sharded(
                    text.as_bytes(),
                    ParConfig::new(4),
                    chunk_bytes,
                    shards,
                )
                .unwrap();
                assert_eq!(par.labels, seq.labels, "shards={shards} chunk_bytes={chunk_bytes}");
                assert_eq!(par.graph, seq.graph);
                assert_eq!(par_stats.self_loops, seq_stats.self_loops);
                assert_eq!(par_stats.edge_records, seq_stats.edge_records);
            }
        }
    }

    #[test]
    fn no_trailing_newline_and_crlf_are_handled() {
        let loaded = read_edge_list_str("1 2\r\n2 3\r\n3 1").unwrap();
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.graph.num_nodes(), 3);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let g = CsrGraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let loaded = read_edge_list_str(&text).unwrap();
        assert_eq!(loaded.graph.num_edges(), g.num_edges());
        assert_eq!(loaded.graph.num_nodes(), g.num_nodes());
    }

    #[test]
    fn isolated_nodes_survive_the_write_read_roundtrip() {
        // Node 3 has no edges and node 9 forces a tail of isolated nodes.
        let g = CsrGraph::from_edges(10, vec![(0, 1), (1, 2)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (back, stats) = parse_edge_list(&buf, ParConfig::sequential()).unwrap();
        assert_eq!(back.graph.num_nodes(), 10);
        assert_eq!(back.graph.num_edges(), 2);
        assert_eq!(stats.self_loops, 7, "one encoding line per isolated node (3..=9)");

        // Same through the labelled writer: labels of isolated nodes kept.
        let loaded = LoadedGraph::new(g, (100..110).collect());
        let mut buf = Vec::new();
        write_edge_list_labeled(&loaded, &mut buf).unwrap();
        let (back, _) = parse_edge_list(&buf, ParConfig::sequential()).unwrap();
        assert_eq!(back.graph.num_nodes(), 10);
        let mut labels = back.labels.clone();
        labels.sort_unstable();
        assert_eq!(labels, (100..110).collect::<Vec<u64>>());
    }

    #[test]
    fn labeled_write_preserves_original_labels() {
        let loaded = read_edge_list_str("100 200\n200 300\n").unwrap();
        let mut buf = Vec::new();
        write_edge_list_labeled(&loaded, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("100 200"));
        let again = read_edge_list_str(&text).unwrap();
        assert_eq!(again.labels, loaded.labels);
        assert_eq!(again.graph, loaded.graph);
    }

    #[test]
    fn empty_input_yields_empty_graph() {
        let loaded = read_edge_list_str("% nothing here\n").unwrap();
        assert_eq!(loaded.graph.num_nodes(), 0);
        assert_eq!(loaded.graph.num_edges(), 0);
    }
}
