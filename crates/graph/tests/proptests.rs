//! Property-based tests for the graph substrate.

use std::collections::{HashMap, HashSet};

use dkc_graph::io::{
    parse_edge_list, parse_edge_list_chunked, read_snapshot, read_snapshot_bytes, write_snapshot,
    LoadedGraph,
};
use dkc_graph::{
    CsrGraph, Dag, DynGraph, GraphError, InducedSubgraph, NodeId, NodeOrder, OrderingKind,
    SnapshotError,
};
use dkc_par::ParConfig;
use proptest::prelude::*;

/// Strategy: a random edge set over up to `n` nodes.
fn edges_strategy(max_n: u32, max_m: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..=max_n).prop_flat_map(move |n| {
        let edge = (0..n, 0..n);
        (Just(n), proptest::collection::vec(edge, 0..max_m))
    })
}

proptest! {
    #[test]
    fn csr_adjacency_matches_input((n, edges) in edges_strategy(40, 120)) {
        let g = CsrGraph::from_edges(n as usize, edges.clone()).unwrap();
        let set: HashSet<(u32, u32)> = edges
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        prop_assert_eq!(g.num_edges(), set.len());
        for u in 0..n {
            for v in 0..n {
                let expect = u != v && set.contains(&(u.min(v), u.max(v)));
                prop_assert_eq!(g.has_edge(u, v), expect, "edge ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn csr_degrees_sum_to_twice_edges((n, edges) in edges_strategy(50, 200)) {
        let g = CsrGraph::from_edges(n as usize, edges).unwrap();
        let sum: usize = (0..n).map(|u| g.degree(u)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
    }

    #[test]
    fn all_orderings_are_permutations((n, edges) in edges_strategy(40, 100)) {
        let g = CsrGraph::from_edges(n as usize, edges).unwrap();
        for kind in [
            OrderingKind::Identity,
            OrderingKind::DegreeAsc,
            OrderingKind::DegreeDesc,
            OrderingKind::Degeneracy,
            OrderingKind::Color,
        ] {
            let o = NodeOrder::compute(&g, kind);
            let mut seen = vec![false; n as usize];
            for r in 0..n as usize {
                let u = o.node_at(r);
                prop_assert!(!seen[u as usize]);
                seen[u as usize] = true;
                prop_assert_eq!(o.rank(u) as usize, r);
            }
        }
    }

    #[test]
    fn dag_partitions_each_edge_once((n, edges) in edges_strategy(40, 100)) {
        let g = CsrGraph::from_edges(n as usize, edges).unwrap();
        let dag = Dag::from_graph(&g, NodeOrder::compute(&g, OrderingKind::Degeneracy));
        // Each undirected edge appears as exactly one arc, oriented to the
        // lower-ranked endpoint.
        prop_assert_eq!(dag.num_arcs(), g.num_edges());
        for (u, v) in g.iter_edges() {
            let u_to_v = dag.has_arc(u, v);
            let v_to_u = dag.has_arc(v, u);
            prop_assert!(u_to_v ^ v_to_u, "edge ({}, {}) must be oriented exactly once", u, v);
            if u_to_v {
                prop_assert!(dag.rank(v) < dag.rank(u));
            } else {
                prop_assert!(dag.rank(u) < dag.rank(v));
            }
        }
    }

    #[test]
    fn dyn_graph_matches_model(ops in proptest::collection::vec(
        (any::<bool>(), 0u32..20, 0u32..20), 1..200))
    {
        let mut g = DynGraph::new(20);
        let mut model: HashSet<(u32, u32)> = HashSet::new();
        for (insert, a, b) in ops {
            let key = (a.min(b), a.max(b));
            if insert {
                let added = g.insert_edge(a, b);
                let model_added = a != b && model.insert(key);
                prop_assert_eq!(added, model_added);
            } else {
                let removed = g.remove_edge(a, b);
                let model_removed = model.remove(&key);
                prop_assert_eq!(removed, model_removed);
            }
            prop_assert_eq!(g.num_edges(), model.len());
        }
        for u in 0..20 {
            for v in 0..20 {
                prop_assert_eq!(g.has_edge(u, v), u != v && model.contains(&(u.min(v), u.max(v))));
            }
        }
    }

    #[test]
    fn csr_dyn_roundtrip((n, edges) in edges_strategy(30, 90)) {
        let g = CsrGraph::from_edges(n as usize, edges).unwrap();
        let round = DynGraph::from_csr(&g).to_csr();
        prop_assert_eq!(g, round);
    }
}

/// Renders an edge list text with sparse labels, comments, and self-loops
/// preserved as written — the adversarial input for the parser tests.
fn render_text(edges: &[(u32, u32)], label_stride: u64) -> String {
    let mut text = String::from("% generated header\n# second comment\n");
    for (i, &(a, b)) in edges.iter().enumerate() {
        if i % 7 == 3 {
            text.push_str("// interleaved comment\n");
        }
        text.push_str(&format!(
            "{} {}\n",
            a as u64 * label_stride + 1,
            b as u64 * label_stride + 1
        ));
    }
    text
}

/// The sequential first-occurrence intern loop, the oracle of the sharded
/// merge: the labels of `render_text(edges, label_stride)` in
/// first-occurrence order, and the graph over those ids with self-loops
/// dropped.
fn intern_sequential(edges: &[(u32, u32)], label_stride: u64) -> (Vec<u64>, CsrGraph) {
    let mut remap: HashMap<u64, NodeId> = HashMap::new();
    let mut labels: Vec<u64> = Vec::new();
    let mut dense = Vec::with_capacity(edges.len());
    for &(a, b) in edges {
        let [ia, ib] = [a, b].map(|v| {
            let label = v as u64 * label_stride + 1;
            *remap.entry(label).or_insert_with(|| {
                labels.push(label);
                labels.len() as NodeId - 1
            })
        });
        if ia != ib {
            dense.push((ia, ib));
        }
    }
    let g = CsrGraph::from_edges(labels.len(), dense).unwrap();
    (labels, g)
}

/// The sequential stats with the parallel run's thread count substituted —
/// everything except `parse_threads` must match bit-for-bit.
fn seq_stats_with_threads(
    seq: &dkc_graph::io::LoadStats,
    parse_threads: usize,
) -> dkc_graph::io::LoadStats {
    dkc_graph::io::LoadStats { parse_threads, ..seq.clone() }
}

proptest! {
    /// text → CSR → snapshot → CSR round-trips nodes, edges, and labels
    /// exactly, with identical O(1) label lookups.
    #[test]
    fn text_snapshot_roundtrip_is_exact(
        (n, edges) in edges_strategy(40, 120),
        stride in 1u64..1000,
    ) {
        let _ = n;
        let text = render_text(&edges, stride);
        let (loaded, stats) = parse_edge_list(text.as_bytes(), ParConfig::sequential()).unwrap();
        let expect_self_loops = edges.iter().filter(|(a, b)| a == b).count();
        prop_assert_eq!(stats.self_loops, expect_self_loops);

        let mut buf = Vec::new();
        write_snapshot(&loaded, &mut buf).unwrap();
        let back = read_snapshot(&buf[..]).unwrap();
        prop_assert_eq!(&back.graph, &loaded.graph);
        prop_assert_eq!(&back.labels, &loaded.labels);
        for &l in &loaded.labels {
            prop_assert_eq!(back.node_for_label(l), loaded.node_for_label(l));
        }
        prop_assert_eq!(back.node_for_label(u64::MAX), None);
    }

    /// Parallel chunked parsing is bit-identical to sequential parsing —
    /// same CSR, same label mapping, same stats — across thread counts and
    /// pathological chunk sizes.
    #[test]
    fn parallel_parse_equals_sequential_parse(
        (n, edges) in edges_strategy(40, 150),
        threads_idx in 0usize..3,
        chunk_idx in 0usize..4,
    ) {
        let _ = n;
        // The DKC_THREADS CI matrix covers the env-default path; sweep the
        // explicit thread counts {1, 2, 8} here.
        let threads = [1usize, 2, 8][threads_idx];
        let chunk_bytes = [1usize, 13, 255, 1 << 20][chunk_idx];
        let text = render_text(&edges, 3);
        let (seq, seq_stats) = parse_edge_list(text.as_bytes(), ParConfig::sequential()).unwrap();
        let (par, par_stats) =
            parse_edge_list_chunked(text.as_bytes(), ParConfig::new(threads), chunk_bytes)
                .unwrap();
        prop_assert_eq!(par.graph, seq.graph, "threads={} chunk={}", threads, chunk_bytes);
        prop_assert_eq!(par.labels, seq.labels);
        prop_assert_eq!(par_stats.lines, seq_stats.lines);
        prop_assert_eq!(par_stats.comment_lines, seq_stats.comment_lines);
        prop_assert_eq!(par_stats.edge_records, seq_stats.edge_records);
        prop_assert_eq!(par_stats.self_loops, seq_stats.self_loops);
    }

    /// The sharded label-interning merge is bit-identical to the sequential
    /// intern loop for any thread count (one included), chunk size AND
    /// shard count — graph, label order, and stats.
    #[test]
    fn sharded_intern_merge_equals_sequential(
        (n, edges) in edges_strategy(40, 150),
        stride in 1u64..1000,
        threads_idx in 0usize..2,
        chunk_idx in 0usize..3,
        shards_idx in 0usize..4,
    ) {
        let _ = n;
        let threads = [2usize, 8][threads_idx];
        let chunk_bytes = [1usize, 29, 1 << 20][chunk_idx];
        let shards = [1usize, 2, 7, 1024][shards_idx];
        let text = render_text(&edges, stride);
        let (seq, seq_stats) = parse_edge_list(text.as_bytes(), ParConfig::sequential()).unwrap();
        let (oracle_labels, oracle_graph) = intern_sequential(&edges, stride);
        prop_assert_eq!(&seq.labels, &oracle_labels);
        prop_assert_eq!(&seq.graph, &oracle_graph);
        let (par, par_stats) = dkc_graph::io::parse_edge_list_sharded(
            text.as_bytes(),
            ParConfig::new(threads),
            chunk_bytes,
            shards,
        )
        .unwrap();
        prop_assert_eq!(
            par.labels, seq.labels,
            "threads={} chunk={} shards={}", threads, chunk_bytes, shards
        );
        prop_assert_eq!(par.graph, seq.graph);
        prop_assert_eq!(par_stats, seq_stats_with_threads(&seq_stats, par_stats.parse_threads));
        for &l in &seq.labels {
            prop_assert_eq!(par.node_for_label(l), seq.node_for_label(l));
        }
    }

    /// Any single corruption of a snapshot — truncation, payload bit flip,
    /// version skew or bytes appended after the payload — yields a
    /// structured error, never a graph.
    #[test]
    fn damaged_snapshots_yield_structured_errors(
        (n, edges) in edges_strategy(30, 90),
        damage_seed in 0usize..10_000,
        mode in 0u8..4,
    ) {
        let g = CsrGraph::from_edges(n as usize, edges).unwrap();
        let loaded = LoadedGraph::identity(g);
        let mut buf = Vec::new();
        write_snapshot(&loaded, &mut buf).unwrap();
        match mode {
            0 => {
                // Truncate somewhere strictly inside the file.
                let cut = damage_seed % buf.len();
                let err = read_snapshot(&buf[..cut]).unwrap_err();
                prop_assert!(
                    matches!(
                        err,
                        GraphError::Snapshot(
                            SnapshotError::Truncated { .. } | SnapshotError::BadMagic
                        )
                    ),
                    "cut={}: {}", cut, err
                );
            }
            1 => {
                // Flip one payload byte: checksum must catch it.
                if buf.len() > 48 {
                    let idx = 48 + damage_seed % (buf.len() - 48);
                    buf[idx] ^= 1 << (damage_seed % 8);
                    let err = read_snapshot(&buf[..]).unwrap_err();
                    prop_assert!(
                        matches!(
                            err,
                            GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })
                        ),
                        "idx={}: {}", idx, err
                    );
                }
            }
            3 => {
                // Append junk: a whole-file decode rejects it, while the
                // reader form stops at the declared payload.
                let extra = 1 + damage_seed % 16;
                let clean = read_snapshot(&buf[..]).unwrap();
                buf.extend((0..extra).map(|i| (damage_seed + i) as u8));
                let err = read_snapshot_bytes(&buf).unwrap_err();
                prop_assert!(
                    matches!(err, GraphError::Snapshot(SnapshotError::Corrupt { .. })),
                    "extra={}: {}", extra, err
                );
                let mut rest = &buf[..];
                prop_assert_eq!(read_snapshot(&mut rest).unwrap().graph, clean.graph);
                prop_assert_eq!(rest.len(), extra);
            }
            _ => {
                // Unknown future version.
                let v = 2 + (damage_seed as u32 % 1000);
                buf[8..12].copy_from_slice(&v.to_le_bytes());
                let err = read_snapshot(&buf[..]).unwrap_err();
                prop_assert!(
                    matches!(
                        err,
                        GraphError::Snapshot(SnapshotError::UnsupportedVersion { found }) if found == v
                    ),
                    "{}", err
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The induce and the CSR validator, each against its former construction.

/// How `InducedSubgraph::of_csr` used to build its graph: collect the induced
/// edge list with one binary search per edge, then sort it through
/// `CsrGraph::from_edges`. Returns the graph and the sorted global ids.
fn induce_via_edge_list(g: &CsrGraph, nodes: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
    let mut global = nodes.to_vec();
    global.sort_unstable();
    global.dedup();
    let mut edges = Vec::new();
    for (lu, &gu) in global.iter().enumerate() {
        for &gv in g.neighbors(gu).iter().filter(|&&gv| gv > gu) {
            if let Ok(lv) = global.binary_search(&gv) {
                edges.push((lu as NodeId, lv as NodeId));
            }
        }
    }
    (CsrGraph::from_edges(global.len(), edges).unwrap(), global)
}

/// The binary-search validator `CsrGraph::from_raw_parts` used before its
/// cursor walk: structure per node, then one reverse-entry search per
/// entry. (The old code searched only for entries `v > u`, so it let a
/// one-sided entry from the larger endpoint through; the oracle searches
/// for every entry, which is the invariant both claim to check.)
fn valid_by_binary_search(offsets: &[usize], neighbors: &[NodeId]) -> bool {
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&neighbors.len())
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return false;
    }
    let n = offsets.len() - 1;
    let list = |u: usize| &neighbors[offsets[u]..offsets[u + 1]];
    let well_formed = (0..n).all(|u| {
        let l = list(u);
        l.windows(2).all(|w| w[0] < w[1])
            && l.last().is_none_or(|&v| (v as usize) < n)
            && l.binary_search(&(u as NodeId)).is_err()
    });
    well_formed
        && (0..n).all(|u| {
            list(u).iter().all(|&v| list(v as usize).binary_search(&(u as NodeId)).is_ok())
        })
}

/// Strategy: a graph plus a node set to induce on — random picks (unsorted,
/// with duplicates), the empty set, or every node in reverse order with
/// duplicates on top.
fn induce_case() -> impl Strategy<Value = (CsrGraph, Vec<NodeId>, bool)> {
    edges_strategy(40, 160)
        .prop_flat_map(|(n, edges)| {
            let picks = proptest::collection::vec(0..n, 0..2 * n as usize);
            (Just(n), Just(edges), 0u8..4, picks)
        })
        .prop_map(|(n, edges, mode, picks)| {
            let g = CsrGraph::from_edges(n as usize, edges).unwrap();
            match mode {
                0 => (g, Vec::new(), false),
                1 => (g, (0..n).rev().chain(picks).collect(), true),
                _ => (g, picks, false),
            }
        })
}

/// Inserts `v` into the neighbour array at `at`, inside node `owner`'s list.
fn insert_entry(offsets: &mut [usize], adj: &mut Vec<NodeId>, owner: usize, at: usize, v: NodeId) {
    adj.insert(at, v);
    offsets[owner + 1..].iter_mut().for_each(|o| *o += 1);
}

/// The node whose list holds entry `p` of the neighbour array.
fn owner_of(offsets: &[usize], p: usize) -> usize {
    offsets.partition_point(|&o| o <= p) - 1
}

proptest! {
    #[test]
    fn induce_equals_edge_list_construction((g, nodes, full) in induce_case()) {
        let sub = InducedSubgraph::of_csr(&g, &nodes);
        let (expect, global) = induce_via_edge_list(&g, &nodes);
        prop_assert_eq!(sub.graph(), &expect);
        prop_assert_eq!(sub.len(), global.len());
        prop_assert_eq!(sub.is_empty(), nodes.is_empty());
        if full {
            prop_assert_eq!(sub.graph(), &g);
        }
        for (l, &u) in global.iter().enumerate() {
            prop_assert_eq!(sub.to_global(l as NodeId), u);
            prop_assert_eq!(sub.to_local(u), Some(l as NodeId));
        }
        for u in g.iter_nodes().filter(|u| global.binary_search(u).is_err()) {
            prop_assert_eq!(sub.to_local(u), None);
        }
    }

    /// `from_raw_parts` accepts exactly what the binary-search validator
    /// accepts, on valid arrays and on single mutations of them.
    #[test]
    fn raw_parts_validation_agrees_with_binary_search(
        (n, edges) in edges_strategy(24, 80),
        mutation in 0u8..8,
        pick in any::<u64>(),
        shift in any::<u64>(),
    ) {
        let g = CsrGraph::from_edges(n as usize, edges).unwrap();
        let (mut offsets, mut adj) = (g.offsets().to_vec(), g.adjacency().to_vec());
        let n = n as usize;
        let entry = (!adj.is_empty()).then(|| pick as usize % adj.len());
        let node = pick as usize % n;
        match (mutation, entry) {
            // A dropped entry: its reverse entry loses its partner.
            (1, Some(p)) => {
                let owner = owner_of(&offsets, p);
                adj.remove(p);
                offsets[owner + 1..].iter_mut().for_each(|o| *o -= 1);
            }
            // A duplicated entry.
            (2, Some(p)) => {
                let (owner, v) = (owner_of(&offsets, p), adj[p]);
                insert_entry(&mut offsets, &mut adj, owner, p, v);
            }
            // A self-loop, inserted in sorted position.
            (3, _) => {
                let list = g.neighbors(node as NodeId);
                let at = offsets[node] + list.partition_point(|&v| (v as usize) < node);
                insert_entry(&mut offsets, &mut adj, node, at, node as NodeId);
            }
            // An out-of-range id at the end of a list.
            (4, _) => {
                let (at, v) = (offsets[node + 1], (n + shift as usize % 3) as NodeId);
                insert_entry(&mut offsets, &mut adj, node, at, v);
            }
            // An offset moved by one: non-monotone, or not starting at 0 or
            // ending at the array length.
            (5, _) => {
                let i = shift as usize % offsets.len();
                offsets[i] =
                    if pick.is_multiple_of(2) { offsets[i] + 1 } else { offsets[i].saturating_sub(1) };
            }
            // Two adjacent entries swapped.
            (6, Some(p)) if p + 1 < adj.len() => adj.swap(p, p + 1),
            // One entry replaced by another in-range id.
            (7, Some(p)) => adj[p] = (shift % n as u64) as NodeId,
            _ => {}
        }
        let expect = valid_by_binary_search(&offsets, &adj);
        match CsrGraph::from_raw_parts(offsets.clone(), adj.clone()) {
            Ok(back) => {
                prop_assert!(expect, "accepted offsets {:?} adjacency {:?}", offsets, adj);
                prop_assert_eq!(back.offsets(), &offsets[..]);
                prop_assert_eq!(back.adjacency(), &adj[..]);
            }
            Err(e) => prop_assert!(!expect, "rejected a valid graph: {}", e),
        }
    }
}
