//! The `.dkcsr` binary CSR snapshot format.
//!
//! Parsing a SNAP-scale edge list costs tokenising, label interning, edge
//! sorting and CSR construction on every run. A snapshot amortises all of
//! that: it stores the finished CSR arrays (plus the label table) so a
//! reload is one sequential read, a linear little-endian decode, and a
//! structural re-validation — no per-edge work beyond a copy.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"DKCSR\0\0\0"
//!      8     4  version (currently 1)
//!     12     4  reserved (0)
//!     16     8  n            — number of nodes
//!     24     8  adj_len      — neighbour array length (2m)
//!     32     8  labels_len   — label table length (0 = identity labels)
//!     40     8  checksum     — FNV-1a 64 over the whole payload
//!     48     …  payload:
//!               offsets   (n+1) × u64
//!               adjacency adj_len × u32
//!               padding   to the next 8-byte boundary
//!               labels    labels_len × u64
//! ```
//!
//! Every section starts 8-byte aligned in the file. The checksum covers the
//! payload, the header declares every section length, and the decoded
//! arrays are re-validated by [`CsrGraph::from_raw_parts`] — a truncated,
//! bit-flipped or wrong-version file yields a structured
//! [`SnapshotError`], never a wrong graph.

use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::io::LoadedGraph;
use crate::{CsrGraph, GraphError, NodeId, SnapshotError};

/// The 8 magic bytes every `.dkcsr` file starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DKCSR\0\0\0";

/// The snapshot format version this build reads and writes.
pub const SNAPSHOT_VERSION: u32 = 1;

const HEADER_BYTES: usize = 48;

/// FNV-1a 64-bit, fed chunk by chunk during write and over the read
/// payload during load.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

/// True when `bytes` starts with the snapshot magic — the format sniff
/// used by [`crate::io::load_graph`].
pub fn is_snapshot_bytes(bytes: &[u8]) -> bool {
    bytes.len() >= SNAPSHOT_MAGIC.len() && bytes[..SNAPSHOT_MAGIC.len()] == SNAPSHOT_MAGIC
}

fn pad_len(adj_len: usize) -> usize {
    (8 - (adj_len * 4) % 8) % 8
}

/// Payload bytes encoded per bulk write.
const WRITE_CHUNK: usize = 64 * 1024;

/// Encodes the payload — offsets, adjacency, padding, labels — in
/// little-endian chunks of at most [`WRITE_CHUNK`] bytes and hands each
/// chunk to `sink`, so the payload is never materialised as one big
/// allocation.
fn for_each_payload_chunk(
    offsets: &[usize],
    adjacency: &[NodeId],
    labels: &[u64],
    mut sink: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(WRITE_CHUNK);
    for words in offsets.chunks(WRITE_CHUNK / 8) {
        buf.clear();
        for &o in words {
            buf.extend_from_slice(&(o as u64).to_le_bytes());
        }
        sink(&buf)?;
    }
    for words in adjacency.chunks(WRITE_CHUNK / 4) {
        buf.clear();
        for &v in words {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        sink(&buf)?;
    }
    sink(&[0u8; 8][..pad_len(adjacency.len())])?;
    for words in labels.chunks(WRITE_CHUNK / 8) {
        buf.clear();
        for &l in words {
            buf.extend_from_slice(&l.to_le_bytes());
        }
        sink(&buf)?;
    }
    Ok(())
}

/// Writes the header and payload of a snapshot of the CSR arrays
/// `offsets`/`adjacency` with the label table `labels` (empty for
/// identity labels).
fn write_parts<W: Write>(
    offsets: &[usize],
    adjacency: &[NodeId],
    labels: &[u64],
    writer: W,
) -> std::io::Result<()> {
    // Pass 1 checksums the encoded payload, so the header can precede it
    // without Seek; pass 2 encodes it again and writes it.
    let mut hash = Fnv::new();
    for_each_payload_chunk(offsets, adjacency, labels, |chunk| {
        hash.update(chunk);
        Ok(())
    })?;
    let n = offsets.len().saturating_sub(1);
    let mut header = [0u8; HEADER_BYTES];
    header[..8].copy_from_slice(&SNAPSHOT_MAGIC);
    header[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    header[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    header[24..32].copy_from_slice(&(adjacency.len() as u64).to_le_bytes());
    header[32..40].copy_from_slice(&(labels.len() as u64).to_le_bytes());
    header[40..48].copy_from_slice(&hash.0.to_le_bytes());
    let mut w = BufWriter::new(writer);
    w.write_all(&header)?;
    for_each_payload_chunk(offsets, adjacency, labels, |chunk| w.write_all(chunk))?;
    w.flush()
}

/// Writes a snapshot of `loaded` to `writer`.
///
/// When the labels are the identity mapping they are elided
/// (`labels_len = 0`); [`read_snapshot`] reconstructs them, so the
/// round-trip is exact either way.
pub fn write_snapshot<W: Write>(loaded: &LoadedGraph, writer: W) -> Result<(), GraphError> {
    let g = &loaded.graph;
    let labels_len = if loaded.labels_are_identity() { 0 } else { loaded.labels.len() };
    if labels_len != 0 && labels_len != g.num_nodes() {
        return Err(GraphError::InvalidCsr {
            message: format!("label table length {labels_len} != node count {}", g.num_nodes()),
        });
    }
    write_parts(g.offsets(), g.adjacency(), &loaded.labels[..labels_len], writer)?;
    Ok(())
}

/// Writes a snapshot of `g` with identity labels: the bytes of
/// [`write_snapshot`] over `LoadedGraph::identity(g.clone())`, without
/// the clone.
pub fn write_csr_snapshot<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    write_parts(g.offsets(), g.adjacency(), &[], writer)?;
    Ok(())
}

/// Writes a snapshot to a file path. See [`write_snapshot`].
pub fn write_snapshot_path<P: AsRef<Path>>(
    loaded: &LoadedGraph,
    path: P,
) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_snapshot(loaded, file)
}

/// Writes an identity-labelled snapshot of `g` to a file path. See
/// [`write_csr_snapshot`].
pub fn write_csr_snapshot_path<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_csr_snapshot(g, file)
}

fn header_u64(header: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"))
}

fn section_len(count: u64, width: u64) -> Result<u64, GraphError> {
    count
        .checked_mul(width)
        .ok_or_else(|| SnapshotError::Corrupt { message: "section size overflow".into() }.into())
}

/// Validated header fields.
struct Header {
    n: u64,
    adj_len: u64,
    labels_len: u64,
    checksum: u64,
}

/// Validates magic/version and the internal consistency of a complete
/// header, and returns the declared payload size.
fn parse_header(header: &[u8]) -> Result<(Header, u64), GraphError> {
    debug_assert_eq!(header.len(), HEADER_BYTES);
    if !is_snapshot_bytes(header) {
        return Err(SnapshotError::BadMagic.into());
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version }.into());
    }
    let h = Header {
        n: header_u64(header, 16),
        adj_len: header_u64(header, 24),
        labels_len: header_u64(header, 32),
        checksum: header_u64(header, 40),
    };
    if h.labels_len != 0 && h.labels_len != h.n {
        return Err(SnapshotError::Corrupt {
            message: format!("label table length {} != node count {}", h.labels_len, h.n),
        }
        .into());
    }
    let offsets_bytes = section_len(
        h.n.checked_add(1).ok_or_else(|| {
            GraphError::Snapshot(SnapshotError::Corrupt { message: "node count overflow".into() })
        })?,
        8,
    )?;
    let pad = pad_len(usize::try_from(h.adj_len).map_err(|_| {
        GraphError::Snapshot(SnapshotError::Corrupt { message: "adjacency too large".into() })
    })?) as u64;
    let payload_bytes = offsets_bytes
        .checked_add(section_len(h.adj_len, 4)?)
        .and_then(|v| v.checked_add(pad))
        .and_then(|v| v.checked_add(section_len(h.labels_len, 8).ok()?))
        .ok_or_else(|| {
            GraphError::Snapshot(SnapshotError::Corrupt { message: "payload size overflow".into() })
        })?;
    Ok((h, payload_bytes))
}

/// Checksums and decodes a complete payload slice into a graph.
fn decode_payload(h: &Header, payload: &[u8]) -> Result<LoadedGraph, GraphError> {
    let mut hash = Fnv::new();
    hash.update(payload);
    if hash.0 != h.checksum {
        return Err(SnapshotError::ChecksumMismatch { stored: h.checksum, computed: hash.0 }.into());
    }

    // Decode sections (linear LE decode; sections are 8-byte aligned).
    let to_usize = |v: u64, what: &str| {
        usize::try_from(v).map_err(|_| {
            GraphError::Snapshot(SnapshotError::Corrupt { message: format!("{what} too large") })
        })
    };
    let n = to_usize(h.n, "node count")?;
    let adj_len = to_usize(h.adj_len, "adjacency length")?;
    let labels_len = to_usize(h.labels_len, "label table length")?;
    let (offsets_sec, rest) = payload.split_at((n + 1) * 8);
    let (adj_sec, rest) = rest.split_at(adj_len * 4);
    let labels_sec = &rest[pad_len(adj_len)..];

    // Fast path: when the source bytes are little-endian-native and the
    // sections land aligned (always true for a memory-mapped file — every
    // section starts 8-byte aligned in the format — and almost always for
    // a heap buffer), reinterpret in place and bulk-copy instead of
    // decoding word by word. `None` falls back to the portable decode;
    // both produce identical arrays.
    let mut offsets = Vec::with_capacity(n + 1);
    match dkc_mmap::cast_u64s(offsets_sec) {
        Some(words) => {
            for &w in words {
                offsets.push(to_usize(w, "offset")?);
            }
        }
        None => {
            for chunk in offsets_sec.chunks_exact(8) {
                offsets.push(to_usize(u64::from_le_bytes(chunk.try_into().expect("8")), "offset")?);
            }
        }
    }
    let mut adjacency: Vec<NodeId> = Vec::with_capacity(adj_len);
    match dkc_mmap::cast_u32s(adj_sec) {
        Some(words) => adjacency.extend_from_slice(words),
        None => {
            for chunk in adj_sec.chunks_exact(4) {
                adjacency.push(u32::from_le_bytes(chunk.try_into().expect("4")));
            }
        }
    }
    let graph = CsrGraph::from_raw_parts(offsets, adjacency)?;
    if labels_len == 0 {
        Ok(LoadedGraph::identity(graph))
    } else {
        let mut labels = Vec::with_capacity(labels_len);
        match dkc_mmap::cast_u64s(labels_sec) {
            Some(words) => labels.extend_from_slice(words),
            None => {
                for chunk in labels_sec.chunks_exact(8) {
                    labels.push(u64::from_le_bytes(chunk.try_into().expect("8")));
                }
            }
        }
        Ok(LoadedGraph::new(graph, labels))
    }
}

/// Decodes a snapshot already held in memory, borrowing the payload
/// directly from `bytes` — no second copy. This is the path
/// [`crate::io::load_graph`] and [`read_snapshot_path`] take, so a file
/// load peaks at the file buffer plus the decoded arrays only.
pub fn read_snapshot_bytes(bytes: &[u8]) -> Result<LoadedGraph, GraphError> {
    if bytes.len() < HEADER_BYTES {
        let prefix = bytes.len().min(SNAPSHOT_MAGIC.len());
        if bytes[..prefix] != SNAPSHOT_MAGIC[..prefix] {
            return Err(SnapshotError::BadMagic.into());
        }
        return Err(SnapshotError::Truncated {
            expected: HEADER_BYTES as u64,
            actual: bytes.len() as u64,
        }
        .into());
    }
    let (header, payload) = bytes.split_at(HEADER_BYTES);
    let (h, payload_bytes) = parse_header(header)?;
    if (payload.len() as u64) < payload_bytes {
        return Err(SnapshotError::Truncated {
            expected: payload_bytes,
            actual: payload.len() as u64,
        }
        .into());
    }
    decode_payload(&h, &payload[..payload_bytes as usize])
}

/// Reads a snapshot from any reader.
///
/// The payload is consumed with one bounded sequential read; truncation,
/// bit flips and version skew each produce their own [`SnapshotError`]
/// before any graph is constructed. When the bytes are already in memory,
/// [`read_snapshot_bytes`] skips the intermediate payload buffer.
pub fn read_snapshot<R: Read>(mut reader: R) -> Result<LoadedGraph, GraphError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut got = 0usize;
    while got < HEADER_BYTES {
        let n = reader.read(&mut header[got..])?;
        if n == 0 {
            if got >= SNAPSHOT_MAGIC.len() && !is_snapshot_bytes(&header[..got]) {
                return Err(SnapshotError::BadMagic.into());
            }
            return Err(SnapshotError::Truncated {
                expected: HEADER_BYTES as u64,
                actual: got as u64,
            }
            .into());
        }
        got += n;
    }
    let (h, payload_bytes) = parse_header(&header)?;
    // Bounded read: `take` stops at the declared size, `read_to_end` grows
    // the buffer as data actually arrives — a lying header on a small file
    // fails the length check instead of a giant allocation.
    let mut payload = Vec::new();
    reader.take(payload_bytes).read_to_end(&mut payload)?;
    if (payload.len() as u64) < payload_bytes {
        return Err(SnapshotError::Truncated {
            expected: payload_bytes,
            actual: payload.len() as u64,
        }
        .into());
    }
    decode_payload(&h, &payload)
}

/// Reads a snapshot from a file path, memory-mapping it when the platform
/// allows (zero-copy: the decode reads straight from the page cache and the
/// aligned sections bulk-copy) and falling back to one buffered sequential
/// read otherwise. See [`read_snapshot_bytes`].
pub fn read_snapshot_path<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, GraphError> {
    let path = path.as_ref();
    // Only a mapping failure falls back — decode errors propagate, since
    // the buffered path would see the identical bytes.
    if let Ok(file) = std::fs::File::open(path) {
        if let Ok(map) = dkc_mmap::Mmap::map(&file) {
            return read_snapshot_bytes(&map);
        }
    }
    let bytes = std::fs::read(path)?;
    read_snapshot_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::read_edge_list_str;

    fn sample() -> LoadedGraph {
        read_edge_list_str("10 20\n20 30\n30 10\n30 40\n").unwrap()
    }

    fn snapshot_bytes(loaded: &LoadedGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(loaded, &mut buf).unwrap();
        buf
    }

    /// The per-word writer the bulk writer replaced, kept as the byte
    /// oracle: header, then every word written on its own.
    fn per_word_oracle(offsets: &[usize], adjacency: &[NodeId], labels: &[u64]) -> Vec<u8> {
        let mut hash = Fnv::new();
        for &o in offsets {
            hash.update(&(o as u64).to_le_bytes());
        }
        for &v in adjacency {
            hash.update(&v.to_le_bytes());
        }
        hash.update(&vec![0u8; pad_len(adjacency.len())]);
        for &l in labels {
            hash.update(&l.to_le_bytes());
        }
        let mut out = Vec::new();
        out.write_all(&SNAPSHOT_MAGIC).unwrap();
        out.write_all(&SNAPSHOT_VERSION.to_le_bytes()).unwrap();
        out.write_all(&0u32.to_le_bytes()).unwrap();
        out.write_all(&(offsets.len() as u64 - 1).to_le_bytes()).unwrap();
        out.write_all(&(adjacency.len() as u64).to_le_bytes()).unwrap();
        out.write_all(&(labels.len() as u64).to_le_bytes()).unwrap();
        out.write_all(&hash.0.to_le_bytes()).unwrap();
        for &o in offsets {
            out.write_all(&(o as u64).to_le_bytes()).unwrap();
        }
        for &v in adjacency {
            out.write_all(&v.to_le_bytes()).unwrap();
        }
        out.write_all(&vec![0u8; pad_len(adjacency.len())]).unwrap();
        for &l in labels {
            out.write_all(&l.to_le_bytes()).unwrap();
        }
        out
    }

    /// A 10,000-node ring with chords: every section spans several write
    /// chunks (80 KB of offsets, 160 KB of adjacency, 80 KB of labels).
    fn multi_chunk() -> LoadedGraph {
        let n = 10_000u32;
        let edges: Vec<(NodeId, NodeId)> =
            (0..n).flat_map(|i| [(i, (i + 1) % n), (i, (i + 7) % n)]).collect();
        let g = CsrGraph::from_edges(n as usize, edges).unwrap();
        assert!(g.adjacency().len() * 4 > 2 * WRITE_CHUNK);
        LoadedGraph::new(g, (0..n as u64).map(|i| 3 * i + 1).collect())
    }

    #[test]
    fn bulk_writer_matches_the_per_word_bytes() {
        let big = multi_chunk();
        let cases = [
            sample(),
            LoadedGraph::identity(CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]).unwrap()),
            LoadedGraph::identity(CsrGraph::empty()),
            LoadedGraph::identity(big.graph.clone()),
            big,
        ];
        for loaded in &cases {
            let labels: &[u64] = if loaded.labels_are_identity() { &[] } else { &loaded.labels };
            let oracle = per_word_oracle(loaded.graph.offsets(), loaded.graph.adjacency(), labels);
            let bytes = snapshot_bytes(loaded);
            assert!(bytes == oracle, "n = {}", loaded.graph.num_nodes());
            let back = read_snapshot_bytes(&bytes).unwrap();
            assert_eq!(back.graph, loaded.graph);
            assert_eq!(back.labels, loaded.labels);
            if labels.is_empty() {
                let mut borrowed = Vec::new();
                write_csr_snapshot(&loaded.graph, &mut borrowed).unwrap();
                assert!(borrowed == oracle, "borrowed writer, n = {}", loaded.graph.num_nodes());
            }
        }
    }

    #[test]
    fn bulk_writer_pads_an_odd_adjacency_like_the_per_word_writer() {
        // A CSR of an undirected graph always has an even adjacency
        // length, so padding is only reachable through the raw writer.
        for (offsets, adjacency, labels) in [
            (vec![0, 1, 2, 3], vec![1, 2, 0], vec![]),
            (vec![0, 2, 3, 3], vec![1, 2, 0], vec![7, 8, 9]),
        ] {
            let mut bytes = Vec::new();
            write_parts(&offsets, &adjacency, &labels, &mut bytes).unwrap();
            assert_eq!(bytes, per_word_oracle(&offsets, &adjacency, &labels));
            assert_eq!(bytes.len() % 8, 0, "sections stay 8-byte aligned");
            // The file decodes up to CSR validation, which rejects the
            // asymmetric arrays with a structured error.
            let err = read_snapshot_bytes(&bytes).unwrap_err();
            assert!(matches!(err, GraphError::InvalidCsr { .. }), "{err}");
        }
    }

    #[test]
    fn roundtrip_preserves_graph_and_labels() {
        let loaded = sample();
        let buf = snapshot_bytes(&loaded);
        assert!(is_snapshot_bytes(&buf));
        // Both decode paths: the generic reader and the borrowed-slice one.
        for back in [read_snapshot(&buf[..]).unwrap(), read_snapshot_bytes(&buf).unwrap()] {
            assert_eq!(back.graph, loaded.graph);
            assert_eq!(back.labels, loaded.labels);
            assert_eq!(back.node_for_label(30), loaded.node_for_label(30));
        }
    }

    #[test]
    fn slice_decode_rejects_damage_like_the_reader() {
        let buf = snapshot_bytes(&sample());
        for cut in [0, 7, 20, HEADER_BYTES, buf.len() - 1] {
            let err = read_snapshot_bytes(&buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    GraphError::Snapshot(SnapshotError::Truncated { .. } | SnapshotError::BadMagic)
                ),
                "cut={cut}: {err}"
            );
        }
        let err = read_snapshot_bytes(b"plain text, wrong magic").unwrap_err();
        assert!(matches!(err, GraphError::Snapshot(SnapshotError::BadMagic)), "{err}");
        let mut flipped = buf.clone();
        flipped[HEADER_BYTES + 1] ^= 0x10;
        let err = read_snapshot_bytes(&flipped).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn path_read_maps_and_matches_buffered_decode() {
        let loaded = sample();
        let buf = snapshot_bytes(&loaded);
        let path =
            std::env::temp_dir().join(format!("dkc_snapshot_mmap_{}.dkcsr", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let via_path = read_snapshot_path(&path).unwrap();
        assert_eq!(via_path.graph, loaded.graph);
        assert_eq!(via_path.labels, loaded.labels);
        // Corruption through the mapped path yields the same structured
        // error the buffered path gives, not a fallback re-read.
        let mut flipped = buf.clone();
        flipped[HEADER_BYTES + 1] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        let err = read_snapshot_path(&path).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn identity_labels_are_elided_and_reconstructed() {
        let g = CsrGraph::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]).unwrap();
        let loaded = LoadedGraph::identity(g.clone());
        let buf = snapshot_bytes(&loaded);
        // Elided label table: the 5-node identity snapshot must be smaller
        // than the 4-node labelled sample, which pays 8 bytes per label.
        let with_labels = snapshot_bytes(&sample());
        assert_eq!(header_u64(&buf, 32), 0, "labels_len must be 0 for identity labels");
        assert!(buf.len() < with_labels.len(), "{} vs {}", buf.len(), with_labels.len());
        let back = read_snapshot(&buf[..]).unwrap();
        assert_eq!(back.graph, g);
        assert!(back.labels_are_identity());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let loaded = LoadedGraph::identity(CsrGraph::empty());
        let back = read_snapshot(&snapshot_bytes(&loaded)[..]).unwrap();
        assert_eq!(back.graph.num_nodes(), 0);
        assert_eq!(back.graph.num_edges(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_snapshot(&b"not a snapshot at all, just text"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Snapshot(SnapshotError::BadMagic)), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = snapshot_bytes(&sample());
        buf[8..12].copy_from_slice(&2u32.to_le_bytes());
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(SnapshotError::UnsupportedVersion { found: 2 })),
            "{err}"
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let buf = snapshot_bytes(&sample());
        for cut in [0, 7, 20, HEADER_BYTES, buf.len() - 1] {
            let err = read_snapshot(&buf[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    GraphError::Snapshot(SnapshotError::Truncated { .. } | SnapshotError::BadMagic)
                ),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let mut buf = snapshot_bytes(&sample());
        let idx = HEADER_BYTES + 3;
        buf[idx] ^= 0x40;
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(SnapshotError::ChecksumMismatch { .. })),
            "{err}"
        );
    }

    #[test]
    fn lying_header_counts_are_structured_errors() {
        let mut buf = snapshot_bytes(&sample());
        // Claim an absurd node count: must fail as truncated/corrupt, not
        // attempt a giant allocation.
        buf[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_snapshot(&buf[..]).unwrap_err();
        assert!(matches!(err, GraphError::Snapshot(_)), "{err}");
    }
}
