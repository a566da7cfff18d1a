//! Input preparation: stand-in generation, the paper update stream and the
//! `.dkcsr` snapshot cache. None of this is timed; `run` only reads the
//! files written here.

use crate::workload::Workload;
use dkc_datagen::workload::{paper_mixed_workload, Update};
use dkc_dynamic::EdgeUpdate;
use dkc_graph::io::{write_snapshot_path, LoadedGraph};
use std::path::{Path, PathBuf};

/// Insertions (and, separately, deletions) in the paper's mixed stream —
/// Section VI-E uses 10K of each.
pub const STREAM_EACH: usize = 10_000;

/// The prepared files of one (workload, seed).
pub struct Inputs {
    /// Snapshot of the graph the workload loads at set-up.
    pub base: PathBuf,
    /// The update stream, one `+ u v` / `- u v` line per update.
    pub stream: PathBuf,
}

impl Inputs {
    /// Where the inputs of `w` at `seed` live under `data`.
    pub fn locate(w: Workload, seed: u64, data: &Path) -> Inputs {
        let stem = format!("{}-seed{seed}", w.name());
        Inputs {
            base: data.join(format!("{stem}.dkcsr")),
            stream: data.join(format!("{stem}.stream")),
        }
    }

    /// True when both files exist.
    pub fn ready(&self) -> bool {
        self.base.is_file() && self.stream.is_file()
    }
}

/// Generates the inputs of `w` at `seed` unless they are cached already.
///
/// Every workload draws its stream from `paper_mixed_workload` on the
/// stand-in with the workload seed. The serving workloads load `G'` (the
/// stand-in minus the stream's insertions), so every update really changes
/// the graph. `batch-ds` loads the stand-in itself; its serving phase turns
/// the stream's insertions (edges already present in the stand-in) into
/// deletions, so its updates change the graph too.
pub fn prepare(w: Workload, seed: u64, data: &Path) -> Result<Inputs, String> {
    let inputs = Inputs::locate(w, seed, data);
    if inputs.ready() {
        return Ok(inputs);
    }
    std::fs::create_dir_all(data).map_err(|e| format!("create {}: {e}", data.display()))?;
    let g = w.dataset().standin(1.0, seed);
    let (g_prime, stream) = paper_mixed_workload(&g, STREAM_EACH, seed);
    let (base, updates): (_, Vec<EdgeUpdate>) = if w.starts_from_g_prime() {
        let updates = stream
            .iter()
            .map(|u| match *u {
                Update::Insert(a, b) => EdgeUpdate::Insert(a, b),
                Update::Delete(a, b) => EdgeUpdate::Delete(a, b),
            })
            .collect();
        (g_prime, updates)
    } else {
        drop(g_prime);
        let updates = stream
            .iter()
            .map(|u| {
                let (a, b) = u.endpoints();
                EdgeUpdate::Delete(a, b)
            })
            .collect();
        (g, updates)
    };
    let text: String = updates
        .iter()
        .map(|u| {
            let (a, b) = u.endpoints();
            format!("{} {a} {b}\n", if u.is_insert() { '+' } else { '-' })
        })
        .collect();
    // Write-then-rename, so an interrupted preparation never leaves a
    // half-written input that a later run would trust.
    let tmp_stream = inputs.stream.with_extension("stream.tmp");
    std::fs::write(&tmp_stream, text).map_err(|e| format!("write stream: {e}"))?;
    let tmp_base = inputs.base.with_extension("dkcsr.tmp");
    write_snapshot_path(&LoadedGraph::identity(base), &tmp_base)
        .map_err(|e| format!("write snapshot: {e}"))?;
    std::fs::rename(&tmp_stream, &inputs.stream).map_err(|e| format!("rename stream: {e}"))?;
    std::fs::rename(&tmp_base, &inputs.base).map_err(|e| format!("rename snapshot: {e}"))?;
    Ok(inputs)
}

/// Reads a stream written by [`prepare`].
pub fn read_stream(path: &Path) -> Result<Vec<EdgeUpdate>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let mut parts = line.split(' ');
            let (op, a, b) = (parts.next(), parts.next(), parts.next());
            let id = |s: Option<&str>| s.and_then(|s| s.parse().ok());
            match (op, id(a), id(b)) {
                (Some("+"), Some(a), Some(b)) => Ok(EdgeUpdate::Insert(a, b)),
                (Some("-"), Some(a), Some(b)) => Ok(EdgeUpdate::Delete(a, b)),
                _ => Err(format!("bad stream line {line:?} in {}", path.display())),
            }
        })
        .collect()
}
