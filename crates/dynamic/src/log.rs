//! The durable, append-only edge-update journal.
//!
//! Together with a `.dkcsr` graph snapshot and a metadata document, the
//! log makes the serving state restartable: **restart = load snapshot +
//! replay the log tail** (see [`crate::ServingSolver`]). The format is
//! line-based and human-greppable:
//!
//! ```text
//! # dkc-update-log v1
//! b 3          one batch of 3 updates follows
//! + 1 2        insert edge (1, 2)
//! - 3 4        delete edge (3, 4)
//! + 5 6
//! c            commit marker — the batch is durable
//! ```
//!
//! The batch is the only record kind: replay yields each committed batch
//! as its `Vec<EdgeUpdate>`, in append order. A record only counts once
//! its `c` commit marker is on disk, so a process killed mid-append leaves
//! a *truncated tail* that replay silently discards — exactly the record
//! the writer never acknowledged. Malformed bytes before a commit marker
//! are corruption and surface as [`LogError::Corrupt`].
//!
//! Older journals could also hold improvement records (an `i <steps>
//! <seed>` line and its `c`) from a served local search that no longer
//! exists. Replay cannot reproduce one, so a committed `i` record is
//! refused as an unknown record tag rather than skipped; an uncommitted
//! `i` at the tail is a torn record like any other and is discarded.
//! Batch-only journals parse unchanged under the same header.

use crate::EdgeUpdate;
use dkc_graph::NodeId;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

const HEADER: &str = "# dkc-update-log v1";

/// When the journal forces appended records to stable storage.
///
/// Every policy keeps the commit-marker contract — a batch counts only once
/// its `c` line is durable — they differ in *when* durability is paid for:
///
/// * [`PerCommit`](FsyncPolicy::PerCommit) — `fdatasync` after every batch
///   record. A crashed *machine* loses nothing acknowledged; slowest.
/// * [`PerBatch`](FsyncPolicy::PerBatch) — flush to the OS after every
///   batch (the default, and the pre-knob behaviour). A crashed *process*
///   loses nothing acknowledged; a crashed machine can lose batches since
///   the last sync point.
/// * [`Snapshot`](FsyncPolicy::Snapshot) — buffer in the writer until an
///   explicit [`UpdateLog::sync`] (the serving layer syncs on snapshot and
///   shutdown). Fastest; a crashed process can lose batches since the last
///   snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fdatasync` after every committed batch record.
    PerCommit,
    /// Flush to the OS after every batch; sync only at snapshot/shutdown.
    #[default]
    PerBatch,
    /// Buffer until an explicit sync (snapshot/shutdown).
    Snapshot,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::PerCommit => "per-commit",
            FsyncPolicy::PerBatch => "per-batch",
            FsyncPolicy::Snapshot => "snapshot",
        })
    }
}

impl std::str::FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-commit" => Ok(FsyncPolicy::PerCommit),
            "per-batch" => Ok(FsyncPolicy::PerBatch),
            "snapshot" => Ok(FsyncPolicy::Snapshot),
            other => Err(format!(
                "unknown fsync policy `{other}` (expected per-commit, per-batch or snapshot)"
            )),
        }
    }
}

/// Renders one batch as its on-disk/on-wire record text (`b … + … c`).
///
/// This is the only batch formatter: [`UpdateLog::append_batch`] writes
/// exactly these bytes, and they are the unit the replication tail streams
/// to replicas — the wire protocol *is* the log format, commit markers
/// included. `updates` is any re-iterable sequence (a slice, or a merged
/// round's groups flattened), walked once to count and once to render.
pub fn render_record<'a, I>(updates: I) -> String
where
    I: IntoIterator<Item = &'a EdgeUpdate>,
    I::IntoIter: Clone,
{
    use std::fmt::Write as _;
    let updates = updates.into_iter();
    let mut out = format!("b {}\n", updates.clone().count());
    for u in updates {
        // Writing into a String cannot fail.
        let _ = match *u {
            EdgeUpdate::Insert(a, b) => writeln!(out, "+ {a} {b}"),
            EdgeUpdate::Delete(a, b) => writeln!(out, "- {a} {b}"),
        };
    }
    out.push_str("c\n");
    out
}

/// Parses the committed batches of log-format `text` (header optional — a
/// replication tail stream carries bare records). A trailing record
/// without its commit marker is discarded, exactly like file replay.
pub fn parse_records(text: &str) -> Result<Vec<Vec<EdgeUpdate>>, LogError> {
    parse_log(text)
}

/// Failures of the update log.
#[derive(Debug)]
pub enum LogError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Committed log content did not parse.
    Corrupt {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(e) => write!(f, "update log I/O error: {e}"),
            LogError::Corrupt { line, message } => {
                write!(f, "update log corrupt at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            LogError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

/// Append handle onto an update journal file.
#[derive(Debug)]
pub struct UpdateLog {
    path: PathBuf,
    writer: BufWriter<File>,
    policy: FsyncPolicy,
}

impl UpdateLog {
    /// Opens the journal at `path` for appending, creating it (with the
    /// header line) when absent. Uses the default [`FsyncPolicy::PerBatch`].
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, LogError> {
        let path = path.into();
        let fresh = !path.exists();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut writer = BufWriter::new(file);
        if fresh {
            writeln!(writer, "{HEADER}")?;
            writer.flush()?;
        }
        Ok(UpdateLog { path, writer, policy: FsyncPolicy::default() })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The active durability policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Changes when appended records are forced to stable storage.
    pub fn set_policy(&mut self, policy: FsyncPolicy) {
        self.policy = policy;
    }

    /// Appends one batch record, then applies the [`FsyncPolicy`]: flushed
    /// to the OS (per-batch, the default), additionally `fdatasync`ed
    /// (per-commit), or left buffered until [`UpdateLog::sync`] (snapshot).
    /// The batch is considered committed once its `c` marker line reaches
    /// disk.
    ///
    /// The record is rendered whole by [`render_record`] and handed to the
    /// file in a single `write_all`. This is the first step of making an
    /// append atomic (ROADMAP item 5); truncating a torn record on an I/O
    /// error and fencing the writer afterwards are not done yet.
    pub fn append_batch<'a, I>(&mut self, updates: I) -> Result<(), LogError>
    where
        I: IntoIterator<Item = &'a EdgeUpdate>,
        I::IntoIter: Clone,
    {
        self.writer.write_all(render_record(updates).as_bytes())?;
        match self.policy {
            FsyncPolicy::PerCommit => {
                self.writer.flush()?;
                self.writer.get_ref().sync_data()?;
            }
            FsyncPolicy::PerBatch => self.writer.flush()?,
            FsyncPolicy::Snapshot => {}
        }
        Ok(())
    }

    /// Forces the journal contents to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), LogError> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Truncates the journal back to just the header — called after the
    /// serving state snapshots, which makes the logged batches redundant.
    pub fn truncate(&mut self) -> Result<(), LogError> {
        let file = File::create(&self.path)?;
        let mut writer = BufWriter::new(file);
        writeln!(writer, "{HEADER}")?;
        writer.flush()?;
        writer.get_ref().sync_data()?;
        // Re-open the append handle on the fresh file.
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        Ok(())
    }

    /// Replaces the journal at `path` with exactly `batches` (header +
    /// committed records, synced), returning a fresh append handle. The
    /// restore path uses this to drop a torn tail record before new
    /// appends land behind it.
    pub fn rewrite(
        path: impl Into<PathBuf>,
        batches: &[Vec<EdgeUpdate>],
    ) -> Result<Self, LogError> {
        let path = path.into();
        let tmp = path.with_extension("log.tmp");
        {
            let file = File::create(&tmp)?;
            let mut writer = BufWriter::new(file);
            writeln!(writer, "{HEADER}")?;
            for batch in batches {
                write!(writer, "{}", render_record(batch))?;
            }
            writer.flush()?;
            writer.get_ref().sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        Self::open(path)
    }

    /// Reads every **committed** batch of the journal at `path`, in
    /// append order. A trailing record without its commit marker (the
    /// footprint of a killed writer) is discarded; a missing file replays
    /// as empty.
    pub fn replay(path: impl AsRef<Path>) -> Result<Vec<Vec<EdgeUpdate>>, LogError> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok(Vec::new());
        }
        let mut text = String::new();
        File::open(path)?.read_to_string(&mut text)?;
        parse_log(&text)
    }
}

/// An uncommitted record being accumulated by [`parse_log`].
enum Pending {
    /// (declared length, updates so far)
    Batch(usize, Vec<EdgeUpdate>),
    /// An improvement record of an older journal, opened at this line.
    Retired(usize),
}

fn parse_log(text: &str) -> Result<Vec<Vec<EdgeUpdate>>, LogError> {
    let corrupt =
        |line: usize, message: &str| LogError::Corrupt { line, message: message.to_string() };
    let mut records: Vec<Vec<EdgeUpdate>> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut saw_header = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if !saw_header && line != HEADER {
                return Err(corrupt(lineno, "unknown log header"));
            }
            saw_header = true;
            continue;
        }
        let mut tokens = line.split_ascii_whitespace();
        let tag = tokens.next().unwrap_or("");
        match tag {
            "b" | "i" if pending.is_some() => {
                // The previous record never committed but a new one
                // started after it — that is corruption, not a tail.
                return Err(corrupt(lineno, "new record before previous commit marker"));
            }
            // An improvement record of an older journal: refused at its
            // commit marker, discarded as a torn tail without one.
            "i" => pending = Some(Pending::Retired(lineno)),
            "b" => {
                let len: usize = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| corrupt(lineno, "bad batch length"))?;
                // `len` is untrusted input: the updates grow as their lines
                // arrive, and a wrong count fails at the commit marker.
                pending = Some(Pending::Batch(len, Vec::new()));
            }
            "+" | "-" => {
                let Some(Pending::Batch(_, updates)) = pending.as_mut() else {
                    return Err(corrupt(lineno, "update outside a batch record"));
                };
                let a: NodeId = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| corrupt(lineno, "bad endpoint"))?;
                let b: NodeId = tokens
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| corrupt(lineno, "bad endpoint"))?;
                updates.push(if tag == "+" {
                    EdgeUpdate::Insert(a, b)
                } else {
                    EdgeUpdate::Delete(a, b)
                });
            }
            "c" => match pending.take() {
                None => return Err(corrupt(lineno, "commit marker outside a record")),
                Some(Pending::Batch(len, updates)) => {
                    if updates.len() != len {
                        return Err(corrupt(lineno, "batch length mismatch"));
                    }
                    records.push(updates);
                }
                Some(Pending::Retired(line)) => return Err(corrupt(line, "unknown record tag")),
            },
            _ => {
                // An unknown line in the *tail* record could be a torn
                // write (the record never committed, so it is discarded);
                // anywhere else it is corruption.
                if pending.is_some() {
                    break;
                }
                return Err(corrupt(lineno, "unknown record tag"));
            }
        }
    }
    // A pending record without its commit marker is the discarded tail.
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dkc_log_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("updates.log")
    }

    #[test]
    fn append_then_replay_roundtrips() {
        let path = temp_log("roundtrip");
        std::fs::remove_file(&path).ok();
        let mut log = UpdateLog::open(&path).unwrap();
        let b1 = vec![EdgeUpdate::Insert(1, 2), EdgeUpdate::Delete(3, 4)];
        let b2 = vec![EdgeUpdate::Insert(5, 6)];
        log.append_batch(&b1).unwrap();
        log.append_batch(&b2).unwrap();
        log.sync().unwrap();
        assert_eq!(UpdateLog::replay(&path).unwrap(), vec![b1.clone(), b2.clone()]);
        // Re-opening appends after the existing records.
        drop(log);
        let mut log = UpdateLog::open(&path).unwrap();
        log.append_batch(&b2).unwrap();
        assert_eq!(UpdateLog::replay(&path).unwrap(), vec![b1.clone(), b2.clone(), b2.clone()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn improve_records_of_older_journals_are_refused_or_a_torn_tail() {
        let path = temp_log("improve");
        std::fs::remove_file(&path).ok();
        let mut log = UpdateLog::open(&path).unwrap();
        log.append_batch(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        drop(log);
        let committed = std::fs::read_to_string(&path).unwrap();
        // Committed: replay cannot reproduce it, so the journal is refused.
        std::fs::write(&path, format!("{committed}i 256 42\nc\n")).unwrap();
        match UpdateLog::replay(&path) {
            Err(LogError::Corrupt { line: 5, message }) => {
                assert_eq!(message, "unknown record tag")
            }
            other => panic!("expected an unknown record tag, got {other:?}"),
        }
        // Torn (no commit marker): discarded like any torn tail.
        std::fs::write(&path, format!("{committed}i 256 42\n")).unwrap();
        assert_eq!(UpdateLog::replay(&path).unwrap(), vec![vec![EdgeUpdate::Insert(1, 2)]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_is_discarded() {
        let path = temp_log("tail");
        std::fs::remove_file(&path).ok();
        let mut log = UpdateLog::open(&path).unwrap();
        log.append_batch(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        drop(log);
        // Simulate a kill mid-append: a record without its commit marker.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("b 2\n+ 7 8\n");
        std::fs::write(&path, text).unwrap();
        let records = UpdateLog::replay(&path).unwrap();
        assert_eq!(records, vec![vec![EdgeUpdate::Insert(1, 2)]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_drops_a_torn_tail_so_later_appends_stay_replayable() {
        let path = temp_log("rewrite");
        std::fs::remove_file(&path).ok();
        let mut log = UpdateLog::open(&path).unwrap();
        log.append_batch(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        drop(log);
        // Kill mid-append: a torn record with no commit marker. Appending
        // after it WITHOUT a rewrite would interleave a fresh `b` record
        // behind the torn one — unreplayable. The restore path rewrites.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("b 3\n+ 9 9\n");
        std::fs::write(&path, text).unwrap();
        let committed = UpdateLog::replay(&path).unwrap();
        let mut log = UpdateLog::rewrite(&path, &committed).unwrap();
        log.append_batch(&[EdgeUpdate::Delete(1, 2)]).unwrap();
        assert_eq!(
            UpdateLog::replay(&path).unwrap(),
            vec![vec![EdgeUpdate::Insert(1, 2)], vec![EdgeUpdate::Delete(1, 2)]]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_corruption_is_an_error() {
        let path = temp_log("corrupt");
        std::fs::write(&path, format!("{HEADER}\nb 1\n+ x y\nc\n")).unwrap();
        assert!(matches!(UpdateLog::replay(&path), Err(LogError::Corrupt { line: 3, .. })));
        std::fs::write(&path, format!("{HEADER}\nb 2\n+ 1 2\nc\n")).unwrap();
        let e = UpdateLog::replay(&path).unwrap_err();
        assert!(e.to_string().contains("length mismatch"), "{e}");
        std::fs::write(&path, format!("{HEADER}\nzz\n")).unwrap();
        assert!(UpdateLog::replay(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_huge_batch_length_is_corrupt_or_a_discarded_tail_never_a_panic() {
        for len in ["18446744073709551615", "1000000000000"] {
            let committed = format!("{HEADER}\nb {len}\n+ 1 2\nc\n");
            match parse_records(&committed) {
                Err(LogError::Corrupt { line: 4, message }) => {
                    assert_eq!(message, "batch length mismatch", "b {len}")
                }
                other => panic!("b {len}: expected a length mismatch, got {other:?}"),
            }
            let torn = format!("{HEADER}\nb {len}\n+ 1 2\n");
            assert!(parse_records(&torn).unwrap().is_empty(), "b {len}");
        }
    }

    #[test]
    fn snapshot_policy_buffers_until_sync() {
        let path = temp_log("fsync");
        std::fs::remove_file(&path).ok();
        let mut log = UpdateLog::open(&path).unwrap();
        assert_eq!(log.policy(), FsyncPolicy::PerBatch);
        log.set_policy(FsyncPolicy::Snapshot);
        log.append_batch(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        // Buffered in the writer: an independent reader sees nothing yet.
        assert!(UpdateLog::replay(&path).unwrap().is_empty());
        log.sync().unwrap();
        assert_eq!(UpdateLog::replay(&path).unwrap(), vec![vec![EdgeUpdate::Insert(1, 2)]]);
        // Per-commit lands immediately (and additionally fsyncs).
        log.set_policy(FsyncPolicy::PerCommit);
        log.append_batch(&[EdgeUpdate::Delete(1, 2)]).unwrap();
        assert_eq!(UpdateLog::replay(&path).unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policy_parses_and_renders() {
        for (text, policy) in [
            ("per-commit", FsyncPolicy::PerCommit),
            ("per-batch", FsyncPolicy::PerBatch),
            ("snapshot", FsyncPolicy::Snapshot),
        ] {
            assert_eq!(text.parse::<FsyncPolicy>().unwrap(), policy);
            assert_eq!(policy.to_string(), text);
        }
        assert!("always".parse::<FsyncPolicy>().is_err());
    }

    #[test]
    fn render_record_matches_the_wire_and_parses_back() {
        let batch = vec![EdgeUpdate::Insert(1, 2), EdgeUpdate::Delete(3, 4)];
        let record = render_record(&batch);
        assert_eq!(record, "b 2\n+ 1 2\n- 3 4\nc\n");
        // A headerless stream of records parses like a replayed file.
        let stream = format!("{record}{}", render_record(&[]));
        let parsed = parse_records(&stream).unwrap();
        assert_eq!(parsed, vec![batch, Vec::new()]);
        // A torn tail in the stream is discarded, not an error.
        let torn = parse_records("b 2\n+ 1 2\n").unwrap();
        assert!(torn.is_empty());
    }

    #[test]
    fn journal_bytes_are_the_header_then_rendered_records() {
        let path = temp_log("bytes");
        std::fs::remove_file(&path).ok();
        let mixed = vec![
            EdgeUpdate::Insert(1, 2),
            EdgeUpdate::Delete(3, 4),
            EdgeUpdate::Delete(0, 4_000_000_000),
            EdgeUpdate::Insert(7, 7),
        ];
        let deletes = vec![EdgeUpdate::Delete(5, 6)];
        // A merged round journals its groups flattened into one record.
        let groups: [&[EdgeUpdate]; 2] = [&mixed, &deletes];
        let mut log = UpdateLog::open(&path).unwrap();
        log.append_batch(&mixed).unwrap();
        log.append_batch(&[]).unwrap();
        log.append_batch(groups.iter().flat_map(|g| g.iter())).unwrap();
        log.sync().unwrap();
        let flat: Vec<EdgeUpdate> = groups.concat();
        let expected = format!(
            "{HEADER}\n{}{}{}",
            render_record(&mixed),
            render_record(&[]),
            render_record(&flat)
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        assert!(expected.contains("b 5\n+ 1 2\n- 3 4\n- 0 4000000000\n+ 7 7\n- 5 6\nc\n"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_and_empty_log_replay_empty() {
        let path = temp_log("empty");
        std::fs::remove_file(&path).ok();
        assert!(UpdateLog::replay(&path).unwrap().is_empty());
        let mut log = UpdateLog::open(&path).unwrap();
        assert!(UpdateLog::replay(&path).unwrap().is_empty());
        // Truncate resets to the header even after appends.
        log.append_batch(&[EdgeUpdate::Insert(1, 2)]).unwrap();
        log.truncate().unwrap();
        assert!(UpdateLog::replay(&path).unwrap().is_empty());
        log.append_batch(&[EdgeUpdate::Delete(9, 9)]).unwrap();
        assert_eq!(UpdateLog::replay(&path).unwrap(), vec![vec![EdgeUpdate::Delete(9, 9)]]);
        std::fs::remove_file(&path).ok();
    }
}
