//! The open-loop load generator.
//!
//! At most two connections (one for writes, one for reads), each driven by
//! one thread that pipelines: it sends every request at its due time,
//! whether or not earlier replies have arrived, and reads replies in
//! between. Each request is timed from its due time, so a stall counts
//! against every request queued behind it; how late the generator itself
//! sent is recorded separately.
//!
//! Unanswered request bytes are capped below the server's socket receive
//! buffer, so neither side can block on a full socket while the other waits
//! for it. Hitting the cap on a rung above the nominal one aborts the ladder
//! from that rung on (the rung has a growing backlog); at or below the
//! nominal rung the generator waits instead, and the wait shows up as
//! lateness.

use dkc_json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Cap on request bytes sent but not yet answered, per connection.
pub const OUTSTANDING_BYTES: usize = 32 * 1024;

/// A sleep can wake a millisecond or more late (timer slack, an idle
/// virtual CPU), and an open-loop generator charges that lateness to the
/// request. Before a gap longer than `SPARSE_GAP_NS` the generator sleeps
/// until `SPIN_NS` before the due time and spins the rest; denser traffic
/// just sleeps, since spinning there would take a core from the server.
const SPARSE_GAP_NS: u64 = 5_000_000;
const SPIN_NS: u64 = 1_000_000;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One single-edge update.
    Update,
    /// `query group_of`.
    GroupOf,
    /// `query stats`.
    Stats,
    /// `query solution`.
    Solution,
}

/// One scheduled request.
pub struct Req {
    /// When it is due, nanoseconds after the ladder's time zero.
    pub due_ns: u64,
    /// Ladder rung index.
    pub rung: usize,
    /// What it asks for.
    pub kind: Kind,
    /// The request line (without the newline).
    pub line: String,
}

/// The checked content of a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `update` acknowledgement.
    Update {
        /// Epoch the update was published at.
        epoch: u64,
        /// Updates that changed the graph.
        applied: u64,
        /// Updates that were no-ops.
        skipped: u64,
    },
    /// `group_of` answer.
    GroupOf {
        /// Epoch of the view that answered.
        epoch: u64,
        /// The node asked about.
        node: u32,
        /// Its group's members (sorted), `None` when free.
        members: Option<Vec<u32>>,
    },
    /// `stats` answer.
    Stats {
        /// Epoch of the view that answered.
        epoch: u64,
        /// `|S|`.
        size: u64,
        /// The update counters in `stats_to_json` order.
        counters: [u64; 6],
        /// Reply-cache hits and misses.
        cache: (u64, u64),
    },
    /// `solution` answer (bodies are checked through [`Bodies`]).
    Solution {
        /// Epoch of the view that answered.
        epoch: u64,
    },
}

/// What happened to one scheduled request.
#[derive(Debug, Default)]
pub struct Outcome {
    /// When it was written to the socket (`None`: never sent).
    pub sent_ns: Option<u64>,
    /// When its reply line was read.
    pub replied_ns: Option<u64>,
    /// The checked reply, or why it failed.
    pub reply: Option<Result<Reply, String>>,
}

/// The result of [`drive`].
pub struct Driven {
    /// One outcome per request, in schedule order.
    pub outcomes: Vec<Outcome>,
    /// The first `solution` body of every `keep_every`-th epoch, for the
    /// full check against the replay.
    pub solution_bodies: BTreeMap<u64, Vec<u8>>,
}

/// What the generator remembers of `solution` bodies: length and digest
/// of the first body per epoch (later bodies of that epoch must match it
/// byte for byte), and a bounded sample of whole bodies.
struct Bodies {
    first: BTreeMap<u64, (usize, u64)>,
    kept: BTreeMap<u64, Vec<u8>>,
    keep_every: u64,
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off (requests are small and latency-bound).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn { writer, reader: BufReader::new(stream), partial: Vec::new() })
    }

    /// Closed-loop call: sends one line and waits (up to two minutes) for
    /// its reply. Used outside the measured ladder only.
    pub fn call(&mut self, line: &str) -> Result<Vec<u8>, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err("no reply within two minutes".into());
            }
            match self.read_line(left) {
                Ok(Some(reply)) => return Ok(reply),
                Ok(None) => {}
                Err(e) => return Err(format!("receive failed: {e}")),
            }
        }
    }

    /// Reads one complete line, waiting at most `timeout`. `Ok(None)` on
    /// timeout; bytes of a partial line are kept for the next call.
    fn read_line(&mut self, timeout: Duration) -> std::io::Result<Option<Vec<u8>>> {
        self.reader.get_ref().set_read_timeout(Some(timeout.max(Duration::from_micros(20))))?;
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(_) if self.partial.last() == Some(&b'\n') => {
                let mut line = std::mem::take(&mut self.partial);
                line.pop();
                Ok(Some(line))
            }
            Ok(_) => Err(ErrorKind::UnexpectedEof.into()),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `reqs` (sorted by due time) open loop on `conn`.
///
/// Rungs `>= abortable_from` abort once the outstanding cap is hit; the
/// first aborted rung is published through `abort` so the other connection
/// stops at the same rung. Anything unanswered at `deadline_ns` fails.
/// Whole `solution` bodies are kept for epochs divisible by `keep_every`.
pub fn drive(
    conn: &mut Conn,
    reqs: &[Req],
    t0: Instant,
    abortable_from: usize,
    abort: &AtomicUsize,
    deadline_ns: u64,
    keep_every: u64,
) -> Driven {
    let mut outcomes: Vec<Outcome> = reqs.iter().map(|_| Outcome::default()).collect();
    let mut bodies =
        Bodies { first: BTreeMap::new(), kept: BTreeMap::new(), keep_every: keep_every.max(1) };
    let mut pending: VecDeque<(usize, usize)> = VecDeque::new();
    let mut pending_bytes = 0usize;
    let mut next = 0usize;
    let mut burst: Vec<u8> = Vec::new();
    let mut burst_ids: Vec<usize> = Vec::new();
    let fail_pending = |outcomes: &mut [Outcome], pending: &VecDeque<(usize, usize)>, why: &str| {
        for &(i, _) in pending {
            outcomes[i].reply = Some(Err(why.to_string()));
        }
    };
    loop {
        let aborted_at = abort.load(Ordering::SeqCst);
        while next < reqs.len() && reqs[next].rung >= aborted_at {
            next += 1;
        }
        let now = ns_since(t0);
        burst.clear();
        burst_ids.clear();
        let mut capped = false;
        while next < reqs.len() && reqs[next].due_ns <= now && reqs[next].rung < aborted_at {
            let len = reqs[next].line.len() + 1;
            if pending_bytes + len > OUTSTANDING_BYTES && !pending.is_empty() {
                capped = true;
                if reqs[next].rung >= abortable_from {
                    abort.fetch_min(reqs[next].rung, Ordering::SeqCst);
                }
                break;
            }
            burst.extend_from_slice(reqs[next].line.as_bytes());
            burst.push(b'\n');
            burst_ids.push(next);
            pending.push_back((next, len));
            pending_bytes += len;
            next += 1;
        }
        if !burst.is_empty() {
            if let Err(e) = conn.writer.write_all(&burst) {
                fail_pending(&mut outcomes, &pending, &format!("send failed: {e}"));
                break;
            }
            let sent = ns_since(t0);
            for &i in &burst_ids {
                outcomes[i].sent_ns = Some(sent);
            }
        }
        if pending.is_empty()
            && (next >= reqs.len() || reqs[next].rung >= abort.load(Ordering::SeqCst))
        {
            if next >= reqs.len() {
                break;
            }
            continue;
        }
        let now = ns_since(t0);
        if now > deadline_ns {
            fail_pending(&mut outcomes, &pending, "no reply before the run deadline");
            break;
        }
        if pending.is_empty() {
            let due = reqs[next].due_ns;
            let wait = due.saturating_sub(now);
            if wait > SPARSE_GAP_NS {
                std::thread::sleep(Duration::from_nanos(wait - SPIN_NS));
                while ns_since(t0) < due {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::sleep(Duration::from_nanos(wait));
            }
            continue;
        }
        let wait = if next < reqs.len() && !capped {
            reqs[next].due_ns.saturating_sub(now).min(50_000_000)
        } else {
            50_000_000
        };
        match conn.read_line(Duration::from_nanos(wait)) {
            Ok(Some(line)) => {
                let at = ns_since(t0);
                let (i, len) = pending.pop_front().expect("a reply implies a pending request");
                pending_bytes -= len;
                outcomes[i].replied_ns = Some(at);
                outcomes[i].reply = Some(check_reply(reqs[i].kind, line, &mut bodies));
            }
            Ok(None) => {}
            Err(e) => {
                fail_pending(&mut outcomes, &pending, &format!("receive failed: {e}"));
                break;
            }
        }
    }
    Driven { outcomes, solution_bodies: bodies.kept }
}

/// Cheap 64-bit digest of a reply body (solution bodies are compared by
/// length and digest within an epoch instead of re-parsing them on the
/// timed path).
fn digest(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0xcbf2_9ce4_8422_2325u64, |h, chunk| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0100_0000_01b3).rotate_left(29)
    })
}

fn check_reply(kind: Kind, line: Vec<u8>, bodies: &mut Bodies) -> Result<Reply, String> {
    if kind == Kind::Solution {
        const PREFIX: &[u8] = br#"{"ok":true,"epoch":"#;
        let rest = line.strip_prefix(PREFIX).ok_or_else(|| reply_error(&line))?;
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let epoch: u64 = std::str::from_utf8(&rest[..digits])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or("solution reply without an epoch")?;
        let (bytes, hash) = (line.len(), digest(&line));
        match bodies.first.get(&epoch) {
            Some(&first) if first != (bytes, hash) => {
                return Err(format!("two solution replies at epoch {epoch} differ"));
            }
            Some(_) => {}
            None => {
                bodies.first.insert(epoch, (bytes, hash));
                if epoch.is_multiple_of(bodies.keep_every) {
                    bodies.kept.insert(epoch, line);
                }
            }
        }
        return Ok(Reply::Solution { epoch });
    }
    let v = parse_ok(&line)?;
    let num = |key: &str| v.get(key).and_then(Json::as_u64).ok_or(format!("reply lacks {key:?}"));
    let epoch = num("epoch")?;
    match kind {
        Kind::Update => {
            Ok(Reply::Update { epoch, applied: num("applied")?, skipped: num("skipped")? })
        }
        Kind::GroupOf => {
            let node = u32::try_from(num("node")?).map_err(|_| "node id out of range")?;
            let members = match v.get("members") {
                Some(Json::Null) => None,
                Some(Json::Arr(items)) => {
                    let mut m: Vec<u32> = items
                        .iter()
                        .map(|x| x.as_u64().and_then(|u| u32::try_from(u).ok()))
                        .collect::<Option<_>>()
                        .ok_or("bad group member")?;
                    m.sort_unstable();
                    Some(m)
                }
                _ => return Err("group_of reply lacks members".into()),
            };
            Ok(Reply::GroupOf { epoch, node, members })
        }
        Kind::Stats => {
            let stats = v.get("stats").ok_or("stats reply lacks counters")?;
            let mut counters = [0u64; 6];
            for (slot, key) in counters.iter_mut().zip(COUNTERS) {
                *slot = stats.get(key).and_then(Json::as_u64).ok_or("bad stats counters")?;
            }
            let cache = v.get("reply_cache").ok_or("stats reply lacks reply_cache")?;
            let hit = |key: &str| cache.get(key).and_then(Json::as_u64).ok_or("bad reply_cache");
            Ok(Reply::Stats {
                epoch,
                size: num("size")?,
                counters,
                cache: (hit("hits")?, hit("misses")?),
            })
        }
        Kind::Solution => unreachable!("handled above"),
    }
}

/// Update counter names, in `dkc_dynamic::stats_to_json` order.
pub const COUNTERS: [&str; 6] = [
    "insertions",
    "deletions",
    "swaps_attempted",
    "swaps_applied",
    "cliques_added",
    "cliques_removed",
];

/// Parses a reply line and requires `"ok":true`.
pub fn parse_ok(line: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(line).map_err(|_| "reply is not UTF-8".to_string())?;
    let v = Json::parse(text).map_err(|e| format!("reply does not parse: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(reply_error(line));
    }
    Ok(v)
}

fn reply_error(line: &[u8]) -> String {
    let shown = &line[..line.len().min(200)];
    format!("server refused: {}", String::from_utf8_lossy(shown))
}

/// Parses a reply made by [`Conn::call`] for `kind` (closed-loop path).
pub fn check_call(kind: Kind, line: Vec<u8>) -> Result<Reply, String> {
    let mut bodies = Bodies { first: BTreeMap::new(), kept: BTreeMap::new(), keep_every: u64::MAX };
    check_reply(kind, line, &mut bodies)
}
