//! The threaded TCP server: acceptor + reader worker pool + one writer.
//!
//! Thread model (see the crate docs for the protocol):
//!
//! * the **acceptor** owns the listener and hands accepted connections to
//!   a queue;
//! * **reader workers** (a fixed pool) each serve one connection at a
//!   time, line by line. Read commands (`query`) are answered directly
//!   from the latest published [`SolutionView`] — no writer involvement,
//!   so reads stay parallel while a batch is applying;
//! * the single **writer** owns the [`ServingSolver`]. Mutating commands
//!   (`update`, `snapshot`, `fetch`) travel through a *bounded* queue
//!   (backpressure instead of unbounded growth). The writer applies
//!   updates in *rounds* (group commit without a timer): after popping an
//!   update request it takes every update request already queued behind
//!   it, without waiting, up to a size cap, and applies them as one
//!   [`ServingSolver::apply_grouped`] call — one journal record, one
//!   epoch, one view publication, individual outcome replies. Requests
//!   that arrive while a round journals and applies queue up and form
//!   the next round, so merging grows with load; a lone update never
//!   waits for company.
//!
//! `shutdown` flips a flag; the acceptor stops, workers finish their
//! connections (reads time out periodically so idle connections notice),
//! and [`ServerHandle::join`] drains and joins everything.

use crate::cache::{Body, ReplyCache};
use crate::hub::{ReplicationHub, TailGap};
use crate::protocol::{
    error_reply, fetch_reply, group_of_reply, parse_request, shutdown_reply, snapshot_reply,
    solution_line_into, stats_reply, tail_ack, update_reply, Query, Request,
};
use crate::queue::{BoundedQueue, Pop};
use dkc_dynamic::{render_record, EdgeUpdate, FsyncPolicy, ServingSolver, SharedView};
use dkc_json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of [`Server::start`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Reader worker pool size (concurrent connections served).
    pub readers: usize,
    /// Bound of the writer's update queue (pending mutating commands).
    pub queue_capacity: usize,
    /// Size cap of one writer round. A round starts with the update
    /// request the writer pops and merges the ones queued behind it
    /// (those that arrived while the previous round ran) until it holds
    /// at least this many updates, the queue is empty, or a non-update
    /// command is next. The writer never waits for more requests.
    pub batch_max_updates: usize,
    /// Largest node id update commands may reference. Inserting edge
    /// `(0, u)` grows every node-indexed structure to `u + 1` entries, so
    /// an unbounded id would let one request allocate tens of gigabytes.
    /// `None` derives a cap from the served graph:
    /// `max(2 × nodes, nodes + 1024) - 1`.
    pub max_node: Option<dkc_graph::NodeId>,
    /// When the update journal is forced to stable storage
    /// (`--fsync <per-commit|per-batch|snapshot>` on the CLI).
    pub fsync: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            readers: 4,
            queue_capacity: 128,
            batch_max_updates: 4096,
            max_node: None,
            fsync: FsyncPolicy::default(),
        }
    }
}

/// Committed records the replication hub retains for tailing replicas. A
/// replica more than this many epochs behind must re-bootstrap (`fetch`).
const TAIL_RING_CAPACITY: usize = 4096;

enum WriterOp {
    Batch { updates: Vec<EdgeUpdate>, reply: mpsc::Sender<String> },
    Snapshot { reply: mpsc::Sender<String> },
    Fetch { reply: mpsc::Sender<String> },
}

/// The running server. Construct with [`Server::start`].
pub struct Server;

/// Join/stop handle of a started server.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    writer_queue: Arc<BoundedQueue<WriterOp>>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    writer: JoinHandle<()>,
}

impl Server {
    /// Starts serving `serving` on `listener` (bind it first — `port 0`
    /// gives an ephemeral port, see [`ServerHandle::local_addr`]). Returns
    /// immediately; the server runs on background threads until a client
    /// sends `shutdown` (then [`ServerHandle::join`] returns) or
    /// [`ServerHandle::stop`] is called.
    pub fn start(
        listener: TcpListener,
        mut serving: ServingSolver,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        serving.set_fsync_policy(config.fsync);
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let writer_queue = Arc::new(BoundedQueue::<WriterOp>::new(config.queue_capacity.max(1)));
        let conn_queue = Arc::new(BoundedQueue::<TcpStream>::new(64));
        let hub = Arc::new(ReplicationHub::new(serving.epoch(), TAIL_RING_CAPACITY));
        let cache = Arc::new(ReplyCache::new());
        let shared = serving.reader();
        let max_node = config.max_node.unwrap_or_else(|| {
            let n = serving.view().num_nodes() as u64;
            ((2 * n).max(n + 1024).saturating_sub(1)).min(u64::from(dkc_graph::NodeId::MAX))
                as dkc_graph::NodeId
        });

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let conn_queue = Arc::clone(&conn_queue);
            std::thread::spawn(move || accept_loop(&listener, &conn_queue, &shutdown))
        };
        let workers: Vec<JoinHandle<()>> = (0..config.readers.max(1))
            .map(|_| {
                let shutdown = Arc::clone(&shutdown);
                let conn_queue = Arc::clone(&conn_queue);
                let writer_queue = Arc::clone(&writer_queue);
                let shared = shared.clone();
                let hub = Arc::clone(&hub);
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    worker_loop(
                        &conn_queue,
                        &writer_queue,
                        &shared,
                        &hub,
                        &cache,
                        &shutdown,
                        max_node,
                    )
                })
            })
            .collect();
        let writer = {
            let writer_queue = Arc::clone(&writer_queue);
            let hub = Arc::clone(&hub);
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || writer_loop(serving, &writer_queue, &hub, &cache, config))
        };
        Ok(ServerHandle { local_addr, shutdown, writer_queue, acceptor, workers, writer })
    }
}

impl ServerHandle {
    /// The bound address (resolves `port 0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown programmatically (same effect as the `shutdown`
    /// command).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the server to finish: the acceptor and workers exit once
    /// shutdown is requested, then the writer drains its queue (pending
    /// updates still commit and journal) and syncs.
    pub fn join(self) {
        self.acceptor.join().expect("acceptor panicked");
        for w in self.workers {
            w.join().expect("reader worker panicked");
        }
        // All producers are gone; drain the writer and stop it.
        self.writer_queue.close();
        self.writer.join().expect("writer panicked");
    }
}

fn accept_loop(
    listener: &TcpListener,
    conn_queue: &BoundedQueue<TcpStream>,
    shutdown: &AtomicBool,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                if conn_queue.push(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    conn_queue.close();
}

fn worker_loop(
    conn_queue: &BoundedQueue<TcpStream>,
    writer_queue: &BoundedQueue<WriterOp>,
    shared: &SharedView,
    hub: &ReplicationHub,
    cache: &ReplyCache,
    shutdown: &AtomicBool,
    max_node: dkc_graph::NodeId,
) {
    loop {
        match conn_queue.pop_timeout(Duration::from_millis(100)) {
            Pop::Item(stream) => {
                handle_connection(stream, writer_queue, shared, hub, cache, shutdown, max_node)
            }
            Pop::Timeout => {
                if shutdown.load(Ordering::SeqCst) {
                    // The acceptor will close the queue momentarily; keep
                    // draining so queued connections get served or dropped.
                    continue;
                }
            }
            Pop::Closed => break,
        }
    }
}

/// Writes `line` plus its terminating `\n` in one `write_all`: on a raw
/// `TcpStream`, `writeln!` issues one `write` per formatted piece, so a
/// reply would leave as two segments. Shared with every front end.
pub(crate) fn send_line(writer: &mut impl Write, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// Longest request line, in bytes, that either client-facing front end
/// (the server's and a replica's) reads. A longer line gets an `ok:false`
/// reply and the connection is closed: without a cap, a client that never
/// sends `\n` grows the reader's buffer without bound. 1 MiB is five times
/// the longest line any client in this repository sends (the 200 KB
/// nesting probe of `tools/serve_smoke.py`; a full batch of
/// [`ServerConfig::batch_max_updates`] updates is about 150 KB). The
/// replication reads (`fetch` replies, the `tail` stream) are not capped.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// What [`read_line_patiently`] got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineRead {
    /// A line (with its `\n`, unless the peer closed right after it).
    Line,
    /// More than the limit's bytes arrived without a `\n`.
    TooLong,
    /// EOF, a connection error, or shutdown.
    Closed,
}

/// Reads one line of at most `limit` bytes plus its `\n` into `buf`,
/// tolerating read timeouts (so idle connections observe shutdown). Bytes
/// are read as they come; callers decode the whole line. Shared with the
/// replica front end and its tail reader.
pub(crate) fn read_line_patiently(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
    limit: usize,
) -> LineRead {
    buf.clear();
    loop {
        // One byte past the limit is enough to tell a line that is too long.
        let room = limit.saturating_add(1).saturating_sub(buf.len());
        match reader.by_ref().take(room as u64).read_until(b'\n', buf) {
            Ok(0) => return LineRead::Closed, // EOF
            Ok(_) if buf.len() > limit && !buf.ends_with(b"\n") => return LineRead::TooLong,
            Ok(_) => return LineRead::Line,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Partial bytes (if any) are already in `buf`; keep going
                // unless the server is shutting down.
                if shutdown.load(Ordering::SeqCst) {
                    return LineRead::Closed;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Closed,
        }
    }
}

/// Reads the next request line of a client connection, capped at
/// [`MAX_REQUEST_LINE_BYTES`]. Returns `None` when the connection is to be
/// closed: on EOF, error or shutdown, and after answering an over-long
/// line with an `ok:false` reply. Shared with the replica front end.
pub(crate) fn read_request(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    writer: &mut TcpStream,
    shutdown: &AtomicBool,
) -> Option<()> {
    match read_line_patiently(reader, buf, shutdown, MAX_REQUEST_LINE_BYTES) {
        LineRead::Line => Some(()),
        LineRead::Closed => None,
        LineRead::TooLong => {
            let message = format!(
                "request line longer than {MAX_REQUEST_LINE_BYTES} bytes; closing the connection"
            );
            let _ = send_line(writer, error_reply(message).render());
            None
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    writer_queue: &BoundedQueue<WriterOp>,
    shared: &SharedView,
    hub: &ReplicationHub,
    cache: &ReplyCache,
    shutdown: &AtomicBool,
    max_node: dkc_graph::NodeId,
) {
    stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // One write buffer per connection, cleared and refilled per reply —
    // the steady-state read path allocates nothing beyond what a reply
    // itself requires (and nothing at all on a cache hit).
    let mut out = String::new();
    while read_request(&mut reader, &mut line, &mut writer, shutdown).is_some() {
        // Borrowed unless the line is not UTF-8, which then fails to parse.
        let line = String::from_utf8_lossy(&line);
        if line.trim().is_empty() {
            continue;
        }
        out.clear();
        // Cache hits borrow the shared rendered line (newline included)
        // instead of copying it into `out`; exactly one of `cached` / `out`
        // carries the reply.
        let mut cached: Option<Body> = None;
        match parse_request(line.trim_end()) {
            Err(message) => error_reply(message).render_into(&mut out),
            Ok(Request::Query(query)) => {
                // One Arc per query: every field of the reply comes from
                // one immutable view — a consistent epoch even while the
                // writer publishes mid-request.
                let view = shared.current();
                match query {
                    Query::GroupOf(node) => group_of_reply(&view, node).render_into(&mut out),
                    Query::Solution => {
                        // Epoch-keyed: the first reader at this epoch
                        // renders, every later one serves the same bytes.
                        cached = Some(
                            cache.solution_body(view.epoch(), |buf| solution_line_into(&view, buf)),
                        );
                    }
                    Query::Stats => {
                        // Never cached: carries the live cache counters.
                        let (hits, misses) = cache.counters();
                        let mut reply = stats_reply(&view);
                        if let Json::Obj(members) = &mut reply {
                            members.push((
                                "reply_cache".into(),
                                Json::Obj(vec![
                                    ("hits".into(), Json::u64(hits)),
                                    ("misses".into(), Json::u64(misses)),
                                ]),
                            ));
                        }
                        reply.render_into(&mut out);
                    }
                }
            }
            Ok(Request::Update(updates)) => {
                // Reject ids beyond the growth cap before they reach the
                // writer: node-indexed structures resize to max_id + 1, so
                // an unchecked id is a one-request memory bomb.
                match updates
                    .iter()
                    .map(|u| {
                        let (a, b) = u.endpoints();
                        a.max(b)
                    })
                    .max()
                {
                    Some(top) if top > max_node => error_reply(format!(
                        "node id {top} exceeds this server's limit of {max_node}"
                    ))
                    .render_into(&mut out),
                    _ => out.push_str(&round_trip(writer_queue, |reply| WriterOp::Batch {
                        updates,
                        reply,
                    })),
                }
            }
            Ok(Request::Snapshot) => {
                out.push_str(&round_trip(writer_queue, |reply| WriterOp::Snapshot { reply }));
            }
            Ok(Request::Fetch) => {
                // The writer fills this slot after rendering an export at
                // its epoch; a hit skips the writer round-trip entirely.
                match cache.fetch_lookup(shared.current().epoch()) {
                    Some(body) => cached = Some(body),
                    None => {
                        out.push_str(&round_trip(writer_queue, |reply| WriterOp::Fetch { reply }));
                    }
                }
            }
            Ok(Request::Tail { from }) => {
                // The connection becomes a one-way replication stream; it
                // ends on client disconnect, shutdown, or a stale cursor.
                tail_connection(&mut writer, shared, hub, from, shutdown);
                return;
            }
            Ok(Request::Shutdown) => {
                let _ = send_line(&mut writer, shutdown_reply(shared.current().epoch()).render());
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
        };
        // One `write` per reply: the line and its '\n' leave together.
        let line: &str = match &cached {
            Some(body) => body,
            None => {
                out.push('\n');
                &out
            }
        };
        if writer.write_all(line.as_bytes()).is_err() {
            return;
        }
    }
}

/// Serves a `tail` stream: the JSON ack, then raw journal-format records
/// as the writer commits them. Keepalive comment lines (`# …`) flow while
/// the tail is caught up so a vanished client is noticed; replicas skip
/// them. Ends on client disconnect, shutdown, or a stale cursor (the
/// client must re-bootstrap with `fetch`).
fn tail_connection(
    writer: &mut TcpStream,
    shared: &SharedView,
    hub: &ReplicationHub,
    from: u64,
    shutdown: &AtomicBool,
) {
    if send_line(writer, tail_ack(shared.current().epoch(), from).render()).is_err() {
        return;
    }
    let mut cursor = from;
    while !shutdown.load(Ordering::SeqCst) {
        match hub.collect_after(cursor, Duration::from_millis(200)) {
            Ok((next, records)) => {
                for record in records {
                    if writer.write_all(record.as_bytes()).is_err() {
                        return;
                    }
                }
                if writer.flush().is_err() {
                    return;
                }
                cursor = next;
            }
            Err(TailGap::Timeout) => {
                if writer.write_all(b"# keepalive\n").is_err() {
                    return;
                }
            }
            Err(TailGap::Stale { oldest }) => {
                let _ = send_line(
                    writer,
                    format!("# stale: oldest retained epoch is {oldest}, re-bootstrap with fetch"),
                );
                return;
            }
            Err(TailGap::Closed) => return,
        }
    }
}

/// Sends one op to the writer thread and waits for its reply line.
fn round_trip(
    writer_queue: &BoundedQueue<WriterOp>,
    make_op: impl FnOnce(mpsc::Sender<String>) -> WriterOp,
) -> String {
    let (tx, rx) = mpsc::channel();
    if writer_queue.push(make_op(tx)).is_err() {
        return error_reply("server is shutting down").render();
    }
    rx.recv().unwrap_or_else(|_| error_reply("writer thread unavailable").render())
}

fn writer_loop(
    mut serving: ServingSolver,
    queue: &BoundedQueue<WriterOp>,
    hub: &ReplicationHub,
    cache: &ReplyCache,
    config: ServerConfig,
) {
    loop {
        match queue.pop_timeout(Duration::from_millis(100)) {
            Pop::Closed => break,
            Pop::Timeout => continue,
            Pop::Item(WriterOp::Batch { updates, reply }) => {
                // Group commit: merge the update requests already queued
                // behind this one (never waiting for more), then apply the
                // round as one epoch.
                let mut groups: Vec<(Vec<EdgeUpdate>, mpsc::Sender<String>)> =
                    vec![(updates, reply)];
                let mut total = groups[0].0.len();
                let mut carried: Option<WriterOp> = None;
                while total < config.batch_max_updates {
                    match queue.pop_timeout(Duration::ZERO) {
                        Pop::Item(WriterOp::Batch { updates, reply }) => {
                            total += updates.len();
                            groups.push((updates, reply));
                        }
                        // A non-batch op ends the round: the batches ahead
                        // of it apply first, then it runs.
                        Pop::Item(other) => {
                            carried = Some(other);
                            break;
                        }
                        Pop::Timeout | Pop::Closed => break,
                    }
                }
                apply_round(&mut serving, hub, cache, groups);
                if let Some(op) = carried {
                    run_writer_op(&mut serving, cache, op);
                }
            }
            Pop::Item(op) => run_writer_op(&mut serving, cache, op),
        }
    }
    // Graceful exit: force the journal to stable storage and release any
    // tailing replicas.
    if let Err(e) = serving.sync() {
        eprintln!("# journal sync at shutdown failed: {e}");
    }
    hub.close();
}

fn apply_round(
    serving: &mut ServingSolver,
    hub: &ReplicationHub,
    cache: &ReplyCache,
    groups: Vec<(Vec<EdgeUpdate>, mpsc::Sender<String>)>,
) {
    let refs: Vec<&[EdgeUpdate]> = groups.iter().map(|(g, _)| g.as_slice()).collect();
    match serving.apply_grouped(&refs) {
        Ok((outcomes, view)) => {
            // New epoch published: drop rendered bodies before replying so
            // no reader re-fills a slot for a dead epoch.
            cache.invalidate();
            // Mirror the journal: the merged round is ONE record and ONE
            // epoch on the wire, exactly as `apply_grouped` journals it.
            hub.publish(view.epoch(), render_record(refs.iter().flat_map(|g| g.iter())));
            for ((_, reply), outcome) in groups.iter().zip(outcomes) {
                let _ = reply.send(update_reply(view.epoch(), outcome, view.len()).render());
            }
        }
        Err(e) => {
            let line = error_reply(e.to_string()).render();
            for (_, reply) in &groups {
                let _ = reply.send(line.clone());
            }
        }
    }
}

fn run_writer_op(serving: &mut ServingSolver, cache: &ReplyCache, op: WriterOp) {
    match op {
        WriterOp::Batch { .. } => unreachable!("batches go through apply_round"),
        WriterOp::Snapshot { reply } => {
            // Compaction changes no observable state; the cache survives.
            let line = match serving.compact() {
                Ok(path) => snapshot_reply(serving.epoch(), path.as_deref()).render(),
                Err(e) => error_reply(e.to_string()).render(),
            };
            let _ = reply.send(line);
        }
        WriterOp::Fetch { reply } => {
            let state = serving.export_state();
            let body = fetch_reply(serving.epoch(), state).render();
            // Publish for the readers: later fetches at this epoch are
            // served straight from the cache, no writer round-trip.
            cache.store_fetch(serving.epoch(), format!("{body}\n"));
            let _ = reply.send(body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkc_core::{Algo, SolveRequest};
    use dkc_dynamic::parse_records;
    use dkc_graph::CsrGraph;
    use std::path::{Path, PathBuf};

    /// Ten disjoint triangles `(3i, 3i+1, 3i+2)`: deleting `(3i, 3i+1)`
    /// applies and breaks exactly group `i`.
    fn triangles() -> CsrGraph {
        let edges = (0..10u32).flat_map(|i| {
            let a = 3 * i;
            [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        });
        CsrGraph::from_edges(30, edges).unwrap()
    }

    fn durable(tag: &str) -> (PathBuf, ServingSolver) {
        let dir =
            std::env::temp_dir().join(format!("dkc_writer_rounds_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let serving = ServingSolver::create(&dir, &triangles(), SolveRequest::new(Algo::Lp, 3))
            .expect("create durable state");
        (dir, serving)
    }

    fn delete(i: u32) -> Vec<EdgeUpdate> {
        vec![EdgeUpdate::Delete(3 * i, 3 * i + 1)]
    }

    fn queue_batch(
        queue: &BoundedQueue<WriterOp>,
        updates: Vec<EdgeUpdate>,
    ) -> mpsc::Receiver<String> {
        let (reply, rx) = mpsc::channel();
        assert!(queue.push(WriterOp::Batch { updates, reply }).is_ok());
        rx
    }

    /// Runs the writer over ops queued before it starts. The queue is
    /// closed first, so the writer drains it and returns; round formation
    /// depends only on queue order, never on timing. Returns the live
    /// view's reader and the records the writer replicated.
    fn drain(
        serving: ServingSolver,
        queue: &BoundedQueue<WriterOp>,
        batch_max_updates: usize,
    ) -> (SharedView, Vec<String>) {
        let shared = serving.reader();
        let start = serving.epoch();
        let hub = ReplicationHub::new(start, TAIL_RING_CAPACITY);
        queue.close();
        let config = ServerConfig { batch_max_updates, ..ServerConfig::default() };
        writer_loop(serving, queue, &hub, &ReplyCache::new(), config);
        let (_, records) =
            hub.collect_after(start, Duration::ZERO).expect("every round was replicated");
        (shared, records)
    }

    fn reply(rx: &mpsc::Receiver<String>) -> Json {
        let line = rx.recv().expect("every queued op gets a reply");
        let v = Json::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        v
    }

    fn epoch(v: &Json) -> u64 {
        v.get("epoch").and_then(Json::as_u64).expect("epoch")
    }

    /// Update counts of the batch records in the live generation's journal.
    fn journal_batches(dir: &Path) -> Vec<usize> {
        let logs: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "log"))
            .collect();
        assert_eq!(logs.len(), 1, "one live journal generation: {logs:?}");
        let text = std::fs::read_to_string(&logs[0]).unwrap();
        parse_records(&text).unwrap().iter().map(Vec::len).collect()
    }

    /// Restoring the state directory reproduces the live `solution` reply
    /// byte for byte.
    fn assert_restores(dir: &Path, live: &SharedView) {
        let live = crate::protocol::solution_line(&live.current());
        let restored = ServingSolver::restore(dir).expect("restore");
        assert_eq!(crate::protocol::solution_line(&restored.view()), live);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn queued_batches_merge_into_one_round() {
        let (dir, serving) = durable("merge");
        let size0 = serving.view().len();
        let queue = BoundedQueue::new(16);
        let rxs: Vec<_> = (0..5).map(|i| queue_batch(&queue, delete(i))).collect();
        let (live, records) = drain(serving, &queue, 4096);

        let replies: Vec<Json> = rxs.iter().map(reply).collect();
        // One shared epoch, but each client's own outcome.
        assert!(replies.iter().all(|v| epoch(v) == 1), "{replies:?}");
        for v in &replies {
            assert_eq!(v.get("applied").and_then(Json::as_u64), Some(1));
            assert_eq!(v.get("size_delta").and_then(Json::as_i64), Some(-1));
            assert_eq!(v.get("size").and_then(Json::as_usize), Some(size0 - 5));
        }
        assert_eq!(journal_batches(&dir), vec![5]);
        // The replicated record is the journaled one.
        let flat: Vec<EdgeUpdate> = (0..5).flat_map(delete).collect();
        assert_eq!(records, vec![render_record(&flat)]);
        assert!(records[0].starts_with("b 5\n"));
        assert_restores(&dir, &live);
    }

    #[test]
    fn a_non_batch_op_splits_the_round() {
        let (dir, serving) = durable("split");
        let queue = BoundedQueue::new(16);
        let before = [queue_batch(&queue, delete(0)), queue_batch(&queue, delete(1))];
        let (snap_reply, snap_rx) = mpsc::channel();
        assert!(queue.push(WriterOp::Snapshot { reply: snap_reply }).is_ok());
        let after = [queue_batch(&queue, delete(2)), queue_batch(&queue, delete(3))];
        let (live, records) = drain(serving, &queue, 4096);

        let before: Vec<u64> = before.iter().map(|rx| epoch(&reply(rx))).collect();
        let snapshot = reply(&snap_rx);
        let after: Vec<u64> = after.iter().map(|rx| epoch(&reply(rx))).collect();
        assert_eq!(before, vec![1, 1]);
        // The snapshot ran between the rounds, at the first round's epoch.
        assert_eq!(epoch(&snapshot), 1);
        assert_eq!(snapshot.get("durable").and_then(Json::as_bool), Some(true));
        assert_eq!(after, vec![2, 2]);
        // Compaction started a fresh journal: it holds the second round only.
        assert_eq!(journal_batches(&dir), vec![2]);
        assert_eq!(records.len(), 2);
        assert_restores(&dir, &live);
    }

    #[test]
    fn batch_max_updates_caps_each_round() {
        let (dir, serving) = durable("cap");
        let queue = BoundedQueue::new(16);
        let rxs: Vec<_> = (0..5).map(|i| queue_batch(&queue, delete(i))).collect();
        let (live, records) = drain(serving, &queue, 2);

        let epochs: Vec<u64> = rxs.iter().map(|rx| epoch(&reply(rx))).collect();
        assert_eq!(epochs, vec![1, 1, 2, 2, 3]);
        assert_eq!(journal_batches(&dir), vec![2, 2, 1]);
        assert_eq!(records.len(), 3);
        assert_restores(&dir, &live);
    }
}
