//! Read replicas: tail a primary's update log over the wire, serve queries.
//!
//! A replica bootstraps by `fetch`ing the primary's full serving
//! state (graph and solution; a solver built from them behaves exactly
//! like the primary's), then holds a `tail` connection streaming committed
//! journal records and applies each one — batches with
//! [`ServingSolver::apply_batch`], improvement slices by re-running
//! [`ServingSolver::improve`] with the journaled `(steps, seed)` — giving
//! bit-identical views at every epoch, because both the dynamic update
//! algorithms and the local search are deterministic. Every record must
//! advance the epoch by exactly one, as it did on the primary; one that
//! does not means the replica diverged, and it re-bootstraps rather than
//! serve views the primary never published.
//!
//! Catch-up protocol, in order of escalation:
//!
//! 1. **live tail** — records arrive as the primary commits them; the
//!    replica's epoch tracks the primary's with a lag of one wire round;
//! 2. **reconnect** — on a dropped tail connection the replica re-tails
//!    `from` its current epoch; the primary replays the missed records
//!    from its in-memory ring;
//! 3. **re-bootstrap** — if the replica fell further behind than the ring
//!    retains (the primary says `# stale`), or a record failed to advance
//!    its epoch, it discards its state and `fetch`es afresh.
//!
//! The replica answers the normal query protocol read-only: `query` is
//! served from its own published [`SolutionView`]; mutating commands get
//! an error pointing at the primary; `shutdown` stops the replica alone.
//! Its `stats` reply adds `primary_silent_ms`, the time since the last line
//! from the primary (keepalives included): while the primary is gone the
//! replica keeps serving its last epoch, and this value grows.

use crate::protocol::{
    error_reply, group_of_reply, parse_request, render_command_request, render_tail_request,
    shutdown_reply, solution_line, stats_reply, Query, Request,
};
use crate::queue::{BoundedQueue, Pop};
use crate::server::{read_line_patiently, read_request, send_line, LineRead};
use dkc_dynamic::{parse_records, LogRecord, ServingSolver, SharedView};
use dkc_json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of [`Replica::start`].
#[derive(Debug, Clone, Copy)]
pub struct ReplicaConfig {
    /// Reader worker pool size (concurrent query connections).
    pub readers: usize,
    /// How long the initial bootstrap `fetch` may take before
    /// [`Replica::start`] gives up.
    pub bootstrap_timeout: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig { readers: 2, bootstrap_timeout: Duration::from_secs(30) }
    }
}

/// A read replica process. Construct with [`Replica::start`].
pub struct Replica;

/// The view indirection: re-bootstrapping replaces the whole
/// [`ServingSolver`], so readers resolve the live [`SharedView`] through
/// this cell on every query.
type ViewCell = Arc<RwLock<SharedView>>;

/// When the replica last heard from its primary: a `fetch` reply or any
/// `tail` line, keepalives included. A replica whose primary is gone keeps
/// serving its last epoch; the growing silence in its `stats` reply is
/// what says so.
struct LastHeard {
    start: Instant,
    /// Milliseconds after `start`.
    at_ms: AtomicU64,
}

impl LastHeard {
    fn new() -> Self {
        LastHeard { start: Instant::now(), at_ms: AtomicU64::new(0) }
    }

    fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn now(&self) {
        self.at_ms.store(self.elapsed_ms(), Ordering::Relaxed);
    }

    /// Milliseconds since the primary was last heard.
    fn silence_ms(&self) -> u64 {
        self.elapsed_ms().saturating_sub(self.at_ms.load(Ordering::Relaxed))
    }
}

/// Join/stop handle of a started replica.
pub struct ReplicaHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    cell: ViewCell,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    applier: JoinHandle<()>,
}

impl Replica {
    /// Bootstraps from the primary at `primary_addr` (blocking
    /// `fetch`), then serves read queries on `listener` while a background
    /// applier tails the primary's journal. Returns once the bootstrap
    /// completed — the replica is immediately consistent as of the fetched
    /// epoch.
    pub fn start(
        primary_addr: &str,
        listener: TcpListener,
        config: ReplicaConfig,
    ) -> std::io::Result<ReplicaHandle> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let serving = fetch_state(primary_addr, config.bootstrap_timeout, &shutdown)?;
        let cell: ViewCell = Arc::new(RwLock::new(serving.reader()));
        let heard = Arc::new(LastHeard::new());

        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let conn_queue = Arc::new(BoundedQueue::<TcpStream>::new(64));

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let conn_queue = Arc::clone(&conn_queue);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            stream.set_nodelay(true).ok();
                            if conn_queue.push(stream).is_err() {
                                break;
                            }
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                }
                conn_queue.close();
            })
        };
        let workers: Vec<JoinHandle<()>> = (0..config.readers.max(1))
            .map(|_| {
                let shutdown = Arc::clone(&shutdown);
                let conn_queue = Arc::clone(&conn_queue);
                let cell = Arc::clone(&cell);
                let heard = Arc::clone(&heard);
                let primary = primary_addr.to_string();
                std::thread::spawn(move || loop {
                    match conn_queue.pop_timeout(Duration::from_millis(100)) {
                        Pop::Item(stream) => {
                            serve_connection(stream, &cell, &heard, &shutdown, &primary)
                        }
                        Pop::Timeout => {}
                        Pop::Closed => break,
                    }
                })
            })
            .collect();
        let applier = {
            let shutdown = Arc::clone(&shutdown);
            let cell = Arc::clone(&cell);
            let primary = primary_addr.to_string();
            let timeout = config.bootstrap_timeout;
            std::thread::spawn(move || {
                applier_loop(serving, &cell, &heard, &primary, timeout, &shutdown)
            })
        };
        Ok(ReplicaHandle { local_addr, shutdown, cell, acceptor, workers, applier })
    }
}

impl ReplicaHandle {
    /// The bound address (resolves `port 0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Epoch of the latest locally applied view — how far catch-up got.
    pub fn epoch(&self) -> u64 {
        self.cell.read().expect("view cell").current().epoch()
    }

    /// Requests shutdown programmatically.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the acceptor, workers and the tail applier to finish.
    pub fn join(self) {
        self.acceptor.join().expect("replica acceptor panicked");
        for w in self.workers {
            w.join().expect("replica worker panicked");
        }
        self.applier.join().expect("replica applier panicked");
    }
}

/// One request/reply call on a fresh connection, with a deadline.
fn call_once(
    addr: &str,
    line: &str,
    deadline: Instant,
    shutdown: &AtomicBool,
) -> std::io::Result<String> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
    let mut writer = stream.try_clone()?;
    send_line(&mut writer, line.to_owned())?;
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => return Err(std::io::Error::other("connection closed mid-reply")),
            Ok(_) => return Ok(buf),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline || shutdown.load(Ordering::SeqCst) {
                    return Err(std::io::Error::other("reply deadline exceeded"));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// The bootstrap: `fetch` the primary's full state and import it.
fn fetch_state(
    primary_addr: &str,
    timeout: Duration,
    shutdown: &AtomicBool,
) -> std::io::Result<ServingSolver> {
    let deadline = Instant::now() + timeout;
    let mut last_err = None;
    while Instant::now() < deadline && !shutdown.load(Ordering::SeqCst) {
        match try_fetch(primary_addr, deadline, shutdown) {
            Ok(serving) => return Ok(serving),
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("bootstrap interrupted")))
}

fn try_fetch(
    primary_addr: &str,
    deadline: Instant,
    shutdown: &AtomicBool,
) -> std::io::Result<ServingSolver> {
    let line = call_once(primary_addr, &render_command_request("fetch"), deadline, shutdown)?;
    let v = Json::parse(line.trim_end()).map_err(std::io::Error::other)?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = v.get("error").and_then(Json::as_str).unwrap_or("fetch refused");
        return Err(std::io::Error::other(format!("fetch failed: {msg}")));
    }
    let state = v.get("state").ok_or_else(|| std::io::Error::other("fetch reply lacks state"))?;
    ServingSolver::import_state(state).map_err(std::io::Error::other)
}

/// Owns the replica's [`ServingSolver`]: tails the primary, applies every
/// committed record, re-bootstraps when the primary reports the cursor
/// stale. See the module docs for the escalation ladder.
fn applier_loop(
    mut serving: ServingSolver,
    cell: &ViewCell,
    heard: &LastHeard,
    primary: &str,
    bootstrap_timeout: Duration,
    shutdown: &AtomicBool,
) {
    let mut backoff = Duration::from_millis(50);
    'connect: while !shutdown.load(Ordering::SeqCst) {
        let stream = match TcpStream::connect(primary) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => continue,
        };
        if send_line(&mut writer, render_tail_request(serving.epoch())).is_err() {
            std::thread::sleep(backoff);
            continue;
        }
        let mut reader = BufReader::new(stream);
        let mut line = Vec::new();
        if read_line_patiently(&mut reader, &mut line, shutdown, usize::MAX) != LineRead::Line {
            std::thread::sleep(backoff);
            continue;
        }
        heard.now();
        let ack_ok = Json::parse(String::from_utf8_lossy(&line).trim_end())
            .ok()
            .and_then(|v| v.get("ok").and_then(Json::as_bool))
            == Some(true);
        if !ack_ok {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(Duration::from_secs(1));
            continue;
        }
        backoff = Duration::from_millis(50);

        // Stream state: journal-format lines accumulate until each commit
        // marker, then the whole record applies as one epoch.
        // Keepalives can arrive faster than the read timeout fires, so
        // shutdown is checked per line, not only on a timeout.
        let mut record = String::new();
        while !shutdown.load(Ordering::SeqCst)
            && read_line_patiently(&mut reader, &mut line, shutdown, usize::MAX) == LineRead::Line
        {
            heard.now();
            let line = String::from_utf8_lossy(&line);
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(comment) = trimmed.strip_prefix('#') {
                if comment.trim_start().starts_with("stale") {
                    // Fell out of the primary's ring: full re-bootstrap.
                    rebootstrap(&mut serving, cell, heard, primary, bootstrap_timeout, shutdown);
                    continue 'connect;
                }
                continue; // keepalive
            }
            record.push_str(trimmed);
            record.push('\n');
            if trimmed == "c" {
                match parse_records(&record) {
                    Ok(records) => {
                        if !records.into_iter().all(|rec| apply_record(&mut serving, rec)) {
                            rebootstrap(
                                &mut serving,
                                cell,
                                heard,
                                primary,
                                bootstrap_timeout,
                                shutdown,
                            );
                            continue 'connect;
                        }
                    }
                    Err(_) => {
                        // Corrupt stream — drop the connection and re-tail
                        // from the last good epoch.
                        record.clear();
                        continue 'connect;
                    }
                }
                record.clear();
            }
        }
        // Disconnected (or shutdown): reconnect from the current epoch.
    }
}

/// Applies one replicated record. Returns false when the record did not
/// advance the epoch by exactly one, as it did on the primary that
/// journaled it (say, an improvement slice that applied no move here): the
/// replica has diverged and must re-bootstrap.
fn apply_record(serving: &mut ServingSolver, record: LogRecord) -> bool {
    let before = serving.epoch();
    // In-memory state: neither apply can fail on I/O.
    match record {
        LogRecord::Batch(batch) => {
            let _ = serving.apply_batch(&batch);
        }
        // Deterministic over the replicated state: the slice applies the
        // same moves the primary journaled.
        LogRecord::Improve { steps, seed } => {
            let _ = serving.improve(steps, seed);
        }
    }
    serving.epoch() == before + 1
}

/// Replaces the replica's state by a fresh `fetch` from the primary and
/// points the readers at it. Keeps the current state when no fetch
/// succeeds within `timeout`; the caller re-tails either way.
fn rebootstrap(
    serving: &mut ServingSolver,
    cell: &ViewCell,
    heard: &LastHeard,
    primary: &str,
    timeout: Duration,
    shutdown: &AtomicBool,
) {
    if let Ok(fresh) = fetch_state(primary, timeout, shutdown) {
        heard.now();
        *cell.write().expect("view cell") = fresh.reader();
        *serving = fresh;
    }
}

/// Serves one client connection read-only.
fn serve_connection(
    stream: TcpStream,
    cell: &ViewCell,
    heard: &LastHeard,
    shutdown: &AtomicBool,
    primary: &str,
) {
    stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    while read_request(&mut reader, &mut line, &mut writer, shutdown).is_some() {
        let line = String::from_utf8_lossy(&line);
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_request(line.trim_end()) {
            Err(message) => error_reply(message).render(),
            Ok(Request::Query(query)) => {
                let view = cell.read().expect("view cell").current();
                match query {
                    Query::GroupOf(node) => group_of_reply(&view, node).render(),
                    Query::Solution => {
                        // Already newline-terminated.
                        if writer.write_all(solution_line(&view).as_bytes()).is_err() {
                            return;
                        }
                        continue;
                    }
                    Query::Stats => {
                        let mut reply = stats_reply(&view);
                        if let Json::Obj(members) = &mut reply {
                            let silence = Json::u64(heard.silence_ms());
                            members.push(("primary_silent_ms".into(), silence));
                        }
                        reply.render()
                    }
                }
            }
            Ok(Request::Shutdown) => {
                let epoch = cell.read().expect("view cell").current().epoch();
                let _ = send_line(&mut writer, shutdown_reply(epoch).render());
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            Ok(_) => error_reply(format!(
                "read-only replica: send mutating commands to the primary at {primary}"
            ))
            .render(),
        };
        if send_line(&mut writer, reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{fetch_reply, tail_ack};
    use dkc_core::{Algo, SolveRequest};
    use dkc_dynamic::{render_improve_record, EdgeUpdate};
    use dkc_graph::CsrGraph;
    use std::sync::atomic::AtomicUsize;

    /// Two triangles bridged by an edge, served in memory at epoch 0.
    fn primary_state() -> ServingSolver {
        let g =
            CsrGraph::from_edges(6, vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
                .unwrap();
        ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap()
    }

    #[test]
    fn a_record_must_advance_the_epoch_by_exactly_one() {
        let mut serving = primary_state();
        assert!(apply_record(&mut serving, LogRecord::Batch(vec![EdgeUpdate::Delete(0, 1)])));
        assert_eq!(serving.epoch(), 1);
        // A zero-step slice applies no move: the epoch stays put, one
        // behind a primary that journaled the slice.
        assert!(!apply_record(&mut serving, LogRecord::Improve { steps: 0, seed: 7 }));
        assert_eq!(serving.epoch(), 1);
    }

    #[test]
    fn a_record_that_leaves_the_epoch_behind_triggers_a_fresh_fetch() {
        // A stand-in primary: `fetch` returns its epoch-0 state, and
        // every `tail` streams one improvement slice that applies no move.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fetches = Arc::new(AtomicUsize::new(0));
        {
            let fetches = Arc::clone(&fetches);
            std::thread::spawn(move || {
                let state = primary_state();
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { return };
                    let Ok(mut writer) = stream.try_clone() else { continue };
                    let mut line = String::new();
                    if BufReader::new(stream).read_line(&mut line).is_err() {
                        continue;
                    }
                    let reply = match parse_request(line.trim_end()) {
                        Ok(Request::Fetch) => {
                            fetches.fetch_add(1, Ordering::SeqCst);
                            let doc = state.export_state();
                            format!("{}\n", fetch_reply(state.epoch(), doc).render())
                        }
                        Ok(Request::Tail { from }) => format!(
                            "{}\n{}",
                            tail_ack(state.epoch(), from).render(),
                            render_improve_record(0, 7)
                        ),
                        _ => continue,
                    };
                    writer.write_all(reply.as_bytes()).ok();
                }
            });
        }
        let replica = Replica::start(
            &addr,
            TcpListener::bind("127.0.0.1:0").unwrap(),
            ReplicaConfig::default(),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        while fetches.load(Ordering::SeqCst) < 2 {
            assert!(Instant::now() < deadline, "the replica never re-bootstrapped");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(replica.epoch(), 0);
        replica.stop();
        replica.join();
    }
}
