//! End-to-end serving tests: a server bootstrapped from a registry
//! dataset answers concurrent reader queries at consistent epochs while a
//! writer batch is in flight, kill + restart (snapshot + log replay)
//! reproduces a byte-identical `SolutionView`, and read replicas converge
//! to the primary's epoch with byte-identical replies.

use dkc_core::{Algo, SolveRequest};
use dkc_datagen::workload::sample_edges;
use dkc_datagen::DatasetRegistry;
use dkc_dynamic::{EdgeUpdate, ServingSolver};
use dkc_json::Json;
use dkc_serve::{
    run_loadgen, LoadgenConfig, Replica, ReplicaConfig, ReplicaHandle, Server, ServerConfig,
    MAX_REQUEST_LINE_BYTES,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        Client { writer: stream.try_clone().expect("clone"), reader: BufReader::new(stream) }
    }

    /// One request line out, one (validated-JSON) reply line back.
    fn call(&mut self, request: &str) -> Json {
        let line = self.call_line(request);
        Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    /// One request line out, the reply line back exactly as received.
    fn call_line(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send");
        self.writer.flush().expect("flush");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reply");
        line
    }

    fn call_ok(&mut self, request: &str) -> Json {
        let v = self.call(request);
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{}", v.render());
        v
    }
}

fn registry_graph() -> dkc_graph::CsrGraph {
    // The FTB stand-in from the dataset registry — the same resolution
    // path `dkc serve FTB` uses.
    let registry = DatasetRegistry::in_memory();
    let resolved = registry
        .resolve_standin(dkc_datagen::registry::DatasetId::Ftb, 1.0, 42)
        .expect("registry resolution");
    resolved.loaded.graph
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc_serve_e2e_{}_{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Re-renders a `stats` reply without the `reply_cache` member: the
/// hit/miss counters are process-local (they restart at zero and depend
/// on how many queries each server lifetime served), so byte comparisons
/// across restarts must look at the replayed *state* members only.
fn stats_without_cache_counters(v: Json) -> String {
    match v {
        Json::Obj(members) => {
            Json::Obj(members.into_iter().filter(|(k, _)| k != "reply_cache").collect()).render()
        }
        other => other.render(),
    }
}

#[test]
fn concurrent_readers_see_consistent_epochs_while_writer_mutates() {
    let g = registry_graph();
    let serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, serving, ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let victims = sample_edges(&g, 60, 7);
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Two reader threads hammer queries while the writer churns.
        let readers: Vec<_> = (0..2)
            .map(|r| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut queries = 0usize;
                    let mut last_epoch = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // A solution reply must be internally consistent:
                        // size == |cliques| and every clique has k members,
                        // whatever epoch it was answered at.
                        let v = client.call_ok(r#"{"cmd":"query","what":"solution"}"#);
                        let epoch = v.get("epoch").and_then(Json::as_u64).unwrap();
                        let size = v.get("size").and_then(Json::as_usize).unwrap();
                        let k = v.get("k").and_then(Json::as_usize).unwrap();
                        let cliques = v.get("cliques").and_then(Json::as_arr).unwrap();
                        assert_eq!(cliques.len(), size, "torn view at epoch {epoch}");
                        for c in cliques {
                            assert_eq!(c.as_arr().unwrap().len(), k);
                        }
                        // Epochs only move forward for a single reader.
                        assert!(epoch >= last_epoch, "epoch went backwards ({r})");
                        last_epoch = epoch;
                        // group_of answers come from one view too.
                        let v = client.call_ok(r#"{"cmd":"query","what":"group_of","node":0}"#);
                        if let Some(group) = v.get("group").and_then(Json::as_usize) {
                            let members = v.get("members").and_then(Json::as_arr).unwrap();
                            assert_eq!(members.len(), k, "group {group} torn");
                        }
                        queries += 1;
                    }
                    queries
                })
            })
            .collect();

        // The writer: delete all victims in batches, then re-insert them.
        let mut client = Client::connect(addr);
        for chunk in victims.chunks(10) {
            let updates: Vec<EdgeUpdate> =
                chunk.iter().map(|&(a, b)| EdgeUpdate::Delete(a, b)).collect();
            let v = client.call_ok(&dkc_serve::protocol::render_update_request(&updates));
            assert!(v.get("applied").and_then(Json::as_usize).unwrap() > 0);
        }
        for chunk in victims.chunks(10) {
            let updates: Vec<EdgeUpdate> =
                chunk.iter().map(|&(a, b)| EdgeUpdate::Insert(a, b)).collect();
            client.call_ok(&dkc_serve::protocol::render_update_request(&updates));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            let queries = r.join().expect("reader");
            assert!(queries > 0, "reader made no progress");
        }
    });

    // Graceful shutdown via the protocol.
    let mut client = Client::connect(addr);
    let v = client.call_ok(r#"{"cmd":"shutdown"}"#);
    assert_eq!(v.get("shutdown").and_then(Json::as_bool), Some(true));
    handle.join();
}

#[test]
fn kill_and_restart_reproduces_the_exact_view() {
    let dir = temp_dir("restart");
    let g = registry_graph();
    let victims = sample_edges(&g, 24, 3);

    // --- First server lifetime: updates, a mid-life snapshot, more
    // updates, then a shutdown (the tail lives only in the update log).
    let serving = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, serving, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr());
    for chunk in victims.chunks(8) {
        let updates: Vec<EdgeUpdate> =
            chunk.iter().map(|&(a, b)| EdgeUpdate::Delete(a, b)).collect();
        client.call_ok(&dkc_serve::protocol::render_update_request(&updates));
    }
    let v = client.call_ok(r#"{"cmd":"snapshot"}"#);
    assert_eq!(v.get("durable").and_then(Json::as_bool), Some(true));
    // Post-snapshot tail: re-insert half the victims.
    let tail: Vec<EdgeUpdate> =
        victims.iter().take(12).map(|&(a, b)| EdgeUpdate::Insert(a, b)).collect();
    client.call_ok(&dkc_serve::protocol::render_update_request(&tail));
    let solution_before = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    let stats_before =
        stats_without_cache_counters(client.call_ok(r#"{"cmd":"query","what":"stats"}"#));
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();

    // --- Restart from disk: snapshot + replayed log tail.
    let restored = ServingSolver::restore(&dir).unwrap();
    restored.solver().validate().expect("restored invariants");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, restored, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr());
    let solution_after = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    let stats_after =
        stats_without_cache_counters(client.call_ok(r#"{"cmd":"query","what":"stats"}"#));
    assert_eq!(solution_after, solution_before, "byte-identical solution reply after restart");
    assert_eq!(stats_after, stats_before, "byte-identical stats reply after restart");
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The rendered-reply cache is invisible on the wire: a cached body is
/// byte-identical to a fresh render of the same view, across epoch bumps
/// (cache invalidation) and across a restart (fresh cache), and the
/// `stats` verb exposes the hit/miss counters.
#[test]
fn reply_cache_serves_byte_identical_bodies_across_epochs() {
    let dir = temp_dir("reply_cache");
    let g = registry_graph();
    let victims = sample_edges(&g, 16, 11);
    let serving = ServingSolver::create(&dir, &g, SolveRequest::new(Algo::Lp, 3)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, serving, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr());

    // Miss then hit at epoch 0: same bytes either way.
    let miss = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    let hit = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    assert_eq!(hit, miss, "cache hit must be byte-identical to the fresh render");
    let stats = client.call_ok(r#"{"cmd":"query","what":"stats"}"#);
    let counters = stats.get("reply_cache").expect("stats carries reply_cache counters");
    assert!(counters.get("hits").and_then(Json::as_u64).unwrap() >= 1);
    assert!(counters.get("misses").and_then(Json::as_u64).unwrap() >= 1);

    // `fetch` is writer-filled: the first round-trips, the second is
    // served straight from the cache — byte-identically.
    let fetch_miss = client.call_ok(r#"{"cmd":"fetch"}"#).render();
    let fetch_hit = client.call_ok(r#"{"cmd":"fetch"}"#).render();
    assert_eq!(fetch_hit, fetch_miss, "cached fetch body must match the writer's render");

    // An applied batch bumps the epoch; cached bodies from epoch 0 must
    // never resurface.
    let updates: Vec<EdgeUpdate> = victims.iter().map(|&(a, b)| EdgeUpdate::Delete(a, b)).collect();
    let v = client.call_ok(&dkc_serve::protocol::render_update_request(&updates));
    let bumped = v.get("epoch").and_then(Json::as_u64).unwrap();
    assert!(bumped > 0);
    let fresh = client.call_ok(r#"{"cmd":"query","what":"solution"}"#);
    assert_eq!(fresh.get("epoch").and_then(Json::as_u64), Some(bumped), "stale body served");
    let fresh = fresh.render();
    let cached = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    assert_eq!(cached, fresh, "post-bump hit must match the post-bump render");
    assert_ne!(fresh, miss, "epoch member alone must distinguish the bodies");

    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();

    // Restart: a brand-new (empty) cache renders the replayed view —
    // the body equals the pre-restart cached body at the same epoch.
    let restored = ServingSolver::restore(&dir).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, restored, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr());
    let after = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    assert_eq!(after, fresh, "restarted render equals the pre-restart cached body");
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_unknown_requests_get_structured_errors() {
    let g = registry_graph();
    let serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, serving, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr());

    // Malformed requests and unknown commands (`solve` among them: the
    // server runs no from-scratch solve) get structured errors, and the
    // connection keeps serving afterwards.
    let v = client.call("this is not json");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let v = client.call(r#"{"cmd":"solve"}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert!(v.get("error").and_then(Json::as_str).unwrap().contains("unknown command"));
    let v = client.call_ok(r#"{"cmd":"query","what":"stats"}"#);
    assert!(v.get("epoch").and_then(Json::as_u64).is_some());

    // Node ids beyond the growth cap are rejected before they can force
    // an O(max_id) allocation in the writer.
    let v = client.call(r#"{"cmd":"update","updates":[{"op":"insert","u":0,"v":4294967294}]}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert!(v.get("error").and_then(Json::as_str).unwrap().contains("limit"), "{}", v.render());
    let v = client.call_ok(r#"{"cmd":"query","what":"stats"}"#);
    assert_eq!(v.get("stats").and_then(|s| s.get("insertions")).and_then(Json::as_u64), Some(0));

    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();
}

/// A central triangle {0,1,2} blocking one planted triangle per member:
/// HG under the identity ordering bootstraps to the size-1 blocker, and
/// one dissolve-and-recombine improvement slice reaches the optimum 3.
fn blocker_graph() -> dkc_graph::CsrGraph {
    dkc_graph::CsrGraph::from_edges(
        9,
        vec![
            (0, 1),
            (0, 2),
            (1, 2),
            (0, 3),
            (0, 4),
            (3, 4),
            (1, 5),
            (1, 6),
            (5, 6),
            (2, 7),
            (2, 8),
            (7, 8),
        ],
    )
    .unwrap()
}

fn blocker_request() -> SolveRequest {
    SolveRequest::new(Algo::Hg, 3).with_ordering(dkc_graph::OrderingKind::Identity)
}

#[test]
fn improve_verb_journals_replicates_and_survives_restart() {
    let dir = temp_dir("improve");
    let serving = ServingSolver::create(&dir, &blocker_graph(), blocker_request()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, serving, ServerConfig::default()).unwrap();
    let primary_addr = handle.local_addr().to_string();
    let replica = Replica::start(
        &primary_addr,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        ReplicaConfig::default(),
    )
    .unwrap();

    let mut client = Client::connect(handle.local_addr());
    let v = client.call_ok(r#"{"cmd":"query","what":"solution"}"#);
    assert_eq!(v.get("size").and_then(Json::as_usize), Some(1), "bootstrap picks the blocker");

    // An applied slice is one epoch; the reply carries the move stats.
    let v = client.call_ok(r#"{"cmd":"improve","steps":256,"seed":7}"#);
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("size").and_then(Json::as_usize), Some(3));
    let stats = v.get("stats").expect("improve stats");
    assert_eq!(stats.get("uplift").and_then(Json::as_u64), Some(2));
    assert!(stats.get("moves_applied").and_then(Json::as_u64).unwrap() >= 1);

    // Converged: a further slice applies nothing and costs no epoch.
    let v = client.call_ok(r#"{"cmd":"improve","steps":256}"#);
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("stats").and_then(|s| s.get("moves_applied")).and_then(Json::as_u64), Some(0));

    // The replica replays the journaled (steps, seed) record and lands on
    // the byte-identical improved view at the same epoch.
    wait_for_epoch(&replica, 1);
    let primary_solution = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    let mut rclient = Client::connect(replica.local_addr());
    let replica_solution = rclient.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    assert_eq!(replica_solution, primary_solution, "replicated improvement is byte-identical");
    replica.stop();
    replica.join();
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();

    // Restart = snapshot + improve-record replay: the monotone-epoch
    // improved view survives the restart byte for byte.
    let restored = ServingSolver::restore(&dir).unwrap();
    restored.solver().validate().expect("restored invariants");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, restored, ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.local_addr());
    let solution_after = client.call_ok(r#"{"cmd":"query","what":"solution"}"#).render();
    assert_eq!(solution_after, primary_solution, "improved view survives restart");
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Applies each chunk of `edges` as one update batch (deleting or
/// inserting) and returns the epoch of the last reply.
fn apply_chunks(client: &mut Client, edges: &[(u32, u32)], insert: bool) -> u64 {
    let mut epoch = 0;
    for chunk in edges.chunks(4) {
        let updates: Vec<EdgeUpdate> = chunk
            .iter()
            .map(|&(a, b)| if insert { EdgeUpdate::Insert(a, b) } else { EdgeUpdate::Delete(a, b) })
            .collect();
        let v = client.call_ok(&dkc_serve::protocol::render_update_request(&updates));
        epoch = v.get("epoch").and_then(Json::as_u64).unwrap();
    }
    epoch
}

/// Waits (10 s at most) until `replica` reaches `epoch`, and checks that it
/// went no further.
fn wait_for_epoch(replica: &ReplicaHandle, epoch: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.epoch() < epoch {
        assert!(Instant::now() < deadline, "replica stuck at epoch {}", replica.epoch());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(replica.epoch(), epoch, "replica ran past its primary");
}

#[test]
fn replica_catches_up_and_serves_reads() {
    let g = registry_graph();
    let victims = sample_edges(&g, 24, 5);
    let serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
    let primary =
        Server::start(TcpListener::bind("127.0.0.1:0").unwrap(), serving, ServerConfig::default())
            .unwrap();
    let primary_addr = primary.local_addr().to_string();
    let start_replica = || {
        Replica::start(
            &primary_addr,
            TcpListener::bind("127.0.0.1:0").unwrap(),
            ReplicaConfig::default(),
        )
        .unwrap()
    };
    let solution = r#"{"cmd":"query","what":"solution"}"#;

    // A replica bootstrapped at epoch 0 follows the live tail to the
    // primary's epoch and answers with the byte-identical solution line.
    let first = start_replica();
    let mut client = Client::connect(primary.local_addr());
    let epoch = apply_chunks(&mut client, &victims[..12], false);
    assert!(epoch > 0);
    wait_for_epoch(&first, epoch);
    let mut first_client = Client::connect(first.local_addr());
    let line = client.call_line(solution);
    assert_eq!(first_client.call_line(solution), line, "replica line is byte-identical");

    // The replica is read-only.
    let v = first_client.call(r#"{"cmd":"update","updates":[{"op":"insert","u":0,"v":1}]}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert!(v.get("error").and_then(Json::as_str).unwrap().contains("read-only"));
    assert_eq!(first.epoch(), epoch, "a refused mutation costs no epoch");
    // `solve` is no command at all, on a replica as on the primary.
    let v = first_client.call(r#"{"cmd":"solve"}"#);
    assert!(v.get("error").and_then(Json::as_str).unwrap().contains("unknown command"));

    // A second replica started after the primary advanced bootstraps at
    // the newer epoch; both then follow further updates.
    let advanced = apply_chunks(&mut client, &victims[12..], false);
    let second = start_replica();
    assert_eq!(second.epoch(), advanced, "bootstrap lands at the primary's epoch");
    let epoch = apply_chunks(&mut client, &victims, true);
    for replica in [&first, &second] {
        wait_for_epoch(replica, epoch);
    }
    let line = client.call_line(solution);
    for replica in [&first, &second] {
        let mut rclient = Client::connect(replica.local_addr());
        assert_eq!(rclient.call_line(solution), line, "replica line is byte-identical");
    }

    for replica in [first, second] {
        replica.stop();
        replica.join();
    }
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    primary.join();
}

const STATS: &str = r#"{"cmd":"query","what":"stats"}"#;

/// Sends twice [`MAX_REQUEST_LINE_BYTES`] with no newline on a fresh
/// connection to `addr`: the reply must be an error and the connection
/// must close, while a connection opened before, and one opened after,
/// are served.
fn overlong_line_is_refused_and_closed(addr: std::net::SocketAddr) {
    let mut before = Client::connect(addr);
    before.call_ok(STATS);
    let stream = TcpStream::connect(addr).expect("connect");
    // Without the cap the server would wait for the newline forever.
    stream.set_read_timeout(Some(Duration::from_secs(20))).ok();
    let mut writer = stream.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..2 * MAX_REQUEST_LINE_BYTES / chunk.len() {
            // The server closes mid-stream; a failed write ends the flood.
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply before the close");
    let v = Json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false), "{}", v.render());
    assert!(v.get("error").and_then(Json::as_str).unwrap().contains("longer than"));
    let mut rest = String::new();
    // EOF, or a reset for the bytes the server never read.
    if let Ok(n) = reader.read_line(&mut rest) {
        assert_eq!(n, 0, "connection still open after an over-long line: {rest:?}");
    }
    sender.join().unwrap();
    before.call_ok(STATS);
    Client::connect(addr).call_ok(STATS);
}

#[test]
fn overlong_request_lines_are_refused_on_primary_and_replica() {
    let serving =
        ServingSolver::in_memory(&registry_graph(), SolveRequest::new(Algo::Lp, 3)).unwrap();
    let primary =
        Server::start(TcpListener::bind("127.0.0.1:0").unwrap(), serving, ServerConfig::default())
            .unwrap();
    let replica = Replica::start(
        &primary.local_addr().to_string(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        ReplicaConfig::default(),
    )
    .unwrap();
    overlong_line_is_refused_and_closed(primary.local_addr());
    overlong_line_is_refused_and_closed(replica.local_addr());
    replica.stop();
    replica.join();
    Client::connect(primary.local_addr()).call_ok(r#"{"cmd":"shutdown"}"#);
    primary.join();
}

#[test]
fn replica_stats_say_how_long_the_primary_has_been_silent() {
    // The primary's tail sends a keepalive after 200 ms without records.
    let keepalive_ms = 200;
    let serving =
        ServingSolver::in_memory(&registry_graph(), SolveRequest::new(Algo::Lp, 3)).unwrap();
    let primary =
        Server::start(TcpListener::bind("127.0.0.1:0").unwrap(), serving, ServerConfig::default())
            .unwrap();
    let replica = Replica::start(
        &primary.local_addr().to_string(),
        TcpListener::bind("127.0.0.1:0").unwrap(),
        ReplicaConfig::default(),
    )
    .unwrap();
    let mut reader = Client::connect(replica.local_addr());
    let silent_ms = |client: &mut Client| {
        client.call_ok(STATS).get("primary_silent_ms").and_then(Json::as_u64).expect("member")
    };
    // While the primary lives, its keepalives keep the silence short, even
    // long after the bootstrap.
    std::thread::sleep(Duration::from_millis(5 * keepalive_ms));
    let deadline = Instant::now() + Duration::from_secs(10);
    while silent_ms(&mut reader) >= 2 * keepalive_ms {
        assert!(Instant::now() < deadline, "keepalives do not count as lines");
        std::thread::sleep(Duration::from_millis(20));
    }
    Client::connect(primary.local_addr()).call_ok(r#"{"cmd":"shutdown"}"#);
    primary.join();
    // The replica keeps serving its last epoch; its silence grows.
    let deadline = Instant::now() + Duration::from_secs(10);
    while silent_ms(&mut reader) <= 3 * keepalive_ms {
        assert!(Instant::now() < deadline, "silence stuck at {} ms", silent_ms(&mut reader));
        std::thread::sleep(Duration::from_millis(50));
    }
    replica.stop();
    replica.join();
}

#[test]
fn background_improvement_slices_run_while_the_writer_is_idle() {
    let serving = ServingSolver::in_memory(&blocker_graph(), blocker_request()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let config = ServerConfig { improve_slice: 64, improve_seed: 3, ..ServerConfig::default() };
    let handle = Server::start(listener, serving, config).unwrap();
    let mut client = Client::connect(handle.local_addr());

    // No client ever sends `improve`; the writer's idle slices must carry
    // the blocker bootstrap to the optimum on their own.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = client.call_ok(r#"{"cmd":"query","what":"solution"}"#);
        if v.get("size").and_then(Json::as_usize) == Some(3) {
            assert!(v.get("epoch").and_then(Json::as_u64).unwrap() >= 1);
            break;
        }
        assert!(Instant::now() < deadline, "idle slices never improved: {}", v.render());
        std::thread::sleep(Duration::from_millis(20));
    }
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();
}

#[test]
fn loadgen_drives_a_server_and_reports() {
    let g = registry_graph();
    let nodes = g.num_nodes() as dkc_graph::NodeId;
    let serving = ServingSolver::in_memory(&g, SolveRequest::new(Algo::Lp, 3)).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = Server::start(listener, serving, ServerConfig::default()).unwrap();

    let cfg = LoadgenConfig {
        addr: handle.local_addr().to_string(),
        connections: 3,
        ops_per_connection: 40,
        warmup_ops: 0,
        update_fraction: 0.4,
        improve_fraction: 0.0,
        improve_steps: 64,
        batch: 4,
        nodes,
        seed: 9,
    };
    let report = run_loadgen(&cfg).expect("loadgen run");
    assert_eq!(report.total_ops, 120);
    assert_eq!(report.errors, 0, "{report}");
    assert!(report.updates.count > 0 && report.queries.count > 0);
    assert!(report.final_epoch > 0, "updates must have advanced the epoch");
    assert!(report.to_string().contains("ops/s"));

    // Warmup ops execute (they advance the server epoch) but are excluded
    // from the measured counts and percentiles.
    let warm_cfg = LoadgenConfig { warmup_ops: 10, ops_per_connection: 20, ..cfg.clone() };
    let epoch_before = report.final_epoch;
    let warm = run_loadgen(&warm_cfg).expect("warmup loadgen run");
    assert_eq!(warm.total_ops, 60, "warmup ops must not be counted");
    assert_eq!(warm.updates.count + warm.queries.count, 60);
    assert_eq!(warm.errors, 0, "{warm}");
    assert!(warm.final_epoch > epoch_before, "warmup updates still apply");

    let mut client = Client::connect(handle.local_addr());
    client.call_ok(r#"{"cmd":"shutdown"}"#);
    handle.join();
}
