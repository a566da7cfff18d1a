//! The sharded-deployment router: one front door over `S` shard primaries
//! and their read replicas.
//!
//! ## Routing
//!
//! * `update` — each edge update goes to the shard owning **both**
//!   endpoints ([`ShardPlan::shard_of`]). Updates whose endpoints live on
//!   different shards touch a cut edge: the sharded deployment drops them
//!   (counted in the reply's `"cut"` member and the lifetime
//!   `router.cut_updates_dropped` stat) — exactly the edges the shard plan
//!   already reported as forfeited.
//! * `query group_of` — single-shard read, spread across that shard's
//!   replicas round-robin. A replica answer whose epoch lags the shard
//!   primary's last known epoch by more than [`RouterConfig::staleness`]
//!   is discarded and re-asked on the primary; an unreachable replica is
//!   dropped from the rotation (it re-registers when it recovers).
//! * `query solution` / `query stats` — fan out to every shard and merge.
//! * `snapshot` / `shutdown` — fan out to every shard primary.
//!
//! ## Merged replies and the epoch vector
//!
//! Every fanned-out reply carries `"epochs": [e_0, …, e_{S-1}]` — the epoch
//! each shard answered at — plus the scalar `"epoch"` (the vector's sum, a
//! monotone logical clock) so single-shard clients keep working unchanged.
//! Merged solutions concatenate the shards' cliques and re-sort them into
//! the canonical lexicographic order [`SolutionView`] uses, so a
//! component-pure plan's merged solution is **byte-identical** (modulo the
//! epoch members) to the unsharded server's.
//!
//! [`SolutionView`]: dkc_dynamic::SolutionView
//! [`ShardPlan::shard_of`]: dkc_graph::ShardPlan::shard_of

use crate::protocol::{
    error_reply, parse_request, render_query_request, render_update_request, Query, Request,
};
use crate::queue::{BoundedQueue, Pop};
use crate::server::{read_line_patiently, send_line};
use dkc_dynamic::EdgeUpdate;
use dkc_graph::ShardPlan;
use dkc_json::Json;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs of [`Router::start`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Worker pool size (concurrent client connections).
    pub workers: usize,
    /// Maximum epoch lag a replica answer may have behind its shard
    /// primary's last observed epoch before the router re-asks the primary.
    pub staleness: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { workers: 2, staleness: 8 }
    }
}

/// The router process. Construct with [`Router::start`].
pub struct Router;

/// Join/stop handle of a started router.
pub struct RouterHandle {
    local_addr: SocketAddr,
    core: Arc<RouterCore>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// Shared state every worker routes against.
struct RouterCore {
    plan: ShardPlan,
    shard_addrs: Vec<String>,
    /// Last epoch observed from each shard primary (update replies and
    /// primary reads keep it fresh) — the replica staleness reference.
    primary_epoch: Vec<AtomicU64>,
    /// Last `|S|` observed per shard, so update replies can report a total.
    last_size: Vec<AtomicU64>,
    /// Registered replica addresses per shard.
    replicas: Mutex<Vec<Vec<String>>>,
    /// Round-robin cursor for replica read spreading.
    rr: AtomicUsize,
    /// Lifetime count of fanned-out `solution`/`stats` merges.
    merges: AtomicU64,
    /// Lifetime count of updates dropped because they crossed shards.
    cut_dropped: AtomicU64,
    staleness: u64,
    shutdown: AtomicBool,
}

impl Router {
    /// Starts the router over the shard primaries at `shard_addrs` (one per
    /// plan shard). Each primary is probed synchronously with a `stats`
    /// query — start fails if any shard is unreachable — which also seeds
    /// the per-shard epoch vector.
    pub fn start(
        listener: TcpListener,
        shard_addrs: Vec<String>,
        plan: ShardPlan,
        config: RouterConfig,
    ) -> std::io::Result<RouterHandle> {
        if shard_addrs.len() != plan.shards() {
            return Err(std::io::Error::other(format!(
                "plan has {} shards but {} addresses were given",
                plan.shards(),
                shard_addrs.len()
            )));
        }
        let shards = shard_addrs.len();
        let core = Arc::new(RouterCore {
            plan,
            shard_addrs,
            primary_epoch: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            last_size: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            replicas: Mutex::new(vec![Vec::new(); shards]),
            rr: AtomicUsize::new(0),
            merges: AtomicU64::new(0),
            cut_dropped: AtomicU64::new(0),
            staleness: config.staleness,
            shutdown: AtomicBool::new(false),
        });
        // Probe every shard now: a dead shard should fail startup, not the
        // first client request.
        let mut conns = ConnCache::default();
        for s in 0..shards {
            let line = render_query_request(Query::Stats);
            let reply = conns
                .call(&core.shard_addrs[s], &line, &core.shutdown)
                .map_err(|e| {
                    std::io::Error::other(format!(
                        "shard {s} at {} is unreachable: {e}",
                        core.shard_addrs[s]
                    ))
                })
                .and_then(|text| Json::parse(text.trim_end()).map_err(std::io::Error::other))?;
            if let Some(epoch) = reply.get("epoch").and_then(Json::as_u64) {
                core.primary_epoch[s].store(epoch, Ordering::SeqCst);
            }
            if let Some(size) = reply.get("size").and_then(Json::as_u64) {
                core.last_size[s].store(size, Ordering::SeqCst);
            }
        }

        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let conn_queue = Arc::new(BoundedQueue::<TcpStream>::new(64));
        let acceptor = {
            let core = Arc::clone(&core);
            let conn_queue = Arc::clone(&conn_queue);
            std::thread::spawn(move || {
                while !core.shutdown.load(Ordering::SeqCst) {
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
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let core = Arc::clone(&core);
                let conn_queue = Arc::clone(&conn_queue);
                std::thread::spawn(move || loop {
                    match conn_queue.pop_timeout(Duration::from_millis(100)) {
                        Pop::Item(stream) => handle_connection(stream, &core),
                        Pop::Timeout => {}
                        Pop::Closed => break,
                    }
                })
            })
            .collect();
        Ok(RouterHandle { local_addr, core, acceptor, workers })
    }
}

impl RouterHandle {
    /// The bound address (resolves `port 0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown programmatically (does not contact the shards).
    pub fn stop(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for the acceptor and workers to finish.
    pub fn join(self) {
        self.acceptor.join().expect("router acceptor panicked");
        for w in self.workers {
            w.join().expect("router worker panicked");
        }
    }
}

/// One persistent downstream connection: request lines out, reply lines in.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Per-client-connection cache of downstream connections, keyed by address
/// — a client holding its connection open reuses the same shard sockets
/// for every request it sends.
#[derive(Default)]
struct ConnCache {
    map: HashMap<String, Conn>,
}

impl ConnCache {
    fn call(&mut self, addr: &str, line: &str, shutdown: &AtomicBool) -> std::io::Result<String> {
        if !self.map.contains_key(addr) {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
            let reader = BufReader::new(stream.try_clone()?);
            self.map.insert(addr.to_string(), Conn { writer: stream, reader });
        }
        let conn = self.map.get_mut(addr).expect("just inserted");
        let result = (|| {
            send_line(&mut conn.writer, line.to_owned())?;
            let mut buf = String::new();
            read_line_patiently(&mut conn.reader, &mut buf, shutdown)
                .ok_or_else(|| std::io::Error::other("downstream connection closed"))?;
            Ok(buf)
        })();
        if result.is_err() {
            // A broken pipe poisons request/reply framing: reconnect next call.
            self.map.remove(addr);
        }
        result
    }
}

/// Calls shard `s`'s primary and parses the reply, folding transport and
/// `{"ok":false}` failures into one error string.
fn call_primary(
    core: &RouterCore,
    conns: &mut ConnCache,
    s: usize,
    line: &str,
) -> Result<Json, String> {
    let text = conns
        .call(&core.shard_addrs[s], line, &core.shutdown)
        .map_err(|e| format!("shard {s} at {} failed: {e}", core.shard_addrs[s]))?;
    let v = Json::parse(text.trim_end()).map_err(|e| format!("shard {s} sent bad JSON: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        let msg = v.get("error").and_then(Json::as_str).unwrap_or("unknown error");
        return Err(format!("shard {s}: {msg}"));
    }
    // Keep the staleness reference fresh: a primary's reply epoch is by
    // definition its current epoch.
    if let Some(epoch) = v.get("epoch").and_then(Json::as_u64) {
        core.primary_epoch[s].store(epoch, Ordering::SeqCst);
    }
    Ok(v)
}

/// Reads from shard `s`: tries the next replica in the rotation, falling
/// back to the primary when the shard has no replicas, the chosen replica
/// is unreachable (it gets dropped from the rotation), or its answer lags
/// the primary beyond the staleness bound.
fn call_read(
    core: &RouterCore,
    conns: &mut ConnCache,
    s: usize,
    line: &str,
) -> Result<(Json, bool), String> {
    let picked: Option<String> = {
        let replicas = core.replicas.lock().expect("replica registry");
        let pool = &replicas[s];
        if pool.is_empty() {
            None
        } else {
            Some(pool[core.rr.fetch_add(1, Ordering::Relaxed) % pool.len()].clone())
        }
    };
    if let Some(addr) = picked {
        match conns
            .call(&addr, line, &core.shutdown)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(text.trim_end()).map_err(|e| e.to_string()))
        {
            Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                let epoch = v.get("epoch").and_then(Json::as_u64).unwrap_or(0);
                let lag = core.primary_epoch[s].load(Ordering::SeqCst).saturating_sub(epoch);
                if lag <= core.staleness {
                    return Ok((v, true));
                }
                // Too stale — fall through to the primary.
            }
            Ok(_) | Err(_) => {
                // Unreachable or refusing: drop it from the rotation. It
                // re-registers (via the CLI) when it comes back.
                let mut replicas = core.replicas.lock().expect("replica registry");
                replicas[s].retain(|a| a != &addr);
            }
        }
    }
    call_primary(core, conns, s, line).map(|v| (v, false))
}

fn push_epoch_members(m: &mut Vec<(String, Json)>, epochs: &[u64]) {
    m.push(("ok".into(), Json::Bool(true)));
    m.push(("epochs".into(), Json::Arr(epochs.iter().map(|&e| Json::u64(e)).collect())));
    m.push(("epoch".into(), Json::u64(epochs.iter().sum())));
}

/// Sums the counter members of per-shard `stats` objects (every update is
/// applied on exactly one shard, so the sums equal an unsharded server's
/// counters on the same op stream).
fn merge_counters(objs: &[&Json]) -> Json {
    let Some(Json::Obj(first)) = objs.first() else {
        return Json::Obj(Vec::new());
    };
    Json::Obj(
        first
            .iter()
            .map(|(key, _)| {
                let sum: u64 =
                    objs.iter().filter_map(|o| o.get(key)).filter_map(Json::as_u64).sum();
                (key.clone(), Json::u64(sum))
            })
            .collect(),
    )
}

fn router_stat_members(core: &RouterCore) -> Json {
    let replicas = core.replicas.lock().expect("replica registry");
    Json::Obj(vec![
        ("merges".into(), Json::u64(core.merges.load(Ordering::SeqCst))),
        ("cut_updates_dropped".into(), Json::u64(core.cut_dropped.load(Ordering::SeqCst))),
        ("replicas".into(), Json::usize(replicas.iter().map(Vec::len).sum())),
    ])
}

fn handle_connection(stream: TcpStream, core: &RouterCore) {
    stream.set_read_timeout(Some(Duration::from_millis(200))).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut conns = ConnCache::default();
    let mut line = String::new();
    while read_line_patiently(&mut reader, &mut line, &core.shutdown).is_some() {
        if line.trim().is_empty() {
            continue;
        }
        let (reply, stop) = route_request(core, &mut conns, line.trim_end());
        if send_line(&mut writer, reply).is_err() {
            return;
        }
        if stop {
            core.shutdown.store(true, Ordering::SeqCst);
            return;
        }
    }
}

/// Routes one request line; returns the reply line and whether the router
/// should shut down after sending it.
fn route_request(core: &RouterCore, conns: &mut ConnCache, line: &str) -> (String, bool) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(message) => return (error_reply(message).render(), false),
    };
    match request {
        Request::Update(updates) => (route_update(core, conns, &updates), false),
        Request::Query(Query::GroupOf(node)) => (route_group_of(core, conns, node), false),
        Request::Query(Query::Solution) => (route_solution(core, conns), false),
        Request::Query(Query::Stats) => (route_stats(core, conns), false),
        Request::Snapshot => (route_snapshot(core, conns), false),
        Request::Improve { steps, seed } => (route_improve(core, conns, steps, seed), false),
        Request::Shards { pools } => (topology_reply(core, pools), false),
        Request::RegisterReplica { shard, addr } => (register_replica(core, shard, addr), false),
        Request::Solve(_) => (
            error_reply("solve is unsupported through the router (connect to a shard primary)")
                .render(),
            false,
        ),
        Request::Fetch | Request::Tail { .. } => (
            error_reply("replication commands go to a shard primary, not the router").render(),
            false,
        ),
        Request::Shutdown => (route_shutdown(core, conns), true),
    }
}

fn route_update(core: &RouterCore, conns: &mut ConnCache, updates: &[EdgeUpdate]) -> String {
    let shards = core.shard_addrs.len();
    let mut per_shard: Vec<Vec<EdgeUpdate>> = vec![Vec::new(); shards];
    let mut cut = 0usize;
    for u in updates {
        let (a, b) = u.endpoints();
        let (sa, sb) = (core.plan.shard_of(a), core.plan.shard_of(b));
        if sa == sb {
            per_shard[sa].push(*u);
        } else {
            cut += 1;
        }
    }
    if cut > 0 {
        core.cut_dropped.fetch_add(cut as u64, Ordering::SeqCst);
    }
    let (mut applied, mut skipped, mut size_delta) = (0u64, 0u64, 0i64);
    for (s, batch) in per_shard.iter().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let v = match call_primary(core, conns, s, &render_update_request(batch)) {
            Ok(v) => v,
            Err(message) => return error_reply(message).render(),
        };
        applied += v.get("applied").and_then(Json::as_u64).unwrap_or(0);
        skipped += v.get("skipped").and_then(Json::as_u64).unwrap_or(0);
        size_delta += v.get("size_delta").and_then(Json::as_i64).unwrap_or(0);
        if let Some(size) = v.get("size").and_then(Json::as_u64) {
            core.last_size[s].store(size, Ordering::SeqCst);
        }
    }
    let epochs: Vec<u64> = core.primary_epoch.iter().map(|e| e.load(Ordering::SeqCst)).collect();
    let size: u64 = core.last_size.iter().map(|s| s.load(Ordering::SeqCst)).sum();
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("applied".into(), Json::u64(applied)));
    m.push(("skipped".into(), Json::u64(skipped)));
    m.push(("size_delta".into(), Json::i64(size_delta)));
    m.push(("cut".into(), Json::usize(cut)));
    m.push(("size".into(), Json::u64(size)));
    Json::Obj(m).render()
}

fn route_group_of(core: &RouterCore, conns: &mut ConnCache, node: dkc_graph::NodeId) -> String {
    let s = core.plan.shard_of(node);
    match call_read(core, conns, s, &render_query_request(Query::GroupOf(node))) {
        Err(message) => error_reply(message).render(),
        Ok((Json::Obj(mut m), _from_replica)) => {
            m.push(("shard".into(), Json::usize(s)));
            Json::Obj(m).render()
        }
        Ok((other, _)) => other.render(),
    }
}

/// Fans `query solution` out to every shard and merges. Each per-shard
/// body is served from that shard's epoch-keyed reply cache (the shard
/// renders once per epoch, every router fan-out after that reuses the
/// cached bytes), so repeated merges only pay for parsing + re-sorting.
fn route_solution(core: &RouterCore, conns: &mut ConnCache) -> String {
    let line = render_query_request(Query::Solution);
    let mut epochs = Vec::new();
    let mut k = 0u64;
    let (mut size, mut covered) = (0u64, 0u64);
    // Collect every shard's cliques, then re-sort into the canonical
    // lexicographic order `SolutionView` publishes — component-pure plans
    // merge back to the unsharded clique list byte-for-byte.
    let mut cliques: Vec<Vec<u64>> = Vec::new();
    for s in 0..core.shard_addrs.len() {
        let v = match call_read(core, conns, s, &line) {
            Ok((v, _)) => v,
            Err(message) => return error_reply(message).render(),
        };
        epochs.push(v.get("epoch").and_then(Json::as_u64).unwrap_or(0));
        k = v.get("k").and_then(Json::as_u64).unwrap_or(k);
        size += v.get("size").and_then(Json::as_u64).unwrap_or(0);
        covered += v.get("covered_nodes").and_then(Json::as_u64).unwrap_or(0);
        if let Some(arr) = v.get("cliques").and_then(Json::as_arr) {
            for c in arr {
                let members: Vec<u64> = c
                    .as_arr()
                    .map(|mm| mm.iter().filter_map(Json::as_u64).collect())
                    .unwrap_or_default();
                cliques.push(members);
            }
        }
    }
    cliques.sort_unstable();
    core.merges.fetch_add(1, Ordering::SeqCst);
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("k".into(), Json::u64(k)));
    m.push(("size".into(), Json::u64(size)));
    m.push(("covered_nodes".into(), Json::u64(covered)));
    m.push((
        "cliques".into(),
        Json::Arr(
            cliques
                .into_iter()
                .map(|c| Json::Arr(c.into_iter().map(Json::u64).collect()))
                .collect(),
        ),
    ));
    Json::Obj(m).render()
}

/// Fans `query stats` out and merges the named counter members. Shard
/// replies carry a per-shard `reply_cache` member (hit/miss counters);
/// the merge extracts fields by name, so that member is deliberately
/// dropped from the merged reply — router stats stay byte-stable.
fn route_stats(core: &RouterCore, conns: &mut ConnCache) -> String {
    let line = render_query_request(Query::Stats);
    let mut epochs = Vec::new();
    let mut k = 0u64;
    let (mut size, mut covered, mut num_nodes) = (0u64, 0u64, 0u64);
    let mut stats_objs = Vec::new();
    for s in 0..core.shard_addrs.len() {
        let v = match call_read(core, conns, s, &line) {
            Ok((v, _)) => v,
            Err(message) => return error_reply(message).render(),
        };
        epochs.push(v.get("epoch").and_then(Json::as_u64).unwrap_or(0));
        k = v.get("k").and_then(Json::as_u64).unwrap_or(k);
        size += v.get("size").and_then(Json::as_u64).unwrap_or(0);
        covered += v.get("covered_nodes").and_then(Json::as_u64).unwrap_or(0);
        // Shard graphs keep the full global id space, so every shard
        // reports the same node count — take the max, not the sum.
        num_nodes = num_nodes.max(v.get("num_nodes").and_then(Json::as_u64).unwrap_or(0));
        if let Some(st) = v.get("stats") {
            stats_objs.push(st.clone());
        }
        if let Some(sz) = v.get("size").and_then(Json::as_u64) {
            core.last_size[s].store(sz, Ordering::SeqCst);
        }
    }
    let merged_stats = merge_counters(&stats_objs.iter().collect::<Vec<_>>());
    core.merges.fetch_add(1, Ordering::SeqCst);
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("k".into(), Json::u64(k)));
    m.push(("size".into(), Json::u64(size)));
    m.push(("num_nodes".into(), Json::u64(num_nodes)));
    m.push(("covered_nodes".into(), Json::u64(covered)));
    m.push(("stats".into(), merged_stats));
    m.push(("router".into(), router_stat_members(core)));
    Json::Obj(m).render()
}

fn route_snapshot(core: &RouterCore, conns: &mut ConnCache) -> String {
    let line = crate::protocol::render_command_request("snapshot");
    let mut epochs = Vec::new();
    let mut durable = true;
    let mut paths = Vec::new();
    for s in 0..core.shard_addrs.len() {
        let v = match call_primary(core, conns, s, &line) {
            Ok(v) => v,
            Err(message) => return error_reply(message).render(),
        };
        epochs.push(v.get("epoch").and_then(Json::as_u64).unwrap_or(0));
        durable &= v.get("durable").and_then(Json::as_bool).unwrap_or(false);
        paths.push(v.get("path").cloned().unwrap_or(Json::Null));
    }
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("durable".into(), Json::Bool(durable)));
    m.push(("paths".into(), Json::Arr(paths)));
    Json::Obj(m).render()
}

/// Fans an `improve` slice out to every shard primary (each shard's
/// solution is independent, so per-shard slices compose) and merges the
/// replies: summed stats, summed `|S|`, per-shard epoch vector.
fn route_improve(
    core: &RouterCore,
    conns: &mut ConnCache,
    steps: u64,
    seed: Option<u64>,
) -> String {
    let line = crate::protocol::render_improve_request(steps, seed);
    let mut epochs = Vec::new();
    let mut size = 0u64;
    let mut summed = [0u64; 3]; // moves_tried, moves_applied, uplift
    for s in 0..core.shard_addrs.len() {
        let v = match call_primary(core, conns, s, &line) {
            Ok(v) => v,
            Err(message) => return error_reply(message).render(),
        };
        epochs.push(v.get("epoch").and_then(Json::as_u64).unwrap_or(0));
        size += v.get("size").and_then(Json::as_u64).unwrap_or(0);
        if let Some(stats) = v.get("stats") {
            for (slot, key) in ["moves_tried", "moves_applied", "uplift"].iter().enumerate() {
                summed[slot] += stats.get(key).and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("size".into(), Json::u64(size)));
    m.push((
        "stats".into(),
        Json::Obj(vec![
            ("moves_tried".into(), Json::u64(summed[0])),
            ("moves_applied".into(), Json::u64(summed[1])),
            ("uplift".into(), Json::u64(summed[2])),
        ]),
    ));
    Json::Obj(m).render()
}

fn topology_reply(core: &RouterCore, pools: bool) -> String {
    let epochs: Vec<u64> = core.primary_epoch.iter().map(|e| e.load(Ordering::SeqCst)).collect();
    let replicas = core.replicas.lock().expect("replica registry");
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("shards".into(), Json::usize(core.plan.shards())));
    m.push((
        "nodes".into(),
        Json::Arr(core.plan.shard_nodes().iter().map(|&n| Json::usize(n)).collect()),
    ));
    m.push(("cut_edges".into(), Json::usize(core.plan.cut_edges().len())));
    m.push(("split_components".into(), Json::usize(core.plan.split_components())));
    m.push((
        "replicas".into(),
        Json::Arr(
            replicas
                .iter()
                .map(|pool| Json::Arr(pool.iter().map(|a| Json::str(a.clone())).collect()))
                .collect(),
        ),
    ));
    if pools {
        m.push((
            "pools".into(),
            Json::Arr(
                core.plan
                    .node_pools()
                    .into_iter()
                    .map(|pool| Json::Arr(pool.into_iter().map(|u| Json::u64(u as u64)).collect()))
                    .collect(),
            ),
        ));
    }
    Json::Obj(m).render()
}

fn register_replica(core: &RouterCore, shard: usize, addr: String) -> String {
    if shard >= core.plan.shards() {
        return error_reply(format!(
            "shard {shard} out of range (deployment has {} shards)",
            core.plan.shards()
        ))
        .render();
    }
    let mut replicas = core.replicas.lock().expect("replica registry");
    if !replicas[shard].contains(&addr) {
        replicas[shard].push(addr.clone());
    }
    let epochs: Vec<u64> = core.primary_epoch.iter().map(|e| e.load(Ordering::SeqCst)).collect();
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("registered".into(), Json::str(addr)));
    m.push(("shard".into(), Json::usize(shard)));
    Json::Obj(m).render()
}

fn route_shutdown(core: &RouterCore, conns: &mut ConnCache) -> String {
    let line = crate::protocol::render_command_request("shutdown");
    let mut epochs = Vec::new();
    for s in 0..core.shard_addrs.len() {
        let epoch = call_primary(core, conns, s, &line)
            .ok()
            .and_then(|v| v.get("epoch").and_then(Json::as_u64))
            .unwrap_or_else(|| core.primary_epoch[s].load(Ordering::SeqCst));
        epochs.push(epoch);
    }
    // Best-effort: stop registered replicas too, so `shutdown` tears down
    // the whole deployment.
    let replica_addrs: Vec<String> = {
        let replicas = core.replicas.lock().expect("replica registry");
        replicas.iter().flatten().cloned().collect()
    };
    for addr in replica_addrs {
        let _ = conns.call(&addr, &line, &core.shutdown);
    }
    let mut m = Vec::new();
    push_epoch_members(&mut m, &epochs);
    m.push(("shutdown".into(), Json::Bool(true)));
    Json::Obj(m).render()
}
