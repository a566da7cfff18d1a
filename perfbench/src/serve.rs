//! The serving phase: set-up, the open-loop ladder, and the checks that run
//! after it (completion of the stream, `fetch`, and an in-process replay of
//! the acknowledged updates through the public `dkc-dynamic` calls).

use crate::client::{self, Conn, Driven, Kind, Reply, Req};
use crate::report::Report;
use crate::stats::Pct;
use crate::trace::Tracer;
use crate::workload::{Limits, Mix, K};
use dkc_clique::Clique;
use dkc_core::{Solution, SolveRequest};
use dkc_dynamic::{
    DynamicSolver, EdgeUpdate, FsyncPolicy, ServingSolver, SolutionView, UpdateLog, UpdateStats,
};
use dkc_graph::io::read_snapshot_path;
use dkc_graph::{CsrGraph, NodeId};
use dkc_serve::protocol::{render_query_request, render_update_request, Query};
use dkc_serve::{Server, ServerConfig, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

/// The journal policy of durable servers: flush to the OS per batch, no
/// `fdatasync` (the library default).
pub const FSYNC: FsyncPolicy = FsyncPolicy::PerBatch;

/// Pause before every rung, so one rung's queue cannot spill into the next.
const RUNG_GAP_S: f64 = 0.2;

/// Set-up timings of one server start.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Snapshot decode.
    pub decode_s: f64,
    /// Building the serving state (initial LP solve and base snapshot for
    /// durable servers).
    pub create_s: f64,
    /// `Server::start` until the first reply.
    pub start_s: f64,
}

impl SetupTimes {
    /// Time until the system is ready.
    pub fn total(&self) -> f64 {
        self.decode_s + self.create_s + self.start_s
    }
}

/// A running in-process server and the client's two connections.
pub struct Served {
    handle: ServerHandle,
    /// The read connection (also used for the closed-loop calls).
    pub read: Conn,
    /// The write connection.
    pub write: Conn,
    /// The view published at start, from which the replay starts.
    pub view0: Arc<SolutionView>,
    state_dir: Option<PathBuf>,
}

impl Served {
    /// Forces the state files written at set-up to disk, so their
    /// write-back does not stall the journal during the ladder.
    pub fn settle(&self) {
        let Some(dir) = &self.state_dir else { return };
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            if let Ok(f) = std::fs::File::open(entry.path()) {
                f.sync_all().ok();
            }
        }
    }

    /// Closes the connections, stops the server and waits for every one of
    /// its threads; removes the state directory.
    pub fn stop(self) {
        let Served { handle, read, write, state_dir, .. } = self;
        drop(read);
        drop(write);
        handle.stop();
        handle.join();
        if let Some(dir) = state_dir {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

/// Starts `serving` on an ephemeral localhost port and waits for the first
/// reply. Returns the server and the start time (seconds).
pub fn start(
    serving: ServingSolver,
    state_dir: Option<PathBuf>,
    tr: &mut Tracer,
) -> Result<(Served, f64), String> {
    let view0 = serving.view();
    let t = Instant::now();
    let (handle, read) = tr.span("setup.server_start", 1, |_| -> Result<_, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let config = ServerConfig { fsync: FSYNC, ..ServerConfig::default() };
        let handle = Server::start(listener, serving, config).map_err(|e| format!("start: {e}"))?;
        let mut read = Conn::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let first = read.call(&render_query_request(Query::Stats))?;
        client::check_call(Kind::Stats, first)?;
        Ok((handle, read))
    })?;
    let start_s = t.elapsed().as_secs_f64();
    let write = Conn::connect(handle.local_addr()).map_err(|e| format!("connect: {e}"))?;
    Ok((Served { handle, read, write, view0, state_dir }, start_s))
}

/// One durable set-up: decode the snapshot, create the serving state
/// (initial LP solve, base snapshot, empty journal), start the server.
pub fn setup_durable(
    base: &Path,
    req: SolveRequest,
    state_dir: PathBuf,
    tr: &mut Tracer,
) -> Result<(SetupTimes, Served, CsrGraph), String> {
    let t = Instant::now();
    let loaded =
        tr.span("graph.decode", 1, |_| read_snapshot_path(base)).map_err(|e| e.to_string())?;
    let decode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let serving = tr
        .span("setup.create", 1, |_| ServingSolver::create(&state_dir, &loaded.graph, req))
        .map_err(|e| e.to_string())?;
    let create_s = t.elapsed().as_secs_f64();
    let (served, start_s) = start(serving, Some(state_dir.clone()), tr)?;
    Ok((SetupTimes { decode_s, create_s, start_s }, served, loaded.graph))
}

/// The schedule of one ladder.
pub struct Plan {
    /// Write-connection requests.
    pub writes: Vec<Req>,
    /// The update each write request carries.
    pub updates: Vec<EdgeUpdate>,
    /// Read-connection requests.
    pub reads: Vec<Req>,
    /// Offered ops/s of each rung, both connections together.
    pub offered: Vec<f64>,
    /// Rung whose latencies are reported.
    pub nominal: usize,
}

/// Lays out a ladder of `seconds` over `mix`, taking updates from the
/// front of `stream` and drawing read targets from `seed`.
pub fn plan(
    mix: &Mix,
    seconds: f64,
    stream: &[EdgeUpdate],
    num_nodes: usize,
    seed: u64,
) -> Result<Plan, String> {
    let steps = mix.ladder.len();
    let avail = (seconds - RUNG_GAP_S * steps as f64).max(steps as f64 * 0.2);
    let other = avail * (1.0 - mix.nominal_share) / (steps - 1).max(1) as f64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x05EE_D0F4_EAD5);
    let (mut writes, mut updates, mut reads, mut offered) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut at = 0.0f64;
    let ns = |s: f64| (s * 1e9) as u64;
    for (r, &m) in mix.ladder.iter().enumerate() {
        at += RUNG_GAP_S;
        let len = if r == mix.nominal { avail * mix.nominal_share } else { other };
        let (w_rate, r_rate) = (mix.write_rate * m, mix.read_rate * m);
        offered.push(w_rate + r_rate);
        for i in 0..(w_rate * len).round() as usize {
            let u = *stream
                .get(updates.len())
                .ok_or("the prepared stream is too short for this ladder")?;
            writes.push(Req {
                due_ns: ns(at + (i as f64 + 0.5) / w_rate),
                rung: r,
                kind: Kind::Update,
                line: render_update_request(&[u]),
            });
            updates.push(u);
        }
        for i in 0..(r_rate * len).round() as usize {
            let x: f64 = rng.gen();
            let (kind, query) = if x < mix.solution_share {
                (Kind::Solution, Query::Solution)
            } else if x < mix.solution_share + mix.stats_share {
                (Kind::Stats, Query::Stats)
            } else {
                (Kind::GroupOf, Query::GroupOf(rng.gen_range(0..num_nodes as NodeId)))
            };
            reads.push(Req {
                due_ns: ns(at + (i as f64 + 0.5) / r_rate),
                rung: r,
                kind,
                line: render_query_request(query),
            });
        }
        at += len;
    }
    Ok(Plan { writes, updates, reads, offered, nominal: mix.nominal })
}

/// A finished ladder.
pub struct LadderRun {
    /// Its schedule.
    pub plan: Plan,
    /// Write-connection outcomes.
    pub w: Driven,
    /// Read-connection outcomes.
    pub r: Driven,
    /// First rung aborted for a growing backlog (`usize::MAX`: none).
    pub aborted_at: usize,
    /// The ladder's time zero.
    pub t0: Instant,
}

/// Whole `solution` bodies kept per ladder for the full check.
const KEPT_BODIES: usize = 40;

/// Runs `plan` open loop on both connections (one thread each).
pub fn run_ladder(served: &mut Served, plan: Plan) -> LadderRun {
    let keep_every = (plan.updates.len() / KEPT_BODIES).max(1) as u64;
    let abort = AtomicUsize::new(usize::MAX);
    let last_due = plan.writes.iter().chain(&plan.reads).map(|q| q.due_ns).max().unwrap_or(0);
    let deadline = last_due + 30_000_000_000;
    let abortable = plan.nominal + 1;
    let (write, read) = (&mut served.write, &mut served.read);
    let t0 = Instant::now();
    let (w, r) = std::thread::scope(|s| {
        let hw = s.spawn(|| {
            client::drive(write, &plan.writes, t0, abortable, &abort, deadline, keep_every)
        });
        let hr = s.spawn(|| {
            client::drive(read, &plan.reads, t0, abortable, &abort, deadline, keep_every)
        });
        (hw.join().expect("write connection thread"), hr.join().expect("read connection thread"))
    });
    LadderRun { plan, w, r, aborted_at: abort.into_inner(), t0 }
}

/// What one rung achieved.
#[derive(Debug, Clone)]
pub struct RungStat {
    /// Offered ops/s.
    pub offered: f64,
    /// Update latency, ms from due to ack.
    pub update: Pct,
    /// Point-read latency, µs.
    pub read: Pct,
    /// Solution-read latency, ms.
    pub solution: Pct,
    /// Requests sent.
    pub attempted: usize,
    /// Requests failed or unanswered.
    pub failed: usize,
    /// Aborted for a full outstanding window.
    pub aborted: bool,
    /// Latency grew across the rung.
    pub backlog: bool,
    /// Send lateness, ms, every sent request.
    pub late_ms: Vec<f64>,
    /// Send lateness of the write and the read connection, ms.
    pub late: [Pct; 2],
}

impl RungStat {
    /// Whether the rung meets every limit.
    pub fn pass(&self, limits: &Limits) -> bool {
        !self.aborted
            && !self.backlog
            && self.failed == 0
            && self.update.tail <= limits.update_ms
            && self.read.tail <= limits.read_us
            && self.solution.tail <= limits.solution_ms
    }
}

/// Splits a ladder's outcomes by rung and kind.
pub fn evaluate(run: &LadderRun) -> Vec<RungStat> {
    let ms = |ns: u64| ns as f64 * 1e-6;
    (0..run.plan.offered.len())
        .map(|rung| {
            let (mut upd, mut read, mut sol, mut late) = (vec![], vec![], vec![], vec![]);
            let (mut attempted, mut failed, mut backlog) = (0, 0, false);
            let mut late_by_conn = [Pct::default(); 2];
            for (c, (reqs, driven)) in
                [(&run.plan.writes, &run.w), (&run.plan.reads, &run.r)].into_iter().enumerate()
            {
                let mut series = Vec::new();
                let late_before = late.len();
                for (q, o) in reqs.iter().zip(&driven.outcomes).filter(|(q, _)| q.rung == rung) {
                    let Some(sent) = o.sent_ns else { continue };
                    attempted += 1;
                    late.push(ms(sent.saturating_sub(q.due_ns)));
                    match (&o.reply, o.replied_ns) {
                        (Some(Ok(_)), Some(at)) => {
                            let lat = ms(at.saturating_sub(q.due_ns));
                            series.push(lat);
                            match q.kind {
                                Kind::Update => upd.push(lat),
                                Kind::GroupOf | Kind::Stats => read.push(lat * 1e3),
                                Kind::Solution => sol.push(lat),
                            }
                        }
                        _ => failed += 1,
                    }
                }
                backlog |= growing(&series);
                late_by_conn[c] = Pct::of(&late[late_before..]);
            }
            RungStat {
                offered: run.plan.offered[rung],
                update: Pct::windowed(&upd),
                read: Pct::windowed(&read),
                solution: Pct::windowed(&sol),
                attempted,
                failed,
                aborted: run.aborted_at <= rung,
                backlog,
                late_ms: late,
                late: late_by_conn,
            }
        })
        .collect()
}

/// A backlog grows when the last quarter of a rung (in due order) waits
/// more than twice as long as the first quarter, plus one millisecond.
fn growing(latencies_ms: &[f64]) -> bool {
    let q = latencies_ms.len() / 4;
    if q < 2 {
        return false;
    }
    let first = crate::stats::median(&latencies_ms[..q]);
    let last = crate::stats::median(&latencies_ms[latencies_ms.len() - q..]);
    last > 2.0 * first + 1.0
}

/// Prints one line per rung with sample counts next to each percentile.
pub fn print_rungs(stats: &[RungStat], mix: &Mix) {
    for (i, s) in stats.iter().enumerate() {
        eprintln!(
            "  rung {i}{} offered={:.0} ops/s | update {} ms | read {} us | solution {} ms | late write {:.3}/{:.3} read {:.3}/{:.3} ms (p50/tail) | sent={} failed={} aborted={} backlog={} pass={}",
            if i == mix.nominal { "*" } else { "" },
            s.offered,
            show(&s.update),
            show(&s.read),
            show(&s.solution),
            s.late[0].p50,
            s.late[0].tail,
            s.late[1].p50,
            s.late[1].tail,
            s.attempted,
            s.failed,
            s.aborted,
            s.backlog,
            s.pass(&mix.limits)
        );
    }
}

fn show(p: &Pct) -> String {
    format!(
        "p50={:.3} p{:.1}={:.3} (n={}, {} beyond)",
        p.p50,
        p.tail_q * 100.0,
        p.tail,
        p.n,
        p.beyond
    )
}

/// Records per-request spans (`client.request` with children
/// `client.queue`: due → sent, and `server.rtt`: sent → reply).
pub fn record_spans(run: &LadderRun, tr: &mut Tracer) {
    for (reqs, driven) in [(&run.plan.writes, &run.w), (&run.plan.reads, &run.r)] {
        for (q, o) in reqs.iter().zip(&driven.outcomes) {
            if let (Some(sent), Some(at)) = (o.sent_ns, o.replied_ns) {
                let id = tr.record("client.request", 0, run.t0, q.due_ns, at);
                tr.record("client.queue", id, run.t0, q.due_ns, sent);
                tr.record("server.rtt", id, run.t0, sent, at);
            }
        }
    }
}

/// Reads checked after the ladder against the replayed state.
#[derive(Default)]
pub struct Observed {
    /// Update batches by the epoch that published them.
    pub batches: Vec<(u64, Vec<EdgeUpdate>)>,
    /// `(epoch, node, members)` of every `group_of` reply.
    pub group_of: Vec<(u64, u32, Option<Vec<u32>>)>,
    /// `(epoch, size, counters)` of every `stats` reply.
    pub stats: Vec<(u64, u64, [u64; 6])>,
    /// Sampled first `solution` bodies by epoch.
    pub bodies: BTreeMap<u64, Vec<u8>>,
    /// Last reply-cache counters seen.
    pub cache: (u64, u64),
}

impl Observed {
    /// Collects one ladder's replies; checks every update changed the graph.
    pub fn add(&mut self, run: &mut LadderRun, rep: &mut Report) {
        for (u, o) in run.plan.updates.iter().zip(&run.w.outcomes) {
            match &o.reply {
                Some(Ok(Reply::Update { epoch, applied, skipped })) => {
                    rep.check(*applied == 1 && *skipped == 0, || {
                        format!("update {u:?} was a no-op (applied {applied}, skipped {skipped})")
                    });
                    self.batches.push((*epoch, vec![*u]));
                }
                Some(Err(e)) => rep.fail(format!("update {u:?} failed: {e}")),
                _ => {}
            }
        }
        for o in &run.r.outcomes {
            match &o.reply {
                Some(Ok(Reply::GroupOf { epoch, node, members })) => {
                    self.group_of.push((*epoch, *node, members.clone()))
                }
                Some(Ok(Reply::Stats { epoch, size, counters, cache })) => {
                    self.stats.push((*epoch, *size, *counters));
                    self.cache = *cache;
                }
                Some(Err(e)) => rep.fail(format!("read failed: {e}")),
                _ => {}
            }
        }
        self.bodies.append(&mut run.r.solution_bodies);
    }
}

/// Closed-loop `solution` probes: each applies the next update of
/// `updates`, then reads the full solution of the new epoch, so every read
/// renders. Returns the read latencies in milliseconds.
pub fn solution_probes(
    served: &mut Served,
    updates: &[EdgeUpdate],
    obs: &mut Observed,
    rep: &mut Report,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(updates.len());
    for u in updates {
        rep.attempted += 2;
        let ack = served
            .write
            .call(&render_update_request(&[*u]))
            .and_then(|l| client::check_call(Kind::Update, l));
        match ack {
            Ok(Reply::Update { epoch, applied: 1, skipped: 0 }) => {
                obs.batches.push((epoch, vec![*u]))
            }
            other => {
                rep.failed += 1;
                rep.fail(format!("probe update {u:?}: {other:?}"));
                return latencies;
            }
        }
        let t = Instant::now();
        let body = served.read.call(&render_query_request(Query::Solution));
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        match body.and_then(|b| Ok((client::check_call(Kind::Solution, b.clone())?, b))) {
            Ok((Reply::Solution { epoch, .. }, body)) => {
                obs.bodies.insert(epoch, body);
            }
            other => {
                rep.failed += 1;
                rep.fail(format!("solution probe failed: {:?}", other.map(|(r, _)| r)));
                return latencies;
            }
        }
    }
    latencies
}

/// Sends every planned update the ladder skipped (aborted rungs) as one
/// closed-loop batch, so the final graph is the same on every run of a
/// seed. Returns the number of updates sent.
pub fn complete_stream(
    served: &mut Served,
    run: &LadderRun,
    obs: &mut Observed,
    rep: &mut Report,
) -> usize {
    let rest: Vec<EdgeUpdate> = run
        .plan
        .updates
        .iter()
        .zip(&run.w.outcomes)
        .filter(|(_, o)| o.sent_ns.is_none())
        .map(|(u, _)| *u)
        .collect();
    if !rest.is_empty() {
        send_batch(served, &rest, "completion batch", obs, rep);
    }
    rest.len()
}

/// Sends `updates` as one closed-loop batch (untimed) and records it for
/// the replay; every update in it must change the graph.
pub fn send_batch(
    served: &mut Served,
    updates: &[EdgeUpdate],
    what: &str,
    obs: &mut Observed,
    rep: &mut Report,
) {
    rep.attempted += 1;
    let reply = served
        .write
        .call(&render_update_request(updates))
        .and_then(|l| client::check_call(Kind::Update, l));
    match reply {
        Ok(Reply::Update { epoch, applied, skipped }) => {
            rep.check(applied == updates.len() as u64 && skipped == 0, || {
                format!("{what} applied {applied} of {} (skipped {skipped})", updates.len())
            });
            obs.batches.push((epoch, updates.to_vec()));
        }
        other => {
            rep.failed += 1;
            rep.fail(format!("{what} failed: {other:?}"));
        }
    }
}

/// Epochs whose publication the traced replay times.
const PUBLISH_SAMPLES: usize = 200;

/// Timings of the in-process replay (empty unless requested).
#[derive(Default)]
pub struct ReplayTimes {
    /// `UpdateLog::append_batch` per record, seconds.
    pub journal_s: Vec<f64>,
    /// `DynamicSolver::apply_batch` per update, seconds.
    pub maintain_s: Vec<f64>,
    /// `DynamicSolver::solution_view` per published epoch, seconds.
    pub publish_s: Vec<f64>,
}

/// The replayed end state.
pub struct Replayed {
    /// The solver after every acknowledged update.
    pub solver: DynamicSolver,
    /// Updates applied / skipped by the replay.
    pub applied: u64,
    /// Updates that were no-ops in the replay.
    pub skipped: u64,
    /// Last epoch reached.
    pub epoch: u64,
    /// Per-call timings (when `journal` was given).
    pub times: ReplayTimes,
}

/// Replays the acknowledged batches in epoch order from the state served
/// at start, checking every `group_of`, `stats` and `solution` reply
/// against the replayed state of its epoch. With `journal`, every batch is
/// also journaled there and the three write-path calls are timed
/// (publication on at most [`PUBLISH_SAMPLES`] evenly spread epochs).
pub fn replay(
    g0: &CsrGraph,
    view0: &SolutionView,
    req: SolveRequest,
    obs: &Observed,
    journal: Option<&Path>,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<Replayed, String> {
    let mut solver = DynamicSolver::from_solution_with_request(g0, view0.to_solution(), req);
    solver.canonicalize();
    let mut log = match journal {
        Some(path) => Some(UpdateLog::open(path).map_err(|e| e.to_string())?),
        None => None,
    };
    let mut times = ReplayTimes::default();
    let (mut applied, mut skipped) = (0u64, 0u64);
    let mut epoch = view0.epoch();
    // Reads sorted by epoch, consumed as the replay passes their epoch.
    let mut group_of: Vec<&(u64, u32, Option<Vec<u32>>)> = obs.group_of.iter().collect();
    group_of.sort_by_key(|r| r.0);
    let mut stats: Vec<&(u64, u64, [u64; 6])> = obs.stats.iter().collect();
    stats.sort_by_key(|r| r.0);
    let (mut gi, mut si) = (0usize, 0usize);
    let mut owner: Vec<u32> = vec![u32::MAX; g0.num_nodes()];
    let every = (obs.batches.len() / PUBLISH_SAMPLES).max(1);
    for (i, (batch_epoch, batch)) in obs.batches.iter().chain([&(u64::MAX, Vec::new())]).enumerate()
    {
        // Everything observed before this batch's epoch saw the current state.
        let mut sol: Option<Solution> = None;
        while gi < group_of.len() && group_of[gi].0 < *batch_epoch {
            let (e, node, members) = group_of[gi];
            rep.check(*e == epoch, || {
                format!("group_of reply at epoch {e}, which no update published")
            });
            let s = sol.get_or_insert_with(|| fill_owner(&solver, &mut owner));
            let want = owner.get(*node as usize).filter(|&&i| i != u32::MAX).map(|&i| {
                let mut m = s.members(i as usize).to_vec();
                m.sort_unstable();
                m
            });
            rep.check(want == *members, || {
                format!("group_of({node}) at epoch {e} returned {members:?}, the solution there has {want:?}")
            });
            gi += 1;
        }
        if let Some(s) = &sol {
            for members in s.iter_members() {
                for &u in members {
                    owner[u as usize] = u32::MAX;
                }
            }
        }
        while si < stats.len() && stats[si].0 < *batch_epoch {
            let (e, size, counters) = stats[si];
            rep.check(
                *size == solver.len() as u64 && *counters == counters_of(solver.stats()),
                || format!("stats at epoch {e} disagree with the replayed state"),
            );
            si += 1;
        }
        if let Some(body) = obs.bodies.get(&epoch) {
            check_solution_body(body, &solver, epoch, rep);
        }
        if *batch_epoch == u64::MAX {
            break;
        }
        rep.check(*batch_epoch == epoch + 1, || {
            format!("update published at epoch {batch_epoch} after epoch {epoch}: epochs must advance by one per batch")
        });
        epoch = *batch_epoch;
        if let Some(log) = log.as_mut() {
            let t = Instant::now();
            tr.span("dynamic.journal", 1, |_| log.append_batch(batch.iter()))
                .map_err(|e| e.to_string())?;
            times.journal_s.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let out = tr.span("dynamic.maintain", batch.len() as u64, |_| {
            solver.apply_batch(batch.iter().copied())
        });
        if log.is_some() {
            times.maintain_s.push(t.elapsed().as_secs_f64() / batch.len().max(1) as f64);
            if i % every == 0 {
                let t = Instant::now();
                let view = tr.span("dynamic.publish", 1, |_| solver.solution_view(epoch));
                times.publish_s.push(t.elapsed().as_secs_f64());
                drop(std::hint::black_box(view));
            }
        }
        applied += out.applied as u64;
        skipped += out.skipped as u64;
    }
    Ok(Replayed { solver, applied, skipped, epoch, times })
}

fn fill_owner(solver: &DynamicSolver, owner: &mut [u32]) -> Solution {
    let s = solver.solution();
    for (i, members) in s.iter_members().enumerate() {
        for &u in members {
            owner[u as usize] = i as u32;
        }
    }
    s
}

/// Update counters in `stats_to_json` order.
pub fn counters_of(s: &UpdateStats) -> [u64; 6] {
    [
        s.insertions,
        s.deletions,
        s.swaps_attempted,
        s.swaps_applied,
        s.cliques_added,
        s.cliques_removed,
    ]
}

fn sorted_rows(solver: &DynamicSolver) -> Vec<u32> {
    solver.solution().sorted_cliques().iter().flat_map(|c| c.iter().collect::<Vec<_>>()).collect()
}

fn check_solution_body(body: &[u8], solver: &DynamicSolver, epoch: u64, rep: &mut Report) {
    match rows(body, "cliques", K) {
        Ok(cliques) => rep.check(cliques == sorted_rows(solver), || {
            format!("solution reply at epoch {epoch} differs from the replayed solution")
        }),
        Err(e) => rep.fail(format!("solution reply at epoch {epoch}: {e}")),
    }
}

/// The checked final state from `fetch`.
pub struct Fetched {
    /// The served graph at the end of the stream.
    pub graph: CsrGraph,
    /// The served solution.
    pub solution: Solution,
}

/// Fetches the full state after the stream and checks it: epoch, graph,
/// solution and counters equal the replay, and the solution is a disjoint,
/// maximal k-clique set of the fetched graph.
pub fn fetch_and_check(
    served: &mut Served,
    replayed: &Replayed,
    rep: &mut Report,
) -> Result<Fetched, String> {
    rep.attempted += 1;
    let body = served.read.call(r#"{"cmd":"fetch"}"#)?;
    if !body.starts_with(br#"{"ok":true,"#) {
        return Err(format!(
            "fetch refused: {}",
            String::from_utf8_lossy(&body[..body.len().min(200)])
        ));
    }
    let field = |key: &str| field_u64(&body, key).ok_or(format!("fetch reply lacks {key:?}"));
    let (epoch, num_nodes) = (field("epoch")?, field("num_nodes")? as usize);
    rep.check(epoch == replayed.epoch, || {
        format!("fetch at epoch {epoch}, replay ended at {}", replayed.epoch)
    });
    let edges = rows(&body, "edges", 2)?;
    let graph = CsrGraph::from_edges(num_nodes, edges.chunks_exact(2).map(|e| (e[0], e[1])))
        .map_err(|e| format!("fetched graph invalid: {e}"))?;
    let cliques = rows(&body, "cliques", K)?;
    let counters = crate::client::COUNTERS.map(|k| field_u64(&body, k));
    drop(body);
    rep.check(graph == replayed.solver.graph().to_csr(), || {
        "fetched graph differs from the replayed graph".into()
    });
    rep.check(cliques == sorted_rows(&replayed.solver), || {
        "fetched solution differs from the replayed one".into()
    });
    rep.check(counters == counters_of(replayed.solver.stats()).map(Some), || {
        format!(
            "fetched counters {counters:?} differ from the replay's {:?}",
            replayed.solver.stats()
        )
    });
    let mut solution = Solution::new(K);
    for c in cliques.chunks_exact(K) {
        solution.push(Clique::new(c));
    }
    if let Err(e) = solution.verify(&graph) {
        rep.fail(format!("fetched solution invalid: {e}"));
    }
    if let Err(e) = solution.verify_maximal(&graph) {
        rep.fail(format!("fetched solution not maximal: {e}"));
    }
    Ok(Fetched { graph, solution })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The first unsigned integer member named `key` in a rendered reply.
fn field_u64(body: &[u8], key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = find(body, pat.as_bytes())? + pat.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits]).ok()?.parse().ok()
}

/// The array of `width`-wide integer rows under member `key`, flattened —
/// a scanner for the large `fetch` / `solution` bodies, which would cost
/// hundreds of megabytes as a parsed JSON tree.
fn rows(body: &[u8], key: &str, width: usize) -> Result<Vec<u32>, String> {
    let bad = || format!("malformed {key:?} array");
    let pat = format!("\"{key}\":[");
    let mut i =
        find(body, pat.as_bytes()).ok_or_else(|| format!("reply lacks {key:?}"))? + pat.len();
    let mut out = Vec::new();
    if body.get(i) == Some(&b']') {
        return Ok(out);
    }
    loop {
        if body.get(i) != Some(&b'[') {
            return Err(bad());
        }
        i += 1;
        let row = out.len();
        loop {
            let digits = body[i..].iter().take_while(|b| b.is_ascii_digit()).count();
            let v: u32 = std::str::from_utf8(&body[i..i + digits])
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(bad)?;
            out.push(v);
            i += digits;
            match body.get(i) {
                Some(b',') => i += 1,
                Some(b']') => {
                    i += 1;
                    break;
                }
                _ => return Err(bad()),
            }
        }
        if out.len() - row != width {
            return Err(bad());
        }
        match body.get(i) {
            Some(b',') => i += 1,
            Some(b']') => return Ok(out),
            _ => return Err(bad()),
        }
    }
}
