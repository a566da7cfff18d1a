//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench prepare --workload <name> --seed <n> --data <dir>
//! perfbench run     --workload <name> --seed <n> --seconds <s> --trace <0|1> --data <dir> [--build-id <id>]
//! ```
//!
//! `prepare` generates and caches the workload's inputs (never timed);
//! `run` measures them and prints the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`) as the last stdout line. Every
//! phase is checked for correctness; a violation makes the exit code 1.
//! See `README.md` next to this package for the workloads and metrics.

mod batch;
mod client;
mod prep;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use dkc_core::{Algo, Engine, SolveRequest};
use dkc_dynamic::{DynamicSolver, ServingSolver};
use dkc_graph::io::read_snapshot_path;
use dkc_serve::protocol::{
    group_of_reply, parse_request, render_query_request, solution_reply, Query,
};
use report::Report;
use serve::{Observed, RungStat, SetupTimes};
use stats::{median, ms, peak_rss_mb, Pct};
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use workload::{Workload, K};

const USAGE: &str = "usage: perfbench prepare --workload <name> --seed <n> --data <dir>\n       \
                     perfbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> --data <dir> [--build-id <id>]";

/// Set-ups per run (their median is `setup_s`; the last one is measured):
/// a snapshot decode is cheap, a serving set-up solves the graph.
const DECODE_REPS: usize = 7;
const SERVING_SETUP_REPS: usize = 3;
/// Timed static solve repetitions at least, whatever the time budget.
const STATIC_MIN_REPS: usize = 4;
/// Stream updates applied as one untimed batch before the ladder.
const WARMUP_UPDATES: usize = 2000;

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    data: PathBuf,
    build_id: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command")?;
    if cmd != "prepare" && cmd != "run" {
        return Err(format!("unknown command {cmd:?}"));
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut data, mut build_id) =
        (None, None, 10.0, false, None, String::from("unknown"));
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s >= 1.0 && *s <= 600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--data" => data = Some(PathBuf::from(value)),
            "--build-id" => build_id = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        cmd,
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        data: data.ok_or("missing --data")?,
        build_id,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    if args.cmd == "prepare" {
        if let Err(e) = prep::prepare(args.workload, args.seed, &args.data) {
            eprintln!("perfbench prepare: {e}");
            std::process::exit(1);
        }
        return;
    }
    let mut rep = Report::default();
    if let Err(e) = run(&args, &mut rep) {
        rep.fail(e);
    }
    rep.finish(args.trace);
    std::process::exit(if rep.correct() { 0 } else { 1 });
}

fn run(a: &Args, rep: &mut Report) -> Result<(), String> {
    let w = a.workload;
    let mix = w.mix();
    let durable = w.starts_from_g_prime();
    let inputs = prep::Inputs::locate(w, a.seed, &a.data);
    if !inputs.ready() {
        return Err(format!(
            "inputs of {} seed {} are missing: run `prepare` first",
            w.name(),
            a.seed
        ));
    }
    let stream = prep::read_stream(&inputs.stream)?;
    let snapshot_bytes = std::fs::metadata(&inputs.base).map_err(|e| e.to_string())?.len() as f64;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let req = SolveRequest::new(Algo::Lp, K).with_threads(nproc);
    let mut tr = Tracer::new();
    let started = Instant::now();
    let at = |what: &str| eprintln!("[{:6.1} s] {what}", started.elapsed().as_secs_f64());
    eprintln!(
        "perfbench {} seed={} seconds={} trace={} threads={} server={}",
        w.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        nproc,
        if durable {
            format!("durable, fsync policy {}", serve::FSYNC)
        } else {
            "in-memory".into()
        }
    );

    // 1. Set-up, repeated; the last one stays up (serving workloads).
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut kept = None;
    let reps = if w.starts_from_g_prime() { SERVING_SETUP_REPS } else { DECODE_REPS };
    for i in 0..reps {
        if w.starts_from_g_prime() {
            let dir = a.data.join(format!("state-{}-{}-{i}", w.name(), std::process::id()));
            let (times, served, g) = serve::setup_durable(&inputs.base, req, dir, &mut tr)?;
            setups.push(times);
            if i + 1 < reps {
                served.stop();
            } else {
                kept = Some((g, Some(served)));
            }
        } else {
            let t = Instant::now();
            let loaded = tr
                .span("graph.decode", 1, |_| read_snapshot_path(&inputs.base))
                .map_err(|e| e.to_string())?;
            setups
                .push(SetupTimes { decode_s: t.elapsed().as_secs_f64(), ..SetupTimes::default() });
            kept = Some((loaded.graph, None));
        }
    }
    let (g, served) = kept.expect("at least one set-up");
    at("set-up done");
    let decode_s = median(&setups.iter().map(|s| s.decode_s).collect::<Vec<_>>());
    rep.set("setup_s", median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()));
    rep.set("graph.decode_ms", ms(decode_s));
    rep.set("graph.decode_mb_per_s", snapshot_bytes / decode_s / 1e6);
    rep.set(
        "setup.initial_solve_ms",
        ms(median(&setups.iter().map(|s| s.create_s).collect::<Vec<_>>())),
    );
    rep.set(
        "setup.server_start_ms",
        ms(median(&setups.iter().map(|s| s.start_s).collect::<Vec<_>>())),
    );

    // 2. batch-ds: repeated static solves of the stand-in, then its result
    //    is served from memory.
    let mut batch_run = None;
    let mut served = match served {
        Some(s) => s,
        None => {
            let static_s = a.seconds * mix.static_share;
            let run = batch::repeat(&g, req, STATIC_MIN_REPS, static_s, &mut tr, rep)?;
            let one_thread_s = batch::check(&g, &run, req, true, &mut tr, rep);
            let t = Instant::now();
            let serving = tr.span("setup.create", 1, |_| {
                ServingSolver::from_solver(DynamicSolver::from_solution_with_request(
                    &g,
                    run.solve.solution.clone(),
                    req,
                ))
            });
            let create_s = t.elapsed().as_secs_f64();
            let (served, start_s) = serve::start(serving, None, &mut tr)?;
            rep.set("setup.initial_solve_ms", ms(create_s));
            rep.set("setup.server_start_ms", ms(start_s));
            batch_run = Some((run, one_thread_s));
            served
        }
    };

    served.settle();
    // A fresh server publishes its solution from canonical slot order, and
    // a publication re-sorts the groups into that order, which is cheap
    // while the order is still nearly sorted. Updates scatter it, and
    // publication cost rises about twofold over the first few hundred.
    // One untimed warm-up batch from the stream brings it to the steady
    // state before anything is measured.
    let mut obs = Observed::default();
    let warm = stream.get(..WARMUP_UPDATES).ok_or("the prepared stream is too short")?;
    serve::send_batch(&mut served, warm, "warm-up batch", &mut obs, rep);
    let mut cursor = WARMUP_UPDATES;
    at("serving");
    // 3. The open-loop ladder (with --trace 1: an untraced half, then a
    //    traced half, whose difference is the tracing overhead).
    let serve_s = a.seconds * (1.0 - mix.static_share);
    let halves: &[(bool, f64)] =
        if a.trace { &[(false, 0.5), (true, 0.5)] } else { &[(false, 1.0)] };
    let num_nodes = served.view0.num_nodes();
    let mut ladders: Vec<(bool, Vec<RungStat>, Vec<String>)> = Vec::new();
    for (i, &(traced, share)) in halves.iter().enumerate() {
        let plan = serve::plan(
            &mix,
            serve_s * share,
            &stream[cursor..],
            num_nodes,
            a.seed.wrapping_add(i as u64),
        )?;
        cursor += plan.updates.len();
        let lines: Vec<String> =
            plan.reads.iter().chain(&plan.writes).take(2000).map(|q| q.line.clone()).collect();
        let mut run = serve::run_ladder(&mut served, plan);
        let rungs = serve::evaluate(&run);
        eprintln!("ladder {} ({}):", i, if traced { "traced" } else { "untraced" });
        serve::print_rungs(&rungs, &mix);
        for r in &rungs {
            rep.attempted += r.attempted as u64;
            rep.failed += r.failed as u64;
        }
        obs.add(&mut run, rep);
        serve::complete_stream(&mut served, &run, &mut obs, rep);
        if traced {
            serve::record_spans(&run, &mut tr);
        }
        ladders.push((traced, rungs, lines));
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    let probe_updates = stream
        .get(cursor..cursor + mix.solution_probes)
        .ok_or("the prepared stream is too short")?;
    let probes = serve::solution_probes(&mut served, probe_updates, &mut obs, rep);
    rep.attempted += 1;
    let last = served.read.call(&render_query_request(Query::Stats))?;
    match client::check_call(client::Kind::Stats, last)? {
        client::Reply::Stats { epoch, size, counters, cache } => {
            obs.stats.push((epoch, size, counters));
            obs.cache = cache;
        }
        other => return Err(format!("unexpected stats reply {other:?}")),
    }

    at("ladder, probes and final stats done");
    // 4. Replay the acknowledged stream in process and check the served
    //    state against it; `fetch` the final state and verify it.
    let journal = a.data.join(format!("journal-{}-{}.log", w.name(), std::process::id()));
    std::fs::remove_file(&journal).ok();
    let replayed = serve::replay(
        &g,
        &served.view0,
        req,
        &obs,
        a.trace.then_some(journal.as_path()),
        &mut tr,
        rep,
    )?;
    std::fs::remove_file(&journal).ok();
    rep.check(replayed.skipped == 0, || {
        format!("{} replayed updates were no-ops", replayed.skipped)
    });
    at("replay done");
    let fetched = serve::fetch_and_check(&mut served, &replayed, rep);
    let epoch0 = served.view0.epoch();
    served.stop();
    let fetched = fetched?;
    let served_teams = fetched.solution.len();
    at("fetch checked, server stopped");

    // 5. Static solves: batch-ds measured them on the stand-in above; the
    //    serving workloads solve their final graph (which also gives the
    //    fresh |S| behind teams_ratio).
    let (solve_graph, run, one_thread_s, fresh_teams) = match batch_run {
        Some((run, one_thread_s)) => {
            rep.attempted += 1;
            let fresh = Engine::solve(&fetched.graph, req).map_err(|e| e.to_string())?;
            (&g, run, one_thread_s, fresh.solution.len())
        }
        None => {
            let static_s = a.seconds * mix.static_share;
            let run =
                batch::repeat(&fetched.graph, req, STATIC_MIN_REPS, static_s, &mut tr, rep)?;
            let one = batch::check(&fetched.graph, &run, req, a.trace, &mut tr, rep);
            let teams = run.solve.solution.len();
            (&fetched.graph, run, one, teams)
        }
    };
    eprintln!(
        "  solve reps {:?} s, partition reps {:?} s",
        run.solve_s.iter().map(|t| (t * 1e3).round() / 1e3).collect::<Vec<_>>(),
        run.partition_s.iter().map(|t| (t * 1e3).round() / 1e3).collect::<Vec<_>>()
    );
    at("final solves done");
    let solve_s = median(&run.solve_s);
    rep.set("solve_s", solve_s);
    rep.set("partition_s", median(&run.partition_s));
    rep.set("teams", run.solve.solution.len() as f64);
    rep.set("teams_ratio", served_teams as f64 / fresh_teams.max(1) as f64);

    // 6. Latency and capacity from the untraced ladder's rungs.
    let (_, untraced, _) = &ladders[0];
    let nominal = &untraced[mix.nominal];
    rep.set("update_p50_ms", nominal.update.p50);
    rep.set("read_p50_us", nominal.read.p50);
    // Without `solution` reads in the ladder, the probes measure them.
    let solution = if mix.solution_probes > 0 { Pct::of(&probes) } else { nominal.solution };
    eprintln!(
        "  solution reads reported from {}: n={}, p50={:.3} ms, p75={:.3} ms, p{:.1}={:.3} ms",
        if mix.solution_probes > 0 { "closed-loop probes" } else { "the nominal rung" },
        solution.n,
        solution.p50,
        solution.p75,
        solution.tail_q * 100.0,
        solution.tail
    );
    if !probes.is_empty() {
        eprintln!(
            "  probe latencies (ms, in order): {:?}",
            probes.iter().map(|t| (t * 10.0).round() / 10.0).collect::<Vec<_>>()
        );
    }
    // On DS a render takes either about 25 or about 34 ms, and the share of
    // fast ones changes from run to run; the median jumps between the two
    // when it nears one half, the 75th percentile only past three quarters.
    rep.set("solution_p75_ms", solution.p75);
    rep.set(
        "ops_at_slo",
        untraced.iter().filter(|r| r.pass(&mix.limits)).map(|r| r.offered).fold(0.0, f64::max),
    );

    // Exact counters must repeat across runs of one seed.
    let lp = run.lp();
    rep.exact("teams", run.solve.solution.len() as u64);
    rep.exact("lp_heap_pops", lp.heap_pops);
    rep.exact("lp_reprobes", lp.reprobes);
    rep.exact("served_teams", served_teams as u64);
    for (name, v) in client::COUNTERS.iter().zip(serve::counters_of(replayed.solver.stats())) {
        rep.exact(format!("replay_{name}"), v);
    }

    if a.trace {
        let layers = batch::replay_layers(solve_graph, req, &mut tr);
        rep.exact("kcliques", layers.kcliques);
        layer_metrics(
            rep,
            w,
            &ladders,
            &layers,
            &run,
            solve_s,
            one_thread_s,
            &replayed,
            &obs,
            epoch0,
            &mut tr,
        );
        let spans = a.data.join(format!("trace-{}-seed{}.jsonl", w.name(), a.seed));
        tr.write_jsonl(&spans).map_err(|e| format!("write {}: {e}", spans.display()))?;
        eprintln!("  {} spans written to {}", tr.len(), spans.display());
    }
    at("done");
    // The planned stream depends on --seconds and on the ladder halves of a
    // traced run, so those are part of the key.
    let key = format!(
        "exact-{}-seed{}-s{}-t{}-{}.txt",
        w.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        a.build_id
    );
    rep.guard_exact(&a.data.join(key));
    Ok(())
}

/// Derives the per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    rep: &mut Report,
    w: Workload,
    ladders: &[(bool, Vec<RungStat>, Vec<String>)],
    layers: &batch::LayerReplay,
    run: &batch::StaticRun,
    solve_s: f64,
    one_thread_s: Option<f64>,
    replayed: &serve::Replayed,
    obs: &Observed,
    epoch0: u64,
    tr: &mut Tracer,
) {
    let (mix, durable) = (w.mix(), w.starts_from_g_prime());
    rep.set("graph.order_ms", ms(layers.order_s));
    rep.set("graph.dag_ms", ms(layers.dag_s));
    rep.set("clique.scores_ms", ms(layers.scores_s));
    rep.set("clique.kcliques", layers.kcliques as f64);
    rep.set("core.lp_select_ms", ms(solve_s - layers.order_s - layers.dag_s - layers.scores_s));
    let lp = run.lp();
    rep.set("core.lp_heap_pops", lp.heap_pops as f64);
    rep.set("core.lp_reprobes", lp.reprobes as f64);
    rep.set("core.lp_useful_ratio", lp.cliques_added as f64 / lp.heap_pops.max(1) as f64);
    for (phase, name) in [
        ("k=4", "core.partition.k4_ms"),
        ("k=3", "core.partition.k3_ms"),
        ("matching", "core.partition.matching_ms"),
    ] {
        let d = run
            .partition
            .phases
            .iter()
            .find(|p| p.name == phase)
            .map_or(0.0, |p| p.duration.as_secs_f64());
        rep.set(name, ms(d));
    }
    rep.set("par.scores_speedup", layers.scores_1thread_s / layers.scores_s);
    rep.set("par.solve_speedup", one_thread_s.unwrap_or(f64::NAN) / solve_s);

    let t = &replayed.times;
    let (journal_ms, maintain_ms, publish_ms) =
        (ms(median(&t.journal_s)), ms(median(&t.maintain_s)), ms(median(&t.publish_s)));
    rep.set("dynamic.journal_us", journal_ms * 1e3);
    rep.set("dynamic.maintain_us", maintain_ms * 1e3);
    rep.set("dynamic.publish_ms", publish_ms);
    let st = replayed.solver.stats();
    let updates = (replayed.applied + replayed.skipped).max(1) as f64;
    rep.set("dynamic.swaps_per_update", st.swaps_attempted as f64 / updates);
    rep.set("dynamic.applied_ratio", replayed.applied as f64 / updates);
    rep.set("serve.epochs_per_update", (replayed.epoch - epoch0) as f64 / updates);
    let (hits, misses) = obs.cache;
    rep.set("serve.cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);

    // Rendering and parsing costs of the final view, called in process.
    let view = replayed.solver.solution_view(replayed.epoch);
    let mut render_s = Vec::new();
    let mut bytes = 0;
    for _ in 0..5 {
        let t0 = Instant::now();
        let body = tr.span("serve.render_solution", 1, |_| solution_reply(&view).render());
        render_s.push(t0.elapsed().as_secs_f64());
        bytes = body.len();
    }
    rep.set("serve.render_solution_ms", ms(median(&render_s)));
    rep.set("serve.solution_bytes", bytes as f64);
    let probes: Vec<u32> = (0..1000u32)
        .map(|i| i.wrapping_mul(2_654_435_761) % view.num_nodes().max(1) as u32)
        .collect();
    let group_of_s = median(
        &(0..5)
            .map(|_| {
                let t0 = Instant::now();
                tr.span("serve.render_group_of", probes.len() as u64, |_| {
                    for &u in &probes {
                        std::hint::black_box(group_of_reply(&view, u).render());
                    }
                });
                t0.elapsed().as_secs_f64() / probes.len() as f64
            })
            .collect::<Vec<_>>(),
    );
    rep.set("serve.render_group_of_us", group_of_s * 1e6);
    let (traced_half, traced, lines) = ladders.last().expect("a ladder ran");
    debug_assert!(*traced_half);
    let parse_s = median(
        &(0..5)
            .map(|_| {
                let t0 = Instant::now();
                tr.span("serve.parse_request", lines.len() as u64, |_| {
                    for l in lines {
                        std::hint::black_box(parse_request(l).ok());
                    }
                });
                t0.elapsed().as_secs_f64() / lines.len().max(1) as f64
            })
            .collect::<Vec<_>>(),
    );
    rep.set("serve.parse_request_us", parse_s * 1e6);

    // Request latency split at the traced ladder's lowest rung.
    let low = &traced[0];
    let write_path_ms = maintain_ms + publish_ms + if durable { journal_ms } else { 0.0 };
    rep.set("serve.update_overhead_ms", low.update.p50 - write_path_ms);
    rep.set("serve.read_overhead_us", low.read.p50 - (parse_s + group_of_s) * 1e6);
    let late: Vec<f64> = traced.iter().flat_map(|r| r.late_ms.iter().copied()).collect();
    rep.set("client.late_p99_ms", Pct::of(&late).tail);
    let untraced = &ladders[0].1[mix.nominal];
    let traced_nominal = &traced[mix.nominal];
    rep.set("trace.overhead_update_p50_ms", traced_nominal.update.p50 - untraced.update.p50);
    rep.set("trace.overhead_read_p50_us", traced_nominal.read.p50 - untraced.read.p50);
    eprintln!(
        "  update p50 at rung 0 = {:.3} ms = journal {:.3} + maintain {:.3} + publish {:.3} + overhead {:.3} (ms)",
        low.update.p50,
        if durable { journal_ms } else { 0.0 },
        maintain_ms,
        publish_ms,
        low.update.p50 - write_path_ms
    );
}
