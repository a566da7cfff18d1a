//! `dkc` — command-line front end for the disjoint k-clique toolkit. Run
//! it without arguments for the usage text, generated from the command
//! table below, where each flag is declared once.
//!
//! The solving subcommands share `--algo`, `--ordering` (HG only),
//! `--threads` and the budget knobs, which apply to whichever algorithm
//! can trip on them, not just `opt`; `--improve-steps`/`--improve-seed`
//! run the `dkc-improve` local-search pass over the constructed solution.
//!
//! `<graph>` is a KONECT-style text edge list (`u v` per line, `%`/`#`
//! comments, arbitrary integer labels) or a binary `.dkcsr` snapshot,
//! detected by content, not extension. `convert` writes a snapshot when
//! `<out>` ends in `.dkcsr` and a labelled edge list otherwise, so both
//! directions round-trip. Every parallel phase, text parsing included, is
//! deterministic, so the output is identical for any `--threads` (default:
//! the available parallelism, or `DKC_THREADS` when set). Output uses the
//! input's original labels; `--json` swaps the human output for the
//! engine's `SolveReport`/`PartitionReport` JSON rendering.
//!
//! `bench` runs the pinned performance suite of `dkc_bench::trajectory`
//! (k-clique listing, LP solve, full partition, text-parse vs
//! snapshot-load ingestion, dynamic `apply_batch` throughput and serve
//! latency through an in-process server + loadgen, on a registry stand-in
//! at a fixed scale and seed) and appends exactly one JSON line to
//! `BENCH_<host>.json` (or `--out`). `--check <baseline.json>` compares the
//! run with the baseline's last line and exits nonzero when any gated
//! metric regresses beyond its tolerance; the CI `perf-gate` job is
//! exactly this invocation. `bench summary` runs nothing: every line of
//! each trajectory file given (default: this host's) folds into a
//! per-metric `{median, min}` table across runs, or JSON with `--json`.
//!
//! `serve` starts the dynamic serving layer (the `dkc-serve` crate docs
//! describe its newline-delimited JSON protocol) on a graph file or a
//! Table I dataset name (resolved through the registry, honouring
//! `--data-dir`/`--scale`/`--seed`). With `--state-dir` the server is
//! durable: it journals updates, `snapshot` persists, and a restart
//! resumes at the exact epoch via log replay; an existing state directory
//! wins over the dataset. `--fsync` picks the journal durability point
//! (`per-commit`, `per-batch` (default) or `snapshot`). A state directory
//! holding a sharded deployment's `plan.json` is refused with exit 1.
//! `replica` bootstraps from a primary (`fetch` + journal tail) and serves
//! reads on `--port`, bit-identical to the primary at every epoch it has
//! caught up to. `loadgen` drives a server with a seeded update/query mix
//! and prints throughput and latency percentiles. `serve --improve-steps`
//! runs the local-search pass inside the bootstrap solve; the server
//! itself runs no local search.

#![warn(clippy::exit)]

use disjoint_kcliques::bench::cli::{self, failed, Cli, CliError, Command, Flag};
use disjoint_kcliques::bench::{out, outln};
use disjoint_kcliques::clique::count_kcliques_parallel;
use disjoint_kcliques::core::{Algo, Budget, Engine, SolveRequest};
use disjoint_kcliques::datagen::registry::DatasetId;
use disjoint_kcliques::datagen::{DatasetRegistry, EvictFilter};
use disjoint_kcliques::dynamic::{FsyncPolicy, ServeStateError, ServingSolver};
use disjoint_kcliques::graph::io::{
    load_graph, write_edge_list_labeled, write_edge_list_path, write_snapshot_path, LoadedGraph,
};
use disjoint_kcliques::graph::{Dag, NodeOrder};
use disjoint_kcliques::json::Json;
use disjoint_kcliques::par::ParConfig;
use disjoint_kcliques::prelude::*;
use disjoint_kcliques::serve::{
    run_loadgen, LoadgenConfig, Replica, ReplicaConfig, Server, ServerConfig,
};
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

/// Every allocation in the CLI is counted, so the bench suite's
/// `list_peak_bytes` / `solve_alloc_count` metrics (and Table I's space
/// column under `repro`) read real values instead of 0.
#[global_allocator]
static ALLOC: disjoint_kcliques::bench::mem::TrackingAllocator =
    disjoint_kcliques::bench::mem::TrackingAllocator;

/// Every flag's value; a command reads the ones its row accepts.
#[derive(Default)]
struct Args {
    /// 0 until `--k` is given (`bench` then keeps its pinned k).
    k: usize,
    kmax: usize,
    algo: Option<Algo>,
    ordering: Option<OrderingKind>,
    /// Explicit budget flags, over the algorithm's default budget.
    budget: Budget,
    json: bool,
    scale: Option<f64>,
    seed: Option<u64>,
    dataset: Option<DatasetId>,
    data_dir: Option<String>,
    par: ParConfig,
    port: u16,
    state_dir: Option<String>,
    readers: usize,
    batch_max: usize,
    max_node: Option<u32>,
    fsync: FsyncPolicy,
    // `loadgen` and `bench` default these differently.
    conns: Option<usize>,
    ops: Option<usize>,
    warmup: Option<usize>,
    update_pct: f64,
    batch: usize,
    nodes: Option<u32>,
    reps: usize,
    bench_out: Option<String>,
    check: Option<String>,
    stamp: Option<String>,
    host: Option<String>,
    git_rev: Option<String>,
    scratch: Option<String>,
    batches: usize,
    batch_size: usize,
    plot: bool,
}

type F = Flag<Args>;
const K: F = F::new("--k", "K", |a, v| v.k().map(|k| a.k = k));
const KMAX: F = F::new("--kmax", "K", |a, v| v.k().map(|k| a.kmax = k)).or("6");
const ALGO: F =
    F::new("--algo", "hg|gc|l|lp|opt|greedy-cg", |a, v| v.parse().map(|x| a.algo = Some(x)));
const ORDERING: F =
    F::new("--ordering", "identity|degree-asc|degree-desc|degeneracy|color", |a, v| {
        v.parse().map(|o| a.ordering = Some(o))
    });
const THREADS: F =
    F::new("--threads", "N", |a, v| v.count().map(|n| a.par = a.par.with_threads(n)));
const MAX_CLIQUES: F =
    F::new("--max-cliques", "N", |a, v| v.num().map(|n| a.budget.max_cliques = Some(n)));
const MAX_CONFLICTS: F =
    F::new("--max-conflicts", "N", |a, v| v.num().map(|n| a.budget.max_conflicts = Some(n)));
const MIS_NODES: F =
    F::new("--mis-nodes", "N", |a, v| v.num().map(|n| a.budget.mis_node_limit = Some(n)));
const IMPROVE_STEPS: F =
    F::new("--improve-steps", "N", |a, v| v.num().map(|n| a.budget.improve_steps = Some(n)));
const IMPROVE_SEED: F =
    F::new("--improve-seed", "N", |a, v| v.num().map(|n| a.budget.improve_seed = Some(n)));
const JSON: F = F::new("--json", "", |a, v| v.switch().map(|on| a.json = on));
const SCALE: F = F::new("--scale", "X", |a, v| v.scale().map(|x| a.scale = Some(x)));
const SEED: F = F::new("--seed", "N", |a, v| v.num().map(|n| a.seed = Some(n)));
const DATASET: F = F::new("--dataset", "NAME", |a, v| v.parse().map(|d| a.dataset = Some(d)));
const DATA_DIR: F = F::new("--data-dir", "D", |a, v| v.text().map(|d| a.data_dir = Some(d)));
const PORT: F = F::new("--port", "P", |a, v| v.num().map(|p| a.port = p)).or("7911");
const STATE_DIR: F = F::new("--state-dir", "D", |a, v| v.text().map(|d| a.state_dir = Some(d)));
const READERS: F = F::new("--readers", "N", |a, v| v.count().map(|n| a.readers = n)).or("4");
const BATCH_MAX: F =
    F::new("--batch-max", "N", |a, v| v.count().map(|n| a.batch_max = n)).or("4096");
const MAX_NODE: F = F::new("--max-node", "N", |a, v| v.num().map(|n| a.max_node = Some(n)));
const FSYNC: F =
    F::new("--fsync", "per-commit|per-batch|snapshot", |a, v| v.parse().map(|p| a.fsync = p));
const CONNS: F = F::new("--conns", "N", |a, v| v.count().map(|n| a.conns = Some(n)));
const OPS: F = F::new("--ops", "N", |a, v| v.count().map(|n| a.ops = Some(n)));
const WARMUP: F = F::new("--warmup", "N", |a, v| v.num().map(|n| a.warmup = Some(n)));
const UPDATE_PCT: F =
    F::new("--update-pct", "P", |a, v| v.pct().map(|p| a.update_pct = p)).or("30");
const BATCH: F = F::new("--batch", "N", |a, v| v.count().map(|n| a.batch = n)).or("8");
const NODES: F = F::new("--nodes", "N", |a, v| v.num().map(|n| a.nodes = Some(n)));
const REPS: F = F::new("--reps", "N", |a, v| v.count().map(|n| a.reps = n)).or("3");
const OUT: F = F::new("--out", "FILE", |a, v| v.text().map(|f| a.bench_out = Some(f)));
const CHECK: F = F::new("--check", "BASELINE.json", |a, v| v.text().map(|f| a.check = Some(f)));
const STAMP: F = F::new("--stamp", "DATE", |a, v| v.text().map(|s| a.stamp = Some(s)));
const HOST: F = F::new("--host", "NAME", |a, v| v.text().map(|h| a.host = Some(h)));
const GIT_REV: F = F::new("--git-rev", "SHA", |a, v| v.text().map(|r| a.git_rev = Some(r)));
const SCRATCH: F = F::new("--scratch", "D", |a, v| v.text().map(|d| a.scratch = Some(d)));
const BATCHES: F = F::new("--batches", "N", |a, v| v.count().map(|n| a.batches = n)).or("32");
const BATCH_SIZE: F =
    F::new("--batch-size", "N", |a, v| v.count().map(|n| a.batch_size = n)).or("16");
const PLOT: F = F::new("--plot", "", |a, v| v.switch().map(|on| a.plot = on));

/// The command table: each row accepts exactly the flags it lists.
#[rustfmt::skip]
const DKC: Cli<Args> = Cli {
    program: "dkc",
    commands: &[
        Command { name: "stats", args: &["<graph>"], required: &[], run: cmd_stats,
            flags: &[&KMAX, &ALGO, &ORDERING, &THREADS, &MAX_CLIQUES, &MAX_CONFLICTS, &MIS_NODES,
                     &IMPROVE_STEPS, &IMPROVE_SEED] },
        Command { name: "solve", args: &["<graph>"], required: &[&K], run: cmd_solve,
            flags: &[&ALGO, &ORDERING, &THREADS, &MAX_CLIQUES, &MAX_CONFLICTS, &MIS_NODES,
                     &IMPROVE_STEPS, &IMPROVE_SEED, &JSON] },
        Command { name: "partition", args: &["<graph>"], required: &[&K], run: cmd_partition,
            flags: &[&ALGO, &ORDERING, &THREADS, &MAX_CLIQUES, &MAX_CONFLICTS, &MIS_NODES,
                     &IMPROVE_STEPS, &IMPROVE_SEED, &JSON] },
        Command { name: "serve", args: &["<dataset|graph>"], required: &[&K], run: cmd_serve,
            flags: &[&PORT, &STATE_DIR, &DATA_DIR, &SCALE, &SEED, &READERS, &BATCH_MAX, &MAX_NODE,
                     &FSYNC, &ALGO, &ORDERING, &THREADS, &MAX_CLIQUES, &MAX_CONFLICTS,
                     &MIS_NODES, &IMPROVE_STEPS, &IMPROVE_SEED] },
        Command { name: "replica", args: &["<primary-addr>"], required: &[], run: cmd_replica,
            flags: &[&PORT, &READERS] },
        Command { name: "loadgen", args: &["<host:port>"], required: &[], run: cmd_loadgen,
            flags: &[&CONNS, &OPS, &WARMUP, &UPDATE_PCT, &BATCH, &NODES, &SEED, &JSON] },
        Command { name: "bench", args: &[], required: &[], run: cmd_bench,
            flags: &[&DATASET, &SCALE, &SEED, &K, &REPS, &THREADS, &OUT, &CHECK, &STAMP, &HOST,
                     &GIT_REV, &DATA_DIR, &SCRATCH, &CONNS, &OPS, &WARMUP, &BATCHES, &BATCH_SIZE] },
        Command { name: "bench summary", args: &["[FILES...]"], required: &[], run: cmd_bench_summary,
            flags: &[&JSON, &PLOT, &HOST] },
        Command { name: "convert", args: &["<in>", "<out>"], required: &[], run: cmd_convert,
            flags: &[&THREADS] },
        Command { name: "gen", args: &["<dataset>", "<out>"], required: &[], run: cmd_gen,
            flags: &[&SCALE, &SEED] },
        Command { name: "cache", args: &["<dataset>"], required: &[&DATA_DIR], run: cmd_cache,
            flags: &[&SCALE, &SEED, &THREADS, &JSON] },
        Command { name: "cache evict", args: &[], required: &[&DATA_DIR], run: cmd_cache_evict,
            flags: &[&DATASET, &SCALE, &SEED] },
    ],
    notes: "<graph> is a KONECT-style edge list or a binary .dkcsr snapshot (detected\n\
            by content). --threads defaults to the available parallelism (env\n\
            DKC_THREADS overrides); results are identical for any thread count.\n\
            --algo opt defaults to the standard deterministic OOM/OOT budgets; the\n\
            budget flags override them for any algorithm. --json prints the engine\n\
            report as JSON on stdout. README.md describes every subcommand.",
};

fn main() {
    cli::run(&DKC)
}

/// Loads the input graph and prints the shared load-path provenance line
/// (to stderr, so `--json`/label output on stdout stays machine-clean).
fn load(path: &str, par: ParConfig) -> Result<LoadedGraph, CliError> {
    let (loaded, report) =
        load_graph(path, par).map_err(failed(format!("failed to load {path}")))?;
    eprintln!("# load: {report}");
    Ok(loaded)
}

fn bind(port: u16) -> Result<TcpListener, CliError> {
    TcpListener::bind(("127.0.0.1", port))
        .map_err(failed(format!("failed to bind 127.0.0.1:{port}")))
}

/// The single Engine-backed construction point the solving subcommands
/// share: one request from the uniform `--algo`/`--ordering`/`--threads`/
/// budget flags. `opt` starts from the standard deterministic budgets
/// (degrade to a structured OOM/OOT error instead of hanging past exact
/// scale); every algorithm honours explicit budget overrides.
fn request_from_args(args: &Args) -> SolveRequest {
    let algo = args.algo.unwrap_or(Algo::Lp);
    let (set, base) = (args.budget, Budget::default_for(algo));
    let budget = Budget {
        max_cliques: set.max_cliques.or(base.max_cliques),
        max_conflicts: set.max_conflicts.or(base.max_conflicts),
        mis_node_limit: set.mis_node_limit.or(base.mis_node_limit),
        ..set
    };
    let req = SolveRequest::new(algo, args.k).with_budget(budget).with_par(args.par);
    args.ordering.map_or(req, |ordering| req.with_ordering(ordering))
}

/// Bootstraps the serve graph: the graph file, else the Table I dataset
/// through the registry (snapshot-cached under `--data-dir`).
fn serve_bootstrap(
    args: &Args,
    path: &str,
    dataset: Option<DatasetId>,
) -> Result<CsrGraph, ServeStateError> {
    let Some(id) = dataset else {
        let (loaded, report) = load_graph(path, args.par).map_err(ServeStateError::Graph)?;
        eprintln!("# load: {report}");
        return Ok(loaded.graph);
    };
    let registry = match &args.data_dir {
        Some(dir) => DatasetRegistry::new(dir),
        None => DatasetRegistry::in_memory(),
    }
    .with_par(args.par);
    let resolved = registry
        .resolve_standin(id, args.scale.unwrap_or(1.0), args.seed.unwrap_or(42))
        .map_err(ServeStateError::Graph)?;
    eprintln!(
        "# {} resolved from {} ({} nodes, {} edges)",
        id.name(),
        resolved.from,
        resolved.loaded.graph.num_nodes(),
        resolved.loaded.graph.num_edges()
    );
    Ok(resolved.loaded.graph)
}

fn cmd_serve(args: &Args, pos: &[String]) -> Result<(), CliError> {
    // An existing file path wins over a dataset name.
    let path = &pos[0];
    let dataset = (!Path::new(path).is_file()).then(|| path.parse()).transpose();
    let dataset = dataset.map_err(CliError::Usage)?;
    if let Some(dir) = &args.state_dir {
        // A sharded deployment kept `plan.json` plus one state dir per
        // shard here. Creating a fresh state next to them would silently
        // drop every update the shards acknowledged.
        let plan = Path::new(dir).join("plan.json");
        if plan.exists() {
            return Err(CliError::Failed(format!(
                "{} is the state of a sharded deployment (plan.json, shard<i>/); \
                 dkc serve resumes only a single-server state dir",
                plan.display()
            )));
        }
    }
    let request = request_from_args(args);
    let bootstrap = || serve_bootstrap(args, path, dataset);
    let (serving, restored) = match &args.state_dir {
        Some(dir) => ServingSolver::open(dir, request, bootstrap),
        None => bootstrap()
            .and_then(|g| ServingSolver::in_memory(&g, request).map_err(Into::into))
            .map(|s| (s, false)),
    }
    .map_err(failed("serve bootstrap failed"))?;
    let view = serving.view();
    let config = ServerConfig {
        readers: args.readers,
        queue_capacity: 128,
        batch_max_updates: args.batch_max,
        max_node: args.max_node,
        fsync: args.fsync,
    };
    let handle = Server::start(bind(args.port)?, serving, config)
        .map_err(failed("failed to start server"))?;
    eprintln!(
        "# serving on {} — k={} algo={} epoch={} |S|={}{}{}",
        handle.local_addr(),
        view.k(),
        request.algo,
        view.epoch(),
        view.len(),
        if restored { " (restored from state dir)" } else { "" },
        match &args.state_dir {
            Some(d) => format!(" state-dir={d}"),
            None => " (in-memory, no durability)".to_string(),
        }
    );
    handle.join();
    eprintln!("# server stopped");
    Ok(())
}

/// `dkc replica <primary-addr>`: bootstrap from the primary (`fetch`),
/// tail its journal, serve read queries.
fn cmd_replica(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let primary = &pos[0];
    let config = ReplicaConfig { readers: args.readers, ..ReplicaConfig::default() };
    let handle = Replica::start(primary, bind(args.port)?, config)
        .map_err(failed(format!("replica bootstrap from {primary} failed")))?;
    eprintln!(
        "# replica on {} — tailing {primary} from epoch {}",
        handle.local_addr(),
        handle.epoch()
    );
    handle.join();
    eprintln!("# replica stopped");
    Ok(())
}

fn cmd_loadgen(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let cfg = LoadgenConfig {
        addr: pos[0].clone(),
        connections: args.conns.unwrap_or(4),
        ops_per_connection: args.ops.unwrap_or(200),
        warmup_ops: args.warmup.unwrap_or(0),
        update_fraction: args.update_pct / 100.0,
        batch: args.batch,
        nodes: args.nodes.unwrap_or(1000),
        seed: args.seed.unwrap_or(42),
    };
    let report = run_loadgen(&cfg).map_err(failed("loadgen failed"))?;
    if args.json {
        let us = |d: Duration| Json::u64(d.as_micros() as u64);
        let summary = |s: &disjoint_kcliques::serve::LatencySummary| {
            Json::Obj(vec![
                ("count".into(), Json::usize(s.count)),
                ("p50_us".into(), us(s.p50)),
                ("p95_us".into(), us(s.p95)),
                ("p99_us".into(), us(s.p99)),
                ("max_us".into(), us(s.max)),
            ])
        };
        let doc = Json::Obj(vec![
            ("total_ops".into(), Json::usize(report.total_ops)),
            ("errors".into(), Json::usize(report.errors)),
            ("elapsed_us".into(), us(report.elapsed)),
            ("ops_per_sec".into(), Json::u64(report.throughput() as u64)),
            ("updates".into(), summary(&report.updates)),
            ("queries".into(), summary(&report.queries)),
            ("final_epoch".into(), Json::u64(report.final_epoch)),
            ("final_size".into(), Json::usize(report.final_size)),
        ]);
        outln!("{}", doc.render());
    } else {
        outln!("{report}");
    }
    match report.errors {
        0 => Ok(()),
        n => Err(CliError::Failed(format!("loadgen: {n} operations failed"))),
    }
}

/// Runs the pinned perf suite, appends one JSON line to the trajectory
/// file, and (with `--check`) gates against the committed baseline.
fn cmd_bench(args: &Args, _: &[String]) -> Result<(), CliError> {
    use disjoint_kcliques::bench::trajectory::{
        check_line, gates, run_suite, BenchLine, SuiteConfig, SCHEMA_VERSION,
    };
    let dataset = args.dataset.unwrap_or(DatasetId::Hst);
    let mut cfg = SuiteConfig::pinned(
        args.scratch
            .clone()
            .unwrap_or_else(|| format!("{}/dkc-bench-scratch", std::env::temp_dir().display())),
    );
    cfg.dataset = dataset;
    cfg.scale = args.scale.unwrap_or(cfg.scale);
    cfg.seed = args.seed.unwrap_or(cfg.seed);
    if args.k != 0 {
        cfg.k = args.k;
    }
    cfg.reps = args.reps;
    cfg.par = args.par;
    cfg.data_dir = args.data_dir.clone().map(Into::into);
    cfg.serve_conns = args.conns.unwrap_or(cfg.serve_conns);
    cfg.serve_ops = args.ops.unwrap_or(cfg.serve_ops);
    // Warmup is defaulted ON here (unlike `dkc loadgen`) so the serve
    // percentiles aren't dominated by first-connection noise.
    cfg.serve_warmup = args.warmup.unwrap_or(cfg.serve_warmup);
    cfg.apply_batches = args.batches;
    cfg.apply_batch_size = args.batch_size;

    let host = bench_host(args);
    let outcome = run_suite(&cfg).map_err(|e| CliError::Failed(e.to_string()))?;
    let line = BenchLine {
        schema: SCHEMA_VERSION,
        host: host.clone(),
        git_rev: bench_git_rev(args),
        date: bench_stamp(args),
        threads: args.par.threads,
        dataset: dataset.name().to_string(),
        scale: format!("{}", cfg.scale),
        seed: cfg.seed,
        k: cfg.k,
        reps: cfg.reps,
        metrics: outcome.metrics,
    };
    let rendered = line.render();
    let out_path = args.bench_out.clone().unwrap_or_else(|| format!("BENCH_{host}.json"));
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, format!("{rendered}\n").as_bytes()))
        .map_err(failed(format!("failed to append to {out_path}")))?;
    eprintln!(
        "# bench: {} scale {} seed {} ({} nodes, {} edges), k={} reps={} threads={} → {}",
        line.dataset,
        line.scale,
        line.seed,
        outcome.nodes,
        outcome.edges,
        line.k,
        line.reps,
        line.threads,
        out_path
    );
    outln!("{rendered}");

    let Some(baseline_path) = &args.check else { return Ok(()) };
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| BenchLine::parse_last(&text).map_err(|e| e.to_string()))
        .map_err(failed(format!("failed to read baseline {baseline_path}")))?;
    let violations = check_line(&line, &baseline);
    if !violations.is_empty() {
        let lines: Vec<String> = violations.iter().map(|v| format!("#   {v}")).collect();
        return Err(CliError::Failed(format!(
            "# perf gate FAILED against {baseline_path}:\n{}",
            lines.join("\n")
        )));
    }
    eprintln!("# perf gate PASSED against {baseline_path} ({} gated metrics)", gates().len());
    Ok(())
}

/// Folds every line of the given trajectory files (default: this host's
/// `BENCH_<host>.json`) into a per-metric `{median, min}` table.
fn cmd_bench_summary(args: &Args, files: &[String]) -> Result<(), CliError> {
    use disjoint_kcliques::bench::trajectory::{parse_trajectory, summarize, BenchLine};
    let files = match files {
        [] => vec![format!("BENCH_{}.json", bench_host(args))],
        files => files.to_vec(),
    };
    let mut lines: Vec<BenchLine> = Vec::new();
    for path in &files {
        let text =
            std::fs::read_to_string(path).map_err(failed(format!("failed to read {path}")))?;
        lines.extend(parse_trajectory(&text).map_err(failed(format!("failed to parse {path}")))?);
    }
    let summary = summarize(&lines);
    if args.json {
        outln!("{}", summary.to_json_value().render());
        return Ok(());
    }
    let span = summary
        .span
        .as_ref()
        .map(|(first, last)| format!(", {first} → {last}"))
        .unwrap_or_default();
    eprintln!(
        "# {} run{} from {} file{} (hosts: {}{span})",
        summary.runs,
        if summary.runs == 1 { "" } else { "s" },
        files.len(),
        if files.len() == 1 { "" } else { "s" },
        if summary.hosts.is_empty() { "-".to_string() } else { summary.hosts.join(",") },
    );
    out!("{}", summary.render_table());
    if args.plot {
        out!("{}", disjoint_kcliques::bench::trajectory::render_sparklines(&lines));
    }
    Ok(())
}

/// `--host`, else `DKC_BENCH_HOST`, else `HOSTNAME`, else `unknown` —
/// sanitised so `BENCH_<host>.json` is always a safe file name.
fn bench_host(args: &Args) -> String {
    let raw = args
        .host
        .clone()
        .or_else(|| std::env::var("DKC_BENCH_HOST").ok())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into());
    raw.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '-' })
        .collect()
}

/// `--git-rev`, else `GITHUB_SHA`, else `git rev-parse HEAD`, else
/// `unknown`.
fn bench_git_rev(args: &Args) -> String {
    let git = || std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok();
    args.git_rev
        .clone()
        .or_else(|| std::env::var("GITHUB_SHA").ok().filter(|sha| !sha.is_empty()))
        .or_else(|| {
            let out = git().filter(|o| o.status.success())?;
            Some(String::from_utf8(out.stdout).ok()?.trim().to_string()).filter(|s| !s.is_empty())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `--stamp`, else seconds since the Unix epoch.
fn bench_stamp(args: &Args) -> String {
    args.stamp.clone().unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| format!("unix:{}", d.as_secs()))
            .unwrap_or_else(|_| "unstamped".into())
    })
}

fn cmd_stats(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let loaded = load(&pos[0], args.par)?;
    let g = &loaded.graph;
    outln!("{}", GraphStats::of(g));
    let dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy));
    for k in 3..=args.kmax {
        let t = Instant::now();
        let count = count_kcliques_parallel(&dag, k, args.par);
        outln!("{k}-cliques: {count} ({:.1} ms)", t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(())
}

fn cmd_solve(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let loaded = load(&pos[0], args.par)?;
    let report =
        Engine::solve(&loaded.graph, request_from_args(args)).map_err(failed("solve failed"))?;
    report.solution.verify(&loaded.graph).expect("solver produced an invalid set");
    eprintln!(
        "# {}: |S| = {} ({} nodes covered, {:.1} ms, threads={})",
        report.algo.paper_name(),
        report.solution.len(),
        report.solution.covered_nodes(),
        report.elapsed.as_secs_f64() * 1e3,
        report.threads,
    );
    if args.json {
        outln!("{}", report.to_json_with_labels(&loaded.labels));
    } else {
        for c in report.solution.cliques() {
            let labels: Vec<String> =
                c.iter().map(|u| loaded.labels[u as usize].to_string()).collect();
            outln!("{}", labels.join(" "));
        }
    }
    Ok(())
}

fn cmd_partition(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let loaded = load(&pos[0], args.par)?;
    let report = Engine::partition_all(&loaded.graph, request_from_args(args))
        .map_err(failed("partition failed"))?;
    eprintln!(
        "# {}: {} groups in {:.1} ms — histogram {:?}",
        report.algo.paper_name(),
        report.partition.num_groups(),
        report.elapsed.as_secs_f64() * 1e3,
        report.partition.size_histogram()
    );
    if args.json {
        outln!("{}", report.to_json_with_labels(&loaded.labels));
    } else {
        for group in &report.partition.groups {
            let labels: Vec<String> =
                group.iter().map(|&u| loaded.labels[u as usize].to_string()).collect();
            outln!("{}", labels.join(" "));
        }
    }
    Ok(())
}

fn cmd_convert(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let out = &pos[1];
    let loaded = load(&pos[0], args.par)?;
    let t = Instant::now();
    if out.ends_with(".dkcsr") {
        write_snapshot_path(&loaded, out)
    } else {
        std::fs::File::create(out)
            .map_err(Into::into)
            .and_then(|f| write_edge_list_labeled(&loaded, f))
    }
    .map_err(failed(format!("failed to write {out}")))?;
    eprintln!(
        "# wrote {out} ({} nodes, {} edges, {:.1} ms)",
        loaded.graph.num_nodes(),
        loaded.graph.num_edges(),
        t.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_gen(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let id: DatasetId = pos[0].parse().map_err(CliError::Usage)?;
    let out = &pos[1];
    let (scale, seed) = (args.scale.unwrap_or(1.0), args.seed.unwrap_or(42));
    let g = id.standin(scale, seed);
    write_edge_list_path(&g, out).map_err(failed(format!("failed to write {out}")))?;
    eprintln!(
        "# wrote {out}: {} stand-in at scale {} seed {} ({} nodes, {} edges)",
        id.name(),
        scale,
        seed,
        g.num_nodes(),
        g.num_edges()
    );
    Ok(())
}

fn cmd_cache(args: &Args, pos: &[String]) -> Result<(), CliError> {
    let id: DatasetId = pos[0].parse().map_err(CliError::Usage)?;
    let dir = args.data_dir.as_deref().unwrap_or_default();
    let registry = DatasetRegistry::new(dir).with_par(args.par);
    let resolved = registry
        .resolve_standin(id, args.scale.unwrap_or(1.0), args.seed.unwrap_or(42))
        .map_err(failed("cache failed"))?;
    if args.json {
        // Machine form of the resolution + counters, rendered via the
        // shared JSON module (the same layer behind the engine reports and
        // the serve protocol).
        let s = registry.stats();
        let stats = Json::Obj(vec![
            ("snapshot_hits".into(), Json::u64(s.snapshot_hits)),
            ("text_loads".into(), Json::u64(s.text_loads)),
            ("synthetic_builds".into(), Json::u64(s.synthetic_builds)),
            ("cache_writes".into(), Json::u64(s.cache_writes)),
            ("cache_errors".into(), Json::u64(s.cache_errors)),
            ("evictions".into(), Json::u64(s.evictions)),
        ]);
        let doc = Json::Obj(vec![
            ("dataset".into(), Json::str(id.name())),
            ("from".into(), Json::str(resolved.from.to_string())),
            ("nodes".into(), Json::usize(resolved.loaded.graph.num_nodes())),
            ("edges".into(), Json::usize(resolved.loaded.graph.num_edges())),
            ("elapsed_us".into(), Json::u64(resolved.elapsed.as_micros() as u64)),
            ("cache_written".into(), Json::Bool(resolved.cache_written)),
            ("stats".into(), stats),
        ]);
        outln!("{}", doc.render());
    } else {
        eprintln!(
            "# {} resolved from {} in {:.1} ms ({} nodes, {} edges); {}",
            id.name(),
            resolved.from,
            resolved.elapsed.as_secs_f64() * 1e3,
            resolved.loaded.graph.num_nodes(),
            resolved.loaded.graph.num_edges(),
            registry.stats_line()
        );
    }
    Ok(())
}

fn cmd_cache_evict(args: &Args, _: &[String]) -> Result<(), CliError> {
    let registry = DatasetRegistry::new(args.data_dir.as_deref().unwrap_or_default());
    let filter = EvictFilter { dataset: args.dataset, scale: args.scale, seed: args.seed };
    let removed = registry.evict_standins(&filter).map_err(failed("evict failed"))?;
    let plural = if removed == 1 { "y" } else { "ies" };
    eprintln!("# evicted {removed} cache entr{plural}; {}", registry.stats_line());
    Ok(())
}
