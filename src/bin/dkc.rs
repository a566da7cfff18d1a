//! `dkc` — command-line front end for the disjoint k-clique toolkit.
//!
//! ```text
//! dkc stats     <graph> [--kmax K] [common flags]            graph statistics + k-clique counts
//! dkc solve     <graph> --k K [common flags] [--json]        maximal disjoint k-clique set
//! dkc partition <graph> --k K [common flags] [--json]        assign EVERY node to a group (≤ K)
//! dkc serve     <dataset|graph> --k K [--port P] [--state-dir D]   dynamic serving over TCP
//!               [--fsync POLICY]
//! dkc replica   <primary-addr> [--port P] [--readers N]        read replica tailing a primary
//! dkc loadgen   <host:port> [--conns N] [--ops N] [--update-pct P] [--improve-pct P]   drive a server, report latency
//! dkc bench     [--reps N] [--check BASELINE] [--out FILE]   pinned perf suite → one JSON line
//! dkc bench     summary [FILES...] [--json] [--plot]         fold trajectory files into a table
//! dkc convert   <in> <out> [--threads N]                     text ⇄ binary .dkcsr snapshot
//! dkc gen       <dataset> <out> [--scale X] [--seed N]       write a stand-in as an edge list
//! dkc cache     <dataset> --data-dir D [--scale X] [--seed N] [--json]   warm the snapshot cache
//! dkc cache     evict --data-dir D [--dataset NAME] [--scale X] [--seed N]   GC cache entries
//! ```
//!
//! Common flags (accepted uniformly by every solving subcommand):
//! `--algo hg|gc|l|lp|opt|greedy-cg`, `--ordering <kind>` (HG only),
//! `--threads N`, and the budget knobs `--max-cliques N`,
//! `--max-conflicts N`, `--mis-nodes N` — which apply to whichever
//! algorithm can trip on them, not just `opt` — plus the improvement
//! knobs `--improve-steps N` / `--improve-seed N`, which run the
//! `dkc-improve` local-search pass over the constructed solution.
//!
//! `<graph>` accepts either format — KONECT-style text edge lists (`u v`
//! per line, `%`/`#` comments, arbitrary integer labels) or binary
//! `.dkcsr` snapshots — detected by content, not extension. `convert`
//! writes a snapshot when `<out>` ends in `.dkcsr` and a labelled edge
//! list otherwise, so both directions round-trip. `--threads` defaults to
//! the available parallelism (or the `DKC_THREADS` environment variable
//! when set); every parallel phase, text parsing included, is
//! deterministic, so the output is identical for any thread count. Output
//! uses the input file's original labels; `--json` swaps the human output
//! for the engine's `SolveReport`/`PartitionReport` JSON rendering.
//!
//! `bench` runs the pinned performance suite (see
//! `dkc_bench::trajectory`): k-clique listing, LP solve, full partition,
//! text-parse vs snapshot-load ingestion, dynamic `apply_batch`
//! throughput, and serve latency percentiles via an in-process server +
//! loadgen — on a registry-resolved stand-in at a fixed scale/seed — and
//! appends exactly one JSON line to `BENCH_<host>.json` (or `--out`).
//! With `--check <baseline.json>` the fresh run is additionally compared
//! against the committed baseline's last line and the exit status is
//! nonzero when any gated metric regresses beyond its tolerance — the CI
//! `perf-gate` job is exactly this invocation. `bench summary` reads the
//! accumulated trajectory files instead of running anything: every line
//! of each `BENCH_<host>.json` given (default: this host's file) folds
//! into a per-metric `{median, min}` table across runs, or the matching
//! JSON document with `--json`.
//!
//! `serve` starts the dynamic serving layer (see the `dkc-serve` crate
//! docs for the newline-delimited JSON protocol): `<dataset|graph>` is a
//! Table I dataset name (resolved through the registry, honouring
//! `--data-dir`/`--scale`/`--seed`) or a graph file path. With
//! `--state-dir` the server is durable — it journals updates, `snapshot`
//! persists, and a restart resumes at the exact epoch via log replay; an
//! existing state directory wins over `<dataset>`. `--fsync` picks the
//! journal durability point (`per-commit`, `per-batch` (default), or
//! `snapshot`). A state directory that holds a `plan.json` is refused
//! with exit 1: it is the state of a sharded deployment, which this
//! server cannot resume. `replica` bootstraps a read replica from a
//! primary (`fetch` + journal tail) and serves read queries on `--port`,
//! bit-identical to the primary at every epoch it has caught up to.
//! `loadgen` drives a running server with a seeded update/query mix and
//! prints throughput and latency percentiles; `--improve-pct` mixes in
//! `improve` verbs (`--improve-steps` per call). On the serve
//! side `--improve-slice N` turns on background improvement: whenever
//! the writer is idle it runs an N-step improvement slice, journals any
//! slice that applied moves, and publishes the improved view as a new
//! epoch — replicas and restarts replay the exact same slices.

use disjoint_kcliques::clique::count_kcliques_parallel;
use disjoint_kcliques::core::{Algo, Budget, Engine, SolveRequest};
use disjoint_kcliques::datagen::registry::DatasetId;
use disjoint_kcliques::datagen::{DatasetRegistry, EvictFilter};
use disjoint_kcliques::dynamic::{FsyncPolicy, ServeStateError, ServingSolver};
use disjoint_kcliques::graph::io::{
    load_graph, write_edge_list_labeled, write_edge_list_path, write_snapshot_path, LoadReport,
    LoadedGraph,
};
use disjoint_kcliques::graph::{Dag, NodeOrder};
use disjoint_kcliques::json::Json;
use disjoint_kcliques::par::ParConfig;
use disjoint_kcliques::prelude::*;
use disjoint_kcliques::serve::{
    run_loadgen, LoadgenConfig, Replica, ReplicaConfig, Server, ServerConfig,
};
use std::time::{Duration, Instant};

/// `print!` for everything the CLI streams to stdout. A reader that closes
/// the pipe early (`dkc solve … | head -1`) ends the process with exit 0
/// instead of the panic `print!` raises on `EPIPE`; any other write error
/// exits 1.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// [`out!`] plus a newline.
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("failed writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// Every allocation in the CLI is counted, so the bench suite's
/// `list_peak_bytes` / `solve_alloc_count` metrics (and Table I's space
/// column under `repro`) read real values instead of 0.
#[global_allocator]
static ALLOC: disjoint_kcliques::bench::mem::TrackingAllocator =
    disjoint_kcliques::bench::mem::TrackingAllocator;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dkc stats <graph> [--kmax K] [common flags]\n  dkc solve <graph> --k K [common flags] [--json]\n  dkc partition <graph> --k K [common flags] [--json]\n  dkc serve <dataset|graph> --k K [--port P] [--state-dir D] [--data-dir D]\n            [--scale X] [--seed N] [--readers N] [--batch-max N]\n            [--max-node N] [--improve-slice N]\n            [--fsync per-commit|per-batch|snapshot] [common flags]\n  dkc replica <primary-addr> [--port P] [--readers N]\n  dkc loadgen <host:port> [--conns N] [--ops N] [--warmup N] [--update-pct P]\n            [--improve-pct P] [--improve-steps N] [--batch N] [--nodes N]\n            [--seed N] [--json]\n  dkc bench [--dataset NAME] [--scale X] [--seed N] [--k K] [--reps N]\n            [--threads N] [--out FILE] [--check BASELINE.json] [--stamp DATE]\n            [--host NAME] [--git-rev SHA] [--data-dir D] [--scratch D]\n            [--conns N] [--ops N] [--warmup N] [--batches N] [--batch-size N]\n  dkc bench summary [FILES...] [--json] [--plot]\n  dkc convert <in> <out> [--threads N]\n  dkc gen <dataset> <out> [--scale X] [--seed N]\n  dkc cache <dataset> --data-dir D [--scale X] [--seed N] [--threads N] [--json]\n  dkc cache evict --data-dir D [--dataset NAME] [--scale X] [--seed N]\n\ncommon flags: --algo hg|gc|l|lp|opt|greedy-cg   --threads N\n              --ordering identity|degree-asc|degree-desc|degeneracy|color\n              --max-cliques N --max-conflicts N --mis-nodes N\n              --improve-steps N --improve-seed N\n\n<graph> is a KONECT-style edge list or a binary .dkcsr snapshot (detected\nby content). --threads defaults to the available parallelism (env\nDKC_THREADS overrides); results are identical for any thread count.\n--algo opt defaults to the standard deterministic OOM/OOT budgets; the\nbudget flags override them for any algorithm. --json prints the engine\nreport as JSON on stdout. serve speaks newline-delimited JSON (see the\ndkc-serve crate docs); with --state-dir it journals updates and restarts\nresume at the exact epoch via snapshot + log replay. bench appends one\nJSON line per run to BENCH_<host>.json and, with --check, exits nonzero\nwhen a gated metric regresses past the committed baseline's tolerance.\nbench summary folds every line of the given trajectory files (default:\nthis host's file) into a per-metric median/min table across runs;\n--plot appends per-metric ASCII sparklines in run order."
    );
    std::process::exit(2);
}

struct Args {
    command: String,
    path: String,
    out: Option<String>,
    /// Trailing positional file list (`bench summary` only).
    files: Vec<String>,
    k: usize,
    kmax: usize,
    algo: Algo,
    ordering: Option<OrderingKind>,
    max_cliques: Option<usize>,
    max_conflicts: Option<usize>,
    mis_nodes: Option<u64>,
    json: bool,
    scale: Option<f64>,
    seed: Option<u64>,
    dataset: Option<String>,
    data_dir: Option<String>,
    par: ParConfig,
    // serve flags
    port: u16,
    state_dir: Option<String>,
    readers: usize,
    batch_max: usize,
    max_node: Option<u32>,
    fsync: FsyncPolicy,
    // loadgen flags (conns/ops default differently for loadgen and bench)
    conns: Option<usize>,
    ops: Option<usize>,
    warmup: Option<usize>,
    update_pct: f64,
    batch: usize,
    nodes: Option<u32>,
    // improvement flags (budget on solving subcommands, slice size on
    // serve, op mix on loadgen)
    improve_steps: Option<u64>,
    improve_seed: Option<u64>,
    improve_slice: u64,
    improve_pct: f64,
    // bench flags
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

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1).peekable();
    let Some(command) = it.next() else { usage() };
    // `bench` runs the suite with no positional argument; its `summary`
    // form consumes the keyword and then any number of trajectory files.
    let path = if command == "bench" {
        if it.peek().map(String::as_str) == Some("summary") {
            it.next().unwrap()
        } else {
            String::new()
        }
    } else {
        let Some(path) = it.next() else { usage() };
        path
    };
    let mut args = Args {
        command,
        path,
        out: None,
        files: Vec::new(),
        k: 0,
        kmax: 6,
        algo: Algo::Lp,
        ordering: None,
        max_cliques: None,
        max_conflicts: None,
        mis_nodes: None,
        json: false,
        scale: None,
        seed: None,
        dataset: None,
        data_dir: None,
        par: ParConfig::default(),
        port: 7911,
        state_dir: None,
        readers: 4,
        batch_max: 4096,
        max_node: None,
        fsync: FsyncPolicy::default(),
        conns: None,
        ops: None,
        warmup: None,
        update_pct: 30.0,
        batch: 8,
        nodes: None,
        improve_steps: None,
        improve_seed: None,
        improve_slice: 0,
        improve_pct: 0.0,
        reps: 3,
        bench_out: None,
        check: None,
        stamp: None,
        host: None,
        git_rev: None,
        scratch: None,
        batches: 32,
        batch_size: 16,
        plot: false,
    };
    // `convert` and `gen` take a second positional argument; `bench
    // summary` takes any number of trajectory file positionals.
    let takes_out = matches!(args.command.as_str(), "convert" | "gen");
    let takes_files = args.command == "bench" && args.path == "summary";
    let mut positional_out = None;
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") && takes_files {
            args.files.push(flag);
            continue;
        }
        if !flag.starts_with("--") && takes_out && positional_out.is_none() {
            positional_out = Some(flag);
            continue;
        }
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--k" => args.k = value().parse().unwrap_or_else(|_| usage()),
            "--kmax" => args.kmax = value().parse().unwrap_or_else(|_| usage()),
            "--algo" => {
                args.algo = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--ordering" => {
                args.ordering = Some(value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                }))
            }
            "--max-cliques" => args.max_cliques = Some(value().parse().unwrap_or_else(|_| usage())),
            "--max-conflicts" => {
                args.max_conflicts = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--mis-nodes" => args.mis_nodes = Some(value().parse().unwrap_or_else(|_| usage())),
            "--json" => args.json = true,
            "--scale" => {
                // Stand-ins are subsampled, never blown up: reject anything
                // outside (0, 1] here instead of tripping the generator's
                // assertion.
                let scale: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(scale.is_finite() && scale > 0.0 && scale <= 1.0) {
                    eprintln!("--scale must be a number in (0, 1], got {scale}");
                    usage();
                }
                args.scale = Some(scale);
            }
            "--seed" => args.seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--dataset" => args.dataset = Some(value()),
            "--data-dir" => args.data_dir = Some(value()),
            "--threads" => {
                let threads: usize = value().parse().unwrap_or_else(|_| usage());
                if threads == 0 {
                    usage();
                }
                args.par = args.par.with_threads(threads);
            }
            "--port" => args.port = value().parse().unwrap_or_else(|_| usage()),
            "--state-dir" => args.state_dir = Some(value()),
            "--readers" => args.readers = value().parse().unwrap_or_else(|_| usage()),
            "--batch-max" => args.batch_max = value().parse().unwrap_or_else(|_| usage()),
            "--max-node" => args.max_node = Some(value().parse().unwrap_or_else(|_| usage())),
            "--fsync" => {
                args.fsync = value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                })
            }
            "--conns" => args.conns = Some(value().parse().unwrap_or_else(|_| usage())),
            "--ops" => args.ops = Some(value().parse().unwrap_or_else(|_| usage())),
            "--warmup" => args.warmup = Some(value().parse().unwrap_or_else(|_| usage())),
            "--update-pct" => {
                let pct: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(0.0..=100.0).contains(&pct) {
                    usage();
                }
                args.update_pct = pct;
            }
            "--batch" => args.batch = value().parse().unwrap_or_else(|_| usage()),
            "--nodes" => args.nodes = Some(value().parse().unwrap_or_else(|_| usage())),
            "--improve-steps" => {
                args.improve_steps = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--improve-seed" => {
                args.improve_seed = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--improve-slice" => args.improve_slice = value().parse().unwrap_or_else(|_| usage()),
            "--improve-pct" => {
                let pct: f64 = value().parse().unwrap_or_else(|_| usage());
                if !(0.0..=100.0).contains(&pct) {
                    usage();
                }
                args.improve_pct = pct;
            }
            "--plot" => args.plot = true,
            "--reps" => {
                args.reps = value().parse().unwrap_or_else(|_| usage());
                if args.reps == 0 {
                    usage();
                }
            }
            "--out" => args.bench_out = Some(value()),
            "--check" => args.check = Some(value()),
            "--stamp" => args.stamp = Some(value()),
            "--host" => args.host = Some(value()),
            "--git-rev" => args.git_rev = Some(value()),
            "--scratch" => args.scratch = Some(value()),
            "--batches" => args.batches = value().parse().unwrap_or_else(|_| usage()),
            "--batch-size" => args.batch_size = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    args.out = positional_out;
    args
}

fn load(path: &str, par: ParConfig) -> (LoadedGraph, LoadReport) {
    match load_graph(path, par) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to load {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn dataset_for(name: &str) -> DatasetId {
    let upper = name.to_ascii_uppercase();
    match DatasetId::ALL.into_iter().find(|d| d.name() == upper) {
        Some(id) => id,
        None => {
            let names: Vec<&str> = DatasetId::ALL.iter().map(|d| d.name()).collect();
            eprintln!("unknown dataset {name:?} (try one of {})", names.join("|"));
            std::process::exit(2);
        }
    }
}

/// The single Engine-backed construction point the solving subcommands
/// share: one request from the uniform `--algo`/`--ordering`/`--threads`/
/// budget flags. `opt` starts from the standard deterministic budgets
/// (degrade to a structured OOM/OOT error instead of hanging past exact
/// scale); every algorithm honours explicit budget overrides.
fn request_from_args(args: &Args) -> SolveRequest {
    let mut budget = Budget::default_for(args.algo);
    if let Some(n) = args.max_cliques {
        budget = budget.with_max_cliques(n);
    }
    if let Some(n) = args.max_conflicts {
        budget = budget.with_max_conflicts(n);
    }
    if let Some(n) = args.mis_nodes {
        budget = budget.with_mis_node_limit(n);
    }
    if let Some(steps) = args.improve_steps {
        budget = budget.with_improve_steps(steps);
    }
    if let Some(seed) = args.improve_seed {
        budget = budget.with_improve_seed(seed);
    }
    let mut req = SolveRequest::new(args.algo, args.k).with_budget(budget).with_par(args.par);
    if let Some(ordering) = args.ordering {
        req = req.with_ordering(ordering);
    }
    req
}

/// Loads the input graph and prints the shared load-path provenance line
/// (to stderr, so `--json`/label output on stdout stays machine-clean).
fn load_with_provenance(args: &Args) -> LoadedGraph {
    let (loaded, report) = load(&args.path, args.par);
    eprintln!("# load: {report}");
    loaded
}

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "stats" => cmd_stats(&args),
        "solve" => cmd_solve(&args),
        "partition" => cmd_partition(&args),
        "serve" => cmd_serve(&args),
        "replica" => cmd_replica(&args),
        "loadgen" => cmd_loadgen(&args),
        "bench" if args.path == "summary" => cmd_bench_summary(&args),
        "bench" => cmd_bench(&args),
        "convert" => cmd_convert(&args),
        "gen" => cmd_gen(&args),
        "cache" if args.path == "evict" => cmd_cache_evict(&args),
        "cache" => cmd_cache(&args),
        _ => usage(),
    }
}

/// Bootstraps the serve graph: an existing file path wins, then a Table I
/// dataset name through the registry (snapshot-cached under `--data-dir`).
fn serve_bootstrap(args: &Args) -> Result<CsrGraph, ServeStateError> {
    if std::path::Path::new(&args.path).is_file() {
        let (loaded, report) = load_graph(&args.path, args.par).map_err(ServeStateError::Graph)?;
        eprintln!("# load: {report}");
        return Ok(loaded.graph);
    }
    let id = dataset_for(&args.path);
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

fn cmd_serve(args: &Args) {
    if args.k == 0 {
        usage();
    }
    if let Some(dir) = &args.state_dir {
        // A sharded deployment kept `plan.json` plus one state dir per
        // shard here. Creating a fresh state next to them would silently
        // drop every update the shards acknowledged.
        let plan = std::path::Path::new(dir).join("plan.json");
        if plan.exists() {
            eprintln!(
                "{} is the state of a sharded deployment (plan.json, shard<i>/); \
                 dkc serve resumes only a single-server state dir",
                plan.display()
            );
            std::process::exit(1);
        }
    }
    let request = request_from_args(args);
    let built = match &args.state_dir {
        Some(dir) => ServingSolver::open(dir, request, || serve_bootstrap(args)),
        None => serve_bootstrap(args)
            .and_then(|g| ServingSolver::in_memory(&g, request).map_err(Into::into))
            .map(|s| (s, false)),
    };
    let (serving, restored) = match built {
        Ok(v) => v,
        Err(e) => {
            eprintln!("serve bootstrap failed: {e}");
            std::process::exit(1);
        }
    };
    let view = serving.view();
    let listener = match std::net::TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind 127.0.0.1:{}: {e}", args.port);
            std::process::exit(1);
        }
    };
    let config = ServerConfig {
        readers: args.readers.max(1),
        queue_capacity: 128,
        batch_max_updates: args.batch_max.max(1),
        max_node: args.max_node,
        fsync: args.fsync,
        improve_slice: args.improve_slice,
        improve_seed: args.improve_seed.unwrap_or(0),
    };
    let handle = match Server::start(listener, serving, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            std::process::exit(1);
        }
    };
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
}

/// `dkc replica <primary-addr>`: bootstrap from the primary (`fetch`),
/// tail its journal, serve read queries.
fn cmd_replica(args: &Args) {
    let listener = match std::net::TcpListener::bind(("127.0.0.1", args.port)) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("failed to bind 127.0.0.1:{}: {e}", args.port);
            std::process::exit(1);
        }
    };
    let config = ReplicaConfig { readers: args.readers.max(1), ..ReplicaConfig::default() };
    let handle = match Replica::start(&args.path, listener, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("replica bootstrap from {} failed: {e}", args.path);
            std::process::exit(1);
        }
    };
    eprintln!(
        "# replica on {} — tailing {} from epoch {}",
        handle.local_addr(),
        args.path,
        handle.epoch()
    );
    handle.join();
    eprintln!("# replica stopped");
}

fn cmd_loadgen(args: &Args) {
    let cfg = LoadgenConfig {
        addr: args.path.clone(),
        connections: args.conns.unwrap_or(4).max(1),
        ops_per_connection: args.ops.unwrap_or(200).max(1),
        warmup_ops: args.warmup.unwrap_or(0),
        update_fraction: args.update_pct / 100.0,
        improve_fraction: args.improve_pct / 100.0,
        improve_steps: args.improve_steps.unwrap_or(64),
        batch: args.batch.max(1),
        nodes: args.nodes.unwrap_or(1000),
        seed: args.seed.unwrap_or(42),
    };
    match run_loadgen(&cfg) {
        Ok(report) => {
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
                    ("improves".into(), summary(&report.improves)),
                    ("queries".into(), summary(&report.queries)),
                    ("final_epoch".into(), Json::u64(report.final_epoch)),
                    ("final_size".into(), Json::usize(report.final_size)),
                ]);
                outln!("{}", doc.render());
            } else {
                outln!("{report}");
            }
            if report.errors > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("loadgen failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the pinned perf suite, appends one JSON line to the trajectory
/// file, and (with `--check`) gates against the committed baseline.
fn cmd_bench(args: &Args) {
    use disjoint_kcliques::bench::trajectory::{
        check_line, gates, run_suite, BenchLine, SuiteConfig, SCHEMA_VERSION,
    };
    let dataset = dataset_for(args.dataset.as_deref().unwrap_or("HST"));
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
    cfg.apply_batches = args.batches.max(1);
    cfg.apply_batch_size = args.batch_size.max(1);

    let host = bench_host(args);
    let outcome = match run_suite(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
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
    let append =
        std::fs::OpenOptions::new().create(true).append(true).open(&out_path).and_then(|mut f| {
            std::io::Write::write_all(&mut f, format!("{rendered}\n").as_bytes())
        });
    if let Err(e) = append {
        eprintln!("failed to append to {out_path}: {e}");
        std::process::exit(1);
    }
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

    if let Some(baseline_path) = &args.check {
        let baseline = std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchLine::parse_last(&text).map_err(|e| e.to_string()));
        let baseline = match baseline {
            Ok(b) => b,
            Err(e) => {
                eprintln!("failed to read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let violations = check_line(&line, &baseline);
        if violations.is_empty() {
            eprintln!(
                "# perf gate PASSED against {baseline_path} ({} gated metrics)",
                gates().len()
            );
        } else {
            eprintln!("# perf gate FAILED against {baseline_path}:");
            for v in &violations {
                eprintln!("#   {v}");
            }
            std::process::exit(1);
        }
    }
}

/// Folds every line of the given trajectory files (default: this host's
/// `BENCH_<host>.json`) into a per-metric `{median, min}` table.
fn cmd_bench_summary(args: &Args) {
    use disjoint_kcliques::bench::trajectory::{parse_trajectory, summarize, BenchLine};
    let files = if args.files.is_empty() {
        vec![format!("BENCH_{}.json", bench_host(args))]
    } else {
        args.files.clone()
    };
    let mut lines: Vec<BenchLine> = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read {path}: {e}");
                std::process::exit(1);
            }
        };
        match parse_trajectory(&text) {
            Ok(parsed) => lines.extend(parsed),
            Err(e) => {
                eprintln!("failed to parse {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    let summary = summarize(&lines);
    if args.json {
        outln!("{}", summary.to_json_value().render());
        return;
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
    if let Some(rev) = &args.git_rev {
        return rev.clone();
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// `--stamp`, else seconds since the Unix epoch.
fn bench_stamp(args: &Args) -> String {
    if let Some(stamp) = &args.stamp {
        return stamp.clone();
    }
    std::time::SystemTime::now()
        .duration_since(std::time::SystemTime::UNIX_EPOCH)
        .map(|d| format!("unix:{}", d.as_secs()))
        .unwrap_or_else(|_| "unstamped".into())
}

fn cmd_stats(args: &Args) {
    let loaded = load_with_provenance(args);
    let g = &loaded.graph;
    outln!("{}", GraphStats::of(g));
    let dag = Dag::from_graph(g, NodeOrder::compute(g, OrderingKind::Degeneracy));
    for k in 3..=args.kmax {
        let t = Instant::now();
        let count = count_kcliques_parallel(&dag, k, args.par);
        outln!("{k}-cliques: {count} ({:.1} ms)", t.elapsed().as_secs_f64() * 1e3);
    }
}

fn cmd_solve(args: &Args) {
    if args.k == 0 {
        usage();
    }
    let loaded = load_with_provenance(args);
    let req = request_from_args(args);
    match Engine::solve(&loaded.graph, req) {
        Ok(report) => {
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
        }
        Err(e) => {
            eprintln!("solve failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_partition(args: &Args) {
    if args.k == 0 {
        usage();
    }
    let loaded = load_with_provenance(args);
    let req = request_from_args(args);
    match Engine::partition_all(&loaded.graph, req) {
        Ok(report) => {
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
        }
        Err(e) => {
            eprintln!("partition failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_convert(args: &Args) {
    let Some(out) = &args.out else { usage() };
    let loaded = load_with_provenance(args);
    let t = Instant::now();
    let result = if out.ends_with(".dkcsr") {
        write_snapshot_path(&loaded, out)
    } else {
        std::fs::File::create(out)
            .map_err(Into::into)
            .and_then(|f| write_edge_list_labeled(&loaded, f))
    };
    match result {
        Ok(()) => eprintln!(
            "# wrote {out} ({} nodes, {} edges, {:.1} ms)",
            loaded.graph.num_nodes(),
            loaded.graph.num_edges(),
            t.elapsed().as_secs_f64() * 1e3
        ),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_gen(args: &Args) {
    let Some(out) = &args.out else { usage() };
    let id = dataset_for(&args.path);
    let (scale, seed) = (args.scale.unwrap_or(1.0), args.seed.unwrap_or(42));
    let g = id.standin(scale, seed);
    match write_edge_list_path(&g, out) {
        Ok(()) => eprintln!(
            "# wrote {out}: {} stand-in at scale {} seed {} ({} nodes, {} edges)",
            id.name(),
            scale,
            seed,
            g.num_nodes(),
            g.num_edges()
        ),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_cache(args: &Args) {
    let Some(dir) = &args.data_dir else { usage() };
    let id = dataset_for(&args.path);
    let registry = DatasetRegistry::new(dir).with_par(args.par);
    match registry.resolve_standin(id, args.scale.unwrap_or(1.0), args.seed.unwrap_or(42)) {
        Ok(resolved) => {
            if args.json {
                // Machine form of the resolution + counters, rendered via
                // the shared JSON module (the same layer behind the engine
                // reports and the serve protocol).
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
        }
        Err(e) => {
            eprintln!("cache failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_cache_evict(args: &Args) {
    let Some(dir) = &args.data_dir else { usage() };
    let registry = DatasetRegistry::new(dir);
    let filter = EvictFilter {
        dataset: args.dataset.as_deref().map(dataset_for),
        scale: args.scale,
        seed: args.seed,
    };
    match registry.evict_standins(&filter) {
        Ok(removed) => {
            eprintln!(
                "# evicted {removed} cache entr{}; {}",
                plural_y(removed),
                registry.stats_line()
            );
        }
        Err(e) => {
            eprintln!("evict failed: {e}");
            std::process::exit(1);
        }
    }
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}
