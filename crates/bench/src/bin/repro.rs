//! `repro` — regenerates every table and figure of the paper's evaluation:
//! `cargo run --release -p dkc-bench --bin repro -- <experiment> [flags]`.
//!
//! Run `repro` without arguments for the usage text, which lists every
//! experiment and flag. Each flag sets the [`ReproConfig`] field of the
//! same meaning (`--kmin`/`--kmax` bound its k sweep, 3..=6 by default);
//! `--data-dir` caches stand-ins there as `.dkcsr` snapshots and picks up
//! real edge lists dropped into it.

#![warn(clippy::exit)]

use dkc_bench::cli::{self, Cli, CliError, Command, Flag};
use dkc_bench::config::ReproConfig;
use dkc_bench::experiments::{
    ablation, dynamic_sweep, improve, static_sweep, synthetic, table1, table4, table7,
};
use dkc_bench::{out, outln};
use std::time::Duration;

#[global_allocator]
static ALLOC: dkc_bench::mem::TrackingAllocator = dkc_bench::mem::TrackingAllocator;

/// The experiment configuration and the bounds of its k sweep.
#[derive(Default)]
struct Opts {
    cfg: ReproConfig,
    kmin: usize,
    kmax: usize,
}

type F = Flag<Opts>;
const SCALE: F = F::new("--scale", "X", |o, v| v.scale().map(|x| o.cfg.scale = x));
const SEED: F = F::new("--seed", "N", |o, v| v.num().map(|n| o.cfg.seed = n));
const KMIN: F = F::new("--kmin", "N", |o, v| v.k().map(|k| o.kmin = k)).or("3");
const KMAX: F = F::new("--kmax", "N", |o, v| v.k().map(|k| o.kmax = k)).or("6");
const DATASETS: F = F::new("--datasets", "A,B", |o, v| {
    v.text().and_then(|s| ReproConfig::parse_datasets(&s)).map(|d| o.cfg.datasets = Some(d))
});
const UPDATES: F = F::new("--updates", "N", |o, v| v.num().map(|n| o.cfg.updates = n));
const OPT_TIMEOUT_MS: F = F::new("--opt-timeout-ms", "N", |o, v| {
    v.num().map(|ms| o.cfg.opt_time_limit = Duration::from_millis(ms))
});
const MAX_CLIQUES: F =
    F::new("--max-cliques", "N", |o, v| v.num().map(|n| o.cfg.max_stored_cliques = n));
const DATA_DIR: F =
    F::new("--data-dir", "D", |o, v| v.text().map(|d| o.cfg.data_dir = Some(d.into())));

/// Every experiment takes the same flags.
const FLAGS: &[&F] =
    &[&SCALE, &SEED, &KMIN, &KMAX, &DATASETS, &UPDATES, &OPT_TIMEOUT_MS, &MAX_CLIQUES, &DATA_DIR];

/// One experiment row: its name and the body that prints its output.
macro_rules! experiment {
    ($name:literal, $body:expr) => {
        Command {
            name: $name,
            args: &[],
            required: &[],
            flags: FLAGS,
            run: |o, _| run_experiment(o, $name, $body),
        }
    };
}

#[rustfmt::skip]
const REPRO: Cli<Opts> = Cli {
    program: "repro",
    commands: &[
        experiment!("table1", |c| out!("{}", table1::run(c))),
        experiment!("table2", |c| out!("{}", static_sweep::render_table2(&static_sweep::run_sweep(c)))),
        experiment!("table3", |c| out!("{}", static_sweep::render_table3(&static_sweep::run_sweep(c)))),
        experiment!("table4", |c| out!("{}", table4::run(c))),
        experiment!("table5", |c| out!("{}", synthetic::render_table5(&synthetic::run_sweep(c)))),
        experiment!("table6", |c| out!("{}", synthetic::render_table6(&synthetic::run_sweep(c)))),
        experiment!("table7", |c| out!("{}", table7::run(c))),
        experiment!("table8", |c| out!("{}", dynamic_sweep::render_table8(&dynamic_sweep::run_sweep(c)))),
        experiment!("fig6", |c| out!("{}", static_sweep::render_fig6(&static_sweep::run_sweep(c)))),
        experiment!("fig7", |c| out!("{}", dynamic_sweep::render_fig7(&dynamic_sweep::run_sweep(c)))),
        experiment!("ablation", |c| {
            out!("{}\n{}", ablation::run_ordering(c), ablation::run_pruning_and_scores(c))
        }),
        experiment!("improve", |c| out!("{}", improve::run(c))),
        experiment!("all", all),
    ],
    notes: "",
};

fn main() {
    cli::run(&REPRO)
}

/// Checks the k sweep, prints the run's header and runs `body`.
fn run_experiment(opts: &Opts, experiment: &str, body: fn(&ReproConfig)) -> Result<(), CliError> {
    if opts.kmin > opts.kmax {
        return Err(CliError::Usage(format!(
            "need kmin <= kmax, got {} > {}",
            opts.kmin, opts.kmax
        )));
    }
    let cfg = ReproConfig { ks: (opts.kmin..=opts.kmax).collect(), ..opts.cfg.clone() };
    eprintln!(
        "# repro {experiment}: scale={} seed={} k={:?} updates={} (paper-shaped stand-ins; see DESIGN.md §4)",
        cfg.scale, cfg.seed, cfg.ks, cfg.updates
    );
    body(&cfg);
    Ok(())
}

/// Every experiment in turn, each printed as soon as it is done.
fn all(cfg: &ReproConfig) {
    outln!("{}", table1::run(cfg));
    let sweep = static_sweep::run_sweep(cfg);
    outln!("{}", static_sweep::render_fig6(&sweep));
    outln!("{}", static_sweep::render_table2(&sweep));
    outln!("{}", static_sweep::render_table3(&sweep));
    outln!("{}", table4::run(cfg));
    let syn = synthetic::run_sweep(cfg);
    outln!("{}", synthetic::render_table5(&syn));
    outln!("{}", synthetic::render_table6(&syn));
    outln!("{}", table7::run(cfg));
    let dy = dynamic_sweep::run_sweep(cfg);
    outln!("{}", dynamic_sweep::render_fig7(&dy));
    outln!("{}", dynamic_sweep::render_table8(&dy));
    outln!("{}", ablation::run_ordering(cfg));
    outln!("{}", ablation::run_pruning_and_scores(cfg));
    out!("{}", improve::run(cfg));
}
