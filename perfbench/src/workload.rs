//! The three named workloads and their fixed traffic settings.

use dkc_datagen::registry::DatasetId;

/// Clique size of the served and batch-solved problem.
pub const K: usize = 3;
/// Maximum group size of the batch partition.
pub const PARTITION_K: usize = 4;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Static LP solve and partition on DS@1.
    BatchDs,
    /// Durable server on DS@1 under a paper update stream.
    ServeWriteDs,
    /// Durable server on FBW@1 under read-heavy traffic.
    ServeReadFbw,
}

/// Fixed p99 limits a ladder rung must meet to count towards `ops_at_slo`.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Update acknowledgement, milliseconds.
    pub update_ms: f64,
    /// Point reads (`group_of`, `stats`), microseconds.
    pub read_us: f64,
    /// Full `solution` reads, milliseconds.
    pub solution_ms: f64,
}

/// Open-loop traffic of one workload's serving phase. Rates are per second
/// at ladder multiplier 1; each rung scales both connections together.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Single-edge updates per second on the write connection.
    pub write_rate: f64,
    /// Reads per second on the read connection.
    pub read_rate: f64,
    /// Share of reads that fetch the full `solution`.
    pub solution_share: f64,
    /// Share of reads that are `stats`; the rest are `group_of`.
    pub stats_share: f64,
    /// Rate multipliers, ascending.
    pub ladder: &'static [f64],
    /// Index of the nominal rung latency metrics are taken from.
    pub nominal: usize,
    /// Share of the serving time given to the nominal rung; the other
    /// rungs split the rest evenly.
    pub nominal_share: f64,
    /// Share of `--seconds` spent on repeated static solves (the rest is
    /// the serving ladder): of the stand-in before serving on `batch-ds`,
    /// of the final graph after serving elsewhere.
    pub static_share: f64,
    /// The rung limits.
    pub limits: Limits,
    /// Closed-loop `solution` probes after the ladder (each after one
    /// update, so each renders a new epoch), for workloads whose ladder
    /// carries no `solution` reads.
    pub solution_probes: usize,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::BatchDs, Workload::ServeWriteDs, Workload::ServeReadFbw];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchDs => "batch-ds",
            Workload::ServeWriteDs => "serve-write-ds",
            Workload::ServeReadFbw => "serve-read-fbw",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The stand-in dataset (always generated at scale 1).
    pub fn dataset(self) -> DatasetId {
        match self {
            Workload::BatchDs | Workload::ServeWriteDs => DatasetId::Ds,
            Workload::ServeReadFbw => DatasetId::Fbw,
        }
    }

    /// True for the serving workloads: their set-up graph is the paper's
    /// `G'` (the stand-in minus the stream's insertions) and their server
    /// journals to a state directory. `batch-ds` solves the stand-in itself
    /// and serves the result from memory.
    pub fn starts_from_g_prime(self) -> bool {
        self != Workload::BatchDs
    }

    /// Serving traffic.
    pub fn mix(self) -> Mix {
        match self {
            // On DS a `solution` render takes about 30 ms and would stall the
            // point reads queued behind it, so the DS ladders carry `group_of`
            // only and closed-loop probes measure `solution` reads. The
            // nominal rung is light load (a quarter of the ~100 updates/s the
            // DS writer sustains), so a slower machine does not tip it into a
            // backlog, and the rungs above it sit well clear of that
            // capacity, so `ops_at_slo` does not flip between runs.
            Workload::BatchDs => Mix {
                write_rate: 40.0,
                read_rate: 400.0,
                solution_share: 0.0,
                stats_share: 0.0,
                ladder: &[0.5, 1.0, 4.0],
                nominal: 1,
                nominal_share: 0.9,
                static_share: 0.6,
                limits: Limits { update_ms: 100.0, read_us: 50_000.0, solution_ms: 100.0 },
                solution_probes: 40,
            },
            Workload::ServeWriteDs => Mix {
                write_rate: 40.0,
                read_rate: 400.0,
                solution_share: 0.0,
                stats_share: 0.0,
                ladder: &[0.5, 1.0, 4.0],
                nominal: 1,
                nominal_share: 0.9,
                static_share: 0.5,
                limits: Limits { update_ms: 100.0, read_us: 50_000.0, solution_ms: 100.0 },
                solution_probes: 40,
            },
            // Point reads share the connection with `solution` reads and wait
            // behind each render at a new epoch (about 8 ms on FBW).
            Workload::ServeReadFbw => Mix {
                write_rate: 10.0,
                read_rate: 1_000.0,
                solution_share: 0.05,
                stats_share: 0.1,
                ladder: &[0.5, 1.0, 12.0],
                nominal: 1,
                nominal_share: 0.8,
                static_share: 0.0,
                limits: Limits { update_ms: 100.0, read_us: 50_000.0, solution_ms: 100.0 },
                solution_probes: 0,
            },
        }
    }
}
