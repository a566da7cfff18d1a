//! A seeded load generator for `dkc-serve` servers.
//!
//! Opens several client connections, drives a deterministic mix of update
//! batches and queries against each, validates every reply line as JSON,
//! and reports throughput plus per-kind latency percentiles — the
//! measurement harness behind `dkc loadgen`.

use crate::protocol::{render_improve_request, render_query_request, render_update_request, Query};
use crate::server::send_line;
use dkc_dynamic::EdgeUpdate;
use dkc_graph::NodeId;
use dkc_json::Json;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Configuration of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Number of concurrent client connections.
    pub connections: usize,
    /// Operations issued per connection.
    pub ops_per_connection: usize,
    /// Warmup operations issued per connection *before* the measured ones
    /// (same seeded mix). Their latencies are excluded from the report and
    /// the operation counts — first-connection handshakes, allocator
    /// warmup and cold caches would otherwise dominate the tail
    /// percentiles on short runs — but reply failures during warmup still
    /// count as [`LoadgenReport::errors`].
    pub warmup_ops: usize,
    /// Fraction of operations that are update batches (the rest are
    /// queries), in `[0, 1]`.
    pub update_fraction: f64,
    /// Fraction of operations that are `improve` slices, carved out of the
    /// query share (`update_fraction + improve_fraction <= 1`). At `0.0`
    /// the op stream is byte-identical to a pre-improvement run with the
    /// same seed.
    pub improve_fraction: f64,
    /// Local-search step budget each `improve` operation requests.
    pub improve_steps: u64,
    /// Edge updates per update operation.
    pub batch: usize,
    /// Node-id range random edges are drawn from (`0..nodes`).
    pub nodes: NodeId,
    /// Workload seed (connection `i` derives seed `seed + i`).
    pub seed: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7911".into(),
            connections: 4,
            ops_per_connection: 200,
            warmup_ops: 0,
            update_fraction: 0.3,
            improve_fraction: 0.0,
            improve_steps: 64,
            batch: 8,
            nodes: 100,
            seed: 42,
        }
    }
}

/// Latency percentiles of one operation kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Number of measured operations.
    pub count: usize,
    /// Median latency.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Worst observed.
    pub max: Duration,
}

impl LatencySummary {
    fn of(mut samples: Vec<Duration>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        LatencySummary {
            count: samples.len(),
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        write!(
            f,
            "n={} p50={:.0}us p95={:.0}us p99={:.0}us max={:.0}us",
            self.count,
            us(self.p50),
            us(self.p95),
            us(self.p99),
            us(self.max)
        )
    }
}

/// The outcome of [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Operations completed (updates + queries, across connections).
    pub total_ops: usize,
    /// Replies that failed (`ok:false`, unparsable, or transport errors).
    pub errors: usize,
    /// Latency percentiles of update operations.
    pub updates: LatencySummary,
    /// Latency percentiles of query operations.
    pub queries: LatencySummary,
    /// Latency percentiles of `improve` operations (empty unless
    /// [`LoadgenConfig::improve_fraction`] is positive).
    pub improves: LatencySummary,
    /// Server epoch observed after the run.
    pub final_epoch: u64,
    /// `|S|` observed after the run.
    pub final_size: usize,
}

impl LoadgenReport {
    /// Operations per second over the whole run.
    pub fn throughput(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "loadgen: {} ops in {:.1} ms ({:.0} ops/s), {} errors",
            self.total_ops,
            self.elapsed.as_secs_f64() * 1e3,
            self.throughput(),
            self.errors
        )?;
        writeln!(f, "  updates: {}", self.updates)?;
        writeln!(f, "  queries: {}", self.queries)?;
        if self.improves.count > 0 {
            writeln!(f, "  improves: {}", self.improves)?;
        }
        write!(f, "  final: epoch={} |S|={}", self.final_epoch, self.final_size)
    }
}

struct ConnResult {
    update_lat: Vec<Duration>,
    query_lat: Vec<Duration>,
    improve_lat: Vec<Duration>,
    errors: usize,
}

/// Runs the configured workload and gathers the report. Fails only on
/// connection-establishment problems; per-operation failures are counted
/// in [`LoadgenReport::errors`].
pub fn run_loadgen(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    let started = Instant::now();
    let results: Vec<std::io::Result<ConnResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.connections.max(1))
            .map(|i| scope.spawn(move || drive_connection(cfg, cfg.seed.wrapping_add(i as u64))))
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen connection panicked")).collect()
    });
    let mut update_lat = Vec::new();
    let mut query_lat = Vec::new();
    let mut improve_lat = Vec::new();
    let mut errors = 0usize;
    for r in results {
        let r = r?;
        update_lat.extend(r.update_lat);
        query_lat.extend(r.query_lat);
        improve_lat.extend(r.improve_lat);
        errors += r.errors;
    }
    let elapsed = started.elapsed();
    // One final stats query for the end-of-run epoch / |S|.
    let (final_epoch, final_size) = final_stats(&cfg.addr)?;
    Ok(LoadgenReport {
        elapsed,
        total_ops: update_lat.len() + query_lat.len() + improve_lat.len(),
        errors,
        updates: LatencySummary::of(update_lat),
        queries: LatencySummary::of(query_lat),
        improves: LatencySummary::of(improve_lat),
        final_epoch,
        final_size,
    })
}

fn drive_connection(cfg: &LoadgenConfig, seed: u64) -> std::io::Result<ConnResult> {
    let stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut result = ConnResult {
        update_lat: Vec::new(),
        query_lat: Vec::new(),
        improve_lat: Vec::new(),
        errors: 0,
    };
    let nodes = cfg.nodes.max(2);
    let mut line = String::new();
    // Warmup ops run first on the same connection and rng stream; their
    // latencies are discarded so short measured runs aren't dominated by
    // connection/allocator warmup, but failed replies still count.
    for op in 0..cfg.warmup_ops + cfg.ops_per_connection {
        let measured = op >= cfg.warmup_ops;
        // One draw partitions [0, 1) into update | improve | query bands,
        // so an improve_fraction of 0.0 reproduces the pre-improvement op
        // stream of the same seed byte for byte.
        let draw = rng.gen_range(0.0..1.0);
        let is_update = draw < cfg.update_fraction;
        let is_improve = !is_update
            && cfg.improve_fraction > 0.0
            && draw < cfg.update_fraction + cfg.improve_fraction;
        let request = if is_update {
            let updates: Vec<EdgeUpdate> = (0..cfg.batch.max(1))
                .map(|_| {
                    let a = rng.gen_range(0..nodes);
                    let mut b = rng.gen_range(0..nodes);
                    if a == b {
                        b = (b + 1) % nodes;
                    }
                    if rng.gen_range(0..2) == 0 {
                        EdgeUpdate::Insert(a, b)
                    } else {
                        EdgeUpdate::Delete(a, b)
                    }
                })
                .collect();
            render_update_request(&updates)
        } else if is_improve {
            render_improve_request(cfg.improve_steps.max(1), None)
        } else if op % 16 == 7 {
            render_query_request(Query::Stats)
        } else {
            render_query_request(Query::GroupOf(rng.gen_range(0..nodes)))
        };
        let t = Instant::now();
        send_line(&mut writer, request)?;
        line.clear();
        let n = reader.read_line(&mut line)?;
        let latency = t.elapsed();
        let ok = n > 0
            && Json::parse(line.trim_end())
                .ok()
                .and_then(|v| v.get("ok").and_then(Json::as_bool))
                .unwrap_or(false);
        if !ok {
            result.errors += 1;
        }
        if !measured {
            continue;
        }
        if is_update {
            result.update_lat.push(latency);
        } else if is_improve {
            result.improve_lat.push(latency);
        } else {
            result.query_lat.push(latency);
        }
    }
    Ok(result)
}

fn final_stats(addr: &str) -> std::io::Result<(u64, usize)> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    send_line(&mut writer, render_query_request(Query::Stats))?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let v = Json::parse(line.trim_end())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let epoch = v.get("epoch").and_then(Json::as_u64).unwrap_or(0);
    let size = v.get("size").and_then(Json::as_usize).unwrap_or(0);
    Ok((epoch, size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let s = LatencySummary::of(samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Duration::from_micros(51));
        assert_eq!(s.p95, Duration::from_micros(95));
        assert_eq!(s.max, Duration::from_micros(100));
        assert!(s.to_string().contains("p99"));
        let empty = LatencySummary::of(Vec::new());
        assert_eq!(empty.count, 0);
    }
}
