//! Metric collection, correctness bookkeeping and the result line.

use dkc_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics (printed with `--trace 0`), with units. Latency
/// tails are printed per rung on stderr but are not gated: on a 2-vCPU
/// virtual machine they move 2–10× between runs with the host's load.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("partition_s", "s"),
    ("teams", "count"),
    ("update_p50_ms", "ms"),
    ("read_p50_us", "us"),
    ("solution_p75_ms", "ms"),
    ("ops_at_slo", "ops/s"),
    ("teams_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (printed with `--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("graph.decode_ms", "ms"),
    ("graph.decode_mb_per_s", "MB/s"),
    ("graph.order_ms", "ms"),
    ("graph.dag_ms", "ms"),
    ("clique.scores_ms", "ms"),
    ("clique.kcliques", "count"),
    ("core.lp_select_ms", "ms"),
    ("core.lp_heap_pops", "count"),
    ("core.lp_reprobes", "count"),
    ("core.lp_useful_ratio", "ratio"),
    ("core.partition.k4_ms", "ms"),
    ("core.partition.k3_ms", "ms"),
    ("core.partition.matching_ms", "ms"),
    ("par.scores_speedup", "x"),
    ("par.solve_speedup", "x"),
    ("dynamic.maintain_us", "us"),
    ("dynamic.publish_ms", "ms"),
    ("dynamic.journal_us", "us"),
    ("dynamic.swaps_per_update", "ratio"),
    ("dynamic.applied_ratio", "ratio"),
    ("serve.epochs_per_update", "ratio"),
    ("serve.update_overhead_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.render_solution_ms", "ms"),
    ("serve.render_group_of_us", "us"),
    ("serve.parse_request_us", "us"),
    ("serve.solution_bytes", "bytes"),
    ("serve.read_overhead_us", "us"),
    ("client.late_p99_ms", "ms"),
    ("setup.initial_solve_ms", "ms"),
    ("setup.server_start_ms", "ms"),
    ("trace.overhead_update_p50_ms", "ms"),
    ("trace.overhead_read_p50_us", "us"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    violations: Vec<String>,
    /// Operations attempted (requests sent, solves run).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    exact: BTreeMap<String, u64>,
}

impl Report {
    /// Records a metric by its declared name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("VIOLATION: {msg}");
            self.violations.push(msg);
        }
    }

    /// Records a violation from an error.
    pub fn fail(&mut self, msg: String) {
        self.check(false, || msg);
    }

    /// Records an exact counter for the determinism guard.
    pub fn exact(&mut self, name: impl Into<String>, value: u64) {
        self.exact.insert(name.into(), value);
    }

    /// The determinism guard: exact counters must repeat byte for byte
    /// across runs of one seed and build. Counters recorded by an earlier
    /// run in `path` are compared, then the union is written back.
    pub fn guard_exact(&mut self, path: &Path) {
        let mut known: BTreeMap<String, u64> = std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect();
        let mut mismatches = Vec::new();
        for (name, &value) in &self.exact {
            if let Some(&before) = known.get(name) {
                if before != value {
                    mismatches.push(format!("{name}: {before} before, {value} now"));
                }
            }
            known.insert(name.clone(), value);
        }
        for m in mismatches {
            self.fail(format!("exact counter changed between runs of one seed: {m}"));
        }
        let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        if let Err(e) = std::fs::write(path, text) {
            self.fail(format!("cannot record exact counters in {}: {e}", path.display()));
        }
    }

    /// True when no violation was recorded.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Prints every metric of the selected set by name and unit (stderr)
    /// and the result object as the last stdout line.
    pub fn finish(&mut self, trace: bool) {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut members = Vec::new();
        for &(name, unit) in set {
            let value = match self.metrics.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    self.fail(format!("metric {name} was not measured"));
                    0.0
                }
            };
            eprintln!("  {name:<30} {value:>16.6} {unit}");
            members.push((
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(format!("{value:?}"))),
                    ("unit".into(), Json::str(unit)),
                ]),
            ));
        }
        eprintln!(
            "  attempted={} failed={} failed_frac={:.6} correct={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct()
        );
        let doc = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::u64(self.attempted.max(1))),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), Json::Obj(members)),
        ]);
        println!("{}", doc.render());
    }
}
