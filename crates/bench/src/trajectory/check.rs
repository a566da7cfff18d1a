//! The SLO regression gate behind `dkc bench --check`.
//!
//! A fresh [`BenchLine`] is compared against the committed baseline,
//! metric by metric, under a fixed gate table:
//!
//! - **Wall-clock gates** are deliberately *wide* (a CI runner is not the
//!   baseline machine): the fresh `min` may exceed the baseline `min` by a
//!   generous ratio, and values under an absolute floor never fail — at
//!   the gate's tiny pinned scale, scheduler noise below the floor carries
//!   no signal.
//! - **Counter gates** are *tight* (exact by default): clique counts,
//!   `|S|`, heap pops, partition groups, snapshot bytes, applied updates
//!   and serve errors are deterministic for a pinned configuration and
//!   thread-invariant by design, so *any* drift is a behavioural change
//!   that must be explained (and the baseline refreshed deliberately).
//!
//! Metrics not named in [`gates()`] — e.g. `serve_p50_us` — are recorded
//! for the trajectory but never gated.

use super::line::BenchLine;

/// How one metric is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// Wall-clock: fail when `fresh.min > max(baseline.min × ratio, floor)`.
    WallClock {
        /// Allowed ratio in percent (500 = 5×).
        max_ratio_pct: u64,
        /// Absolute grace floor in the metric's unit; fresh values at or
        /// under it always pass.
        floor: u64,
    },
    /// Counter: fail when the medians differ by more than `tolerance_pct`
    /// percent of the baseline (0 = exact match).
    Counter {
        /// Allowed relative drift in percent.
        tolerance_pct: u64,
    },
}

/// One gated metric.
#[derive(Debug, Clone, Copy)]
pub struct GateSpec {
    /// Metric name as it appears in the line's `metrics` object.
    pub metric: &'static str,
    /// The gate applied to it.
    pub kind: GateKind,
}

/// 5× grace for kernel timings, 20 ms floor.
const WALL: GateKind = GateKind::WallClock { max_ratio_pct: 500, floor: 20_000_000 };
/// Serve tail latency is the noisiest metric: 10× grace, 20 ms floor
/// (this unit is µs).
const TAIL: GateKind = GateKind::WallClock { max_ratio_pct: 1000, floor: 20_000 };
/// Deterministic counters match exactly.
const EXACT: GateKind = GateKind::Counter { tolerance_pct: 0 };
/// Per-step improvement cost in µs: 5× grace, 1 ms floor (a single move
/// proposal is far below a millisecond at the pinned scale, so the floor
/// swallows scheduler noise without hiding a real blow-up).
const STEP: GateKind = GateKind::WallClock { max_ratio_pct: 500, floor: 1_000 };

/// The gate table. Order follows the suite.
pub fn gates() -> &'static [GateSpec] {
    const GATES: &[GateSpec] = &[
        GateSpec { metric: "listing_ns", kind: WALL },
        GateSpec { metric: "kcliques", kind: EXACT },
        // Allocation accounting is deterministic at the pinned sequential
        // configuration (the suite brackets single-threaded kernels), so
        // a single extra allocation on the hot path fails the gate.
        GateSpec { metric: "list_peak_bytes", kind: EXACT },
        GateSpec { metric: "solve_alloc_count", kind: EXACT },
        GateSpec { metric: "lp_solve_ns", kind: WALL },
        GateSpec { metric: "lp_size", kind: EXACT },
        GateSpec { metric: "lp_heap_pops", kind: EXACT },
        // The edges LP orients: a change to the score pass's marks moves it.
        GateSpec { metric: "lp_clique_edges", kind: EXACT },
        GateSpec { metric: "partition_ns", kind: WALL },
        GateSpec { metric: "partition_groups", kind: EXACT },
        GateSpec { metric: "text_parse_ns", kind: WALL },
        GateSpec { metric: "snapshot_load_ns", kind: WALL },
        GateSpec { metric: "snapshot_mmap_ns", kind: WALL },
        GateSpec { metric: "snapshot_bytes", kind: EXACT },
        GateSpec { metric: "apply_batch_ns", kind: WALL },
        GateSpec { metric: "apply_applied", kind: EXACT },
        // Live heap of a sequential candidate-index build: any growth of
        // the index layout fails the gate.
        GateSpec { metric: "index_live_bytes", kind: EXACT },
        GateSpec { metric: "serve_p99_us", kind: TAIL },
        GateSpec { metric: "serve_errors", kind: EXACT },
        GateSpec { metric: "serve_cached_read_p99_us", kind: TAIL },
        // HG's `|S|`: the only gate on `FindOne` (Algorithm 1).
        GateSpec { metric: "hg_size", kind: EXACT },
        GateSpec { metric: "improve_step_us", kind: STEP },
        GateSpec { metric: "improve_uplift", kind: EXACT },
        GateSpec { metric: "improve_moves_applied", kind: EXACT },
    ];
    GATES
}

/// One gate failure, with enough detail to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The gated metric.
    pub metric: String,
    /// Human-readable failure description (values and the limit).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.metric, self.detail)
    }
}

/// Compares a fresh line against the baseline under [`gates()`]. An empty
/// result means the gate passes. Metrics absent from the *baseline* are
/// skipped (a newly added metric needs a baseline refresh before it
/// gates); gated metrics absent from the *fresh* line are violations (the
/// suite silently losing a metric must not pass).
pub fn check_line(fresh: &BenchLine, baseline: &BenchLine) -> Vec<Violation> {
    let mut violations = Vec::new();
    for gate in gates() {
        let Some(base) = baseline.metric(gate.metric) else { continue };
        let Some(new) = fresh.metric(gate.metric) else {
            violations.push(Violation {
                metric: gate.metric.to_string(),
                detail: "gated metric missing from the fresh run".into(),
            });
            continue;
        };
        match gate.kind {
            GateKind::WallClock { max_ratio_pct, floor } => {
                let limit = (base.min.saturating_mul(max_ratio_pct) / 100).max(floor);
                if new.min > limit {
                    violations.push(Violation {
                        metric: gate.metric.to_string(),
                        detail: format!(
                            "regressed: fresh min {} > limit {} (baseline min {}, \
                             allowance {max_ratio_pct}%, floor {floor})",
                            new.min, limit, base.min
                        ),
                    });
                }
            }
            GateKind::Counter { tolerance_pct } => {
                let drift = new.median.abs_diff(base.median);
                if drift.saturating_mul(100) > base.median.saturating_mul(tolerance_pct) {
                    violations.push(Violation {
                        metric: gate.metric.to_string(),
                        detail: format!(
                            "changed: fresh {} vs baseline {} (tolerance {tolerance_pct}%)",
                            new.median, base.median
                        ),
                    });
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::line::{MetricValue, SCHEMA_VERSION};

    fn line(metrics: Vec<(&str, MetricValue)>) -> BenchLine {
        BenchLine {
            schema: SCHEMA_VERSION,
            host: "t".into(),
            git_rev: "r".into(),
            date: "d".into(),
            threads: 1,
            dataset: "HST".into(),
            scale: "0.3".into(),
            seed: 42,
            k: 3,
            reps: 2,
            metrics: metrics.into_iter().map(|(n, v)| (n.to_string(), v)).collect(),
        }
    }

    #[test]
    fn identical_lines_pass() {
        let l = line(vec![
            ("listing_ns", MetricValue { median: 50_000_000, min: 40_000_000 }),
            ("kcliques", MetricValue::counter(123)),
            ("serve_p50_us", MetricValue::counter(10)),
        ]);
        assert!(check_line(&l, &l).is_empty());
    }

    #[test]
    fn wallclock_gate_allows_ratio_and_floor() {
        let base = line(vec![("listing_ns", MetricValue { median: 50_000_000, min: 40_000_000 })]);
        // 4.9× the baseline min: inside the 5× allowance.
        let ok = line(vec![("listing_ns", MetricValue { median: 0, min: 196_000_000 })]);
        assert!(check_line(&ok, &base).is_empty());
        // 6×: over the allowance and over the floor → violation.
        let slow = line(vec![("listing_ns", MetricValue { median: 0, min: 240_000_000 })]);
        let v = check_line(&slow, &base);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "listing_ns");
        assert!(v[0].detail.contains("regressed"));
        // A tiny baseline makes the floor carry the limit: 15 ms fresh
        // against a 1 ms baseline still passes (floor 20 ms).
        let tiny_base = line(vec![("listing_ns", MetricValue { median: 0, min: 1_000_000 })]);
        let fresh = line(vec![("listing_ns", MetricValue { median: 0, min: 15_000_000 })]);
        assert!(check_line(&fresh, &tiny_base).is_empty());
    }

    #[test]
    fn counter_gate_is_exact() {
        let base = line(vec![("snapshot_bytes", MetricValue::counter(4096))]);
        let drifted = line(vec![("snapshot_bytes", MetricValue::counter(4097))]);
        let v = check_line(&drifted, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("tolerance 0%"));
        assert!(v[0].to_string().contains("snapshot_bytes"));
    }

    #[test]
    fn ungated_metrics_never_fail_and_missing_gated_does() {
        let base = line(vec![
            ("serve_p50_us", MetricValue::counter(10)),
            ("kcliques", MetricValue::counter(5)),
        ]);
        // serve_p50_us wildly inflated: not in the gate table → ignored.
        let fresh = line(vec![
            ("serve_p50_us", MetricValue::counter(10_000_000)),
            ("kcliques", MetricValue::counter(5)),
        ]);
        assert!(check_line(&fresh, &base).is_empty());
        // kcliques missing from the fresh line → violation.
        let missing = line(vec![("serve_p50_us", MetricValue::counter(10))]);
        let v = check_line(&missing, &base);
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("missing"));
        // Metric only in the fresh line (no baseline yet) → skipped.
        let newer = line(vec![
            ("kcliques", MetricValue::counter(5)),
            ("lp_size", MetricValue::counter(99)),
        ]);
        assert!(check_line(&newer, &base).is_empty());
    }
}
