//! # dkc-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's Section VI on the
//! synthetic dataset stand-ins (or real edge lists, if supplied):
//!
//! | Experiment | Module | `repro` subcommand |
//! |---|---|---|
//! | Table I (dataset statistics, #k-cliques) | [`experiments::table1`] | `table1` |
//! | Fig. 6 (running time vs k) | [`experiments::static_sweep`] | `fig6` |
//! | Table II (size of S) | [`experiments::static_sweep`] | `table2` |
//! | Table III (space consumption) | [`experiments::static_sweep`] | `table3` |
//! | Table IV (comparison with exact) | [`experiments::table4`] | `table4` |
//! | Tables V/VI (Watts–Strogatz sweep) | [`experiments::synthetic`] | `table5`, `table6` |
//! | Table VII (index time/size) | [`experiments::table7`] | `table7` |
//! | Fig. 7 (update time) | [`experiments::dynamic_sweep`] | `fig7` |
//! | Table VIII (quality after updates) | [`experiments::dynamic_sweep`] | `table8` |
//! | Ordering / pruning ablations | [`experiments::ablation`] | `ablation` |
//! | Improvement uplift vs step budget (beyond the paper) | [`experiments::improve`] | `improve` |
//!
//! Numbers are *not* expected to match the paper's absolute values — the
//! substrate is a laptop and the datasets synthetic stand-ins — but the
//! comparative shape (who wins, how costs grow with k, where OOM/OOT hit)
//! reproduces. EXPERIMENTS.md records a measured run against the paper.

#![deny(unsafe_code)]

pub mod cli;
pub mod config;
pub mod experiments;
pub mod mem;
pub mod table;
pub mod trajectory;

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a count the way Table I does (`K/M/B/T` suffixes).
pub fn human_count(x: u64) -> String {
    const UNITS: [(u64, &str); 4] =
        [(1_000_000_000_000, "T"), (1_000_000_000, "B"), (1_000_000, "M"), (1_000, "K")];
    for (div, suffix) in UNITS {
        if x >= div {
            let v = x as f64 / div as f64;
            return if v >= 100.0 {
                format!("{v:.0}{suffix}")
            } else if v >= 10.0 {
                format!("{v:.1}{suffix}")
            } else {
                format!("{v:.2}{suffix}")
            };
        }
    }
    x.to_string()
}

/// Formats a duration in the unit of the target figure (ms for Fig. 6,
/// ns for Fig. 7).
pub fn human_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.1}")
    } else {
        format!("{ms:.3}")
    }
}

/// Formats bytes as MB with Table III's precision.
pub fn human_mb(bytes: usize) -> String {
    let mb = bytes as f64 / (1024.0 * 1024.0);
    if mb >= 100.0 {
        format!("{mb:.0}")
    } else if mb >= 1.0 {
        format!("{mb:.1}")
    } else {
        format!("{mb:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_formatting_matches_table1_style() {
        assert_eq!(human_count(613), "613");
        assert_eq!(human_count(12_500), "12.5K");
        assert_eq!(human_count(1_610_000), "1.61M");
        assert_eq!(human_count(7_830_000_000), "7.83B");
        assert_eq!(human_count(33_600_000_000_000), "33.6T");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(human_ms(Duration::from_millis(250)), "250");
        assert_eq!(human_ms(Duration::from_micros(1500)), "1.5");
        assert_eq!(human_ms(Duration::from_micros(5)), "0.005");
    }

    #[test]
    fn mb_formatting() {
        assert_eq!(human_mb(1024 * 1024), "1.0");
        assert_eq!(human_mb(500 * 1024), "0.49");
        assert_eq!(human_mb(200 * 1024 * 1024), "200");
    }

    #[test]
    fn timed_measures_something() {
        let (v, d) = timed(|| (0..10_000).sum::<u64>());
        assert_eq!(v, 49_995_000);
        assert!(d.as_nanos() > 0);
    }
}
