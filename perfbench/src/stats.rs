//! Order statistics and process probes shared by every phase.

/// Nearest-rank summary of one sample set: the median and a tail.
///
/// The tail is the highest percentile that still has ten samples beyond
/// it: p99 at 1000 samples, p99.8 at 5000, p90 at 100. `tail_q` says
/// which percentile was taken.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pct {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// The tail value (see the type docs).
    pub tail: f64,
    /// The percentile the tail was taken at.
    pub tail_q: f64,
    /// Samples strictly beyond the tail rank.
    pub beyond: usize,
}

/// Samples per window of [`Pct::windowed`].
pub const WINDOW: usize = 150;

impl Pct {
    /// Summarises `samples` (any order). Empty input yields all zeros.
    pub fn of(samples: &[f64]) -> Pct {
        if samples.is_empty() {
            return Pct::default();
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let mid = n.div_ceil(2);
        let tail = n.saturating_sub(10).max(mid);
        Pct {
            n,
            p50: v[mid - 1],
            p75: v[(n * 3).div_ceil(4) - 1],
            tail: v[tail - 1],
            tail_q: tail as f64 / n as f64,
            beyond: n - tail,
        }
    }

    /// [`Pct::of`] for a series in time order, made robust to host noise:
    /// the series is cut into consecutive windows of at least
    /// [`WINDOW`] samples, each summarised on its own, and the median,
    /// tail and tail percentile are the medians of the windows' values.
    /// A window's tail is then p93.3, and a burst of host noise inside one
    /// window does not move the medians.
    pub fn windowed(in_time_order: &[f64]) -> Pct {
        let windows = (in_time_order.len() / WINDOW).max(1);
        if windows == 1 {
            return Pct::of(in_time_order);
        }
        let per = in_time_order.len().div_ceil(windows);
        let parts: Vec<Pct> = in_time_order.chunks(per).map(Pct::of).collect();
        let mid = |f: fn(&Pct) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        Pct {
            n: in_time_order.len(),
            p50: mid(|p| p.p50),
            p75: mid(|p| p.p75),
            tail: mid(|p| p.tail),
            tail_q: mid(|p| p.tail_q),
            beyond: parts.iter().map(|p| p.beyond).min().unwrap_or(0),
        }
    }
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds as milliseconds.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = Pct::of(&v);
        assert_eq!((p.n, p.p50, p.tail, p.beyond), (1000, 500.0, 990.0, 10));
        let p = Pct::of(&v[..100]);
        assert_eq!((p.tail, p.tail_q, p.beyond), (90.0, 0.9, 10));
        // At 40 samples the tail with ten beyond is the 75th percentile.
        let p = Pct::of(&v[..40]);
        assert_eq!((p.p75, p.tail, p.beyond), (30.0, 30.0, 10));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(Pct::of(&[]).n, 0);
        // Four windows of 150: a burst confined to one does not move them.
        let mut burst: Vec<f64> = (0..600).map(|i| f64::from(i % 150)).collect();
        burst[..150].iter_mut().for_each(|x| *x += 1000.0);
        let w = Pct::windowed(&burst);
        assert_eq!((w.n, w.p50, w.tail, w.beyond), (600, 74.0, 139.0, 10));
    }
}
