//! Window statistics: per-window percentiles, and the median and
//! quartiles taken across windows or across runs.

use crate::calib;
use axml_obs::Histogram;

/// Samples that must lie beyond a reported percentile. With fewer, the
/// "percentile" is really one of the few largest samples.
pub const MIN_TAIL: usize = 10;

/// Ops every measured window holds: enough for `op_p95_ms` to keep
/// [`MIN_TAIL`] samples beyond it.
pub const MIN_WINDOW_OPS: usize = 200;

/// The nearest-rank `q`-quantile of one window's samples, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond its rank.
pub fn window_percentile(samples: &Histogram, q: f64) -> Option<f64> {
    let n = samples.count();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_TAIL).then(|| samples.quantile(q))
}

/// The median of `values` (the mean of the middle two for an even count).
///
/// Panics on an empty slice: every metric has at least one window.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The first and third quartiles of `values`, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones a Python check computes.
/// `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // negative for tiny samples: Python extrapolates there too
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// One unit of a window: the ops run between two kernel samples, a few
/// hundred ms of a single client's ops or one scheduler round.
#[derive(Clone, Debug)]
struct Unit {
    /// Latency of each of the unit's ops, raw ms.
    latencies_ms: Vec<f64>,
    /// Time the unit kept the system busy, raw ms.
    busy_ms: f64,
}

/// One measured window: units of work, each bracketed by kernel times
/// (see [`crate::calib`]). A unit's times are scaled by the mean of the
/// kernel times just before and just after it.
#[derive(Clone, Debug)]
pub struct Window {
    units: Vec<Unit>,
    /// `cal_ms[i]` was taken before unit `i`, `cal_ms[i + 1]` after it.
    cal_ms: Vec<f64>,
}

impl Window {
    /// An empty window; `cal_ms` is the kernel time just before its first
    /// unit.
    pub fn new(cal_ms: f64) -> Window {
        Window {
            units: Vec::new(),
            cal_ms: vec![cal_ms],
        }
    }

    /// Adds a unit whose ops took `latencies_ms` and which kept the
    /// system busy `busy_ms`; `cal_after_ms` is the kernel time just after
    /// it.
    pub fn push(&mut self, latencies_ms: Vec<f64>, busy_ms: f64, cal_after_ms: f64) {
        self.units.push(Unit {
            latencies_ms,
            busy_ms,
        });
        self.cal_ms.push(cal_after_ms);
    }

    /// Ops in the window.
    pub fn ops(&self) -> usize {
        self.units.iter().map(|u| u.latencies_ms.len()).sum()
    }

    /// Each unit with the kernel time it is scaled by.
    fn scaled_units(&self) -> impl Iterator<Item = (&Unit, f64)> {
        self.units
            .iter()
            .zip(self.cal_ms.windows(2))
            .map(|(u, c)| (u, (c[0] + c[1]) / 2.0))
    }

    /// Op latencies at the reference speed.
    pub fn latencies(&self) -> Histogram {
        let mut h = Histogram::default();
        for (u, cal) in self.scaled_units() {
            for &l in &u.latencies_ms {
                h.record(calib::scale(l, cal));
            }
        }
        h
    }

    /// Op latencies as measured, unscaled.
    pub fn raw_latencies(&self) -> Histogram {
        let mut h = Histogram::default();
        for l in self.units.iter().flat_map(|u| &u.latencies_ms) {
            h.record(*l);
        }
        h
    }

    /// Ops per second of busy time at the reference speed.
    pub fn ops_per_s(&self) -> f64 {
        let busy_ms: f64 = self
            .scaled_units()
            .map(|(u, cal)| calib::scale(u.busy_ms, cal))
            .sum();
        self.ops() as f64 / busy_ms * 1e3
    }

    /// The kernel times taken around the window's units.
    pub fn cal_ms(&self) -> &[f64] {
        &self.cal_ms
    }
}

/// A metric's value across windows: the median is reported, the
/// extremes show how far single windows strayed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median across windows.
    pub median: f64,
    /// Smallest window value.
    pub min: f64,
    /// Largest window value.
    pub max: f64,
}

impl Spread {
    /// Summarizes per-window values.
    pub fn of(values: &[f64]) -> Spread {
        Spread {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::REF_MS;

    fn hist(values: impl IntoIterator<Item = f64>) -> Histogram {
        let mut h = Histogram::default();
        for v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // 1..=200: p50 is the 100th sample, p95 the 190th
        let h = hist((1..=200).map(f64::from));
        assert_eq!(window_percentile(&h, 0.50), Some(100.0));
        assert_eq!(window_percentile(&h, 0.95), Some(190.0));
        // a nearest-rank percentile is always one of the samples
        let h = hist([3.0, 1.0, 2.0].into_iter().cycle().take(60));
        assert_eq!(window_percentile(&h, 0.5), Some(2.0));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let full = hist((0..MIN_WINDOW_OPS).map(|i| i as f64));
        assert!(window_percentile(&full, 0.95).is_some());
        let short = hist((0..MIN_WINDOW_OPS - 1).map(|i| i as f64));
        assert_eq!(window_percentile(&short, 0.95), None);
        assert_eq!(window_percentile(&Histogram::default(), 0.5), None);
        // the median of a short window is still reportable
        assert!(window_percentile(&short, 0.5).is_some());
    }

    #[test]
    fn median_across_windows() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        let s = Spread::of(&[5.0, 9.0, 1.0]);
        assert_eq!((s.median, s.min, s.max), (5.0, 1.0, 9.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn window_throughput() {
        // a round of 4 ops on 2 workers, busy 2 ms, at the reference speed
        let mut w = Window::new(REF_MS);
        w.push(vec![1.0; 4], 2.0, REF_MS);
        assert_eq!(w.ops(), 4);
        assert_eq!(w.ops_per_s(), 2000.0);
    }

    #[test]
    fn units_scale_by_the_kernel_times_around_them() {
        // the machine slows to half speed during the second op: the
        // kernel takes twice as long after it, 1.5 times on average
        let mut w = Window::new(REF_MS);
        w.push(vec![10.0], 10.0, REF_MS);
        w.push(vec![15.0], 15.0, 2.0 * REF_MS);
        let scaled = w.latencies();
        assert_eq!(
            (scaled.count(), scaled.max(), scaled.sum()),
            (2, 10.0, 20.0)
        );
        assert_eq!(w.raw_latencies().max(), 15.0);
        assert_eq!(w.ops_per_s(), 100.0);
        assert_eq!(w.cal_ms(), &[REF_MS, REF_MS, 2.0 * REF_MS]);
    }
}
