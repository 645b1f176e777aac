//! Measurement helpers for the experiment harnesses.
//!
//! The benchmark binaries in `hipec-bench` print paper-style tables and
//! series. This module provides the small set of aggregates they need:
//! [`OnlineStats`] (streaming mean/min/max/variance), [`Histogram`]
//! (power-of-two latency buckets) and [`Series`] (labelled (x, y) curves,
//! one per line of a figure).

use std::fmt;

use crate::time::SimDuration;

/// Streaming mean / variance / extrema over `f64` samples (Welford).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// A histogram of durations with power-of-two nanosecond buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    total_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            total_ns: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_ns();
        let bucket = if ns == 0 {
            0
        } else {
            63 - ns.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns += ns as u128;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_ns((self.total_ns / self.count as u128) as u64)
        }
    }

    /// Total of all recorded samples, in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.total_ns
    }

    /// The occupied buckets as `(floor_ns, ceil_ns, count)` triples, in
    /// ascending order. Bucket `i` covers samples in `[2^i, 2^(i+1))`
    /// nanoseconds (bucket 0 additionally holds zero-length samples) —
    /// the serialization surface for offline analyzers and `--json` bench
    /// output.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| {
                let floor = if i == 0 { 0 } else { 1u64 << i };
                let ceil = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                (floor, ceil, c)
            })
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// Approximate quantile `q` in `[0, 1]`, resolved to bucket upper bounds.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return SimDuration::from_ns(if i >= 63 { u64::MAX } else { 1u64 << (i + 1) });
            }
        }
        SimDuration::from_ns(u64::MAX)
    }
}

/// One labelled curve of a figure: a list of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (e.g. "LRU" or "HiPEC MRU").
    pub label: String,
    /// Data points in insertion order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Looks up `y` for an exact `x` (first match).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|(_, y)| *y)
    }
}

/// A fixed-width text table matching the paper's presentation style.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; short rows are padded with empty cells.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {:<width$} |", c, width = widths[i])?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zero() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn histogram_mean_and_quantile() {
        let mut h = Histogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_us(us));
        }
        assert_eq!(h.count(), 100);
        let mean = h.mean().as_ns();
        assert!((mean as i64 - 50_500).abs() < 10, "mean {mean}");
        // The 0.5 quantile bucket must cover the median (50.5 µs).
        assert!(h.quantile(0.5).as_ns() >= 50_500);
        assert!(h.quantile(1.0) >= h.quantile(0.5));
    }

    #[test]
    fn histogram_buckets_serialize_and_merge() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_ns(5));
        h.record(SimDuration::from_ns(5));
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(0, 1, 1), (4, 7, 2)]);
        assert_eq!(h.total_ns(), 10);
        let mut other = Histogram::new();
        other.record(SimDuration::from_ns(6));
        h.merge(&other);
        assert_eq!(h.count(), 4);
        assert_eq!(h.nonzero_buckets().last(), Some((4, 7, 3)));
    }

    #[test]
    fn series_lookup() {
        let mut s = Series::new("LRU");
        s.push(20.0, 1.5);
        s.push(40.0, 3.0);
        assert_eq!(s.y_at(40.0), Some(3.0));
        assert_eq!(s.y_at(99.0), None);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["Evaluation", "Average Time"]);
        t.row(vec!["Null System Call", "19 µs"]);
        t.row(vec!["Null IPC Call", "292 µs"]);
        let out = t.to_string();
        assert!(out.contains("| Evaluation"));
        assert!(out.contains("| Null IPC Call"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Every line has identical width.
        let widths: Vec<_> = out.lines().map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]));
    }
}
