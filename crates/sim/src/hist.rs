//! Allocation-free log-linear latency histograms over virtual-time spans.
//!
//! [`LatencyHistogram`] is the fixed-footprint (HDR-style) engine behind
//! the per-container / per-device / per-opcode latency attribution the
//! observability layer exports. The coarse power-of-two [`crate::stats::
//! Histogram`] stays as the offline-analysis aggregate; this type trades a
//! few kilobytes for bounded (~6 %) relative error at every percentile,
//! plus the merge/diff algebra `KernelStats` snapshots need.
//!
//! **Bucket layout.** Values are virtual nanoseconds. Each power-of-two
//! octave is split into `2^SUB_BITS = 16` equal sub-buckets, so bucket
//! width is at most 1/16 of the value — the relative quantile error is
//! bounded by 2^-SUB_BITS. Values below 16 ns land in 16 exact unit
//! buckets (group 0); a value with most-significant bit `m >= 4` lands in
//! group `m - 3` at offset `(v >> (m - 4)) - 16`. With [`GROUPS`] = 35
//! groups the top representable octave is `[2^37, 2^38)`; values at or
//! above [`SATURATION_NS`] (2^38 ns ≈ 4.6 virtual minutes, far beyond any
//! sane fault-service span) clamp into the last bucket and bump the
//! `saturated` counter so truncation is never silent.
//!
//! **Determinism.** Recording, merge, diff and quantiles are pure integer
//! functions of the recorded multiset (quantile ranks use one f64
//! multiply, identical on every IEEE-754 platform), so two runs that
//! record the same virtual-time spans produce bit-identical histograms —
//! the property `scripts/verify.sh` pins across reruns by `cmp`ing the
//! `stats_export` of two identically seeded soaks.

use core::fmt;

use crate::time::SimDuration;

/// log2 of the number of sub-buckets per power-of-two octave.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (and width of the exact group 0).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Number of bucket groups: group 0 is exact 0..16 ns, groups 1..=34
/// cover octaves `[2^4, 2^38)`.
pub const GROUPS: usize = 35;
/// Total bucket count (4.5 KB of `u64` counters per histogram).
pub const BUCKETS: usize = SUB_BUCKETS * GROUPS;
/// Values at or above this clamp into the last bucket and count as
/// saturated.
pub const SATURATION_NS: u64 = 1 << 38;

/// A fixed-footprint log-linear histogram of virtual-time durations.
///
/// `Copy` + `Eq` so it can ride inside [`LatencyRow`]-style snapshot rows
/// and be compared bit-for-bit by differential tests.
///
/// [`LatencyRow`]: https://docs.rs (see `hipec-core::obs`)
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    saturated: u64,
    max_ns: u64,
    total_ns: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl LatencyHistogram {
    /// The empty histogram (also usable in `const` array initializers).
    pub const EMPTY: LatencyHistogram = LatencyHistogram {
        buckets: [0; BUCKETS],
        count: 0,
        saturated: 0,
        max_ns: 0,
        total_ns: 0,
    };

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::EMPTY
    }

    /// The bucket index a nanosecond value lands in.
    fn index_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let ns = ns.min(SATURATION_NS - 1);
        let msb = 63 - ns.leading_zeros();
        let group = (msb - (SUB_BITS - 1)) as usize;
        let offset = ((ns >> (msb - SUB_BITS)) as usize) - SUB_BUCKETS;
        group * SUB_BUCKETS + offset
    }

    /// The inclusive `[lower, upper]` nanosecond range of bucket `idx`.
    fn bounds_of(idx: usize) -> (u64, u64) {
        debug_assert!(idx < BUCKETS);
        let (group, offset) = (idx / SUB_BUCKETS, (idx % SUB_BUCKETS) as u64);
        if group == 0 {
            (offset, offset)
        } else {
            let lower = (SUB_BUCKETS as u64 + offset) << (group - 1);
            let upper = ((SUB_BUCKETS as u64 + offset + 1) << (group - 1)) - 1;
            (lower, upper)
        }
    }

    /// Records one duration sample. Values at or above [`SATURATION_NS`]
    /// clamp into the last bucket and bump the saturation counter; the
    /// exact maximum is tracked separately either way.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_ns();
        if ns >= SATURATION_NS {
            self.saturated += 1;
        }
        self.buckets[Self::index_of(ns)] += 1;
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
        self.total_ns += ns as u128;
    }

    /// Number of recorded samples (saturated ones included).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of samples that clamped into the last bucket.
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// The exact largest recorded sample (zero when empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_ns(self.max_ns)
    }

    /// Sum of all recorded samples, in nanoseconds.
    pub fn total_ns(&self) -> u128 {
        self.total_ns
    }

    /// Quantile `q` in `[0, 1]`, resolved to the containing bucket's
    /// upper bound and clamped to the exact recorded maximum (so a
    /// single-sample histogram reports that sample at every quantile).
    /// Returns zero when empty.
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, upper) = Self::bounds_of(idx);
                return SimDuration::from_ns(upper.min(self.max_ns));
            }
        }
        SimDuration::from_ns(self.max_ns)
    }

    /// Merges another histogram's samples into this one (bucket-wise add).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, &o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.saturated += other.saturated;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.total_ns += other.total_ns;
    }

    /// The interval histogram between an `earlier` snapshot of the same
    /// histogram and this one: bucket-wise saturating subtraction. The
    /// exact per-interval maximum is not recoverable from two cumulative
    /// snapshots, so the later snapshot's maximum is kept as an upper
    /// bound (and quantiles stay clamped by it).
    pub fn diff(&self, earlier: &LatencyHistogram) -> LatencyHistogram {
        let mut out = *self;
        for (b, &e) in out.buckets.iter_mut().zip(earlier.buckets.iter()) {
            *b = b.saturating_sub(e);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.saturated = self.saturated.saturating_sub(earlier.saturated);
        out.total_ns = self.total_ns.saturating_sub(earlier.total_ns);
        out
    }

    /// Number of occupied buckets: the length of
    /// [`LatencyHistogram::nonzero_buckets`], without walking it.
    pub fn occupied_buckets(&self) -> usize {
        self.buckets[..self.scan_end()]
            .iter()
            .filter(|&&c| c != 0)
            .count()
    }

    /// One past the last bucket that can be occupied: no bucket above the
    /// maximum's octave holds a sample.
    fn scan_end(&self) -> usize {
        (Self::index_of(self.max_ns) / SUB_BUCKETS + 1) * SUB_BUCKETS
    }

    /// The occupied buckets as `(lower_ns, upper_ns, count)` triples in
    /// ascending order — the serialization surface for `stats_export`
    /// and bench `--json`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        // Whole empty octaves are skipped with one test each.
        self.buckets[..self.scan_end()]
            .chunks_exact(SUB_BUCKETS)
            .enumerate()
            .filter(|(_, group)| group.iter().fold(0, |any, &c| any | c) != 0)
            .flat_map(|(g, group)| {
                group
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(move |(offset, &c)| {
                        let (lower, upper) = Self::bounds_of(g * SUB_BUCKETS + offset);
                        (lower, upper, c)
                    })
            })
    }
}

impl fmt::Debug for LatencyHistogram {
    /// Prints only the occupied buckets, so proptest failure output and
    /// snapshot diffs stay readable despite the 560-slot backing array.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("LatencyHistogram");
        d.field("count", &self.count)
            .field("saturated", &self.saturated)
            .field("max_ns", &self.max_ns)
            .field("total_ns", &self.total_ns);
        let occupied: Vec<String> = self
            .nonzero_buckets()
            .map(|(lo, hi, c)| format!("[{lo},{hi}]x{c}"))
            .collect();
        d.field("buckets", &occupied).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for ns in 0..32u64 {
            h.record(SimDuration::from_ns(ns));
        }
        // Groups 0 and 1 have unit-width buckets: 32 distinct buckets.
        assert_eq!(h.nonzero_buckets().count(), 32);
        for (lo, hi, c) in h.nonzero_buckets() {
            assert_eq!(lo, hi);
            assert_eq!(c, 1);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.saturated(), 0);
    }

    #[test]
    fn bucket_bounds_tile_the_range() {
        // Every bucket's lower bound is the previous bucket's upper + 1,
        // and the indexing function maps both bounds back to the bucket.
        let mut expect_lower = 0u64;
        for idx in 0..BUCKETS {
            let (lo, hi) = LatencyHistogram::bounds_of(idx);
            assert_eq!(lo, expect_lower, "bucket {idx} lower bound");
            assert!(hi >= lo);
            assert_eq!(LatencyHistogram::index_of(lo), idx);
            assert_eq!(LatencyHistogram::index_of(hi), idx);
            expect_lower = hi + 1;
        }
        assert_eq!(expect_lower, SATURATION_NS, "buckets tile [0, 2^38)");
    }

    #[test]
    fn relative_error_is_bounded() {
        // Upper bound of the containing bucket is within 1/16 of the value.
        for ns in [17u64, 100, 999, 12_345, 1 << 20, (1 << 37) + 12_345] {
            let (lo, hi) = LatencyHistogram::bounds_of(LatencyHistogram::index_of(ns));
            assert!(lo <= ns && ns <= hi);
            assert!(
                hi - lo <= ns / SUB_BUCKETS as u64,
                "bucket too wide at {ns}"
            );
        }
    }

    #[test]
    fn saturation_clamps_and_counts() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_ns(SATURATION_NS));
        h.record(SimDuration::from_ns(u64::MAX));
        h.record(SimDuration::from_ns(SATURATION_NS - 1));
        assert_eq!(h.count(), 3);
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.max().as_ns(), u64::MAX);
        // All three land in the last bucket.
        let (lo, hi, c) = h.nonzero_buckets().next().unwrap();
        assert_eq!((lo, hi, c), ((31u64) << 33, SATURATION_NS - 1, 3));
    }

    #[test]
    fn quantiles_walk_buckets_and_clamp_to_max() {
        let mut h = LatencyHistogram::new();
        for us in 1..=100u64 {
            h.record(SimDuration::from_us(us));
        }
        let p50 = h.quantile(0.5).as_ns();
        // Median is 50.5 µs; log-linear error bound is 1/16.
        assert!((50_000..=53_200).contains(&p50), "p50 {p50}");
        assert!(h.quantile(0.99) >= h.quantile(0.9));
        assert_eq!(h.quantile(1.0).as_ns(), 100_000, "p100 clamps to max");
        let mut single = LatencyHistogram::new();
        single.record(SimDuration::from_ns(12_345));
        assert_eq!(single.quantile(0.5).as_ns(), 12_345);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), SimDuration::ZERO);
        assert_eq!(h.quantile(1.0), SimDuration::ZERO);
        assert_eq!(h.max(), SimDuration::ZERO);
        assert_eq!(h.nonzero_buckets().count(), 0);
        assert_eq!(h, LatencyHistogram::EMPTY);
    }

    #[test]
    fn merge_then_diff_round_trips() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for ns in [3u64, 99, 4_000, 1 << 30] {
            a.record(SimDuration::from_ns(ns));
        }
        for ns in [7u64, 99, SATURATION_NS + 5] {
            b.record(SimDuration::from_ns(ns));
        }
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.saturated(), 1);
        let back = merged.diff(&a);
        assert_eq!(back.count(), b.count());
        assert_eq!(back.saturated(), b.saturated());
        assert_eq!(back.total_ns(), b.total_ns());
        let occupied: Vec<_> = back.nonzero_buckets().collect();
        let expect: Vec<_> = b.nonzero_buckets().collect();
        assert_eq!(occupied, expect);
    }

    #[test]
    fn debug_prints_occupied_buckets_only() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_ns(5));
        let s = format!("{h:?}");
        assert!(s.contains("[5,5]x1"), "{s}");
        assert!(s.len() < 200, "debug output stays compact: {s}");
    }
}
