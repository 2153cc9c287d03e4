//! Fixed-bucket HDR-style latency histograms (DESIGN.md §11).
//!
//! A service for many tenants is judged by its tail, not its mean: one
//! p99 outlier per hundred requests is what a user actually feels. This
//! module records nanosecond latencies into a fixed array of lock-free
//! buckets so the hot path pays two relaxed `fetch_add`s and zero
//! allocation, and percentile queries read a [`HistogramSnapshot`] off
//! the side.
//!
//! The bucket scheme is the classic HDR layout with 5 sub-bucket bits:
//! values below 32 ns get exact unit buckets; above that, each power of
//! two ("octave") is split into 32 sub-buckets, so every bucket's width
//! is at most ~3.1 % of its value — plenty for p50/p90/p99 on paths that
//! take microseconds to milliseconds. 1024 buckets cover 0 ns to ~67 s;
//! anything slower saturates into the top bucket (and a 67-second
//! "request" is an outage, not a latency). Percentiles use the
//! nearest-rank rule and report the bucket's lower bound, which makes
//! them deterministic and never optimistic by more than one bucket
//! width.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave (32): bucket width ≤ value / 32.
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range; with 5 sub-bits this tops out at
/// 63 << 30 ns ≈ 67 s.
const OCTAVES: usize = 31;
/// Total buckets (1024 → 8 KiB of counters per histogram).
pub const NUM_BUCKETS: usize = SUB * (OCTAVES + 1);

/// The bucket a nanosecond value lands in.
fn bucket_index(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let octave = msb - SUB_BITS;
    if octave as usize >= OCTAVES {
        return NUM_BUCKETS - 1;
    }
    let sub = (ns >> octave) as usize - SUB;
    (octave as usize + 1) * SUB + sub
}

/// The smallest value that lands in bucket `idx` (what percentiles
/// report).
fn bucket_low(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let octave = idx / SUB - 1;
    let sub = idx % SUB;
    ((SUB + sub) as u64) << octave
}

/// A lock-free fixed-bucket latency histogram. `record` is safe from any
/// number of threads; `snapshot` reads a consistent-enough copy for
/// percentile queries (individual bucket loads are relaxed — exactness
/// per bucket, not cross-bucket atomicity, which is the usual contract
/// for monitoring histograms).
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one latency in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records one latency from a [`Duration`].
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// A copy of the current counts for percentile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("LatencyHistogram")
            .field("count", &snap.count)
            .field("sum_ns", &snap.sum_ns)
            .finish()
    }
}

/// An owned copy of a histogram's counts: queryable, cheap to clone
/// relative to re-recording.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every recorded value, nanoseconds (saturated samples
    /// contribute their true value here, only their bucket is clamped).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The nearest-rank percentile `p` ∈ (0, 100], reported as the
    /// holding bucket's lower bound (0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(idx);
            }
        }
        bucket_low(NUM_BUCKETS - 1)
    }

    /// The fixed percentile summary the service reports.
    pub fn stats(&self) -> LatencyStats {
        LatencyStats {
            count: self.count,
            sum_ns: self.sum_ns,
            p50_ns: self.percentile(50.0),
            p90_ns: self.percentile(90.0),
            p99_ns: self.percentile(99.0),
        }
    }
}

/// A fixed p50/p90/p99 summary of one histogram — the shape carried by
/// [`crate::ServiceStats`] and emitted into `BENCH_*.json` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of every sample, nanoseconds.
    pub sum_ns: u64,
    /// Median latency, nanoseconds (bucket lower bound).
    pub p50_ns: u64,
    /// 90th-percentile latency, nanoseconds.
    pub p90_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_64ns() {
        // Unit buckets for 0..32, and the first octave (32..64) still has
        // shift 0, so every value below 64 maps to its own bucket whose
        // lower bound is the value itself.
        for v in 0..64u64 {
            let idx = bucket_index(v);
            assert_eq!(bucket_low(idx), v, "value {v}");
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        // Lower bound ≤ value < next bucket's lower bound, and relative
        // width stays ≤ 1/32 of the lower bound past the exact range.
        for &v in &[
            64u64,
            65,
            100,
            1_000,
            4_095,
            4_096,
            65_537,
            1_000_000,
            123_456_789,
            u64::from(u32::MAX),
        ] {
            let idx = bucket_index(v);
            let low = bucket_low(idx);
            let next = bucket_low(idx + 1);
            assert!(low <= v && v < next, "value {v}: [{low}, {next})");
            assert!(next - low <= low / 32 + 1, "width at {v}");
        }
    }

    #[test]
    fn powers_of_two_start_their_octave() {
        for msb in SUB_BITS..36 {
            let v = 1u64 << msb;
            assert_eq!(bucket_low(bucket_index(v)), v, "2^{msb}");
        }
    }

    #[test]
    fn top_bucket_saturates() {
        let h = LatencyHistogram::new();
        h.record(1u64 << 40);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 2);
        // Both land in the last bucket; the percentile reports its lower
        // bound rather than overflowing.
        assert_eq!(snap.percentile(50.0), bucket_low(NUM_BUCKETS - 1));
        assert_eq!(snap.percentile(100.0), bucket_low(NUM_BUCKETS - 1));
        // The sum keeps the true values.
        assert_eq!(snap.sum_ns(), (1u64 << 40).wrapping_add(u64::MAX));
    }

    #[test]
    fn exact_percentiles_on_a_known_distribution() {
        // 1..=50 ns once each: every value sits in its own exact bucket,
        // so nearest-rank percentiles are exact.
        let h = LatencyHistogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 50);
        assert_eq!(snap.percentile(50.0), 25);
        assert_eq!(snap.percentile(90.0), 45);
        assert_eq!(snap.percentile(98.0), 49);
        assert_eq!(snap.percentile(100.0), 50);
        let stats = snap.stats();
        assert_eq!((stats.p50_ns, stats.p90_ns, stats.p99_ns), (25, 45, 50));
    }

    #[test]
    fn p99_isolates_the_tail() {
        // 99 fast ops and 1 slow outlier: the mean moves a little, the
        // p99 lands on the outlier's bucket — the whole point of gating
        // on percentiles.
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.percentile(50.0), bucket_low(bucket_index(1_000)));
        assert_eq!(snap.percentile(99.0), bucket_low(bucket_index(1_000)));
        assert_eq!(snap.percentile(99.5), bucket_low(bucket_index(1_000_000)));
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let snap = LatencyHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.percentile(99.0), 0);
        assert_eq!(snap.stats(), LatencyStats::default());
        assert_eq!(snap, HistogramSnapshot::default());
    }

    #[test]
    fn record_duration_round_trips() {
        let h = LatencyHistogram::new();
        h.record_duration(Duration::from_micros(5));
        assert_eq!(h.snapshot().sum_ns(), 5_000);
    }
}
