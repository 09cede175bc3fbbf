//! The one log₂ histogram layout of the workspace: [`LogHistogram`]
//! (plain counts, for single-threaded owners such as the
//! decision-audit metrics, the pipeline tracing registry and
//! `pcap profile APP`) and [`AtomicHistogram`] (relaxed-atomic
//! buckets, for the daemon's `/metrics` and the load client). Both
//! render to Prometheus through [`write_histogram`](crate::prom::write_histogram).

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size histogram over `log2` buckets of microsecond values.
///
/// Bucket 0 holds exact zeros; bucket `k` (1 ≤ k ≤ 31) holds values in
/// `[2^(k-1), 2^k)` microseconds, with everything ≥ 2³⁰ µs (~18 min)
/// clamped into the last bucket. Fixed arrays keep the audit hot path
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; 32],
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram { counts: [0; 32] }
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(31)
        }
    }

    /// Microsecond bounds of bucket `index`: inclusive-exclusive for
    /// buckets 0–30, inclusive-*inclusive* for the clamp bucket 31,
    /// whose upper bound is `u64::MAX` (a `1 << 31`-style exclusive
    /// bound would be wrong: every value ≥ 2³⁰ µs lands there,
    /// including `u64::MAX` itself).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 1),
            31 => (1 << 30, u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// A histogram with the given per-bucket counts (see
    /// [`counts`](Self::counts) for the bucket layout).
    pub fn from_counts(counts: [u64; 32]) -> LogHistogram {
        LogHistogram { counts }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64; 32] {
        &self.counts
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// A [`LogHistogram`] with relaxed-atomic buckets plus a value sum,
/// recordable from any thread without locking.
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 32],
    sum: AtomicU64,
}

impl AtomicHistogram {
    /// Records one value. The sum wraps on overflow, as
    /// `AtomicU64::fetch_add` does.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[LogHistogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A plain-histogram snapshot plus the value sum.
    pub fn snapshot(&self) -> (LogHistogram, u64) {
        let counts = std::array::from_fn(|k| self.buckets[k].load(Ordering::Relaxed));
        (
            LogHistogram::from_counts(counts),
            self.sum.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 31);
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[2], 2);
        assert_eq!(h.counts()[31], 1);
        for k in 0..32 {
            let (lo, hi) = LogHistogram::bucket_bounds(k);
            assert!(lo < hi, "bucket {k}");
            assert_eq!(LogHistogram::bucket_of(lo), k);
        }
    }

    /// Pins the full `bucket_of`/`bucket_bounds` round-trip for all 32
    /// indices: both edges of every bucket map back to it, the clamp
    /// bucket's upper bound is `u64::MAX` (inclusive — `bucket_of`
    /// sends `u64::MAX` itself to 31), and consecutive buckets tile the
    /// u64 range with no gap.
    #[test]
    fn log_histogram_bounds_round_trip_for_all_buckets() {
        for k in 0..32 {
            let (lo, hi) = LogHistogram::bucket_bounds(k);
            assert_eq!(LogHistogram::bucket_of(lo), k, "lower edge of {k}");
            if k < 31 {
                assert_eq!(LogHistogram::bucket_of(hi - 1), k, "upper edge of {k}");
                assert_eq!(LogHistogram::bucket_of(hi), k + 1, "first value past {k}");
                assert_eq!(
                    LogHistogram::bucket_bounds(k + 1).0,
                    hi,
                    "buckets {k},{} must tile",
                    k + 1
                );
            } else {
                assert_eq!(hi, u64::MAX, "clamp bucket tops out at u64::MAX");
                assert_eq!(LogHistogram::bucket_of(hi), 31, "inclusive top");
            }
        }
    }

    #[test]
    fn atomic_histogram_snapshot_matches_buckets() {
        let h = AtomicHistogram::default();
        for v in [0, 1, 5, 5, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let (hist, sum) = h.snapshot();
        assert_eq!(hist.total(), 6);
        // The sum wraps on overflow, as `AtomicU64::fetch_add` does.
        assert_eq!(sum, 1_000_011u64.wrapping_add(u64::MAX));
        assert_eq!(hist.counts()[0], 1);
        assert_eq!(hist.counts()[3], 2, "two fives in [4,8)");
        assert_eq!(hist.counts()[31], 1, "u64::MAX lands in the clamp bucket");
    }
}
