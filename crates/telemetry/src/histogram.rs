//! Fixed-bucket log2 histogram with deterministic percentile estimation.
//!
//! Values are `u64`; bucket `k` covers `[2^(k-1), 2^k)` for `k >= 1` and
//! bucket 0 holds exact zeros, so the bucket layout is a pure function of
//! the value — no configuration, no dynamic resizing, and two histograms
//! are always mergeable by adding their bucket counts. Percentiles are
//! estimated by linear interpolation inside the covering bucket, which is
//! deterministic and shard-order independent (merge is commutative and
//! associative, pinned by the proptest suite).

/// Number of buckets: one for zero plus one per possible bit length.
pub const BUCKETS: usize = 65;

/// A mergeable base-2 histogram of `u64` samples.
///
/// # Examples
///
/// ```
/// use sibyl_telemetry::Log2Histogram;
/// let mut h = Log2Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.p50();
/// assert!(p50 > 256.0 && p50 < 1000.0, "p50 = {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Index of the bucket covering `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive lower bound of bucket `k`.
fn bucket_lo(k: usize) -> u64 {
    match k {
        0 => 0,
        _ => 1u64 << (k - 1),
    }
}

/// Exclusive upper bound of bucket `k` (saturating for the top bucket).
fn bucket_hi(k: usize) -> u64 {
    match k {
        0 => 1,
        64 => u64::MAX,
        _ => 1u64 << k,
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            counts: [0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` into `self`. Commutative and associative up to the
    /// resulting bucket contents, so shards can be merged in any order.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// Exact arithmetic mean of the recorded samples (the sum is kept
    /// alongside the buckets), or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Non-empty buckets as `(bucket_index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (k, c))
    }

    /// The value range bucket `k` covers, as `(inclusive lo, exclusive
    /// hi)` — except the top bucket, whose `hi` saturates to `u64::MAX`
    /// (inclusive). Exposed so exports can carry the boundary values
    /// instead of making consumers re-derive the log2 layout.
    ///
    /// # Panics
    ///
    /// Panics if `k >= BUCKETS`.
    pub fn bucket_bounds(k: usize) -> (u64, u64) {
        assert!(k < BUCKETS, "bucket index {k} out of range");
        (bucket_lo(k), bucket_hi(k))
    }

    /// Exact sum of all recorded samples (kept alongside the buckets as
    /// a `u128`, so it never saturates and shares computed from two
    /// histograms' sums are exact integer ratios).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Estimates the `p`-th percentile (`p` in `[0, 1]`) by linear
    /// interpolation within the covering bucket, clamped to the observed
    /// min/max. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or not finite.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "percentile rank must be in [0, 1]"
        );
        if self.total == 0 {
            return 0.0;
        }
        // Rank of the sample we want, in [0, total - 1].
        let rank = p * (self.total - 1) as f64;
        let mut below = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upper = below + c;
            if rank < upper as f64 {
                // The target sample falls in this bucket; interpolate by
                // its fractional position among the bucket's samples.
                let within = (rank - below as f64) / c as f64;
                let lo = bucket_lo(k) as f64;
                let hi = bucket_hi(k) as f64;
                let est = lo + within * (hi - lo);
                return est.clamp(self.min as f64, self.max as f64);
            }
            below = upper;
        }
        self.max as f64
    }

    /// Median estimate.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> f64 {
        self.percentile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for k in 0..BUCKETS {
            assert!(bucket_lo(k) < bucket_hi(k), "bucket {k} is empty");
            assert_eq!(bucket_of(bucket_lo(k)), k);
        }
    }

    #[test]
    fn empty_histogram_is_inert() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
    }

    #[test]
    fn single_value_pins_all_percentiles() {
        let mut h = Log2Histogram::new();
        h.record(100);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 100.0, "p = {p}");
        }
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(100));
        assert_eq!(h.mean(), 100.0);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut both = Log2Histogram::new();
        for v in [0u64, 1, 5, 1000, u64::MAX] {
            a.record(v);
            both.record(v);
        }
        for v in [7u64, 7, 123_456] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut h = Log2Histogram::new();
        for v in 0..10_000u64 {
            h.record(v * v % 7919);
        }
        let mut last = f64::NEG_INFINITY;
        for i in 0..=100 {
            let p = i as f64 / 100.0;
            let v = h.percentile(p);
            assert!(v >= last, "percentile({p}) = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn uniform_percentiles_land_near_truth() {
        let mut h = Log2Histogram::new();
        for v in 1..=4096u64 {
            h.record(v);
        }
        // log2 buckets guarantee estimates within 2x of the true value.
        let p50 = h.p50();
        assert!((1024.0..=4096.0).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((2048.0..=4096.0).contains(&p99), "p99 = {p99}");
    }
}
