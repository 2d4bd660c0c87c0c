//! The deterministic instrument: a fixed-bucket log2 [`Histogram`].
//!
//! Everything here is plain `u64` arithmetic over fixed-size state, so
//! recording is allocation-free, branch-predictable, and — when driven
//! from the deterministic sections of an algorithm — bit-identical
//! whatever the shard count or transport.

#![expect(
    clippy::cast_possible_truncation,
    reason = "nearest-rank quantile: ceil(q * count) with q in [0, 1] is an integer-valued f64 no larger than the sample count"
)]
#![expect(
    clippy::cast_sign_loss,
    reason = "nearest-rank quantile: ceil(q * count) with q in [0, 1] is non-negative"
)]

/// Number of buckets in a [`Histogram`]: one per possible bit length of
/// a `u64` observation, plus a dedicated zero bucket.
const NUM_BUCKETS: usize = 64;

/// A fixed-bucket log2 histogram of `u64` observations.
///
/// Bucket `0` holds the observation `0`; bucket `i ≥ 1` holds the
/// observations of bit length `i`, i.e. `2^(i-1) ≤ v < 2^i` — except the
/// last bucket, which also absorbs everything of bit length 64.
///
/// # Example
///
/// ```
/// use gdsearch_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [0, 1, 2, 3, 900] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 906);
/// assert_eq!(h.max(), 900);
/// assert!(h.quantile(0.5) >= 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index observation `v` falls into: its bit length,
    /// clamped to the last bucket (the zero bucket for `v == 0`).
    fn bucket_index(v: u64) -> usize {
        let bits = u64::BITS - v.leading_zeros();
        usize::try_from(bits)
            .unwrap_or(NUM_BUCKETS - 1)
            .min(NUM_BUCKETS - 1)
    }

    /// The inclusive upper bound of bucket `i` (saturating to
    /// `u64::MAX` for the last bucket). Out-of-range indices also
    /// report `u64::MAX`.
    fn bucket_upper_bound(i: usize) -> u64 {
        if i >= NUM_BUCKETS - 1 {
            return u64::MAX;
        }
        let shift = u32::try_from(i).unwrap_or(0);
        (1u64 << shift) - 1
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical observations at once.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.max = self.max.max(v);
        if let Some(b) = self.buckets.get_mut(Self::bucket_index(v)) {
            *b = b.saturating_add(n);
        }
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`q` clamped to `[0, 1]`):
    /// the inclusive upper bound of the first bucket at which the
    /// cumulative count reaches `ceil(q · count)`, tightened by the
    /// recorded maximum. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(*b);
            if seen >= target {
                return Self::bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_bit_lengths() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Every bucket's bounds bracket exactly its members.
        for i in 1..NUM_BUCKETS - 1 {
            let hi = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(hi), i);
            assert_eq!(Histogram::bucket_index(hi + 1), i + 1);
        }
        assert_eq!(Histogram::bucket_upper_bound(0), 0);
        assert_eq!(Histogram::bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 upper bound must cover at least half the mass but stay a
        // power-of-two bound.
        let p50 = h.quantile(0.5);
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1023).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 1000, "tightened by the recorded max");
        assert_eq!(Histogram::new().quantile(0.99), 0);
    }

    #[test]
    fn extreme_quantiles_on_sparse_histograms_hit_bucket_boundaries() {
        // One sample: every quantile collapses to it.
        let mut h = Histogram::new();
        h.record(100);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 100, "single sample at q={q}");
        }
        // Two widely separated samples: p50 stays in the low bucket,
        // every tail quantile jumps to the (max-tightened) high bucket.
        let mut h = Histogram::new();
        h.record(1);
        h.record(1 << 40);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), 1 << 40);
        assert_eq!(h.quantile(0.999), 1 << 40);
        // 999 low + 1 high: p999 must still reach the outlier (target
        // rank ceil(0.999 * 1000) = 999 lands in the low bucket, so the
        // p999 bound is the low bucket's upper bound; p1000 == max).
        let mut h = Histogram::new();
        h.record_n(7, 999);
        h.record(1 << 20);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.999), 7, "rank 999 of 1000 is still a 7");
        assert_eq!(h.quantile(1.0), 1 << 20);
        // 1000 low + 2 high: rank ceil(0.999 * 1002) = 1001 crosses into
        // the outlier bucket, tightened by the max.
        let mut h = Histogram::new();
        h.record_n(7, 1000);
        h.record_n(1_000_000, 2);
        assert_eq!(h.quantile(0.999), 1_000_000);
        assert_eq!(h.quantile(0.99), 7);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for _ in 0..7 {
            a.record(42);
        }
        b.record_n(42, 7);
        assert_eq!(a, b);
        b.record_n(9, 0);
        assert_eq!(a, b, "zero-count records are no-ops");
    }
}
