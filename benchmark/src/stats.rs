//! Exact-sample statistics: raw `u64` nanosecond samples, sorted, read by
//! nearest rank — no buckets — plus the Zipf class sampler.

/// The median of `sorted` by nearest rank (the lower middle for even counts),
/// or 0 for no samples.
pub fn median<T: Copy + Default>(sorted: &[T]) -> T {
    nearest_rank(sorted, 0.5)
}

/// The `q`-quantile of `sorted` by nearest rank: the sample at 1-based rank
/// `ceil(q * n)`, or 0 for no samples.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    let rank = rank_of(sorted.len(), q);
    rank.checked_sub(1)
        .and_then(|i| sorted.get(i))
        .copied()
        .unwrap_or_default()
}

/// A tail percentile, refused (`None`) when fewer than ten samples lie
/// beyond it: the p99 of 500 samples is the mean of a handful, not a p99.
pub fn tail(sorted: &[u64], q: f64) -> Option<u64> {
    let beyond = sorted.len() - rank_of(sorted.len(), q);
    (beyond >= 10).then(|| nearest_rank(sorted, q))
}

fn rank_of(n: usize, q: f64) -> usize {
    // `as` saturates; q is a constant in (0, 1) and n a sample count.
    (((n as f64) * q).ceil() as usize).clamp(n.min(1), n)
}

/// First quartile, median and third quartile of `values`, interpolated as
/// Python's `statistics.quantiles(values, n=4)` does, so the spread printed
/// here is the spread the driver computes. Fewer than two values give the
/// value itself three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    [1usize, 2, 3].map(|k| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        // A clamped rank extrapolates past the ends, as Python does.
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    })
}

/// A value with the inter-quartile spread of the rounds behind it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

pub fn summarize(values: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(values);
    Summary {
        median,
        iqr: q3 - q1,
        n: values.len(),
    }
}

/// Zipf(s) over `0..n` by inverse CDF: class `k` has weight `(k+1)^-s`.
/// `s = 0` is uniform. The caller supplies the uniform draw, so the sampler
/// holds no RNG and the request stream stays a function of the seed alone.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += ((k + 1) as f64).powf(-s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Maps a uniform draw `u` in `[0, 1)` to a class.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_reads_exact_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(median(&s), 50);
        assert_eq!(nearest_rank(&s, 0.99), 99);
        assert_eq!(nearest_rank(&s, 0.999), 100);
        assert_eq!(nearest_rank(&[7], 0.5), 7);
        assert_eq!(nearest_rank::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&s, 0.99), None, "999 samples leave 9 beyond p99");
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&s, 0.99), Some(990));
        assert_eq!(tail(&s, 0.999), None);
        assert_eq!(tail(&s[..20], 0.5), Some(10));
        assert_eq!(tail(&s[..19], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn zipf_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let picks: Vec<usize> = [0.0, 0.24, 0.25, 0.5, 0.76, 0.999]
            .iter()
            .map(|&u| z.sample(u))
            .collect();
        assert_eq!(picks, [0, 0, 1, 2, 3, 3]);
    }

    #[test]
    fn zipf_skews_toward_low_classes() {
        let z = Zipf::new(64, 1.1);
        let n = 100_000;
        let mut counts = [0usize; 64];
        for i in 0..n {
            counts[z.sample((i as f64 + 0.5) / n as f64)] += 1;
        }
        // Weights 1, 2^-1.1, …: class 0 draws 1/H(64, 1.1) ≈ 0.25 of the mass.
        let share0 = counts[0] as f64 / n as f64;
        assert!((0.24..0.26).contains(&share0), "class 0 share {share0}");
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        assert!(counts[63] > 0);
    }
}
