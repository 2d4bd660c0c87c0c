//! Small statistics helpers shared by the experiment harnesses.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

/// Summary statistics of a hop-count sample, as reported in the paper's
/// Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopStats {
    /// Number of samples.
    pub count: usize,
    /// Median (lower median for even counts, matching typical numpy
    /// reporting of integer medians).
    pub median: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

/// Computes [`HopStats`] over hop counts. Returns `None` for an empty
/// sample.
///
/// # Example
///
/// ```
/// use gdsearch::metrics::hop_stats;
///
/// let stats = hop_stats(&[1, 2, 3, 10]).unwrap();
/// assert_eq!(stats.median, 2.5);
/// assert_eq!(stats.mean, 4.0);
/// assert!(stats.std > 3.0);
/// ```
pub fn hop_stats(hops: &[u32]) -> Option<HopStats> {
    if hops.is_empty() {
        return None;
    }
    let count = hops.len();
    let mean = hops.iter().map(|&h| h as f64).sum::<f64>() / count as f64;
    let var = hops
        .iter()
        .map(|&h| {
            let d = h as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / count as f64;
    let mut sorted: Vec<u32> = hops.to_vec();
    sorted.sort_unstable();
    let median = if count % 2 == 1 {
        sorted[count / 2] as f64
    } else {
        (sorted[count / 2 - 1] as f64 + sorted[count / 2] as f64) / 2.0
    };
    Some(HopStats {
        count,
        median,
        mean,
        std: var.sqrt(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples() {
        assert!(hop_stats(&[]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = hop_stats(&[5]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
    }

    #[test]
    fn odd_median() {
        let s = hop_stats(&[9, 1, 5]).unwrap();
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn skewed_distribution_mean_exceeds_median() {
        // The paper observes exactly this skew in Table I.
        let s = hop_stats(&[1, 1, 2, 2, 3, 40]).unwrap();
        assert!(s.mean > s.median);
        assert!(s.std > 10.0);
    }
}
