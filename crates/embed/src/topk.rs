//! Bounded top-k selection by score.
//!
//! Query messages in the search scheme "keep track of the k most relevant
//! documents they have encountered along with their relevance score"
//! (paper §IV-C). [`TopK`] is that tracker: a bounded collector that keeps
//! the `k` highest-scoring items seen so far.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An item with its relevance score, as returned by [`TopK::into_sorted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scored<T> {
    /// Relevance score; higher is better.
    pub score: f32,
    /// The item.
    pub item: T,
}

/// Most slots [`TopK::new`] reserves: the paper's `k` fits, and a `k` meant
/// as "keep everything" grows the heap on push instead of overflowing the
/// allocation.
const RESERVED: usize = 64;

/// Internal wrapper giving `Scored` a *min*-heap ordering on score so the
/// heap root is the weakest retained item.
#[derive(Debug, Clone)]
struct MinByScore<T>(Scored<T>);

impl<T> PartialEq for MinByScore<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.score == other.0.score
    }
}

impl<T> Eq for MinByScore<T> {}

impl<T> PartialOrd for MinByScore<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for MinByScore<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest on top.
        other.0.score.total_cmp(&self.0.score)
    }
}

/// Bounded collector of the `k` highest-scoring items.
///
/// Non-finite scores (NaN, ±∞) are rejected by [`TopK::push`] and simply not
/// inserted, so the collector's contents always sort cleanly.
///
/// # Example
///
/// ```
/// use gdsearch_embed::topk::TopK;
///
/// let mut top = TopK::new(2);
/// top.push(0.3, "c");
/// top.push(0.9, "a");
/// top.push(0.5, "b");
/// let best: Vec<_> = top.into_sorted().into_iter().map(|s| s.item).collect();
/// assert_eq!(best, vec!["a", "b"]);
/// ```
#[derive(Debug, Clone)]
pub struct TopK<T> {
    k: usize,
    heap: BinaryHeap<MinByScore<T>>,
}

impl<T> TopK<T> {
    /// Creates a collector that retains the `k` best items. `k = 0` retains
    /// nothing; `k = usize::MAX` retains everything. Only a small bounded
    /// capacity is reserved up front, so a huge `k` costs only what is
    /// pushed.
    pub fn new(k: usize) -> Self {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(RESERVED)),
        }
    }

    /// Capacity `k` the collector was created with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of items currently retained.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no items are retained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Offers an item. Returns `true` if it was retained (it may later be
    /// evicted by better items). Non-finite scores are ignored.
    pub fn push(&mut self, score: f32, item: T) -> bool {
        if self.k == 0 || !score.is_finite() {
            return false;
        }
        if self.heap.len() < self.k {
            self.heap.push(MinByScore(Scored { score, item }));
            return true;
        }
        // `heap.len() >= k > 0` here; refuse the item if that ever drifts.
        let Some(weakest) = self.heap.peek() else {
            return false;
        };
        if weakest.0.score >= score {
            return false;
        }
        self.heap.pop();
        self.heap.push(MinByScore(Scored { score, item }));
        true
    }

    /// Consumes the collector, returning items sorted by descending score.
    pub fn into_sorted(self) -> Vec<Scored<T>> {
        let mut items: Vec<Scored<T>> = self.heap.into_iter().map(|w| w.0).collect();
        items.sort_by(|a, b| b.score.total_cmp(&a.score));
        items
    }

    /// Merges another collector into this one, keeping the joint top-k.
    /// Used when a query response backtracks and merges with results
    /// gathered along other walks.
    pub fn merge(&mut self, other: TopK<T>) {
        for scored in other.heap {
            self.push(scored.0.score, scored.0.item);
        }
    }
}

impl<T> Extend<(f32, T)> for TopK<T> {
    fn extend<I: IntoIterator<Item = (f32, T)>>(&mut self, iter: I) {
        for (score, item) in iter {
            self.push(score, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k() {
        let mut top = TopK::new(3);
        for (i, s) in [0.1, 0.9, 0.5, 0.7, 0.2].iter().enumerate() {
            top.push(*s, i);
        }
        let out = top.into_sorted();
        let items: Vec<_> = out.iter().map(|s| s.item).collect();
        assert_eq!(items, vec![1, 3, 2]);
        assert!((out[0].score - 0.9).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut top = TopK::new(0);
        assert!(!top.push(1.0, "x"));
        assert!(top.is_empty());
    }

    #[test]
    fn unbounded_capacity_keeps_everything_sorted() {
        let mut top = TopK::new(usize::MAX);
        for i in 0..200 {
            assert!(top.push(((i * 37) % 200) as f32, i));
        }
        let scores: Vec<f32> = top.into_sorted().iter().map(|s| s.score).collect();
        let expected: Vec<f32> = (0..200).rev().map(|s| s as f32).collect();
        assert_eq!(scores, expected);
    }

    #[test]
    fn rejects_non_finite_scores() {
        let mut top = TopK::new(2);
        assert!(!top.push(f32::NAN, 1));
        assert!(!top.push(f32::INFINITY, 2));
        assert!(top.push(0.5, 3));
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn equal_scores_do_not_evict() {
        let mut top = TopK::new(1);
        assert!(top.push(0.5, "first"));
        assert!(!top.push(0.5, "second"));
        assert_eq!(top.into_sorted()[0].item, "first");
    }

    #[test]
    fn merge_keeps_joint_best() {
        let mut a = TopK::new(2);
        a.push(0.9, "a1");
        a.push(0.1, "a2");
        let mut b = TopK::new(2);
        b.push(0.8, "b1");
        b.push(0.7, "b2");
        a.merge(b);
        let items: Vec<_> = a.into_sorted().into_iter().map(|s| s.item).collect();
        assert_eq!(items, vec!["a1", "b1"]);
    }

    #[test]
    fn extend_from_iterator() {
        let mut top = TopK::new(2);
        top.extend([(0.1, 1), (0.3, 2), (0.2, 3)]);
        let items: Vec<_> = top.into_sorted().into_iter().map(|s| s.item).collect();
        assert_eq!(items, vec![2, 3]);
    }

    #[test]
    fn len_never_exceeds_k() {
        let mut top = TopK::new(5);
        for i in 0..100 {
            top.push(i as f32, i);
            assert!(top.len() <= 5);
        }
        assert_eq!(top.len(), 5);
    }
}
