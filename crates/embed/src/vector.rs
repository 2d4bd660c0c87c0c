#![expect(
    clippy::expect_used,
    reason = "std operator impls (Add/AddAssign) must panic on dimension mismatch; add_in_place is the fallible library path"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::EmbedError;

/// A dense `f32` embedding vector.
///
/// `Embedding` is the unit of content in the search scheme: every document
/// and query is one, and node *personalization vectors* are sums of them
/// (paper Eq. (3) relies on this linearity: the dot product of a query with
/// a sum of document embeddings equals the sum of per-document relevances).
///
/// # Example
///
/// ```
/// use gdsearch_embed::Embedding;
///
/// let mut sum = Embedding::zeros(3);
/// sum.add_in_place(&Embedding::new(vec![1.0, 0.0, 0.0])).unwrap();
/// sum.add_in_place(&Embedding::new(vec![0.0, 2.0, 0.0])).unwrap();
/// assert_eq!(sum.as_slice(), &[1.0, 2.0, 0.0]);
/// assert!((sum.norm() - 5.0f32.sqrt()).abs() < 1e-6);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Embedding(Vec<f32>);

impl Embedding {
    /// Wraps a raw vector of components.
    pub fn new(components: Vec<f32>) -> Self {
        Embedding(components)
    }

    /// The zero vector of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Embedding(vec![0.0; dim])
    }

    /// A one-hot vector: `dim` components, 1.0 at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= dim`.
    pub fn one_hot(dim: usize, position: usize) -> Self {
        assert!(position < dim, "one-hot position out of range");
        let mut v = vec![0.0; dim];
        v[position] = 1.0;
        Embedding(v)
    }

    /// Dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Whether every component is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&x| x == 0.0)
    }

    /// Components as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable components.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Consumes the embedding, returning the raw component vector.
    pub fn into_inner(self) -> Vec<f32> {
        self.0
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f32 {
        self.0.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Adds `other` into `self` componentwise.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::DimensionMismatch`] if dimensions differ.
    pub fn add_in_place(&mut self, other: &Embedding) -> Result<(), EmbedError> {
        EmbedError::check_dims(self.dim(), other.dim())?;
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every component by `factor`.
    pub fn scale_in_place(&mut self, factor: f32) {
        for a in &mut self.0 {
            *a *= factor;
        }
    }

    /// Returns a copy scaled by `factor`.
    pub fn scaled(&self, factor: f32) -> Embedding {
        let mut out = self.clone();
        out.scale_in_place(factor);
        out
    }

    /// L2-normalizes in place. The zero vector is left unchanged.
    pub fn normalize_in_place(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale_in_place(1.0 / n);
        }
    }

    /// Returns an L2-normalized copy. The zero vector is returned unchanged.
    pub fn normalized(&self) -> Embedding {
        let mut out = self.clone();
        out.normalize_in_place();
        out
    }

    /// Iterates over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.0.iter()
    }
}

impl fmt::Debug for Embedding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Long vectors are noise in logs; show dimension and a prefix.
        const SHOWN: usize = 4;
        write!(f, "Embedding(dim={}, [", self.dim())?;
        for (i, x) in self.0.iter().take(SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.3}")?;
        }
        if self.dim() > SHOWN {
            write!(f, ", …")?;
        }
        write!(f, "])")
    }
}

impl From<Vec<f32>> for Embedding {
    fn from(components: Vec<f32>) -> Self {
        Embedding(components)
    }
}

impl AsRef<[f32]> for Embedding {
    fn as_ref(&self) -> &[f32] {
        &self.0
    }
}

impl FromIterator<f32> for Embedding {
    fn from_iter<T: IntoIterator<Item = f32>>(iter: T) -> Self {
        Embedding(iter.into_iter().collect())
    }
}

impl Add<&Embedding> for Embedding {
    type Output = Embedding;

    /// Componentwise sum.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ; use [`Embedding::add_in_place`] for a
    /// fallible version.
    fn add(mut self, rhs: &Embedding) -> Embedding {
        self.add_in_place(rhs).expect("dimension mismatch in +");
        self
    }
}

impl AddAssign<&Embedding> for Embedding {
    /// Componentwise accumulation.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ; use [`Embedding::add_in_place`] for a
    /// fallible version.
    fn add_assign(&mut self, rhs: &Embedding) {
        self.add_in_place(rhs).expect("dimension mismatch in +=");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_one_hot() {
        let z = Embedding::zeros(4);
        assert_eq!(z.dim(), 4);
        assert!(z.is_zero());
        let h = Embedding::one_hot(4, 2);
        assert_eq!(h.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
        assert!(!h.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_hot_checks_position() {
        let _ = Embedding::one_hot(3, 3);
    }

    #[test]
    fn norm_and_normalize() {
        let v = Embedding::new(vec![3.0, 4.0]);
        assert!((v.norm() - 5.0).abs() < 1e-6);
        let n = v.normalized();
        assert!((n.norm() - 1.0).abs() < 1e-6);
        assert!((n.as_slice()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let z = Embedding::zeros(3);
        assert_eq!(z.normalized(), z);
    }

    #[test]
    fn dimension_mismatch_is_error() {
        let mut a = Embedding::zeros(2);
        let b = Embedding::zeros(3);
        assert!(a.add_in_place(&b).is_err());
    }

    #[test]
    fn operator_sugar() {
        let a = Embedding::new(vec![1.0, 2.0]);
        let b = Embedding::new(vec![3.0, 4.0]);
        let c = a + &b;
        assert_eq!(c.as_slice(), &[4.0, 6.0]);
        let mut d = c;
        d += &b;
        assert_eq!(d.as_slice(), &[7.0, 10.0]);
    }

    #[test]
    fn debug_is_truncated() {
        let v = Embedding::zeros(300);
        let s = format!("{v:?}");
        assert!(s.contains("dim=300"));
        assert!(s.contains('…'));
        assert!(s.len() < 80);
    }

    #[test]
    fn from_iterator_collects() {
        let v: Embedding = (0..3).map(|i| i as f32).collect();
        assert_eq!(v.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn scaled_returns_copy() {
        let v = Embedding::new(vec![1.0, -2.0]);
        let w = v.scaled(-2.0);
        assert_eq!(w.as_slice(), &[-2.0, 4.0]);
        assert_eq!(v.as_slice(), &[1.0, -2.0]);
    }
}
