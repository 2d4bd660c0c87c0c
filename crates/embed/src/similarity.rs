//! Similarity metrics between embeddings.
//!
//! The bi-encoder model compares query and document embeddings with a cheap
//! interaction function φ — the dot product or cosine similarity (equivalent
//! when embeddings are L2-normalized, paper footnote 7). The forwarding step
//! of the search scheme uses the *dot product* against diffused node
//! embeddings, preserving Eq. (3)'s linearity.

use crate::{EmbedError, Embedding};

/// Dot product `a · b`.
///
/// # Errors
///
/// Returns [`EmbedError::DimensionMismatch`] if dimensions differ.
pub fn dot(a: &Embedding, b: &Embedding) -> Result<f32, EmbedError> {
    EmbedError::check_dims(a.dim(), b.dim())?;
    Ok(a.iter().zip(b.iter()).map(|(x, y)| x * y).sum())
}

/// Cosine similarity `a · b / (‖a‖ ‖b‖)`.
///
/// Returns 0 if either vector is zero (no direction ⇒ no similarity).
///
/// # Errors
///
/// Returns [`EmbedError::DimensionMismatch`] if dimensions differ.
pub fn cosine(a: &Embedding, b: &Embedding) -> Result<f32, EmbedError> {
    let d = dot(a, b)?;
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        Ok(0.0)
    } else {
        Ok(d / (na * nb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(v: &[f32]) -> Embedding {
        Embedding::new(v.to_vec())
    }

    #[test]
    fn dot_product_basic() {
        assert_eq!(dot(&e(&[1.0, 2.0]), &e(&[3.0, 4.0])).unwrap(), 11.0);
        assert_eq!(dot(&e(&[1.0, 0.0]), &e(&[0.0, 1.0])).unwrap(), 0.0);
    }

    #[test]
    fn cosine_range_and_symmetry() {
        let a = e(&[1.0, 2.0, 3.0]);
        let b = e(&[-2.0, 0.5, 1.0]);
        let ab = cosine(&a, &b).unwrap();
        let ba = cosine(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-6);
        assert!((-1.0..=1.0).contains(&ab));
        assert!((cosine(&a, &a).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_vectors() {
        let a = e(&[1.0, 0.0]);
        let b = e(&[-3.0, 0.0]);
        assert!((cosine(&a, &b).unwrap() + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine(&e(&[0.0, 0.0]), &e(&[1.0, 1.0])).unwrap(), 0.0);
    }

    #[test]
    fn mismatched_dims_error() {
        assert!(dot(&e(&[1.0]), &e(&[1.0, 2.0])).is_err());
        assert!(cosine(&e(&[1.0]), &e(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn dot_equals_cosine_for_normalized() {
        let a = e(&[0.3, -0.7, 0.2]).normalized();
        let b = e(&[0.1, 0.9, -0.4]).normalized();
        let d = dot(&a, &b).unwrap();
        let c = cosine(&a, &b).unwrap();
        assert!(
            (d - c).abs() < 1e-6,
            "footnote 7: dot == cosine when normalized"
        );
    }
}
