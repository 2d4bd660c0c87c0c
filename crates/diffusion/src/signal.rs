#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_embed::Embedding;
use gdsearch_graph::NodeId;

use crate::DiffusionError;

/// A graph signal: one `dim`-dimensional value per node, stored row-major
/// (`N × dim`).
///
/// Rows are node embeddings; the diffusion engines treat the whole signal
/// as a dense matrix so vector dimensions diffuse independently (paper
/// §II-C: "graph filters operate independently on each vector dimension").
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::Signal;
/// use gdsearch_embed::Embedding;
///
/// # fn main() -> Result<(), gdsearch_diffusion::DiffusionError> {
/// let mut s = Signal::zeros(3, 2);
/// s.set_row(1, &Embedding::new(vec![1.0, 2.0]))?;
/// assert_eq!(s.row(1), &[1.0, 2.0]);
/// assert_eq!(s.row(0), &[0.0, 0.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Signal {
    num_nodes: usize,
    dim: usize,
    data: Vec<f32>,
}

impl Signal {
    /// The all-zero signal of shape `num_nodes × dim`.
    #[must_use]
    pub fn zeros(num_nodes: usize, dim: usize) -> Self {
        Signal {
            num_nodes,
            dim,
            data: vec![0.0; num_nodes * dim],
        }
    }

    /// Builds a signal from one embedding per node.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::ShapeMismatch`] if rows disagree on
    /// dimensionality.
    pub fn from_rows(rows: &[Embedding]) -> Result<Self, DiffusionError> {
        let dim = rows.first().map(Embedding::dim).unwrap_or(0);
        let mut data = Vec::with_capacity(rows.len() * dim);
        for (i, r) in rows.iter().enumerate() {
            if r.dim() != dim {
                return Err(DiffusionError::ShapeMismatch {
                    expected: (rows.len(), dim),
                    got: (i, r.dim()),
                });
            }
            data.extend_from_slice(r.as_slice());
        }
        Ok(Signal {
            num_nodes: rows.len(),
            dim,
            data,
        })
    }

    /// Builds a mostly-zero signal of shape `num_nodes × dim` with the given
    /// `(node, embedding)` rows set. Entries naming the same node
    /// *accumulate* (sum), consistent with the linearity of diffusion —
    /// `per_source` engines treat repeated sources the same way.
    ///
    /// This matches the experiments' sparse personalization: only nodes that
    /// host documents have non-zero rows.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::ShapeMismatch`] for wrong-dimension rows or
    /// out-of-range nodes.
    pub fn from_sparse_rows(
        num_nodes: usize,
        dim: usize,
        rows: &[(NodeId, Embedding)],
    ) -> Result<Self, DiffusionError> {
        let mut signal = Signal::zeros(num_nodes, dim);
        for (node, emb) in rows {
            if node.index() >= num_nodes || emb.dim() != dim {
                return Err(DiffusionError::ShapeMismatch {
                    expected: (num_nodes, dim),
                    got: (node.index(), emb.dim()),
                });
            }
            for (r, e) in signal.row_mut(node.index()).iter_mut().zip(emb.as_slice()) {
                *r += e;
            }
        }
        Ok(signal)
    }

    /// Number of nodes (rows).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Dimensionality of each node value (columns).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The row of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    #[inline]
    #[must_use]
    pub fn row(&self, u: usize) -> &[f32] {
        &self.data[u * self.dim..(u + 1) * self.dim]
    }

    /// Mutable row of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    #[inline]
    pub fn row_mut(&mut self, u: usize) -> &mut [f32] {
        &mut self.data[u * self.dim..(u + 1) * self.dim]
    }

    /// Copies `value` into node `u`'s row.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::ShapeMismatch`] if `u` is out of range or
    /// the value has the wrong dimension.
    pub fn set_row(&mut self, u: usize, value: &Embedding) -> Result<(), DiffusionError> {
        if u >= self.num_nodes || value.dim() != self.dim {
            return Err(DiffusionError::ShapeMismatch {
                expected: (self.num_nodes, self.dim),
                got: (u, value.dim()),
            });
        }
        self.row_mut(u).copy_from_slice(value.as_slice());
        Ok(())
    }

    /// Node `u`'s row as an owned [`Embedding`].
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    #[must_use]
    pub fn row_embedding(&self, u: usize) -> Embedding {
        Embedding::new(self.row(u).to_vec())
    }

    /// Flat row-major storage.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Largest absolute componentwise difference to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::ShapeMismatch`] if shapes differ.
    pub fn max_abs_diff(&self, other: &Signal) -> Result<f32, DiffusionError> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max))
    }

    /// Frobenius (entrywise L2) distance to `other`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::ShapeMismatch`] if shapes differ.
    pub fn l2_diff(&self, other: &Signal) -> Result<f32, DiffusionError> {
        self.check_same_shape(other)?;
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt())
    }

    /// Sum over nodes of each dimension: the total "mass" per column.
    /// Column-stochastic PPR preserves this for stochastic inputs.
    #[must_use]
    pub fn column_mass(&self) -> Vec<f32> {
        let mut mass = vec![0.0f32; self.dim];
        for u in 0..self.num_nodes {
            for (m, v) in mass.iter_mut().zip(self.row(u)) {
                *m += v;
            }
        }
        mass
    }

    fn check_same_shape(&self, other: &Signal) -> Result<(), DiffusionError> {
        if self.num_nodes != other.num_nodes || self.dim != other.dim {
            return Err(DiffusionError::ShapeMismatch {
                expected: (self.num_nodes, self.dim),
                got: (other.num_nodes, other.dim),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let s = Signal::zeros(4, 3);
        assert_eq!(s.num_nodes(), 4);
        assert_eq!(s.dim(), 3);
        assert!(s.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_rows_and_access() {
        let s = Signal::from_rows(&[
            Embedding::new(vec![1.0, 2.0]),
            Embedding::new(vec![3.0, 4.0]),
        ])
        .unwrap();
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[3.0, 4.0]);
        assert_eq!(s.row_embedding(1).as_slice(), &[3.0, 4.0]);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(
            Signal::from_rows(&[Embedding::new(vec![1.0]), Embedding::new(vec![1.0, 2.0]),])
                .is_err()
        );
    }

    #[test]
    fn sparse_rows() {
        let s = Signal::from_sparse_rows(
            5,
            2,
            &[
                (NodeId::new(1), Embedding::new(vec![1.0, 1.0])),
                (NodeId::new(4), Embedding::new(vec![2.0, 0.0])),
            ],
        )
        .unwrap();
        assert_eq!(s.row(0), &[0.0, 0.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
        assert_eq!(s.row(4), &[2.0, 0.0]);
        assert!(Signal::from_sparse_rows(2, 2, &[(NodeId::new(5), Embedding::zeros(2))]).is_err());
    }

    #[test]
    fn sparse_rows_accumulate_duplicates() {
        let s = Signal::from_sparse_rows(
            3,
            2,
            &[
                (NodeId::new(1), Embedding::new(vec![1.0, 2.0])),
                (NodeId::new(1), Embedding::new(vec![0.5, -1.0])),
            ],
        )
        .unwrap();
        assert_eq!(s.row(1), &[1.5, 1.0]);
    }

    #[test]
    fn set_row_validates() {
        let mut s = Signal::zeros(2, 2);
        assert!(s.set_row(0, &Embedding::new(vec![1.0, 2.0])).is_ok());
        assert!(s.set_row(2, &Embedding::zeros(2)).is_err());
        assert!(s.set_row(0, &Embedding::zeros(3)).is_err());
    }

    #[test]
    fn diffs() {
        let a = Signal::from_rows(&[Embedding::new(vec![1.0, 0.0])]).unwrap();
        let b = Signal::from_rows(&[Embedding::new(vec![0.0, 2.0])]).unwrap();
        assert!((a.max_abs_diff(&b).unwrap() - 2.0).abs() < 1e-6);
        assert!((a.l2_diff(&b).unwrap() - 5.0f32.sqrt()).abs() < 1e-6);
        let c = Signal::zeros(2, 2);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn column_mass_sums_rows() {
        let s = Signal::from_rows(&[
            Embedding::new(vec![1.0, 2.0]),
            Embedding::new(vec![3.0, -1.0]),
        ])
        .unwrap();
        assert_eq!(s.column_mass(), vec![4.0, 1.0]);
    }
}
