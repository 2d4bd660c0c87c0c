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
/// use gdsearch_graph::NodeId;
///
/// # fn main() -> Result<(), gdsearch_diffusion::DiffusionError> {
/// let host = (NodeId::new(1), Embedding::new(vec![1.0, 2.0]));
/// let s = Signal::from_sparse_rows(3, 2, &[host])?;
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

    /// Builds a mostly-zero signal of shape `num_nodes × dim` with the given
    /// `(node, embedding)` rows set: [`SparseRows::from_sources`] scattered
    /// into zeros, so entries naming the same node *accumulate* (sum),
    /// consistent with the linearity of diffusion.
    ///
    /// This matches the experiments' sparse personalization: only nodes that
    /// host documents have non-zero rows.
    ///
    /// # Errors
    ///
    /// As [`SparseRows::from_sources`].
    pub fn from_sparse_rows(
        num_nodes: usize,
        dim: usize,
        rows: &[(NodeId, Embedding)],
    ) -> Result<Self, DiffusionError> {
        Ok(SparseRows::from_sources(num_nodes, dim, rows)?.to_signal())
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

/// The positions of the set bits of `words`, ascending (bit `b` of word
/// `w` is `64 · w + b`).
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    let words = words.iter().zip((0u32..).step_by(64));
    words.flat_map(|(&word, base)| {
        let bits = std::iter::successors(Some(word), |w| Some(w & w.wrapping_sub(1)));
        bits.take_while(|&w| w != 0)
            .map(move |w| base + w.trailing_zeros())
    })
}

/// A graph signal stored by its support: the rows of the nodes a local
/// diffusion reached, ascending by node id, each `dim` wide. Every other
/// node's row reads as zeros.
///
/// `E0` enters every diffusion engine in this form
/// ([`SparseRows::from_sources`]), and forward push
/// ([`crate::push::diffuse_rows`]) returns it, so its output costs
/// `O(support · dim)` floats instead of `N · dim`, plus a bitmap of the
/// support with a rank per 64 nodes (`N / 64` words each), which finds a
/// row in constant time: a walk reads a row per candidate it scores.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::SparseRows;
///
/// let rows = SparseRows::zeros(4, 2);
/// assert_eq!(rows.support().count(), 0);
/// assert_eq!(rows.row(3), &[0.0, 0.0]);
/// assert_eq!(rows.to_signal().as_slice(), &[0.0; 8]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRows {
    num_nodes: usize,
    dim: usize,
    /// Bit `u` is set when node `u` has a stored row.
    stored: Vec<u64>,
    /// Stored rows before word `w` of `stored`: with the set bits below
    /// `u` in its word, the index of `u`'s row.
    rank: Vec<u32>,
    /// One `dim`-wide row per stored node, row-major, ascending node.
    data: Vec<f32>,
    /// The row every node outside the support reads.
    zeros: Vec<f32>,
}

impl SparseRows {
    /// The all-zero signal of shape `num_nodes × dim`: no stored row.
    #[must_use]
    pub fn zeros(num_nodes: usize, dim: usize) -> Self {
        Self::with_support(num_nodes, dim, std::iter::empty())
    }

    /// Zeroed stored rows for the nodes of `support` (any order, repeats
    /// allowed).
    ///
    /// # Panics
    ///
    /// Panics if a node of `support` is not below `num_nodes`: its bit
    /// would land in the bitmap's last word past `num_nodes`, shifting the
    /// ranks and lengthening the rows.
    pub(crate) fn with_support(
        num_nodes: usize,
        dim: usize,
        support: impl IntoIterator<Item = u32>,
    ) -> Self {
        let mut stored = vec![0u64; num_nodes.div_ceil(64)];
        for u in support {
            assert!((u as usize) < num_nodes, "node {u} out of range");
            stored[u as usize / 64] |= 1 << (u % 64);
        }
        let mut rows = 0u32;
        let rank = stored
            .iter()
            .map(|word| {
                let before = rows;
                rows += word.count_ones();
                before
            })
            .collect();
        SparseRows {
            num_nodes,
            dim,
            stored,
            rank,
            data: vec![0.0; rows as usize * dim],
            zeros: vec![0.0; dim],
        }
    }

    /// `E0` as every diffusion entry takes it: the `(source, embedding)`
    /// pairs of the hosting nodes, one stored row per distinct source. The
    /// sources are checked in input order, then folded: each stored row sums
    /// its node's embeddings with `+=` from `+0.0` in input order, since
    /// diffusion is linear — so a repeated source accumulates and a `−0.0`
    /// entry reads `+0.0`. A source whose rows sum to zeros keeps its stored
    /// row.
    ///
    /// # Errors
    ///
    /// For the first faulty source: [`DiffusionError::ShapeMismatch`] for a
    /// node outside `0..num_nodes` or an embedding whose dimension is not
    /// `dim`, and [`DiffusionError::InvalidParameter`] naming the node and
    /// the component for a NaN or infinite component, which no engine's
    /// stopping rule is guaranteed to see.
    pub fn from_sources(
        num_nodes: usize,
        dim: usize,
        sources: &[(NodeId, Embedding)],
    ) -> Result<Self, DiffusionError> {
        for (node, emb) in sources {
            if node.index() >= num_nodes || emb.dim() != dim {
                return Err(DiffusionError::ShapeMismatch {
                    expected: (num_nodes, dim),
                    got: (node.index(), emb.dim()),
                });
            }
            if let Some((c, x)) = emb.iter().enumerate().find(|(_, x)| !x.is_finite()) {
                return Err(DiffusionError::invalid_parameter(format!(
                    "source row of node {node} has a non-finite component {c} ({x})"
                )));
            }
        }
        let support = sources.iter().map(|(node, _)| node.as_u32());
        let mut rows = Self::with_support(num_nodes, dim, support);
        for (node, emb) in sources {
            let row = rows.stored_row_mut(node.index()).into_iter().flatten();
            for (r, e) in row.zip(emb.as_slice()) {
                *r += e;
            }
        }
        Ok(rows)
    }

    /// The rows of `signal` that hold a set bit, copied bit for bit; every
    /// other row reads as zeros, as it did.
    #[must_use]
    pub fn from_signal(signal: &Signal) -> Self {
        let live = (0..signal.num_nodes())
            .zip(0u32..)
            .filter(|&(u, _)| signal.row(u).iter().any(|x| x.to_bits() != 0))
            .map(|(_, id)| id);
        let mut rows = Self::with_support(signal.num_nodes(), signal.dim(), live);
        for (u, row) in rows.stored_rows_mut() {
            row.copy_from_slice(signal.row(u));
        }
        rows
    }

    /// Number of nodes (rows).
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Dimensionality of each row.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The nodes with a stored row, ascending.
    pub fn support(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.stored)
    }

    /// Where `u`'s stored row starts in `data`, if it has one.
    #[inline]
    fn offset(&self, u: usize) -> Option<usize> {
        let (word, bit) = (self.stored[u / 64], 1u64 << (u % 64));
        if word & bit == 0 {
            return None;
        }
        let before = self.rank[u / 64] as usize + (word & (bit - 1)).count_ones() as usize;
        Some(before * self.dim)
    }

    /// The row of node `u`: its stored row, or zeros when it has none.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    #[inline]
    #[must_use]
    pub fn row(&self, u: usize) -> &[f32] {
        assert!(
            u < self.num_nodes,
            "node {u} out of range for {} nodes",
            self.num_nodes
        );
        match self.offset(u) {
            Some(at) => &self.data[at..at + self.dim],
            None => &self.zeros,
        }
    }

    /// Mutable stored row of node `u`, or `None` when `u` has none.
    pub(crate) fn stored_row_mut(&mut self, u: usize) -> Option<&mut [f32]> {
        let at = self.offset(u)?;
        Some(&mut self.data[at..at + self.dim])
    }

    /// The stored rows, ascending by node, each with its node.
    pub(crate) fn stored_rows_mut(&mut self) -> impl Iterator<Item = (usize, &mut [f32])> {
        let rows = self.data.chunks_mut(self.dim.max(1));
        set_bits(&self.stored).map(|u| u as usize).zip(rows)
    }

    /// The dense signal: the stored rows scattered into zeros.
    #[must_use]
    pub fn to_signal(&self) -> Signal {
        let mut signal = Signal::zeros(self.num_nodes, self.dim);
        let rows = self.support().zip((0..).map(|k: usize| k * self.dim));
        for (u, at) in rows {
            signal
                .row_mut(u as usize)
                .copy_from_slice(&self.data[at..at + self.dim]);
        }
        signal
    }
}

/// Diffused node embeddings as the engine that computed them left them:
/// the dense power sweep's [`Signal`] or forward push's [`SparseRows`].
/// [`Diffused::row`] reads either, with the same bits.
#[derive(Debug, Clone, PartialEq)]
pub enum Diffused {
    /// One row per node (the power sweep).
    Dense(Signal),
    /// Rows over their support, zeros elsewhere (forward push).
    Sparse(SparseRows),
}

impl Diffused {
    /// The row of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    #[inline]
    #[must_use]
    pub fn row(&self, u: usize) -> &[f32] {
        match self {
            Diffused::Dense(signal) => signal.row(u),
            Diffused::Sparse(rows) => rows.row(u),
        }
    }

    /// The dense signal; a row-sparse value is scattered into zeros.
    #[must_use]
    pub fn into_signal(self) -> Signal {
        match self {
            Diffused::Dense(signal) => signal,
            Diffused::Sparse(rows) => rows.to_signal(),
        }
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
        assert_eq!(s.row_embedding(4).as_slice(), &[2.0, 0.0]);
        assert!(Signal::from_sparse_rows(2, 2, &[(NodeId::new(5), Embedding::zeros(2))]).is_err());
        assert!(Signal::from_sparse_rows(5, 2, &[(NodeId::new(1), Embedding::zeros(3))]).is_err());
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
    fn diffs() {
        let mut a = Signal::zeros(1, 2);
        a.as_mut_slice().copy_from_slice(&[1.0, 0.0]);
        let mut b = Signal::zeros(1, 2);
        b.as_mut_slice().copy_from_slice(&[0.0, 2.0]);
        assert!((a.max_abs_diff(&b).unwrap() - 2.0).abs() < 1e-6);
        let c = Signal::zeros(2, 2);
        assert!(a.max_abs_diff(&c).is_err());
    }

    #[test]
    fn column_mass_sums_rows() {
        let mut s = Signal::zeros(2, 2);
        s.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0, -1.0]);
        assert_eq!(s.column_mass(), vec![4.0, 1.0]);
    }

    #[test]
    fn sparse_rows_read_zeros_off_their_support() {
        // Nodes on both sides of a 64-node word boundary, given out of
        // order and repeated.
        let mut rows = SparseRows::with_support(130, 2, [64, 1, 129, 63, 1]);
        assert_eq!(rows.support().collect::<Vec<_>>(), vec![1, 63, 64, 129]);
        for (u, value) in [(1, 1.0), (63, -2.0), (64, 0.5), (129, 3.0)] {
            rows.stored_row_mut(u)
                .unwrap()
                .copy_from_slice(&[value, -value]);
        }
        assert!(rows.stored_row_mut(2).is_none());
        let dense = rows.to_signal();
        for u in 0..130 {
            assert_eq!(rows.row(u), dense.row(u), "node {u}");
        }
        assert_eq!(dense.row(64), &[0.5, -0.5]);
        assert_eq!(dense.row(65), &[0.0, 0.0]);
        let diffused = Diffused::Sparse(rows);
        assert_eq!(diffused.row(129), &[3.0, -3.0]);
        assert_eq!(diffused.into_signal(), dense);
        // Width 0: every row is empty, stored or not.
        let empty = SparseRows::with_support(3, 0, [0, 2]);
        assert!((0..3).all(|u| empty.row(u).is_empty()));
        assert_eq!(empty.to_signal(), Signal::zeros(3, 0));
    }

    #[test]
    #[should_panic(expected = "node 3 out of range")]
    fn support_past_the_end_panics() {
        // Node 3 is inside the bitmap's one word but not the graph.
        let _ = SparseRows::with_support(3, 1, [0, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sparse_row_past_the_end_panics() {
        let _ = SparseRows::zeros(2, 1).row(2);
    }
}
