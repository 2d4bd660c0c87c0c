//! Minimal `f32` CSR sparse matrix and graph transition matrices.
//!
//! Personalized PageRank diffusion iterates `E(t) = (1−a) A E(t−1) + a E(0)`
//! where `A = W D^{-1}` is the column-stochastic transition matrix of the
//! paper's Eq. (5): entry `(u, v)` is `1/deg(v)` for every edge `{u, v}`.
//! This module provides the CSR representation, that matrix, and its one
//! weight formula, [`edge_weight`].

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use crate::{Graph, GraphError};

/// How the adjacency matrix of an undirected graph is normalized into a
/// transition matrix. Every engine diffuses over the one operator the
/// paper defines, so the type has one variant; it remains for the
/// [`transition_matrix`] argument and the `normalization` accessors that
/// existing callers pass it through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Normalization {
    /// `A = W D^{-1}` — column-stochastic. Entry `(u, v)` is `1/deg(v)`:
    /// random-walk mass flows from `v` to a uniformly chosen neighbor. This
    /// is the Markov-chain reading of the paper's Eq. (5).
    #[default]
    ColumnStochastic,
}

/// Compressed sparse row matrix with `f32` values.
///
/// Supports the product the diffusion checks need: matrix × row-major
/// dense matrix.
///
/// # Example
///
/// ```
/// use gdsearch_graph::sparse::CsrMatrix;
///
/// // [[0, 2], [1, 0]] times the 2 × 2 rows [[3, 30], [4, 40]].
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, 1.0)]).unwrap();
/// let mut y = vec![0.0; 4];
/// m.mul_dense_into(&[3.0, 30.0, 4.0, 40.0], 2, &mut y);
/// assert_eq!(y, vec![8.0, 80.0, 3.0, 30.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    offsets: Vec<usize>,
    columns: Vec<u32>,
    values: Vec<f32>,
}

/// The column bound of an `n_rows × n_cols` matrix as the stored index type.
///
/// Row and column indices are stored as `u32`; larger matrices must be
/// sharded — see [`crate::sharded`].
fn column_bound(n_rows: usize, n_cols: usize) -> Result<u32, GraphError> {
    match (u32::try_from(n_rows), u32::try_from(n_cols)) {
        (Ok(_), Ok(bound)) => Ok(bound),
        _ => Err(GraphError::invalid_parameter(format!(
            "matrix dimensions {n_rows}x{n_cols} exceed the u32 index space \
             of the CSR column storage"
        ))),
    }
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets. Triplets may
    /// arrive in any order; duplicates are summed.
    ///
    /// Sorts and merges, so it costs `O(E log E)` time and three copies of
    /// the entries.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if an index is out of range
    /// or either dimension exceeds the `u32` index space (row and column
    /// indices are stored as `u32`; larger matrices must be sharded — see
    /// [`crate::sharded`]).
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: &[(u32, u32, f32)],
    ) -> Result<Self, GraphError> {
        column_bound(n_rows, n_cols)?;
        for &(r, c, _) in triplets {
            if r as usize >= n_rows || c as usize >= n_cols {
                return Err(GraphError::invalid_parameter(format!(
                    "triplet ({r}, {c}) out of range for {n_rows}x{n_cols} matrix"
                )));
            }
        }
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates of the same (row, col) by summing their values.
        let mut merged: Vec<(u32, u32, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut offsets = vec![0usize; n_rows + 1];
        for &(r, _, _) in &merged {
            offsets[r as usize + 1] += 1;
        }
        for i in 1..=n_rows {
            offsets[i] += offsets[i - 1];
        }
        let columns: Vec<u32> = merged.iter().map(|&(_, c, _)| c).collect();
        let values: Vec<f32> = merged.iter().map(|&(_, _, v)| v).collect();
        Ok(CsrMatrix {
            n_rows,
            n_cols,
            offsets,
            columns,
            values,
        })
    }

    /// Checks that both dimensions fit the `u32` index space, `offsets` is
    /// a non-decreasing sequence of `n_rows + 1` positions from 0 to
    /// `columns.len() == values.len()`, and every row's columns are
    /// strictly ascending and below `n_cols`.
    fn check_sorted_rows(&self) -> Result<(), GraphError> {
        let bound = column_bound(self.n_rows, self.n_cols)?;
        let framed = self.offsets.len().checked_sub(1) == Some(self.n_rows)
            && self.offsets.first() == Some(&0)
            && self.offsets.last() == Some(&self.columns.len())
            && self.columns.len() == self.values.len();
        if !framed {
            return Err(GraphError::invalid_parameter(format!(
                "{} offsets must run from 0 to {} columns / {} values over {} rows",
                self.offsets.len(),
                self.columns.len(),
                self.values.len(),
                self.n_rows
            )));
        }
        for (r, (&start, &end)) in self
            .offsets
            .iter()
            .zip(self.offsets.iter().skip(1))
            .enumerate()
        {
            let row = self.columns.get(start..end).ok_or_else(|| {
                GraphError::invalid_parameter(format!(
                    "row {r} offsets {start}..{end} are not a range of the stored entries"
                ))
            })?;
            let ascending = row.iter().zip(row.iter().skip(1)).all(|(a, b)| a < b);
            if !ascending || row.last().is_some_and(|&c| c >= bound) {
                return Err(GraphError::invalid_parameter(format!(
                    "row {r} columns must be strictly ascending and below {bound}"
                )));
            }
        }
        Ok(())
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored entries of `row` as `(column, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n_rows`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (u32, f32)> + Clone + '_ {
        let range = self.offsets[row]..self.offsets[row + 1];
        self.columns[range.clone()]
            .iter()
            .copied()
            .zip(self.values[range].iter().copied())
    }

    /// Dense matrix-vector product `y = M x`: the oracle the dense product
    /// is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols`.
    #[cfg(test)]
    pub fn mul_vec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.n_cols, "dimension mismatch");
        let mut y = vec![0.0f32; self.n_rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// In-place matrix-vector product `y = M x`, reusing the output buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n_cols` or `y.len() != n_rows`.
    #[cfg(test)]
    pub fn mul_vec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.n_cols, "input dimension mismatch");
        assert_eq!(y.len(), self.n_rows, "output dimension mismatch");
        for (r, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for i in self.offsets[r]..self.offsets[r + 1] {
                acc += self.values[i] * x[self.columns[i] as usize];
            }
            *out = acc;
        }
    }

    /// Product with a row-major dense matrix: `Y = M X`, where `X` has
    /// `n_cols` rows of width `width` stored contiguously, likewise `Y`
    /// (in diffusion, `X` holds one embedding row per node). Every row goes
    /// through [`gather_row`].
    ///
    /// # Panics
    ///
    /// Panics if buffer sizes disagree with `n_cols * width` /
    /// `n_rows * width`.
    pub fn mul_dense_into(&self, x: &[f32], width: usize, y: &mut [f32]) {
        assert_eq!(x.len(), self.n_cols * width, "input dimension mismatch");
        assert_eq!(y.len(), self.n_rows * width, "output dimension mismatch");
        for (r, out) in y.chunks_mut(width.max(1)).enumerate() {
            let entries = self.row(r).map(|(c, weight)| (c as usize, weight));
            gather_row(entries, x, width, |start, sums| {
                out[start..][..sums.len()].copy_from_slice(sums);
            });
        }
    }

    /// Sum of each column's values.
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.n_cols];
        for r in 0..self.n_rows {
            for (c, v) in self.row(r) {
                sums[c as usize] += v;
            }
        }
        sums
    }
}

/// Width of the register block [`gather_row`] sums an output row in.
pub const GATHER_BLOCK: usize = 64;

/// The one row kernel of the dense products: one output row of `Y = M X`,
/// where `X` stores rows of width `width` contiguously and `entries` yields
/// the row's `(column, weight)` pairs. Each [`GATHER_BLOCK`]-wide block of
/// the row is summed in a fixed `[f32; GATHER_BLOCK]`, the last
/// `width % GATHER_BLOCK` columns in a scalar tail, and each finished block
/// goes to `emit(first column, sums)`, where the caller stores it.
/// (The monolithic sweep in `gdsearch-diffusion`'s `power` module adds the
/// same products in the same order with a kernel of its own, which adds
/// most of them pre-scaled.)
///
/// Every element's sum starts at `+0.0` and adds `weight · x` over the
/// entries in the order `entries` yields them. Blocking decides which
/// elements are summed side by side, never the order of one element's
/// terms, so the bits are those of the plain per-element loop.
///
/// # Panics
///
/// Panics if an entry's column row runs past the end of `x`.
///
/// # Example
///
/// ```
/// use gdsearch_graph::sparse::gather_row;
///
/// // Row [2, 0, 1] times the 3 × 2 matrix [[1, 2], [3, 4], [5, 6]].
/// let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let mut y = [0.0f32; 2];
/// gather_row([(0, 2.0), (2, 1.0)].into_iter(), &x, 2, |start, sums| {
///     y[start..start + sums.len()].copy_from_slice(sums);
/// });
/// assert_eq!(y, [7.0, 10.0]);
/// ```
pub fn gather_row<I>(entries: I, x: &[f32], width: usize, mut emit: impl FnMut(usize, &[f32]))
where
    I: Iterator<Item = (usize, f32)> + Clone,
{
    let mut start = 0;
    while start + GATHER_BLOCK <= width {
        let mut sums = [0.0f32; GATHER_BLOCK];
        for (column, weight) in entries.clone() {
            let src = &x[column * width + start..][..GATHER_BLOCK];
            for (sum, s) in sums.iter_mut().zip(src) {
                *sum += weight * s;
            }
        }
        emit(start, &sums);
        start += GATHER_BLOCK;
    }
    if start < width {
        let mut block = [0.0f32; GATHER_BLOCK];
        let sums = &mut block[..width - start];
        for (column, weight) in entries {
            let src = &x[column * width + start..][..sums.len()];
            for (sum, s) in sums.iter_mut().zip(src) {
                *sum += weight * s;
            }
        }
        emit(start, sums);
    }
}

/// Builds the transition matrix `A = W D^{-1}` of an undirected graph,
/// each entry from [`edge_weight`]. `norm` names that operator; it is the
/// only one.
///
/// Isolated nodes produce empty rows/columns: their diffusion state is pure
/// teleport, which is the correct decentralized semantics (no neighbors to
/// exchange with).
///
/// # Example
///
/// ```
/// use gdsearch_graph::{generators, sparse};
///
/// let g = generators::path(3);
/// let a = sparse::transition_matrix(&g, sparse::Normalization::ColumnStochastic);
/// // Every column of a column-stochastic matrix sums to 1.
/// for s in a.col_sums() {
///     assert!((s - 1.0).abs() < 1e-6);
/// }
/// ```
pub fn transition_matrix(g: &Graph, _norm: Normalization) -> CsrMatrix {
    let n = g.num_nodes();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut columns = Vec::with_capacity(2 * g.num_edges());
    let mut values = Vec::with_capacity(2 * g.num_edges());
    offsets.push(0);
    // A `Graph` row is already a CSR row: sorted, duplicate-free, in range.
    for u in g.node_ids() {
        let row = g.neighbor_slice(u);
        columns.extend(row.iter().map(|v| v.as_u32()));
        values.extend(row.iter().map(|&v| edge_weight(g.degree(v))));
        offsets.push(columns.len());
    }
    let matrix = CsrMatrix {
        n_rows: n,
        n_cols: n,
        offsets,
        columns,
        values,
    };
    // `Graph` construction guarantees it; debug and test builds check.
    debug_assert!(
        matrix.check_sorted_rows().is_ok(),
        "graph adjacency is sorted, duplicate-free and within the u32 node space"
    );
    matrix
}

/// The transition weight `A[u][v] = 1/deg(v)` of an edge `{u, v}`, from the
/// degree of `v` — the one expression every engine's weights come from, so
/// they agree to the bit. An isolated node (`deg_v = 0`) weighs no edge and
/// reads 0.
pub fn edge_weight(deg_v: usize) -> f32 {
    if deg_v > 0 {
        1.0 / deg_v as f32
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, NodeId};

    #[test]
    fn from_triplets_sorts_rows() {
        let m = CsrMatrix::from_triplets(2, 3, &[(1, 2, 5.0), (0, 0, 1.0), (1, 0, 2.0)]).unwrap();
        assert_eq!(m.nnz(), 3);
        let row1: Vec<_> = m.row(1).collect();
        assert_eq!(row1, vec![(0, 2.0), (2, 5.0)]);
    }

    #[test]
    fn from_triplets_merges_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.5), (1, 0, 4.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(1, 3.5)]);
    }

    #[test]
    fn from_triplets_rejects_out_of_range() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn from_triplets_rejects_dimensions_beyond_u32() {
        // Columns are stored as u32: dimensions past that index space used
        // to truncate silently instead of erroring.
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            CsrMatrix::from_triplets(2, too_big, &[]),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(matches!(
            CsrMatrix::from_triplets(too_big, 2, &[]),
            Err(GraphError::InvalidParameter { .. })
        ));
        assert!(CsrMatrix::from_triplets(2, u32::MAX as usize, &[]).is_ok());
    }

    #[test]
    fn mul_vec_matches_dense() {
        // [[1, 0, 2], [0, 3, 0]]
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(m.mul_vec(&[0.0, 2.0, 5.0]), vec![10.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_vec_checks_dims() {
        let m = CsrMatrix::from_triplets(2, 3, &[]).unwrap();
        let _ = m.mul_vec(&[1.0, 2.0]);
    }

    #[test]
    fn mul_dense_is_columnwise_mul_vec() {
        let g = generators::ring(5).unwrap();
        let a = transition_matrix(&g, Normalization::ColumnStochastic);
        let width = 3;
        let x: Vec<f32> = (0..5 * width).map(|i| (i as f32).sin()).collect();
        let mut y = vec![0.0f32; 5 * width];
        a.mul_dense_into(&x, width, &mut y);
        for c in 0..width {
            let col: Vec<f32> = (0..5).map(|r| x[r * width + c]).collect();
            let expect = a.mul_vec(&col);
            for r in 0..5 {
                assert!((y[r * width + c] - expect[r]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gather_row_is_the_per_element_loop_at_every_block_boundary() {
        let b = GATHER_BLOCK;
        for width in [1, 3, b - 1, b, b + 1, 2 * b + 3] {
            let x: Vec<f32> = (0..5 * width).map(|i| (i as f32 * 0.37).sin()).collect();
            let entries = [(3usize, 0.25f32), (0, -1.5), (4, 1.0 / 3.0), (3, 7.0)];
            let mut want = vec![0.0f32; width];
            for &(c, weight) in &entries {
                for (o, s) in want.iter_mut().zip(&x[c * width..][..width]) {
                    *o += weight * s;
                }
            }
            let mut got = vec![f32::NAN; width];
            let mut starts = Vec::new();
            gather_row(entries.into_iter(), &x, width, |start, sums| {
                starts.push(start);
                got[start..][..sums.len()].copy_from_slice(sums);
            });
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "width {width}");
            assert_eq!(starts, (0..width).step_by(b).collect::<Vec<_>>());
        }
        // A zero-width row emits nothing.
        gather_row([(0usize, 1.0f32)].into_iter(), &[], 0, |_, _| {
            panic!("emitted")
        });
    }

    #[test]
    #[should_panic(expected = "output dimension mismatch")]
    fn mul_dense_checks_dims() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]).unwrap();
        let x = [1.0f32, 2.0];
        let mut y = [0.0f32; 3];
        m.mul_dense_into(&x, 1, &mut y);
    }

    #[test]
    fn column_stochastic_columns_sum_to_one() {
        let g = generators::social_circles_like_scaled(100, &mut seeded(1)).unwrap();
        let a = transition_matrix(&g, Normalization::ColumnStochastic);
        for (v, s) in a.col_sums().iter().enumerate() {
            if g.degree(NodeId::new(v as u32)) > 0 {
                assert!((s - 1.0).abs() < 1e-4, "column {v} sums to {s}");
            }
        }
    }

    #[test]
    fn isolated_nodes_have_empty_rows() {
        let g = crate::Graph::from_edges(3, [(0, 1)]).unwrap();
        let a = transition_matrix(&g, Normalization::ColumnStochastic);
        assert_eq!(a.row(2).count(), 0);
    }

    #[test]
    fn transition_weight_matches_matrix() {
        let g = generators::grid(3, 3);
        let a = transition_matrix(&g, Normalization::ColumnStochastic);
        for u in g.node_ids() {
            let stored: Vec<(u32, u32)> = a.row(u.index()).map(|(c, w)| (c, w.to_bits())).collect();
            let direct: Vec<(u32, u32)> = g
                .neighbors(u)
                .map(|v| (v.as_u32(), edge_weight(g.degree(v)).to_bits()))
                .collect();
            assert_eq!(stored, direct, "row {u}");
        }
    }

    fn seeded(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
