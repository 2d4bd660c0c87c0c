//! Synchronous power-iteration evaluation of the PPR filter (paper Eq. 7):
//! `E(t) = (1−a) A E(t−1) + a E0`, iterated until the max-abs residual
//! between sweeps falls below the configured tolerance (see
//! [`PprConfig::tolerance`] for the exact semantics).
//!
//! The iteration is a contraction with factor `(1−a)` in the appropriate
//! norm, so it converges geometrically for any `a ∈ (0, 1]`.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_graph::sparse::transition_matrix;
use gdsearch_graph::Graph;

use crate::convergence::Convergence;
use crate::{DiffusionError, PprConfig, Signal};

/// Outcome of an iterative diffusion.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionResult {
    /// The diffused signal `E`.
    pub signal: Signal,
    /// Sweeps performed.
    pub iterations: usize,
    /// Max-abs residual of the final sweep.
    pub residual: f32,
    /// Whether the residual met the tolerance within the iteration budget.
    pub converged: bool,
}

impl DiffusionResult {
    /// Unwraps the signal, turning budget exhaustion into
    /// [`DiffusionError::NotConverged`].
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::NotConverged`] if `converged` is false.
    pub fn into_converged(self) -> Result<Signal, DiffusionError> {
        if !self.converged {
            return Err(DiffusionError::NotConverged {
                iterations: self.iterations,
                residual: self.residual,
            });
        }
        Ok(self.signal)
    }
}

/// Diffuses `e0` over `graph` with the PPR filter, synchronously.
///
/// Returns the result even when the iteration budget is exhausted
/// (`converged = false`); callers that require convergence check the
/// flag.
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] if `e0` has a different node
/// count than `graph`.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::{power, PprConfig, Signal};
/// use gdsearch_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::complete(4);
/// let mut e0 = Signal::zeros(4, 2);
/// e0.row_mut(0).copy_from_slice(&[1.0, 0.5]);
/// let out = power::diffuse(&g, &e0, &PprConfig::new(0.5)?)?;
/// assert!(out.converged);
/// // The source keeps the largest share of its own signal.
/// assert!(out.signal.row(0)[0] > out.signal.row(1)[0]);
/// # Ok(())
/// # }
/// ```
pub fn diffuse(
    graph: &Graph,
    e0: &Signal,
    config: &PprConfig,
) -> Result<DiffusionResult, DiffusionError> {
    diffuse_threaded(graph, e0, config, 1)
}

/// Like [`diffuse`], but shards every row sweep across `threads` scoped
/// workers from [`crate::workpool`].
///
/// Each output row of the sweep `E(t) = (1−a) A E(t−1) + a E0` depends
/// only on the previous iterate, so disjoint row ranges are computed
/// concurrently into disjoint chunks of the next iterate
/// ([`CsrMatrix::mul_dense_rows_into`](gdsearch_graph::sparse::CsrMatrix::mul_dense_rows_into));
/// the per-chunk residual maxima are folded in chunk order, and `f32::max`
/// is associative for the non-NaN values produced here — the result is
/// therefore bit-for-bit identical for every thread count, including
/// `threads = 1` (which is exactly [`diffuse`]).
///
/// The sweep gathers only from rows that can be non-zero. A row is *dead*
/// while all its bits are `+0.0`; row `u` of `E(t+1)` is dead if row `u` of
/// `E0` is and every neighbour's row of `E(t)` is (`a` and `1−a` are
/// non-negative, so the blend of `+0.0`s is `+0.0`). The live set therefore
/// grows one hop per sweep from the rows of `E0` that hold a set bit, and
/// while it is not yet all rows the kernel skips the dead ones
/// ([`CsrMatrix::mul_live_rows_into`](gdsearch_graph::sparse::CsrMatrix::mul_live_rows_into),
/// which is where the bit-identity of skipping is argued). The mask is
/// structural — a live row may still hold zeros — and identical for every
/// thread count.
///
/// # Errors
///
/// As [`diffuse`].
pub fn diffuse_threaded(
    graph: &Graph,
    e0: &Signal,
    config: &PprConfig,
    threads: usize,
) -> Result<DiffusionResult, DiffusionError> {
    let matrix = transition_matrix(graph, config.normalization());
    let n = matrix.n_rows();
    if e0.num_nodes() != n {
        return Err(DiffusionError::ShapeMismatch {
            expected: (n, e0.dim()),
            got: (e0.num_nodes(), e0.dim()),
        });
    }
    let dim = e0.dim();
    let width = dim.max(1);
    let threads = threads.max(1).min(n.max(1));
    let chunk_rows = n.max(1).div_ceil(threads);
    let alpha = config.alpha();
    let mut current = e0.clone();
    let mut next = Signal::zeros(n, dim);
    // live: rows of `current` that may hold a set bit. reached: the same
    // for `next` — seeded with E0's rows, which are live in every iterate,
    // and only ever gaining rows, so the kernel grows it in place.
    let mut live: Vec<bool> = (0..n)
        .map(|u| e0.row(u).iter().any(|x| x.to_bits() != 0))
        .collect();
    let mut reached = live.clone();
    let mut conv = Convergence::new();
    while conv.iters < config.max_iterations() {
        let masked = live.contains(&false);
        // next = (1 - a) * A * current + a * e0, sharded by row range.
        let max_delta = {
            let cur = current.as_slice();
            let origin = e0.as_slice();
            let live = live.as_slice();
            let mut chunks: Vec<(usize, &mut [f32], &mut [bool])> = next
                .as_mut_slice()
                .chunks_mut(chunk_rows * width)
                .zip(reached.chunks_mut(chunk_rows))
                .enumerate()
                .map(|(i, (chunk, reached))| (i * chunk_rows, chunk, reached))
                .collect();
            let deltas = crate::workpool::map_batched_mut(
                &mut chunks,
                threads,
                |(first_row, chunk, reached)| {
                    if masked {
                        matrix.mul_live_rows_into(*first_row, cur, width, live, chunk, reached);
                    } else {
                        matrix.mul_dense_rows_into(*first_row, cur, width, chunk);
                    }
                    let base = *first_row * width;
                    let mut local_max = 0.0f32;
                    for (j, nx) in chunk.iter_mut().enumerate() {
                        *nx = (1.0 - alpha) * *nx + alpha * origin[base + j];
                        let delta = (*nx - cur[base + j]).abs();
                        if delta > local_max {
                            local_max = delta;
                        }
                    }
                    local_max
                },
            );
            deltas.into_iter().fold(0.0f32, f32::max)
        };
        std::mem::swap(&mut current, &mut next);
        if masked {
            live.copy_from_slice(&reached);
        }
        if conv.record(max_delta, config.tolerance()) {
            break;
        }
    }
    Ok(DiffusionResult {
        signal: current,
        iterations: conv.iters,
        residual: conv.residual,
        converged: conv.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::generators;
    use gdsearch_graph::sparse::Normalization;

    fn one_hot_signal(n: usize, node: usize) -> Signal {
        let mut s = Signal::zeros(n, 1);
        s.row_mut(node)[0] = 1.0;
        s
    }

    #[test]
    fn converges_on_ring() {
        let g = generators::ring(10).unwrap();
        let out = diffuse(&g, &one_hot_signal(10, 0), &PprConfig::new(0.3).unwrap()).unwrap();
        assert!(out.converged);
        assert!(out.iterations > 1);
        assert!(out.residual <= 1e-6);
    }

    #[test]
    fn alpha_one_returns_personalization() {
        // a = 1: pure teleport, E = E0 after one step.
        let g = generators::ring(6).unwrap();
        let e0 = one_hot_signal(6, 2);
        let out = diffuse(&g, &e0, &PprConfig::new(1.0).unwrap()).unwrap();
        assert!(out.converged);
        assert!(out.signal.max_abs_diff(&e0).unwrap() < 1e-6);
    }

    #[test]
    fn mass_is_preserved_with_column_stochastic() {
        // Column-stochastic A preserves total mass: columns of
        // a(I-(1-a)A)^{-1} sum to 1.
        let g = generators::social_circles_like_scaled(80, &mut seeded(3)).unwrap();
        let e0 = one_hot_signal(80, 5);
        let cfg = PprConfig::new(0.2)
            .unwrap()
            .with_normalization(Normalization::ColumnStochastic)
            .with_tolerance(1e-8)
            .unwrap();
        let out = diffuse(&g, &e0, &cfg).unwrap();
        assert!(out.converged);
        let mass = out.signal.column_mass()[0];
        assert!((mass - 1.0).abs() < 1e-3, "mass {mass} drifted from 1");
    }

    #[test]
    fn decay_with_distance_on_path() {
        let g = generators::path(9);
        let out = diffuse(&g, &one_hot_signal(9, 0), &PprConfig::new(0.5).unwrap()).unwrap();
        let values: Vec<f32> = (0..9).map(|u| out.signal.row(u)[0]).collect();
        for w in values.windows(2) {
            assert!(
                w[0] > w[1],
                "PPR mass must decay monotonically along a path: {values:?}"
            );
        }
    }

    #[test]
    fn linearity_of_diffusion() {
        // PPR is a linear operator: H(x + y) = Hx + Hy.
        let g = generators::grid(4, 4);
        let cfg = PprConfig::new(0.4).unwrap().with_tolerance(1e-8).unwrap();
        let x = one_hot_signal(16, 0);
        let y = one_hot_signal(16, 9);
        let mut xy = Signal::zeros(16, 1);
        xy.row_mut(0)[0] = 1.0;
        xy.row_mut(9)[0] = 1.0;
        let hx = diffuse(&g, &x, &cfg).unwrap().signal;
        let hy = diffuse(&g, &y, &cfg).unwrap().signal;
        let hxy = diffuse(&g, &xy, &cfg).unwrap().signal;
        for u in 0..16 {
            let sum = hx.row(u)[0] + hy.row(u)[0];
            assert!((sum - hxy.row(u)[0]).abs() < 1e-4);
        }
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let g = generators::ring(50).unwrap();
        let cfg = PprConfig::new(0.01)
            .unwrap()
            .with_tolerance(1e-12)
            .unwrap()
            .with_max_iterations(3);
        let out = diffuse(&g, &one_hot_signal(50, 0), &cfg).unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn threaded_sweeps_are_bitwise_identical() {
        let g = generators::social_circles_like_scaled(120, &mut seeded(9)).unwrap();
        let mut e0 = Signal::zeros(120, 5);
        for u in 0..120 {
            for d in 0..5 {
                e0.row_mut(u)[d] = ((u * 5 + d) as f32 * 0.17).sin();
            }
        }
        let cfg = PprConfig::new(0.4).unwrap().with_tolerance(1e-7).unwrap();
        let reference = diffuse(&g, &e0, &cfg).unwrap();
        for threads in [2, 3, 4, 16] {
            let out = diffuse_threaded(&g, &e0, &cfg, threads).unwrap();
            assert_eq!(out.signal.as_slice(), reference.signal.as_slice());
            assert_eq!(out.iterations, reference.iterations);
            assert_eq!(out.residual, reference.residual);
            assert_eq!(out.converged, reference.converged);
        }
    }

    #[test]
    fn threaded_handles_more_threads_than_rows() {
        let g = generators::ring(3).unwrap();
        let out = diffuse_threaded(&g, &one_hot_signal(3, 0), &PprConfig::default(), 64).unwrap();
        let reference = diffuse(&g, &one_hot_signal(3, 0), &PprConfig::default()).unwrap();
        assert_eq!(out.signal.as_slice(), reference.signal.as_slice());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = generators::ring(5).unwrap();
        let e0 = Signal::zeros(6, 1);
        assert!(matches!(
            diffuse(&g, &e0, &PprConfig::default()),
            Err(DiffusionError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn zero_signal_stays_zero() {
        let g = generators::complete(5);
        let out = diffuse(&g, &Signal::zeros(5, 3), &PprConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.signal.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn isolated_node_keeps_teleport_share_only() {
        let g = gdsearch_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        let e0 = one_hot_signal(3, 2);
        let out = diffuse(&g, &e0, &PprConfig::new(0.5).unwrap()).unwrap();
        // Node 2 is isolated, so its row of A is empty: e = (1-a)*0 + a*1 = a
        // at every iteration, exactly alpha.
        assert!((out.signal.row(2)[0] - 0.5).abs() < 1e-6);
        assert_eq!(out.signal.row(0)[0], 0.0);
    }

    fn seeded(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
