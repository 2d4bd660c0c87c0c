//! Exact dense evaluation of the PPR filter by Gaussian elimination.
//!
//! Solves `(I − (1−a) A) E = a E0` directly. Cubic in the node count, so
//! this is a *validation oracle* for small graphs: every iterative engine
//! is tested against it.

#![expect(
    clippy::expect_used,
    reason = "audited invariant expect()s: each site's message states the precondition that makes it unreachable"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "f64 -> f32: the exact solver computes in f64 and returns at the Signal's f32 precision on purpose"
)]

use gdsearch_graph::sparse::{transition_matrix, Normalization};
use gdsearch_graph::Graph;

use crate::{DiffusionError, PprConfig, Signal};

/// Computes the exact PPR diffusion `E = a (I − (1−a) A)^{-1} E0`.
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] if `e0` and `graph` disagree,
/// and [`DiffusionError::InvalidParameter`] if the system is numerically
/// singular (cannot happen for `a ∈ (0,1]` with a stochastic `A`, but can
/// for hand-built matrices).
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::{exact, power, PprConfig, Signal};
/// use gdsearch_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::grid(3, 3);
/// let mut e0 = Signal::zeros(9, 1);
/// e0.row_mut(4)[0] = 1.0;
/// let cfg = PprConfig::new(0.3)?.with_tolerance(1e-7)?;
/// let truth = exact::diffuse(&g, &e0, &cfg)?;
/// let approx = power::diffuse(&g, &e0, &cfg)?.signal;
/// assert!(truth.max_abs_diff(&approx)? < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn diffuse(graph: &Graph, e0: &Signal, config: &PprConfig) -> Result<Signal, DiffusionError> {
    let n = graph.num_nodes();
    if e0.num_nodes() != n {
        return Err(DiffusionError::ShapeMismatch {
            expected: (n, e0.dim()),
            got: (e0.num_nodes(), e0.dim()),
        });
    }
    let dim = e0.dim();
    if n == 0 || dim == 0 {
        return Ok(Signal::zeros(n, dim));
    }
    let alpha = config.alpha() as f64;
    let a = transition_matrix(graph, Normalization::ColumnStochastic);

    // Dense system M = I - (1 - a) A.
    let mut m = vec![0.0f64; n * n];
    for r in 0..n {
        m[r * n + r] = 1.0;
        for (c, v) in a.row(r) {
            m[r * n + c as usize] -= (1.0 - alpha) * v as f64;
        }
    }
    // Right-hand side B = a * E0 (n × dim), solved simultaneously.
    let mut b = vec![0.0f64; n * dim];
    for (i, v) in e0.as_slice().iter().enumerate() {
        b[i] = alpha * *v as f64;
    }

    // Gaussian elimination with partial pivoting on [M | B].
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| m[r1 * n + col].abs().total_cmp(&m[r2 * n + col].abs()))
            .expect("non-empty range");
        if m[pivot_row * n + col].abs() < 1e-12 {
            return Err(DiffusionError::invalid_parameter(
                "singular diffusion system",
            ));
        }
        if pivot_row != col {
            for k in 0..n {
                m.swap(col * n + k, pivot_row * n + k);
            }
            for k in 0..dim {
                b.swap(col * dim + k, pivot_row * dim + k);
            }
        }
        let pivot = m[col * n + col];
        for r in (col + 1)..n {
            let factor = m[r * n + col] / pivot;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                m[r * n + k] -= factor * m[col * n + k];
            }
            for k in 0..dim {
                b[r * dim + k] -= factor * b[col * dim + k];
            }
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let pivot = m[col * n + col];
        for k in 0..dim {
            let mut acc = b[col * dim + k];
            for j in (col + 1)..n {
                acc -= m[col * n + j] * b[j * dim + k];
            }
            b[col * dim + k] = acc / pivot;
        }
    }

    let mut out = Signal::zeros(n, dim);
    for (o, v) in out.as_mut_slice().iter_mut().zip(&b) {
        *o = *v as f32;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power;
    use gdsearch_graph::generators;

    fn one_hot(n: usize, u: usize) -> Signal {
        let mut s = Signal::zeros(n, 1);
        s.row_mut(u)[0] = 1.0;
        s
    }

    #[test]
    fn matches_power_iteration_on_small_graphs() {
        let mut rng = seeded(1);
        // (graph, source, alpha): a fresh 40-node social graph per alpha,
        // then a 4 × 4 grid.
        let mut cases: Vec<(Graph, usize, f32)> = [0.1f32, 0.5, 0.9]
            .into_iter()
            .map(|alpha| {
                let g = generators::social_circles_like_scaled(40, &mut rng).unwrap();
                (g, 7, alpha)
            })
            .collect();
        cases.push((generators::grid(4, 4), 3, 0.4));
        for (g, source, alpha) in cases {
            let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-8).unwrap();
            let e0 = one_hot(g.num_nodes(), source);
            let truth = diffuse(&g, &e0, &cfg).unwrap();
            let approx = power::diffuse(&g, &e0, &cfg).unwrap().signal;
            assert!(
                truth.max_abs_diff(&approx).unwrap() < 1e-5,
                "{} nodes, alpha {alpha}",
                g.num_nodes()
            );
        }
    }

    #[test]
    fn closed_form_on_two_node_graph() {
        // K2 with column-stochastic A = [[0,1],[1,0]]; e0 = δ0.
        // Fixed point: e0' = a + (1-a) e1', e1' = (1-a) e0'.
        // => e0' = a / (1 - (1-a)^2) = a / (a(2-a)) = 1/(2-a)
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let alpha = 0.5f64;
        let cfg = PprConfig::new(alpha as f32).unwrap();
        let out = diffuse(&g, &one_hot(2, 0), &cfg).unwrap();
        let expected0 = 1.0 / (2.0 - alpha);
        let expected1 = (1.0 - alpha) / (2.0 - alpha);
        assert!((out.row(0)[0] as f64 - expected0).abs() < 1e-6);
        assert!((out.row(1)[0] as f64 - expected1).abs() < 1e-6);
    }

    #[test]
    fn multi_dim_signals_solve_together() {
        let g = generators::ring(12).unwrap();
        let cfg = PprConfig::new(0.3).unwrap().with_tolerance(1e-8).unwrap();
        let mut e0 = Signal::zeros(12, 3);
        e0.row_mut(0).copy_from_slice(&[1.0, 0.0, 2.0]);
        e0.row_mut(6).copy_from_slice(&[0.0, 1.0, -1.0]);
        let truth = diffuse(&g, &e0, &cfg).unwrap();
        let approx = power::diffuse(&g, &e0, &cfg).unwrap().signal;
        assert!(truth.max_abs_diff(&approx).unwrap() < 1e-5);
    }

    #[test]
    fn empty_graph_and_zero_dim() {
        let g = Graph::empty(0);
        let out = diffuse(&g, &Signal::zeros(0, 4), &PprConfig::default()).unwrap();
        assert_eq!(out.num_nodes(), 0);
        let g = generators::ring(3).unwrap();
        let out = diffuse(&g, &Signal::zeros(3, 0), &PprConfig::default()).unwrap();
        assert_eq!(out.dim(), 0);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = generators::ring(4).unwrap();
        assert!(diffuse(&g, &Signal::zeros(5, 1), &PprConfig::default()).is_err());
    }

    use gdsearch_graph::Graph;

    fn seeded(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
