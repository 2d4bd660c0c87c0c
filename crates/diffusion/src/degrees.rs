//! The frontier threshold scale and the certified push residual bound,
//! shared by the FIFO push engine ([`crate::push`]) and the sharded
//! round-scheduled push ([`crate::sharded`]). The edge weight `1/deg(v)`
//! both engines forward mass with is
//! [`edge_weight`](gdsearch_graph::sparse::edge_weight).
//!
//! The L∞ bound derivations live in the [`crate::push`] module docs; this
//! module keeps the *formulas* in exactly one place, as functions of a
//! degree, so the two engines cannot drift apart — the bound is what
//! certifies that push results are interchangeable with the sweep engines
//! at [`PprConfig::tolerance`](crate::PprConfig::tolerance).
//!
//! Neither engine builds a table: each reads a degree off the CSR offsets
//! it already holds ([`Graph::degree`](gdsearch_graph::Graph::degree) for
//! the FIFO push, [`GraphShard::local_degree`](gdsearch_graph::GraphShard::local_degree)
//! for the sharded one) and applies these functions where it needs a
//! scalar, so a call costs nothing in `N`.

use crate::convergence::{max_or_nan, min_or_nan};

/// `max(deg, 1)` — the frontier threshold scale.
#[inline]
pub(crate) fn deg_scale(deg: usize) -> f32 {
    deg.max(1) as f32
}

/// Rigorous bound on `‖M r‖∞`, the L∞ distance between a push estimate and
/// the PPR fixed point, over residuals given as `(degree of the node,
/// value)` in ascending node order, on a graph whose largest degree is
/// `max_degree`: `min(‖r‖₁, d_max · max_u r(u)/deg(u))` (derivation in the
/// [`crate::push`] module docs).
///
/// Taking an iterator lets the flat engine pass its touched set and the
/// sharded engine its concatenated per-shard blocks — same accumulation
/// order, same float operations, one formula.
///
/// A NaN residual makes the bound NaN, so no engine certifies past it; on
/// finite residuals the bound is the plain `min` of the plain `max`.
pub(crate) fn residual_bound(
    max_degree: usize,
    residuals: impl Iterator<Item = (usize, f32)>,
) -> f32 {
    let mut sum = 0.0f32;
    let mut theta = 0.0f32;
    for (deg, r) in residuals {
        sum += r;
        theta = max_or_nan(theta, r / deg_scale(deg));
    }
    min_or_nan(sum, deg_scale(max_degree) * theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::generators;
    use gdsearch_graph::sparse::edge_weight;

    #[test]
    fn isolated_nodes_have_no_inverse_degree_and_a_unit_scale() {
        assert_eq!((edge_weight(0), deg_scale(0)), (0.0, 1.0));
    }

    #[test]
    fn bound_is_zero_for_zero_residuals_and_positive_otherwise() {
        let g = generators::grid(3, 3);
        let degrees: Vec<usize> = g.node_ids().map(|u| g.degree(u)).collect();
        let bound = |residual: &[f32]| {
            let pairs = degrees.iter().copied().zip(residual.iter().copied());
            residual_bound(g.max_degree(), pairs)
        };
        let zero = vec![0.0f32; 9];
        assert_eq!(bound(&zero), 0.0);
        let mut one = zero.clone();
        one[4] = 0.25;
        assert!(bound(&one) > 0.0);
    }

    #[test]
    fn a_nan_residual_makes_the_bound_nan_and_an_infinite_one_infinite() {
        let g = generators::grid(3, 3);
        let bound = |residual: &[f32]| {
            let pairs = g
                .node_ids()
                .map(|u| g.degree(u))
                .zip(residual.iter().copied());
            residual_bound(g.max_degree(), pairs)
        };
        // First, last and middle position, beside finite residuals: a
        // NaN-dropping `max` or `min` certifies 1.0 · 4 or the finite sum.
        for at in [0, 4, 8] {
            let mut residual = vec![0.125f32; 9];
            residual[at] = f32::NAN;
            assert!(bound(&residual).is_nan(), "NaN at {at}");
            residual[at] = f32::INFINITY;
            assert_eq!(bound(&residual), f32::INFINITY, "∞ at {at}");
        }
        // Finite residuals: the plain `min(‖r‖₁, d_max · θ)`.
        let mut residual = vec![0.0f32; 9];
        residual[4] = 0.5;
        assert_eq!(bound(&residual), (0.5f32).min(4.0 * (0.5 / 4.0)));
        residual[0] = 0.5;
        assert_eq!(bound(&residual), (1.0f32).min(4.0 * (0.5 / 2.0)));
    }

    #[test]
    fn min_and_max_or_nan_keep_a_nan_from_either_side() {
        for (a, b) in [(f32::NAN, 1.0), (1.0, f32::NAN), (f32::NAN, f32::NAN)] {
            assert!(min_or_nan(a, b).is_nan() && max_or_nan(a, b).is_nan());
        }
        assert_eq!((min_or_nan(1.0, 2.0), max_or_nan(1.0, 2.0)), (1.0, 2.0));
        assert_eq!((min_or_nan(2.0, 1.0), max_or_nan(2.0, 1.0)), (1.0, 2.0));
    }
}
