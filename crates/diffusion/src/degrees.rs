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
pub(crate) fn residual_bound(
    max_degree: usize,
    residuals: impl Iterator<Item = (usize, f32)>,
) -> f32 {
    let mut sum = 0.0f32;
    let mut theta = 0.0f32;
    for (deg, r) in residuals {
        sum += r;
        theta = theta.max(r / deg_scale(deg));
    }
    sum.min(deg_scale(max_degree) * theta)
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
}
