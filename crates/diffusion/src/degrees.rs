//! Degree-derived scalars and the certified push residual bound, shared by
//! the FIFO push engine ([`crate::push`]) and the sharded round-scheduled
//! push ([`crate::sharded`]).
//!
//! The L∞ bound derivations live in the [`crate::push`] module docs; this
//! module keeps the *formulas* in exactly one place, as functions of a
//! degree, so the two engines cannot drift apart — the bound is what
//! certifies that push results are interchangeable with the sweep engines
//! at [`PprConfig::tolerance`](crate::PprConfig::tolerance).
//!
//! The FIFO push builds no table: it reads each degree off the graph's CSR
//! offsets ([`Graph::degree`](gdsearch_graph::Graph::degree),
//! [`Graph::max_degree`](gdsearch_graph::Graph::max_degree)) and applies
//! these functions where it needs a scalar, so a call costs nothing in `N`.
//! The sharded push fills [`DegreeTables`] through the same functions.

use gdsearch_graph::sparse::Normalization;
use gdsearch_graph::ShardedGraph;

/// `max(deg, 1)` — the frontier threshold scale.
#[inline]
pub(crate) fn deg_scale(deg: usize) -> f32 {
    deg.max(1) as f32
}

/// `1/deg` (0 for an isolated node; only read along edges).
#[inline]
pub(crate) fn inv_deg(deg: usize) -> f32 {
    if deg > 0 {
        1.0 / deg_scale(deg)
    } else {
        0.0
    }
}

/// `1/sqrt(max(deg, 1))` (1 for an isolated node, the safe bound
/// convention).
#[inline]
pub(crate) fn inv_sqrt_deg(deg: usize) -> f32 {
    1.0 / deg_scale(deg).sqrt()
}

/// Rigorous bound on `‖M r‖∞`, the L∞ distance between a push estimate and
/// the PPR fixed point, over residuals given as `(degree of the node,
/// value)` in ascending node order, on a graph whose largest degree is
/// `max_degree` (derivations in the [`crate::push`] module docs).
///
/// Taking an iterator lets the flat engine pass its touched set and the
/// sharded engine its concatenated per-shard blocks — same accumulation
/// order, same float operations, one formula.
pub(crate) fn residual_bound(
    norm: Normalization,
    max_degree: usize,
    residuals: impl Iterator<Item = (usize, f32)>,
) -> f32 {
    let max_deg = deg_scale(max_degree);
    match norm {
        Normalization::ColumnStochastic => {
            let mut sum = 0.0f32;
            let mut theta = 0.0f32;
            for (deg, r) in residuals {
                sum += r;
                theta = theta.max(r / deg_scale(deg));
            }
            sum.min(max_deg * theta)
        }
        Normalization::RowStochastic => residuals.fold(0.0f32, |m, (_, r)| m.max(r)),
        Normalization::Symmetric => {
            let scaled_max = residuals.fold(0.0f32, |m, (deg, r)| m.max(r * inv_sqrt_deg(deg)));
            max_deg.sqrt() * scaled_max
        }
    }
}

/// Per-node degree scalars of a partitioned graph, plus the normalization
/// they are read under: the sharded push's tables, filled once per call
/// through the functions above.
///
/// A multi-machine deployment would hold only the local + halo entries per
/// shard; in process these are flat `O(N)` arrays (the sharding work
/// targets the `O(E)` adjacency and `O(N·dim)` signal state). Only the
/// inverse table `norm` reads is filled; the other stays empty.
pub(crate) struct DegreeTables {
    pub norm: Normalization,
    /// [`inv_deg`] per node. Empty under [`Normalization::Symmetric`],
    /// which never reads it.
    pub inv_deg: Vec<f32>,
    /// [`inv_sqrt_deg`] per node. Filled under
    /// [`Normalization::Symmetric`] only.
    pub inv_sqrt_deg: Vec<f32>,
    /// [`deg_scale`] per node.
    pub deg_scale: Vec<f32>,
    /// The largest degree, as [`residual_bound`] takes it.
    pub max_degree: usize,
}

impl DegreeTables {
    /// Tables of a partitioned graph (shards ascending = node order).
    pub fn from_sharded(sharded: &ShardedGraph, norm: Normalization) -> Self {
        let degrees = sharded
            .shards()
            .iter()
            .flat_map(|s| (0..s.num_local_nodes()).map(move |l| s.local_degree(l)));
        let symmetric = norm == Normalization::Symmetric;
        let n = sharded.num_nodes();
        let mut tables = DegreeTables {
            norm,
            inv_deg: Vec::with_capacity(if symmetric { 0 } else { n }),
            inv_sqrt_deg: Vec::with_capacity(if symmetric { n } else { 0 }),
            deg_scale: Vec::with_capacity(n),
            max_degree: 0,
        };
        for deg in degrees {
            tables.deg_scale.push(deg_scale(deg));
            if symmetric {
                tables.inv_sqrt_deg.push(inv_sqrt_deg(deg));
            } else {
                tables.inv_deg.push(inv_deg(deg));
            }
            tables.max_degree = tables.max_degree.max(deg);
        }
        tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::generators;
    use rand::SeedableRng;

    const NORMS: [Normalization; 3] = [
        Normalization::ColumnStochastic,
        Normalization::RowStochastic,
        Normalization::Symmetric,
    ];

    #[test]
    fn flat_and_sharded_constructions_agree() {
        // The sharded tables hold, node by node, the functions the flat
        // push applies to `Graph::degree`.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = generators::social_circles_like_scaled(60, &mut rng).unwrap();
        let sg = ShardedGraph::from_graph(&g, 4).unwrap();
        let degrees: Vec<usize> = g.node_ids().map(|u| g.degree(u)).collect();
        let table = |f: fn(usize) -> f32| degrees.iter().map(|&d| f(d)).collect::<Vec<_>>();
        for norm in NORMS {
            let sharded = DegreeTables::from_sharded(&sg, norm);
            assert_eq!(sharded.deg_scale, table(deg_scale));
            assert_eq!(sharded.max_degree, g.max_degree());
            // Exactly the inverse table `norm` reads is filled.
            if norm == Normalization::Symmetric {
                assert_eq!(sharded.inv_sqrt_deg, table(inv_sqrt_deg));
                assert!(sharded.inv_deg.is_empty());
            } else {
                assert_eq!(sharded.inv_deg, table(inv_deg));
                assert!(sharded.inv_sqrt_deg.is_empty());
            }
        }
        // Isolated nodes: no inverse degree, a unit scale.
        assert_eq!((inv_deg(0), inv_sqrt_deg(0), deg_scale(0)), (0.0, 1.0, 1.0));
    }

    #[test]
    fn bound_is_zero_for_zero_residuals_and_positive_otherwise() {
        let g = generators::grid(3, 3);
        let degrees: Vec<usize> = g.node_ids().map(|u| g.degree(u)).collect();
        for norm in NORMS {
            let bound = |residual: &[f32]| {
                let pairs = degrees.iter().copied().zip(residual.iter().copied());
                residual_bound(norm, g.max_degree(), pairs)
            };
            let zero = vec![0.0f32; 9];
            assert_eq!(bound(&zero), 0.0);
            let mut one = zero.clone();
            one[4] = 0.25;
            assert!(bound(&one) > 0.0);
        }
    }
}
