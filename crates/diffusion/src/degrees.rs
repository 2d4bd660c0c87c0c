//! Degree-derived scalars and the certified push residual bound, shared by
//! the FIFO push engine ([`crate::push`]) and the sharded round-scheduled
//! push ([`crate::sharded`]).
//!
//! The L∞ bound derivations live in the [`crate::push`] module docs; this
//! module keeps the *formulas* in exactly one place so the two engines
//! cannot drift apart — the bound is what certifies that push results are
//! interchangeable with the sweep engines at
//! [`PprConfig::tolerance`](crate::PprConfig::tolerance).

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_graph::sparse::Normalization;
use gdsearch_graph::{Graph, ShardedGraph};

/// Per-node degree scalars plus the normalization they are read under.
///
/// A multi-machine deployment would hold only the local + halo entries per
/// shard; in process these are flat `O(N)` arrays (the sharding work
/// targets the `O(E)` adjacency and `O(N·dim)` signal state).
///
/// The tables are rebuilt on every diffusion call — beside the scratch
/// allocation, the only `O(N)` work an output-sensitive push still pays —
/// so only those `norm` reads are filled; the other inverse table stays
/// empty.
pub(crate) struct DegreeTables {
    pub norm: Normalization,
    /// `1/deg(u)` (0 for isolated nodes; only used along edges). Empty
    /// under [`Normalization::Symmetric`], which never reads it.
    pub inv_deg: Vec<f32>,
    /// `1/sqrt(deg(u))` (1 for isolated nodes, the safe bound convention).
    /// Filled under [`Normalization::Symmetric`] only.
    pub inv_sqrt_deg: Vec<f32>,
    /// `max(deg(u), 1)` — the frontier threshold scale.
    pub deg_scale: Vec<f32>,
    /// `max(max_u deg(u), 1)`.
    pub max_deg: f32,
}

impl DegreeTables {
    /// Builds the tables from one degree per node, in node order.
    fn new(norm: Normalization, degrees: impl Iterator<Item = usize>) -> Self {
        let (lo, _) = degrees.size_hint();
        let symmetric = norm == Normalization::Symmetric;
        let mut inv_deg = Vec::with_capacity(if symmetric { 0 } else { lo });
        let mut inv_sqrt_deg = Vec::with_capacity(if symmetric { lo } else { 0 });
        let mut deg_scale = Vec::with_capacity(lo);
        let mut max_deg = 1usize;
        for deg in degrees {
            let scale = deg.max(1) as f32;
            deg_scale.push(scale);
            if symmetric {
                inv_sqrt_deg.push(1.0 / scale.sqrt());
            } else {
                inv_deg.push(if deg > 0 { 1.0 / scale } else { 0.0 });
            }
            max_deg = max_deg.max(deg);
        }
        DegreeTables {
            norm,
            inv_deg,
            inv_sqrt_deg,
            deg_scale,
            max_deg: max_deg as f32,
        }
    }

    /// Tables of a monolithic graph.
    pub fn from_graph(graph: &Graph, norm: Normalization) -> Self {
        Self::new(norm, graph.node_ids().map(|u| graph.degree(u)))
    }

    /// Tables of a partitioned graph (shards ascending = node order).
    pub fn from_sharded(sharded: &ShardedGraph, norm: Normalization) -> Self {
        Self::new(
            norm,
            sharded
                .shards()
                .iter()
                .flat_map(|s| (0..s.num_local_nodes()).map(move |l| s.local_degree(l))),
        )
    }

    /// Rigorous bound on `‖M r‖∞`, the L∞ distance between a push
    /// estimate and the PPR fixed point, over residuals given as
    /// `(global node index, value)` in ascending node order (derivations
    /// in the [`crate::push`] module docs).
    ///
    /// Taking an iterator lets the flat engine pass its one residual array
    /// and the sharded engine its concatenated per-shard blocks — same
    /// accumulation order, same float operations, one formula.
    pub fn residual_bound(&self, residuals: impl Iterator<Item = (usize, f32)>) -> f32 {
        match self.norm {
            Normalization::ColumnStochastic => {
                let mut sum = 0.0f32;
                let mut theta = 0.0f32;
                for (u, r) in residuals {
                    sum += r;
                    theta = theta.max(r / self.deg_scale[u]);
                }
                sum.min(self.max_deg * theta)
            }
            Normalization::RowStochastic => residuals.fold(0.0f32, |m, (_, r)| m.max(r)),
            Normalization::Symmetric => {
                let scaled_max =
                    residuals.fold(0.0f32, |m, (u, r)| m.max(r * self.inv_sqrt_deg[u]));
                self.max_deg.sqrt() * scaled_max
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::generators;
    use rand::SeedableRng;

    #[test]
    fn flat_and_sharded_constructions_agree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let g = generators::social_circles_like_scaled(60, &mut rng).unwrap();
        let sg = ShardedGraph::from_graph(&g, 4).unwrap();
        for norm in [
            Normalization::ColumnStochastic,
            Normalization::RowStochastic,
            Normalization::Symmetric,
        ] {
            let flat = DegreeTables::from_graph(&g, norm);
            let sharded = DegreeTables::from_sharded(&sg, norm);
            assert_eq!(flat.inv_deg, sharded.inv_deg);
            assert_eq!(flat.inv_sqrt_deg, sharded.inv_sqrt_deg);
            assert_eq!(flat.deg_scale, sharded.deg_scale);
            assert_eq!(flat.max_deg, sharded.max_deg);
            // Exactly the inverse table `norm` reads is filled.
            let symmetric = norm == Normalization::Symmetric;
            assert_eq!(flat.inv_sqrt_deg.len(), if symmetric { 60 } else { 0 });
            assert_eq!(flat.inv_deg.len(), if symmetric { 0 } else { 60 });
            assert_eq!(flat.deg_scale.len(), 60);
        }
    }

    #[test]
    fn bound_is_zero_for_zero_residuals_and_positive_otherwise() {
        let g = generators::grid(3, 3);
        for norm in [
            Normalization::ColumnStochastic,
            Normalization::RowStochastic,
            Normalization::Symmetric,
        ] {
            let t = DegreeTables::from_graph(&g, norm);
            let zero = vec![0.0f32; 9];
            assert_eq!(t.residual_bound(zero.iter().copied().enumerate()), 0.0);
            let mut one = zero.clone();
            one[4] = 0.25;
            assert!(t.residual_bound(one.iter().copied().enumerate()) > 0.0);
        }
    }
}
