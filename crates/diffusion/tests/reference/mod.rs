//! The dense sweep's reference model, shared by the integration tests and
//! the sweep's own unit tests (`src/lib.rs` includes this file under
//! `cfg(test)`): its parent module provides `PprConfig` and `Signal`.

use super::{PprConfig, Signal};
use gdsearch_graph::sparse::edge_weight;
use gdsearch_graph::Graph;

/// The dense sweep spelled out — every neighbour gathered in adjacency
/// order, nothing skipped, into a fresh second iterate — as `(signal,
/// iterations, residual, converged)`. A NaN cell residual makes the
/// residual NaN, and a non-finite residual ends the iteration.
pub fn reference_sweep(g: &Graph, e0: &Signal, cfg: &PprConfig) -> (Vec<f32>, usize, f32, bool) {
    let (dim, a) = (e0.dim(), cfg.alpha());
    let mut cur = e0.as_slice().to_vec();
    let (mut iterations, mut residual, mut converged) = (0, f32::INFINITY, false);
    while iterations < cfg.max_iterations() {
        let mut next = vec![0.0f32; cur.len()];
        residual = 0.0;
        for u in g.node_ids() {
            let row = u.index() * dim..(u.index() + 1) * dim;
            for v in g.neighbors(u) {
                let w = edge_weight(g.degree(v));
                let src = &cur[v.index() * dim..][..dim];
                for (o, s) in next[row.clone()].iter_mut().zip(src) {
                    *o += w * s;
                }
            }
            for j in row {
                next[j] = (1.0 - a) * next[j] + a * e0.as_slice()[j];
                let delta = (next[j] - cur[j]).abs();
                if delta > residual || delta.is_nan() {
                    residual = delta;
                }
            }
        }
        cur = next;
        iterations += 1;
        converged = residual <= cfg.tolerance();
        if converged || !residual.is_finite() {
            break;
        }
    }
    (cur, iterations, residual, converged)
}
