//! Clustering coefficients.
//!
//! Used to validate that the synthetic social graph reproduces the high
//! clustering of the Facebook social-circles dataset (local clustering
//! ≈ 0.6 there), which matters because diffusion locality interacts with
//! triangle density.

use crate::{Graph, NodeId};

/// Local clustering coefficient of `u`: the fraction of neighbor pairs that
/// are themselves connected. Zero for nodes of degree < 2.
///
/// # Panics
///
/// Panics if `u` is out of range.
pub fn local_clustering(g: &Graph, u: NodeId) -> f64 {
    let neighbors = g.neighbor_slice(u);
    let k = neighbors.len();
    if k < 2 {
        return 0.0;
    }
    let mut links = 0usize;
    for (i, &a) in neighbors.iter().enumerate() {
        for &b in &neighbors[i + 1..] {
            if g.has_edge(a, b) {
                links += 1;
            }
        }
    }
    2.0 * links as f64 / (k * (k - 1)) as f64
}

/// Average of [`local_clustering`] over all nodes (Watts–Strogatz
/// definition). Zero for the empty graph.
pub fn average_clustering(g: &Graph) -> f64 {
    if g.num_nodes() == 0 {
        return 0.0;
    }
    let sum: f64 = g.node_ids().map(|u| local_clustering(g, u)).sum();
    sum / g.num_nodes() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn triangle_is_fully_clustered() {
        let g = generators::complete(3);
        assert_eq!(local_clustering(&g, NodeId::new(0)), 1.0);
        assert_eq!(average_clustering(&g), 1.0);
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = generators::star(6);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn low_degree_nodes_are_zero() {
        let g = generators::path(3);
        assert_eq!(local_clustering(&g, NodeId::new(0)), 0.0);
        assert_eq!(local_clustering(&g, NodeId::new(1)), 0.0);
    }

    #[test]
    fn paw_graph_values() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let g = crate::Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]).unwrap();
        // Node 0 has degree 3: one closed pair of three => 1/3.
        assert!((local_clustering(&g, NodeId::new(0)) - 1.0 / 3.0).abs() < 1e-12);
        // Nodes 1, 2: degree 2, their single pair is closed => 1.
        assert_eq!(local_clustering(&g, NodeId::new(1)), 1.0);
        // Average: (1/3 + 1 + 1 + 0) / 4.
        let expected = (1.0 / 3.0 + 2.0) / 4.0;
        assert!((average_clustering(&g) - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = crate::Graph::empty(0);
        assert_eq!(average_clustering(&g), 0.0);
    }
}
