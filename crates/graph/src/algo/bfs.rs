//! Breadth-first search: distances, rings and eccentricities.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "node indices are below a Graph's node count, which every Graph constructor takes as a u32"
)]

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Computes BFS hop distances from `source` to every node.
///
/// Unreachable nodes map to `None`.
///
/// # Example
///
/// ```
/// use gdsearch_graph::{generators, NodeId};
/// use gdsearch_graph::algo::bfs;
///
/// let g = generators::path(4); // 0 - 1 - 2 - 3
/// let d = bfs::distances(&g, NodeId::new(0));
/// assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
/// ```
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn distances(g: &Graph, source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source.index()] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        // Queued nodes always have a distance; skip defensively if not.
        let Some(du) = dist[u.index()] else { continue };
        for v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Groups nodes by exact BFS distance from `source`: `rings[d]` holds every
/// node at distance `d`, for `d <= max_distance`.
///
/// Ring 0 is always `[source]`. Rings beyond the graph's reach are empty.
/// The evaluation harness uses this to sample one querying node per ring
/// around the gold document's host (paper §V-C).
///
/// # Panics
///
/// Panics if `source` is out of range.
pub fn distance_rings(g: &Graph, source: NodeId, max_distance: u32) -> Vec<Vec<NodeId>> {
    let dist = distances(g, source);
    let mut rings = vec![Vec::new(); max_distance as usize + 1];
    for (i, d) in dist.iter().enumerate() {
        if let Some(d) = d {
            if *d <= max_distance {
                rings[*d as usize].push(NodeId::new(i as u32));
            }
        }
    }
    rings
}

/// Eccentricity of `u`: the maximum finite BFS distance to any reachable
/// node. Returns 0 for an isolated node.
///
/// # Panics
///
/// Panics if `u` is out of range.
pub fn eccentricity(g: &Graph, u: NodeId) -> u32 {
    distances(g, u).iter().flatten().copied().max().unwrap_or(0)
}

/// Estimates the diameter (longest shortest path) of the largest component by
/// double-sweep BFS: run BFS from `start`, then from the farthest node found.
/// Exact on trees; a strong lower bound in general.
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn diameter_lower_bound(g: &Graph, start: NodeId) -> u32 {
    let d1 = distances(g, start);
    let far = d1
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|d| (i, d)))
        .max_by_key(|&(_, d)| d)
        .map(|(i, _)| NodeId::new(i as u32))
        .unwrap_or(start);
    eccentricity(g, far)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn distances_on_ring() {
        let g = generators::ring(6).unwrap();
        let d = distances(&g, NodeId::new(0));
        assert_eq!(
            d,
            vec![Some(0), Some(1), Some(2), Some(3), Some(2), Some(1)]
        );
    }

    #[test]
    fn distances_mark_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let d = distances(&g, NodeId::new(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn rings_partition_reachable_nodes() {
        let g = generators::grid(4, 4);
        let rings = distance_rings(&g, NodeId::new(0), 6);
        let total: usize = rings.iter().map(Vec::len).sum();
        assert_eq!(total, 16);
        assert_eq!(rings[0], vec![NodeId::new(0)]);
        // Manhattan distance on the grid.
        assert_eq!(rings[1].len(), 2);
        assert_eq!(rings[6].len(), 1); // opposite corner
    }

    #[test]
    fn rings_respect_max_distance() {
        let g = generators::path(10);
        let rings = distance_rings(&g, NodeId::new(0), 3);
        assert_eq!(rings.len(), 4);
        assert_eq!(rings[3], vec![NodeId::new(3)]);
    }

    #[test]
    fn eccentricity_and_diameter() {
        let g = generators::path(7);
        assert_eq!(eccentricity(&g, NodeId::new(0)), 6);
        assert_eq!(eccentricity(&g, NodeId::new(3)), 3);
        assert_eq!(diameter_lower_bound(&g, NodeId::new(3)), 6);
    }

    #[test]
    fn eccentricity_isolated_node() {
        let g = Graph::empty(3);
        assert_eq!(eccentricity(&g, NodeId::new(1)), 0);
    }

    use crate::Graph;
}
