//! Node-range sharding of a [`Graph`] — the substrate for diffusion on
//! partitioned state.
//!
//! [`ShardedGraph::from_graph`] splits the node set `0..n` into `S`
//! contiguous ranges, chosen so the adjacency **bytes** (not the node
//! counts) balance across shards. Each [`GraphShard`] owns the CSR rows of
//! its range plus a compact **halo** index: the sorted, deduplicated set of
//! non-local endpoints referenced by its rows. The halo's owners are the
//! shard's exchange peers ([`ShardedGraph::peers_of`]) — exactly the
//! pattern of a multi-machine deployment (PowerWalk-style node-partitioned
//! PPR), and the links the sharded push in the diffusion crate moves
//! cross-shard residual mass over.
//!
//! # Example
//!
//! ```
//! use gdsearch_graph::{Graph, NodeId, ShardedGraph};
//!
//! # fn main() -> Result<(), gdsearch_graph::GraphError> {
//! let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])?;
//! let sharded = ShardedGraph::from_graph(&g, 2)?;
//! assert_eq!(sharded.num_shards(), 2);
//! assert_eq!(sharded.num_nodes(), 6);
//! // Graph-compatible accessors agree with the monolithic CSR.
//! assert_eq!(sharded.degree(NodeId::new(3)), g.degree(NodeId::new(3)));
//! assert_eq!(
//!     sharded.neighbor_slice(NodeId::new(3)),
//!     g.neighbor_slice(NodeId::new(3))
//! );
//! # Ok(())
//! # }
//! ```

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
    reason = "node counts and row indices are at most a Graph's node count, which every Graph constructor takes as a u32"
)]

use std::fmt;

use crate::{Graph, GraphError, NodeId};

/// One contiguous node range of a [`ShardedGraph`], owning its CSR rows and
/// the halo index of cross-shard edges.
#[derive(Clone, PartialEq, Eq)]
pub struct GraphShard {
    /// First owned node id.
    start: u32,
    /// One past the last owned node id.
    end: u32,
    /// `offsets[local]..offsets[local + 1]` indexes `neighbors` for the
    /// local row `local` (global id `start + local`).
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists of the owned rows, with *global*
    /// node ids.
    neighbors: Vec<NodeId>,
    /// Sorted, deduplicated non-local endpoints referenced by the owned
    /// rows.
    halo: Vec<NodeId>,
}

impl GraphShard {
    /// First owned node id.
    #[inline]
    #[must_use]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// One past the last owned node id.
    #[inline]
    #[must_use]
    pub fn end(&self) -> u32 {
        self.end
    }

    /// Number of owned nodes.
    #[inline]
    #[must_use]
    pub fn num_local_nodes(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether this shard owns `u`.
    #[inline]
    #[must_use]
    pub fn contains(&self, u: NodeId) -> bool {
        (self.start..self.end).contains(&u.as_u32())
    }

    /// Local row index of an owned node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not owned by this shard.
    #[inline]
    #[must_use]
    pub fn local_index(&self, u: NodeId) -> usize {
        assert!(
            self.contains(u),
            "{u} not owned by shard {}..{}",
            self.start,
            self.end
        );
        (u.as_u32() - self.start) as usize
    }

    /// Degree of the local row `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local >= num_local_nodes()`.
    #[inline]
    #[must_use]
    pub fn local_degree(&self, local: usize) -> usize {
        self.offsets[local + 1] - self.offsets[local]
    }

    /// Sorted neighbor list (global ids) of the local row `local`.
    ///
    /// # Panics
    ///
    /// Panics if `local >= num_local_nodes()`.
    #[inline]
    #[must_use]
    pub fn local_neighbor_slice(&self, local: usize) -> &[NodeId] {
        &self.neighbors[self.offsets[local]..self.offsets[local + 1]]
    }

    /// Sorted neighbor list of an owned node, by global id.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not owned by this shard.
    #[inline]
    #[must_use]
    pub fn neighbor_slice(&self, u: NodeId) -> &[NodeId] {
        self.local_neighbor_slice(self.local_index(u))
    }

    /// The halo: sorted, deduplicated non-local endpoints referenced by
    /// this shard's rows.
    #[inline]
    #[must_use]
    pub fn halo(&self) -> &[NodeId] {
        &self.halo
    }

    /// Stored adjacency entries (sum of local degrees).
    #[inline]
    #[must_use]
    pub fn num_adjacency_entries(&self) -> usize {
        self.neighbors.len()
    }

    /// Bytes held by this shard's CSR arrays (offsets + neighbors).
    #[must_use]
    pub fn adjacency_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.neighbors.len() * std::mem::size_of::<NodeId>()
    }

    /// Bytes held by the halo index.
    #[must_use]
    pub fn halo_bytes(&self) -> usize {
        self.halo.len() * std::mem::size_of::<NodeId>()
    }
}

impl fmt::Debug for GraphShard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GraphShard")
            .field("range", &(self.start..self.end))
            .field("entries", &self.neighbors.len())
            .field("halo", &self.halo.len())
            .finish()
    }
}

/// A [`Graph`] partitioned into contiguous node ranges, each owned by one
/// [`GraphShard`].
///
/// Construct with [`ShardedGraph::from_graph`] (byte-balanced partitioner)
/// or [`ShardedGraph::from_boundaries`] (explicit ranges). Provides
/// `Graph`-compatible [`degree`](ShardedGraph::degree) /
/// [`neighbor_slice`](ShardedGraph::neighbor_slice) accessors that route
/// through the owning shard.
#[derive(Clone, PartialEq, Eq)]
pub struct ShardedGraph {
    num_nodes: usize,
    num_edges: usize,
    /// `boundaries[s]..boundaries[s + 1]` is shard `s`'s node range;
    /// `boundaries.len() == num_shards + 1`.
    boundaries: Vec<u32>,
    shards: Vec<GraphShard>,
}

impl ShardedGraph {
    /// Partitions `graph` into at most `shards` contiguous node ranges,
    /// balancing the adjacency bytes each shard stores.
    ///
    /// `shards` is clamped to the node count (every shard owns at least one
    /// node; a 3-node graph asked for 7 shards yields 3 single-node
    /// shards). The per-shard adjacency overshoot over the ideal
    /// `total_bytes / shards` is bounded by the largest single row, which
    /// is unsplittable under node-range partitioning.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] if `shards == 0`.
    pub fn from_graph(graph: &Graph, shards: usize) -> Result<Self, GraphError> {
        if shards == 0 {
            return Err(GraphError::invalid_parameter(
                "shard count must be positive",
            ));
        }
        let n = graph.num_nodes();
        let shards = shards.min(n.max(1));
        let row_bytes = |u: u32| -> u64 {
            (std::mem::size_of::<usize>()
                + graph.degree(NodeId::new(u)) * std::mem::size_of::<NodeId>()) as u64
        };
        let total: u64 = (0..n as u32).map(row_bytes).sum();
        let mut boundaries = Vec::with_capacity(shards + 1);
        boundaries.push(0u32);
        let mut cum = 0u64;
        let mut next = 0u32;
        for s in 0..shards {
            if s + 1 == shards {
                boundaries.push(n as u32);
                break;
            }
            // Leave at least one row for each of the remaining shards.
            let max_end = (n - (shards - s - 1)) as u32;
            let target = total * (s as u64 + 1) / shards as u64;
            let start = next;
            while next < max_end && (cum < target || next == start) {
                cum += row_bytes(next);
                next += 1;
            }
            boundaries.push(next);
        }
        Self::from_boundaries(graph, &boundaries)
    }

    /// Partitions `graph` along explicit boundaries: shard `s` owns
    /// `boundaries[s]..boundaries[s + 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] unless `boundaries` starts
    /// at 0, ends at `num_nodes`, and is non-decreasing with at least two
    /// entries (empty shards are allowed only for the empty graph).
    pub fn from_boundaries(graph: &Graph, boundaries: &[u32]) -> Result<Self, GraphError> {
        let n = graph.num_nodes();
        let valid = boundaries.len() >= 2
            && boundaries[0] == 0
            && *boundaries.last().expect("len >= 2") == n as u32
            && boundaries.windows(2).all(|w| w[0] <= w[1])
            && (n == 0 || boundaries.windows(2).all(|w| w[0] < w[1]));
        if !valid {
            return Err(GraphError::invalid_parameter(format!(
                "shard boundaries {boundaries:?} must rise from 0 to {n} with non-empty ranges"
            )));
        }
        let shards = boundaries
            .windows(2)
            .map(|w| Self::build_shard(graph, w[0], w[1]))
            .collect();
        Ok(ShardedGraph {
            num_nodes: n,
            num_edges: graph.num_edges(),
            boundaries: boundaries.to_vec(),
            shards,
        })
    }

    fn build_shard(graph: &Graph, start: u32, end: u32) -> GraphShard {
        let local_n = (end - start) as usize;
        let mut offsets = Vec::with_capacity(local_n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::new();
        let mut halo: Vec<NodeId> = Vec::new();
        for u in start..end {
            let row = graph.neighbor_slice(NodeId::new(u));
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len());
            for &v in row {
                if !(start..end).contains(&v.as_u32()) {
                    halo.push(v);
                }
            }
        }
        halo.sort_unstable();
        halo.dedup();
        GraphShard {
            start,
            end,
            offsets,
            neighbors,
            halo,
        }
    }

    /// Number of nodes of the underlying graph.
    #[inline]
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges of the underlying graph.
    #[inline]
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of shards.
    #[inline]
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in ascending node-range order.
    #[inline]
    #[must_use]
    pub fn shards(&self) -> &[GraphShard] {
        &self.shards
    }

    /// Shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_shards()`.
    #[inline]
    #[must_use]
    pub fn shard(&self, s: usize) -> &GraphShard {
        &self.shards[s]
    }

    /// The shard boundaries: shard `s` owns
    /// `boundaries()[s]..boundaries()[s + 1]`.
    #[inline]
    #[must_use]
    pub fn boundaries(&self) -> &[u32] {
        &self.boundaries
    }

    /// Index of the shard owning `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    #[must_use]
    pub fn owner_of(&self, u: NodeId) -> usize {
        assert!(u.index() < self.num_nodes, "{u} out of range");
        self.boundaries.partition_point(|&b| b <= u.as_u32()) - 1
    }

    /// Degree of `u`, routed through the owning shard — agrees with
    /// [`Graph::degree`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        let shard = &self.shards[self.owner_of(u)];
        shard.local_degree((u.as_u32() - shard.start) as usize)
    }

    /// Sorted neighbor list of `u`, routed through the owning shard —
    /// agrees with [`Graph::neighbor_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    #[must_use]
    pub fn neighbor_slice(&self, u: NodeId) -> &[NodeId] {
        let shard = &self.shards[self.owner_of(u)];
        shard.local_neighbor_slice((u.as_u32() - shard.start) as usize)
    }

    /// The shards that own shard `s`'s halo nodes, ascending and
    /// deduplicated — exactly the shards `s` exchanges boundary data with
    /// during a diffusion sweep.
    ///
    /// The relation is symmetric for undirected graphs: if shard `t`'s
    /// rows reference a node owned by `s`, then that node has a neighbor
    /// inside `t`, so `s`'s rows reference a node owned by `t`. The peer
    /// sets therefore define an undirected shard-overlay topology (the
    /// links of a multi-machine deployment).
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_shards()`.
    #[must_use]
    pub fn peers_of(&self, s: usize) -> Vec<usize> {
        let mut peers: Vec<usize> = self.shards[s]
            .halo()
            .iter()
            .map(|&h| self.owner_of(h))
            .collect();
        peers.dedup(); // halo is sorted, so owners come in ascending runs
        peers
    }
}

impl fmt::Debug for ShardedGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedGraph")
            .field("num_nodes", &self.num_nodes)
            .field("num_edges", &self.num_edges)
            .field("shards", &self.shards)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;

    fn seeded(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn assert_partition_valid(g: &Graph, sg: &ShardedGraph) {
        // Ranges cover 0..n exactly, in order.
        let mut expected_start = 0u32;
        for shard in sg.shards() {
            assert_eq!(shard.start(), expected_start);
            expected_start = shard.end();
        }
        assert_eq!(expected_start as usize, g.num_nodes());
        // Accessors agree with the monolithic CSR for every node.
        for u in g.node_ids() {
            assert_eq!(sg.degree(u), g.degree(u), "degree of {u}");
            assert_eq!(sg.neighbor_slice(u), g.neighbor_slice(u), "row of {u}");
            let owner = sg.owner_of(u);
            assert!(sg.shard(owner).contains(u));
        }
        // Halo is exactly the set of non-local endpoints, sorted.
        for shard in sg.shards() {
            let mut expected: Vec<NodeId> = (0..shard.num_local_nodes())
                .flat_map(|l| shard.local_neighbor_slice(l).iter().copied())
                .filter(|v| !shard.contains(*v))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(shard.halo(), expected.as_slice());
        }
    }

    #[test]
    fn from_graph_partitions_ring() {
        let g = generators::ring(10).unwrap();
        for shards in [1, 2, 3, 7, 10] {
            let sg = ShardedGraph::from_graph(&g, shards).unwrap();
            assert_eq!(sg.num_shards(), shards);
            assert_partition_valid(&g, &sg);
        }
    }

    #[test]
    fn shard_count_clamps_to_node_count() {
        let g = generators::ring(3).unwrap();
        let sg = ShardedGraph::from_graph(&g, 64).unwrap();
        assert_eq!(sg.num_shards(), 3);
        for shard in sg.shards() {
            assert_eq!(shard.num_local_nodes(), 1);
        }
        assert_partition_valid(&g, &sg);
    }

    #[test]
    fn zero_shards_rejected() {
        let g = generators::ring(4).unwrap();
        assert!(matches!(
            ShardedGraph::from_graph(&g, 0),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn empty_graph_gets_one_empty_shard() {
        let g = Graph::empty(0);
        let sg = ShardedGraph::from_graph(&g, 4).unwrap();
        assert_eq!(sg.num_shards(), 1);
        assert_eq!(sg.shard(0).num_local_nodes(), 0);
        assert!(sg.shard(0).halo().is_empty());
    }

    #[test]
    fn explicit_uneven_boundaries() {
        let g = generators::grid(3, 3); // 9 nodes
        let sg = ShardedGraph::from_boundaries(&g, &[0, 1, 6, 9]).unwrap();
        assert_eq!(sg.num_shards(), 3);
        assert_eq!(sg.shard(0).num_local_nodes(), 1);
        assert_eq!(sg.shard(1).num_local_nodes(), 5);
        assert_partition_valid(&g, &sg);
    }

    #[test]
    fn invalid_boundaries_rejected() {
        let g = generators::ring(5).unwrap();
        for bad in [
            vec![],
            vec![0],
            vec![0u32, 3],    // does not reach n
            vec![1, 5],       // does not start at 0
            vec![0, 3, 2, 5], // decreasing
            vec![0, 3, 3, 5], // empty middle shard
        ] {
            assert!(
                ShardedGraph::from_boundaries(&g, &bad).is_err(),
                "{bad:?} accepted"
            );
        }
        assert!(ShardedGraph::from_boundaries(&g, &[0, 3, 5]).is_ok());
    }

    #[test]
    fn ring_halo_splits_at_the_local_range() {
        let g = generators::ring(8).unwrap();
        let sg = ShardedGraph::from_boundaries(&g, &[0, 4, 8]).unwrap();
        // Ring cut at two places: both of shard 0's halo nodes lie above its
        // range, both of shard 1's below.
        assert_eq!(sg.shard(0).halo(), &[NodeId::new(4), NodeId::new(7)]);
        assert_eq!(sg.shard(1).halo(), &[NodeId::new(0), NodeId::new(3)]);
    }

    #[test]
    fn byte_balance_bounds_overshoot_by_max_row() {
        let g = generators::barabasi_albert(500, 3, &mut seeded(9)).unwrap();
        let total = {
            let sg1 = ShardedGraph::from_graph(&g, 1).unwrap();
            sg1.shard(0).adjacency_bytes()
        };
        let max_row_bytes = g
            .node_ids()
            .map(|u| std::mem::size_of::<usize>() + g.degree(u) * 4)
            .max()
            .unwrap();
        for shards in [2, 3, 7] {
            let sg = ShardedGraph::from_graph(&g, shards).unwrap();
            for shard in sg.shards() {
                assert!(
                    shard.adjacency_bytes() <= total / shards + max_row_bytes + 8,
                    "shard {:?} holds {} bytes, ideal {}",
                    shard,
                    shard.adjacency_bytes(),
                    total / shards
                );
            }
            assert_partition_valid(&g, &sg);
        }
    }

    #[test]
    fn peer_sets_are_symmetric_sorted_and_exact() {
        let g = generators::social_circles_like_scaled(80, &mut seeded(7)).unwrap();
        let sg = ShardedGraph::from_graph(&g, 5).unwrap();
        for s in 0..sg.num_shards() {
            let peers = sg.peers_of(s);
            assert!(peers.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated");
            assert!(!peers.contains(&s), "a shard is never its own peer");
            // Exact: t is a peer iff some halo node of s is owned by t.
            for t in 0..sg.num_shards() {
                let expected = sg.shard(s).halo().iter().any(|&h| sg.owner_of(h) == t);
                assert_eq!(peers.contains(&t), expected, "peer ({s}, {t})");
                // Symmetry.
                assert_eq!(peers.contains(&t), sg.peers_of(t).contains(&s));
            }
        }
        // A single shard has no peers.
        let sg1 = ShardedGraph::from_graph(&g, 1).unwrap();
        assert!(sg1.peers_of(0).is_empty());
    }

    #[test]
    fn memory_accessors_are_consistent() {
        let g = generators::grid(4, 4);
        let sg = ShardedGraph::from_graph(&g, 3).unwrap();
        for shard in sg.shards() {
            assert_eq!(
                shard.adjacency_bytes(),
                (shard.num_local_nodes() + 1) * 8 + shard.num_adjacency_entries() * 4
            );
            assert_eq!(shard.halo_bytes(), shard.halo().len() * 4);
        }
    }
}
