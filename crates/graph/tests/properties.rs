//! Property-based tests for the graph substrate.

use gdsearch_graph::algo::bfs;
use gdsearch_graph::{io, Graph, NodeId};
use proptest::prelude::*;

/// Strategy: a small simple graph described by node count and an arbitrary
/// edge set (self-loops filtered out).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u32..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..120).prop_map(move |pairs| {
            let edges = pairs.into_iter().filter(|(u, v)| u != v);
            Graph::from_edges(n, edges).expect("filtered edges are valid")
        })
    })
}

proptest! {
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let total: usize = g.node_ids().map(|u| g.degree(u)).sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn adjacency_sorted_and_unique(g in arb_graph()) {
        for u in g.node_ids() {
            let ns = g.neighbor_slice(u);
            for w in ns.windows(2) {
                prop_assert!(w[0] < w[1], "neighbors must be strictly ascending");
            }
        }
    }

    #[test]
    fn has_edge_is_symmetric(g in arb_graph()) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn bfs_distances_are_consistent(g in arb_graph()) {
        // Triangle inequality across an edge: distances of adjacent nodes
        // differ by at most 1.
        let d = bfs::distances(&g, NodeId::new(0));
        for (u, v) in g.edges() {
            if let (Some(du), Some(dv)) = (d[u.index()], d[v.index()]) {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                // If one endpoint is reachable the other must be too.
                prop_assert!(d[u.index()].is_none() && d[v.index()].is_none());
            }
        }
    }

    #[test]
    fn bfs_rings_match_distances(g in arb_graph()) {
        let src = NodeId::new(0);
        let d = bfs::distances(&g, src);
        let max = d.iter().flatten().copied().max().unwrap_or(0);
        let rings = bfs::distance_rings(&g, src, max);
        for (dist, ring) in rings.iter().enumerate() {
            for &u in ring {
                prop_assert_eq!(d[u.index()], Some(dist as u32));
            }
        }
        let total: usize = rings.iter().map(Vec::len).sum();
        let reachable = d.iter().filter(|x| x.is_some()).count();
        prop_assert_eq!(total, reachable);
    }

    #[test]
    fn edge_list_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        io::write_edge_list(&g, &mut buf).unwrap();
        let back = io::read_edge_list(buf.as_slice()).unwrap();
        // Node count can shrink if trailing nodes are isolated (ids are
        // inferred from max edge endpoint); edges must match exactly.
        let edges_a: Vec<_> = g.edges().collect();
        let edges_b: Vec<_> = back.edges().collect();
        prop_assert_eq!(edges_a, edges_b);
    }

    #[test]
    fn transition_matrices_are_stochastic(g in arb_graph()) {
        use gdsearch_graph::sparse::{transition_matrix, Normalization};
        let a = transition_matrix(&g, Normalization::ColumnStochastic);
        for (v, s) in a.col_sums().iter().enumerate() {
            if g.degree(NodeId::new(v as u32)) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-4);
            } else {
                prop_assert_eq!(*s, 0.0);
            }
        }
    }
}

/// Strategy for the operator oracle: the empty and the single-node graph in
/// a third of the cases, else 2..24 nodes; sparse random edges (so isolated
/// nodes occur); and in a third of the cases node 0 made adjacent to every
/// other node.
fn arb_operator_graph() -> impl Strategy<Value = Graph> {
    (
        0u32..6,
        2u32..24,
        proptest::collection::vec((0u32..24, 0u32..24), 0..60),
        0u32..3,
    )
        .prop_map(|(tiny, n, pairs, hub)| {
            let n = if tiny < 2 { tiny } else { n };
            let mut edges: Vec<(u32, u32)> = pairs
                .into_iter()
                .filter(|_| n > 0)
                .map(|(u, v)| (u % n, v % n))
                .filter(|(u, v)| u != v)
                .collect();
            if hub == 0 {
                edges.extend((1..n).map(|v| (0, v)));
            }
            Graph::from_edges(n, edges).expect("filtered edges are valid")
        })
}

proptest! {
    /// The O(E) transition operator equals the matrix the triplet path
    /// builds from the textbook weights, entry for entry and bit for bit.
    #[test]
    fn transition_matrix_equals_its_triplet_oracle(g in arb_operator_graph()) {
        use gdsearch_graph::sparse::{transition_matrix, CsrMatrix, Normalization};
        let n = g.num_nodes();
        let mut triplets = Vec::new();
        for u in g.node_ids() {
            for v in g.neighbors(u) {
                triplets.push((u.as_u32(), v.as_u32(), 1.0 / g.degree(v) as f32));
            }
        }
        let oracle = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        prop_assert_eq!(transition_matrix(&g, Normalization::ColumnStochastic), oracle);
    }
}

proptest! {
    /// Any shard count partitions an arbitrary graph into contiguous
    /// covering ranges whose accessors agree with the monolithic CSR, with
    /// halos that are exactly the sorted non-local endpoints.
    #[test]
    fn sharding_preserves_the_graph(g in arb_graph(), shards in 1usize..12) {
        use gdsearch_graph::ShardedGraph;

        let sg = ShardedGraph::from_graph(&g, shards).unwrap();
        prop_assert_eq!(sg.num_nodes(), g.num_nodes());
        prop_assert_eq!(sg.num_edges(), g.num_edges());
        prop_assert!(sg.num_shards() <= shards);
        let mut next = 0u32;
        for shard in sg.shards() {
            prop_assert_eq!(shard.start(), next);
            next = shard.end();
        }
        prop_assert_eq!(next as usize, g.num_nodes());
        for u in g.node_ids() {
            prop_assert_eq!(sg.degree(u), g.degree(u));
            prop_assert_eq!(sg.neighbor_slice(u), g.neighbor_slice(u));
            prop_assert!(sg.shard(sg.owner_of(u)).contains(u));
        }
        for shard in sg.shards() {
            let mut expected: Vec<NodeId> = (0..shard.num_local_nodes())
                .flat_map(|l| shard.local_neighbor_slice(l).iter().copied())
                .filter(|v| !shard.contains(*v))
                .collect();
            expected.sort_unstable();
            expected.dedup();
            prop_assert_eq!(shard.halo(), expected.as_slice());
        }
    }
}
