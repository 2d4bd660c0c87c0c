#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "narrowing bounded by construction: node/shard/word counts are validated to fit u32 (CsrMatrix::from_sorted_rows and GraphBuilder reject larger)"
)]

use std::collections::BTreeSet;
use std::fmt;

use crate::{GraphError, NodeId};

/// An immutable, simple, undirected graph stored in compressed sparse row
/// (CSR) form.
///
/// Nodes are dense indices `0..num_nodes`; adjacency lists are sorted, free
/// of duplicates and self-loops. The representation is compact (two flat
/// vectors) and iteration over neighborhoods is cache-friendly, which matters
/// because both BFS-based evaluation and Personalized PageRank diffusion are
/// neighborhood-scan heavy.
///
/// Construct a graph with [`Graph::from_edges`] or incrementally with
/// [`GraphBuilder`].
///
/// # Example
///
/// ```
/// use gdsearch_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), gdsearch_graph::GraphError> {
/// // A triangle plus a pendant node.
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])?;
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(NodeId::new(2)), 3);
/// let neighbors: Vec<_> = g.neighbors(NodeId::new(2)).collect();
/// assert_eq!(neighbors, vec![NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` indexes `neighbors` for node `u`.
    offsets: Vec<usize>,
    /// Concatenated sorted adjacency lists.
    neighbors: Vec<NodeId>,
    /// Number of undirected edges.
    num_edges: usize,
}

impl Graph {
    /// Builds a graph with `num_nodes` nodes from an iterator of undirected
    /// edges given as `(u, v)` index pairs.
    ///
    /// Duplicate edges (in either orientation) are collapsed.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] for `(u, u)` pairs and
    /// [`GraphError::NodeOutOfRange`] for endpoints `>= num_nodes`.
    pub fn from_edges<I>(num_nodes: u32, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        let mut builder = GraphBuilder::new(num_nodes);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Returns an empty graph with `num_nodes` isolated nodes.
    pub fn empty(num_nodes: u32) -> Self {
        GraphBuilder::new(num_nodes).build()
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree (number of neighbors) of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.offsets[u.index() + 1] - self.offsets[u.index()]
    }

    /// Iterates over the sorted neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> Neighbors<'_> {
        Neighbors {
            inner: self.neighbor_slice(u).iter(),
        }
    }

    /// Returns the sorted neighbor list of `u` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbor_slice(&self, u: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[u.index()]..self.offsets[u.index() + 1]]
    }

    /// Tests whether the undirected edge `(u, v)` exists.
    ///
    /// Runs in `O(log deg(u))`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbor_slice(u).binary_search(&v).is_ok()
    }

    /// Iterates over all node ids `0..num_nodes`.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + Clone {
        (0..self.num_nodes() as u32).map(NodeId::new)
    }

    /// Iterates over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids().flat_map(move |u| {
            self.neighbor_slice(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Mean degree `2E / N`, or 0 for the empty graph.
    pub fn mean_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.num_nodes() as f64
        }
    }

    /// Validates that `u` is a node of this graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] otherwise.
    pub fn check_node(&self, u: NodeId) -> Result<(), GraphError> {
        if u.index() < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: u.as_u32(),
                num_nodes: self.num_nodes() as u32,
            })
        }
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_nodes", &self.num_nodes())
            .field("num_edges", &self.num_edges)
            .finish()
    }
}

/// Iterator over the neighbors of a node, in ascending id order.
///
/// Produced by [`Graph::neighbors`].
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: std::slice::Iter<'a, NodeId>,
}

impl<'a> Iterator for Neighbors<'a> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.inner.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Incremental builder for [`Graph`].
///
/// Collects edges (deduplicating both orientations), then assembles the CSR
/// arrays in one pass.
///
/// # Example
///
/// ```
/// use gdsearch_graph::GraphBuilder;
///
/// # fn main() -> Result<(), gdsearch_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 0)?; // duplicate orientation, collapsed
/// b.add_edge(1, 2)?;
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: u32,
    edges: BTreeSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: u32) -> Self {
        GraphBuilder {
            num_nodes,
            edges: BTreeSet::new(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of distinct undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `(u, v)`. Duplicates are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::SelfLoop`] if `u == v` and
    /// [`GraphError::NodeOutOfRange`] if an endpoint is `>= num_nodes`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<&mut Self, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        for w in [u, v] {
            if w >= self.num_nodes {
                return Err(GraphError::NodeOutOfRange {
                    node: w,
                    num_nodes: self.num_nodes,
                });
            }
        }
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.insert(key);
        Ok(self)
    }

    /// Tests whether the undirected edge `(u, v)` was already added.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&key)
    }

    /// Assembles the CSR graph.
    pub fn build(&self) -> Graph {
        let n = self.num_nodes as usize;
        let mut degrees = vec![0usize; n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut running = 0usize;
        for d in &degrees {
            running += d;
            offsets.push(running);
        }
        let mut neighbors = vec![NodeId::new(0); 2 * self.edges.len()];
        let mut cursor = offsets.clone();
        // BTreeSet iterates (u, v) in ascending order with u < v, so each
        // node's neighbor list is filled in ascending order automatically.
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize]] = NodeId::new(v);
            cursor[u as usize] += 1;
        }
        for &(u, v) in &self.edges {
            neighbors[cursor[v as usize]] = NodeId::new(u);
            cursor[v as usize] += 1;
        }
        // The second pass appends smaller ids after larger ones for v's list,
        // so a per-node sort is still required.
        for u in 0..n {
            neighbors[offsets[u]..offsets[u + 1]].sort_unstable();
        }
        Graph {
            offsets,
            neighbors,
            num_edges: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_with_tail() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn from_edges_builds_sorted_adjacency() {
        let g = triangle_with_tail();
        assert_eq!(
            g.neighbor_slice(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(
            g.neighbor_slice(NodeId::new(2)),
            &[NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
        assert_eq!(g.neighbor_slice(NodeId::new(3)), &[NodeId::new(2)]);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn self_loop_is_rejected() {
        let err = Graph::from_edges(3, [(1, 1)]).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { node: 1 }));
    }

    #[test]
    fn out_of_range_is_rejected() {
        let err = Graph::from_edges(3, [(0, 3)]).unwrap_err();
        assert!(matches!(
            err,
            GraphError::NodeOutOfRange {
                node: 3,
                num_nodes: 3
            }
        ));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(NodeId::new(4)), 0);
        assert_eq!(g.mean_degree(), 0.0);
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_with_tail();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
        assert!(!g.has_edge(NodeId::new(0), NodeId::new(3)));
    }

    #[test]
    fn edges_enumerates_each_once() {
        let g = triangle_with_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.num_edges());
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn mean_degree_matches_handshake_lemma() {
        let g = triangle_with_tail();
        assert!((g.mean_degree() - 2.0 * 4.0 / 4.0).abs() < 1e-12);
        let total: usize = g.node_ids().map(|u| g.degree(u)).sum();
        assert_eq!(total, 2 * g.num_edges());
    }

    #[test]
    fn check_node_bounds() {
        let g = triangle_with_tail();
        assert!(g.check_node(NodeId::new(3)).is_ok());
        assert!(g.check_node(NodeId::new(4)).is_err());
    }

    #[test]
    fn builder_reports_counts() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).unwrap();
        b.add_edge(2, 1).unwrap();
        assert_eq!(b.num_nodes(), 4);
        assert_eq!(b.num_edges(), 2);
        assert!(b.has_edge(1, 2));
        assert!(!b.has_edge(0, 2));
    }

    #[test]
    fn debug_output_is_compact() {
        let g = triangle_with_tail();
        let s = format!("{g:?}");
        assert!(s.contains("num_nodes: 4"));
        assert!(s.contains("num_edges: 4"));
    }
}
