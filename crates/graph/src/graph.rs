#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "num_nodes() returns the u32 node count every Graph constructor takes"
)]

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
    /// Largest degree of any node (0 without edges), counted once at build.
    max_degree: usize,
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

    /// Largest degree of any node (0 for a graph without edges).
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
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
/// Keeps one list of added neighbours per node and assembles the CSR arrays
/// in one pass, sorting and deduplicating each row there. The cost model:
///
/// - [`add_edge`](Self::add_edge) is O(1) amortised: it pushes each
///   endpoint onto the other's list, and keeps duplicates until `build`.
/// - [`has_edge`](Self::has_edge) is O(min degree): it scans the shorter of
///   the two lists, duplicates included.
/// - [`build`](Self::build) is O(Σ d log d) over the list lengths d.
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
    /// `adjacency[u]` lists every neighbour added to `u`, in insertion
    /// order, duplicates included.
    adjacency: Vec<Vec<u32>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: u32) -> Self {
        GraphBuilder {
            num_nodes,
            adjacency: vec![Vec::new(); num_nodes as usize],
        }
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Neighbours added to `u` so far, in insertion order, duplicates
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if `u >= num_nodes`.
    pub(crate) fn added_neighbors(&self, u: u32) -> &[u32] {
        &self.adjacency[u as usize]
    }

    /// Adds the undirected edge `(u, v)`. Duplicates are collapsed by
    /// [`build`](Self::build).
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
        self.adjacency[u as usize].push(v);
        self.adjacency[v as usize].push(u);
        Ok(self)
    }

    /// Tests whether the undirected edge `(u, v)` was already added;
    /// `false` if either endpoint is out of range.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        match (
            self.adjacency.get(u as usize),
            self.adjacency.get(v as usize),
        ) {
            (Some(of_u), Some(of_v)) if of_u.len() <= of_v.len() => of_u.contains(&v),
            (Some(_), Some(of_v)) => of_v.contains(&u),
            _ => false,
        }
    }

    /// Assembles the CSR graph.
    pub fn build(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.adjacency.len() + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::with_capacity(self.adjacency.iter().map(Vec::len).sum());
        let mut row: Vec<u32> = Vec::new();
        let mut max_degree = 0;
        for added in &self.adjacency {
            row.clone_from(added);
            row.sort_unstable();
            row.dedup();
            max_degree = max_degree.max(row.len());
            neighbors.extend(row.iter().map(|&v| NodeId::new(v)));
            offsets.push(neighbors.len());
        }
        // The reservation counted duplicates; give their room back.
        neighbors.shrink_to_fit();
        Graph {
            offsets,
            num_edges: neighbors.len() / 2,
            neighbors,
            max_degree,
        }
    }
}

/// The reference model: [`GraphBuilder`] as it stood before per-node
/// lists — one `BTreeSet` of normalised edges, walked three times at
/// `build`. Slow and obviously right; [`GraphBuilder`] must answer every
/// `add_edge` and `has_edge` as it does and build an equal [`Graph`].
#[cfg(test)]
mod reference {
    use std::collections::BTreeSet;

    use super::Graph;
    use crate::{GraphError, NodeId};

    #[derive(Debug, Clone)]
    pub struct GraphBuilder {
        num_nodes: u32,
        edges: BTreeSet<(u32, u32)>,
    }

    impl GraphBuilder {
        pub fn new(num_nodes: u32) -> Self {
            GraphBuilder {
                num_nodes,
                edges: BTreeSet::new(),
            }
        }

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

        pub fn has_edge(&self, u: u32, v: u32) -> bool {
            let key = if u < v { (u, v) } else { (v, u) };
            self.edges.contains(&key)
        }

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
                max_degree: degrees.into_iter().max().unwrap_or(0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        // Duplicates count once toward the maximum degree too.
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn max_degree_is_the_largest_degree() {
        assert_eq!(Graph::empty(0).max_degree(), 0);
        assert_eq!(Graph::empty(3).max_degree(), 0);
        let g = triangle_with_tail();
        let largest = g.node_ids().map(|u| g.degree(u)).max();
        assert_eq!(Some(g.max_degree()), largest);
        assert_eq!(g.max_degree(), 3);
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
        assert!(b.has_edge(1, 2));
        assert!(!b.has_edge(0, 2));
    }

    /// One step of a builder session.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Add(u32, u32),
        Has(u32, u32),
    }

    /// Turns random draws into a session on `n` nodes. Each draw adds one
    /// edge — in either orientation, sometimes twice — and then asks about
    /// another pair. Ids `n` and `n + 1` are out of range and equal ids are
    /// self-loops. `order` 0 keeps the draws' order; 1 and 2 sort the added
    /// edges ascending and descending, leaving the queries where they were.
    fn session(n: u32, draws: &[(u32, u32, u32, u32, u32)], order: u32) -> Vec<Op> {
        let ids = n + 2;
        let mut edges: Vec<(u32, u32)> = draws
            .iter()
            .map(|&(_, a, b, _, _)| (a % ids, b % ids))
            .collect();
        let key = |&(u, v): &(u32, u32)| (u.min(v), u.max(v));
        match order {
            0 => {}
            1 => edges.sort_by_key(key),
            _ => edges.sort_by_key(|e| std::cmp::Reverse(key(e))),
        }
        let mut ops = Vec::new();
        for (&(kind, _, _, qa, qb), &(u, v)) in draws.iter().zip(&edges) {
            let (u, v) = if kind & 1 == 0 { (u, v) } else { (v, u) };
            ops.push(Op::Add(u, v));
            if kind & 2 != 0 {
                ops.push(Op::Add(v, u));
            }
            ops.push(Op::Has(qa % ids, qb % ids));
        }
        ops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every `add_edge` result (error variant and fields included) and
        /// every `has_edge` answer match the `BTreeSet` builder at each
        /// step, and the built graphs are equal.
        #[test]
        fn builder_matches_the_btree_reference(
            n in 0u32..64,
            draws in collection::vec(
                (0u32..4, 0u32..66, 0u32..66, 0u32..66, 0u32..66),
                0..400,
            ),
            order in 0u32..3,
        ) {
            let mut got = GraphBuilder::new(n);
            let mut want = reference::GraphBuilder::new(n);
            for op in session(n, &draws, order) {
                match op {
                    Op::Add(u, v) => {
                        let got = got.add_edge(u, v).map(|_| ()).map_err(|e| format!("{e:?}"));
                        let want = want.add_edge(u, v).map(|_| ()).map_err(|e| format!("{e:?}"));
                        prop_assert_eq!(got, want, "add_edge({}, {})", u, v);
                    }
                    Op::Has(u, v) => {
                        let (got, want) = (got.has_edge(u, v), want.has_edge(u, v));
                        prop_assert_eq!(got, want, "has_edge({}, {})", u, v);
                    }
                }
            }
            prop_assert_eq!(got.build(), want.build());
        }
    }

    #[test]
    fn debug_output_is_compact() {
        let g = triangle_with_tail();
        let s = format!("{g:?}");
        assert!(s.contains("num_nodes: 4"));
        assert!(s.contains("num_edges: 4"));
    }
}
