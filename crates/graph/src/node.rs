use std::fmt;

/// Identifier of a node (peer) in a [`Graph`](crate::Graph).
///
/// `NodeId` is a zero-based dense index: a graph with `n` nodes uses ids
/// `0..n`. The newtype prevents accidentally mixing node ids with other
/// integer quantities such as hop counts or document ids.
///
/// # Example
///
/// ```
/// use gdsearch_graph::NodeId;
///
/// let u = NodeId::new(7);
/// assert_eq!(u.index(), 7);
/// assert_eq!(u.to_string(), "n7");
/// assert!(u < NodeId::new(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw index as a `usize`, suitable for slice indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as a `u32`.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32() {
        let id = NodeId::from(42u32);
        assert_eq!(u32::from(id), 42);
        assert_eq!(id.index(), 42usize);
        assert_eq!(id.as_u32(), 42);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId::new(0).to_string(), "n0");
        assert_eq!(NodeId::new(4038).to_string(), "n4038");
    }

    #[test]
    fn ordering_follows_index() {
        let mut ids = vec![NodeId::new(3), NodeId::new(1), NodeId::new(2)];
        ids.sort();
        assert_eq!(ids, vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
    }

    #[test]
    fn node_id_is_send_sync_copy() {
        fn assert_send_sync<T: Send + Sync + Copy>() {}
        assert_send_sync::<NodeId>();
    }
}
