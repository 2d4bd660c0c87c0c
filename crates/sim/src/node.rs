//! The protocol hook: what a node's handler is and what it may do during
//! one activation.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_graph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

/// Protocol logic attached to every node: invoked once per delivered
/// message.
///
/// Handlers are per-node state machines; the simulator owns one handler
/// instance per node and never shares them across nodes, so no interior
/// synchronization is needed.
pub trait NodeHandler<M> {
    /// Processes `msg` delivered to this node from `from` (`None` for
    /// external injections). Use `api` to inspect the topology, sample
    /// randomness and send messages to neighbors.
    fn handle(&mut self, from: Option<NodeId>, msg: M, api: &mut NodeApi<'_, M>);
}

/// Capabilities exposed to a [`NodeHandler`] while processing one message.
#[derive(Debug)]
pub struct NodeApi<'a, M> {
    neighbors: &'a [NodeId],
    rng: &'a mut StdRng,
    outbox: &'a mut Vec<(NodeId, M)>,
}

impl<'a, M> NodeApi<'a, M> {
    /// Assembles an API handle for one activation of the node whose
    /// neighbors are `neighbors`.
    pub(crate) fn new(
        neighbors: &'a [NodeId],
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<(NodeId, M)>,
    ) -> Self {
        NodeApi {
            neighbors,
            rng,
            outbox,
        }
    }

    /// This node's neighbors, sorted by id.
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// A uniformly random neighbor, or `None` for isolated nodes.
    pub fn random_neighbor(&mut self) -> Option<NodeId> {
        if self.neighbors.is_empty() {
            None
        } else {
            Some(self.neighbors[self.rng.random_range(0..self.neighbors.len())])
        }
    }

    /// This node's RNG (deterministic under the transport seed).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Queues `msg` for transmission to `to`. The transport applies loss,
    /// churn and the link's bandwidth; links exist along overlay edges
    /// only, so a send to a non-neighbor is dropped and counted as
    /// `dropped_no_route` (the paper's protocol only ever sends to
    /// neighbors), and a send onto a full link queue is dropped and
    /// counted as `dropped_backpressure`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }
}
