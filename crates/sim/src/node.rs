//! The protocol hook: what a node's handler is and what it may do during
//! one activation.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_graph::NodeId;
use rand::rngs::StdRng;
use rand::Rng;

use crate::SimTime;

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
    node: NodeId,
    now: SimTime,
    neighbors: &'a [NodeId],
    rng: &'a mut StdRng,
    outbox: &'a mut Vec<(NodeId, M)>,
    /// Occupancy of this node's outgoing link queues.
    backpressure: LinkCapacityView<'a>,
}

/// Occupancy of a node's outgoing link queues during one handler
/// activation of the reactor.
///
/// A directed link `u → v` only ever gains messages from `u` itself, and
/// the reactor drains queues strictly between handler activations, so a
/// snapshot of the queue depths taken when the activation starts, plus a
/// count of the activation's own sends, is an *exact* view of the
/// occupancy those sends will meet — not a stale heuristic. (With random
/// loss enabled it becomes a conservative upper bound: lost sends are
/// discarded before reaching the queue, so fewer messages may occupy it
/// than were counted.) This is what makes [`NodeApi::poll_ready`]
/// reliable enough to build protocol-level backpressure on.
#[derive(Debug)]
pub(crate) struct LinkCapacityView<'a> {
    /// Maximum messages a link queue holds.
    pub(crate) capacity: usize,
    /// Queue depth per neighbor (indexed like `neighbors`) when this
    /// activation started.
    pub(crate) depths: &'a [u32],
    /// Messages this activation has already queued per neighbor.
    pub(crate) pending: &'a mut [u32],
}

impl<'a, M> NodeApi<'a, M> {
    /// Assembles an API handle for one activation of `node`.
    pub(crate) fn new(
        node: NodeId,
        now: SimTime,
        neighbors: &'a [NodeId],
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<(NodeId, M)>,
        backpressure: LinkCapacityView<'a>,
    ) -> Self {
        NodeApi {
            node,
            now,
            neighbors,
            rng,
            outbox,
            backpressure,
        }
    }
    /// The node this handler runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
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
    /// neighbors).
    ///
    /// A `send` onto a full link queue is dropped by the transport and
    /// counted as `dropped_backpressure`; use [`NodeApi::poll_ready`] /
    /// [`NodeApi::try_send`] to react to saturation instead of losing
    /// messages.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.note_pending(to);
        self.outbox.push((to, msg));
    }

    /// Whether the link to `to` can accept one more message right now.
    ///
    /// Exact for lossless links — a directed link only ever gains
    /// messages from its own sender, so the depth snapshot taken at
    /// activation start plus the messages this activation already queued
    /// is the true occupancy (a conservative upper bound when random loss
    /// discards some sends before they reach the queue). Returns `false`
    /// for destinations with no link (non-neighbors).
    pub fn poll_ready(&self, to: NodeId) -> bool {
        let view = &self.backpressure;
        match self.neighbors.binary_search(&to) {
            Err(_) => false,
            Ok(i) => (view.depths[i] as usize) + (view.pending[i] as usize) < view.capacity,
        }
    }

    /// Sends `msg` to `to` only if the link has room, returning the
    /// message back to the caller otherwise so it can be re-routed,
    /// buffered or dropped deliberately.
    ///
    /// # Errors
    ///
    /// Returns `Err(msg)` when [`NodeApi::poll_ready`] is `false`.
    pub fn try_send(&mut self, to: NodeId, msg: M) -> Result<(), M> {
        if self.poll_ready(to) {
            self.send(to, msg);
            Ok(())
        } else {
            Err(msg)
        }
    }

    /// Records a queued send in the capacity view so later
    /// [`NodeApi::poll_ready`] calls in the same activation stay exact.
    fn note_pending(&mut self, to: NodeId) {
        if let Ok(i) = self.neighbors.binary_search(&to) {
            self.backpressure.pending[i] += 1;
        }
    }
}
