//! Deterministic bandwidth-aware reactor: the simulator's event loop.
//!
//! The paper's case against flooding is a *bandwidth* case — flooding and
//! diffusion search differ most where links saturate, queues build and
//! messages are dropped under backpressure. [`Reactor`] models that
//! regime: per-edge FIFO [`Link`](crate::link) queues with finite bytes
//! per tick ([`TransportConfig`]) and bounded send queues that drop, and
//! count, what does not fit. Delay is what the links produce: one hop takes
//! at least one tick, `ceil(bytes / bytes_per_tick)` ticks of wire time
//! plus whatever it queued behind. Hop-count experiments, where bandwidth
//! is irrelevant, run the same loop with
//! [`TransportConfig::unbounded`]. No async runtime is involved: the
//! reactor is a hand-rolled tick loop, so the build stays
//! offline-friendly.
//!
//! # Execution model
//!
//! Virtual time advances in integer ticks; one tick applies the churn
//! events stamped with it, then runs three phases, all on the calling
//! thread:
//!
//! 1. **Handler phase.** Every node with a non-empty inbox is *activated*,
//!    in ascending node order: its handler processes the tick's deliveries
//!    and queues sends into the node's outbox.
//! 2. **Transport phase.** Outboxes are drained in ascending node order;
//!    each message is lost, dropped (full queue / no route) or enqueued on
//!    its directed link.
//! 3. **Link phase.** Every link spends its per-tick byte budget in
//!    deterministic CSR order; completed messages become the next tick's
//!    inboxes.
//!
//! # Why the same seed gives the same run
//!
//! Every step of a tick happens in an order fixed by node ids and link
//! ids, never by timing:
//!
//! * **Handlers.** The active set is a sorted set, so handlers run in
//!   ascending node order, each over its inbox in arrival order. A handler
//!   draws only from its own per-node RNG (seeded from the transport seed
//!   and the node id), so its draws do not depend on which other nodes ran
//!   this tick.
//! * **Transport and links.** Loss coin flips come from one transport RNG,
//!   drawn once per routed send in node order, then outbox order; links
//!   are serviced in CSR order.
//!
//! Stats are written in those same orders, so the same seed yields the
//! same [`NetStats`] and the same handler states (`deterministic_per_seed`
//! in `tests/properties.rs`; the naive fabric model there replays the
//! transport phase's coin order).
//!
//! # Example
//!
//! ```
//! use gdsearch_graph::{generators, NodeId};
//! use gdsearch_sim::{NodeApi, NodeHandler, Reactor, TransportConfig, WireMessage};
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl WireMessage for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//! struct Relay;
//! impl NodeHandler<Ping> for Relay {
//!     fn handle(&mut self, _from: Option<NodeId>, msg: Ping, api: &mut NodeApi<'_, Ping>) {
//!         if msg.0 > 0 {
//!             let next = api.neighbors()[0];
//!             api.send(next, Ping(msg.0 - 1));
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), gdsearch_sim::SimError> {
//! let g = generators::ring(8)?;
//! let handlers = (0..8).map(|_| Relay).collect();
//! let mut net = Reactor::new(g, handlers, TransportConfig::default())?;
//! net.inject(NodeId::new(0), Ping(5))?;
//! let ticks = net.run_to_completion(1_000)?;
//! assert_eq!(net.stats().delivered, 6); // injection + 5 relays
//! assert!(ticks >= 5); // every hop serializes over a link
//! # Ok(())
//! # }
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "node ids are bounded by the graph's u32 node count; the tick count reported in EventBudgetExhausted is diagnostic only"
)]

use std::collections::BTreeSet;

use gdsearch_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::churn::{ChurnEvent, ChurnKind};
use crate::link::LinkStats;
use crate::node::{NodeApi, NodeHandler};
use crate::transport::{Transport, TransportConfig};
use crate::{NetStats, SimError, WireMessage};

/// One queued delivery: `(sender, message)`.
type Inbound<M> = (Option<NodeId>, M);

/// Bandwidth-aware deterministic network simulator (see the module docs).
///
/// Runs one [`NodeHandler`] per node; messages serialize over the
/// [`TransportConfig`]'s links, and every outcome is accounted in
/// [`NetStats`].
pub struct Reactor<M, H> {
    graph: Graph,
    handlers: Vec<H>,
    /// Per-node protocol RNGs (never shared across nodes, so a handler's
    /// draws do not depend on which other nodes ran).
    rngs: Vec<StdRng>,
    /// Loss coin flips; only drawn in the transport phase.
    transport_rng: StdRng,
    transport: Transport<M>,
    inboxes: Vec<Vec<Inbound<M>>>,
    /// Indices of nodes with a non-empty inbox (kept sorted so the
    /// handler phase visits nodes in deterministic ascending order
    /// without scanning all inboxes).
    active: BTreeSet<usize>,
    up: Vec<bool>,
    churn: Vec<ChurnEvent>,
    churn_cursor: usize,
    tick: u64,
    loss_probability: f64,
    stats: NetStats,
    /// Per-source wire accounting: `(frames, bytes)` handed to the
    /// transport by each node, updated in the sequential transport
    /// phase. The distributed layer cross-checks its own byte
    /// accounting against these.
    sent_by_node: Vec<(u64, u64)>,
}

impl<M, H> Reactor<M, H>
where
    M: WireMessage,
    H: NodeHandler<M>,
{
    /// Creates a network over `graph` with one handler per node.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if `handlers.len()` differs
    /// from the node count (degenerate transport parameters are already
    /// rejected by [`TransportConfig`]'s builder methods), and
    /// [`SimError::NodeOutOfRange`] if a churn event names a node outside
    /// the graph.
    pub fn new(graph: Graph, handlers: Vec<H>, config: TransportConfig) -> Result<Self, SimError> {
        if handlers.len() != graph.num_nodes() {
            return Err(SimError::invalid_parameter(format!(
                "expected one handler per node ({}), got {}",
                graph.num_nodes(),
                handlers.len()
            )));
        }
        let n = graph.num_nodes();
        let mut churn = config.churn.events().to_vec();
        if let Some(event) = churn.iter().find(|e| e.node.index() >= n) {
            return Err(SimError::NodeOutOfRange {
                node: event.node.as_u32(),
                num_nodes: n as u32,
            });
        }
        churn.sort_by_key(|e| e.tick);
        let rngs = (0..n).map(|u| node_rng(config.seed, u as u64)).collect();
        let transport = Transport::new(&graph, &config);
        Ok(Reactor {
            handlers,
            rngs,
            transport_rng: StdRng::seed_from_u64(config.seed ^ 0x0072_6561_6374_6f72),
            transport,
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            active: BTreeSet::new(),
            up: vec![true; n],
            churn,
            churn_cursor: 0,
            tick: 0,
            loss_probability: config.loss_probability,
            stats: NetStats::default(),
            sent_by_node: vec![(0, 0); n],
            graph,
        })
    }

    /// The overlay graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current virtual time: the ticks executed so far, which is also the
    /// tick the next [`Reactor::step`] runs (and applies churn for).
    pub fn now_tick(&self) -> u64 {
        self.tick
    }

    /// Transport statistics so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// `(frames, bytes)` node `source` has handed to the transport so
    /// far, including messages later lost or dropped.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] for unknown nodes.
    pub fn sent_from(&self, source: NodeId) -> Result<(u64, u64), SimError> {
        self.check_node(source)?;
        Ok(self
            .sent_by_node
            .get(source.index())
            .copied()
            .unwrap_or((0, 0)))
    }

    /// Statistics of the directed link `from → to`, if that overlay edge
    /// exists.
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<&LinkStats> {
        self.transport.link_stats(&self.graph, from, to)
    }

    /// Shared access to a node's handler.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] for unknown nodes.
    pub fn handler(&self, node: NodeId) -> Result<&H, SimError> {
        self.check_node(node)?;
        Ok(&self.handlers[node.index()])
    }

    /// Mutable access to a node's handler.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] for unknown nodes.
    pub fn handler_mut(&mut self, node: NodeId) -> Result<&mut H, SimError> {
        self.check_node(node)?;
        Ok(&mut self.handlers[node.index()])
    }

    /// Injects an external message: it reaches `node`'s handler in the
    /// next tick's handler phase, bypassing the link fabric (injections
    /// model local user actions, not traffic).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeOutOfRange`] for unknown nodes.
    pub fn inject(&mut self, node: NodeId, msg: M) -> Result<(), SimError> {
        self.check_node(node)?;
        self.inboxes[node.index()].push((None, msg));
        self.active.insert(node.index());
        Ok(())
    }

    /// Whether no deliveries are pending and all link queues are drained.
    /// O(1).
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.transport.is_idle()
    }

    /// Runs ticks until the network goes idle, up to `max_ticks`.
    /// Returns the number of ticks executed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] if work remains after
    /// the budget.
    pub fn run_to_completion(&mut self, max_ticks: u64) -> Result<u64, SimError> {
        let mut executed = 0;
        while !self.is_idle() {
            if executed >= max_ticks {
                return Err(SimError::EventBudgetExhausted {
                    processed: executed as usize,
                });
            }
            self.step();
            executed += 1;
        }
        Ok(executed)
    }

    /// Executes exactly one tick (churn, then the handler, transport and
    /// link phases). Idle ticks are valid — time passes, nothing moves.
    pub fn step(&mut self) {
        let tick = self.tick;
        self.apply_churn();

        // ---- Handler phase (ascending node order) ----------------------
        let mut outboxes: Vec<(NodeId, Vec<(NodeId, M)>)> = Vec::new();
        for index in std::mem::take(&mut self.active) {
            let node = NodeId::new(index as u32);
            let inbox = std::mem::take(&mut self.inboxes[index]);
            if !self.up[index] {
                self.stats.dropped_down += inbox.len() as u64;
                continue;
            }
            self.stats.delivered += inbox.len() as u64;
            let mut outbox = Vec::new();
            for (from, msg) in inbox {
                let mut api = NodeApi::new(
                    self.graph.neighbor_slice(node),
                    &mut self.rngs[index],
                    &mut outbox,
                );
                self.handlers[index].handle(from, msg, &mut api);
            }
            outboxes.push((node, outbox));
        }

        // ---- Transport phase (node order, then outbox order) -----------
        for (node, outbox) in outboxes {
            for (to, msg) in outbox {
                self.transmit(node, to, msg, tick);
            }
        }

        // ---- Link phase (CSR link order) -------------------------------
        let inboxes = &mut self.inboxes;
        let active = &mut self.active;
        self.transport.service(tick, |from, to, done| {
            inboxes[to.index()].push((Some(from), done.msg));
            active.insert(to.index());
        });
        self.transport.fold_stats(&mut self.stats);
        self.tick += 1;
    }

    /// Hands a message to the link fabric, accounting every outcome. The
    /// route check precedes the loss coin: a message with no link can
    /// never be transmitted, so it is always `dropped_no_route` (and
    /// spends no randomness), regardless of the loss probability.
    fn transmit(&mut self, from: NodeId, to: NodeId, msg: M, tick: u64) {
        let bytes = msg.wire_size();
        self.stats.sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if let Some(meter) = self.sent_by_node.get_mut(from.index()) {
            meter.0 += 1;
            meter.1 += bytes as u64;
        }
        let Some(link) = self.transport.link_id(&self.graph, from, to) else {
            self.stats.dropped_no_route += 1;
            return;
        };
        if self.loss_probability > 0.0 && self.transport_rng.random_bool(self.loss_probability) {
            self.stats.lost += 1;
            return;
        }
        if !self.transport.enqueue_at(link, msg, bytes, tick) {
            self.stats.dropped_backpressure += 1;
        }
    }

    /// Applies all churn events scheduled at or before the current tick.
    fn apply_churn(&mut self) {
        while let Some(event) = self.churn.get(self.churn_cursor) {
            if event.tick > self.tick {
                break;
            }
            self.up[event.node.index()] = matches!(event.kind, ChurnKind::Up);
            self.churn_cursor += 1;
        }
    }

    fn check_node(&self, node: NodeId) -> Result<(), SimError> {
        if node.index() < self.graph.num_nodes() {
            Ok(())
        } else {
            Err(SimError::NodeOutOfRange {
                node: node.as_u32(),
                num_nodes: self.graph.num_nodes() as u32,
            })
        }
    }
}

impl<M, H> std::fmt::Debug for Reactor<M, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("nodes", &self.graph.num_nodes())
            .field("tick", &self.tick)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Per-node RNG seeding: a splitmix-style mix of the transport seed and
/// the node id, so streams are decorrelated and independent of scheduling.
fn node_rng(seed: u64, node: u64) -> StdRng {
    let mut z = seed ^ node.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnSchedule;
    use gdsearch_graph::generators;

    #[derive(Clone, Debug)]
    struct Hop(u32);

    impl WireMessage for Hop {
        fn wire_size(&self) -> usize {
            4
        }
    }

    #[derive(Default)]
    struct Counter {
        received: u32,
    }

    impl NodeHandler<Hop> for Counter {
        fn handle(&mut self, _from: Option<NodeId>, msg: Hop, api: &mut NodeApi<'_, Hop>) {
            self.received += 1;
            if msg.0 > 0 {
                let next = api.neighbors()[0];
                api.send(next, Hop(msg.0 - 1));
            }
        }
    }

    fn counters(n: usize) -> Vec<Counter> {
        (0..n).map(|_| Counter::default()).collect()
    }

    #[test]
    fn relay_chain_matches_unbounded_preset_accounting() {
        let g = generators::ring(5).unwrap();
        let mut net = Reactor::new(g, counters(5), TransportConfig::default()).unwrap();
        net.inject(NodeId::new(0), Hop(7)).unwrap();
        net.run_to_completion(1_000).unwrap();
        assert_eq!(net.stats().delivered, 8);
        assert_eq!(net.stats().sent, 7);
        assert_eq!(net.stats().bytes_sent, 28);
        assert_eq!(net.stats().dropped_total(), 0);
        // One tick per hop plus the final delivery tick.
        assert_eq!(net.now_tick(), 8);
    }

    #[test]
    fn handler_count_must_match() {
        let g = generators::ring(5).unwrap();
        assert!(Reactor::new(g, counters(4), TransportConfig::default()).is_err());
    }

    #[test]
    fn narrow_link_serializes_messages() {
        // A 4-byte message over a 1-byte/tick link takes 4 ticks of wire
        // time per hop.
        let g = generators::path(2);
        let cfg = TransportConfig::default().with_bandwidth(1).unwrap();
        let mut net = Reactor::new(g, counters(2), cfg).unwrap();
        net.inject(NodeId::new(0), Hop(1)).unwrap();
        let ticks = net.run_to_completion(100).unwrap();
        assert_eq!(net.handler(NodeId::new(1)).unwrap().received, 1);
        assert!(
            ticks >= 4,
            "4-byte message over 1 B/tick took {ticks} ticks"
        );
    }

    #[test]
    fn backpressure_drops_are_counted() {
        // Node 0 floods 5 messages at node 1 in one activation through a
        // queue of capacity 2.
        struct Burst;
        impl NodeHandler<Hop> for Burst {
            fn handle(&mut self, from: Option<NodeId>, _msg: Hop, api: &mut NodeApi<'_, Hop>) {
                if from.is_none() {
                    for _ in 0..5 {
                        let next = api.neighbors()[0];
                        api.send(next, Hop(0));
                    }
                }
            }
        }
        let g = generators::path(2);
        let cfg = TransportConfig::default()
            .with_queue_capacity(2)
            .unwrap()
            .with_bandwidth(1)
            .unwrap();
        let mut net = Reactor::new(g, vec![Burst, Burst], cfg).unwrap();
        net.inject(NodeId::new(0), Hop(0)).unwrap();
        net.run_to_completion(100).unwrap();
        assert_eq!(net.stats().sent, 5);
        assert_eq!(net.stats().dropped_backpressure, 3);
        assert_eq!(net.stats().delivered, 1 + 2);
        assert_eq!(net.stats().max_queue_depth, 2);
        assert_eq!(
            net.link_stats(NodeId::new(0), NodeId::new(1))
                .unwrap()
                .dropped_full,
            3
        );
    }

    #[test]
    fn no_route_sends_are_dropped_and_counted() {
        struct Wild;
        impl NodeHandler<Hop> for Wild {
            fn handle(&mut self, from: Option<NodeId>, _msg: Hop, api: &mut NodeApi<'_, Hop>) {
                if from.is_none() {
                    // Node 2 is not adjacent to node 0 on a path graph.
                    api.send(NodeId::new(2), Hop(0));
                }
            }
        }
        let g = generators::path(3);
        let mut net = Reactor::new(g, vec![Wild, Wild, Wild], TransportConfig::default()).unwrap();
        net.inject(NodeId::new(0), Hop(0)).unwrap();
        net.run_to_completion(100).unwrap();
        assert_eq!(net.stats().dropped_no_route, 1);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn churn_drops_deliveries_to_down_nodes() {
        let g = generators::path(3);
        let churn = ChurnSchedule::from_events(vec![ChurnEvent {
            tick: 0,
            node: NodeId::new(1),
            kind: ChurnKind::Down,
        }]);
        let cfg = TransportConfig::default().with_churn(churn);
        let mut net = Reactor::new(g, counters(3), cfg).unwrap();
        net.inject(NodeId::new(0), Hop(3)).unwrap();
        net.run_to_completion(100).unwrap();
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().dropped_down, 1);
        assert_eq!(net.handler(NodeId::new(1)).unwrap().received, 0);
    }

    #[test]
    fn node_comes_back_up() {
        let g = generators::path(2);
        let churn = ChurnSchedule::from_events(vec![
            ChurnEvent {
                tick: 0,
                node: NodeId::new(1),
                kind: ChurnKind::Down,
            },
            ChurnEvent {
                tick: 2,
                node: NodeId::new(1),
                kind: ChurnKind::Up,
            },
        ]);
        let cfg = TransportConfig::default()
            .with_bandwidth(1)
            .unwrap()
            .with_churn(churn);
        let mut net = Reactor::new(g, counters(2), cfg).unwrap();
        net.inject(NodeId::new(0), Hop(1)).unwrap();
        net.run_to_completion(100).unwrap();
        // The 4-byte relay is on the 1 B/tick wire for ticks 0..=3; node 1
        // recovered at tick 2, so it arrives.
        assert_eq!(net.handler(NodeId::new(1)).unwrap().received, 1);
        assert_eq!(net.stats().dropped_down, 0);
    }

    #[test]
    fn loss_drops_messages() {
        let g = generators::ring(4).unwrap();
        let cfg = TransportConfig::default()
            .with_loss_probability(1.0)
            .unwrap()
            .with_seed(3);
        let mut net = Reactor::new(g, counters(4), cfg).unwrap();
        net.inject(NodeId::new(0), Hop(5)).unwrap();
        net.run_to_completion(100).unwrap();
        assert_eq!(net.stats().delivered, 1);
        assert_eq!(net.stats().lost, 1);
    }

    #[test]
    fn queue_delay_accrues_under_saturation() {
        let g = generators::path(2);
        let cfg = TransportConfig::default()
            .with_bandwidth(4)
            .unwrap()
            .with_queue_capacity(64)
            .unwrap();
        // Burst ten 4-byte messages onto a 4 B/tick link: message k waits
        // k ticks.
        struct Burst;
        impl NodeHandler<Hop> for Burst {
            fn handle(&mut self, from: Option<NodeId>, _msg: Hop, api: &mut NodeApi<'_, Hop>) {
                if from.is_none() {
                    for _ in 0..10 {
                        let next = api.neighbors()[0];
                        api.send(next, Hop(0));
                    }
                }
            }
        }
        let mut net = Reactor::new(g, vec![Burst, Burst], cfg).unwrap();
        net.inject(NodeId::new(0), Hop(0)).unwrap();
        net.run_to_completion(100).unwrap();
        assert_eq!(net.stats().delivered, 11);
        assert_eq!(net.stats().queue_delay.sum(), (0..10).sum::<u64>());
        assert_eq!(net.stats().queue_delay.count(), 10);
        assert_eq!(net.stats().queue_delay.max(), 9);
        assert_eq!(net.stats().max_queue_depth, 10);
    }

    #[test]
    fn event_budget_is_enforced() {
        let g = generators::ring(4).unwrap();
        let mut net = Reactor::new(g, counters(4), TransportConfig::default()).unwrap();
        net.inject(NodeId::new(0), Hop(100)).unwrap();
        assert!(matches!(
            net.run_to_completion(5),
            Err(SimError::EventBudgetExhausted { processed: 5 })
        ));
    }

    #[test]
    fn injection_validates_node() {
        let g = generators::ring(4).unwrap();
        let mut net = Reactor::new(g, counters(4), TransportConfig::default()).unwrap();
        assert!(matches!(
            net.inject(NodeId::new(9), Hop(1)),
            Err(SimError::NodeOutOfRange {
                node: 9,
                num_nodes: 4
            })
        ));
        assert!(net.inject(NodeId::new(1), Hop(1)).is_ok());
    }

    #[test]
    fn churn_for_a_node_outside_the_graph_is_rejected() {
        for outside in [4, 9] {
            let churn = ChurnSchedule::from_events(vec![ChurnEvent {
                tick: 0,
                node: NodeId::new(outside),
                kind: ChurnKind::Down,
            }]);
            let cfg = TransportConfig::default().with_churn(churn);
            let g = generators::ring(4).unwrap();
            let built = Reactor::new(g, counters(4), cfg);
            assert!(
                matches!(
                    built,
                    Err(SimError::NodeOutOfRange { node, num_nodes: 4 }) if node == outside
                ),
                "node {outside}"
            );
        }
    }

    #[test]
    fn a_churn_event_at_tick_k_takes_effect_in_the_kth_step() {
        // Node 1 goes down at tick k; one message is injected before each
        // step. The injections delivered in steps 0..k reach its handler,
        // the ones from step k on are dropped at the down node.
        for k in 0..4u64 {
            let churn = ChurnSchedule::from_events(vec![ChurnEvent {
                tick: k,
                node: NodeId::new(1),
                kind: ChurnKind::Down,
            }]);
            let cfg = TransportConfig::default().with_churn(churn);
            let mut net = Reactor::new(generators::path(2), counters(2), cfg).unwrap();
            for _ in 0..6 {
                net.inject(NodeId::new(1), Hop(0)).unwrap();
                net.step();
            }
            assert_eq!(net.handler(NodeId::new(1)).unwrap().received, k as u32);
            assert_eq!(net.stats().dropped_down, 6 - k);
        }
    }
}
