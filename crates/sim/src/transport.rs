//! Configuration and link fabric of the bandwidth-aware transport.
//!
//! [`TransportConfig`] describes per-link bandwidth (bytes per tick),
//! send-queue bounds, and the loss/churn/seed settings of a run.
//! [`Transport`] owns one [`Link`] per directed overlay edge and provides
//! the two operations the reactor drives each tick: enqueue outgoing
//! messages (with drop accounting) and service every link's byte budget.
//!
//! Degenerate configurations — zero bandwidth, zero queue capacity, a loss
//! probability outside `[0, 1]` — are rejected with
//! [`SimError::InvalidParameter`] at construction instead of hanging or
//! panicking deep inside the tick loop.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use std::collections::BTreeSet;

use gdsearch_graph::{Graph, NodeId};

use crate::churn::ChurnSchedule;
use crate::link::{Completed, Link, LinkStats};
use crate::{Histogram, NetStats, SimError};

/// Configuration of a [`Reactor`](crate::Reactor).
#[derive(Debug, Clone)]
pub struct TransportConfig {
    pub(crate) bytes_per_tick: u64,
    pub(crate) queue_capacity: usize,
    pub(crate) seed: u64,
    pub(crate) loss_probability: f64,
    pub(crate) churn: ChurnSchedule,
}

impl Default for TransportConfig {
    /// 64 KiB/tick links with 1024-message queues, lossless, churn-free,
    /// seed 0.
    fn default() -> Self {
        TransportConfig {
            bytes_per_tick: 64 * 1024,
            queue_capacity: 1024,
            seed: 0,
            loss_probability: 0.0,
            churn: ChurnSchedule::none(),
        }
    }
}

impl TransportConfig {
    /// Links that never queue behind the wire and never fill: whatever a
    /// node sends in one tick reaches its neighbor in the next, at any
    /// message size ("instant" delivery — one hop is exactly one tick).
    /// Everything else as in [`Default`].
    pub fn unbounded() -> Self {
        TransportConfig {
            bytes_per_tick: u64::MAX,
            queue_capacity: usize::MAX,
            ..Self::default()
        }
    }

    /// Sets the per-link bandwidth in bytes per tick.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for zero bandwidth (a link
    /// that can never transmit would wedge the simulation, not model a
    /// slow network).
    pub fn with_bandwidth(mut self, bytes_per_tick: u64) -> Result<Self, SimError> {
        if bytes_per_tick == 0 {
            return Err(SimError::invalid_parameter(
                "link bandwidth must be at least one byte per tick",
            ));
        }
        self.bytes_per_tick = bytes_per_tick;
        Ok(self)
    }

    /// Sets the per-link send-queue bound, in messages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for capacity zero (every
    /// send would be dropped before reaching the wire).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Result<Self, SimError> {
        if capacity == 0 {
            return Err(SimError::invalid_parameter(
                "link queue capacity must be positive",
            ));
        }
        self.queue_capacity = capacity;
        Ok(self)
    }

    /// Sets the RNG seed (per-node handler RNGs and transport loss derive
    /// from it deterministically).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the independent per-message loss probability.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] outside `[0, 1]`.
    pub fn with_loss_probability(mut self, p: f64) -> Result<Self, SimError> {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(SimError::invalid_parameter(
                "loss probability must lie in [0, 1]",
            ));
        }
        self.loss_probability = p;
        Ok(self)
    }

    /// Installs a churn schedule.
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        self.churn = churn;
        self
    }
}

/// One directed link per overlay edge, indexed by the graph's CSR layout:
/// link `offsets[u] + i` carries traffic from `u` to its `i`-th sorted
/// neighbor.
///
/// The set of non-empty links is tracked explicitly so idle checks are
/// O(1) and per-tick service visits only busy links — at 10⁵ nodes a
/// tail-drain with a handful of loaded links must not re-scan the whole
/// edge set every tick.
#[derive(Debug)]
pub(crate) struct Transport<M> {
    links: Vec<Link<M>>,
    /// CSR offsets: node `u`'s outgoing links are
    /// `offsets[u]..offsets[u + 1]`.
    offsets: Vec<usize>,
    /// `(from, to)` of each link, for delivery without a graph lookup.
    endpoints: Vec<(NodeId, NodeId)>,
    /// Ids of links with queued traffic, kept sorted so service order is
    /// the deterministic CSR link order.
    busy: BTreeSet<usize>,
    bytes_per_tick: u64,
    /// Distribution of per-message queueing delays (ticks spent waiting
    /// behind other traffic before transmission started). Recorded in the
    /// sequential link phase, in deterministic CSR link order.
    queue_delay: Histogram,
    /// High-water queue depth over all links, raised in `enqueue_at`.
    max_depth: u64,
}

impl<M> Transport<M> {
    pub(crate) fn new(graph: &Graph, config: &TransportConfig) -> Self {
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut endpoints = Vec::new();
        for u in graph.node_ids() {
            offsets.push(offsets[u.index()] + graph.degree(u));
            endpoints.extend(graph.neighbor_slice(u).iter().map(|&v| (u, v)));
        }
        let links = (0..offsets[n])
            .map(|_| Link::new(config.queue_capacity))
            .collect();
        Transport {
            links,
            offsets,
            endpoints,
            busy: BTreeSet::new(),
            bytes_per_tick: config.bytes_per_tick,
            queue_delay: Histogram::new(),
            max_depth: 0,
        }
    }

    /// The link id for `from → to`, if the edge exists.
    pub(crate) fn link_id(&self, graph: &Graph, from: NodeId, to: NodeId) -> Option<usize> {
        let position = graph.neighbor_slice(from).binary_search(&to).ok()?;
        Some(self.offsets[from.index()] + position)
    }

    /// Hands a message to link `id`; returns whether it was accepted
    /// (false means the bounded queue is full).
    pub(crate) fn enqueue_at(&mut self, id: usize, msg: M, bytes: usize, tick: u64) -> bool {
        let link = &mut self.links[id];
        if link.enqueue(msg, bytes, tick) {
            self.max_depth = self.max_depth.max(link.depth() as u64);
            self.busy.insert(id);
            true
        } else {
            false
        }
    }

    /// Spends every busy link's byte budget for `tick`; invokes `deliver`
    /// with `(source, destination, completion)` for each fully
    /// transmitted message, in deterministic link order.
    pub(crate) fn service<F>(&mut self, tick: u64, mut deliver: F)
    where
        F: FnMut(NodeId, NodeId, Completed<M>),
    {
        let busy: Vec<usize> = self.busy.iter().copied().collect();
        let mut completed = Vec::new();
        for id in busy {
            let link = &mut self.links[id];
            link.service(self.bytes_per_tick, tick, &mut completed);
            if link.is_empty() {
                self.busy.remove(&id);
            }
            let (from, to) = self.endpoints[id];
            for done in completed.drain(..) {
                self.queue_delay.record(done.waited);
                deliver(from, to, done);
            }
        }
    }

    /// Whether any link still holds queued or in-service messages. O(1).
    pub(crate) fn is_idle(&self) -> bool {
        self.busy.is_empty()
    }

    /// Per-link statistics of `from → to`, if the edge exists.
    pub(crate) fn link_stats(&self, graph: &Graph, from: NodeId, to: NodeId) -> Option<&LinkStats> {
        self.link_id(graph, from, to)
            .map(|id| self.links[id].stats())
    }

    /// Folds queue-related link statistics into aggregate [`NetStats`].
    pub(crate) fn fold_stats(&self, stats: &mut NetStats) {
        stats.max_queue_depth = self.max_depth;
        stats.queue_delay = self.queue_delay;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::generators;

    #[test]
    fn degenerate_configs_are_rejected_not_panics() {
        assert!(TransportConfig::default().with_bandwidth(0).is_err());
        assert!(TransportConfig::default().with_queue_capacity(0).is_err());
        assert!(TransportConfig::default()
            .with_loss_probability(1.5)
            .is_err());
        assert!(TransportConfig::default()
            .with_loss_probability(f64::NAN)
            .is_err());
        assert!(TransportConfig::default().with_bandwidth(1).is_ok());
    }

    #[test]
    fn link_ids_follow_csr_layout() {
        let g = generators::path(3); // 0 - 1 - 2
        let t: Transport<u32> = Transport::new(&g, &TransportConfig::default());
        // Degrees: 1, 2, 1 → 4 directed links.
        assert_eq!(t.links.len(), 4);
        assert_eq!(t.link_id(&g, NodeId::new(0), NodeId::new(1)), Some(0));
        assert_eq!(t.link_id(&g, NodeId::new(1), NodeId::new(0)), Some(1));
        assert_eq!(t.link_id(&g, NodeId::new(1), NodeId::new(2)), Some(2));
        assert_eq!(t.link_id(&g, NodeId::new(2), NodeId::new(1)), Some(3));
        assert_eq!(t.link_id(&g, NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn enqueue_reports_route_and_capacity() {
        let g = generators::path(3);
        let cfg = TransportConfig::default().with_queue_capacity(1).unwrap();
        let mut t: Transport<u32> = Transport::new(&g, &cfg);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let ab = t.link_id(&g, a, b).unwrap();
        assert!(t.enqueue_at(ab, 1, 8, 0));
        assert!(!t.enqueue_at(ab, 2, 8, 0));
        assert_eq!(t.link_id(&g, a, c), None);
        assert!(!t.is_idle());
        assert_eq!(t.links[ab].depth(), 1);
    }

    #[test]
    fn service_delivers_in_link_order() {
        let g = generators::path(3);
        let mut t: Transport<u32> = Transport::new(&g, &TransportConfig::default());
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let bc = t.link_id(&g, b, c).unwrap();
        let ab = t.link_id(&g, a, b).unwrap();
        t.enqueue_at(bc, 10, 4, 0);
        t.enqueue_at(ab, 20, 4, 0);
        let mut seen = Vec::new();
        t.service(0, |from, to, done| seen.push((from, to, done.msg)));
        // Link order is CSR order: 0→1 before 1→2.
        assert_eq!(seen, vec![(a, b, 20), (b, c, 10)]);
        assert!(t.is_idle());
        let stats = t.link_stats(&g, b, c).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.bytes, 4);
    }
}
