//! The transport-backed [`ShardExchange`]: shards as reactor nodes.
//!
//! [`TransportExchange`] places every shard of a [`ShardedGraph`] on its
//! own node of a [`Reactor`] whose overlay is the *shard peer graph*
//! ([`ShardedGraph::peers_of`](gdsearch_graph::ShardedGraph::peers_of)):
//! one bounded, bandwidth-limited duplex link per pair of shards that
//! share boundary data. Each call to
//! [`exchange_residuals`](ShardExchange::exchange_residuals) is one
//! **epoch**: a synchronous round barrier in which every peer pair
//! exchanges exactly one epoch-tagged [`ShardFrame`] per direction.
//!
//! # Barrier protocol
//!
//! 1. The driver serializes each shard's outgoing residual mass into
//!    frames, stages them on the shard's endpoint handler, and injects a
//!    [`ShardFrame::Kick`] (injections model node-local work and bypass
//!    the links, so only real frames consume bandwidth).
//! 2. Kicked endpoints transmit their staged frames; the reactor runs
//!    until every queue drains. Frames serialize over the links at the
//!    configured bytes/tick, so a fat frame on a thin link costs many
//!    ticks — the quantity `ablation_distributed` measures.
//! 3. The driver collects deliveries. If any expected `(src, dst)` frame
//!    is missing — random loss, a link drop, or a peer that was down —
//!    the owning endpoints are re-kicked and retransmit *only* the
//!    missing frames. The epoch completes when every frame has arrived;
//!    a bounded number of retransmission rounds guards against wedging.
//!
//! # Why results are identical to the in-process exchange
//!
//! Frames carry IEEE-754 bytes verbatim, so values survive the wire
//! bit-for-bit; and the driver merges residual mass with
//! [`apply_residuals`] in ascending source-shard order, regardless of the
//! order the transport delivered it in. Bandwidth, queueing, loss and
//! retransmission therefore affect *when* an epoch completes and how many
//! bytes it costs, never *what* the push computes: the module-level
//! contract of [`gdsearch_diffusion::exchange`].

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
    reason = "shard indices are below the shard count, which ShardedGraph caps at the graph's u32 node count (at least 1)"
)]

use std::collections::BTreeSet;

use gdsearch_diffusion::exchange::{apply_residuals, Outbox, ShardExchange};
use gdsearch_diffusion::DiffusionError;
use gdsearch_graph::{Graph, NodeId, ShardedGraph};
use gdsearch_sim::{NetStats, NodeApi, NodeHandler, Reactor, SimError};

use crate::frames::ShardFrame;
use crate::DistConfig;

/// Cumulative transport statistics of one [`TransportExchange`].
///
/// `frames`/`frame_bytes` are the driver's own ledger (every staged
/// transmission, retransmissions included, priced by
/// [`WireMessage::wire_size`](gdsearch_sim::WireMessage::wire_size));
/// `net` is the reactor's independent accounting of the same traffic.
/// [`ExchangeStats::verify_byte_accounting`] cross-checks the two.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExchangeStats {
    /// Completed exchange epochs: push round barriers.
    pub epochs: u64,
    /// Frames the shard endpoints handed to the link fabric,
    /// retransmissions included (the sum of the per-endpoint meters).
    pub frames: u64,
    /// Wire bytes of those frames.
    pub frame_bytes: u64,
    /// Frame retransmissions requested by the barrier after loss or drops
    /// (a request to a machine that is still down re-sends nothing and is
    /// simply re-requested next round).
    pub retransmitted_frames: u64,
    /// Barrier rounds that needed a retransmission.
    pub retransmit_rounds: u64,
    /// Reactor ticks spent (virtual time; link bandwidth is per tick).
    pub ticks: u64,
    /// The reactor's own transport accounting.
    pub net: NetStats,
    /// The first per-peer accounting divergence observed at an epoch
    /// barrier (`None` when every peer's meter agreed with the link
    /// fabric after every epoch).
    pub first_mismatch: Option<ByteMismatch>,
}

/// The first `(peer, epoch)` at which a shard endpoint's own transmission
/// meter disagreed with the reactor's independent per-source accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteMismatch {
    /// The shard (reactor node) whose accounting diverged.
    pub peer: usize,
    /// The epoch after whose barrier the divergence was first seen.
    pub epoch: u64,
    /// Frames the endpoint's own meter claims it handed to the fabric.
    pub expected_frames: u64,
    /// Frames the reactor accounted for that source.
    pub actual_frames: u64,
    /// Bytes the endpoint's own meter claims.
    pub expected_bytes: u64,
    /// Bytes the reactor accounted for that source.
    pub actual_bytes: u64,
}

impl std::fmt::Display for ByteMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "peer {} at epoch {}: endpoint metered {} frames / {} B, \
             link fabric saw {} frames / {} B",
            self.peer,
            self.epoch,
            self.expected_frames,
            self.expected_bytes,
            self.actual_frames,
            self.actual_bytes
        )
    }
}

impl ExchangeStats {
    /// Cross-checks the driver's frame ledger against the reactor's
    /// independent byte accounting: every frame the driver staged must
    /// appear in [`NetStats::sent`]/[`NetStats::bytes_sent`] with exactly
    /// its [`wire_size`](gdsearch_sim::WireMessage::wire_size) bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::Exchange`] describing the first
    /// mismatching counter, including the first mismatching
    /// `(peer, epoch, expected, actual)` tuple when the per-epoch barrier
    /// check pinned the divergence to a specific shard.
    pub fn verify_byte_accounting(&self) -> Result<(), DiffusionError> {
        if let Some(m) = &self.first_mismatch {
            return Err(DiffusionError::exchange(format!(
                "per-peer ledger disagrees with transport: first divergence at {m}"
            )));
        }
        if self.frames != self.net.sent {
            return Err(DiffusionError::exchange(format!(
                "frame ledger disagrees with transport: staged {} frames, link fabric saw {}",
                self.frames, self.net.sent
            )));
        }
        if self.frame_bytes != self.net.bytes_sent {
            return Err(DiffusionError::exchange(format!(
                "byte ledger disagrees with transport: staged {} B, link fabric saw {} B",
                self.frame_bytes, self.net.bytes_sent
            )));
        }
        Ok(())
    }
}

/// One shard's protocol endpoint on the reactor: transmits its staged
/// frames when kicked, buffers every delivered frame for the driver, and
/// meters its own outgoing traffic (the ledger
/// [`ExchangeStats::verify_byte_accounting`] cross-checks against the
/// link fabric — a kick that never reaches a churned-down endpoint sends
/// nothing, and the meter must agree).
#[derive(Debug, Default)]
struct ShardEndpoint {
    /// Frames staged for the current epoch, with their destinations.
    staged: Vec<(NodeId, ShardFrame)>,
    /// Which staged frames still need (re)transmission.
    pending: Vec<bool>,
    /// Deliveries awaiting driver collection: `(source shard, frame)`.
    received: Vec<(usize, ShardFrame)>,
    /// Frames this endpoint handed to the link fabric.
    sent_frames: u64,
    /// Their wire bytes, priced by [`gdsearch_sim::WireMessage::wire_size`].
    sent_bytes: u64,
}

impl NodeHandler<ShardFrame> for ShardEndpoint {
    fn handle(&mut self, from: Option<NodeId>, msg: ShardFrame, api: &mut NodeApi<'_, ShardFrame>) {
        use gdsearch_sim::WireMessage;
        match msg {
            ShardFrame::Kick { .. } => {
                for (i, (to, frame)) in self.staged.iter().enumerate() {
                    if self.pending[i] {
                        self.sent_frames += 1;
                        self.sent_bytes += frame.wire_size() as u64;
                        api.send(*to, frame.clone());
                    }
                }
                self.pending.iter_mut().for_each(|p| *p = false);
            }
            frame => {
                let src = from.expect("data frames always arrive over a link");
                self.received.push((src.index(), frame));
            }
        }
    }
}

/// The transport-backed shard interconnect (see the module docs).
///
/// Construct one per diffusion run with [`TransportExchange::new`], pass
/// it to [`gdsearch_diffusion::sharded::diffuse_sparse_with_exchange`]
/// ([`crate::diffuse_sparse`] does this), and read the final
/// [`ExchangeStats`] with [`TransportExchange::finish`].
pub struct TransportExchange {
    /// Per shard: its exchange peers ([`ShardedGraph::peers_of`]),
    /// ascending.
    peers: Vec<Vec<usize>>,
    reactor: Reactor<ShardFrame, ShardEndpoint>,
    epoch: u64,
    max_ticks_per_round: u64,
    max_retransmit_rounds: u32,
    stats: ExchangeStats,
}

impl std::fmt::Debug for TransportExchange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransportExchange")
            .field("shards", &self.peers.len())
            .field("epoch", &self.epoch)
            .field("stats", &self.stats)
            .finish()
    }
}

fn sim_err(e: SimError) -> DiffusionError {
    DiffusionError::exchange(e.to_string())
}

impl TransportExchange {
    /// Builds the shard overlay (one reactor node per shard, one duplex
    /// link per peer pair) and the link fabric from `config.transport()`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::Exchange`] if the reactor rejects the
    /// overlay or the transport configuration.
    pub fn new(sharded: &ShardedGraph, config: &DistConfig) -> Result<Self, DiffusionError> {
        let num_shards = sharded.num_shards();
        let peers: Vec<Vec<usize>> = (0..num_shards).map(|s| sharded.peers_of(s)).collect();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (s, peers) in peers.iter().enumerate() {
            for &p in peers {
                if p > s {
                    edges.push((s as u32, p as u32));
                }
            }
        }
        let overlay = Graph::from_edges(num_shards as u32, edges)?;
        let endpoints = (0..num_shards).map(|_| ShardEndpoint::default()).collect();
        let reactor =
            Reactor::new(overlay, endpoints, config.transport().clone()).map_err(sim_err)?;
        Ok(TransportExchange {
            peers,
            reactor,
            epoch: 0,
            max_ticks_per_round: config.max_ticks_per_round(),
            max_retransmit_rounds: config.max_retransmit_rounds(),
            stats: ExchangeStats::default(),
        })
    }

    /// Transport statistics so far: the driver's barrier counters, the
    /// per-endpoint transmission meters, and the reactor's [`NetStats`]
    /// snapshot.
    #[must_use]
    pub fn stats(&self) -> ExchangeStats {
        let mut stats = self.stats.clone();
        stats.net = *self.reactor.stats();
        for s in 0..self.peers.len() {
            let endpoint = self
                .reactor
                .handler(NodeId::new(s as u32))
                .expect("one endpoint per shard");
            stats.frames += endpoint.sent_frames;
            stats.frame_bytes += endpoint.sent_bytes;
        }
        stats
    }

    /// Finishes the run: verifies the driver's frame ledger against the
    /// reactor's byte accounting and returns the final statistics.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::Exchange`] on any accounting mismatch —
    /// the "bytes-on-the-wire" numbers reported by the ablation would be
    /// untrustworthy.
    pub fn finish(self) -> Result<ExchangeStats, DiffusionError> {
        let stats = self.stats();
        stats.verify_byte_accounting()?;
        Ok(stats)
    }

    /// Runs one epoch-tagged round barrier: stages `outgoing[src]`
    /// (`(dest, frame)` pairs), kicks the senders, drives the reactor
    /// until every frame arrived (retransmitting lost ones), and returns
    /// the deliveries per destination in **ascending source order**.
    fn run_epoch(
        &mut self,
        outgoing: Vec<Vec<(usize, ShardFrame)>>,
    ) -> Result<Vec<Vec<(usize, ShardFrame)>>, DiffusionError> {
        let epoch = self.epoch;
        let num_shards = self.peers.len();
        let mut expected: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (src, frames) in outgoing.iter().enumerate() {
            for (dest, frame) in frames {
                debug_assert_eq!(frame.epoch(), epoch, "frame tagged with a stale epoch");
                if !expected.insert((src, *dest)) {
                    return Err(DiffusionError::exchange(format!(
                        "duplicate frame {src} -> {dest} staged in epoch {epoch}"
                    )));
                }
            }
        }
        let mut inbox: Vec<Vec<(usize, ShardFrame)>> = vec![Vec::new(); num_shards];
        if !expected.is_empty() {
            for (src, frames) in outgoing.into_iter().enumerate() {
                if frames.is_empty() {
                    continue;
                }
                let endpoint = self
                    .reactor
                    .handler_mut(NodeId::new(src as u32))
                    .map_err(sim_err)?;
                endpoint.pending = vec![true; frames.len()];
                endpoint.staged = frames
                    .into_iter()
                    .map(|(dest, frame)| (NodeId::new(dest as u32), frame))
                    .collect();
                self.reactor
                    .inject(NodeId::new(src as u32), ShardFrame::Kick { epoch })
                    .map_err(sim_err)?;
            }
            let mut rounds = 0u32;
            loop {
                let before = self.reactor.now_tick();
                self.reactor
                    .run_to_completion(self.max_ticks_per_round)
                    .map_err(|e| {
                        DiffusionError::exchange(format!(
                            "epoch {epoch} exceeded the per-round tick budget: {e}"
                        ))
                    })?;
                self.stats.ticks += self.reactor.now_tick() - before;
                for (dest, slot) in inbox.iter_mut().enumerate() {
                    let endpoint = self
                        .reactor
                        .handler_mut(NodeId::new(dest as u32))
                        .map_err(sim_err)?;
                    for (src, frame) in endpoint.received.drain(..) {
                        if frame.epoch() != epoch {
                            return Err(DiffusionError::exchange(format!(
                                "epoch mismatch: expected {epoch}, frame from shard {src} \
                                 carries {}",
                                frame.epoch()
                            )));
                        }
                        if !expected.remove(&(src, dest)) {
                            return Err(DiffusionError::exchange(format!(
                                "unexpected frame {src} -> {dest} in epoch {epoch}"
                            )));
                        }
                        slot.push((src, frame));
                    }
                }
                if expected.is_empty() {
                    break;
                }
                // Some frames were lost or dropped: retransmit exactly the
                // missing (src, dest) pairs.
                rounds += 1;
                if rounds > self.max_retransmit_rounds {
                    return Err(DiffusionError::exchange(format!(
                        "epoch {epoch}: {} frames still missing after {} retransmission \
                         rounds",
                        expected.len(),
                        self.max_retransmit_rounds
                    )));
                }
                self.stats.retransmit_rounds += 1;
                let missing: Vec<(usize, usize)> = expected.iter().copied().collect();
                let mut kick_srcs: Vec<usize> = Vec::new();
                for &(src, dest) in &missing {
                    let endpoint = self
                        .reactor
                        .handler_mut(NodeId::new(src as u32))
                        .map_err(sim_err)?;
                    for (i, (to, _)) in endpoint.staged.iter().enumerate() {
                        if to.index() == dest {
                            endpoint.pending[i] = true;
                        }
                    }
                    self.stats.retransmitted_frames += 1;
                    if kick_srcs.last() != Some(&src) {
                        kick_srcs.push(src);
                    }
                }
                for src in kick_srcs {
                    self.reactor
                        .inject(NodeId::new(src as u32), ShardFrame::Kick { epoch })
                        .map_err(sim_err)?;
                }
            }
        }
        // Canonicalize: deliveries in ascending source order, independent
        // of transport timing.
        for slot in &mut inbox {
            slot.sort_by_key(|(src, _)| *src);
        }
        // Epoch barrier cross-check: every endpoint's own transmission
        // meter must agree with the reactor's independent per-source
        // accounting. The first divergence is pinned to its (peer, epoch)
        // so verify_byte_accounting can report where the ledgers split.
        if self.stats.first_mismatch.is_none() {
            for s in 0..num_shards {
                let node = NodeId::new(s as u32);
                let (actual_frames, actual_bytes) =
                    self.reactor.sent_from(node).map_err(sim_err)?;
                let endpoint = self.reactor.handler(node).map_err(sim_err)?;
                if (endpoint.sent_frames, endpoint.sent_bytes) != (actual_frames, actual_bytes) {
                    self.stats.first_mismatch = Some(ByteMismatch {
                        peer: s,
                        epoch,
                        expected_frames: endpoint.sent_frames,
                        actual_frames,
                        expected_bytes: endpoint.sent_bytes,
                        actual_bytes,
                    });
                    break;
                }
            }
        }
        self.stats.epochs += 1;
        Ok(inbox)
    }
}

impl ShardExchange for TransportExchange {
    fn exchange_residuals(
        &mut self,
        outboxes: &[Outbox],
        residuals: &mut [Vec<f32>],
    ) -> Result<(), DiffusionError> {
        let num_shards = self.peers.len();
        self.epoch += 1;
        let epoch = self.epoch;
        let mut outgoing: Vec<Vec<(usize, ShardFrame)>> = vec![Vec::new(); num_shards];
        for (src, outbox) in outboxes.iter().enumerate() {
            for (dest, entries) in outbox.iter().enumerate() {
                if dest == src {
                    continue; // self-mass is applied locally below
                }
                if self.peers[src].binary_search(&dest).is_ok() {
                    // Peers always exchange a frame — empty frames keep the
                    // barrier's expectation static across rounds.
                    outgoing[src].push((
                        dest,
                        ShardFrame::Residual {
                            epoch,
                            entries: entries.clone(),
                        },
                    ));
                } else if !entries.is_empty() {
                    return Err(DiffusionError::exchange(format!(
                        "shard {src} buffered residual mass for non-peer {dest}"
                    )));
                }
            }
        }
        let inbox = self.run_epoch(outgoing)?;
        // Merge in canonical ascending source order, the local self-box
        // taking its own position in the sequence.
        for (dest, (residual, frames)) in residuals.iter_mut().zip(&inbox).enumerate() {
            let mut frames = frames.iter().peekable();
            for src in 0..num_shards {
                if src == dest {
                    apply_residuals(&outboxes[dest][dest], residual);
                    continue;
                }
                if let Some((frame_src, frame)) = frames.peek() {
                    if *frame_src == src {
                        let ShardFrame::Residual { entries, .. } = frame else {
                            return Err(DiffusionError::exchange(format!(
                                "shard {dest}: expected a residual frame from {src}, \
                                 got {frame:?}"
                            )));
                        };
                        apply_residuals(entries, residual);
                        frames.next();
                    }
                }
            }
            if frames.next().is_some() {
                return Err(DiffusionError::exchange(format!(
                    "shard {dest}: leftover residual frames after the merge"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_diffusion::exchange::InProcessExchange;
    use gdsearch_diffusion::{sharded, PprConfig};
    use gdsearch_graph::generators;
    use gdsearch_sim::TransportConfig;

    fn sharded_cfg(shards: usize) -> sharded::ShardedConfig {
        sharded::ShardedConfig::new(PprConfig::new(0.5).unwrap().with_tolerance(1e-6).unwrap())
            .with_shards(shards)
            .unwrap()
    }

    /// Zeroed residual blocks, one per shard.
    fn fresh(sg: &ShardedGraph) -> Vec<Vec<f32>> {
        sg.shards()
            .iter()
            .map(|s| vec![0.0; s.num_local_nodes()])
            .collect()
    }

    /// Two contributions from every shard to every peer and one to itself.
    fn peer_outboxes(sg: &ShardedGraph) -> Vec<Outbox> {
        let num_shards = sg.num_shards();
        (0..num_shards)
            .map(|s| {
                let mut outbox: Outbox = vec![Vec::new(); num_shards];
                for dest in sg.peers_of(s).into_iter().chain([s]) {
                    outbox[dest] = vec![(0, 0.5 + s as f32), (1, 0.25)];
                }
                outbox
            })
            .collect()
    }

    #[test]
    fn residual_exchange_matches_in_process_bitwise() {
        let g = generators::ring(12).unwrap();
        let sg = ShardedGraph::from_graph(&g, 3).unwrap();
        let mut outboxes: Vec<Outbox> = vec![vec![Vec::new(); 3]; 3];
        // Ring shards: peers are the adjacent ranges (and 0-2 wrap).
        outboxes[0][1] = vec![(0, 0.5), (0, 0.25)];
        outboxes[1][2] = vec![(1, 0.75)];
        outboxes[2][0] = vec![(3, 1.5)];
        outboxes[1][1] = vec![(2, 2.0)];
        let mut reference = fresh(&sg);
        InProcessExchange::new(1)
            .exchange_residuals(&outboxes, &mut reference)
            .unwrap();
        let config = DistConfig::new(sharded_cfg(3));
        let mut ex = TransportExchange::new(&sg, &config).unwrap();
        let mut residuals = fresh(&sg);
        ex.exchange_residuals(&outboxes, &mut residuals).unwrap();
        assert_eq!(residuals, reference);
        ex.finish().unwrap();
    }

    #[test]
    fn lost_frames_are_retransmitted_to_the_same_values() {
        let g = generators::ring(16).unwrap();
        let sg = ShardedGraph::from_graph(&g, 4).unwrap();
        let outboxes = peer_outboxes(&sg);
        let mut reference = fresh(&sg);
        InProcessExchange::new(1)
            .exchange_residuals(&outboxes, &mut reference)
            .unwrap();
        let lossy = TransportConfig::default()
            .with_loss_probability(0.4)
            .unwrap()
            .with_seed(11);
        let config = DistConfig::new(sharded_cfg(4)).with_transport(lossy);
        let mut ex = TransportExchange::new(&sg, &config).unwrap();
        for _ in 0..12 {
            let mut residuals = fresh(&sg);
            ex.exchange_residuals(&outboxes, &mut residuals).unwrap();
            assert_eq!(residuals, reference);
        }
        let stats = ex.finish().unwrap();
        assert!(
            stats.retransmitted_frames > 0,
            "40% loss over 12 epochs must trigger retransmission"
        );
    }

    #[test]
    fn mismatch_errors_cite_the_first_peer_epoch_tuple() {
        let stats = ExchangeStats {
            frames: 3,
            frame_bytes: 120,
            first_mismatch: Some(ByteMismatch {
                peer: 2,
                epoch: 5,
                expected_frames: 3,
                actual_frames: 2,
                expected_bytes: 120,
                actual_bytes: 80,
            }),
            ..ExchangeStats::default()
        };
        let err = stats.verify_byte_accounting().unwrap_err().to_string();
        assert!(err.contains("peer 2"), "{err}");
        assert!(err.contains("epoch 5"), "{err}");
        assert!(err.contains("3 frames"), "{err}");
        assert!(err.contains("2 frames"), "{err}");
        assert!(err.contains("120 B"), "{err}");
        assert!(err.contains("80 B"), "{err}");
    }

    #[test]
    fn single_shard_needs_no_wire() {
        let g = generators::ring(8).unwrap();
        let sg = ShardedGraph::from_graph(&g, 1).unwrap();
        let config = DistConfig::new(sharded_cfg(1));
        let mut ex = TransportExchange::new(&sg, &config).unwrap();
        let outboxes = vec![vec![vec![(2, 2.0f32), (2, 0.5)]]];
        let mut residuals = fresh(&sg);
        ex.exchange_residuals(&outboxes, &mut residuals).unwrap();
        assert_eq!(residuals[0], [0.0, 0.0, 2.5, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let stats = ex.finish().unwrap();
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.net.bytes_sent, 0);
    }

    #[test]
    fn retransmission_budget_is_enforced() {
        let g = generators::ring(8).unwrap();
        let sg = ShardedGraph::from_graph(&g, 2).unwrap();
        let always_lossy = TransportConfig::default()
            .with_loss_probability(1.0)
            .unwrap();
        let config = DistConfig::new(sharded_cfg(2))
            .with_transport(always_lossy)
            .with_max_retransmit_rounds(3);
        let mut ex = TransportExchange::new(&sg, &config).unwrap();
        let err = ex
            .exchange_residuals(&peer_outboxes(&sg), &mut fresh(&sg))
            .unwrap_err();
        assert!(matches!(err, DiffusionError::Exchange { .. }), "{err}");
    }
}
