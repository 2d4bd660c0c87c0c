//! The shard-boundary exchange abstraction of the sharded engines.
//!
//! The engines in [`crate::sharded`] keep all per-node state partitioned by
//! shard and only move *boundary* data between steps: halo columns of the
//! previous iterate (power sweep) and cross-shard residual mass (push).
//! This module factors that movement into the [`ShardExchange`] trait so
//! the same canonical schedule can run over different interconnects:
//!
//! * [`InProcessExchange`] — shards share an address space; frames are
//!   plain memory copies scheduled over [`crate::workpool`] (the PR 4
//!   behaviour, bitwise unchanged);
//! * a transport-backed implementation (the `gdsearch-dist` crate) — each
//!   shard is a node in the simulator's bounded-bandwidth reactor and
//!   frames serialize onto links as wire messages, with round barriers and
//!   per-round retransmission.
//!
//! # Determinism contract
//!
//! Implementations must be *value-faithful and order-free*: the bytes an
//! implementation delivers must be exactly the values requested by the
//! [`ExchangePlan`], and all order-sensitive work — which slot a halo value
//! lands in, the ascending-source order residual contributions are applied
//! in — is fixed by the plan and by this module's application helpers, not
//! by delivery timing. Any implementation that meets the contract makes
//! the sharded engines produce bit-for-bit the same output, which is how
//! the distributed backend inherits the PR 4 guarantee.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "a halo slot indexes a shard's local rows then its halo, disjoint node sets of one Graph, so it stays below the graph's u32 node count"
)]

use gdsearch_graph::ShardedGraph;

use crate::{workpool, DiffusionError};

/// One shard's buffered outgoing residual mass: per destination shard, a
/// list of `(destination-local row, weight)` contributions in emission
/// order (ascending source, then ascending neighbor).
pub type Outbox = Vec<Vec<(u32, f32)>>;

/// The halo rows one shard needs from one owning peer, with the input
/// slots they land in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloGroup {
    /// The owning (source) shard.
    pub src: usize,
    /// Owner-local row indices, in the destination's halo order
    /// (ascending global node id).
    pub rows: Vec<u32>,
    /// Destination slot indices, parallel to `rows`.
    pub slots: Vec<u32>,
}

/// The static exchange schedule of a partition: who needs which rows from
/// whom, and where gathered values land. Built once per partition; every
/// [`ShardExchange`] implementation interprets it the same way.
#[derive(Debug, Clone)]
pub struct ExchangePlan {
    num_shards: usize,
    /// Per shard: slot index of the first local row (`halo_split`).
    local_slot_base: Vec<usize>,
    /// Per destination shard: its halo requests, grouped by owning shard
    /// in ascending `src` order.
    halo_groups: Vec<Vec<HaloGroup>>,
    /// Per shard: its exchange peers ([`ShardedGraph::peers_of`]),
    /// ascending.
    peers: Vec<Vec<usize>>,
}

impl ExchangePlan {
    /// Builds the exchange schedule of `sharded`.
    #[must_use]
    pub fn new(sharded: &ShardedGraph) -> Self {
        let num_shards = sharded.num_shards();
        let mut halo_groups = Vec::with_capacity(num_shards);
        let mut peers = Vec::with_capacity(num_shards);
        for shard in sharded.shards() {
            // The halo is sorted by global id, so owners come in ascending
            // contiguous runs — one group per owning shard.
            let mut groups: Vec<HaloGroup> = Vec::new();
            for (i, &h) in shard.halo().iter().enumerate() {
                let owner = sharded.owner_of(h);
                let row = h.as_u32() - sharded.shard(owner).start();
                let slot = shard.halo_slot(i) as u32;
                match groups.last_mut() {
                    Some(g) if g.src == owner => {
                        g.rows.push(row);
                        g.slots.push(slot);
                    }
                    _ => groups.push(HaloGroup {
                        src: owner,
                        rows: vec![row],
                        slots: vec![slot],
                    }),
                }
            }
            // Derive the peer list from the groups themselves so the two
            // can never desynchronize (it equals `ShardedGraph::peers_of`,
            // cross-checked by the plan tests).
            peers.push(groups.iter().map(|g| g.src).collect());
            halo_groups.push(groups);
        }
        ExchangePlan {
            num_shards,
            local_slot_base: sharded.shards().iter().map(|s| s.halo_split()).collect(),
            halo_groups,
            peers,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Slot index of shard `s`'s first local row.
    #[must_use]
    pub fn local_slot_base(&self, s: usize) -> usize {
        self.local_slot_base[s]
    }

    /// Shard `s`'s halo requests, grouped by owning shard ascending.
    #[must_use]
    pub fn halo_groups(&self, s: usize) -> &[HaloGroup] {
        &self.halo_groups[s]
    }

    /// Shard `s`'s exchange peers, ascending.
    #[must_use]
    pub fn peers(&self, s: usize) -> &[usize] {
        &self.peers[s]
    }

    /// Copies shard `s`'s local block of the current iterate into the
    /// local slots of its input vector — boundary-free data every
    /// implementation moves without touching the interconnect.
    pub fn copy_local(&self, s: usize, dim: usize, current: &[f32], input: &mut [f32]) {
        let base = self.local_slot_base[s] * dim;
        input[base..base + current.len()].copy_from_slice(current);
    }

    /// Applies one source shard's residual contributions for destination
    /// `dest`, one entry at a time in emission order — the only order the
    /// determinism argument of [`crate::sharded`] permits.
    pub fn apply_residuals(entries: &[(u32, f32)], residual: &mut [f32]) {
        for &(row, w) in entries {
            residual[row as usize] += w;
        }
    }
}

/// Moves boundary data between shards for the sharded engines.
///
/// Implementations own an [`ExchangePlan`] and must honour the module-level
/// determinism contract: identical values in identical application order,
/// however the bytes travel.
pub trait ShardExchange {
    /// Fills each shard's slot-layout input with the current iterate:
    /// `inputs[s]` receives shard `s`'s own block in its local slots plus
    /// every halo value (gathered from the owning shards) in its halo
    /// slots. One call is one synchronous round of the power sweep's halo
    /// exchange.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::Exchange`] when boundary data cannot be
    /// delivered (transport failure, retransmission budget exhausted, …);
    /// the in-process implementation is infallible.
    fn exchange_halos(
        &mut self,
        dim: usize,
        currents: &[Vec<f32>],
        inputs: &mut [Vec<f32>],
    ) -> Result<(), DiffusionError>;

    /// Delivers every shard's buffered cross-shard residual mass:
    /// `outboxes[s][d]` is applied to `residuals[d]`, source shards in
    /// ascending order, each box one contribution at a time in emission
    /// order. One call is one round barrier of the sharded push.
    ///
    /// # Errors
    ///
    /// As [`ShardExchange::exchange_halos`].
    fn exchange_residuals(
        &mut self,
        outboxes: &[Outbox],
        residuals: &mut [Vec<f32>],
    ) -> Result<(), DiffusionError>;
}

/// The shared-address-space exchange: halo gathers and residual merges are
/// memory copies parallelized over [`crate::workpool`]. This is exactly
/// the boundary movement the PR 4 engines performed inline — bit-for-bit
/// identical output for every `(shards, threads)`.
#[derive(Debug)]
pub struct InProcessExchange {
    plan: ExchangePlan,
    threads: usize,
}

impl InProcessExchange {
    /// Builds the in-process exchange for a partition, scheduling copy
    /// work over `threads` workers (the worker count never affects the
    /// result).
    #[must_use]
    pub fn new(sharded: &ShardedGraph, threads: usize) -> Self {
        InProcessExchange {
            plan: ExchangePlan::new(sharded),
            threads: threads.max(1),
        }
    }

    /// The exchange schedule.
    #[must_use]
    pub fn plan(&self) -> &ExchangePlan {
        &self.plan
    }
}

impl ShardExchange for InProcessExchange {
    fn exchange_halos(
        &mut self,
        dim: usize,
        currents: &[Vec<f32>],
        inputs: &mut [Vec<f32>],
    ) -> Result<(), DiffusionError> {
        let plan = &self.plan;
        let mut items: Vec<(usize, &mut Vec<f32>)> = inputs.iter_mut().enumerate().collect();
        workpool::map_batched_mut(&mut items, self.threads, |(s, input)| {
            plan.copy_local(*s, dim, &currents[*s], input);
            for group in plan.halo_groups(*s) {
                let src = currents[group.src].as_slice();
                for (&row, &slot) in group.rows.iter().zip(&group.slots) {
                    let row = row as usize * dim;
                    let slot = slot as usize * dim;
                    input[slot..slot + dim].copy_from_slice(&src[row..row + dim]);
                }
            }
        });
        Ok(())
    }

    fn exchange_residuals(
        &mut self,
        outboxes: &[Outbox],
        residuals: &mut [Vec<f32>],
    ) -> Result<(), DiffusionError> {
        let mut items: Vec<(usize, &mut Vec<f32>)> = residuals.iter_mut().enumerate().collect();
        workpool::map_batched_mut(&mut items, self.threads, |(dest, residual)| {
            // Source shards in ascending order = ascending source node id
            // (the determinism argument in the `sharded` module docs).
            for src_box in outboxes {
                ExchangePlan::apply_residuals(&src_box[*dest], residual);
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::{generators, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plan_covers_every_halo_slot_exactly_once() {
        let g = generators::social_circles_like_scaled(70, &mut StdRng::seed_from_u64(3)).unwrap();
        let sg = ShardedGraph::from_graph(&g, 4).unwrap();
        let plan = ExchangePlan::new(&sg);
        for (s, shard) in sg.shards().iter().enumerate() {
            let mut covered = vec![false; shard.slot_count()];
            for local in 0..shard.num_local_nodes() {
                covered[plan.local_slot_base(s) + local] = true;
            }
            let mut last_src = None;
            for group in plan.halo_groups(s) {
                assert!(last_src < Some(group.src), "groups not ascending");
                last_src = Some(group.src);
                assert_eq!(group.rows.len(), group.slots.len());
                for (&row, &slot) in group.rows.iter().zip(&group.slots) {
                    // The slot maps back to the global id the row names.
                    let owner = sg.shard(group.src);
                    let global = NodeId::new(owner.start() + row);
                    assert_eq!(shard.slot_of(global), Some(slot as usize));
                    assert!(!covered[slot as usize], "slot covered twice");
                    covered[slot as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "uncovered slot in shard {s}");
            // The plan's peer list (derived from the groups) agrees with
            // the graph-level derivation.
            assert_eq!(
                plan.peers(s),
                sg.peers_of(s),
                "peers disagree for shard {s}"
            );
        }
    }

    #[test]
    fn in_process_halo_exchange_reconstructs_slot_views() {
        let g = generators::grid(5, 4);
        let sg = ShardedGraph::from_graph(&g, 3).unwrap();
        let dim = 2;
        // currents[s][local * dim + d] = global id * 10 + d: recognizable.
        let currents: Vec<Vec<f32>> = sg
            .shards()
            .iter()
            .map(|shard| {
                (0..shard.num_local_nodes() * dim)
                    .map(|j| {
                        let (local, d) = (j / dim, j % dim);
                        (shard.start() as usize + local) as f32 * 10.0 + d as f32
                    })
                    .collect()
            })
            .collect();
        let mut inputs: Vec<Vec<f32>> = sg
            .shards()
            .iter()
            .map(|shard| vec![f32::NAN; shard.slot_count() * dim])
            .collect();
        for threads in [1usize, 4] {
            let mut ex = InProcessExchange::new(&sg, threads);
            ex.exchange_halos(dim, &currents, &mut inputs).unwrap();
            for (shard, input) in sg.shards().iter().zip(&inputs) {
                for u in g.node_ids() {
                    if let Some(slot) = shard.slot_of(u) {
                        for d in 0..dim {
                            assert_eq!(
                                input[slot * dim + d],
                                u.index() as f32 * 10.0 + d as f32,
                                "shard {}..{} slot {slot}",
                                shard.start(),
                                shard.end()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn in_process_residual_exchange_merges_in_source_order() {
        let g = generators::ring(9).unwrap();
        let sg = ShardedGraph::from_graph(&g, 3).unwrap();
        let mut ex = InProcessExchange::new(&sg, 2);
        let mut outboxes: Vec<Outbox> = vec![vec![Vec::new(); 3]; 3];
        outboxes[0][1] = vec![(0, 0.5), (0, 0.25)];
        outboxes[2][1] = vec![(1, 1.0)];
        outboxes[1][1] = vec![(2, 2.0)]; // self-delivery participates too
        let mut residuals: Vec<Vec<f32>> = sg
            .shards()
            .iter()
            .map(|s| vec![0.0; s.num_local_nodes()])
            .collect();
        ex.exchange_residuals(&outboxes, &mut residuals).unwrap();
        assert_eq!(residuals[1], vec![0.75, 1.0, 2.0]);
        assert!(residuals[0].iter().all(|&r| r == 0.0));
    }
}
