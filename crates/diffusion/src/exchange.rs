//! The shard-boundary exchange abstraction of the sharded push.
//!
//! The engine in [`crate::sharded`] keeps all per-node state partitioned by
//! shard and only moves *boundary* data between rounds: cross-shard
//! residual mass. This module factors that movement into the
//! [`ShardExchange`] trait so the same canonical schedule can run over
//! different interconnects:
//!
//! * [`InProcessExchange`] — shards share an address space; residual merges
//!   are plain memory writes scheduled over [`crate::workpool`];
//! * a transport-backed implementation (the `gdsearch-dist` crate) — each
//!   shard is a node in the simulator's bounded-bandwidth reactor and
//!   outboxes serialize onto links as wire messages, with round barriers
//!   and per-round retransmission.
//!
//! # Determinism contract
//!
//! Implementations must be *value-faithful and order-free*: the bytes an
//! implementation delivers must be exactly the contributions the shards
//! buffered, and they must be applied with [`apply_residuals`] in ascending
//! source-shard order, whatever order the interconnect delivered them in.
//! Any implementation that meets the contract makes the sharded push
//! produce bit-for-bit the same output.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use crate::{workpool, DiffusionError};

/// One shard's buffered outgoing residual mass: per destination shard, a
/// list of `(destination-local row, weight)` contributions in emission
/// order (ascending source, then ascending neighbor).
pub type Outbox = Vec<Vec<(u32, f32)>>;

/// Applies one source shard's residual contributions for one destination,
/// one entry at a time in emission order — the only order the determinism
/// argument of [`crate::sharded`] permits.
pub fn apply_residuals(entries: &[(u32, f32)], residual: &mut [f32]) {
    for &(row, w) in entries {
        residual[row as usize] += w;
    }
}

/// Moves cross-shard residual mass between shards for the sharded push.
///
/// Implementations must honour the module-level determinism contract:
/// identical values in identical application order, however the bytes
/// travel.
pub trait ShardExchange {
    /// Delivers every shard's buffered cross-shard residual mass:
    /// `outboxes[s][d]` is applied to `residuals[d]`, source shards in
    /// ascending order, each box one contribution at a time in emission
    /// order. One call is one round barrier of the sharded push.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::Exchange`] when boundary data cannot be
    /// delivered (transport failure, retransmission budget exhausted, …);
    /// the in-process implementation is infallible.
    fn exchange_residuals(
        &mut self,
        outboxes: &[Outbox],
        residuals: &mut [Vec<f32>],
    ) -> Result<(), DiffusionError>;
}

/// The shared-address-space exchange: residual merges are memory writes
/// parallelized over [`crate::workpool`], one destination shard per item —
/// bit-for-bit identical output for every `(shards, threads)`.
#[derive(Debug)]
pub struct InProcessExchange {
    threads: usize,
}

impl InProcessExchange {
    /// Builds the in-process exchange, scheduling merge work over
    /// `threads` workers (the worker count never affects the result).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        InProcessExchange {
            threads: threads.max(1),
        }
    }
}

impl ShardExchange for InProcessExchange {
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
                apply_residuals(&src_box[*dest], residual);
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::{generators, ShardedGraph};

    #[test]
    fn in_process_residual_exchange_merges_in_source_order() {
        let g = generators::ring(9).unwrap();
        let sg = ShardedGraph::from_graph(&g, 3).unwrap();
        let mut ex = InProcessExchange::new(2);
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
