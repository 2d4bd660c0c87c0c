//! Distributed execution of the sharded push over simulated transport
//! links.
//!
//! The sharded push of [`gdsearch_diffusion::sharded`] partitions all
//! per-node state by contiguous node range and exchanges only cross-shard
//! residual mass between rounds — but in-process, over shared memory. This
//! crate supplies the missing hop of the paper's decentralized premise:
//! each shard becomes a node of the [`gdsearch_sim`] reactor, and residual
//! mass travels as epoch-tagged [`ShardFrame`]s over bounded,
//! bandwidth-limited links, with round barriers and per-round
//! retransmission of lost frames ([`TransportExchange`]).
//!
//! The headline guarantee carries over from the in-process engine:
//! **distributed results are bit-for-bit identical to
//! [`gdsearch_diffusion::sharded::diffuse_sparse`] for every
//! `(shards, threads)` combination and every transport configuration that
//! lets every frame eventually arrive** — bandwidth, queueing, random loss
//! and churn only change how many ticks and bytes the computation costs,
//! never its output. The argument is in [`exchange`];
//! `ablation_distributed` measures cost against interconnect bandwidth and
//! CI enforces the bitwise and byte-accounting claims.
//!
//! # Example
//!
//! ```
//! use gdsearch_diffusion::{sharded, PprConfig};
//! use gdsearch_dist::DistConfig;
//! use gdsearch_embed::Embedding;
//! use gdsearch_graph::{generators, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::ring(64)?;
//! let sources = [(NodeId::new(0), Embedding::new(vec![1.0, 0.25]))];
//! let scfg = sharded::ShardedConfig::new(PprConfig::new(0.5)?).with_shards(4)?;
//! let (out, stats) = gdsearch_dist::diffuse_sparse(&g, 2, &sources, &DistConfig::new(scfg))?;
//! // Bit-for-bit identical to the in-process sharded push...
//! assert_eq!(out, sharded::diffuse_sparse(&g, 2, &sources, &scfg)?);
//! // ...with every boundary byte accounted on the simulated wire.
//! assert!(stats.frame_bytes > 0);
//! assert_eq!(stats.frame_bytes, stats.net.bytes_sent);
//! # Ok(())
//! # }
//! ```

// The static gate for library code (tests exempt); audited exceptions are
// per-file `#![expect]`s, see README "Determinism invariants".
#![cfg_attr(
    not(test),
    warn(
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]
#![warn(missing_docs)]

pub mod exchange;
pub mod frames;

use gdsearch_diffusion::sharded::{self, ShardedConfig};
use gdsearch_diffusion::{DiffusionError, Signal};
use gdsearch_embed::Embedding;
use gdsearch_graph::{Graph, NodeId, ShardedGraph};
use gdsearch_sim::TransportConfig;

pub use exchange::{ByteMismatch, ExchangeStats, TransportExchange};
pub use frames::ShardFrame;

/// Configuration of a distributed push run: the sharded engine knobs
/// plus the interconnect model and the barrier safety bounds.
#[derive(Debug, Clone)]
pub struct DistConfig {
    sharded: ShardedConfig,
    transport: TransportConfig,
    max_ticks_per_round: u64,
    max_retransmit_rounds: u32,
}

impl DistConfig {
    /// Wraps a sharded-engine configuration with the default interconnect:
    /// [`TransportConfig::default`] links (64 KiB/tick, lossless) and
    /// generous barrier bounds.
    #[must_use]
    pub fn new(sharded: ShardedConfig) -> Self {
        DistConfig {
            sharded,
            transport: TransportConfig::default(),
            max_ticks_per_round: 100_000_000,
            max_retransmit_rounds: 4096,
        }
    }

    /// Sets the interconnect model (bandwidth, queue bounds, loss, churn,
    /// seed).
    #[must_use]
    pub fn with_transport(mut self, transport: TransportConfig) -> Self {
        self.transport = transport;
        self
    }

    /// Bounds the reactor ticks one barrier round may take before the
    /// exchange reports failure (a wedged interconnect must not hang the
    /// driver).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] for a zero budget.
    pub fn with_max_ticks_per_round(mut self, ticks: u64) -> Result<Self, DiffusionError> {
        if ticks == 0 {
            return Err(DiffusionError::InvalidParameter {
                reason: "per-round tick budget must be positive".into(),
            });
        }
        self.max_ticks_per_round = ticks;
        Ok(self)
    }

    /// Bounds how many retransmission rounds one epoch may need before the
    /// exchange reports failure.
    #[must_use]
    pub fn with_max_retransmit_rounds(mut self, rounds: u32) -> Self {
        self.max_retransmit_rounds = rounds;
        self
    }

    /// The sharded engine configuration.
    #[must_use]
    pub fn sharded(&self) -> &ShardedConfig {
        &self.sharded
    }

    /// The interconnect model.
    #[must_use]
    pub fn transport(&self) -> &TransportConfig {
        &self.transport
    }

    /// The per-round tick budget.
    #[must_use]
    pub fn max_ticks_per_round(&self) -> u64 {
        self.max_ticks_per_round
    }

    /// The per-epoch retransmission budget.
    #[must_use]
    pub fn max_retransmit_rounds(&self) -> u32 {
        self.max_retransmit_rounds
    }
}

/// Diffuses a sparse personalization with one distributed push column per
/// distinct source node. Bit-for-bit identical to
/// [`sharded::diffuse_sparse`] whenever every frame eventually arrives;
/// transport statistics accumulate across the batch.
///
/// # Errors
///
/// As [`sharded::diffuse_sparse`], plus [`DiffusionError::Exchange`] for
/// transport failures.
pub fn diffuse_sparse(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &DistConfig,
) -> Result<(Signal, ExchangeStats), DiffusionError> {
    let sharded_graph = ShardedGraph::from_graph(graph, config.sharded.shards())?;
    let mut exchange = TransportExchange::new(&sharded_graph, config)?;
    let signal = sharded::diffuse_sparse_with_exchange(
        &sharded_graph,
        dim,
        sources,
        &config.sharded,
        &mut exchange,
    )?;
    Ok((signal, exchange.finish()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_diffusion::PprConfig;
    use gdsearch_graph::generators;

    fn cfg(shards: usize) -> DistConfig {
        DistConfig::new(
            ShardedConfig::new(PprConfig::new(0.5).unwrap().with_tolerance(1e-6).unwrap())
                .with_shards(shards)
                .unwrap(),
        )
    }

    #[test]
    fn distributed_sparse_batch_matches_in_process_bitwise() {
        let g = generators::grid(4, 4);
        let sources = vec![
            (NodeId::new(2), Embedding::new(vec![1.0, 0.0])),
            (NodeId::new(11), Embedding::new(vec![0.25, 2.0])),
        ];
        let reference = sharded::diffuse_sparse(&g, 2, &sources, cfg(3).sharded()).unwrap();
        let (out, stats) = diffuse_sparse(&g, 2, &sources, &cfg(3)).unwrap();
        assert_eq!(out, reference);
        assert!(stats.epochs >= 2, "two columns need at least two barriers");
    }

    #[test]
    fn config_validates_budgets() {
        assert!(cfg(2).with_max_ticks_per_round(0).is_err());
        let c = cfg(2)
            .with_max_ticks_per_round(500)
            .unwrap()
            .with_max_retransmit_rounds(7);
        assert_eq!(c.max_ticks_per_round(), 500);
        assert_eq!(c.max_retransmit_rounds(), 7);
    }
}
