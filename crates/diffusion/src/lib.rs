//! Graph-signal-processing substrate for the `gdsearch` stack: graph
//! filters and the diffusion engines that evaluate them.
//!
//! The reproduced paper (Giatsoglou et al., ICDCS 2022, §IV-B) diffuses node
//! personalization vectors through the P2P graph with the Personalized
//! PageRank (PPR) filter
//!
//! ```text
//! E = a (I − (1−a) A)^{-1} E0,
//! ```
//!
//! evaluated with the iterative scheme `E(t) = (1−a) A E(t−1) + a E0`
//! (Eq. 7), which decentralizes into asynchronous pairwise exchanges
//! (Krasanakis et al., "p2pGNN", IEEE Access 2022).
//!
//! Several engines compute the same fixed point:
//!
//! * [`power`] — synchronous power iteration over the dense N×d signal;
//! * [`exact`] — dense linear solve (small graphs; the validation oracle);
//! * [`push`] — forward-push with residual queues (PowerWalk,
//!   arXiv:1608.06054): work proportional to the pushed mass instead of
//!   `O(iters · E)`, certified to the same L∞ tolerance, batched across
//!   sources on a [`workpool`] of scoped threads with bit-for-bit
//!   thread-count determinism;
//! * [`sharded`] — a round-scheduled forward push on *partitioned* state
//!   (one [`ShardedGraph`](gdsearch_graph::ShardedGraph) node range per
//!   shard, only cross-shard residual mass exchanged between rounds),
//!   bit-for-bit identical for every `(shards, threads)` combination — the
//!   in-process rehearsal of a multi-machine deployment. Residual movement
//!   is abstracted behind [`exchange::ShardExchange`], so the same
//!   canonical schedule runs over shared memory
//!   ([`exchange::InProcessExchange`]) or over simulated transport links
//!   (the `gdsearch-dist` crate) with identical results.
//!
//! [`per_source::auto_diffuse_rows`] picks push or the power sweep from the
//! input's shape and returns what that engine computed, a [`Diffused`]:
//! push's row-sparse [`SparseRows`] or the sweep's dense [`Signal`]. It is
//! the entry point the search scheme builds with.
//!
//! Every entry that takes `E0` as `(source, embedding)` pairs folds them in
//! [`SparseRows::from_sources`], which also rejects a row with a NaN or an
//! infinity, so every engine fails such a row with the same error.
//!
//! All engines interpret [`PprConfig::tolerance`] the same way — an
//! additive L∞ accuracy target on the fixed point; the normative statement
//! lives on [`PprConfig`]. Shared residual bookkeeping lives in
//! [`Convergence`].
//!
//! # Example
//!
//! ```
//! use gdsearch_diffusion::{power, PprConfig, Signal};
//! use gdsearch_graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::ring(8)?;
//! // One-hot signal at node 0, diffused around the ring.
//! let mut e0 = Signal::zeros(8, 1);
//! e0.row_mut(0)[0] = 1.0;
//! let result = power::diffuse(&g, &e0, &PprConfig::new(0.5)?)?;
//! assert!(result.converged);
//! // Mass decays with distance from the source.
//! assert!(result.signal.row(1)[0] > result.signal.row(4)[0]);
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

mod config;
pub mod convergence;
mod degrees;
mod error;
pub mod exact;
pub mod exchange;
pub mod per_source;
pub mod power;
pub mod push;
pub mod sharded;
mod signal;
pub mod workpool;

#[cfg(test)]
#[path = "../tests/reference/mod.rs"]
mod reference;

pub use config::PprConfig;
pub use convergence::Convergence;
pub use error::DiffusionError;
pub use signal::{Diffused, Signal, SparseRows};
