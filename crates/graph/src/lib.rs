//! Graph substrate for the `gdsearch` decentralized-search stack.
//!
//! This crate provides everything the diffusion-based search scheme of
//! Giatsoglou et al. (ICDCS 2022) needs from its underlying peer-to-peer
//! topology:
//!
//! * [`Graph`] — a compact, immutable, undirected graph in CSR form, built
//!   through [`GraphBuilder`];
//! * [`generators`] — random-graph families (Erdős–Rényi, Barabási–Albert,
//!   relaxed caveman) and deterministic topologies, including
//!   [`generators::social_circles_like`], a calibrated
//!   stand-in for the SNAP Facebook social-circles graph used in the paper;
//! * [`algo`] — BFS distances and distance rings (the evaluation samples
//!   querying nodes per ring);
//! * [`sparse`] — a minimal CSR `f32` sparse matrix, the column-stochastic
//!   transition matrix that drives Personalized PageRank diffusion, and its
//!   edge weight;
//! * [`sharded`] — the node-range partitioned view of a graph
//!   ([`ShardedGraph`]): per-shard CSR rows plus halo indexes of
//!   cross-shard edges, the substrate for diffusion on partitioned state;
//! * [`io`] — whitespace edge-list reading/writing compatible with the SNAP
//!   `facebook_combined.txt` format.
//!
//! # Example
//!
//! ```
//! use gdsearch_graph::{Graph, NodeId};
//! use gdsearch_graph::algo::bfs;
//!
//! # fn main() -> Result<(), gdsearch_graph::GraphError> {
//! let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])?;
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 4);
//! assert_eq!(g.degree(NodeId::new(0)), 2);
//!
//! let dist = bfs::distances(&g, NodeId::new(0));
//! assert_eq!(dist[2], Some(2));
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

pub mod algo;
mod error;
pub mod generators;
mod graph;
pub mod io;
mod node;
pub mod sharded;
pub mod sparse;

pub use error::GraphError;
pub use graph::{Graph, GraphBuilder, Neighbors};
pub use node::NodeId;
pub use sharded::{GraphShard, ShardedGraph};
