//! Discrete-event peer-to-peer network simulator for the `gdsearch` stack.
//!
//! The reproduced paper evaluates its search scheme by simulation (§V-B,
//! Fig. 2): nodes exchange query/response messages over a social overlay.
//! This crate is the transport layer of that simulation:
//!
//! * [`Reactor`] — the one event loop: virtual time advances in integer
//!   ticks, every overlay edge is a FIFO [`link`] that moves
//!   [`TransportConfig`]'s bytes per tick through a bounded queue, and
//!   messages are subject to random loss and node churn, with every byte
//!   accounted ([`NetStats`]). Finite links model queueing delay,
//!   saturation and queue-full drops; [`TransportConfig::unbounded`] makes
//!   every hop exactly one tick. One thread runs every phase of a tick in
//!   node and link order, so a seed fixes the run bit for bit (see
//!   [`reactor`]);
//! * [`NodeHandler`] — the protocol hook: the `gdsearch` core crate
//!   implements the paper's query-forwarding protocol as a handler;
//! * [`WireMessage`] — wire-size accounting for bandwidth reports;
//! * [`Histogram`] — the log2 histogram [`NetStats`] reports delay in;
//! * [`churn`] — failure-injection schedules (node down/up events, stamped
//!   with the tick they take effect in).
//!
//! # Example
//!
//! ```
//! use gdsearch_graph::generators;
//! use gdsearch_graph::NodeId;
//! use gdsearch_sim::{NodeApi, NodeHandler, Reactor, TransportConfig, WireMessage};
//!
//! // A ping protocol: every node forwards a counter to a random neighbor
//! // until it reaches zero.
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl WireMessage for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//! struct Relay;
//! impl NodeHandler<Ping> for Relay {
//!     fn handle(&mut self, _from: Option<NodeId>, msg: Ping, api: &mut NodeApi<'_, Ping>) {
//!         if msg.0 > 0 {
//!             let next = api.random_neighbor().expect("connected graph");
//!             api.send(next, Ping(msg.0 - 1));
//!         }
//!     }
//! }
//!
//! # fn main() -> Result<(), gdsearch_sim::SimError> {
//! let g = generators::ring(8)?;
//! let handlers = (0..8).map(|_| Relay).collect();
//! let mut net = Reactor::new(g, handlers, TransportConfig::unbounded().with_seed(7))?;
//! net.inject(NodeId::new(0), Ping(5))?;
//! net.run_to_completion(10_000)?;
//! assert_eq!(net.stats().delivered, 6); // injection + 5 relays
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

pub mod churn;
mod error;
mod instruments;
pub mod link;
mod node;
pub mod reactor;
mod stats;
mod transport;
mod wire;

pub use error::SimError;
pub use instruments::Histogram;
pub use link::LinkStats;
pub use node::{NodeApi, NodeHandler};
pub use reactor::Reactor;
pub use stats::NetStats;
pub use transport::TransportConfig;
pub use wire::WireMessage;
