//! Discrete-event peer-to-peer network simulator for the `gdsearch` stack.
//!
//! The reproduced paper evaluates its search scheme by simulation (§V-B,
//! Fig. 2): nodes exchange query/response messages over a social overlay.
//! This crate is the transport layer of that simulation:
//!
//! * [`SimTime`] / [`EventQueue`] — virtual clock and ordered event queue;
//! * [`LatencyModel`] — per-link delay distributions;
//! * [`Network`] — the instant-delivery simulator: delivers messages
//!   between neighboring nodes, applies latency, random loss and node
//!   churn, and accounts every byte sent ([`NetStats`]);
//! * [`Reactor`] — the bandwidth-aware backend: the same protocol surface,
//!   but every overlay edge is a bounded FIFO [`link`] with finite bytes
//!   per tick ([`TransportConfig`]), so queueing delay, saturation and
//!   backpressure ([`NodeApi::poll_ready`] / [`NodeApi::try_send`]) are
//!   modeled; node activations run in parallel on worker threads with
//!   bit-for-bit deterministic results (see [`reactor`]);
//! * [`NodeHandler`] — the protocol hook shared by both backends: the
//!   `gdsearch` core crate implements the paper's query-forwarding
//!   protocol as a handler;
//! * [`WireMessage`] — wire-size accounting for bandwidth reports;
//! * [`Histogram`] — the log2 histogram [`NetStats`] reports delay in;
//! * [`churn`] — failure-injection schedules (node down/up events);
//! * [`trace`] — bounded event traces for debugging and assertions.
//!
//! Both backends are deterministic under a seeded RNG.
//!
//! # Example
//!
//! ```
//! use gdsearch_graph::generators;
//! use gdsearch_graph::NodeId;
//! use gdsearch_sim::{Network, NetworkConfig, NodeApi, NodeHandler, WireMessage};
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
//! let mut net = Network::new(g, handlers, NetworkConfig::default().with_seed(7))?;
//! net.inject(NodeId::new(0), Ping(5))?;
//! net.run_to_completion(10_000)?;
//! assert_eq!(net.stats().delivered, 6); // injection + 5 relays
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
mod error;
mod instruments;
mod latency;
pub mod link;
mod network;
mod queue;
pub mod reactor;
mod stats;
mod time;
pub mod trace;
mod transport;
mod wire;

pub use error::SimError;
pub use instruments::Histogram;
pub use latency::LatencyModel;
pub use link::LinkStats;
pub use network::{Network, NetworkConfig, NodeApi, NodeHandler};
pub use queue::EventQueue;
pub use reactor::Reactor;
pub use stats::NetStats;
pub use time::SimTime;
pub use transport::TransportConfig;
pub use wire::{decode_f32_slice, encode_f32_slice, WireMessage};
