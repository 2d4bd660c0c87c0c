//! Deterministic observability for the `gdsearch` workspace.
//!
//! The crate is split into two strictly separated halves:
//!
//! 1. **Deterministic instruments** ([`instruments`], [`registry`],
//!    [`trace`]): counters, gauges, and fixed-bucket log2 [`Histogram`]s
//!    recording *work units* — pushes performed, frontier peaks, halo
//!    bytes, frames retransmitted, walk hops — plus the [`TraceLog`]
//!    flight recorder, an append-only event log of per-query phase
//!    boundaries with sequence stamps at drivers and virtual-tick
//!    stamps inside `sim`/`dist`. Pure `u64` math, no clocks:
//!    bit-identical across thread counts as long as recording happens
//!    in the deterministic (sequential or commutatively merged) sections
//!    of a driver. The `graph`/`diffusion`/`dist` result paths report
//!    their work in return values instead, and the analyzer's `obs` rule
//!    proves no registry, trace or clock type appears in them.
//! 2. **Wall-clock profiling** ([`clock`]): a scoped span API
//!    ([`Profiler::enter`]/[`Profiler::exit`], nested, aggregated into a
//!    [`SpanTree`] with self/child time) and the
//!    [`WallStamper`] that annotates trace events
//!    with wall time without ever entering the log. Only driver and
//!    bench code constructs these; `std::time::Instant` is confined to
//!    `obs::clock`, which no result-path entry point reaches (analyzer
//!    rule 7, no allowlist entry).
//!
//! [`export`] renders any [`MetricsRegistry`] as markdown, CSV, or JSON;
//! [`trace::chrome_trace_json`] renders a [`TraceLog`] as
//! `chrome://tracing`-loadable trace-event JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod export;
pub mod instruments;
pub mod json;
pub mod registry;
pub mod trace;

pub use clock::{Profiler, SpanNode, SpanToken, SpanTree, WallStamper};
pub use instruments::Histogram;
pub use registry::{MetricValue, MetricsRegistry};
pub use trace::{TraceEvent, TraceKind, TraceLog};
