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
//!    stamps inside `sim`/`dist`. Pure `u64` math, no clocks: safe
//!    inside result paths and bit-identical across thread counts as
//!    long as recording happens in the deterministic (sequential or
//!    commutatively merged) sections of an algorithm. Library code
//!    receives a write-only [`Sink`], so instrumentation *cannot* read
//!    a metric back and branch a result on it — the analyzer's `obs`
//!    rule additionally proves the readable/clocked types never appear
//!    in the `graph`/`diffusion`/`dist` result paths.
//! 2. **Wall-clock profiling** ([`clock`]): a scoped span API
//!    ([`Profiler::enter`]/[`Profiler::exit`], nested, aggregated into a
//!    [`SpanTree`] with self/child time) and the
//!    [`WallStamper`] that annotates trace events
//!    with wall time without ever entering the log. Only driver and
//!    bench code constructs these; `std::time::Instant` is confined to
//!    `obs::clock` and allowlisted exactly once in `analysis.toml`.
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
pub use registry::{MetricValue, MetricsRegistry, Sink};
pub use trace::{TraceEvent, TraceKind, TraceLog};

/// Bundles the observability halves for driver-layer code: an optional
/// deterministic [`Sink`], an optional deterministic [`TraceLog`], an
/// optional wall-clock [`Profiler`], and an optional
/// [`WallStamper`] annotating the trace. The diffusion/graph/dist
/// layers only ever see the [`Sink`] half; `core::scheme` and the bench
/// harness thread an `Observer` end to end so one handle carries all of
/// them.
#[derive(Debug, Default)]
pub struct Observer<'a> {
    sink: Sink<'a>,
    profiler: Option<&'a mut Profiler>,
    trace: Option<&'a mut TraceLog>,
    wall: Option<&'a mut WallStamper>,
}

impl<'a> Observer<'a> {
    /// An observer that records nothing: every instrument call is a
    /// no-op, every span token is `None`.
    #[must_use]
    pub fn disabled() -> Observer<'static> {
        Observer {
            sink: Sink::disabled(),
            profiler: None,
            trace: None,
            wall: None,
        }
    }

    /// An observer recording into `registry` (when `Some`) and timing
    /// spans on `profiler` (when `Some`).
    pub fn new(
        registry: Option<&'a mut MetricsRegistry>,
        profiler: Option<&'a mut Profiler>,
    ) -> Observer<'a> {
        Observer {
            sink: match registry {
                Some(reg) => Sink::attached(reg),
                None => Sink::disabled(),
            },
            profiler,
            trace: None,
            wall: None,
        }
    }

    /// Attaches a flight-recorder log (builder style): subsequent
    /// [`Observer::trace_begin`]/[`Observer::trace_end`]/
    /// [`Observer::trace_tick`] calls append to it.
    #[must_use]
    pub fn with_trace(mut self, trace: &'a mut TraceLog) -> Observer<'a> {
        self.trace = Some(trace);
        self
    }

    /// Attaches a wall-clock annotator (builder style): every trace
    /// event recorded through this observer also gets a wall stamp.
    /// Driver-only, like the profiler.
    #[must_use]
    pub fn with_wall(mut self, wall: &'a mut WallStamper) -> Observer<'a> {
        self.wall = Some(wall);
        self
    }

    /// The deterministic write-only half, for handing to library code.
    pub fn sink(&mut self) -> &mut Sink<'a> {
        &mut self.sink
    }

    /// Opens a wall-clock span when a profiler is attached.
    pub fn enter(&mut self, name: &str) -> Option<SpanToken> {
        self.profiler.as_mut().map(|p| p.enter(name))
    }

    /// Closes a span opened by [`Observer::enter`]; `None` tokens are
    /// ignored so call sites need no branching.
    pub fn exit(&mut self, token: Option<SpanToken>) {
        if let (Some(p), Some(t)) = (self.profiler.as_mut(), token) {
            p.exit(t);
        }
    }

    /// Sets the ambient query id stamped on subsequent trace events
    /// (no-op without an attached log).
    pub fn set_query(&mut self, id: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.set_query(id);
        }
    }

    /// Records a sequence-stamped phase begin in the trace (no-op
    /// without an attached log), wall-annotated when a stamper is
    /// attached.
    pub fn trace_begin(&mut self, phase: &str) {
        if let Some(t) = self.trace.as_mut() {
            let index = t.begin(phase);
            if let Some(w) = self.wall.as_mut() {
                w.stamp(index);
            }
        }
    }

    /// Records a sequence-stamped phase end in the trace (no-op without
    /// an attached log), wall-annotated when a stamper is attached.
    pub fn trace_end(&mut self, phase: &str) {
        if let Some(t) = self.trace.as_mut() {
            let index = t.end(phase);
            if let Some(w) = self.wall.as_mut() {
                w.stamp(index);
            }
        }
    }

    /// Records a tick-stamped marker from the simulated layers (no-op
    /// without an attached log). Tick events are never wall-annotated:
    /// their timebase is the virtual clock.
    pub fn trace_tick(&mut self, phase: &str, shard: Option<u32>, tick: u64) {
        if let Some(t) = self.trace.as_mut() {
            t.tick(phase, shard, tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Stamp, TraceKind};

    #[test]
    fn observer_threads_trace_and_wall() {
        let mut log = TraceLog::new();
        let mut wall = WallStamper::new();
        {
            let mut obs = Observer::new(None, None)
                .with_trace(&mut log)
                .with_wall(&mut wall);
            obs.trace_begin("scheme.diffusion");
            obs.trace_tick("dist.exchange.epoch", Some(1), 12);
            obs.trace_end("scheme.diffusion");
            obs.set_query(5);
            obs.trace_begin("scheme.walk");
            obs.trace_end("scheme.walk");
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.events()[1].stamp, Stamp::Tick(12));
        assert_eq!(log.events()[3].query_id, 5);
        assert_eq!(log.events()[4].kind, TraceKind::End);
        // Only the four driver events were wall-stamped, in event order.
        let indices: Vec<u64> = wall.stamps().iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, [0, 2, 3, 4]);
    }

    #[test]
    fn disabled_observer_ignores_trace_calls() {
        let mut obs = Observer::disabled();
        obs.set_query(9);
        obs.trace_begin("x");
        obs.trace_tick("y", None, 1);
        obs.trace_end("x");
        // Nothing to assert beyond "does not crash": no log is attached.
    }
}
