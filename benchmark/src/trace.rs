//! In-memory span recorder for the traced run, and its Chrome-trace writer.
//!
//! The benchmark sees the product from outside, so `QueryEngine::execute` and
//! `SearchNetwork::build` are opaque. A parent span is timed around the real
//! call; its children are *replayed*: the same public layer function is called
//! again with the same inputs once the measured window has closed, and
//! recorded with the parent's id and `replay = true`. A layer's self time is
//! its span minus its replayed children.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Request or build number the span belongs to.
    pub op: u64,
    pub replay: bool,
}

/// Nanoseconds since the first call: the one clock of latencies and spans.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    /// Work counts taken at the same boundaries as the spans: `(sum, n)`.
    counts: BTreeMap<&'static str, (u64, u64)>,
}

impl Tracer {
    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Times `f` as a span of request or build `op`.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, SpanId) {
        self.time_under(name, None, op, false, f)
    }

    /// Times `f` as a replay for `op` that is no child of a measured span: a
    /// probe of a layer the parent call does not go through.
    pub fn probe<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, SpanId) {
        self.time_under(name, None, op, true, f)
    }

    /// Times `f` as a replayed child of `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        self.time_under(name, Some(parent), self.op(parent), true, f)
    }

    fn time_under<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        replay: bool,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start_ns = now_ns();
        let out = f();
        let end_ns = now_ns();
        let id = self.record(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            replay,
        });
        (out, id)
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        let slot = self.counts.entry(name).or_insert((0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    /// Mean of the values counted under `name` (0 when never counted).
    pub fn mean_count(&self, name: &str) -> f64 {
        match self.counts.get(name) {
            Some(&(sum, n)) if n > 0 => sum as f64 / n as f64,
            _ => 0.0,
        }
    }

    /// The request or build number of span `id`.
    pub fn op(&self, id: SpanId) -> u64 {
        self.spans[id].op
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Sorted durations of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<u64> = (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.duration_ns(id))
            .collect();
        out.sort_unstable();
        out
    }

    /// Sorted self times of the spans called `name` that have replayed
    /// children: the span minus its children, whose summed time is divided by
    /// `parallelism` when the parent ran them on that many threads.
    /// Negative when the replays ran slower than the call they stand for.
    pub fn self_times_ns(&self, name: &str, parallelism: usize) -> Vec<i64> {
        let mut children: BTreeMap<SpanId, u64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_insert(0) += self.duration_ns(id);
            }
        }
        let signed = |ns: u64| i64::try_from(ns).unwrap_or(i64::MAX);
        let mut out: Vec<i64> = children
            .into_iter()
            .filter(|(parent, _)| self.spans[*parent].name == name)
            .map(|(parent, sum)| {
                signed(self.duration_ns(parent)) - signed(sum / parallelism.max(1) as u64)
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Writes every span as a Chrome trace "complete" event (`ph: X`, times
    /// in microseconds), loadable in `chrome://tracing` and Perfetto. Replayed
    /// spans go to their own track so they never overlap measured ones.
    pub fn write_chrome(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Span names are this crate's own literals: no escaping needed.
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{},\"replay\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                if s.replay { 2 } else { 1 },
                s.op,
                s.replay,
            )?;
        }
        writeln!(w, "]}}")
    }

    /// Writes the Chrome trace to `path`, creating its directory.
    pub fn write_chrome_file(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        self.write_chrome(&mut w)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            replay: parent.is_some(),
        }
    }

    #[test]
    fn self_time_is_span_minus_replayed_children() {
        let mut t = Tracer::default();
        let a = t.record(span("parent", 0, 100, None));
        t.record(span("child", 200, 230, Some(a)));
        t.record(span("child", 230, 250, Some(a)));
        t.record(span("parent", 300, 400, None)); // not sampled: no children
        assert_eq!(t.self_times_ns("parent", 1), [50]);
        assert_eq!(t.self_times_ns("parent", 2), [75]);
        assert_eq!(t.durations_ns("child"), [20, 30]);
        assert!(t.self_times_ns("child", 1).is_empty());
    }

    #[test]
    fn chrome_trace_is_one_event_per_span() {
        let mut t = Tracer::default();
        let (_, a) = t.time("outer", 7, || ());
        t.replay("inner", a, || ());
        let mut out = Vec::new();
        t.write_chrome(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"name\":\"inner\""));
        assert!(text.contains("\"parent\":0,\"op\":7,\"replay\":true"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
