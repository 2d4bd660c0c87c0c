//! The metric registry.
//!
//! A [`MetricsRegistry`] is a `BTreeMap` from metric name to
//! [`MetricValue`], so iteration (and with it every exporter) is in
//! deterministic name order. It is a driver-side type: result-path crates
//! report their work in their return values and never see a registry
//! (analyzer rule 6).

use std::collections::BTreeMap;

use crate::instruments::Histogram;

/// One recorded metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone sum of `u64` deltas.
    Counter(u64),
    /// Maximum of the recorded values (a high-watermark gauge).
    Gauge(u64),
    /// Log2 distribution of the recorded values (boxed: the fixed
    /// bucket array dwarfs the other variants).
    Histogram(Box<Histogram>),
    /// Ordered `u64` samples (e.g. per-iteration work); merging adds
    /// elementwise, zero-padding the shorter series.
    Series(Vec<u64>),
    /// Ordered `f64` samples (e.g. per-iteration residual curves).
    /// Merging keeps the elementwise maximum so it stays commutative.
    FloatSeries(Vec<f64>),
}

impl MetricValue {
    /// Short kind tag for exporters.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
            MetricValue::Series(_) => "series",
            MetricValue::FloatSeries(_) => "float-series",
        }
    }
}

/// A name-ordered collection of metrics.
///
/// Writes are total: recording into a name that holds a different kind
/// is dropped (and counted in [`MetricsRegistry::kind_conflicts`])
/// rather than panicking, so instrumentation can never abort a result
/// path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
    kind_conflicts: u64,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self.metrics.get_mut(name) {
            None => {
                self.metrics
                    .insert(name.to_string(), MetricValue::Counter(delta));
            }
            Some(MetricValue::Counter(c)) => *c = c.saturating_add(delta),
            Some(_) => self.kind_conflicts += 1,
        }
    }

    /// Raises the high-watermark gauge `name` to at least `v`.
    pub fn gauge_max(&mut self, name: &str, v: u64) {
        match self.metrics.get_mut(name) {
            None => {
                self.metrics.insert(name.to_string(), MetricValue::Gauge(v));
            }
            Some(MetricValue::Gauge(g)) => *g = (*g).max(v),
            Some(_) => self.kind_conflicts += 1,
        }
    }

    /// Records `v` into the histogram `name`.
    pub fn record(&mut self, name: &str, v: u64) {
        self.record_n(name, v, 1);
    }

    /// Records `n` identical observations into the histogram `name`.
    pub fn record_n(&mut self, name: &str, v: u64, n: u64) {
        match self.metrics.get_mut(name) {
            None => {
                let mut h = Histogram::new();
                h.record_n(v, n);
                self.metrics
                    .insert(name.to_string(), MetricValue::Histogram(Box::new(h)));
            }
            Some(MetricValue::Histogram(h)) => h.record_n(v, n),
            Some(_) => self.kind_conflicts += 1,
        }
    }

    /// Appends `v` to the `u64` series `name`.
    pub fn series_push(&mut self, name: &str, v: u64) {
        match self.metrics.get_mut(name) {
            None => {
                self.metrics
                    .insert(name.to_string(), MetricValue::Series(vec![v]));
            }
            Some(MetricValue::Series(s)) => s.push(v),
            Some(_) => self.kind_conflicts += 1,
        }
    }

    /// Appends `v` to the `f64` series `name`.
    pub fn series_push_f(&mut self, name: &str, v: f64) {
        match self.metrics.get_mut(name) {
            None => {
                self.metrics
                    .insert(name.to_string(), MetricValue::FloatSeries(vec![v]));
            }
            Some(MetricValue::FloatSeries(s)) => s.push(v),
            Some(_) => self.kind_conflicts += 1,
        }
    }

    /// The metric named `name`, if recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// All metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of recorded metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Writes dropped because a name was reused with a different kind.
    #[must_use]
    pub fn kind_conflicts(&self) -> u64 {
        self.kind_conflicts
    }

    /// Merges `other` into `self`, metric by metric: counters add,
    /// gauges take the max, histograms merge bucketwise, series add
    /// elementwise (zero-padded), float series take the elementwise
    /// max. Same-kind merging is commutative, so per-worker registries
    /// fold to the same result in any order; kind mismatches count as
    /// conflicts and keep `self`'s value.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.kind_conflicts += other.kind_conflicts;
        for (name, theirs) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), theirs.clone());
                }
                Some(mine) => match (mine, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => {
                        *a = a.saturating_add(*b);
                    }
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                    (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
                    (MetricValue::Series(a), MetricValue::Series(b)) => {
                        if a.len() < b.len() {
                            a.resize(b.len(), 0);
                        }
                        for (x, y) in a.iter_mut().zip(b.iter()) {
                            *x = x.saturating_add(*y);
                        }
                    }
                    (MetricValue::FloatSeries(a), MetricValue::FloatSeries(b)) => {
                        if a.len() < b.len() {
                            a.resize(b.len(), f64::NEG_INFINITY);
                        }
                        for (x, y) in a.iter_mut().zip(b.iter()) {
                            *x = x.max(*y);
                        }
                    }
                    _ => self.kind_conflicts += 1,
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_land_and_kinds_are_stable() {
        let mut r = MetricsRegistry::new();
        r.add("a", 2);
        r.add("a", 3);
        r.gauge_max("g", 7);
        r.gauge_max("g", 4);
        r.record("h", 10);
        r.series_push("s", 1);
        r.series_push("s", 2);
        r.series_push_f("f", 0.5);
        assert_eq!(r.get("a"), Some(&MetricValue::Counter(5)));
        assert_eq!(r.get("g"), Some(&MetricValue::Gauge(7)));
        assert_eq!(r.get("s"), Some(&MetricValue::Series(vec![1, 2])));
        assert_eq!(r.len(), 5);
        // Kind mismatch: dropped, counted, original intact.
        r.gauge_max("a", 99);
        assert_eq!(r.get("a"), Some(&MetricValue::Counter(5)));
        assert_eq!(r.kind_conflicts(), 1);
    }

    #[test]
    fn merge_combines_by_kind() {
        let mut a = MetricsRegistry::new();
        a.add("c", 1);
        a.gauge_max("g", 5);
        a.record("h", 8);
        a.series_push("s", 1);
        let mut b = MetricsRegistry::new();
        b.add("c", 2);
        b.gauge_max("g", 3);
        b.record("h", 1000);
        b.series_push("s", 10);
        b.series_push("s", 20);
        b.add("only-b", 4);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "same-kind merge is commutative");
        assert_eq!(ab.get("c"), Some(&MetricValue::Counter(3)));
        assert_eq!(ab.get("g"), Some(&MetricValue::Gauge(5)));
        assert_eq!(ab.get("s"), Some(&MetricValue::Series(vec![11, 20])));
        assert_eq!(ab.get("only-b"), Some(&MetricValue::Counter(4)));
        match ab.get("h") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
