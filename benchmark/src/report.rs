//! The metric tables `BENCHMARK.json` lists, the result of a run, and how it
//! is printed: a readable table, then the one-line JSON object the driver
//! reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;

use crate::inputs::Fallible;
use crate::stats::Summary;

/// Name and unit of every end-to-end metric (`--trace 0`), in print order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_live_mb", "MB"),
];

/// Name and unit of every per-layer metric (`--trace 1`), in print order.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("graph.gen_s", "s"),
    ("graph.edges", "count"),
    ("embed.corpus_gen_s", "s"),
    ("embed.querygen_s", "s"),
    ("placement.uniform_ms", "ms"),
    ("personalization.rows_ms", "ms"),
    ("personalization.hosts", "count"),
    ("scheme.build_ms", "ms"),
    ("scheme.build_self_ms", "ms"),
    ("per_source.auto_ms", "ms"),
    ("power.diffuse_ms", "ms"),
    ("power.sweeps", "count"),
    ("power.ns_per_edge_sweep", "ns"),
    ("push.diffuse_sparse_ms", "ms"),
    ("push.pushes", "count"),
    ("push.ns_per_push", "ns"),
    ("push.frontier_peak", "count"),
    ("graph.transition_ms", "ms"),
    ("graph.spmm_ms", "ms"),
    ("graph.spmm_ns_per_edge", "ns"),
    ("graph.spmm_bytes", "B"),
    ("sharded.sparse_ms", "ms"),
    ("dist.sparse_ms", "ms"),
    ("dist.halo_bytes", "B"),
    ("dist.frames", "count"),
    ("engine.execute_us", "us"),
    ("engine.execute_p99_us", "us"),
    ("engine.self_us", "us"),
    ("engine.cache_hit_ratio", "share"),
    ("engine.cache_resident_mb", "MB"),
    ("engine.submit_ns", "ns"),
    ("engine.step_us", "us"),
    ("engine.step_self_us", "us"),
    ("engine.batch_fill", "share"),
    ("engine.queue_wait_us", "us"),
    ("engine.batch_p99_us", "us"),
    ("engine.open.r2000.p50_us", "us"),
    ("engine.open.r2000.p99_us", "us"),
    ("engine.open.r2000.reject_share", "share"),
    ("engine.open.r2000.gen_late_max_us", "us"),
    ("engine.open.r6000.p50_us", "us"),
    ("engine.open.r6000.p99_us", "us"),
    ("engine.open.r6000.reject_share", "share"),
    ("engine.open.r6000.gen_late_max_us", "us"),
    ("engine.open.r12000.p50_us", "us"),
    ("engine.open.r12000.p99_us", "us"),
    ("engine.open.r12000.reject_share", "share"),
    ("engine.open.r12000.gen_late_max_us", "us"),
    ("forwarding.score_column_us", "us"),
    ("forwarding.ns_per_dot", "ns"),
    ("forwarding.column_bytes_read", "B"),
    ("walk.scored_us", "us"),
    ("walk.inline_us", "us"),
    ("walk.ns_per_hop", "ns"),
    ("walk.hops", "count"),
    ("walk.unique_nodes", "count"),
    ("walk.hit_rate", "share"),
    ("workpool.spawn_join_us", "us"),
    ("trace_overhead_share", "share"),
];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Median and quartile spread of the rounds the value was taken from.
    pub spread: Option<Summary>,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations and checks tried, and those that failed: errors, refusals,
    /// and failed correctness checks.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Builds the metric list from `table`, in its order: every name must
    /// have exactly one finite value and no other name may be given.
    pub fn new(
        table: &[(&'static str, &'static str)],
        mut values: BTreeMap<&'static str, f64>,
        spreads: &BTreeMap<&'static str, Summary>,
        attempted: u64,
        failed: u64,
    ) -> Fallible<Report> {
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = values
                .remove(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}").into());
            }
            metrics.push(Metric {
                name,
                unit,
                value,
                spread: spreads.get(name).copied(),
            });
        }
        if let Some(extra) = values.keys().next() {
            return Err(format!("metric {extra} is not in the benchmark's table").into());
        }
        Ok(Report {
            metrics,
            attempted,
            failed,
        })
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON object the driver reads from the last line.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{}` prints the shortest digits that read back as the same f64.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    pub fn print(&self) {
        for m in &self.metrics {
            match m.spread {
                Some(s) => println!(
                    "{:<36} {:>16.4} {:<6} rounds: median {:.4} iqr {:.4} n {}",
                    m.name, m.value, m.unit, s.median, s.iqr, s.n
                ),
                None => println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit),
            }
        }
        if let Some(rss) = peak_rss_mb() {
            println!("process peak resident set {rss:.1} MB (VmHWM, not a metric)");
        }
        println!(
            "fail_share {} / {} attempted",
            self.failed,
            self.attempted.max(1)
        );
        println!("{}", self.json_line());
    }
}

/// Peak resident set of this process in MB (`VmHWM` in `/proc/self/status`),
/// for the log: it does not repeat well enough to be a metric (see `alloc`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())?;
    Some(kib * 1024.0 / 1e6)
}

/// The CPU's model name, for the header.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_refuses_missing_extra_and_non_finite_metrics() {
        let table = [("a", "s"), ("b", "count")];
        let none = BTreeMap::new();
        let make = |pairs: &[(&'static str, f64)]| {
            Report::new(&table, pairs.iter().copied().collect(), &none, 1, 0)
        };
        assert!(make(&[("a", 1.0), ("b", 2.0)]).is_ok());
        assert!(make(&[("a", 1.0)]).is_err());
        assert!(make(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]).is_err());
        assert!(make(&[("a", f64::NAN), ("b", 2.0)]).is_err());
    }

    #[test]
    fn json_line_has_the_driver_s_keys_and_every_digit() {
        let table = [("a", "s"), ("b", "count")];
        let values = [("a", 0.1 + 0.2), ("b", 3.0)].into_iter().collect();
        let r = Report::new(&table, values, &BTreeMap::new(), 10, 0).unwrap();
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }
}
