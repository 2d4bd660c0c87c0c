//! Rendering of experiment results as markdown tables and CSV, in the
//! paper's own layout (Fig. 3 series per α; Table I columns), plus
//! transport-layer tables for the link-bandwidth experiments.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use std::fmt::Write as _;

use gdsearch_sim::NetStats;

use crate::experiment::accuracy::AccuracyResult;
use crate::experiment::hops::SweepOutcome;
use crate::metrics::hop_stats;

/// Renders a Fig. 3 subplot as a markdown table: one row per distance,
/// one column per α.
pub fn accuracy_markdown(result: &AccuracyResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Accuracy vs. distance — M = {} documents",
        result.total_docs
    );
    let mut header = String::from("| distance |");
    let mut rule = String::from("|---|");
    for s in &result.series {
        let _ = write!(header, " α = {} |", s.alpha);
        rule.push_str("---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    let distances = result.series.first().map(|s| s.accuracy.len()).unwrap_or(0);
    for d in 0..distances {
        let mut row = format!("| {d} |");
        for s in &result.series {
            if s.samples[d] == 0 {
                row.push_str(" – |");
            } else {
                let _ = write!(row, " {:.3} |", s.accuracy[d]);
            }
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Renders a Fig. 3 subplot as CSV: `distance,alpha,accuracy,samples`.
pub fn accuracy_csv(result: &AccuracyResult) -> String {
    let mut out = String::from("total_docs,distance,alpha,accuracy,samples\n");
    for s in &result.series {
        for (d, (acc, n)) in s.accuracy.iter().zip(&s.samples).enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{:.6},{}",
                result.total_docs, d, s.alpha, acc, n
            );
        }
    }
    out
}

/// Renders Table I as markdown, mirroring the paper's columns: one row
/// per document count `M` and the sweep run at it.
pub fn hops_markdown(rows: &[(usize, SweepOutcome)]) -> String {
    let mut out = String::from(
        "| M documents | success rate | median hops | mean hops | std hops |\n\
         |---|---|---|---|---|\n",
    );
    for (docs, outcome) in rows {
        let [median, mean, std] = hop_columns(outcome, 2, "–");
        let _ = writeln!(
            out,
            "| {docs} | {} / {} | {median} | {mean} | {std} |",
            outcome.successes(),
            outcome.samples,
        );
    }
    out
}

/// Renders Table I as CSV.
pub fn hops_csv(rows: &[(usize, SweepOutcome)]) -> String {
    let mut out =
        String::from("total_docs,successes,samples,success_rate,median_hops,mean_hops,std_hops\n");
    for (docs, outcome) in rows {
        let [median, mean, std] = hop_columns(outcome, 4, "");
        let _ = writeln!(
            out,
            "{docs},{},{},{:.4},{median},{mean},{std}",
            outcome.successes(),
            outcome.samples,
            outcome.success_rate(),
        );
    }
    out
}

/// The median, mean and standard deviation of `outcome`'s successful hop
/// counts to `precision` decimals, or `none` thrice when none succeeded.
fn hop_columns(outcome: &SweepOutcome, precision: usize, none: &str) -> [String; 3] {
    match hop_stats(&outcome.success_hops) {
        Some(s) => [s.median, s.mean, s.std].map(|x| format!("{x:.precision$}")),
        None => [none, none, none].map(String::from),
    }
}

/// Renders labeled transport statistics as a markdown table: message and
/// byte counts, drop breakdown, and the links' queue metrics
/// (high-water depth, mean and p99 queueing delay). This is the report
/// format of the `ablation_transport` bandwidth experiments.
pub fn transport_markdown(rows: &[(&str, &NetStats)]) -> String {
    let mut out = String::from(
        "| configuration | sent | delivered | bytes | lost | down | \
         backpressure | max queue | mean queue wait | p99 queue wait |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for (label, s) in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {:.2} | {} |",
            label,
            s.sent,
            s.delivered,
            s.bytes_sent,
            s.lost,
            s.dropped_down,
            s.dropped_backpressure,
            s.max_queue_depth,
            s.mean_queue_delay_ticks(),
            s.p99_queue_delay_ticks(),
        );
    }
    out
}

/// Renders labeled transport statistics as CSV (one row per
/// configuration, same columns as [`transport_markdown`] plus
/// `dropped_no_route`).
pub fn transport_csv(rows: &[(&str, &NetStats)]) -> String {
    let mut out = String::from(
        "configuration,sent,delivered,bytes_sent,lost,dropped_down,\
         dropped_backpressure,dropped_no_route,max_queue_depth,queue_delay_ticks,\
         p99_queue_delay_ticks\n",
    );
    for (label, s) in rows {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            label,
            s.sent,
            s.delivered,
            s.bytes_sent,
            s.lost,
            s.dropped_down,
            s.dropped_backpressure,
            s.dropped_no_route,
            s.max_queue_depth,
            s.queue_delay.sum(),
            s.p99_queue_delay_ticks(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::accuracy::AccuracySeries;

    fn sample_accuracy() -> AccuracyResult {
        AccuracyResult {
            total_docs: 10,
            series: vec![
                AccuracySeries {
                    alpha: 0.1,
                    accuracy: vec![1.0, 0.8, 0.4],
                    samples: vec![5, 5, 5],
                },
                AccuracySeries {
                    alpha: 0.9,
                    accuracy: vec![1.0, 0.9, 0.0],
                    samples: vec![5, 5, 0],
                },
            ],
        }
    }

    #[test]
    fn accuracy_markdown_layout() {
        let md = accuracy_markdown(&sample_accuracy());
        assert!(md.contains("M = 10 documents"));
        assert!(md.contains("α = 0.1"));
        assert!(md.contains("α = 0.9"));
        assert!(md.contains("| 0 | 1.000 | 1.000 |"));
        // Distance 2 with zero samples renders as a dash for alpha 0.9.
        assert!(md.contains("| 2 | 0.400 | – |"));
    }

    #[test]
    fn accuracy_csv_layout() {
        let csv = accuracy_csv(&sample_accuracy());
        assert!(csv.starts_with("total_docs,distance,alpha"));
        assert!(csv.contains("10,1,0.1,0.800000,5"));
        assert_eq!(csv.lines().count(), 1 + 6);
    }

    fn sample_rows() -> Vec<(usize, SweepOutcome)> {
        // Hops 1, 2, 2, 9: median 2, mean 3.5, population std √10.25 = 3.2016.
        let found = SweepOutcome {
            samples: 10,
            total_messages: 200,
            success_hops: vec![9, 2, 1, 2],
        };
        let none = SweepOutcome {
            samples: 5000,
            total_messages: 250_000,
            success_hops: Vec::new(),
        };
        vec![(10, found), (100, none)]
    }

    #[test]
    fn hops_markdown_layout() {
        let md = hops_markdown(&sample_rows());
        assert!(md.contains("| 10 | 4 / 10 | 2.00 | 3.50 | 3.20 |"));
        assert!(md.contains("| 100 | 0 / 5000 | – | – | – |"));
    }

    #[test]
    fn hops_csv_layout() {
        let csv = hops_csv(&sample_rows());
        assert!(csv.contains("10,4,10,0.4000,2.0000,3.5000,3.2016"));
        assert!(csv.contains("100,0,5000,0.0000,,,"));
    }

    fn sample_stats() -> NetStats {
        // 92 completed transmissions, each waiting 2 ticks: sum 184,
        // mean 2.00, p99 bound 2.
        let mut queue_delay = gdsearch_sim::Histogram::new();
        queue_delay.record_n(2, 92);
        NetStats {
            sent: 100,
            delivered: 90,
            lost: 4,
            dropped_down: 2,
            bytes_sent: 12_345,
            dropped_backpressure: 3,
            dropped_no_route: 1,
            max_queue_depth: 17,
            queue_delay,
        }
    }

    #[test]
    fn transport_markdown_layout() {
        let s = sample_stats();
        let md = transport_markdown(&[("flooding @ 1 KB/s", &s)]);
        assert!(md.contains("| configuration |"));
        assert!(md.contains("| flooding @ 1 KB/s | 100 | 90 | 12345 | 4 | 2 | 3 | 17 | 2.00 | 2 |"));
    }

    #[test]
    fn transport_csv_layout() {
        let s = sample_stats();
        let csv = transport_csv(&[("a", &s), ("b", &s)]);
        assert!(csv.starts_with("configuration,sent,delivered"));
        assert!(csv.contains("a,100,90,12345,4,2,3,1,17,184,2"));
        assert_eq!(csv.lines().count(), 3);
    }
}
