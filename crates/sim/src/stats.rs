use crate::Histogram;

/// Aggregate transport statistics of a simulation run.
///
/// The paper's comparisons between informed and blind search hinge on
/// message counts (communication overhead) and bandwidth, so the simulator
/// accounts both at the transport layer where no protocol can forget to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Messages handed to the transport (including ones later lost).
    pub sent: u64,
    /// Messages delivered to a handler.
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub lost: u64,
    /// Messages dropped because the destination (or source) was down.
    pub dropped_down: u64,
    /// Total bytes handed to the transport.
    pub bytes_sent: u64,
    /// Messages dropped because a bounded link queue was full (never
    /// with [`TransportConfig::unbounded`](crate::TransportConfig::unbounded)
    /// links).
    pub dropped_backpressure: u64,
    /// Messages dropped because there is no link to the destination (the
    /// reactor only provisions queues along overlay edges).
    pub dropped_no_route: u64,
    /// High-water queue depth over all links, in messages. Per-link
    /// values are on [`Reactor::link_stats`](crate::Reactor::link_stats).
    pub max_queue_depth: u64,
    /// Distribution of per-message queueing delay: ticks each delivered
    /// message spent queued behind other traffic before its own
    /// transmission started (all zeros on unbounded links). The total is
    /// [`Histogram::sum`], tail latency is
    /// [`Histogram::quantile`]`(0.99)`.
    pub queue_delay: Histogram,
}

impl NetStats {
    /// Mean ticks a transported message waited in its link queue before
    /// transmission started; 0.0 when nothing was transported.
    ///
    /// The denominator is the messages whose transmission completed —
    /// injections bypass the link fabric and messages dropped before
    /// enqueueing never wait, so neither belongs in the average.
    pub fn mean_queue_delay_ticks(&self) -> f64 {
        self.queue_delay.mean()
    }

    /// Upper bound on the median queueing delay, in ticks (0 when
    /// nothing was transported).
    pub fn p50_queue_delay_ticks(&self) -> u64 {
        self.queue_delay.quantile(0.5)
    }

    /// Upper bound on the 99th-percentile queueing delay, in ticks (0
    /// when nothing was transported).
    pub fn p99_queue_delay_ticks(&self) -> u64 {
        self.queue_delay.quantile(0.99)
    }

    /// Upper bound on the 99.9th-percentile queueing delay, in ticks (0
    /// when nothing was transported).
    pub fn p999_queue_delay_ticks(&self) -> u64 {
        self.queue_delay.quantile(0.999)
    }

    /// All drops combined: loss, down endpoints, full queues, missing
    /// links.
    pub fn dropped_total(&self) -> u64 {
        self.lost + self.dropped_down + self.dropped_backpressure + self.dropped_no_route
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_with_traffic() {
        let mut queue_delay = Histogram::new();
        // 6 messages completed transmission; delays sum to 18.
        for waited in [0, 1, 2, 3, 4, 8] {
            queue_delay.record(waited);
        }
        let s = NetStats {
            sent: 10,
            delivered: 8,
            lost: 1,
            dropped_down: 1,
            bytes_sent: 420,
            dropped_backpressure: 2,
            dropped_no_route: 1,
            max_queue_depth: 5,
            queue_delay,
        };
        // 18 ticks over the 6 messages whose transmission completed.
        assert!((s.mean_queue_delay_ticks() - 3.0).abs() < 1e-12);
        // target rank 3 of 6 lands in the [2, 3] bucket.
        assert_eq!(s.p50_queue_delay_ticks(), 3);
        assert_eq!(s.p99_queue_delay_ticks(), 8);
        assert_eq!(s.p999_queue_delay_ticks(), 8);
        assert_eq!(s.dropped_total(), 5);
    }

    #[test]
    fn ratios_without_traffic() {
        let s = NetStats::default();
        assert_eq!(s.mean_queue_delay_ticks(), 0.0);
        assert_eq!(s.dropped_total(), 0);
    }
}
