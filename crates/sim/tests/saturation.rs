//! Saturation and backpressure scenarios for the bounded-transport
//! reactor: link capacity must actually gate throughput, queues must
//! build and drain as bandwidth dictates, and traffic queued towards a
//! node that goes down must be dropped and accounted.

use gdsearch_graph::{generators, NodeId};
use gdsearch_sim::churn::{ChurnEvent, ChurnKind, ChurnSchedule};
use gdsearch_sim::{NodeApi, NodeHandler, Reactor, SimError, TransportConfig, WireMessage};

/// A fixed-size payload message.
#[derive(Clone, Debug)]
struct Chunk;

impl WireMessage for Chunk {
    fn wire_size(&self) -> usize {
        100
    }
}

/// Sends `burst` chunks to the first neighbor on activation, then counts
/// deliveries.
struct Source {
    burst: u32,
}

impl NodeHandler<Chunk> for Source {
    fn handle(&mut self, from: Option<NodeId>, _msg: Chunk, api: &mut NodeApi<'_, Chunk>) {
        if from.is_none() {
            for _ in 0..self.burst {
                let next = api.neighbors()[0];
                api.send(next, Chunk);
            }
        }
    }
}

fn sink() -> Source {
    Source { burst: 0 }
}

/// Drives a 2-node burst through one link at the given bandwidth;
/// returns (ticks to drain, stats).
fn burst_through_link(burst: u32, bytes_per_tick: u64) -> (u64, gdsearch_sim::NetStats) {
    let g = generators::path(2);
    let cfg = TransportConfig::default()
        .with_bandwidth(bytes_per_tick)
        .unwrap()
        .with_queue_capacity(1024)
        .unwrap();
    let mut net = Reactor::new(g, vec![Source { burst }, sink()], cfg).unwrap();
    net.inject(NodeId::new(0), Chunk).unwrap();
    let ticks = net.run_to_completion(1_000_000).unwrap();
    (ticks, *net.stats())
}

#[test]
fn drain_time_scales_inversely_with_bandwidth() {
    // 50 chunks of 100 bytes = 5000 bytes on the wire.
    let (slow_ticks, slow) = burst_through_link(50, 100); // 1 msg/tick
    let (mid_ticks, mid) = burst_through_link(50, 500); // 5 msgs/tick
    let (fast_ticks, fast) = burst_through_link(50, 5_000); // whole burst/tick
    for s in [&slow, &mid, &fast] {
        assert_eq!(s.delivered, 51);
        assert_eq!(s.dropped_total(), 0);
    }
    // Serialization dominates: ~50, ~10, ~1 service ticks respectively.
    assert!(slow_ticks > mid_ticks && mid_ticks > fast_ticks);
    assert!(slow_ticks >= 50);
    // Queue delay likewise shrinks with bandwidth, in total and at the
    // tail.
    assert!(slow.queue_delay.sum() > mid.queue_delay.sum());
    assert!(slow.p99_queue_delay_ticks() > mid.p99_queue_delay_ticks());
    assert!(fast.queue_delay.sum() == 0);
    // The queue high-water mark is the full burst in every case (all 50
    // messages are enqueued in one activation).
    assert_eq!(slow.max_queue_depth, 50);
    // At 1 msg/tick message k waits k ticks (0..=49): rank 25 (p50) is in
    // log2 bucket [16, 31]; rank 50 (p99, p99.9) in [32, 63], cut to max.
    assert_eq!(slow.queue_delay.count(), 50);
    assert_eq!(slow.queue_delay.sum(), (0..50).sum::<u64>());
    assert_eq!(slow.queue_delay.max(), 49);
    assert_eq!(slow.mean_queue_delay_ticks(), 24.5);
    assert_eq!(slow.p50_queue_delay_ticks(), 31);
    assert_eq!(slow.p99_queue_delay_ticks(), 49);
    assert_eq!(slow.p999_queue_delay_ticks(), 49);
}

#[test]
fn throughput_never_exceeds_link_bandwidth() {
    let (ticks, stats) = burst_through_link(64, 300);
    // 64 × 100 bytes over a 300 B/tick link needs ≥ ⌈6400 / 300⌉ ticks of
    // wire time.
    assert!(
        ticks as f64 >= (stats.bytes_sent as f64 / 300.0).floor(),
        "{ticks} ticks moved {} bytes over a 300 B/tick link",
        stats.bytes_sent
    );
}

#[test]
fn churn_under_backpressure_drops_queued_traffic_cleanly() {
    // The sink dies while a saturated queue is still draining towards it:
    // in-flight messages arriving at a down node must become
    // dropped_down, and accounting must still balance.
    let g = generators::path(2);
    let churn = ChurnSchedule::from_events(vec![ChurnEvent {
        tick: 3,
        node: NodeId::new(1),
        kind: ChurnKind::Down,
    }]);
    let cfg = TransportConfig::default()
        .with_bandwidth(100)
        .unwrap() // 1 chunk per tick
        .with_queue_capacity(64)
        .unwrap()
        .with_churn(churn);
    let mut net = Reactor::new(g, vec![Source { burst: 10 }, sink()], cfg).unwrap();
    net.inject(NodeId::new(0), Chunk).unwrap();
    net.run_to_completion(10_000).unwrap();
    let stats = net.stats();
    // Injection + 10 sends, all transported (queue was deep enough).
    assert_eq!(stats.sent, 10);
    assert_eq!(stats.dropped_backpressure, 0);
    assert!(stats.dropped_down > 0, "late arrivals must die: {stats:?}");
    assert_eq!(
        stats.sent + 1,
        stats.delivered + stats.dropped_total(),
        "accounting out of balance: {stats:?}"
    );
}

#[test]
fn degenerate_transport_configs_return_errors_not_panics() {
    assert!(matches!(
        TransportConfig::default().with_bandwidth(0),
        Err(SimError::InvalidParameter { .. })
    ));
    assert!(matches!(
        TransportConfig::default().with_queue_capacity(0),
        Err(SimError::InvalidParameter { .. })
    ));
    assert!(matches!(
        TransportConfig::default().with_loss_probability(-0.1),
        Err(SimError::InvalidParameter { .. })
    ));
}
