//! Property-based tests for the network simulator: transport accounting
//! and determinism must hold for arbitrary topologies, link/loss settings
//! and workloads, and the link fabric must equal a naive per-tick model of
//! it.

use std::collections::VecDeque;

use gdsearch_graph::{generators, Graph, NodeId};
use gdsearch_sim::churn::{ChurnKind, ChurnSchedule};
use gdsearch_sim::{NetStats, NodeApi, NodeHandler, Reactor, TransportConfig, WireMessage};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A counter token relayed to a deterministic neighbor until it hits zero.
#[derive(Clone, Debug)]
struct Token(u32);

impl WireMessage for Token {
    fn wire_size(&self) -> usize {
        4
    }
}

#[derive(Default)]
struct Relay {
    received: u32,
}

impl NodeHandler<Token> for Relay {
    fn handle(&mut self, _from: Option<NodeId>, msg: Token, api: &mut NodeApi<'_, Token>) {
        self.received += 1;
        if msg.0 > 0 {
            if let Some(next) = api.random_neighbor() {
                api.send(next, Token(msg.0 - 1));
            }
        }
    }
}

fn run_network(
    seed: u64,
    n: u32,
    extra: u32,
    loss: f64,
    tokens: u32,
    hops: u32,
) -> (NetStats, u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generators::random_connected(n, extra, &mut rng).unwrap();
    let handlers: Vec<Relay> = (0..n).map(|_| Relay::default()).collect();
    let cfg = TransportConfig::unbounded()
        .with_seed(seed ^ 0xbeef)
        .with_loss_probability(loss)
        .unwrap();
    let mut net = Reactor::new(graph, handlers, cfg).unwrap();
    for t in 0..tokens {
        net.inject(NodeId::new(t % n), Token(hops)).unwrap();
    }
    net.run_to_completion(5_000_000).unwrap();
    let total_received = (0..n)
        .map(|u| net.handler(NodeId::new(u)).unwrap().received)
        .sum();
    (*net.stats(), total_received)
}

/// A hop counter whose wire size varies with its value, routed without
/// randomness: the traffic of the fabric-model property.
#[derive(Clone, Debug)]
struct Packet(u32);

impl WireMessage for Packet {
    fn wire_size(&self) -> usize {
        4 + 4 * (self.0 as usize % 3)
    }
}

#[derive(Default)]
struct Router {
    received: u32,
}

impl NodeHandler<Packet> for Router {
    fn handle(&mut self, _from: Option<NodeId>, msg: Packet, api: &mut NodeApi<'_, Packet>) {
        self.received += 1;
        if msg.0 > 0 {
            let next = api.neighbors()[msg.0 as usize % api.neighbors().len()];
            api.send(next, Packet(msg.0 - 1));
        }
    }
}

/// What the fabric model and the reactor must agree on.
#[derive(Debug, Default, PartialEq)]
struct Observed {
    sent: u64,
    lost: u64,
    delivered: u64,
    bytes_sent: u64,
    dropped_down: u64,
    dropped_backpressure: u64,
    max_queue_depth: u64,
    /// `queue_delay.{count, sum, max}`.
    delay: (u64, u64, u64),
    received: Vec<u32>,
    ticks: u64,
}

/// A packet queued on a modelled link.
#[derive(Clone)]
struct Queued {
    hops_left: u32,
    remaining: u64,
    enqueued_at: u64,
    started_at: Option<u64>,
}

/// The seed of the reactor's loss coin for transport seed `seed`: what
/// `Reactor::new` seeds its transport RNG with.
fn loss_coin(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x0072_6561_6374_6f72)
}

/// Where the fabric-model property injects its `tokens`, and with how many
/// hops each: token `t` on node `t / 2 mod n` with `hops + t`, so nodes send
/// two distinct packets in one tick and the order of their sends (and of
/// their loss coins) shows.
fn injections(n: usize, tokens: u32, hops: u32) -> impl Iterator<Item = (usize, u32)> {
    (0..tokens).map(move |t| (t as usize / 2 % n, hops + t))
}

/// Naive per-tick model of the reactor's link fabric under [`Packet`]
/// traffic on a connected graph: one FIFO per directed edge, no busy sets,
/// and one loss coin drawn per routed send, in node order and then the
/// order the node sent in — the transport phase's order.
#[allow(clippy::too_many_arguments)]
fn fabric_model(
    graph: &Graph,
    bandwidth: u64,
    capacity: usize,
    churn: &ChurnSchedule,
    loss: f64,
    seed: u64,
    tokens: u32,
    hops: u32,
) -> Observed {
    let n = graph.num_nodes();
    let mut seen = Observed {
        received: vec![0; n],
        ..Observed::default()
    };
    let mut coin = loss_coin(seed);
    let mut up = vec![true; n];
    let mut due = churn.events().iter().peekable();
    let mut inboxes: Vec<Vec<u32>> = vec![Vec::new(); n];
    // links[u][i] carries u → neighbors(u)[i].
    let mut links: Vec<Vec<VecDeque<Queued>>> = graph
        .node_ids()
        .map(|u| vec![VecDeque::new(); graph.degree(u)])
        .collect();
    for (node, hops) in injections(n, tokens, hops) {
        inboxes[node].push(hops);
    }
    while inboxes.iter().any(|inbox| !inbox.is_empty())
        || links.iter().flatten().any(|queue| !queue.is_empty())
    {
        let tick = seen.ticks;
        while let Some(event) = due.next_if(|e| e.tick <= tick) {
            up[event.node.index()] = event.kind == ChurnKind::Up;
        }
        // Deliver inboxes in ascending node id; each delivered packet with
        // hops left is forwarded onto its link unless the coin loses it,
        // against the queue bound.
        for u in 0..n {
            let inbox = std::mem::take(&mut inboxes[u]);
            if !up[u] {
                seen.dropped_down += inbox.len() as u64;
                continue;
            }
            for k in inbox {
                seen.delivered += 1;
                seen.received[u] += 1;
                if k == 0 {
                    continue;
                }
                let bytes = Packet(k - 1).wire_size() as u64;
                seen.sent += 1;
                seen.bytes_sent += bytes;
                if loss > 0.0 && coin.random_bool(loss) {
                    seen.lost += 1;
                    continue;
                }
                let degree = links[u].len();
                let queue = &mut links[u][k as usize % degree];
                if queue.len() >= capacity {
                    seen.dropped_backpressure += 1;
                } else {
                    queue.push_back(Queued {
                        hops_left: k - 1,
                        remaining: bytes,
                        enqueued_at: tick,
                        started_at: None,
                    });
                    seen.max_queue_depth = seen.max_queue_depth.max(queue.len() as u64);
                }
            }
        }
        // Service links in CSR order: the tick's byte budget flows to the
        // next queued message, never into the next tick.
        for u in graph.node_ids() {
            for (queue, v) in links[u.index()].iter_mut().zip(graph.neighbor_slice(u)) {
                let mut budget = bandwidth;
                while budget > 0 {
                    let Some(head) = queue.front_mut() else { break };
                    let waited = *head.started_at.get_or_insert(tick) - head.enqueued_at;
                    if head.remaining > budget {
                        head.remaining -= budget;
                        break;
                    }
                    budget -= head.remaining;
                    let (count, sum, max) = seen.delay;
                    seen.delay = (count + 1, sum + waited, max.max(waited));
                    inboxes[v.index()].push(head.hops_left);
                    queue.pop_front();
                }
            }
        }
        seen.ticks += 1;
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Transport accounting always balances: every transported message is
    /// delivered, lost or dropped; deliveries equal handler invocations.
    #[test]
    fn accounting_balances(
        seed in 0u64..10_000,
        n in 2u32..40,
        extra in 0u32..30,
        loss in 0.0f64..0.9,
        tokens in 1u32..10,
        hops in 0u32..30,
    ) {
        let (stats, received) = run_network(seed, n, extra, loss, tokens, hops);
        prop_assert_eq!(
            stats.sent + u64::from(tokens),
            stats.delivered + stats.lost + stats.dropped_down,
            "accounting must balance: {:?}", stats
        );
        prop_assert_eq!(u64::from(received), stats.delivered);
        prop_assert_eq!(stats.bytes_sent, stats.sent * 4);
    }

    /// Without loss, a relay chain delivers exactly `hops` messages.
    #[test]
    fn lossless_chains_complete(
        seed in 0u64..10_000,
        n in 2u32..30,
        hops in 0u32..40,
    ) {
        let (stats, _) = run_network(seed, n, 10, 0.0, 1, hops);
        prop_assert_eq!(stats.sent, u64::from(hops));
        prop_assert_eq!(stats.delivered, u64::from(hops) + 1);
        prop_assert_eq!(stats.lost, 0);
    }

    /// The simulator is deterministic per seed.
    #[test]
    fn deterministic_per_seed(
        seed in 0u64..10_000,
        n in 2u32..30,
        loss in 0.0f64..0.5,
    ) {
        let a = run_network(seed, n, 8, loss, 4, 15);
        let b = run_network(seed, n, 8, loss, 4, 15);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// Churn under backpressure: accounting still balances exactly — every
    /// transported message is delivered, lost, dropped at a down node,
    /// dropped by a full queue or dropped for lack of a route.
    #[test]
    fn reactor_accounting_balances_under_churn_and_backpressure(
        seed in 0u64..10_000,
        n in 2u32..30,
        extra in 0u32..20,
        loss in 0.0f64..0.6,
        bandwidth in 1u64..32,
        queue in 1usize..4,
        tokens in 1u32..10,
        hops in 0u32..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_connected(n, extra, &mut rng).unwrap();
        let churn = ChurnSchedule::random_failures(n, 0.3, 50.0, 7.0, &mut rng).unwrap();
        let handlers: Vec<Relay> = (0..n).map(|_| Relay::default()).collect();
        let cfg = TransportConfig::default()
            .with_seed(seed ^ 0xabcd)
            .with_loss_probability(loss).unwrap()
            .with_bandwidth(bandwidth).unwrap()
            .with_queue_capacity(queue).unwrap()
            .with_churn(churn);
        let mut net = Reactor::new(graph, handlers, cfg).unwrap();
        for t in 0..tokens {
            net.inject(NodeId::new(t % n), Token(hops)).unwrap();
        }
        net.run_to_completion(1_000_000).unwrap();
        let stats = net.stats();
        prop_assert!(net.is_idle());
        prop_assert_eq!(
            stats.sent + u64::from(tokens),
            stats.delivered + stats.dropped_total(),
            "accounting must balance: {:?}", stats
        );
        let received: u64 = (0..n)
            .map(|u| u64::from(net.handler(NodeId::new(u)).unwrap().received))
            .sum();
        prop_assert_eq!(received, stats.delivered);
        prop_assert_eq!(stats.bytes_sent, stats.sent * 4);
        // Bounded queues can never exceed their capacity.
        prop_assert!(stats.max_queue_depth <= queue as u64);
    }

    /// The link fabric equals the naive per-tick model — finite links and
    /// the `unbounded()` preset, under churn, lossless and at a drawn loss.
    #[test]
    fn reactor_equals_naive_fabric_model(
        seed in 0u64..10_000,
        n in 2u32..30,
        extra in 0u32..20,
        bandwidth in 1u64..64,
        queue in 1usize..8,
        preset in 0u32..4,
        drawn_loss in 0.01f64..0.5,
        tokens in 1u32..8,
        hops in 0u32..25,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_connected(n, extra, &mut rng).unwrap();
        let churn = ChurnSchedule::random_failures(n, 0.2, 30.0, 4.0, &mut rng).unwrap();
        let (links, bandwidth, queue) = if preset == 0 {
            (TransportConfig::unbounded(), u64::MAX, usize::MAX)
        } else {
            let finite = TransportConfig::default()
                .with_bandwidth(bandwidth).unwrap()
                .with_queue_capacity(queue).unwrap();
            (finite, bandwidth, queue)
        };
        for loss in [0.0, drawn_loss] {
            let expected =
                fabric_model(&graph, bandwidth, queue, &churn, loss, seed, tokens, hops);
            let cfg = links
                .clone()
                .with_loss_probability(loss).unwrap()
                .with_seed(seed)
                .with_churn(churn.clone());
            let handlers: Vec<Router> = (0..n).map(|_| Router::default()).collect();
            let mut net = Reactor::new(graph.clone(), handlers, cfg).unwrap();
            for (node, hops) in injections(n as usize, tokens, hops) {
                net.inject(NodeId::new(node as u32), Packet(hops)).unwrap();
            }
            net.run_to_completion(1_000_000).unwrap();
            let stats = net.stats();
            let observed = Observed {
                sent: stats.sent,
                lost: stats.lost,
                delivered: stats.delivered,
                bytes_sent: stats.bytes_sent,
                dropped_down: stats.dropped_down,
                dropped_backpressure: stats.dropped_backpressure,
                max_queue_depth: stats.max_queue_depth,
                delay: (stats.queue_delay.count(), stats.queue_delay.sum(), stats.queue_delay.max()),
                received: (0..n).map(|u| net.handler(NodeId::new(u)).unwrap().received).collect(),
                ticks: net.now_tick(),
            };
            prop_assert_eq!(&observed, &expected, "loss = {}", loss);
            prop_assert_eq!(stats.dropped_no_route, 0);
        }
    }

    /// Every step advances the clock by exactly one tick, busy or idle.
    #[test]
    fn time_is_monotone(seed in 0u64..5_000, n in 3u32..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::random_connected(n, 5, &mut rng).unwrap();
        let handlers: Vec<Relay> = (0..n).map(|_| Relay::default()).collect();
        let cfg = TransportConfig::unbounded().with_seed(seed);
        let mut net = Reactor::new(graph, handlers, cfg).unwrap();
        net.inject(NodeId::new(0), Token(20)).unwrap();
        prop_assert_eq!(net.now_tick(), 0);
        let mut steps = 0;
        while !net.is_idle() || steps < 25 {
            net.step();
            steps += 1;
            prop_assert_eq!(net.now_tick(), steps);
        }
    }
}
