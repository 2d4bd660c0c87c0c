//! Failure-injection integration tests: the full protocol under message
//! loss, narrow links and node churn. The scheme must degrade gracefully
//! (fewer completions, consistent accounting) and never wedge or panic.

use gdsearch::protocol::{self, issue_query};
use gdsearch::{
    walk, EngineConfig, EngineError, Placement, QueryEngine, QueryRequest, SchemeConfig,
    SearchError, SearchNetwork,
};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::WordId;
use gdsearch_graph::{generators, Graph, GraphError, NodeId};
use gdsearch_sim::churn::ChurnSchedule;
use gdsearch_sim::{SimError, TransportConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Builds a 100-node search deployment with 20 documents.
fn deployment(seed: u64) -> (gdsearch_graph::Graph, gdsearch_embed::Corpus, Placement) {
    let mut r = rng(seed);
    let graph = generators::social_circles_like_scaled(100, &mut r).unwrap();
    let corpus = SyntheticCorpus::builder()
        .vocab_size(200)
        .dim(16)
        .num_topics(10)
        .generate(&mut r)
        .unwrap();
    let words: Vec<WordId> = (0..20).map(WordId::new).collect();
    let placement = Placement::uniform(&graph, &words, &mut r).unwrap();
    (graph, corpus, placement)
}

#[test]
fn accounting_is_consistent_under_loss() {
    let (graph, corpus, placement) = deployment(1);
    let cfg = SchemeConfig::builder().ttl(10).build().unwrap();
    let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(2)).unwrap();
    let transport = TransportConfig::unbounded()
        .with_loss_probability(0.3)
        .unwrap()
        .with_seed(3);
    let mut net = protocol::build(&scheme, transport).unwrap();
    for q in 0..10u64 {
        let origin = NodeId::new((q * 9 % 100) as u32);
        issue_query(
            &mut net,
            origin,
            q,
            corpus.embedding(WordId::new(50)).clone(),
            10,
        )
        .unwrap();
    }
    net.run_to_completion(1_000).unwrap();
    let stats = net.stats();
    // Deliveries include the 10 injections; every transported message
    // either delivers or is dropped.
    assert_eq!(
        stats.sent + 10,
        stats.delivered + stats.dropped_total(),
        "transport accounting must balance: {stats:?}"
    );
    assert!(stats.lost > 0, "30% loss must drop something");
}

#[test]
fn queries_complete_despite_partial_churn() {
    let (graph, corpus, placement) = deployment(4);
    let cfg = SchemeConfig::builder().ttl(15).build().unwrap();
    let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(5)).unwrap();
    // A TTL-15 walk is 31 ticks out and back: failures spread over 40
    // ticks with 10 ticks of downtime meet walks in flight.
    let churn = ChurnSchedule::random_failures(100, 0.15, 40.0, 10.0, &mut rng(6)).unwrap();
    let transport = TransportConfig::unbounded().with_churn(churn).with_seed(7);
    let mut net = protocol::build(&scheme, transport).unwrap();
    let origins: Vec<NodeId> = (0..15).map(|i| NodeId::new(i * 6)).collect();
    for (q, &origin) in origins.iter().enumerate() {
        issue_query(
            &mut net,
            origin,
            q as u64,
            corpus.embedding(WordId::new(40)).clone(),
            15,
        )
        .unwrap();
    }
    net.run_to_completion(300).unwrap();
    let completed: usize = origins
        .iter()
        .map(|&o| net.handler(o).unwrap().completed().len())
        .sum();
    // Churn may orphan some walks, but with 15% failures most complete.
    assert!(
        completed >= origins.len() / 2,
        "only {completed}/{} queries completed",
        origins.len()
    );
    assert!(
        net.stats().dropped_down > 0,
        "the schedule must meet a walk"
    );
}

#[test]
fn zero_loss_zero_churn_completes_everything() {
    let (graph, corpus, placement) = deployment(8);
    let cfg = SchemeConfig::builder().ttl(12).build().unwrap();
    let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(9)).unwrap();
    let mut net = protocol::build(&scheme, TransportConfig::unbounded().with_seed(10)).unwrap();
    let origins: Vec<NodeId> = (0..12).map(|i| NodeId::new(i * 8)).collect();
    for (q, &origin) in origins.iter().enumerate() {
        issue_query(
            &mut net,
            origin,
            q as u64,
            corpus.embedding(WordId::new(30)).clone(),
            12,
        )
        .unwrap();
    }
    net.run_to_completion(1_000_000).unwrap();
    for &origin in &origins {
        let completed = net.handler(origin).unwrap().completed();
        assert_eq!(
            completed.len(),
            origins.iter().filter(|&&o| o == origin).count(),
            "origin {origin} must complete each of its queries exactly once"
        );
    }
}

#[test]
fn stress_many_concurrent_queries() {
    // 100 concurrent queries over lossy, narrow links (a query is 92 B, so
    // deliveries interleave by queueing): no panics, no budget explosions,
    // accounting stays balanced.
    let (graph, corpus, placement) = deployment(11);
    let cfg = SchemeConfig::builder().ttl(8).fanout(2).build().unwrap();
    let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(12)).unwrap();
    let transport = TransportConfig::default()
        .with_bandwidth(256)
        .unwrap()
        .with_queue_capacity(8)
        .unwrap()
        .with_loss_probability(0.05)
        .unwrap()
        .with_seed(13);
    let mut net = protocol::build(&scheme, transport).unwrap();
    for q in 0..100u64 {
        let origin = NodeId::new((q * 7 % 100) as u32);
        issue_query(
            &mut net,
            origin,
            q,
            corpus.embedding(WordId::new((q % 100) as u32)).clone(),
            8,
        )
        .unwrap();
    }
    net.run_to_completion(10_000).unwrap();
    let stats = net.stats();
    assert_eq!(stats.sent + 100, stats.delivered + stats.dropped_total());
    assert!(stats.queue_delay.sum() > 0, "narrow links must queue");
}

/// Hostile sizes (ROADMAP item D): on edgeless graphs of one and two nodes,
/// the walk, the engine and the protocol answer from node 0 alone — path
/// `[0]`, no forward, its own documents at hop 0 — and reject a start past
/// the graph with a typed error; placing documents on no graph at all is
/// the typed empty-graph error.
#[test]
fn edgeless_graphs_answer_from_the_start_or_reject_it_typed() {
    let corpus = SyntheticCorpus::builder()
        .vocab_size(50)
        .dim(8)
        .num_topics(4)
        .generate(&mut rng(11))
        .unwrap();
    let words: Vec<WordId> = (0..6).map(WordId::new).collect();
    let query = corpus.embedding(WordId::new(0)).clone();
    let start = NodeId::new(0);
    for n in [1u32, 2] {
        let graph = Graph::empty(n);
        let placement = Placement::uniform(&graph, &words, &mut rng(12)).unwrap();
        let local = (0..words.len())
            .filter(|&d| placement.host(d) == start)
            .count();
        let outside = NodeId::new(n);

        let cfg = SchemeConfig::builder().top_k(words.len()).build().unwrap();
        let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(13)).unwrap();
        let out = walk::run(&scheme, &query, start, &mut rng(14)).unwrap();
        assert_eq!(out.path, [start], "n {n}");
        assert_eq!((out.hops, out.unique_nodes), (0, 1), "n {n}");
        assert_eq!(out.results.len(), local, "n {n}");
        assert!(out.results.iter().all(|f| f.hop == 0));
        assert!(matches!(
            walk::run(&scheme, &query, outside, &mut rng(14)),
            Err(SearchError::Graph(GraphError::NodeOutOfRange { node, num_nodes }))
                if node == n && num_nodes == n
        ));

        let config = EngineConfig::builder().scheme(cfg).build().unwrap();
        let engine = QueryEngine::build(&graph, &corpus, &placement, config, &mut rng(13)).unwrap();
        let response = engine
            .execute(QueryRequest::new(query.clone(), start, 14))
            .unwrap();
        assert_eq!(response.outcome, out, "n {n}");
        assert!(matches!(
            engine.execute(QueryRequest::new(query.clone(), outside, 14)),
            Err(EngineError::StartOutOfRange { start, num_nodes })
                if start == outside && num_nodes == n as usize
        ));

        let mut net = protocol::build(&scheme, TransportConfig::unbounded().with_seed(15)).unwrap();
        issue_query(&mut net, start, 0, query.clone(), 5).unwrap();
        net.run_to_completion(100).unwrap();
        let completed = net.handler(start).unwrap().completed();
        assert_eq!(completed.len(), 1, "n {n}");
        let found: Vec<_> = completed[0].results.iter().map(|r| (r.0, r.2)).collect();
        let walked: Vec<_> = out.results.iter().map(|f| (f.doc, f.hop)).collect();
        assert_eq!(found, walked, "n {n}");
        assert_eq!(net.stats().sent, 0, "n {n}");
        assert!(matches!(
            issue_query(&mut net, outside, 1, query.clone(), 5),
            Err(SearchError::Sim(SimError::NodeOutOfRange { node, num_nodes }))
                if node == n && num_nodes == n
        ));
    }
    assert!(matches!(
        Placement::uniform(&Graph::empty(0), &words, &mut rng(16)),
        Err(SearchError::InvalidParameter { reason }) if reason.contains("empty graph")
    ));
}
