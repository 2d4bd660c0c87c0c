//! Equivalence of the two protocol implementations: the in-process fast
//! path (`gdsearch::walk`) and the message-passing version on the
//! discrete-event simulator (`gdsearch::protocol`). For the deterministic
//! policies (PPR-greedy and degree-biased) with a single walk, both must
//! visit the same nodes and retrieve the same documents at the same hops.

use gdsearch::protocol::{self, issue_query};
use gdsearch::{walk, Placement, PolicyKind, SchemeConfig, SearchNetwork};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::Corpus;
use gdsearch_graph::{generators, Graph, NodeId};
use gdsearch_sim::TransportConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn environment(seed: u64) -> (Graph, Corpus) {
    let mut r = rng(seed);
    let graph = generators::social_circles_like_scaled(120, &mut r).unwrap();
    let corpus = SyntheticCorpus::builder()
        .vocab_size(300)
        .dim(24)
        .num_topics(12)
        .generate(&mut r)
        .unwrap();
    (graph, corpus)
}

/// Both deterministic policies: the PPR-greedy walk and the degree-biased
/// one.
#[test]
fn greedy_walk_and_protocol_agree_on_results() {
    for policy in [PolicyKind::PprGreedy, PolicyKind::DegreeBiased] {
        assert_walk_and_protocol_agree(policy);
    }
}

fn assert_walk_and_protocol_agree(policy: PolicyKind) {
    let (graph, corpus) = environment(1);
    let queries = querygen::generate(
        &corpus,
        QueryGenConfig {
            num_queries: 6,
            min_cosine: 0.6,
        },
        &mut rng(2),
    )
    .unwrap();
    assert!(!queries.is_empty());

    for (i, pair) in queries.pairs().iter().enumerate() {
        let mut words = vec![pair.gold];
        words.extend(queries.irrelevant().iter().copied().take(7));
        let placement = Placement::uniform(&graph, &words, &mut rng(10 + i as u64)).unwrap();
        let cfg = SchemeConfig::builder()
            .policy(policy)
            .ttl(15)
            .top_k(2)
            .build()
            .unwrap();
        let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(20)).unwrap();
        let start = NodeId::new((i as u32 * 31) % 120);
        let query = corpus.embedding(pair.query);

        // Fast path.
        let walk = walk::run(&scheme, query, start, &mut rng(30)).unwrap();

        // Simulated protocol.
        let mut net = protocol::build(&scheme, TransportConfig::unbounded()).unwrap();
        issue_query(&mut net, start, i as u64, query.clone(), 15).unwrap();
        net.run_to_completion(1_000_000).unwrap();
        let completed = net.handler(start).unwrap().completed();
        assert_eq!(completed.len(), 1, "{policy:?} query {i} did not complete");

        // Same success and, on success, the same hop for the gold doc.
        let walk_gold = walk.hop_of(0);
        let proto_gold = completed[0]
            .results
            .iter()
            .find(|(d, _, _)| *d == 0)
            .map(|(_, _, h)| *h);
        assert_eq!(
            walk_gold, proto_gold,
            "{policy:?} query {i}: walk and protocol disagree on the gold outcome"
        );

        // Same result sets (doc ids and hops; scores are identical floats).
        let mut walk_docs: Vec<(usize, u32)> =
            walk.results.iter().map(|f| (f.doc, f.hop)).collect();
        let mut proto_docs: Vec<(usize, u32)> = completed[0]
            .results
            .iter()
            .map(|(d, _, h)| (*d, *h))
            .collect();
        walk_docs.sort_unstable();
        proto_docs.sort_unstable();
        assert_eq!(
            walk_docs, proto_docs,
            "{policy:?} query {i}: result sets differ"
        );
    }
}

#[test]
fn protocol_message_count_matches_walk_forwards() {
    // Single greedy walk: the protocol sends exactly one query message per
    // forward plus one response message per relay on the way back.
    let (graph, corpus) = environment(3);
    let words = vec![gdsearch_embed::WordId::new(5)];
    let placement = Placement::uniform(&graph, &words, &mut rng(4)).unwrap();
    let ttl = 10;
    let cfg = SchemeConfig::builder().ttl(ttl).build().unwrap();
    let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(5)).unwrap();
    let start = NodeId::new(0);
    let query = corpus.embedding(gdsearch_embed::WordId::new(9));

    let walk = walk::run(&scheme, query, start, &mut rng(6)).unwrap();
    let mut net = protocol::build(&scheme, TransportConfig::unbounded()).unwrap();
    issue_query(&mut net, start, 0, query.clone(), ttl).unwrap();
    net.run_to_completion(1_000_000).unwrap();

    // Forward messages = walk.hops; responses = walk.hops (chain
    // backtracking), so transport sent = 2 * forwards.
    assert_eq!(net.stats().sent, 2 * u64::from(walk.hops));
}

#[test]
fn fanout_protocol_still_terminates_and_merges() {
    let (graph, corpus) = environment(7);
    let words: Vec<_> = (0..10).map(gdsearch_embed::WordId::new).collect();
    let placement = Placement::uniform(&graph, &words, &mut rng(8)).unwrap();
    let cfg = SchemeConfig::builder()
        .ttl(4)
        .fanout(3)
        .top_k(5)
        .build()
        .unwrap();
    let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(9)).unwrap();
    let start = NodeId::new(60);
    let query = corpus.embedding(gdsearch_embed::WordId::new(20));

    let mut net = protocol::build(&scheme, TransportConfig::unbounded()).unwrap();
    issue_query(&mut net, start, 42, query.clone(), 4).unwrap();
    net.run_to_completion(1_000_000).unwrap();
    let completed = net.handler(start).unwrap().completed();
    assert_eq!(completed.len(), 1);
    assert_eq!(completed[0].query_id, 42);
    assert!(completed[0].results.len() <= 5);
    // Three origin walks of TTL 4: at most 12 query messages, each
    // answered once.
    assert!(net.stats().sent <= 2 * 12);
}
