//! Equivalence of the two protocol implementations: the in-process fast
//! path (`gdsearch::walk`) and the message-passing version on the
//! discrete-event simulator (`gdsearch::protocol`). For the deterministic
//! policies (PPR-greedy and degree-biased) with a single walk, both must
//! visit the same nodes and retrieve the same documents at the same hops —
//! on the social graph, and on the hostile shapes of `walk_model.rs`.

use gdsearch::protocol::{self, issue_query};
use gdsearch::{walk, Placement, PolicyKind, SchemeConfig, SearchNetwork};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::{Corpus, Embedding, WordId};
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
        let what = format!("{policy:?} query {i}");
        assert_agree(&scheme, corpus.embedding(pair.query), start, 15, &what);
    }
}

/// Runs `query` from `start` through the walk and the protocol, asserts
/// they agree on the gold document's hop and on the result set (doc ids
/// and hops), and returns the walk's forwards and the protocol's messages.
fn assert_agree(
    scheme: &SearchNetwork<'_>,
    query: &Embedding,
    start: NodeId,
    ttl: u32,
    what: &str,
) -> (u32, u64) {
    // Fast path.
    let walk = walk::run(scheme, query, start, &mut rng(30)).unwrap();

    // Simulated protocol.
    let mut net = protocol::build(scheme, TransportConfig::unbounded()).unwrap();
    issue_query(&mut net, start, 1, query.clone(), ttl).unwrap();
    net.run_to_completion(1_000_000).unwrap();
    let completed = net.handler(start).unwrap().completed();
    assert_eq!(completed.len(), 1, "{what} did not complete");

    // Same success and, on success, the same hop for the gold doc.
    let walk_gold = walk.hop_of(0);
    let proto_gold = completed[0]
        .results
        .iter()
        .find(|(d, _, _)| *d == 0)
        .map(|(_, _, h)| *h);
    assert_eq!(
        walk_gold, proto_gold,
        "{what}: walk and protocol disagree on the gold outcome"
    );

    // Same result sets (doc ids and hops; scores are identical floats).
    let mut walk_docs: Vec<(usize, u32)> = walk.results.iter().map(|f| (f.doc, f.hop)).collect();
    let mut proto_docs: Vec<(usize, u32)> = completed[0]
        .results
        .iter()
        .map(|(d, _, h)| (*d, *h))
        .collect();
    walk_docs.sort_unstable();
    proto_docs.sort_unstable();
    assert_eq!(walk_docs, proto_docs, "{what}: result sets differ");
    (walk.hops, net.stats().sent)
}

/// `walk_model.rs`'s shapes, with the start nodes and the TTL each runs
/// at: an isolated start beside a path; a star of 65, 100 and 128 leaves,
/// from its hub and from a leaf, at a TTL long enough for the hub to
/// exchange with every leaf and fall back to all of them (footnote 9) on
/// a two-word mask; and double wheels of 170, 230 and 290 nodes — two
/// adjacent hubs joined to every node of a path — whose hubs' masks span
/// three, four and five words, from a hub and from the rim.
fn hostile_shapes() -> Vec<(String, Graph, Vec<NodeId>, u32)> {
    let mut shapes = Vec::new();
    let path = (1..19).map(|u| (u - 1, u));
    let beside = Graph::from_edges(20, path).unwrap();
    shapes.push(("isolated start".into(), beside, vec![NodeId::new(19)], 15));
    for leaves in [65u32, 100, 128] {
        let starts = vec![NodeId::new(0), NodeId::new(leaves / 2)];
        let star = generators::star(leaves + 1);
        shapes.push((format!("{leaves}-leaf star"), star, starts, 2 * leaves + 2));
    }
    for n in [170u32, 230, 290] {
        let spokes = (2..n).flat_map(|leaf| [(0, leaf), (1, leaf)]);
        let rim = (3..n).map(|leaf| (leaf - 1, leaf));
        let edges = std::iter::once((0, 1)).chain(spokes).chain(rim);
        let wheel = Graph::from_edges(n, edges).unwrap();
        let starts = vec![NodeId::new(1), NodeId::new(n / 2)];
        shapes.push((format!("{n}-node double wheel"), wheel, starts, n));
    }
    shapes
}

/// The walk ≡ protocol comparison on [`hostile_shapes`], for both
/// deterministic policies: a single walk sends one query and one response
/// message per forward.
#[test]
fn walk_and_protocol_agree_on_hostile_shapes() {
    let (_, corpus) = environment(11);
    let words: Vec<WordId> = (0..12).map(WordId::new).collect();
    for (shape, graph, starts, ttl) in hostile_shapes() {
        let placement = Placement::uniform(&graph, &words, &mut rng(12)).unwrap();
        for policy in [PolicyKind::PprGreedy, PolicyKind::DegreeBiased] {
            let cfg = SchemeConfig::builder()
                .policy(policy)
                .ttl(ttl)
                .top_k(4)
                .build()
                .unwrap();
            let scheme =
                SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(13)).unwrap();
            for &start in &starts {
                let what = format!("{policy:?} on the {shape} from {start:?}");
                let query = corpus.embedding(WordId::new(0));
                let (forwards, sent) = assert_agree(&scheme, query, start, ttl, &what);
                assert_eq!(sent, 2 * u64::from(forwards), "{what}");
            }
        }
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
