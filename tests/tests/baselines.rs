//! Baseline sanity at system level: flooding is exhaustive within its TTL
//! ball, guided walks beat blind walks in aggregate, and degree-biased walks
//! reach hubs.

use gdsearch::{walk, Placement, PolicyKind, SchemeConfig, SearchNetwork};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::Corpus;
use gdsearch_graph::algo::bfs;
use gdsearch_graph::{generators, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn environment(seed: u64) -> (Graph, Corpus) {
    let mut r = rng(seed);
    let graph = generators::social_circles_like_scaled(150, &mut r).unwrap();
    let corpus = SyntheticCorpus::builder()
        .vocab_size(400)
        .dim(24)
        .num_topics(15)
        .generate(&mut r)
        .unwrap();
    (graph, corpus)
}

#[test]
fn flooding_finds_gold_iff_within_ttl_ball() {
    let (graph, corpus) = environment(1);
    let words = vec![gdsearch_embed::WordId::new(3)];
    let placement = Placement::uniform(&graph, &words, &mut rng(2)).unwrap();
    let gold_host = placement.host(0);
    let ttl = 2u32;
    let cfg = SchemeConfig::builder()
        .policy(PolicyKind::Flooding)
        .ttl(ttl)
        .build()
        .unwrap();
    let net = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(3)).unwrap();
    let query = corpus.embedding(gdsearch_embed::WordId::new(7));
    let distances = bfs::distances(&graph, gold_host);
    for start_idx in (0..150).step_by(17) {
        let start = NodeId::new(start_idx);
        let out = walk::run(&net, query, start, &mut rng(4)).unwrap();
        let within = distances[start.index()].map(|d| d <= ttl).unwrap_or(false);
        assert_eq!(
            out.contains(0),
            within,
            "flooding from {start}: gold at distance {:?}, ttl {ttl}",
            distances[start.index()]
        );
    }
}

#[test]
fn flooding_message_cost_dwarfs_single_walk() {
    let (graph, corpus) = environment(5);
    let words = vec![gdsearch_embed::WordId::new(3)];
    let placement = Placement::uniform(&graph, &words, &mut rng(6)).unwrap();
    let query = corpus.embedding(gdsearch_embed::WordId::new(8));
    let start = NodeId::new(0);
    let run_policy = |policy: PolicyKind, ttl: u32| {
        let cfg = SchemeConfig::builder()
            .policy(policy)
            .ttl(ttl)
            .build()
            .unwrap();
        let net = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(7)).unwrap();
        walk::run(&net, query, start, &mut rng(8)).unwrap().hops
    };
    let flood_msgs = run_policy(PolicyKind::Flooding, 3);
    let walk_msgs = run_policy(PolicyKind::PprGreedy, 50);
    assert!(
        flood_msgs > 4 * walk_msgs,
        "flooding ({flood_msgs}) should cost far more than a walk ({walk_msgs})"
    );
}

#[test]
fn guided_beats_blind_in_aggregate() {
    let (graph, corpus) = environment(9);
    let queries = querygen::generate(
        &corpus,
        QueryGenConfig {
            num_queries: 15,
            min_cosine: 0.6,
        },
        &mut rng(10),
    )
    .unwrap();
    assert!(queries.len() >= 8);
    let ttl = 20u32;
    let mut guided = 0usize;
    let mut blind = 0usize;
    for (i, pair) in queries.pairs().iter().enumerate() {
        let mut words = vec![pair.gold];
        words.extend(queries.irrelevant().iter().copied().take(19));
        let placement = Placement::uniform(&graph, &words, &mut rng(20 + i as u64)).unwrap();
        let query = corpus.embedding(pair.query);
        for (policy, counter) in [
            (PolicyKind::PprGreedy, &mut guided),
            (PolicyKind::RandomWalk, &mut blind),
        ] {
            let cfg = SchemeConfig::builder()
                .policy(policy)
                .ttl(ttl)
                .build()
                .unwrap();
            let net =
                SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(40)).unwrap();
            // Three starts per placement for more samples.
            for s in [5u32, 60, 110] {
                let out = walk::run(&net, query, NodeId::new(s), &mut rng(50 + i as u64)).unwrap();
                if out.contains(0) {
                    *counter += 1;
                }
            }
        }
    }
    assert!(
        guided > blind,
        "PPR-guided hits ({guided}) must exceed blind hits ({blind})"
    );
}

#[test]
fn degree_biased_walk_reaches_hubs_quickly() {
    let (graph, corpus) = environment(15);
    let words = vec![gdsearch_embed::WordId::new(1)];
    let placement = Placement::uniform(&graph, &words, &mut rng(16)).unwrap();
    let cfg = SchemeConfig::builder()
        .policy(PolicyKind::DegreeBiased)
        .ttl(5)
        .build()
        .unwrap();
    let net = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng(17)).unwrap();
    let query = corpus.embedding(gdsearch_embed::WordId::new(4));
    let out = walk::run(&net, query, NodeId::new(100), &mut rng(18)).unwrap();
    // The second visited node must be the start's highest-degree neighbor.
    let start_neighbors = graph.neighbor_slice(NodeId::new(100));
    let best = start_neighbors
        .iter()
        .copied()
        .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v.as_u32())))
        .unwrap();
    assert_eq!(out.path[1], best);
}
