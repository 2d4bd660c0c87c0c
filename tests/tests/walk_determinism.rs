//! Regression tests for ISSUE 6's walk determinism hazard.
//!
//! `core::walk` once used `HashMap`/`HashSet` for `found_at`,
//! `seen_nodes`, and the per-node visited memory. `std` hash collections
//! draw a fresh hasher seed per collection instance (and per process), so
//! any latent iteration-order dependence would make walk output differ
//! between two otherwise-identical runs. The walk's bookkeeping is now a
//! node table ascending by node (a visited flag and a bitmask over the
//! node's adjacency positions), searched by bisection and read against the
//! graph's sorted adjacency lists: every order in it is an order of node
//! ids, so there is still no seed to differ.
//! These tests pin the observable invariant — **identical walk output
//! across independently constructed runs** — so a future reintroduction
//! of order-sensitive state fails here (and in clippy.toml's
//! `disallowed-types` gate) rather than in production. What the outcomes *are*
//! is pinned next door, by `walk_model.rs`.
//!
//! Each "run" rebuilds the network and every collection from scratch,
//! which under `RandomState` means fresh hasher seeds: this in-process
//! repetition is exactly what distinguished two OS processes before the
//! fix.

use gdsearch::{walk, Placement, PolicyKind, SchemeConfig, SearchNetwork};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::Corpus;
use gdsearch_graph::{generators, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn corpus(seed: u64) -> Corpus {
    SyntheticCorpus::builder()
        .vocab_size(300)
        .dim(24)
        .num_topics(10)
        .generate(&mut rng(seed))
        .unwrap()
}

/// One complete, freshly-constructed walk execution.
fn run_once(
    graph: &Graph,
    corpus: &Corpus,
    config: &SchemeConfig,
    query_seed: u64,
) -> Vec<walk::WalkOutcome> {
    let queries = querygen::generate(
        corpus,
        QueryGenConfig {
            num_queries: 6,
            min_cosine: 0.5,
        },
        &mut rng(query_seed),
    )
    .unwrap();
    let mut words: Vec<_> = queries.pairs().iter().map(|p| p.gold).collect();
    words.extend(queries.irrelevant().iter().copied().take(12));
    let placement = Placement::uniform(graph, &words, &mut rng(7)).unwrap();
    let network = SearchNetwork::build(graph, corpus, &placement, config, &mut rng(8)).unwrap();
    queries
        .pairs()
        .iter()
        .enumerate()
        .map(|(qi, pair)| {
            let start = NodeId::new((qi * 17 % graph.num_nodes()) as u32);
            walk::run(
                &network,
                corpus.embedding(pair.query),
                start,
                &mut rng(1000 + qi as u64),
            )
            .unwrap()
        })
        .collect()
}

fn assert_replays_identically(policy: PolicyKind) {
    let graph = generators::social_circles_like_scaled(150, &mut rng(3)).unwrap();
    let corpus = corpus(4);
    let config = SchemeConfig::builder()
        .policy(policy)
        .ttl(8)
        .fanout(2)
        .top_k(5)
        .build()
        .unwrap();
    let first = run_once(&graph, &corpus, &config, 99);
    for repeat in 0..3 {
        let again = run_once(&graph, &corpus, &config, 99);
        assert_eq!(
            first, again,
            "{policy:?} walk output changed between identical runs \
             (repeat {repeat}): results, paths, and hop counts must be bit-stable"
        );
    }
}

#[test]
fn greedy_walks_replay_identically_with_node_memory() {
    assert_replays_identically(PolicyKind::PprGreedy);
}

#[test]
fn random_walks_replay_identically() {
    // RandomWalk consumes the seeded RNG at every hop: any hidden
    // iteration-order dependence would desynchronize the RNG stream and
    // diverge the whole trajectory, making this the most sensitive probe.
    assert_replays_identically(PolicyKind::RandomWalk);
}

#[test]
fn flooding_replays_identically() {
    assert_replays_identically(PolicyKind::Flooding);
}
