//! Cross-crate property-based tests: invariants that must hold for *any*
//! placement, graph and configuration, not just the curated fixtures.

use gdsearch::{walk, Placement, PolicyKind, SchemeConfig, SearchNetwork};
use gdsearch_diffusion::{per_source, power, PprConfig, Signal};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::{Corpus, WordId};
use gdsearch_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared corpus for all property cases (generation is expensive).
fn corpus() -> &'static Corpus {
    use std::sync::OnceLock;
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        SyntheticCorpus::builder()
            .vocab_size(150)
            .dim(12)
            .num_topics(8)
            .generate(&mut StdRng::seed_from_u64(99))
            .unwrap()
    })
}

fn graph_from_seed(seed: u64, n: u32) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::random_connected(n, n / 2, &mut rng).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PPR mass conservation holds on arbitrary connected graphs.
    #[test]
    fn ppr_conserves_mass(seed in 0u64..500, n in 5u32..60, alpha in 0.05f32..1.0) {
        let g = graph_from_seed(seed, n);
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-7).unwrap();
        let h = per_source::ppr_vector(&g, NodeId::new(0), &cfg).unwrap();
        let total: f32 = h.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-3, "mass {total}");
        prop_assert!(h.iter().all(|&x| x >= -1e-6), "negative probability");
    }

    /// Dense and per-source diffusion agree on arbitrary inputs.
    #[test]
    fn engines_agree(seed in 0u64..500, n in 5u32..40, k in 1usize..6) {
        let g = graph_from_seed(seed, n);
        let cfg = PprConfig::new(0.4).unwrap().with_tolerance(1e-7).unwrap();
        let corpus = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
        let sources: Vec<(NodeId, gdsearch_embed::Embedding)> = (0..k)
            .map(|i| {
                use rand::Rng as _;
                (
                    NodeId::new(rng.random_range(0..n)),
                    corpus.embedding(WordId::new(i as u32)).clone(),
                )
            })
            .collect();
        let sparse = per_source::diffuse_sparse(&g, corpus.dim(), &sources, &cfg).unwrap();
        let e0 = Signal::from_sparse_rows(n as usize, corpus.dim(), &sources).unwrap();
        let dense = power::diffuse(&g, &e0, &cfg).unwrap().signal;
        prop_assert!(sparse.max_abs_diff(&dense).unwrap() < 1e-3);
    }

    /// Walks never exceed their message budget and report consistent
    /// outcomes, for any policy and fanout.
    #[test]
    fn walk_budget_invariants(
        seed in 0u64..300,
        n in 10u32..60,
        ttl in 1u32..20,
        fanout in 1usize..4,
        policy_idx in 0usize..4,
    ) {
        let policy = [
            PolicyKind::PprGreedy,
            PolicyKind::RandomWalk,
            PolicyKind::DegreeBiased,
            PolicyKind::Hybrid { epsilon: 0.3 },
        ][policy_idx];
        let g = graph_from_seed(seed, n);
        let corpus = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        let words: Vec<WordId> = (0..5).map(WordId::new).collect();
        let placement = Placement::uniform(&g, &words, &mut rng).unwrap();
        let cfg = SchemeConfig::builder()
            .ttl(ttl)
            .fanout(fanout)
            .policy(policy)
            .build()
            .unwrap();
        let net = SearchNetwork::build(&g, corpus, &placement, &cfg, &mut rng).unwrap();
        let out = walk::run(
            &net,
            corpus.embedding(WordId::new(10)),
            NodeId::new(0),
            &mut rng,
        )
        .unwrap();
        // Fanout spawns walks at the origin only: at most fanout * ttl
        // forwards in total (flooding is a separate policy).
        let budget = fanout as u64 * u64::from(ttl);
        prop_assert!(u64::from(out.hops) <= budget,
            "hops {} exceed budget {budget}", out.hops);
        prop_assert!(out.unique_nodes <= g.num_nodes());
        prop_assert_eq!(out.path.len(), out.unique_nodes);
        // Results reference placed documents with hops within TTL.
        for f in &out.results {
            prop_assert!(f.doc < words.len());
            prop_assert!(f.hop <= ttl);
        }
    }

    /// Flooding visits exactly the BFS ball of radius TTL on any graph.
    #[test]
    fn flooding_covers_bfs_ball(seed in 0u64..300, n in 8u32..50, ttl in 1u32..5) {
        let g = graph_from_seed(seed, n);
        let corpus = corpus();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x777);
        let words = vec![WordId::new(0)];
        let placement = Placement::uniform(&g, &words, &mut rng).unwrap();
        let cfg = SchemeConfig::builder()
            .ttl(ttl)
            .policy(PolicyKind::Flooding)
            .build()
            .unwrap();
        let net = SearchNetwork::build(&g, corpus, &placement, &cfg, &mut rng).unwrap();
        let start = NodeId::new(0);
        let out = walk::run(&net, corpus.embedding(WordId::new(3)), start, &mut rng).unwrap();
        let ball = gdsearch_graph::algo::bfs::distances(&g, start)
            .iter()
            .filter(|d| d.map(|d| d <= ttl).unwrap_or(false))
            .count();
        prop_assert_eq!(out.unique_nodes, ball);
    }

    /// Scheme construction is deterministic: same seed, same embeddings.
    #[test]
    fn scheme_build_deterministic(seed in 0u64..200, n in 5u32..40) {
        let g = graph_from_seed(seed, n);
        let corpus = corpus();
        let words: Vec<WordId> = (0..4).map(WordId::new).collect();
        let build = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let placement = Placement::uniform(&g, &words, &mut rng).unwrap();
            SearchNetwork::build(&g, corpus, &placement, &SchemeConfig::default(), &mut rng)
                .unwrap()
                .embeddings()
                .clone()
        };
        prop_assert_eq!(build(), build());
    }
}
