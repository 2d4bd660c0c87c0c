//! End-to-end integration tests of the full search pipeline:
//! graph generation → corpus → query generation → placement →
//! personalization → diffusion → guided walk.

use gdsearch::experiment::{accuracy, hops, Workbench, WorkbenchSpec};
use gdsearch::metrics::{hop_stats, HopStats};
use gdsearch::{walk, Placement, PolicyKind, SchemeConfig, SearchError, SearchNetwork};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_graph::algo::bfs;
use gdsearch_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The `examples/quickstart.rs` flow as a fast workspace smoke test:
/// build graph → corpus → query pairs → placement → diffusion → guided
/// walk → hit. Any regression in the end-to-end pipeline (or in seeded
/// determinism of any stage) fails here first.
#[test]
fn quickstart_smoke() {
    let mut rng = rng(42);
    let graph = generators::social_circles_like_scaled(200, &mut rng).unwrap();
    assert_eq!(graph.num_nodes(), 200);
    assert!(graph.num_edges() > 0, "overlay must be non-trivial");

    let corpus = SyntheticCorpus::builder()
        .vocab_size(500)
        .dim(32)
        .num_topics(20)
        .generate(&mut rng)
        .unwrap();
    let queries = querygen::generate(
        &corpus,
        QueryGenConfig {
            num_queries: 10,
            min_cosine: 0.6,
        },
        &mut rng,
    )
    .unwrap();
    let pair = queries.pairs()[0];
    assert!(pair.cosine >= 0.6, "gold must be a near neighbor");

    let mut words = vec![pair.gold];
    words.extend(queries.irrelevant().iter().copied().take(9));
    let placement = Placement::uniform(&graph, &words, &mut rng).unwrap();
    let gold_host = placement.host(0);

    let config = SchemeConfig::builder().alpha(0.5).ttl(50).build().unwrap();
    let network = SearchNetwork::build(&graph, &corpus, &placement, &config, &mut rng).unwrap();
    assert_eq!(network.dim(), 32);

    let rings = bfs::distance_rings(&graph, gold_host, 3);
    let start = rings[3].first().copied().unwrap_or(gold_host);
    let outcome = walk::run(&network, corpus.embedding(pair.query), start, &mut rng).unwrap();
    assert!(outcome.unique_nodes > 0);
    assert!(
        outcome.hops <= 50,
        "a single walk spends at most TTL forwards"
    );
    let hop = outcome
        .hop_of(0)
        .expect("quickstart's seeded walk must find the gold document");
    assert!(
        outcome.path.contains(&gold_host),
        "a hit implies the gold host was visited"
    );
    assert!(hop as usize >= 3, "gold at BFS distance 3 needs >= 3 hops");
}

fn workbench(seed: u64) -> Workbench {
    Workbench::generate(&WorkbenchSpec::ci_scale(), &mut rng(seed)).unwrap()
}

/// Table I's sweep: documents placed uniformly, every draw from `seed`.
fn uniform_sweep(
    wb: &Workbench,
    cfg: &hops::HopCountConfig,
    scheme: &SchemeConfig,
    seed: u64,
) -> hops::SweepOutcome {
    hops::sweep(wb, cfg, scheme, &mut rng(seed), |words, r| {
        Placement::uniform(&wb.graph, words, r)
    })
    .unwrap()
}

#[test]
fn full_pipeline_is_deterministic_under_seed() {
    let run_once = || {
        let wb = workbench(11);
        let cfg = accuracy::AccuracyConfig {
            total_docs: 8,
            alphas: vec![0.5],
            max_distance: 4,
            iterations: 5,
        };
        accuracy::run(&wb, &cfg, &SchemeConfig::default(), &mut rng(12)).unwrap()
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn accuracy_at_distance_zero_and_one_is_high_with_few_documents() {
    // Fig. 3a's left edge: with 10 documents, queries at distance 0-1 from
    // the gold host almost always succeed.
    let wb = workbench(21);
    let cfg = accuracy::AccuracyConfig {
        total_docs: 10,
        alphas: vec![0.5],
        max_distance: 3,
        iterations: 20,
    };
    let result = accuracy::run(&wb, &cfg, &SchemeConfig::default(), &mut rng(22)).unwrap();
    let s = &result.series[0];
    assert_eq!(s.accuracy[0], 1.0, "distance 0 is a local hit");
    assert!(
        s.accuracy[1] >= 0.9,
        "distance 1 should be nearly always found: {}",
        s.accuracy[1]
    );
}

#[test]
fn accuracy_declines_as_documents_increase() {
    // The paper's scalability headline: more stored documents = noisier
    // diffusion = lower accuracy. Compare few vs many documents at mid
    // distances on the same workbench.
    let wb = workbench(31);
    let run_with_docs = |docs: usize, seed: u64| {
        let cfg = accuracy::AccuracyConfig {
            total_docs: docs,
            alphas: vec![0.5],
            max_distance: 4,
            iterations: 20,
        };
        let result = accuracy::run(&wb, &cfg, &SchemeConfig::default(), &mut rng(seed)).unwrap();
        // Aggregate accuracy at distances 2..=4.
        let s = &result.series[0];
        (2..=4).map(|d| s.accuracy[d]).sum::<f64>() / 3.0
    };
    let few = run_with_docs(5, 32);
    let many = run_with_docs(200, 32);
    assert!(
        few >= many,
        "accuracy with 5 docs ({few:.3}) must be >= accuracy with 200 docs ({many:.3})"
    );
}

#[test]
fn hop_experiment_matches_walk_semantics() {
    // Sanity link between the two harnesses: hop counts reported by the
    // Table I harness are achievable within the TTL.
    let wb = workbench(41);
    let base = SchemeConfig::builder().ttl(12).build().unwrap();
    let cfg = hops::HopCountConfig {
        total_docs: 5,
        iterations: 10,
        queries_per_iteration: 5,
    };
    let outcome = uniform_sweep(&wb, &cfg, &base, 42);
    assert_eq!(outcome.samples, 50);
    if let Some(mean) = outcome.mean_success_hops() {
        assert!(mean <= 12.0, "mean hops {mean} cannot exceed the TTL");
    }
}

#[test]
fn experiment_drivers_reproduce_golden_rows() {
    // Every placement and every `Hybrid`-policy forwarding decision draws
    // from the driver's rng, so a driver that reorders, adds or drops a
    // draw moves these numbers.
    let spec = WorkbenchSpec {
        nodes: 60,
        vocab: 300,
        dim: 16,
        topics: 12,
        num_queries: 20,
        min_cosine: 0.6,
        anisotropy: 0.0,
    };
    let wb = Workbench::generate(&spec, &mut rng(81)).unwrap();
    let base = SchemeConfig::builder()
        .policy(PolicyKind::Hybrid { epsilon: 0.5 })
        .ttl(6)
        .build()
        .unwrap();

    let cfg = hops::HopCountConfig {
        total_docs: 12,
        iterations: 8,
        queries_per_iteration: 5,
    };
    let outcome = uniform_sweep(&wb, &cfg, &base, 82);
    assert_eq!((outcome.successes(), outcome.samples), (17, 40));
    assert_eq!(
        hop_stats(&outcome.success_hops),
        Some(HopStats {
            count: 17,
            median: 2.0,
            mean: 2.764705882352941,
            std: 1.7996539459739243,
        })
    );

    let cfg = accuracy::AccuracyConfig {
        total_docs: 12,
        alphas: vec![0.1, 0.5, 0.9],
        max_distance: 4,
        iterations: 8,
    };
    let result = accuracy::run(&wb, &cfg, &base, &mut rng(83)).unwrap();
    let expected = [
        (0.1, [1.0, 1.0, 0.5, 0.125, 0.0]),
        (0.5, [1.0, 0.875, 0.625, 0.25, 0.0]),
        (0.9, [1.0, 0.875, 0.375, 0.25, 0.0]),
    ];
    assert_eq!(result.total_docs, 12);
    assert_eq!(result.series.len(), expected.len());
    for (series, (alpha, accuracy)) in result.series.iter().zip(expected) {
        assert_eq!(series.alpha, alpha);
        assert_eq!(series.accuracy, accuracy);
        assert_eq!(series.samples, [8, 8, 8, 8, 0]);
    }
}

/// Pinned counts of the Table I sweep that `table1` (uniform placement),
/// `ablation_placement` (topic-correlated) and `ablation_policies`
/// (flooding) run. Every placement, start and walk draws from the sweep's
/// rng, so a sweep that reorders, adds or drops a draw moves them.
#[test]
fn hop_sweeps_reproduce_pinned_counts() {
    let wb = workbench(91);
    let cfg = hops::HopCountConfig {
        total_docs: 20,
        iterations: 6,
        queries_per_iteration: 5,
    };
    let paper = SchemeConfig::default();
    let counts = |outcome: &hops::SweepOutcome| {
        let hops: u64 = outcome.success_hops.iter().map(|&h| u64::from(h)).sum();
        (
            outcome.successes(),
            outcome.samples,
            outcome.total_messages,
            hops,
        )
    };

    let uniform = uniform_sweep(&wb, &cfg, &paper, 92);
    assert_eq!(counts(&uniform), (13, 30, 1500, 117));
    assert_eq!(uniform.mean_success_hops(), Some(117.0 / 13.0));

    let correlated = hops::sweep(&wb, &cfg, &paper, &mut rng(93), |words, r| {
        Placement::topic_correlated(&wb.graph, &wb.corpus, words, 0.9, 1, r)
    })
    .unwrap();
    assert_eq!(counts(&correlated), (24, 30, 1500, 60));

    let flooding = SchemeConfig::builder()
        .policy(PolicyKind::Flooding)
        .ttl(2)
        .build()
        .unwrap();
    let flooded = uniform_sweep(&wb, &cfg, &flooding, 94);
    assert_eq!(counts(&flooded), (7, 30, 28_481, 11));
}

#[test]
fn hop_sweep_rejects_empty_runs() {
    let wb = workbench(95);
    let valid = hops::HopCountConfig {
        total_docs: 5,
        iterations: 2,
        queries_per_iteration: 2,
    };
    for bad in [
        hops::HopCountConfig {
            iterations: 0,
            ..valid
        },
        hops::HopCountConfig {
            queries_per_iteration: 0,
            ..valid
        },
        hops::HopCountConfig {
            total_docs: 0,
            ..valid
        },
    ] {
        let mut placements = 0;
        let swept = hops::sweep(
            &wb,
            &bad,
            &SchemeConfig::default(),
            &mut rng(96),
            |words, r| {
                placements += 1;
                Placement::uniform(&wb.graph, words, r)
            },
        );
        assert!(
            matches!(swept, Err(SearchError::InvalidParameter { .. })),
            "{bad:?} accepted"
        );
        assert_eq!(placements, 0, "{bad:?} placed documents before failing");
    }
    assert!(hops::sweep(
        &wb,
        &valid,
        &SchemeConfig::default(),
        &mut rng(96),
        |words, r| { Placement::uniform(&wb.graph, words, r) }
    )
    .is_ok());
}

#[test]
fn walk_succeeds_exactly_when_it_visits_the_gold_host() {
    let wb = workbench(61);
    let words: Vec<_> = std::iter::once(wb.queries.pairs()[0].gold)
        .chain(wb.queries.irrelevant().iter().copied().take(4))
        .collect();
    let placement = Placement::uniform(&wb.graph, &words, &mut rng(62)).unwrap();
    let net = SearchNetwork::build(
        &wb.graph,
        &wb.corpus,
        &placement,
        &SchemeConfig::default(),
        &mut rng(63),
    )
    .unwrap();
    let query = wb.corpus.embedding(wb.queries.pairs()[0].query);
    for start_idx in [0u32, 50, 120] {
        let start = gdsearch_graph::NodeId::new(start_idx);
        let outcome = walk::run(&net, query, start, &mut rng(64)).unwrap();
        let visited_host = outcome.path.contains(&placement.host(0));
        assert_eq!(
            outcome.contains(0),
            visited_host,
            "success must coincide with visiting the gold host"
        );
    }
}

#[test]
fn distance_rings_drive_expected_hop_lower_bound() {
    // A query issued at BFS distance d cannot find the gold in fewer than
    // d hops.
    let wb = workbench(71);
    let words: Vec<_> = std::iter::once(wb.queries.pairs()[0].gold)
        .chain(wb.queries.irrelevant().iter().copied().take(9))
        .collect();
    let placement = Placement::uniform(&wb.graph, &words, &mut rng(72)).unwrap();
    let net = SearchNetwork::build(
        &wb.graph,
        &wb.corpus,
        &placement,
        &SchemeConfig::default(),
        &mut rng(73),
    )
    .unwrap();
    let query = wb.corpus.embedding(wb.queries.pairs()[0].query);
    let rings = bfs::distance_rings(&wb.graph, placement.host(0), 4);
    for (d, ring) in rings.iter().enumerate() {
        if let Some(&start) = ring.first() {
            let outcome = walk::run(&net, query, start, &mut rng(74)).unwrap();
            if let Some(hop) = outcome.hop_of(0) {
                assert!(
                    hop as usize >= d,
                    "hop {hop} below BFS distance {d} is impossible"
                );
            }
        }
    }
}
