//! ISSUE 10 determinism contract: the serving engine's batched, threaded,
//! cached execution must be **bitwise identical** to the sequential
//! uncached [`walk::run`] path, for every combination of batch
//! window, worker-thread count, and cache capacity.
//!
//! The engine earns this by construction — cached score columns are
//! filled, cell by cell as walks touch them, with the same `dot` kernel
//! the inline walk uses, every request carries its own walk seed, and
//! `workpool` sharding preserves submission order — so these tests pin
//! the invariant against future
//! drift: a "faster" cache that re-derives scores with a fused or
//! reordered kernel, batch-local RNG reuse, or an order-sensitive
//! dispatch would all fail here.

use gdsearch::engine::{EngineConfig, QueryEngine, QueryRequest};
use gdsearch::walk::{self, WalkOutcome};
use gdsearch::{CacheVerdict, Placement, SchemeConfig, SearchNetwork};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::Corpus;
use gdsearch_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Fixed substrate shared by every case: the contract quantifies over
/// engine knobs, not over the network.
struct Fixture {
    graph: Graph,
    corpus: Corpus,
    queries: querygen::QuerySet,
}

fn fixture() -> Fixture {
    let graph = generators::social_circles_like_scaled(150, &mut rng(3)).unwrap();
    let corpus = SyntheticCorpus::builder()
        .vocab_size(300)
        .dim(24)
        .num_topics(10)
        .generate(&mut rng(4))
        .unwrap();
    let queries = querygen::generate(
        &corpus,
        QueryGenConfig {
            num_queries: 6,
            min_cosine: 0.5,
        },
        &mut rng(5),
    )
    .unwrap();
    Fixture {
        graph,
        corpus,
        queries,
    }
}

fn network(fx: &Fixture) -> SearchNetwork<'_> {
    let mut words: Vec<_> = fx.queries.pairs().iter().map(|p| p.gold).collect();
    words.extend(fx.queries.irrelevant().iter().copied().take(12));
    let placement = Placement::uniform(&fx.graph, &words, &mut rng(7)).unwrap();
    let config = SchemeConfig::builder()
        .ttl(12)
        .fanout(2)
        .top_k(5)
        .build()
        .unwrap();
    SearchNetwork::build(&fx.graph, &fx.corpus, &placement, &config, &mut rng(8)).unwrap()
}

/// A request mix that repeats queries (so caches and batch dedup
/// actually engage) while varying starts and walk seeds per request.
fn requests(fx: &Fixture, count: usize, seed: u64) -> Vec<QueryRequest> {
    let mut r = rng(seed);
    (0..count)
        .map(|_| {
            let pair = fx.queries.pairs()[r.random_range(0..fx.queries.len())];
            let start = NodeId::new(r.random_range(0..fx.graph.num_nodes() as u32));
            let walk_seed: u64 = r.random();
            QueryRequest::new(fx.corpus.embedding(pair.query).clone(), start, walk_seed)
        })
        .collect()
}

/// The ground truth: sequential, uncached, one fresh seeded RNG per
/// request.
fn sequential_baseline(net: &SearchNetwork<'_>, reqs: &[QueryRequest]) -> Vec<WalkOutcome> {
    reqs.iter()
        .map(|req| {
            let mut walk_rng = StdRng::seed_from_u64(req.seed());
            walk::run(net, req.query(), req.start(), &mut walk_rng).unwrap()
        })
        .collect()
}

/// Drives `reqs` through submit/step and returns outcomes in admission
/// order.
fn engine_outcomes(engine: &QueryEngine<'_>, reqs: &[QueryRequest]) -> Vec<WalkOutcome> {
    for req in reqs {
        engine.submit(req.clone()).unwrap();
    }
    let mut outcomes = Vec::with_capacity(reqs.len());
    while outcomes.len() < reqs.len() {
        let batch = engine.step().unwrap();
        assert!(!batch.is_empty(), "queue drained before all responses");
        outcomes.extend(batch.into_iter().map(|resp| resp.outcome));
    }
    outcomes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every (batch, threads, capacity) the engine's responses are
    /// bitwise equal to the sequential baseline, in admission order.
    #[test]
    fn engine_is_bitwise_equal_to_sequential_walks(
        batch_index in 0usize..3,
        thread_index in 0usize..3,
        capacity_index in 0usize..3,
        mix_seed in 0u64..1_000,
    ) {
        let batch_size = [1usize, 4, 16][batch_index];
        let threads = [1usize, 2, 4][thread_index];
        let capacity = [0, 8, usize::MAX][capacity_index];
        let fx = fixture();
        let net = network(&fx);
        let reqs = requests(&fx, 24, 0xE0_0000 + mix_seed);
        let expected = sequential_baseline(&net, &reqs);
        let config = EngineConfig::builder()
            .scheme(net.config().clone())
            .batch_size(batch_size)
            .threads(threads)
            .cache_capacity(capacity)
            .build()
            .unwrap();
        let engine = QueryEngine::from_network(net.clone(), config);
        let outcomes = engine_outcomes(&engine, &reqs);
        prop_assert_eq!(
            &outcomes, &expected,
            "batch {} / threads {} / capacity {}: engine output diverged",
            batch_size, threads, capacity
        );
        // Run the same mix again on the now-warm engine: a populated
        // cache must not change a single bit either.
        let again = engine_outcomes(&engine, &reqs);
        prop_assert_eq!(&again, &expected, "warm-cache replay diverged");
    }
}

/// A full batch of one class on four workers starts from one *empty*
/// shared column: the walks fill and read its cells concurrently, and must
/// still equal the sequential inline walks; a second pass over the partly
/// filled column must equal the first.
#[test]
fn same_class_batch_fills_an_empty_column_concurrently() {
    let fx = fixture();
    let net = network(&fx);
    let query = fx.corpus.embedding(fx.queries.pairs()[0].query);
    let mut r = rng(0x5A5E);
    let reqs: Vec<QueryRequest> = (0..16)
        .map(|_| {
            let start = NodeId::new(r.random_range(0..fx.graph.num_nodes() as u32));
            QueryRequest::new(query.clone(), start, r.random())
        })
        .collect();
    let expected = sequential_baseline(&net, &reqs);
    let config = EngineConfig::builder()
        .scheme(net.config().clone())
        .batch_size(16)
        .threads(4)
        .build()
        .unwrap();
    let engine = QueryEngine::from_network(net, config);
    let first = engine_outcomes(&engine, &reqs);
    assert_eq!(first, expected, "concurrent fill of an empty column");
    let second = engine_outcomes(&engine, &reqs);
    assert_eq!(second, first, "replay over the partly filled column");
    let stats = engine.stats();
    assert_eq!((stats.batches, stats.cache.inserts), (2, 1));
    assert_eq!((stats.cache.misses, stats.cache.hits), (16, 16));
}

/// Evict → re-miss → refill: a class pushed out of a one-column cache
/// starts over from an empty column and reproduces its outcome bit for bit.
#[test]
fn evicted_class_refills_to_identical_outcomes() {
    let fx = fixture();
    let net = network(&fx);
    let config = EngineConfig::builder()
        .scheme(net.config().clone())
        .cache_capacity(1)
        .build()
        .unwrap();
    let engine = QueryEngine::from_network(net, config);
    let make = |pair: usize, start: u32, seed: u64| {
        let word = fx.queries.pairs()[pair].query;
        QueryRequest::new(fx.corpus.embedding(word).clone(), NodeId::new(start), seed)
    };
    let cold = engine.execute(make(0, 3, 41)).unwrap();
    let warm = engine.execute(make(0, 3, 41)).unwrap();
    let evictor = engine.execute(make(1, 9, 42)).unwrap();
    let refilled = engine.execute(make(0, 3, 41)).unwrap();
    assert_eq!(
        [
            cold.verdict,
            warm.verdict,
            evictor.verdict,
            refilled.verdict
        ],
        [
            CacheVerdict::Miss,
            CacheVerdict::Hit,
            CacheVerdict::Miss,
            CacheVerdict::Miss
        ]
    );
    assert_eq!(warm.outcome, cold.outcome);
    assert_eq!(refilled.outcome, cold.outcome, "refill changed the walk");
    let stats = engine.stats().cache;
    assert_eq!((stats.inserts, stats.evictions), (3, 2));
}

/// Invalidation regression: dropping the cached columns forces each class
/// through a recomputation (Miss verdict) whose result is still bitwise
/// identical, and the recomputed columns hit again.
#[test]
fn invalidation_recomputes_identical_columns() {
    let fx = fixture();
    let net = network(&fx);
    let config = EngineConfig::builder()
        .scheme(net.config().clone())
        .cache_capacity(8)
        .build()
        .unwrap();
    let engine = QueryEngine::from_network(net, config);

    let pair_a = fx.queries.pairs()[0];
    let pair_b = fx.queries.pairs()[1];
    let make = |word, start: u32, seed: u64| {
        QueryRequest::new(fx.corpus.embedding(word).clone(), NodeId::new(start), seed)
    };

    let cold = engine.execute(make(pair_a.query, 3, 41)).unwrap();
    assert_eq!(cold.verdict, CacheVerdict::Miss);
    let other = engine.execute(make(pair_b.query, 9, 42)).unwrap();
    assert_eq!(other.verdict, CacheVerdict::Miss);

    let warm = engine.execute(make(pair_a.query, 3, 41)).unwrap();
    assert_eq!(warm.verdict, CacheVerdict::Hit);
    assert_eq!(warm.outcome, cold.outcome, "cache hit changed the walk");

    engine.invalidate_all();

    for (word, start, seed, before) in [(pair_a.query, 3, 41, &cold), (pair_b.query, 9, 42, &other)]
    {
        let recomputed = engine.execute(make(word, start, seed)).unwrap();
        assert_eq!(
            recomputed.verdict,
            CacheVerdict::Miss,
            "invalidated class must be recomputed"
        );
        assert_eq!(
            recomputed.outcome, before.outcome,
            "recomputed column changed the walk"
        );
        let again = engine.execute(make(word, start, seed)).unwrap();
        assert_eq!(again.verdict, CacheVerdict::Hit);
        assert_eq!(again.outcome, before.outcome);
    }

    assert_eq!(engine.stats().cache.invalidations, 2);
}

/// `invalidate_all` after a placement-level change forces every class
/// through recomputation while leaving results bitwise stable.
#[test]
fn invalidate_all_flushes_every_class() {
    let fx = fixture();
    let net = network(&fx);
    let config = EngineConfig::builder()
        .scheme(net.config().clone())
        .cache_capacity(usize::MAX)
        .build()
        .unwrap();
    let engine = QueryEngine::from_network(net, config);
    let reqs = requests(&fx, 8, 0xF100);
    let first: Vec<_> = reqs
        .iter()
        .map(|r| engine.execute(r.clone()).unwrap())
        .collect();
    engine.invalidate_all();
    // The mix repeats query classes: after the flush, the first request
    // of each class (each query bit pattern) recomputes (Miss) and
    // re-primes the cache, so later repeats hit again.
    let mut recomputed = std::collections::BTreeSet::new();
    for (req, before) in reqs.iter().zip(&first) {
        let bits: Vec<u32> = req.query().as_slice().iter().map(|x| x.to_bits()).collect();
        let after = engine.execute(req.clone()).unwrap();
        let expected = if recomputed.insert(bits) {
            CacheVerdict::Miss
        } else {
            CacheVerdict::Hit
        };
        assert_eq!(after.verdict, expected, "flush must force recomputation");
        assert_eq!(after.outcome, before.outcome);
    }
}
