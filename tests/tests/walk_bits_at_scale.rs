//! Walk outcomes at benchmark scale, pinned: the serving workloads' inputs
//! (10⁵ nodes, 1,000 documents, seed 41), one fixed request stream, and an
//! FNV-1a digest of every outcome's path, hop count and result bits, per
//! non-flooding policy.
//!
//! The stream runs three ways: `walk::run`; an engine with the default
//! cache, in batches of 16, so requests miss, share a fresh column inside a
//! batch and hit it later; and an engine whose cache holds nothing. A score
//! is a pure function of (query, embeddings, node), so all three must hash
//! to the one pinned digest, and a change that moves
//! one bit of a walk moves it. The default engine's hit and miss counts are
//! pinned beside it.
//!
//! The set-up takes seconds in a release build and far longer in a debug
//! one, so a debug `cargo test` skips the test; CI runs it with `--release`.

use gdsearch::experiment::{Workbench, WorkbenchSpec};
use gdsearch::{
    walk, CacheVerdict, EngineConfig, Placement, PolicyKind, QueryEngine, QueryRequest,
    SchemeConfig, SearchNetwork, WalkOutcome,
};
use gdsearch_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's `--seed` for these inputs.
const SEED: u64 = 41;

/// The benchmark's placement stream: its placement RNG is seeded with
/// `--seed` XOR this.
const STREAM_PLACEMENT: u64 = 0x706c_6163_656d_656e;

/// Requests in the stream, and the query classes they draw from (the
/// benchmark's hot mix has 64).
const REQUESTS: usize = 512;
const CLASSES: usize = 64;

/// Requests per `submit` + `step` batch on the default engine.
const BATCH: usize = 16;

/// FNV-1a (64-bit), fed little-endian integers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn u32(&mut self, value: u32) {
        self.bytes(&value.to_le_bytes());
    }

    /// The path, the hop count and every result's document, score bits and
    /// hop, each list after its length.
    fn outcome(&mut self, outcome: &WalkOutcome) {
        self.u64(outcome.path.len() as u64);
        for node in &outcome.path {
            self.u32(node.as_u32());
        }
        self.u32(outcome.hops);
        self.u64(outcome.results.len() as u64);
        for found in &outcome.results {
            self.u64(found.doc as u64);
            self.u32(found.score.to_bits());
            self.u32(found.hop);
        }
    }
}

/// One request of the stream: query class, start node, walk seed.
type Ticket = (usize, NodeId, u64);

/// Per policy: the outcome digest, then the default engine's cache hits and
/// misses.
const PINNED: [(PolicyKind, u64, u64, u64); 4] = [
    (PolicyKind::PprGreedy, 0x61a6_c4f5_058c_5998, 436, 76),
    (PolicyKind::RandomWalk, 0xf6e7_dd88_9d86_5860, 436, 76),
    (PolicyKind::DegreeBiased, 0x67d1_5cc0_697f_7819, 436, 76),
    (
        PolicyKind::Hybrid { epsilon: 0.2 },
        0x4e70_ca82_b74b_ea89,
        436,
        76,
    ),
];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark scale; CI runs it with --release"
)]
fn walks_reproduce_their_pinned_digests() {
    let spec = WorkbenchSpec {
        nodes: 100_000,
        vocab: 6000,
        dim: 64,
        topics: 120,
        num_queries: 2000,
        min_cosine: 0.6,
        anisotropy: 0.3,
    };
    let wb = Workbench::generate(&spec, &mut StdRng::seed_from_u64(SEED)).unwrap();
    let pairs = wb.queries.pairs();
    let gold: Vec<_> = pairs.iter().take(1000).map(|p| p.gold).collect();
    let mut rng = StdRng::seed_from_u64(SEED ^ STREAM_PLACEMENT);
    let placement = Placement::uniform(&wb.graph, &gold, &mut rng).unwrap();
    let nodes = u32::try_from(wb.graph.num_nodes()).unwrap();
    let tickets: Vec<Ticket> = (0..REQUESTS)
        .map(|_| {
            let class = rng.random_range(0..CLASSES);
            (class, NodeId::new(rng.random_range(0..nodes)), rng.random())
        })
        .collect();
    let request = |&(class, start, seed): &Ticket| {
        let query = wb.corpus.embedding(pairs[class].query).clone();
        QueryRequest::new(query, start, seed)
    };

    let mut got = Vec::new();
    for (policy, ..) in PINNED {
        let scheme = SchemeConfig::builder().policy(policy).build().unwrap();
        let mut engine = |cache| {
            let config = EngineConfig::builder()
                .scheme(scheme.clone())
                .threads(2)
                .cache_capacity(cache)
                .build()
                .unwrap();
            let network =
                SearchNetwork::build(&wb.graph, &wb.corpus, &placement, &scheme, &mut rng).unwrap();
            QueryEngine::from_network(network, config)
        };
        let cached = engine(256);
        let uncacheable = engine(0);

        let mut walked = Fnv::new();
        for ticket in &tickets {
            let request = request(ticket);
            let mut walk_rng = StdRng::seed_from_u64(request.seed());
            let network = cached.network();
            walked.outcome(
                &walk::run(network, request.query(), request.start(), &mut walk_rng).unwrap(),
            );
        }

        let (mut batched, mut unstored) = (Fnv::new(), Fnv::new());
        for chunk in tickets.chunks(BATCH) {
            for ticket in chunk {
                cached.submit(request(ticket)).unwrap();
            }
            for response in cached.step().unwrap() {
                assert_ne!(response.verdict, CacheVerdict::Bypass, "{policy:?}");
                batched.outcome(&response.outcome);
            }
        }
        for ticket in &tickets {
            let response = uncacheable.execute(request(ticket)).unwrap();
            assert_eq!(response.verdict, CacheVerdict::Bypass, "{policy:?}");
            unstored.outcome(&response.outcome);
        }
        for (way, digest) in [("engine", &batched), ("capacity 0", &unstored)] {
            assert_eq!(
                format!("{:016x}", digest.0),
                format!("{:016x}", walked.0),
                "{policy:?}: {way} ≠ walk::run"
            );
        }
        let stats = cached.stats().cache;
        assert!(stats.hits > 0 && stats.misses > 0, "{policy:?}: {stats:?}");
        got.push((policy, walked.0, stats.hits, stats.misses));
    }
    let show = |rows: &[(PolicyKind, u64, u64, u64)]| {
        rows.iter()
            .map(|(policy, digest, hits, misses)| {
                format!("{policy:?} {digest:016x} {hits} {misses}")
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(show(&got), show(&PINNED));
}
