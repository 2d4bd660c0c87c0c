//! Concurrent query engine: admission batching and hot-column caching
//! over a built [`SearchNetwork`], behind a typed serving API.
//!
//! [`walk::run`] executes one walk at a time against a caller-managed
//! network.
//! This module adds the serving layer the paper's deployment story needs:
//! a long-lived [`QueryEngine`] that owns the network, admits requests
//! through a bounded queue, executes compatible requests as one batch on
//! a deterministic work pool, and serves repeated queries from a
//! capacity-bounded cache of lazily filled score columns.
//!
//! # Determinism contract
//!
//! Every serving knob is results-neutral. A cached column is a
//! [`LazyColumn`]: it starts as a directory of empty pages, and a walk's
//! forwarding decision fills a cell (allocating its page on first touch)
//! the first time it scores that node — with the *same* dot-product kernel
//! every walk scores with — and reads it back afterwards. A cell's bits are
//! thus a pure function of (query, embeddings, node): a walk observes
//! bitwise the scores it would have computed itself, whether it found the
//! cell set or set it. Walks of one batch share a column across threads
//! without a lock on cells; two that race on a cell store identical bits,
//! and two that race on a page's first fill both see the one page, so
//! thread timing decides who pays for a dot product and nothing else.
//! That argument needs every reader of a column to carry the same query:
//! the cache is keyed by the query's bit pattern itself, so only
//! bitwise-equal queries ever share a column.
//!
//! Batch composition and thread count only change *which worker* runs a
//! walk, never its inputs: each request carries its own seed, and
//! [`workpool`] reassembles outputs in submission order. Cache capacity
//! and eviction therefore affect only the hit/miss counters and how many
//! cells are already set, never a score. `tests/engine_equivalence.rs`
//! proptests this across batch sizes, thread counts and cache capacities.
//!
//! # Example
//!
//! ```
//! use gdsearch::engine::{EngineConfig, QueryEngine, QueryRequest};
//! use gdsearch::Placement;
//! use gdsearch_embed::synthetic::SyntheticCorpus;
//! use gdsearch_embed::WordId;
//! use gdsearch_graph::{generators, NodeId};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let graph = generators::social_circles_like_scaled(120, &mut rng)?;
//! let corpus = SyntheticCorpus::builder().vocab_size(60).dim(16).generate(&mut rng)?;
//! let words: Vec<WordId> = (0..3).map(WordId::new).collect();
//! let placement = Placement::uniform(&graph, &words, &mut rng)?;
//! let engine = QueryEngine::build(
//!     &graph, &corpus, &placement, EngineConfig::default(), &mut rng,
//! )?;
//!
//! // Enqueue two requests for the same hot query, then serve the batch.
//! let hot = corpus.embedding(WordId::new(0)).clone();
//! engine.submit(QueryRequest::new(hot.clone(), NodeId::new(3), 11))?;
//! engine.submit(QueryRequest::new(hot, NodeId::new(9), 12))?;
//! let responses = engine.step()?;
//! assert_eq!(responses.len(), 2);
//! assert!(engine.stats().cache.inserts >= 1);
//! # Ok(())
//! # }
//! ```

mod cache;
mod config;

pub use cache::CacheStats;
use cache::ColumnCache;
pub use config::{validate_scheme, ConfigError, EngineConfig, EngineConfigBuilder};

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gdsearch_diffusion::workpool;
use gdsearch_embed::{Corpus, Embedding};
use gdsearch_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::forwarding::LazyColumn;
use crate::walk::WalkOutcome;
use crate::{walk, Placement, SearchError, SearchNetwork};

/// Locks a mutex, recovering the data on poison: every critical section
/// here leaves the cache/queue structurally valid (counters may undercount
/// after a worker panic, values never change — column cells are pure).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A serving-layer failure: admission rejected the request, or the
/// underlying scheme failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The submission queue is at capacity; retry after a [`QueryEngine::step`].
    QueueFull {
        /// The configured bound the queue is at.
        capacity: usize,
    },
    /// The start node does not exist in the served graph.
    StartOutOfRange {
        /// The rejected start node.
        start: NodeId,
        /// Number of nodes in the served graph.
        num_nodes: usize,
    },
    /// The query's dimensionality differs from the served corpus.
    DimensionMismatch {
        /// The engine's embedding dimension.
        expected: usize,
        /// The request's dimension.
        got: usize,
    },
    /// A query component is NaN or infinite: its scores would be NaN, so
    /// it could only walk the full TTL and evict a real cached column.
    NonFiniteQuery {
        /// Index of the first non-finite component.
        index: usize,
    },
    /// The engine configuration was rejected (see [`ConfigError`]).
    InvalidConfig(ConfigError),
    /// A scheme-level failure (build or walk).
    Search(SearchError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            EngineError::StartOutOfRange { start, num_nodes } => write!(
                f,
                "start node {start:?} outside the served graph ({num_nodes} nodes)"
            ),
            EngineError::DimensionMismatch { expected, got } => write!(
                f,
                "query dimension {got} does not match the served corpus ({expected})"
            ),
            EngineError::NonFiniteQuery { index } => {
                write!(f, "query component {index} is not finite")
            }
            EngineError::InvalidConfig(e) => write!(f, "engine configuration: {e}"),
            EngineError::Search(e) => write!(f, "scheme: {e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::InvalidConfig(e) => Some(e),
            EngineError::Search(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::InvalidConfig(e)
    }
}

impl From<SearchError> for EngineError {
    fn from(e: SearchError) -> Self {
        EngineError::Search(e)
    }
}

impl From<EngineError> for SearchError {
    /// Collapses the serving layer's typed failures back into the scheme's
    /// error type, for callers (the experiment drivers) whose signatures
    /// predate the engine.
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Search(e) => e,
            EngineError::InvalidConfig(e) => e.into(),
            other => SearchError::InvalidParameter {
                reason: other.to_string(),
            },
        }
    }
}

/// How the engine satisfied a request's score lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheVerdict {
    /// A column for the request's query was resident when its batch was
    /// admitted; the walk read the cells earlier walks had filled and
    /// filled the ones it was first to touch.
    Hit,
    /// The query had no resident column when the batch was admitted: an
    /// empty one was inserted for the batch's walks of that query to fill
    /// and share. Nothing is computed up front — a miss costs the column's
    /// page directory (16 B per 256 nodes), a 1 KB page per 256-node range
    /// the walk scores in, and the dot products any walk does.
    Miss,
    /// The cache holds no column (capacity 0); the walk scored through a
    /// column of its own, which no later request sees.
    Bypass,
}

/// One admitted query: the embedding to search for, the node it enters
/// the overlay at, and the seed of its private walk RNG.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    query: Embedding,
    start: NodeId,
    seed: u64,
}

impl QueryRequest {
    /// A request: repeated submissions of bitwise-equal query embeddings
    /// share one cached column.
    #[must_use]
    pub fn new(query: Embedding, start: NodeId, seed: u64) -> Self {
        QueryRequest { query, start, seed }
    }

    /// The query embedding.
    #[must_use]
    pub fn query(&self) -> &Embedding {
        &self.query
    }

    /// The node the query enters the overlay at.
    #[must_use]
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The seed of this request's private walk RNG.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// The engine's answer to one request: the walk outcome plus serving
/// metadata.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Admission id (monotone per engine).
    pub id: u64,
    /// How the cache served this request.
    pub verdict: CacheVerdict,
    /// The walk's results, bitwise those of [`walk::run`] with the same
    /// seed, whatever column the walk read.
    pub outcome: WalkOutcome,
}

/// Aggregate serving counters since engine construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted by [`QueryEngine::submit`].
    pub submitted: u64,
    /// Requests rejected with [`EngineError::QueueFull`].
    pub rejected: u64,
    /// Walks executed (batched and direct).
    pub executed: u64,
    /// Batches dispatched by [`QueryEngine::step`].
    pub batches: u64,
    /// Hot-column cache counters.
    pub cache: CacheStats,
}

/// How the cache answered one request: its query's column (if any) and
/// the verdict reported for it.
type Resolved = (Option<Arc<LazyColumn>>, CacheVerdict);

/// A long-lived serving engine over one built [`SearchNetwork`].
///
/// See the [module docs](self) for the serving model and the determinism
/// contract. Construction mirrors the network's:
/// [`build`](QueryEngine::build) runs the full setup phase,
/// [`from_network`](QueryEngine::from_network) wraps an existing
/// network.
#[derive(Debug)]
pub struct QueryEngine<'g> {
    network: SearchNetwork<'g>,
    config: EngineConfig,
    queue: Mutex<VecDeque<(u64, QueryRequest)>>,
    cache: Mutex<ColumnCache>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    rejected: AtomicU64,
    executed: AtomicU64,
    batches: AtomicU64,
}

impl<'g> QueryEngine<'g> {
    /// Builds the search network with `config`'s scheme and wraps it in an
    /// engine. `rng` goes to [`SearchNetwork::build`], which never reads it.
    ///
    /// # Errors
    ///
    /// As [`SearchNetwork::build`].
    pub fn build<R: Rng + ?Sized>(
        graph: &'g Graph,
        corpus: &Corpus,
        placement: &Placement,
        config: EngineConfig,
        rng: &mut R,
    ) -> Result<Self, EngineError> {
        let network = SearchNetwork::build(graph, corpus, placement, config.scheme(), rng)?;
        Ok(Self::from_network(network, config))
    }

    /// Wraps an already-built network. The network's own scheme
    /// configuration stays authoritative for walk behaviour;
    /// `config.scheme()` is only used by [`QueryEngine::build`].
    #[must_use]
    pub fn from_network(network: SearchNetwork<'g>, config: EngineConfig) -> Self {
        let cache = ColumnCache::new(config.cache_capacity());
        QueryEngine {
            network,
            config,
            queue: Mutex::new(VecDeque::new()),
            cache: Mutex::new(cache),
            next_id: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// The served network.
    #[must_use]
    pub fn network(&self) -> &SearchNetwork<'g> {
        &self.network
    }

    /// The serving configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Admits a request into the submission queue, returning its id.
    ///
    /// Validation happens here — at admission, not execution — so a bad
    /// request is rejected before it can occupy queue space.
    ///
    /// # Errors
    ///
    /// [`EngineError::StartOutOfRange`] / [`EngineError::DimensionMismatch`]
    /// / [`EngineError::NonFiniteQuery`] for malformed requests,
    /// [`EngineError::QueueFull`] past the configured capacity.
    pub fn submit(&self, request: QueryRequest) -> Result<u64, EngineError> {
        self.validate(&request)?;
        let mut queue = lock(&self.queue);
        if queue.len() >= self.config.queue_capacity() {
            drop(queue);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::QueueFull {
                capacity: self.config.queue_capacity(),
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        queue.push_back((id, request));
        drop(queue);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Number of admitted requests not yet executed.
    #[must_use]
    pub fn pending(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Drains up to one batch window from the queue and executes it,
    /// returning responses in admission order. An empty queue yields an
    /// empty vector.
    ///
    /// # Errors
    ///
    /// Any walk failure ([`EngineError::Search`]); admitted requests are
    /// pre-validated, so this is unreachable for healthy networks.
    pub fn step(&self) -> Result<Vec<QueryResponse>, EngineError> {
        let batch: Vec<(u64, QueryRequest)> = {
            let mut queue = lock(&self.queue);
            let take = self.config.batch_size().min(queue.len());
            queue.drain(..take).collect()
        };
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.run_batch(batch)
    }

    /// Executes one request immediately (a singleton batch), bypassing
    /// the queue but not the cache.
    ///
    /// # Errors
    ///
    /// As [`QueryEngine::submit`] plus any walk failure.
    pub fn execute(&self, request: QueryRequest) -> Result<QueryResponse, EngineError> {
        self.validate(&request)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut responses = self.run_batch(vec![(id, request)])?;
        responses
            .pop()
            .ok_or(EngineError::Search(SearchError::InvalidParameter {
                reason: "engine produced no response for a singleton batch".into(),
            }))
    }

    /// Drops every cached column. The next request of each query starts
    /// an empty column, filled from the current network.
    pub fn invalidate_all(&self) {
        lock(&self.cache).invalidate_all();
    }

    /// Serving counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            cache: lock(&self.cache).stats(),
        }
    }

    fn validate(&self, request: &QueryRequest) -> Result<(), EngineError> {
        let num_nodes = self.network.graph().num_nodes();
        if self.network.graph().check_node(request.start).is_err() {
            return Err(EngineError::StartOutOfRange {
                start: request.start,
                num_nodes,
            });
        }
        if request.query.dim() != self.network.dim() {
            return Err(EngineError::DimensionMismatch {
                expected: self.network.dim(),
                got: request.query.dim(),
            });
        }
        if let Some(index) = request.query.as_slice().iter().position(|x| !x.is_finite()) {
            return Err(EngineError::NonFiniteQuery { index });
        }
        Ok(())
    }

    /// Resolves every request of a batch against the cache, in order.
    /// Nothing is scored here: a query with no resident column gets an
    /// empty one, shared by the batch's requests with its bits (all
    /// [`CacheVerdict::Miss`]) and published for later batches. The cache
    /// lock is held for the lookups and for the publish, not for the
    /// allocations between them.
    fn resolve(&self, batch: &[&QueryRequest]) -> Vec<Resolved> {
        let cache_on = self.config.cache_capacity() > 0;
        let mut resolved: Vec<Resolved> = {
            let mut cache = lock(&self.cache);
            batch
                .iter()
                .map(|request| {
                    if !cache_on {
                        return (None, CacheVerdict::Bypass);
                    }
                    match cache.get(&request.query) {
                        Some(column) => (Some(column), CacheVerdict::Hit),
                        None => (None, CacheVerdict::Miss),
                    }
                })
                .collect()
        };

        // One empty column per distinct missing query, owned by its first
        // request and shared by every later one with the same bits.
        let num_nodes = self.network.graph().num_nodes();
        let mut fresh: Vec<(&Embedding, Arc<LazyColumn>)> = Vec::new();
        for (request, slot) in batch.iter().zip(&mut resolved) {
            if slot.1 != CacheVerdict::Miss {
                continue;
            }
            let shared = fresh
                .iter()
                .find(|(owner, _)| cache::cmp_bits(owner, &request.query).is_eq());
            let column = match shared {
                Some((_, column)) => Arc::clone(column),
                None => {
                    let column = Arc::new(LazyColumn::new(num_nodes));
                    fresh.push((&request.query, Arc::clone(&column)));
                    column
                }
            };
            slot.0 = Some(column);
        }
        if !fresh.is_empty() {
            let mut cache = lock(&self.cache);
            for (query, column) in fresh {
                cache.insert(query.clone(), column);
            }
        }
        resolved
    }

    /// Executes one batch: resolve every request's column, then run every
    /// walk on the work pool with its private seeded RNG — on its query's
    /// shared column, or as [`walk::run`] on a column of its own.
    fn run_batch(
        &self,
        batch: Vec<(u64, QueryRequest)>,
    ) -> Result<Vec<QueryResponse>, EngineError> {
        let requests: Vec<&QueryRequest> = batch.iter().map(|(_, request)| request).collect();
        let resolved = self.resolve(&requests);
        let slots: Vec<(&QueryRequest, &Resolved)> =
            requests.iter().copied().zip(&resolved).collect();

        // Each request runs on its own seeded RNG, so worker assignment
        // cannot leak into results; map_batched returns outputs in
        // submission order.
        let network = &self.network;
        let outcomes: Vec<Result<WalkOutcome, SearchError>> =
            workpool::map_batched(&slots, self.config.threads(), |(request, (column, _))| {
                let mut rng = StdRng::seed_from_u64(request.seed);
                let (query, start) = (&request.query, request.start);
                match column {
                    Some(column) => walk::run_with(network, query, start, &mut rng, column),
                    None => walk::run(network, query, start, &mut rng),
                }
            });

        let executed = u64::try_from(batch.len()).unwrap_or(u64::MAX);
        let mut responses = Vec::with_capacity(batch.len());
        for (((id, _), (_, verdict)), outcome) in batch.iter().zip(&resolved).zip(outcomes) {
            responses.push(QueryResponse {
                id: *id,
                verdict: *verdict,
                outcome: outcome?,
            });
        }
        self.executed.fetch_add(executed, Ordering::Relaxed);
        Ok(responses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyKind, SchemeConfig};
    use gdsearch_embed::synthetic::SyntheticCorpus;
    use gdsearch_embed::WordId;
    use gdsearch_graph::generators;

    struct Fixture {
        graph: Graph,
        corpus: Corpus,
        placement: Placement,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(99);
        let graph = generators::social_circles_like_scaled(150, &mut rng).unwrap();
        let corpus = SyntheticCorpus::builder()
            .vocab_size(80)
            .dim(16)
            .generate(&mut rng)
            .unwrap();
        let words: Vec<WordId> = (0..10).map(WordId::new).collect();
        let placement = Placement::uniform(&graph, &words, &mut rng).unwrap();
        Fixture {
            graph,
            corpus,
            placement,
        }
    }

    fn engine_with<'g>(fx: &'g Fixture, config: EngineConfig) -> QueryEngine<'g> {
        let mut rng = StdRng::seed_from_u64(7);
        QueryEngine::build(&fx.graph, &fx.corpus, &fx.placement, config, &mut rng).unwrap()
    }

    fn request(fx: &Fixture, word: u32, start: u32, seed: u64) -> QueryRequest {
        QueryRequest::new(
            fx.corpus.embedding(WordId::new(word)).clone(),
            NodeId::new(start),
            seed,
        )
    }

    #[test]
    fn engine_matches_sequential_network_query() {
        let fx = fixture();
        let engine = engine_with(&fx, EngineConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let network = SearchNetwork::build(
            &fx.graph,
            &fx.corpus,
            &fx.placement,
            EngineConfig::default().scheme(),
            &mut rng,
        )
        .unwrap();
        for (word, start, seed) in [(0u32, 5u32, 1u64), (1, 40, 2), (0, 5, 1)] {
            let response = engine.execute(request(&fx, word, start, seed)).unwrap();
            let mut walk_rng = StdRng::seed_from_u64(seed);
            let baseline = walk::run(
                &network,
                fx.corpus.embedding(WordId::new(word)),
                NodeId::new(start),
                &mut walk_rng,
            )
            .unwrap();
            assert_eq!(response.outcome.results, baseline.results);
            assert_eq!(response.outcome.path, baseline.path);
        }
        // The repeated (0, 5, 1) request must have been a cache hit.
        assert!(engine.stats().cache.hits >= 1);
    }

    #[test]
    fn hostile_forwarding_configs_serve_without_overflow() {
        // Knobs at usize::MAX: hop 0 fans out to every neighbour, the top-k
        // keeps every document met, a queue never fills and one step
        // drains it. Nothing may reserve capacity by them.
        let fx = fixture();
        let policies = [
            PolicyKind::PprGreedy,
            PolicyKind::RandomWalk,
            PolicyKind::DegreeBiased,
            PolicyKind::Flooding,
        ];
        for policy in policies {
            let scheme = SchemeConfig::builder()
                .fanout(usize::MAX)
                .top_k(usize::MAX)
                .ttl(8)
                .policy(policy)
                .build()
                .unwrap();
            let config = EngineConfig::builder()
                .scheme(scheme)
                .queue_capacity(usize::MAX)
                .batch_size(usize::MAX)
                .build()
                .unwrap();
            let engine = engine_with(&fx, config);
            let query = fx.corpus.embedding(WordId::new(0));
            let mut rng = StdRng::seed_from_u64(3);
            let walked = walk::run(engine.network(), query, NodeId::new(5), &mut rng).unwrap();
            let executed = engine.execute(request(&fx, 0, 5, 3)).unwrap().outcome;
            assert_eq!(executed, walked, "{policy:?}");
            for seed in 0..40u32 {
                engine
                    .submit(request(&fx, seed % 10, seed * 3, u64::from(seed)))
                    .unwrap();
            }
            let stepped = engine.step().unwrap();
            assert_eq!((stepped.len(), engine.pending()), (40, 0), "{policy:?}");
        }
    }

    #[test]
    fn submit_validates_at_admission() {
        let fx = fixture();
        let engine = engine_with(&fx, EngineConfig::default());
        let bad_start = QueryRequest::new(
            fx.corpus.embedding(WordId::new(0)).clone(),
            NodeId::new(100_000),
            1,
        );
        assert!(matches!(
            engine.submit(bad_start),
            Err(EngineError::StartOutOfRange { .. })
        ));
        let bad_dim = QueryRequest::new(Embedding::zeros(3), NodeId::new(0), 1);
        assert!(matches!(
            engine.submit(bad_dim),
            Err(EngineError::DimensionMismatch {
                expected: 16,
                got: 3
            })
        ));
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    fn non_finite_queries_are_rejected_at_both_entry_points() {
        let fx = fixture();
        let engine = engine_with(&fx, EngineConfig::default());
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut query = fx.corpus.embedding(WordId::new(0)).as_slice().to_vec();
            query[5] = poison;
            let bad = QueryRequest::new(Embedding::new(query), NodeId::new(0), 1);
            assert!(matches!(
                engine.submit(bad.clone()),
                Err(EngineError::NonFiniteQuery { index: 5 })
            ));
            assert!(matches!(
                engine.execute(bad),
                Err(EngineError::NonFiniteQuery { index: 5 })
            ));
        }
        let stats = engine.stats();
        assert_eq!(engine.pending(), 0);
        assert_eq!((stats.submitted, stats.executed), (0, 0));
        assert_eq!(stats.cache.inserts, 0);
        // Zeros of either sign are finite and still admitted.
        for zero in [0.0, -0.0] {
            let query = Embedding::new(vec![zero; 16]);
            engine
                .submit(QueryRequest::new(query.clone(), NodeId::new(0), 2))
                .unwrap();
            engine
                .execute(QueryRequest::new(query, NodeId::new(0), 3))
                .unwrap();
        }
        assert_eq!(engine.pending(), 2);
    }

    #[test]
    fn queue_rejects_past_capacity() {
        let fx = fixture();
        let config = EngineConfig::builder()
            .queue_capacity(2)
            .batch_size(2)
            .build()
            .unwrap();
        let engine = engine_with(&fx, config);
        assert!(engine.submit(request(&fx, 0, 1, 1)).is_ok());
        assert!(engine.submit(request(&fx, 1, 2, 2)).is_ok());
        assert!(matches!(
            engine.submit(request(&fx, 2, 3, 3)),
            Err(EngineError::QueueFull { capacity: 2 })
        ));
        let stats = engine.stats();
        assert_eq!((stats.submitted, stats.rejected), (2, 1));
        // Draining the queue re-opens admission.
        assert_eq!(engine.step().unwrap().len(), 2);
        assert!(engine.submit(request(&fx, 2, 3, 3)).is_ok());
    }

    #[test]
    fn step_preserves_admission_order_and_batch_window() {
        let fx = fixture();
        let config = EngineConfig::builder()
            .batch_size(2)
            .threads(3)
            .build()
            .unwrap();
        let engine = engine_with(&fx, config);
        let ids: Vec<u64> = (0..5)
            .map(|i| engine.submit(request(&fx, i, 10 + i, u64::from(i))))
            .collect::<Result<_, _>>()
            .unwrap();
        let first = engine.step().unwrap();
        assert_eq!(
            first.iter().map(|r| r.id).collect::<Vec<_>>(),
            ids.get(..2).unwrap()
        );
        assert_eq!(engine.pending(), 3);
        assert_eq!(engine.step().unwrap().len(), 2);
        assert_eq!(engine.step().unwrap().len(), 1);
        assert!(engine.step().unwrap().is_empty());
        assert_eq!(engine.stats().batches, 3);
    }

    #[test]
    fn batch_deduplicates_shared_classes() {
        let fx = fixture();
        let config = EngineConfig::builder().batch_size(4).build().unwrap();
        let engine = engine_with(&fx, config);
        for (start, seed) in [(1u32, 1u64), (2, 2), (3, 3), (4, 4)] {
            engine.submit(request(&fx, 0, start, seed)).unwrap();
        }
        let responses = engine.step().unwrap();
        assert_eq!(responses.len(), 4);
        // All four share one class: one insert, every verdict Miss (the
        // column was not resident when the batch was admitted).
        let stats = engine.stats();
        assert_eq!(stats.cache.inserts, 1);
        assert!(responses.iter().all(|r| r.verdict == CacheVerdict::Miss));
        // A follow-up batch of the same class is all hits.
        engine.submit(request(&fx, 0, 5, 5)).unwrap();
        let next = engine.step().unwrap();
        assert!(next.iter().all(|r| r.verdict == CacheVerdict::Hit));

        // Equal as floats, not as bits: a component of +0.0 in one query
        // and -0.0 in the other makes two keys, so two columns.
        let mut signed = fx.corpus.embedding(WordId::new(1)).as_slice().to_vec();
        signed[0] = 0.0;
        let pos = Embedding::new(signed.clone());
        signed[0] = -0.0;
        let neg = Embedding::new(signed);
        let batch = [
            QueryRequest::new(pos, NodeId::new(6), 6),
            QueryRequest::new(neg, NodeId::new(6), 6),
        ];
        for r in &batch {
            engine.submit(r.clone()).unwrap();
        }
        let responses = engine.step().unwrap();
        assert!(responses.iter().all(|r| r.verdict == CacheVerdict::Miss));
        assert_eq!(engine.stats().cache.inserts, 3);
        for (response, r) in responses.iter().zip(&batch) {
            let mut rng = StdRng::seed_from_u64(r.seed);
            let walked = walk::run(engine.network(), &r.query, r.start, &mut rng).unwrap();
            assert_eq!(response.outcome, walked);
        }
    }

    #[test]
    fn uncached_and_disabled_requests_bypass() {
        let fx = fixture();
        let disabled = EngineConfig::builder().cache_capacity(0).build().unwrap();
        let engine = engine_with(&fx, disabled);
        let response = engine.execute(request(&fx, 0, 1, 1)).unwrap();
        assert_eq!(response.verdict, CacheVerdict::Bypass);
        assert_eq!(engine.stats().cache.inserts, 0);
    }

    #[test]
    fn invalidation_forces_recomputation_of_identical_column() {
        let fx = fixture();
        let engine = engine_with(&fx, EngineConfig::default());
        let first = engine.execute(request(&fx, 0, 1, 1)).unwrap();
        assert_eq!(first.verdict, CacheVerdict::Miss);
        assert_eq!(
            engine.execute(request(&fx, 0, 1, 1)).unwrap().verdict,
            CacheVerdict::Hit
        );
        engine.invalidate_all();
        let second = engine.execute(request(&fx, 0, 1, 1)).unwrap();
        assert_eq!(second.verdict, CacheVerdict::Miss);
        assert_eq!(second.outcome, first.outcome);
        assert_eq!(engine.stats().cache.invalidations, 1);
    }

    #[test]
    fn non_finite_embedding_rows_walk_as_inline() {
        let fx = fixture();
        let mut rng = StdRng::seed_from_u64(7);
        let mut network = SearchNetwork::build(
            &fx.graph,
            &fx.corpus,
            &fx.placement,
            EngineConfig::default().scheme(),
            &mut rng,
        )
        .unwrap();
        // Every third row non-finite: plain NaN, a NaN carrying the lazy
        // column's "unset" bits, and an infinity.
        let poison = [f32::NAN, f32::from_bits(u32::MAX), f32::INFINITY];
        for (u, value) in (0..fx.graph.num_nodes())
            .step_by(3)
            .zip(poison.iter().cycle())
        {
            network.embeddings_mut().row_mut(u).fill(*value);
        }
        let engine = QueryEngine::from_network(network, EngineConfig::default());
        // Two passes: the empty column, then the partly filled one.
        for _ in 0..2 {
            for (start, seed) in [(1u32, 1u64), (40, 2), (77, 3), (149, 4)] {
                let response = engine.execute(request(&fx, 0, start, seed)).unwrap();
                let mut walk_rng = StdRng::seed_from_u64(seed);
                let walked = walk::run(
                    engine.network(),
                    fx.corpus.embedding(WordId::new(0)),
                    NodeId::new(start),
                    &mut walk_rng,
                )
                .unwrap();
                assert_eq!(response.outcome, walked);
            }
        }
        assert!(engine.stats().cache.hits >= 7);
    }

    #[test]
    fn hub_and_isolated_starts_walk_as_walk_run() {
        // A hub with 70 leaves (a two-word adjacency mask) beside an
        // isolated node.
        let (hub, isolated) = (NodeId::new(0), NodeId::new(71));
        let graph = Graph::from_edges(72, (1..71).map(|leaf| (0, leaf))).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let corpus = SyntheticCorpus::builder()
            .vocab_size(80)
            .dim(16)
            .generate(&mut rng)
            .unwrap();
        let words: Vec<WordId> = (0..10).map(WordId::new).collect();
        let placement = Placement::uniform(&graph, &words, &mut rng).unwrap();
        let config = EngineConfig::default();
        let engine = QueryEngine::build(&graph, &corpus, &placement, config, &mut rng).unwrap();
        let disabled = EngineConfig::builder().cache_capacity(0).build().unwrap();
        let bypassing =
            QueryEngine::build(&graph, &corpus, &placement, disabled, &mut rng).unwrap();
        let network = engine.network();
        let starts = [(isolated, WordId::new(2)), (hub, WordId::new(3))];
        // Two passes: the first misses, the second hits the cached column.
        for verdict in [CacheVerdict::Miss, CacheVerdict::Hit] {
            for (start, word) in starts {
                let query = corpus.embedding(word);
                let mut rng = StdRng::seed_from_u64(9);
                let walked = walk::run(network, query, start, &mut rng).unwrap();
                if start == isolated {
                    assert_eq!((walked.hops, walked.path.len()), (0, 1));
                }
                let request = QueryRequest::new(query.clone(), start, 9);
                for (engine, want) in [(&engine, verdict), (&bypassing, CacheVerdict::Bypass)] {
                    let response = engine.execute(request.clone()).unwrap();
                    assert_eq!(response.verdict, want, "{start:?}");
                    assert_eq!(response.outcome, walked, "{start:?} {want:?}");
                }
            }
        }
        // The isolated start scores no neighbour, so its column, cached or
        // a walk's own, allocates no page; the hub's leaves share one.
        let column = |word| lock(&engine.cache).get(corpus.embedding(word)).unwrap();
        assert_eq!(column(WordId::new(2)).pages_allocated(), 0);
        assert_eq!(column(WordId::new(3)).pages_allocated(), 1);
        let own = LazyColumn::new(graph.num_nodes());
        let query = corpus.embedding(WordId::new(2));
        walk::run_with(network, query, isolated, &mut rng, &own).unwrap();
        assert_eq!(own.pages_allocated(), 0);
    }
}
