//! Assembly of the diffusion-search network (paper §IV).
//!
//! [`SearchNetwork::build`] performs the scheme's setup phase end to end:
//! personalization vectors from placed documents (§IV-A), PPR diffusion of
//! those vectors (§IV-B) with the configured engine, and the per-node
//! document indexes that serve local retrieval. The result answers queries
//! through [`SearchNetwork::query`] (§IV-C).

use gdsearch_diffusion::{gossip, per_source, power, push, sharded, Signal};
use gdsearch_embed::{similarity, Corpus, Embedding};
use gdsearch_graph::{Graph, NodeId};
use gdsearch_obs::Observer;
use rand::Rng;

use crate::personalization;
use crate::walk::{self, WalkOutcome};
use crate::{DiffusionEngine, DocId, Placement, SchemeConfig, SearchError};

/// Unwraps an iterative diffusion outcome, turning budget exhaustion into
/// [`SearchError::Diffusion`].
fn require_converged(out: power::DiffusionResult) -> Result<Signal, SearchError> {
    if !out.converged {
        return Err(SearchError::Diffusion(
            gdsearch_diffusion::DiffusionError::NotConverged {
                iterations: out.iterations,
                residual: out.residual,
            },
        ));
    }
    Ok(out.signal)
}

/// Copies the distributed exchange's plain-data transport ledger into the
/// observer's sink (the `dist` crate itself stays free of obs types; its
/// own [`gdsearch_dist::ExchangeStats`] ledger is authoritative and
/// cross-checked per epoch inside the exchange).
fn record_exchange_stats(obs: &mut Observer<'_>, stats: &gdsearch_dist::ExchangeStats) {
    let sink = obs.sink();
    sink.add("dist.exchange.epochs", stats.epochs);
    sink.add("dist.exchange.frames", stats.frames);
    sink.add("dist.exchange.frame_bytes", stats.frame_bytes);
    sink.add(
        "dist.exchange.retransmitted_frames",
        stats.retransmitted_frames,
    );
    sink.add("dist.exchange.retransmit_rounds", stats.retransmit_rounds);
    sink.add("dist.exchange.ticks", stats.ticks);
    // Replay the epoch barriers into the flight recorder on the virtual
    // timebase (no-ops without an attached trace log).
    for &tick in &stats.epoch_ticks {
        obs.trace_tick("dist.exchange.epoch", None, tick);
    }
}

/// A fully prepared diffusion-search network: graph + placed documents +
/// diffused node embeddings.
///
/// Borrows the graph (experiments reuse one graph across hundreds of
/// placements); owns everything placement-specific.
#[derive(Debug, Clone)]
pub struct SearchNetwork<'g> {
    graph: &'g Graph,
    config: SchemeConfig,
    dim: usize,
    /// Diffused node embeddings `E` (Eq. 6), one row per node.
    embeddings: Signal,
    /// Embedding of each placed document (by `DocId`).
    doc_embeddings: Vec<Embedding>,
    /// Host of each placed document.
    doc_hosts: Vec<NodeId>,
    /// Documents hosted at each node.
    docs_at: Vec<Vec<DocId>>,
}

impl<'g> SearchNetwork<'g> {
    /// Builds the network: computes personalization vectors, runs the
    /// configured diffusion engine, and indexes documents per node.
    ///
    /// `rng` drives the gossip engine's asynchrony; the deterministic
    /// engines ignore it.
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidParameter`] for placements referencing
    /// words outside `corpus`, plus any substrate failure (shape mismatch,
    /// non-convergence).
    pub fn build<R: Rng + ?Sized>(
        graph: &'g Graph,
        corpus: &Corpus,
        placement: &Placement,
        config: &SchemeConfig,
        rng: &mut R,
    ) -> Result<Self, SearchError> {
        Self::build_observed(
            graph,
            corpus,
            placement,
            config,
            rng,
            &mut Observer::disabled(),
        )
    }

    /// [`SearchNetwork::build`] with end-to-end observability: the setup
    /// phases (personalization → diffusion) open wall-clock spans on the
    /// observer's profiler (when one is attached), and the deterministic
    /// engines record work units — sweeps, pushes, halo bytes, residual
    /// curves — through the observer's write-only sink. Instrumentation
    /// never perturbs the result: the network is bit-identical to the
    /// unobserved build.
    ///
    /// Metrics (scheme level): `scheme.build.docs` / `.hosting_nodes`
    /// (counters), plus everything the engines record (`diffusion.*`,
    /// `graph.sharded.*`) and, for the distributed engine, the transport
    /// ledger (`dist.exchange.*`).
    ///
    /// # Errors
    ///
    /// As [`SearchNetwork::build`].
    pub fn build_observed<R: Rng + ?Sized>(
        graph: &'g Graph,
        corpus: &Corpus,
        placement: &Placement,
        config: &SchemeConfig,
        rng: &mut R,
        obs: &mut Observer<'_>,
    ) -> Result<Self, SearchError> {
        let dim = corpus.dim();
        let n = graph.num_nodes();
        let personalization_span = obs.enter("scheme.personalization");
        obs.trace_begin("scheme.personalization");
        // Index documents per node and collect their embeddings.
        let mut docs_at: Vec<Vec<DocId>> = vec![Vec::new(); n];
        let mut doc_embeddings = Vec::with_capacity(placement.len());
        let mut doc_hosts = Vec::with_capacity(placement.len());
        for (doc, word, host) in placement.iter() {
            let emb = corpus.get(word).ok_or_else(|| {
                SearchError::invalid_parameter(format!("placed word {word} not in corpus"))
            })?;
            graph.check_node(host)?;
            docs_at[host.index()].push(doc);
            doc_embeddings.push(emb.clone());
            doc_hosts.push(host);
        }
        // Personalization rows for hosting nodes only (sparse E0).
        let grouped: Vec<(NodeId, Vec<&Embedding>)> = docs_at
            .iter()
            .enumerate()
            .filter(|(_, docs)| !docs.is_empty())
            .map(|(u, docs)| {
                (
                    NodeId::new(u as u32),
                    docs.iter().map(|&d| &doc_embeddings[d]).collect(),
                )
            })
            .collect();
        let rows =
            personalization::personalization_rows(graph, dim, &grouped, config.aggregation())?;
        obs.trace_end("scheme.personalization");
        obs.exit(personalization_span);
        obs.sink().add("scheme.build.docs", placement.len() as u64);
        obs.sink()
            .add("scheme.build.hosting_nodes", grouped.len() as u64);
        // Diffuse with the configured engine, routing work-unit recording
        // into the observer's sink where the engine supports it.
        let ppr = config.ppr_config()?;
        let diffusion_span = obs.enter("scheme.diffusion");
        obs.trace_begin("scheme.diffusion");
        let embeddings = match config.engine() {
            DiffusionEngine::Auto => per_source::auto_diffuse(graph, dim, &rows, &ppr)?,
            DiffusionEngine::PerSource => per_source::diffuse_sparse(graph, dim, &rows, &ppr)?,
            DiffusionEngine::Dense { threads } => {
                let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
                require_converged(power::diffuse_threaded_observed(
                    graph,
                    &e0,
                    &ppr,
                    threads,
                    obs.sink(),
                )?)?
            }
            DiffusionEngine::Push { rmax, threads } => {
                let push_cfg = push::PushConfig::new(ppr)
                    .with_rmax(rmax)?
                    .with_threads(threads)?;
                push::diffuse_sparse_observed(graph, dim, &rows, &push_cfg, obs.sink())?
            }
            DiffusionEngine::Sharded { shards, threads } => {
                let scfg = sharded::ShardedConfig::new(ppr)
                    .with_shards(shards)?
                    .with_threads(threads)?;
                // Same sparse/dense crossover as Auto: column-wise push for
                // genuinely sparse personalizations, partitioned power
                // sweep otherwise.
                if rows.len() < dim / 4 {
                    sharded::diffuse_sparse_observed(graph, dim, &rows, &scfg, obs.sink())?
                } else {
                    let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
                    require_converged(sharded::diffuse_observed(graph, &e0, &scfg, obs.sink())?)?
                }
            }
            DiffusionEngine::Distributed {
                shards,
                threads,
                transport,
            } => {
                let scfg = sharded::ShardedConfig::new(ppr)
                    .with_shards(shards)?
                    .with_threads(threads)?;
                let dcfg = gdsearch_dist::DistConfig::new(scfg)
                    .with_transport(transport.to_transport_config()?);
                // Same sparse/dense crossover as the sharded engine; halo
                // columns / residual mass move over simulated links. The
                // dist crate stays free of obs types (its own plain-data
                // ledger is authoritative); the driver copies the ledger
                // into the sink after the fact.
                let (signal, stats) = if rows.len() < dim / 4 {
                    gdsearch_dist::diffuse_sparse(graph, dim, &rows, &dcfg)?
                } else {
                    let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
                    let (out, stats) = gdsearch_dist::diffuse(graph, &e0, &dcfg)?;
                    (require_converged(out)?, stats)
                };
                record_exchange_stats(obs, &stats);
                signal
            }
            DiffusionEngine::Gossip => {
                let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
                let out = gossip::diffuse(graph, &e0, &gossip::GossipConfig::new(ppr), rng)?;
                if !out.converged {
                    return Err(SearchError::Diffusion(
                        gdsearch_diffusion::DiffusionError::NotConverged {
                            iterations: out.updates,
                            residual: f32::NAN,
                        },
                    ));
                }
                obs.sink()
                    .add("diffusion.gossip.updates", out.updates as u64);
                out.signal
            }
        };
        obs.trace_end("scheme.diffusion");
        obs.exit(diffusion_span);
        Ok(SearchNetwork {
            graph,
            config: config.clone(),
            dim,
            embeddings,
            doc_embeddings,
            doc_hosts,
            docs_at,
        })
    }

    /// Executes a query from `start`, following the paper's forwarding
    /// protocol. See [`walk::run`].
    ///
    /// # Migration
    ///
    /// This is the low-level single-query entry point, kept as a thin shim
    /// over [`walk::run`]. New callers should prefer
    /// [`QueryEngine`](crate::engine::QueryEngine) — submit through
    /// [`QueryEngine::submit`](crate::engine::QueryEngine::submit) /
    /// [`QueryEngine::execute`](crate::engine::QueryEngine::execute) to get
    /// admission control, batched dispatch and hot-column caching with
    /// bitwise-identical results.
    ///
    /// # Errors
    ///
    /// As [`walk::run`].
    pub fn query<R: Rng + ?Sized>(
        &self,
        query: &Embedding,
        start: NodeId,
        rng: &mut R,
    ) -> Result<WalkOutcome, SearchError> {
        walk::run(self, query, start, rng)
    }

    /// [`SearchNetwork::query`] with observability: the walk runs under a
    /// wall-clock span (when a profiler is attached) and its cost lands in
    /// the sink — `scheme.walk.queries` / `.hops` (counters),
    /// `scheme.walk.unique_nodes` / `.results` (histograms, one sample per
    /// query). The outcome is identical to the unobserved query.
    ///
    /// # Errors
    ///
    /// As [`SearchNetwork::query`].
    pub fn query_observed<R: Rng + ?Sized>(
        &self,
        query: &Embedding,
        start: NodeId,
        rng: &mut R,
        obs: &mut Observer<'_>,
    ) -> Result<WalkOutcome, SearchError> {
        let walk_span = obs.enter("scheme.walk");
        obs.trace_begin("scheme.walk");
        let out = walk::run(self, query, start, rng);
        obs.trace_end("scheme.walk");
        obs.exit(walk_span);
        if let Ok(out) = &out {
            let sink = obs.sink();
            sink.add("scheme.walk.queries", 1);
            sink.add("scheme.walk.hops", u64::from(out.hops));
            sink.record("scheme.walk.unique_nodes", out.unique_nodes as u64);
            sink.record("scheme.walk.results", out.results.len() as u64);
        }
        out
    }

    /// Test hook: overwrite diffused rows (non-finite embeddings cannot be
    /// produced through `build`, which rejects a diverged diffusion).
    #[cfg(test)]
    pub(crate) fn embeddings_mut(&mut self) -> &mut Signal {
        &mut self.embeddings
    }

    /// The overlay graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The diffused node embeddings `E`.
    pub fn embeddings(&self) -> &Signal {
        &self.embeddings
    }

    /// The diffused embedding of one node, as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn node_embedding(&self, node: NodeId) -> Embedding {
        self.embeddings.row_embedding(node.index())
    }

    /// Number of placed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_embeddings.len()
    }

    /// The documents hosted at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn docs_at(&self, node: NodeId) -> &[DocId] {
        &self.docs_at[node.index()]
    }

    /// The hosting node of a document.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn doc_host(&self, doc: DocId) -> NodeId {
        self.doc_hosts[doc]
    }

    /// The embedding of a placed document.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn doc_embedding(&self, doc: DocId) -> &Embedding {
        &self.doc_embeddings[doc]
    }

    /// Relevance score of `doc` for `query` (dot product, §III-A).
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range or dimensions disagree (callers
    /// validate the query once per walk).
    pub fn doc_score(&self, query: &Embedding, doc: DocId) -> f32 {
        similarity::dot(query, &self.doc_embeddings[doc])
            .expect("query dimension is validated by walk::run")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use gdsearch_embed::querygen::{self, QueryGenConfig};
    use gdsearch_embed::synthetic::SyntheticCorpus;
    use gdsearch_embed::WordId;
    use gdsearch_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn corpus(seed: u64) -> Corpus {
        SyntheticCorpus::builder()
            .vocab_size(200)
            .dim(24)
            .num_topics(8)
            .topic_noise(0.4)
            .background_fraction(0.2)
            .generate(&mut rng(seed))
            .unwrap()
    }

    #[test]
    fn build_indexes_documents_per_node() {
        let g = generators::ring(8).unwrap();
        let c = corpus(1);
        let words: Vec<WordId> = (0..10).map(WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut rng(2)).unwrap();
        let net = SearchNetwork::build(&g, &c, &p, &SchemeConfig::default(), &mut rng(3)).unwrap();
        assert_eq!(net.num_docs(), 10);
        let total: usize = g.node_ids().map(|u| net.docs_at(u).len()).sum();
        assert_eq!(total, 10);
        for doc in 0..10 {
            assert!(net.docs_at(net.doc_host(doc)).contains(&doc));
        }
    }

    #[test]
    fn engines_agree_on_embeddings() {
        let g = generators::social_circles_like_scaled(60, &mut rng(4)).unwrap();
        let c = corpus(5);
        let words: Vec<WordId> = (0..6).map(WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut rng(6)).unwrap();
        let build = |engine: DiffusionEngine, seed: u64| {
            let cfg = SchemeConfig::builder()
                .engine(engine)
                .tolerance(1e-6)
                .build()
                .unwrap();
            SearchNetwork::build(&g, &c, &p, &cfg, &mut rng(seed)).unwrap()
        };
        let dense = build(DiffusionEngine::dense(1), 7);
        let per_source = build(DiffusionEngine::PerSource, 8);
        let auto = build(DiffusionEngine::Auto, 9);
        let gossip = build(DiffusionEngine::Gossip, 10);
        let push = build(DiffusionEngine::push(2), 11);
        let sharded = build(DiffusionEngine::sharded(3, 2), 12);
        assert!(
            dense
                .embeddings()
                .max_abs_diff(per_source.embeddings())
                .unwrap()
                < 1e-3
        );
        assert!(dense.embeddings().max_abs_diff(auto.embeddings()).unwrap() < 1e-3);
        assert!(
            dense.embeddings().max_abs_diff(push.embeddings()).unwrap() < 1e-3,
            "push engine diverged"
        );
        assert!(
            dense
                .embeddings()
                .max_abs_diff(sharded.embeddings())
                .unwrap()
                < 1e-3,
            "sharded engine diverged"
        );
        // The dense sweep is bitwise thread-count independent end to end.
        let dense4 = build(DiffusionEngine::dense(4), 13);
        assert_eq!(dense.embeddings(), dense4.embeddings());
        // The distributed engine reproduces the in-process sharded result
        // bit for bit, whatever the interconnect bandwidth.
        let distributed = build(DiffusionEngine::distributed(3, 2), 14);
        assert_eq!(sharded.embeddings(), distributed.embeddings());
        let narrow = build(
            DiffusionEngine::Distributed {
                shards: 3,
                threads: 2,
                transport: crate::TransportProfile::default().with_bandwidth(2048),
            },
            15,
        );
        assert_eq!(sharded.embeddings(), narrow.embeddings());
        assert!(
            dense
                .embeddings()
                .max_abs_diff(gossip.embeddings())
                .unwrap()
                < 1e-2,
            "gossip engine diverged"
        );
    }

    #[test]
    fn observed_build_and_query_match_unobserved() {
        use gdsearch_obs::{MetricValue, MetricsRegistry, Observer, Profiler};
        let g = generators::grid(5, 5);
        let c = corpus(21);
        let words: Vec<WordId> = (0..4).map(WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut rng(22)).unwrap();
        let cfg = SchemeConfig::builder()
            .engine(DiffusionEngine::sharded(3, 2))
            .build()
            .unwrap();
        let reference = SearchNetwork::build(&g, &c, &p, &cfg, &mut rng(23)).unwrap();
        let mut registry = MetricsRegistry::new();
        let mut profiler = Profiler::new();
        let mut obs = Observer::new(Some(&mut registry), Some(&mut profiler));
        let net = SearchNetwork::build_observed(&g, &c, &p, &cfg, &mut rng(23), &mut obs).unwrap();
        assert_eq!(
            net.embeddings(),
            reference.embeddings(),
            "instrumentation must not perturb the build"
        );
        let q = c.embedding(WordId::new(0));
        let ref_out = reference.query(q, NodeId::new(3), &mut rng(24)).unwrap();
        let out = net
            .query_observed(q, NodeId::new(3), &mut rng(24), &mut obs)
            .unwrap();
        assert_eq!(out.path, ref_out.path);
        assert_eq!(out.hops, ref_out.hops);
        // Work units landed in the registry...
        match registry.get("scheme.build.docs") {
            Some(MetricValue::Counter(docs)) => assert_eq!(*docs, 4),
            other => panic!("docs: expected counter, got {other:?}"),
        }
        assert!(
            registry.get("diffusion.sharded.sweeps").is_some()
                || registry.get("diffusion.sharded.pushes").is_some(),
            "the sharded engine must have recorded work"
        );
        match registry.get("scheme.walk.hops") {
            Some(MetricValue::Counter(h)) => assert_eq!(*h, u64::from(out.hops)),
            other => panic!("hops: expected counter, got {other:?}"),
        }
        // ...and the wall-clock phases landed on the profiler.
        let tree = profiler.tree();
        let names: Vec<&str> = tree.roots.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            ["scheme.personalization", "scheme.diffusion", "scheme.walk"]
        );
    }

    #[test]
    fn diffused_signal_peaks_at_host() {
        let g = generators::grid(5, 5);
        let c = corpus(11);
        let words = vec![WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut rng(12)).unwrap();
        let net = SearchNetwork::build(&g, &c, &p, &SchemeConfig::default(), &mut rng(13)).unwrap();
        // The host's diffused embedding must score the document's own query
        // highest among all nodes.
        let q = c.embedding(WordId::new(0));
        let scores: Vec<f32> = g
            .node_ids()
            .map(|u| similarity::dot(q, &net.node_embedding(u)).unwrap())
            .collect();
        let best = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(NodeId::new(best as u32), p.host(0));
    }

    #[test]
    fn end_to_end_gold_retrieval_beats_blind_walk() {
        // The headline claim, in miniature: PPR-guided walks find nearby
        // gold documents more often than blind random walks.
        let mut r = rng(14);
        let g = generators::social_circles_like_scaled(150, &mut r).unwrap();
        let c = corpus(15);
        let queries = querygen::generate(
            &c,
            QueryGenConfig {
                num_queries: 12,
                min_cosine: 0.6,
            },
            &mut r,
        )
        .unwrap();
        assert!(queries.len() >= 6, "need enough query pairs");
        let ttl = 15u32;
        let mut guided_hits = 0;
        let mut blind_hits = 0;
        for (i, pair) in queries.pairs().iter().enumerate() {
            let mut words = vec![pair.gold];
            words.extend(queries.irrelevant().iter().copied().take(9));
            let p = Placement::uniform(&g, &words, &mut rng(20 + i as u64)).unwrap();
            let start = NodeId::new((i as u32 * 13) % 150);
            for (policy, hits) in [
                (PolicyKind::PprGreedy, &mut guided_hits),
                (PolicyKind::RandomWalk, &mut blind_hits),
            ] {
                let cfg = SchemeConfig::builder()
                    .policy(policy)
                    .ttl(ttl)
                    .build()
                    .unwrap();
                let net = SearchNetwork::build(&g, &c, &p, &cfg, &mut rng(30 + i as u64)).unwrap();
                let out = net
                    .query(c.embedding(pair.query), start, &mut rng(40 + i as u64))
                    .unwrap();
                if out.contains(0) {
                    *hits += 1;
                }
            }
        }
        assert!(
            guided_hits >= blind_hits,
            "guided {guided_hits} vs blind {blind_hits}"
        );
        assert!(guided_hits > 0, "guided search must find something");
    }

    #[test]
    fn build_rejects_foreign_words() {
        let g = generators::ring(5).unwrap();
        let c = corpus(16);
        // Craft a placement over a larger corpus, then build with a smaller one.
        let big = corpus(17);
        let words = vec![WordId::new((big.len() - 1) as u32)];
        let p = Placement::uniform(&g, &words, &mut rng(18)).unwrap();
        let small = Corpus::from_embeddings(c.embeddings()[..50].to_vec()).unwrap();
        assert!(
            SearchNetwork::build(&g, &small, &p, &SchemeConfig::default(), &mut rng(19)).is_err()
        );
    }
}
