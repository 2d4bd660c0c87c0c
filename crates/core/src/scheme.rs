//! Assembly of the diffusion-search network (paper §IV).
//!
//! [`SearchNetwork::build`] performs the scheme's setup phase end to end:
//! personalization vectors from placed documents (§IV-A), PPR diffusion of
//! those vectors (§IV-B) with the configured engine, and the per-node
//! document indexes that serve local retrieval. The result answers queries
//! through [`walk::run`] (§IV-C).

use gdsearch_diffusion::{gossip, per_source, power, push, sharded, Signal};
use gdsearch_embed::{similarity, Corpus, Embedding};
use gdsearch_graph::{Graph, NodeId};
use rand::Rng;

use crate::personalization;
use crate::{DiffusionEngine, DocId, Placement, SchemeConfig, SearchError};

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
        let dim = corpus.dim();
        let n = graph.num_nodes();
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
        // Diffuse with the configured engine.
        let ppr = config.ppr_config()?;
        let embeddings = match config.engine() {
            DiffusionEngine::Auto => per_source::auto_diffuse(graph, dim, &rows, &ppr)?,
            DiffusionEngine::PerSource => per_source::diffuse_sparse(graph, dim, &rows, &ppr)?,
            DiffusionEngine::Dense { threads } => {
                let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
                power::diffuse_threaded(graph, &e0, &ppr, threads)?.into_converged()?
            }
            DiffusionEngine::Push { rmax, threads } => {
                let push_cfg = push::PushConfig::new(ppr)
                    .with_rmax(rmax)?
                    .with_threads(threads)?;
                push::diffuse_sparse(graph, dim, &rows, &push_cfg)?
            }
            DiffusionEngine::Sharded { shards, threads } => {
                let scfg = sharded::ShardedConfig::new(ppr)
                    .with_shards(shards)?
                    .with_threads(threads)?;
                // Column-wise push for genuinely sparse personalizations,
                // partitioned power sweep otherwise.
                if per_source::is_sparse(rows.len(), dim) {
                    sharded::diffuse_sparse(graph, dim, &rows, &scfg)?
                } else {
                    let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
                    sharded::diffuse(graph, &e0, &scfg)?.into_converged()?
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
                // As the sharded engine, with halo columns / residual mass
                // moving over simulated links.
                if per_source::is_sparse(rows.len(), dim) {
                    gdsearch_dist::diffuse_sparse(graph, dim, &rows, &dcfg)?.0
                } else {
                    let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
                    let (out, _stats) = gdsearch_dist::diffuse(graph, &e0, &dcfg)?;
                    out.into_converged()?
                }
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
                out.signal
            }
        };
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
    use crate::{walk, PolicyKind};
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
                let out = walk::run(
                    &net,
                    c.embedding(pair.query),
                    start,
                    &mut rng(40 + i as u64),
                )
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
