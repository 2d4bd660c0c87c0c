//! Assembly of the diffusion-search network (paper §IV).
//!
//! [`SearchNetwork::build`] performs the scheme's setup phase end to end:
//! personalization vectors from placed documents (§IV-A), PPR diffusion of
//! those vectors (§IV-B) by [`per_source::auto_diffuse`], and the per-node
//! document indexes that serve local retrieval. The result answers queries
//! through [`walk::run`] (§IV-C).

#![expect(
    clippy::expect_used,
    reason = "audited invariant expect()s: each site's message states the precondition that makes it unreachable"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "narrowing bounded by construction: node/shard/word counts are validated to fit u32 (CsrMatrix::from_sorted_rows and GraphBuilder reject larger)"
)]

use gdsearch_diffusion::{per_source, Signal};
use gdsearch_embed::{similarity, Corpus, Embedding};
use gdsearch_graph::{Graph, NodeId};
use rand::Rng;

use crate::personalization;
use crate::{DocId, Placement, SchemeConfig, SearchError};

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
    /// Builds the network: computes personalization vectors, diffuses them
    /// with [`per_source::auto_diffuse`], and indexes documents per node.
    ///
    /// `_rng` is never read: the build is deterministic. The parameter
    /// stays because `benchmark/` calls this signature.
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
        _rng: &mut R,
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
        let ppr = config.ppr_config()?;
        let embeddings = per_source::auto_diffuse(graph, dim, &rows, &ppr)?;
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
    fn build_diffuses_with_auto_and_agrees_with_the_exact_solve() {
        let g = generators::social_circles_like_scaled(60, &mut rng(4)).unwrap();
        let c = corpus(5);
        let words: Vec<WordId> = (0..6).map(WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut rng(6)).unwrap();
        let cfg = SchemeConfig::builder().tolerance(1e-6).build().unwrap();
        let net = SearchNetwork::build(&g, &c, &p, &cfg, &mut rng(7)).unwrap();

        let grouped: Vec<(NodeId, Vec<&Embedding>)> = g
            .node_ids()
            .filter(|&u| !net.docs_at(u).is_empty())
            .map(|u| {
                let docs = net.docs_at(u).iter().map(|&d| net.doc_embedding(d));
                (u, docs.collect())
            })
            .collect();
        let rows = personalization::personalization_rows(&g, c.dim(), &grouped, cfg.aggregation())
            .unwrap();
        let ppr = cfg.ppr_config().unwrap();
        // `build` is exactly `auto_diffuse` over the personalization rows …
        let auto = per_source::auto_diffuse(&g, c.dim(), &rows, &ppr).unwrap();
        assert_eq!(net.embeddings(), &auto);
        // … and that is the fixed point the direct solve finds.
        let e0 = Signal::from_sparse_rows(g.num_nodes(), c.dim(), &rows).unwrap();
        let exact = gdsearch_diffusion::exact::diffuse(&g, &e0, &ppr).unwrap();
        assert!(net.embeddings().max_abs_diff(&exact).unwrap() < 1e-3);
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
