//! Assembly of the diffusion-search network (paper §IV).
//!
//! [`SearchNetwork::build`] performs the scheme's setup phase end to end:
//! personalization vectors from placed documents (§IV-A), PPR diffusion of
//! those vectors (§IV-B) by [`per_source::auto_diffuse_rows`], and the
//! per-node document index that serves local retrieval. The result answers
//! queries through [`walk::run`] (§IV-C).
//!
//! A build costs what its engine computed: a push-built network keeps
//! push's rows over their support and never holds an `N × dim` signal
//! unless [`SearchNetwork::embeddings`] asks for one.

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
    reason = "document counts and offsets are at most placement.len(), which build checks fits u32"
)]

use std::sync::OnceLock;

use gdsearch_diffusion::{per_source, Diffused, Signal};
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
    /// Diffused node embeddings `E` (Eq. 6) as the engine
    /// [`per_source::auto_diffuse_rows`] picked left them: the sweep's dense
    /// signal, or push's rows over their support (`O(support · dim)`
    /// floats). Walks and column fills read rows through [`Diffused::row`].
    embeddings: Diffused,
    /// `embeddings` as one dense `N × dim` signal, materialized by the
    /// first [`Self::embeddings`] call on a push-built network. Serving
    /// never fills it, and a sweep-built network lends its own signal.
    dense: OnceLock<Signal>,
    /// Embedding of each placed document (by `DocId`).
    doc_embeddings: Vec<Embedding>,
    /// The document index in CSR form: node `u` hosts
    /// `hosted[doc_offsets[u]..doc_offsets[u + 1]]` (N + 1 offsets).
    doc_offsets: Vec<u32>,
    /// Every placed document, sorted by host, each host's in `DocId` order.
    hosted: Vec<DocId>,
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
        if u32::try_from(placement.len()).is_err() {
            return Err(SearchError::invalid_parameter(format!(
                "{} placed documents exceed the u32 document index",
                placement.len()
            )));
        }
        // Collect the documents' embeddings and (host, doc) pairs.
        let mut doc_embeddings = Vec::with_capacity(placement.len());
        let mut by_host: Vec<(NodeId, DocId)> = Vec::with_capacity(placement.len());
        for (_, word, host) in placement.iter() {
            let emb = corpus.get(word).ok_or_else(|| {
                SearchError::invalid_parameter(format!("placed word {word} not in corpus"))
            })?;
            graph.check_node(host)?;
            by_host.push((host, doc_embeddings.len()));
            doc_embeddings.push(emb.clone());
        }
        // Index them by host: sort the pairs; node u's run starts after the
        // documents of every host below u. Counts are at most
        // placement.len() ≤ u32::MAX, checked above.
        by_host.sort_unstable();
        let mut doc_offsets = Vec::with_capacity(n + 1);
        for (before, (host, _)) in by_host.iter().enumerate() {
            doc_offsets.resize(host.index() + 1, before as u32);
        }
        doc_offsets.resize(n + 1, by_host.len() as u32);
        // Personalization rows for hosting nodes only (sparse E0).
        let grouped: Vec<(NodeId, Vec<&Embedding>)> = by_host
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                (
                    run[0].0,
                    run.iter().map(|&(_, d)| &doc_embeddings[d]).collect(),
                )
            })
            .collect();
        let rows =
            personalization::personalization_rows(graph, dim, &grouped, config.aggregation())?;
        let ppr = config.ppr_config()?;
        let embeddings = per_source::auto_diffuse_rows(graph, dim, &rows, &ppr)?;
        Ok(SearchNetwork {
            graph,
            config: config.clone(),
            dim,
            embeddings,
            dense: OnceLock::new(),
            doc_embeddings,
            doc_offsets,
            hosted: by_host.into_iter().map(|(_, doc)| doc).collect(),
        })
    }

    /// Test hook: overwrite diffused rows (non-finite embeddings cannot be
    /// produced through `build`, which rejects a diverged diffusion). Makes
    /// the network dense first.
    #[cfg(test)]
    pub(crate) fn embeddings_mut(&mut self) -> &mut Signal {
        if let Diffused::Sparse(rows) = &self.embeddings {
            self.embeddings = Diffused::Dense(rows.to_signal());
        }
        self.dense = OnceLock::new();
        match &mut self.embeddings {
            Diffused::Dense(signal) => signal,
            Diffused::Sparse(_) => unreachable!("made dense above"),
        }
    }

    /// Test probe: whether [`Self::embeddings`] has materialized a dense
    /// copy of push's rows.
    #[cfg(test)]
    pub(crate) fn dense_view_materialized(&self) -> bool {
        self.dense.get().is_some()
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

    /// The diffused node embeddings `E` as the diffusion engine left them:
    /// what walks and score columns read, row by row.
    pub fn diffused(&self) -> &Diffused {
        &self.embeddings
    }

    /// The diffused node embeddings `E` as one dense `N × dim` signal. A
    /// sweep-built network lends its own; a push-built one scatters its
    /// rows into `N · dim` floats on the first call and keeps them.
    pub fn embeddings(&self) -> &Signal {
        match &self.embeddings {
            Diffused::Dense(signal) => signal,
            Diffused::Sparse(rows) => self.dense.get_or_init(|| rows.to_signal()),
        }
    }

    /// The documents hosted at `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn docs_at(&self, node: NodeId) -> &[DocId] {
        let u = node.index();
        &self.hosted[self.doc_offsets[u] as usize..self.doc_offsets[u + 1] as usize]
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
        let total: usize = g.node_ids().map(|u| net.docs_at(u).len()).sum();
        assert_eq!(total, 10);
        for doc in 0..10 {
            assert!(net.docs_at(p.host(doc)).contains(&doc));
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
            .map(|u| similarity::dot(q, &net.embeddings().row_embedding(u.index())).unwrap())
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

    /// `corpus(seed)` with a NaN at word 3, component 5: ROADMAP
    /// measurement 1's poisoned document.
    fn poisoned(seed: u64) -> Result<Corpus, gdsearch_embed::EmbedError> {
        let mut embeddings = corpus(seed).embeddings().to_vec();
        let mut row = embeddings[3].as_slice().to_vec();
        row[5] = f32::NAN;
        embeddings[3] = Embedding::new(row);
        Corpus::from_embeddings(embeddings)
    }

    fn assert_rejects_the_poisoned_cell(corpus: Result<Corpus, gdsearch_embed::EmbedError>) {
        match corpus {
            Err(gdsearch_embed::EmbedError::InvalidParameter { reason }) => {
                assert!(reason.contains("word w3 component 5 is NaN"), "{reason}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn a_nan_document_fails_the_dense_build() {
        // Measurement 1, dense half: this document on a 300-node graph
        // (the sweep) used to build `Ok` with every row NaN. No build gets
        // that far now: the corpus rejects it, naming the cell.
        assert_rejects_the_poisoned_cell(poisoned(21));
    }

    /// Floats as bit patterns.
    fn row_bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|x| x.to_bits()).collect()
    }

    /// A 70×70 grid (4,900 nodes ≥ `AUTO_PUSH_MIN_NODES`), with node 0's
    /// edges removed when `isolate_0`.
    fn grid_graph(isolate_0: bool) -> Graph {
        let grid = generators::grid(70, 70);
        let kept = grid
            .edges()
            .filter(|&(u, v)| !isolate_0 || (u.index() != 0 && v.index() != 0));
        Graph::from_edges(4900, kept.map(|(u, v)| (u.as_u32(), v.as_u32()))).unwrap()
    }

    #[test]
    fn a_nan_document_fails_the_push_build() {
        // Measurement 1, push half: this document among four on 4,900
        // nodes (push) used to spread the NaN over every row its column
        // reached. The same door stops it before the build.
        assert_rejects_the_poisoned_cell(poisoned(24));
    }

    #[test]
    fn forwarding_over_push_rows_matches_the_dense_view_and_never_densifies() {
        use crate::engine::{EngineConfig, QueryEngine, QueryRequest};

        let g = grid_graph(false);
        let c = corpus(31);
        let words = vec![WordId::new(3)];
        let p = Placement::at(words, vec![NodeId::new(2450)]);
        let cfg = SchemeConfig::builder().fanout(2).build().unwrap();
        let net = SearchNetwork::build(&g, &c, &p, &cfg, &mut rng(0)).unwrap();
        assert!(
            matches!(net.diffused(), Diffused::Sparse(_)),
            "one host on 4,900 nodes pushes"
        );
        // The same rows, dense: what every read of the parent returned.
        let mut dense = net.clone();
        dense.embeddings_mut();
        assert!(matches!(dense.diffused(), Diffused::Dense(_)));

        let query = c.embedding(WordId::new(3));
        let starts = [2450u32, 2452, 2310, 2591, 0, 4899];
        for (i, &start) in starts.iter().enumerate() {
            let walk = |network: &SearchNetwork<'_>| {
                walk::run(network, query, NodeId::new(start), &mut rng(50 + i as u64)).unwrap()
            };
            assert_eq!(walk(&net), walk(&dense), "walk from {start}");
        }
        let engine_config = EngineConfig::builder().batch_size(4).build().unwrap();
        let engines = [net.clone(), dense]
            .map(|network| QueryEngine::from_network(network, engine_config.clone()));
        let requests: Vec<QueryRequest> = starts
            .iter()
            .zip(0u64..)
            .map(|(&start, seed)| QueryRequest::new(query.clone(), NodeId::new(start), seed))
            .collect();
        let served = engines.each_ref().map(|engine| {
            let executed: Vec<_> = requests
                .iter()
                .map(|r| engine.execute(r.clone()).unwrap().outcome)
                .collect();
            for r in &requests {
                engine.submit(r.clone()).unwrap();
            }
            let mut stepped = Vec::new();
            while engine.pending() > 0 {
                stepped.extend(engine.step().unwrap().into_iter().map(|r| r.outcome));
            }
            (executed, stepped)
        });
        assert_eq!(served[0], served[1]);
        assert!(served[0].0.iter().any(|outcome| outcome.contains(0)));
        // Walking, executing and stepping read rows; none asked for N × dim.
        assert!(!net.dense_view_materialized());
        assert!(!engines[0].network().dense_view_materialized());
        // The dense view, once asked for, is those rows.
        assert_eq!(net.embeddings(), engines[1].network().embeddings());
        assert!(net.dense_view_materialized());
        for u in g.node_ids() {
            assert_eq!(
                net.diffused().row(u.index()),
                engines[1].network().diffused().row(u.index())
            );
        }
    }

    /// The parent's dense accumulation, as a reference model: one
    /// single-source push column per host (ascending), rank-1-added into an
    /// `N × dim` zero signal, ascending node within a column.
    fn dense_push_accumulation(
        g: &Graph,
        dim: usize,
        rows: &[(NodeId, Embedding)],
        cfg: &SchemeConfig,
    ) -> Signal {
        use gdsearch_diffusion::push::{self, PushConfig};

        let mut out = Signal::zeros(g.num_nodes(), dim);
        if dim == 0 {
            return out;
        }
        let push_cfg = PushConfig::new(cfg.ppr_config().unwrap());
        for (host, emb) in rows {
            let column = push::ppr_vector(g, *host, &push_cfg).unwrap();
            for (u, &weight) in column.iter().enumerate().filter(|(_, &w)| w != 0.0) {
                for (r, e) in out.row_mut(u).iter_mut().zip(emb.as_slice()) {
                    *r += weight * e;
                }
            }
        }
        out
    }

    #[test]
    fn forwarding_rows_on_hostile_push_inputs_are_the_dense_accumulation() {
        let c = corpus(32);
        let mut with_zero = c.embeddings().to_vec();
        with_zero[0] = Embedding::zeros(c.dim());
        let with_zero = Corpus::from_embeddings(with_zero).unwrap();
        let flat = Corpus::from_embeddings(vec![Embedding::new(Vec::new()); 4]).unwrap();
        let words = |ids: &[u32]| ids.iter().map(|&w| WordId::new(w)).collect::<Vec<_>>();
        let hosts = |ids: &[u32]| ids.iter().map(|&u| NodeId::new(u)).collect::<Vec<_>>();
        let cases = [
            (
                "host on an isolated node",
                &c,
                words(&[1, 2]),
                hosts(&[0, 2000]),
                true,
            ),
            (
                "two documents on one host",
                &c,
                words(&[1, 2, 3]),
                hosts(&[1234, 1234, 3000]),
                false,
            ),
            (
                "an all-zero document",
                &with_zero,
                words(&[0, 4]),
                hosts(&[17, 4000]),
                false,
            ),
            (
                "an all-zero document alone",
                &with_zero,
                words(&[0]),
                hosts(&[17]),
                false,
            ),
            ("dim 0", &flat, words(&[0, 1]), hosts(&[5, 6]), false),
        ];
        let cfg = SchemeConfig::default();
        for (name, corpus, words, hosts, isolate_0) in cases {
            let g = grid_graph(isolate_0);
            let p = Placement::at(words, hosts);
            let net = SearchNetwork::build(&g, corpus, &p, &cfg, &mut rng(0)).unwrap();
            let dim = corpus.dim();
            assert_eq!(
                matches!(net.diffused(), Diffused::Sparse(_)),
                dim > 0,
                "{name}: push iff the width allows it"
            );
            let grouped: Vec<(NodeId, Vec<&Embedding>)> = p
                .docs_by_host()
                .into_iter()
                .map(|(host, docs)| (host, docs.iter().map(|&d| net.doc_embedding(d)).collect()))
                .collect();
            let rows = personalization::personalization_rows(&g, dim, &grouped, cfg.aggregation())
                .unwrap();
            let want = dense_push_accumulation(&g, dim, &rows, &cfg);
            let by_host = p.docs_by_host();
            for u in g.node_ids() {
                let (got, want) = (net.diffused().row(u.index()), want.row(u.index()));
                assert_eq!(row_bits(got), row_bits(want), "{name}: row {u}");
                let hosted = by_host.get(&u).map_or(&[][..], Vec::as_slice);
                assert_eq!(net.docs_at(u), hosted, "{name}: documents at {u}");
            }
            assert!(!net.dense_view_materialized());
            let dense = row_bits(net.embeddings().as_slice());
            assert_eq!(dense, row_bits(want.as_slice()), "{name}");
        }
    }
}
