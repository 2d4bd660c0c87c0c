//! Document placement over the network.
//!
//! The paper's experiments "distribute the documents over the graph's nodes
//! uniformly" (§V-B) — [`Placement::uniform`]. The conclusion conjectures
//! that "more realistic document distributions … naturally exhibit spatial
//! correlation" and would aid diffusion; [`Placement::topic_correlated`]
//! implements such a distribution for the `ablation_placement` experiment:
//! similar documents are pulled towards graph-nearby hosts.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "a Graph's node count fits u32: every Graph constructor takes it as a u32"
)]

use std::collections::BTreeMap;

use gdsearch_embed::{similarity, Corpus, WordId};
use gdsearch_graph::algo::bfs;
use gdsearch_graph::{Graph, NodeId};
use rand::Rng;

use crate::SearchError;

/// Index of a placed document within a [`Placement`] (0-based; the
/// experiment harnesses place the gold document at index 0 by convention).
pub type DocId = usize;

/// An assignment of corpus words (documents) to hosting nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    words: Vec<WordId>,
    hosts: Vec<NodeId>,
}

impl Placement {
    /// Places each document on an independently uniform random node
    /// (the paper's distribution).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidParameter`] for an empty graph or an
    /// empty document list.
    pub fn uniform<R: Rng + ?Sized>(
        graph: &Graph,
        words: &[WordId],
        rng: &mut R,
    ) -> Result<Self, SearchError> {
        validate(graph, words)?;
        let n = graph.num_nodes() as u32;
        let hosts = words
            .iter()
            .map(|_| NodeId::new(rng.random_range(0..n)))
            .collect();
        Ok(Placement {
            words: words.to_vec(),
            hosts,
        })
    }

    /// Places documents with *spatial correlation*: the first document of
    /// each similarity cluster lands uniformly; each subsequent document,
    /// with probability `locality`, lands within `radius` hops of the host
    /// of the most similar already-placed document, and uniformly
    /// otherwise.
    ///
    /// With `locality = 0` this degenerates to [`Placement::uniform`].
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidParameter`] for an empty graph/word
    /// list, `locality` outside `[0, 1]` or words outside the corpus.
    pub fn topic_correlated<R: Rng + ?Sized>(
        graph: &Graph,
        corpus: &Corpus,
        words: &[WordId],
        locality: f64,
        radius: u32,
        rng: &mut R,
    ) -> Result<Self, SearchError> {
        validate(graph, words)?;
        if !(0.0..=1.0).contains(&locality) || locality.is_nan() {
            return Err(SearchError::invalid_parameter(
                "locality must lie in [0, 1]",
            ));
        }
        for w in words {
            if corpus.get(*w).is_none() {
                return Err(SearchError::invalid_parameter(format!(
                    "word {w} not in corpus"
                )));
            }
        }
        let n = graph.num_nodes() as u32;
        let mut hosts: Vec<NodeId> = Vec::with_capacity(words.len());
        for (i, w) in words.iter().enumerate() {
            let anchored = i > 0 && rng.random_bool(locality);
            let host = if anchored {
                // Most similar already-placed document. `>= on total_cmp`
                // keeps the last maximum, matching `Iterator::max_by`.
                let emb = corpus.embedding(*w);
                let mut best: Option<(usize, f32)> = None;
                for (j, prev) in words[..i].iter().enumerate() {
                    let sim = similarity::cosine(emb, corpus.embedding(*prev))?;
                    if best.is_none_or(|(_, s)| sim.total_cmp(&s).is_ge()) {
                        best = Some((j, sim));
                    }
                }
                match best {
                    Some((best_idx, _)) => {
                        let anchor = hosts[best_idx];
                        // Uniform node within `radius` hops of the anchor.
                        let ring = bfs::distance_rings(graph, anchor, radius);
                        let ball: Vec<NodeId> = ring.into_iter().flatten().collect();
                        ball[rng.random_range(0..ball.len())]
                    }
                    // Unreachable (`anchored` implies `i > 0`); place
                    // uniformly rather than panic if that ever drifts.
                    None => NodeId::new(rng.random_range(0..n)),
                }
            } else {
                NodeId::new(rng.random_range(0..n))
            };
            hosts.push(host);
        }
        Ok(Placement {
            words: words.to_vec(),
            hosts,
        })
    }

    /// Documents on chosen hosts, for tests that need one on a
    /// particular node.
    #[cfg(test)]
    pub(crate) fn at(words: Vec<WordId>, hosts: Vec<NodeId>) -> Self {
        assert_eq!(words.len(), hosts.len(), "one host per document");
        Placement { words, hosts }
    }

    /// Number of placed documents.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no documents are placed (never true for a constructed
    /// placement).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The corpus word of document `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn word(&self, doc: DocId) -> WordId {
        self.words[doc]
    }

    /// The hosting node of document `doc`.
    ///
    /// # Panics
    ///
    /// Panics if `doc` is out of range.
    pub fn host(&self, doc: DocId) -> NodeId {
        self.hosts[doc]
    }

    /// Iterates over `(doc id, word, host)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (DocId, WordId, NodeId)> + '_ {
        self.words
            .iter()
            .zip(&self.hosts)
            .enumerate()
            .map(|(i, (w, h))| (i, *w, *h))
    }

    /// Groups documents by hosting node.
    pub fn docs_by_host(&self) -> BTreeMap<NodeId, Vec<DocId>> {
        let mut map: BTreeMap<NodeId, Vec<DocId>> = BTreeMap::new();
        for (doc, host) in self.hosts.iter().enumerate() {
            map.entry(*host).or_default().push(doc);
        }
        map
    }

    /// The distinct hosting nodes.
    pub fn hosts(&self) -> Vec<NodeId> {
        let mut hosts: Vec<NodeId> = self.hosts.clone();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }
}

fn validate(graph: &Graph, words: &[WordId]) -> Result<(), SearchError> {
    if graph.num_nodes() == 0 {
        return Err(SearchError::invalid_parameter(
            "cannot place documents on an empty graph",
        ));
    }
    if words.is_empty() {
        return Err(SearchError::invalid_parameter(
            "placement needs at least one document",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_embed::synthetic::SyntheticCorpus;
    use gdsearch_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn words(n: u32) -> Vec<WordId> {
        (0..n).map(WordId::new).collect()
    }

    #[test]
    fn uniform_places_every_document() {
        let g = generators::ring(10).unwrap();
        let p = Placement::uniform(&g, &words(25), &mut rng(1)).unwrap();
        assert_eq!(p.len(), 25);
        for (_, _, host) in p.iter() {
            assert!(host.index() < 10);
        }
        let by_host = p.docs_by_host();
        let total: usize = by_host.values().map(Vec::len).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn uniform_is_roughly_balanced() {
        let g = generators::ring(10).unwrap();
        let p = Placement::uniform(&g, &words(5000), &mut rng(2)).unwrap();
        let by_host = p.docs_by_host();
        for host_docs in by_host.values() {
            // Expected 500 per node; 5 sigma ≈ 106.
            assert!((host_docs.len() as f64 - 500.0).abs() < 150.0);
        }
    }

    #[test]
    fn validation_errors() {
        let g = generators::ring(5).unwrap();
        assert!(Placement::uniform(&g, &[], &mut rng(3)).is_err());
        let empty = gdsearch_graph::Graph::empty(0);
        assert!(Placement::uniform(&empty, &words(3), &mut rng(3)).is_err());
    }

    #[test]
    fn correlated_zero_locality_is_uniform_like() {
        let g = generators::grid(6, 6);
        let corpus = SyntheticCorpus::builder()
            .vocab_size(50)
            .dim(16)
            .generate(&mut rng(4))
            .unwrap();
        let p = Placement::topic_correlated(&g, &corpus, &words(30), 0.0, 2, &mut rng(5)).unwrap();
        assert_eq!(p.len(), 30);
    }

    #[test]
    fn correlated_placement_shrinks_same_topic_distance() {
        // Build a corpus with tight clusters and compare the mean graph
        // distance between similar-document hosts under uniform vs.
        // correlated placement.
        let mut r = rng(6);
        let g = generators::social_circles_like_scaled(120, &mut r).unwrap();
        let corpus = SyntheticCorpus::builder()
            .vocab_size(60)
            .dim(24)
            .num_topics(4)
            .topic_noise(0.3)
            .background_fraction(0.0)
            .generate(&mut r)
            .unwrap();
        let ws = words(60);
        let mean_similar_distance = |p: &Placement| {
            let mut total = 0.0;
            let mut count = 0usize;
            for i in 0..ws.len() {
                // Find the most similar other document.
                let (best, _) = ws
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(j, w)| {
                        (
                            j,
                            similarity::cosine(corpus.embedding(ws[i]), corpus.embedding(*w))
                                .unwrap(),
                        )
                    })
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                let d = bfs::distances(&g, p.host(i))[p.host(best).index()];
                if let Some(d) = d {
                    total += d as f64;
                    count += 1;
                }
            }
            total / count as f64
        };
        let uniform = Placement::uniform(&g, &ws, &mut rng(7)).unwrap();
        let correlated =
            Placement::topic_correlated(&g, &corpus, &ws, 0.9, 1, &mut rng(7)).unwrap();
        assert!(
            mean_similar_distance(&correlated) < mean_similar_distance(&uniform),
            "correlated placement should put similar docs closer"
        );
    }

    #[test]
    fn correlated_validates_inputs() {
        let g = generators::ring(5).unwrap();
        let corpus = SyntheticCorpus::builder()
            .vocab_size(10)
            .dim(8)
            .generate(&mut rng(8))
            .unwrap();
        assert!(Placement::topic_correlated(&g, &corpus, &words(5), 1.5, 2, &mut rng(9)).is_err());
        assert!(
            Placement::topic_correlated(&g, &corpus, &[WordId::new(99)], 0.5, 2, &mut rng(9))
                .is_err()
        );
    }

    #[test]
    fn accessors() {
        let g = generators::ring(6).unwrap();
        let p = Placement::uniform(&g, &words(4), &mut rng(10)).unwrap();
        assert_eq!(p.word(2), WordId::new(2));
        assert!(!p.is_empty());
        assert!(p.hosts().len() <= 4);
        assert!(p.hosts().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::ring(8).unwrap();
        let a = Placement::uniform(&g, &words(20), &mut rng(11)).unwrap();
        let b = Placement::uniform(&g, &words(20), &mut rng(11)).unwrap();
        assert_eq!(a, b);
    }
}
