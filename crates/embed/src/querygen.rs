//! Query and gold-document generation, following the paper's §V-B protocol:
//!
//! > "We first generate queries and documents from the Glove dataset using
//! > 1000 random words as queries and their nearest neighbors as gold
//! > documents, provided that their cosine similarity is over 0.6 and the
//! > two sets do not overlap. The remaining words are treated as a pool of
//! > irrelevant documents."
//!
//! [`generate`] reproduces that sampling over any [`Corpus`].

use std::collections::BTreeSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{similarity, Corpus, EmbedError, WordId};

/// A query word paired with its gold document (its nearest neighbor in the
/// corpus, cosine ≥ the configured threshold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryGoldPair {
    /// The query word.
    pub query: WordId,
    /// The gold document: nearest neighbor of `query` outside the query set.
    pub gold: WordId,
    /// Cosine similarity between query and gold.
    pub cosine: f32,
}

/// Output of [`generate`]: query/gold pairs plus the irrelevant pool.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySet {
    pairs: Vec<QueryGoldPair>,
    irrelevant: Vec<WordId>,
}

impl QuerySet {
    /// The accepted query/gold pairs.
    pub fn pairs(&self) -> &[QueryGoldPair] {
        &self.pairs
    }

    /// Words that are neither queries nor gold documents; experiments draw
    /// the `M − 1` irrelevant documents from this pool.
    pub fn irrelevant(&self) -> &[WordId] {
        &self.irrelevant
    }

    /// Number of accepted pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair was accepted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Verifies the paper's disjointness invariant: no word is both a query
    /// and a gold document, and the irrelevant pool touches neither set.
    pub fn check_disjoint(&self) -> bool {
        let queries: BTreeSet<WordId> = self.pairs.iter().map(|p| p.query).collect();
        let golds: BTreeSet<WordId> = self.pairs.iter().map(|p| p.gold).collect();
        if queries.intersection(&golds).next().is_some() {
            return false;
        }
        self.irrelevant
            .iter()
            .all(|w| !queries.contains(w) && !golds.contains(w))
    }
}

/// Configuration for [`generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryGenConfig {
    /// Number of query/gold pairs requested (the paper uses 1000).
    pub num_queries: usize,
    /// Minimum cosine similarity between a query and its nearest neighbor
    /// for the pair to be accepted (the paper uses 0.6).
    pub min_cosine: f32,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            num_queries: 1000,
            min_cosine: 0.6,
        }
    }
}

/// Samples query/gold pairs from `corpus` per the paper's protocol.
///
/// Candidate query words are visited in random order. For each candidate,
/// its nearest neighbor among non-query words is computed; the pair is
/// accepted if the cosine similarity meets `config.min_cosine`. Accepted
/// queries and golds are kept disjoint (a gold is never later used as a
/// query and vice versa); distinct queries may share a gold document.
///
/// Fewer than `config.num_queries` pairs are returned when the corpus runs
/// out of qualifying words — check [`QuerySet::len`].
///
/// # Errors
///
/// Returns [`EmbedError::EmptyCorpus`] if the corpus has fewer than two
/// words and [`EmbedError::InvalidParameter`] for a non-finite threshold or
/// zero `num_queries`.
pub fn generate<R: Rng + ?Sized>(
    corpus: &Corpus,
    config: QueryGenConfig,
    rng: &mut R,
) -> Result<QuerySet, EmbedError> {
    if corpus.len() < 2 {
        return Err(EmbedError::EmptyCorpus);
    }
    if config.num_queries == 0 {
        return Err(EmbedError::invalid_parameter(
            "num_queries must be positive",
        ));
    }
    if !config.min_cosine.is_finite() {
        return Err(EmbedError::invalid_parameter("min_cosine must be finite"));
    }
    let mut order: Vec<WordId> = corpus.word_ids().collect();
    order.shuffle(rng);

    let mut queries: BTreeSet<WordId> = BTreeSet::new();
    let mut golds: BTreeSet<WordId> = BTreeSet::new();
    let mut pairs = Vec::with_capacity(config.num_queries);

    for &candidate in &order {
        if pairs.len() >= config.num_queries {
            break;
        }
        if queries.contains(&candidate) || golds.contains(&candidate) {
            continue;
        }
        let q_emb = corpus.embedding(candidate);
        // Nearest neighbor among words that are not queries and not the
        // candidate itself (golds stay eligible: queries may share a gold).
        let mut best: Option<(WordId, f32)> = None;
        for (id, e) in corpus.iter() {
            if id == candidate || queries.contains(&id) {
                continue;
            }
            let sim = similarity::cosine(q_emb, e)?;
            if best.map(|(_, s)| sim > s).unwrap_or(true) {
                best = Some((id, sim));
            }
        }
        if let Some((gold, cosine)) = best {
            if cosine >= config.min_cosine {
                queries.insert(candidate);
                golds.insert(gold);
                pairs.push(QueryGoldPair {
                    query: candidate,
                    gold,
                    cosine,
                });
            }
        }
    }

    let irrelevant: Vec<WordId> = corpus
        .word_ids()
        .filter(|w| !queries.contains(w) && !golds.contains(w))
        .collect();
    Ok(QuerySet { pairs, irrelevant })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticCorpus;
    use crate::Embedding;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn clustered_corpus(seed: u64) -> Corpus {
        SyntheticCorpus::builder()
            .vocab_size(600)
            .dim(48)
            .num_topics(15)
            .topic_noise(0.45)
            .background_fraction(0.2)
            .generate(&mut rng(seed))
            .unwrap()
    }

    #[test]
    fn generates_disjoint_pairs() {
        let corpus = clustered_corpus(1);
        let qs = generate(
            &corpus,
            QueryGenConfig {
                num_queries: 50,
                min_cosine: 0.6,
            },
            &mut rng(2),
        )
        .unwrap();
        assert!(!qs.is_empty());
        assert!(qs.check_disjoint());
        assert!(qs.len() <= 50);
    }

    #[test]
    fn gold_is_true_nearest_neighbor_above_threshold() {
        let corpus = clustered_corpus(3);
        let qs = generate(
            &corpus,
            QueryGenConfig {
                num_queries: 20,
                min_cosine: 0.6,
            },
            &mut rng(4),
        )
        .unwrap();
        for p in qs.pairs() {
            assert!(p.cosine >= 0.6, "pair below threshold: {p:?}");
            // No non-query word may be strictly closer than the gold.
            let queries: BTreeSet<_> = qs.pairs().iter().map(|p| p.query).collect();
            let q_emb = corpus.embedding(p.query);
            for (id, e) in corpus.iter() {
                if id == p.query || queries.contains(&id) {
                    continue;
                }
                let sim = similarity::cosine(q_emb, e).unwrap();
                assert!(
                    sim <= p.cosine + 1e-5,
                    "word {id} (sim {sim}) beats gold {} (sim {})",
                    p.gold,
                    p.cosine
                );
            }
        }
    }

    #[test]
    fn pool_plus_pairs_cover_corpus() {
        let corpus = clustered_corpus(5);
        let qs = generate(&corpus, QueryGenConfig::default(), &mut rng(6)).unwrap();
        let queries: BTreeSet<_> = qs.pairs().iter().map(|p| p.query).collect();
        let golds: BTreeSet<_> = qs.pairs().iter().map(|p| p.gold).collect();
        assert_eq!(
            queries.len() + golds.len() + qs.irrelevant().len(),
            corpus.len()
        );
    }

    #[test]
    fn impossible_threshold_yields_empty_set() {
        let corpus = clustered_corpus(7);
        let qs = generate(
            &corpus,
            QueryGenConfig {
                num_queries: 10,
                min_cosine: 1.1, // unreachable for distinct unit vectors
            },
            &mut rng(8),
        )
        .unwrap();
        assert!(qs.is_empty());
        assert_eq!(qs.irrelevant().len(), corpus.len());
    }

    #[test]
    fn orthogonal_corpus_yields_no_pairs() {
        // One-hot corpus: all similarities are 0.
        let corpus =
            Corpus::from_embeddings((0..8).map(|i| Embedding::one_hot(8, i)).collect::<Vec<_>>())
                .unwrap();
        let qs = generate(
            &corpus,
            QueryGenConfig {
                num_queries: 4,
                min_cosine: 0.6,
            },
            &mut rng(9),
        )
        .unwrap();
        assert!(qs.is_empty());
    }

    #[test]
    fn rejects_bad_inputs() {
        let corpus = clustered_corpus(10);
        assert!(generate(
            &corpus,
            QueryGenConfig {
                num_queries: 0,
                min_cosine: 0.6
            },
            &mut rng(1)
        )
        .is_err());
        assert!(generate(
            &corpus,
            QueryGenConfig {
                num_queries: 5,
                min_cosine: f32::NAN
            },
            &mut rng(1)
        )
        .is_err());
        let single = Corpus::from_embeddings(vec![Embedding::new(vec![1.0])]).unwrap();
        assert!(generate(&single, QueryGenConfig::default(), &mut rng(1)).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let corpus = clustered_corpus(11);
        let cfg = QueryGenConfig {
            num_queries: 30,
            min_cosine: 0.6,
        };
        let a = generate(&corpus, cfg, &mut rng(12)).unwrap();
        let b = generate(&corpus, cfg, &mut rng(12)).unwrap();
        assert_eq!(a, b);
    }
}
