//! Query and gold-document generation, following the paper's §V-B protocol:
//!
//! > "We first generate queries and documents from the Glove dataset using
//! > 1000 random words as queries and their nearest neighbors as gold
//! > documents, provided that their cosine similarity is over 0.6 and the
//! > two sets do not overlap. The remaining words are treated as a pool of
//! > irrelevant documents."
//!
//! [`generate`] reproduces that sampling over any [`Corpus`].
//!
//! # Cost and bitwise contract
//!
//! Each visited candidate is scored against every word, so generation
//! costs O(visited · V · d) for V words of dimension d; visited is the
//! number of candidates drawn before `num_queries` pairs are accepted or
//! the corpus runs out. One private scan does that work: it computes every
//! word's norm once and re-lays the corpus as column-major blocks of
//! 32 words, so one pass over the query's components advances 32
//! independent dot products. Each of those is still the serial chain
//! `x₀y₀ + x₁y₁ + …` that [`similarity::dot`](crate::similarity::dot)
//! computes, from the same starting value, and the cosine and the
//! zero-norm rule are [`similarity::cosine`](crate::similarity::cosine)'s.
//! The scan therefore returns exactly the bits of calling `cosine` on
//! every pair, and the nearest neighbour is the first maximum in id
//! order: the lowest id wins a tie, and a NaN first score is never
//! replaced. [`Corpus::nearest_neighbor`] goes through the same scan.

use std::collections::BTreeSet;

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Corpus, EmbedError, Embedding, WordId};

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

    let scan = CosineScan::new(corpus);
    let mut roles = vec![Role::Free; corpus.len()];
    // Each pair consumes a distinct query word.
    let mut pairs = Vec::with_capacity(config.num_queries.min(corpus.len()));

    for &candidate in &order {
        if pairs.len() >= config.num_queries {
            break;
        }
        if roles.get(candidate.index()) != Some(&Role::Free) {
            continue;
        }
        // Nearest neighbor among words that are not queries and not the
        // candidate itself (golds stay eligible: queries may share a gold).
        let best = scan.nearest(candidate, |id| {
            id == candidate || roles.get(id.index()) == Some(&Role::Query)
        });
        if let Some((gold, cosine)) = best {
            if cosine >= config.min_cosine {
                for (word, role) in [(candidate, Role::Query), (gold, Role::Gold)] {
                    if let Some(slot) = roles.get_mut(word.index()) {
                        *slot = role;
                    }
                }
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
        .zip(&roles)
        .filter(|&(_, &role)| role == Role::Free)
        .map(|(w, _)| w)
        .collect();
    Ok(QuerySet { pairs, irrelevant })
}

/// What a word has become during [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Free,
    Query,
    Gold,
}

/// Words scored per pass of [`CosineScan::nearest`]: the height of one
/// column-major block and the number of independent accumulators a pass
/// updates. Picked by measurement: generating the benchmark's 2,000 pairs
/// from 6,000 × 64 words took 0.15 s at 8 lanes, 0.14 s at 16, 0.13 s at
/// 32 and 0.135 s at 64 (Xeon, 2.1 GHz).
const LANES: usize = 32;

/// `start + Σₖ q[k]·block[k][j]` for each lane `j`, summed serially in `k`.
/// A function of its own so the compiler keeps the lanes in vector
/// registers: written inline in [`CosineScan::nearest`]'s loop, it compiled
/// to scalar code that spilled every lane (4.5× slower).
fn block_dots(start: f32, block: &[[f32; LANES]], q: &[f32]) -> [f32; LANES] {
    let mut dots = [start; LANES];
    for (column, &x) in block.iter().zip(q) {
        for (dot, &y) in dots.iter_mut().zip(column) {
            *dot += x * y;
        }
    }
    dots
}

/// A corpus re-laid out for cosine nearest-neighbour scans (see the module
/// docs for the bitwise contract).
pub(crate) struct CosineScan<'a> {
    corpus: &'a Corpus,
    /// Block `b` is `columns[b·d .. (b+1)·d]`; its column `k` holds
    /// component `k` of words `b·LANES ..`, zero past the last word.
    columns: Vec<[f32; LANES]>,
    /// `Embedding::norm` of every word, in id order.
    norms: Vec<f32>,
}

impl<'a> CosineScan<'a> {
    /// Copies `corpus` into blocks and computes every norm once.
    pub(crate) fn new(corpus: &'a Corpus) -> Self {
        let dim = corpus.dim();
        let mut columns = Vec::with_capacity(corpus.len().div_ceil(LANES) * dim);
        for block in corpus.embeddings().chunks(LANES) {
            let mut rows: Vec<_> = block.iter().map(Embedding::iter).collect();
            for _ in 0..dim {
                let mut column = [0.0; LANES];
                for (cell, row) in column.iter_mut().zip(&mut rows) {
                    if let Some(&x) = row.next() {
                        *cell = x;
                    }
                }
                columns.push(column);
            }
        }
        let norms = corpus.embeddings().iter().map(Embedding::norm).collect();
        CosineScan {
            corpus,
            columns,
            norms,
        }
    }

    /// The word most cosine-similar to `query` among those `skip` does not
    /// exclude, and that cosine: the first maximum in id order. `None` if
    /// `skip` excludes every word.
    pub(crate) fn nearest(
        &self,
        query: WordId,
        skip: impl Fn(WordId) -> bool,
    ) -> Option<(WordId, f32)> {
        let q = self.corpus.embedding(query);
        let q_norm = q.norm();
        // Where `Iterator::<f32>::sum`, and so `similarity::dot`, starts.
        let start = std::iter::empty::<f32>().sum::<f32>();
        // Empty only when d = 0: every dot is then `start`.
        let mut blocks = self.columns.chunks_exact(self.corpus.dim().max(1));
        let mut ids = self.corpus.word_ids();
        let mut best: Option<(WordId, f32)> = None;
        for norms in self.norms.chunks(LANES) {
            let dots = block_dots(start, blocks.next().unwrap_or_default(), q.as_slice());
            for ((&dot, &norm), id) in dots.iter().zip(norms).zip(&mut ids) {
                if skip(id) {
                    continue;
                }
                let sim = if q_norm == 0.0 || norm == 0.0 {
                    0.0
                } else {
                    dot / (q_norm * norm)
                };
                if best.is_none_or(|(_, s)| sim > s) {
                    best = Some((id, sim));
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity;
    use crate::synthetic::SyntheticCorpus;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The reference model: [`generate`] as it stood before the blocked
    /// scan — `similarity::cosine` per pair, both norms recomputed each
    /// time, membership in two `BTreeSet`s — less its `with_capacity`,
    /// which overflowed on `usize::MAX` queries. Slow and obviously right;
    /// [`generate`] must reproduce it bit for bit, RNG state included.
    fn reference_generate<R: Rng + ?Sized>(
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
        let mut pairs = Vec::new();

        for &candidate in &order {
            if pairs.len() >= config.num_queries {
                break;
            }
            if queries.contains(&candidate) || golds.contains(&candidate) {
                continue;
            }
            let q_emb = corpus.embedding(candidate);
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

    /// Pairs with the cosine as its bit pattern, and the irrelevant pool.
    type Bits = (Vec<(WordId, WordId, u32)>, Vec<WordId>);

    fn bits(set: &QuerySet) -> Bits {
        let pairs = set
            .pairs()
            .iter()
            .map(|p| (p.query, p.gold, p.cosine.to_bits()))
            .collect();
        (pairs, set.irrelevant().to_vec())
    }

    /// `len` words of dimension `dim`: mostly noisy copies of three
    /// prototypes, so that cosines above 0.6 occur, mixed with −0.0,
    /// all-zero, overflowing (±`f32::MAX`: ∞ dots and norms, NaN
    /// cosines), subnormal and duplicated rows.
    fn hostile_corpus(len: usize, dim: usize, seed: u64) -> Corpus {
        let mut r = rng(seed);
        let prototypes: Vec<Vec<f32>> = (0..3)
            .map(|_| (0..dim).map(|_| r.random_range(-1.0f32..1.0)).collect())
            .collect();
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(len);
        for _ in 0..len {
            let mut row: Vec<f32> = prototypes[r.random_range(0..3usize)]
                .iter()
                .map(|x| x + r.random_range(-0.3f32..0.3))
                .collect();
            let at = r.random_range(0..dim);
            match r.random_range(0..14u32) {
                0 => row = vec![-0.0; dim],
                1 => row = vec![0.0; dim],
                2 => row = row.iter().map(|x| x * 1e30).collect(),
                3 => row[at] = f32::MAX,
                4 => row[at] = -f32::MAX,
                5 => row[at] = r.random_range(-1.0f32..1.0) * 1e-40,
                6 => row = row.iter().map(|x| x * 1e-40).collect(),
                7 => {
                    // One ±1 among zeros of random sign: dots of ±0.
                    row = (0..dim)
                        .map(|k| {
                            let magnitude = if k == at { 1.0 } else { 0.0 };
                            if r.random::<bool>() {
                                magnitude
                            } else {
                                -magnitude
                            }
                        })
                        .collect();
                }
                8 | 9 if !rows.is_empty() => row = rows[r.random_range(0..rows.len())].clone(),
                _ => {}
            }
            rows.push(row);
        }
        Corpus::from_embeddings(rows.into_iter().map(Embedding::new).collect()).unwrap()
    }

    const SIZES: [usize; 6] = [2, 31, 32, 33, 65, 200];
    const DIMS: [usize; 3] = [1, 3, 64];
    const THRESHOLDS: [f32; 3] = [-1.0, 0.6, 1.1];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Block edges (31, 32, 33, 65 words), hostile rows and thresholds
        /// that accept everything, the paper's and nothing: pairs, cosine
        /// bits, the irrelevant pool and the caller's RNG all match.
        #[test]
        fn blocked_scan_matches_the_reference_model(
            size in 0usize..SIZES.len(),
            dim in 0usize..DIMS.len(),
            threshold in 0usize..THRESHOLDS.len(),
            num_queries in 1usize..120,
            seed in 0u64..100_000,
        ) {
            let corpus = hostile_corpus(SIZES[size], DIMS[dim], seed);
            let config = QueryGenConfig {
                num_queries,
                min_cosine: THRESHOLDS[threshold],
            };
            let (mut got_rng, mut want_rng) = (rng(seed + 1), rng(seed + 1));
            let got = generate(&corpus, config, &mut got_rng).unwrap();
            let want = reference_generate(&corpus, config, &mut want_rng).unwrap();
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        }
    }

    #[test]
    fn a_dot_of_negative_zeros_keeps_its_sign() {
        // Every product is −0.0, so the dot's sign is the sum's starting
        // value's: the scan must start where `similarity::dot` does.
        let corpus = Corpus::from_embeddings(vec![
            Embedding::new(vec![1.0, -0.0]),
            Embedding::new(vec![-0.0, 1.0]),
        ])
        .unwrap();
        let config = QueryGenConfig {
            num_queries: 1,
            min_cosine: -1.0,
        };
        let got = generate(&corpus, config, &mut rng(17)).unwrap();
        let want = reference_generate(&corpus, config, &mut rng(17)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn unbounded_request_stops_at_the_corpus() {
        // `usize::MAX` once asked `Vec::with_capacity` for that many pairs.
        let corpus = clustered_corpus(15);
        let config = QueryGenConfig {
            num_queries: usize::MAX,
            min_cosine: 0.6,
        };
        let qs = generate(&corpus, config, &mut rng(16)).unwrap();
        assert!(!qs.is_empty());
        assert!(qs.len() <= corpus.len());
        assert!(qs.check_disjoint());
        let want = reference_generate(&corpus, config, &mut rng(16)).unwrap();
        assert_eq!(bits(&qs), bits(&want));
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
