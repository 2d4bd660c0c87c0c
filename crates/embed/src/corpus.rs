#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "word ids are below the corpus length, which Corpus::from_embeddings caps at u32::MAX"
)]

use std::fmt;

use crate::querygen::CosineScan;
use crate::{EmbedError, Embedding};

/// Identifier of a word (document) in a [`Corpus`]: a dense zero-based index.
///
/// In the paper's evaluation every "document" is a single word vector from
/// the GloVe vocabulary; we keep that terminology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordId(u32);

impl WordId {
    /// Creates a word id from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        WordId(index)
    }

    /// Raw index as `usize`, for slice indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw index as `u32`.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for WordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

impl From<u32> for WordId {
    fn from(index: u32) -> Self {
        WordId(index)
    }
}

impl From<WordId> for u32 {
    fn from(id: WordId) -> Self {
        id.0
    }
}

/// A vocabulary of word embeddings with uniform dimensionality.
///
/// The corpus is the global document universe of an experiment: queries,
/// gold documents and the irrelevant pool are all drawn from it
/// (paper §V-B).
///
/// # Example
///
/// ```
/// use gdsearch_embed::{Corpus, Embedding, WordId};
///
/// # fn main() -> Result<(), gdsearch_embed::EmbedError> {
/// let corpus = Corpus::from_embeddings(vec![
///     Embedding::new(vec![1.0, 0.0]),
///     Embedding::new(vec![0.9, 0.1]),
///     Embedding::new(vec![0.0, 1.0]),
/// ])?;
/// assert_eq!(corpus.len(), 3);
/// let (nn, sim) = corpus.nearest_neighbor(WordId::new(0))?;
/// assert_eq!(nn, WordId::new(1));
/// assert!(sim > 0.9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    dim: usize,
    embeddings: Vec<Embedding>,
}

impl Corpus {
    /// Builds a corpus from embeddings, validating uniform dimensionality
    /// and finite components.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::EmptyCorpus`] for an empty input,
    /// [`EmbedError::InvalidParameter`] for more words than a `u32`
    /// [`WordId`] can name or for a NaN or ±∞ component (naming the first
    /// such word and component), and [`EmbedError::DimensionMismatch`] if
    /// dimensions disagree.
    pub fn from_embeddings(embeddings: Vec<Embedding>) -> Result<Self, EmbedError> {
        let Some(first) = embeddings.first() else {
            return Err(EmbedError::EmptyCorpus);
        };
        if u32::try_from(embeddings.len()).is_err() {
            return Err(EmbedError::invalid_parameter(format!(
                "{} words exceed the u32 word-id space",
                embeddings.len()
            )));
        }
        let dim = first.dim();
        for (word, e) in embeddings.iter().enumerate() {
            EmbedError::check_dims(dim, e.dim())?;
            let bad = e
                .as_slice()
                .iter()
                .enumerate()
                .find(|(_, x)| !x.is_finite());
            if let Some((component, x)) = bad {
                return Err(EmbedError::invalid_parameter(format!(
                    "word {} component {component} is {x}; embeddings must be finite",
                    WordId(word as u32)
                )));
            }
        }
        Ok(Corpus { dim, embeddings })
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.embeddings.len()
    }

    /// Whether the corpus has no words (never true for a constructed corpus,
    /// but required by convention alongside [`Corpus::len`]).
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The embedding of `word`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range; use [`Corpus::get`] for a checked
    /// variant.
    pub fn embedding(&self, word: WordId) -> &Embedding {
        &self.embeddings[word.index()]
    }

    /// The embedding of `word`, or `None` if out of range.
    pub fn get(&self, word: WordId) -> Option<&Embedding> {
        self.embeddings.get(word.index())
    }

    /// Iterates over `(id, embedding)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (WordId, &Embedding)> {
        self.embeddings
            .iter()
            .enumerate()
            .map(|(i, e)| (WordId::new(i as u32), e))
    }

    /// All word ids.
    pub fn word_ids(&self) -> impl ExactSizeIterator<Item = WordId> + Clone {
        (0..self.embeddings.len() as u32).map(WordId)
    }

    /// Raw embedding storage, indexed by word id.
    pub fn embeddings(&self) -> &[Embedding] {
        &self.embeddings
    }

    /// Finds the cosine-nearest neighbor of `word` (excluding itself).
    /// Returns the neighbor and its cosine similarity.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::EmptyCorpus`] if the corpus has fewer than two
    /// words and [`EmbedError::InvalidParameter`] if `word` is out of range.
    pub fn nearest_neighbor(&self, word: WordId) -> Result<(WordId, f32), EmbedError> {
        if self.len() < 2 {
            return Err(EmbedError::EmptyCorpus);
        }
        if self.get(word).is_none() {
            return Err(EmbedError::invalid_parameter(format!(
                "word {word} out of range"
            )));
        }
        CosineScan::new(self)
            .nearest(word, |id| id == word)
            .ok_or(EmbedError::EmptyCorpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> Corpus {
        Corpus::from_embeddings(vec![
            Embedding::new(vec![1.0, 0.0]),
            Embedding::new(vec![0.8, 0.2]),
            Embedding::new(vec![0.0, 1.0]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_checks_dimensions() {
        let err = Corpus::from_embeddings(vec![
            Embedding::new(vec![1.0, 0.0]),
            Embedding::new(vec![1.0, 0.0, 0.0]),
        ])
        .unwrap_err();
        assert!(matches!(err, EmbedError::DimensionMismatch { .. }));
    }

    #[test]
    fn empty_corpus_rejected() {
        assert!(matches!(
            Corpus::from_embeddings(vec![]),
            Err(EmbedError::EmptyCorpus)
        ));
    }

    #[test]
    fn accessors() {
        let c = small();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.dim(), 2);
        assert_eq!(c.embedding(WordId::new(2)).as_slice(), &[0.0, 1.0]);
        assert!(c.get(WordId::new(3)).is_none());
        assert_eq!(c.iter().count(), 3);
        assert_eq!(c.word_ids().count(), 3);
    }

    #[test]
    fn nearest_neighbor_excludes_self() {
        let c = small();
        let (nn, sim) = c.nearest_neighbor(WordId::new(0)).unwrap();
        assert_eq!(nn, WordId::new(1));
        assert!(sim > 0.9 && sim < 1.0);
    }

    /// `nearest_neighbor` as it stood before the blocked scan: one
    /// `similarity::cosine` per pair, first maximum wins.
    fn reference_nearest_neighbor(c: &Corpus, word: WordId) -> (WordId, f32) {
        let target = c.embedding(word);
        let mut best: Option<(WordId, f32)> = None;
        for (id, e) in c.iter() {
            if id == word {
                continue;
            }
            let sim = crate::similarity::cosine(target, e).unwrap();
            if best.map(|(_, s)| sim > s).unwrap_or(true) {
                best = Some((id, sim));
            }
        }
        best.unwrap()
    }

    #[test]
    fn nearest_neighbor_matches_the_per_pair_scan_bitwise() {
        // 70 words of dimension 5 (two full blocks and a padded one):
        // a deterministic spread with hostile rows and ties mixed in.
        let mut rows: Vec<Vec<f32>> = (0..70u32)
            .map(|i| {
                (0..5u32)
                    .map(|k| ((i * 7 + k * 13) % 11) as f32 - 5.0 + 0.1 * (i % 3) as f32)
                    .collect()
            })
            .collect();
        rows[3] = vec![-0.0; 5];
        rows[9] = vec![0.0; 5];
        // Finite rows whose products overflow: ∞ dots, ∞ norms, NaN
        // cosines.
        rows[17][2] = f32::MAX;
        rows[31][0] = f32::MAX;
        rows[32][4] = -f32::MAX;
        rows[40] = vec![1e-40, -3e-41, 0.0, 2e-40, 1e-45];
        rows[64] = rows[1].clone();
        rows[69] = rows[1].clone();
        let c = Corpus::from_embeddings(rows.into_iter().map(Embedding::new).collect()).unwrap();
        for word in c.word_ids() {
            let (got, sim) = c.nearest_neighbor(word).unwrap();
            let (want, want_sim) = reference_nearest_neighbor(&c, word);
            assert_eq!((got, sim.to_bits()), (want, want_sim.to_bits()), "{word}");
        }
    }

    proptest! {
        /// One NaN or ±∞ at a random (word, component), and maybe a
        /// second one after it: the error names the first.
        #[test]
        fn a_non_finite_component_is_named_by_word_and_component(
            len in 1usize..40,
            dim in 1usize..9,
            cell in 0usize..1_000,
            bad_cells in 1usize..3,
            offset in 0usize..1_000,
            kind in 0usize..3,
            seed in 0u64..1_000,
        ) {
            let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][kind];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut cells: Vec<f32> =
                (0..len * dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let first = cell % cells.len();
            cells[first] = bad;
            if bad_cells == 2 {
                let second = first + offset % (cells.len() - first);
                cells[second] = f32::NAN;
            }
            let rows = cells.chunks(dim).map(|row| Embedding::new(row.to_vec())).collect();
            let err = Corpus::from_embeddings(rows).unwrap_err();
            let EmbedError::InvalidParameter { reason } = err else {
                panic!("expected InvalidParameter, got {err:?}");
            };
            let named = format!("word w{} component {} is ", first / dim, first % dim);
            prop_assert!(reason.contains(&named), "{} lacks {}", reason, named);
        }
    }

    #[test]
    fn nearest_neighbor_errors() {
        let c = Corpus::from_embeddings(vec![Embedding::new(vec![1.0])]).unwrap();
        assert!(c.nearest_neighbor(WordId::new(0)).is_err());
        let c = small();
        assert!(c.nearest_neighbor(WordId::new(9)).is_err());
    }

    #[test]
    fn word_id_display_and_conversion() {
        let w = WordId::from(3u32);
        assert_eq!(w.to_string(), "w3");
        assert_eq!(u32::from(w), 3);
    }
}
