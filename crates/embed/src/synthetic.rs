//! Synthetic GloVe-like corpus generation.
//!
//! The paper evaluates on GloVe 300-d word embeddings, using only their
//! cosine-similarity geometry: some words have close neighbors (cosine
//! ≥ 0.6 — these become query/gold pairs) while most pairs are near
//! orthogonal (the irrelevant pool). This module generates corpora with
//! exactly that geometry from a topic-mixture model:
//!
//! * `num_topics` topic centers are drawn uniformly on the unit sphere;
//! * a *topic word* is `normalize(center + n)` where the perturbation `n`
//!   is isotropic Gaussian with total L2 magnitude ≈ `noise` — words of the
//!   same topic have expected cosine `≈ 1 / (1 + noise²)`, so `noise = 0.5`
//!   yields within-topic similarity ≈ 0.8 and plenty of pairs above the
//!   paper's 0.6 threshold;
//! * a *background word* is a uniform direction, nearly orthogonal to
//!   everything in high dimension.
//!
//! All embeddings are L2-normalized, so the dot product used at query time
//! equals cosine similarity (paper footnote 7).

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
    reason = "f64 -> f32: samples are drawn in f64 and stored at the embeddings' f32 precision on purpose"
)]

use rand::Rng;

use crate::{Corpus, EmbedError, Embedding};

/// Configuration/builder for synthetic corpus generation.
///
/// # Example
///
/// ```
/// use gdsearch_embed::synthetic::SyntheticCorpus;
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), gdsearch_embed::EmbedError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let corpus = SyntheticCorpus::builder()
///     .vocab_size(500)
///     .dim(64)
///     .num_topics(20)
///     .generate(&mut rng)?;
/// assert_eq!(corpus.len(), 500);
/// assert_eq!(corpus.dim(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticCorpus {
    vocab_size: usize,
    dim: usize,
    num_topics: usize,
    topic_noise: f64,
    background_fraction: f64,
    anisotropy: f64,
}

impl SyntheticCorpus {
    /// Starts a builder with defaults: 10,000 words, 64 dimensions, 200
    /// topics, noise 0.5, 30% background words, no anisotropy.
    ///
    /// The defaults mirror the paper's vocabulary scale (tens of thousands
    /// of GloVe words) at a CI-friendly dimensionality; call
    /// [`dim`](Self::dim)`(300)` for the paper's exact setting and
    /// [`anisotropy`](Self::anisotropy)`(0.5)` for GloVe-like background
    /// similarity.
    pub fn builder() -> Self {
        SyntheticCorpus {
            vocab_size: 10_000,
            dim: 64,
            num_topics: 200,
            topic_noise: 0.5,
            background_fraction: 0.3,
            anisotropy: 0.0,
        }
    }

    /// Sets the vocabulary size (number of words).
    pub fn vocab_size(mut self, vocab_size: usize) -> Self {
        self.vocab_size = vocab_size;
        self
    }

    /// Sets the embedding dimensionality.
    pub fn dim(mut self, dim: usize) -> Self {
        self.dim = dim;
        self
    }

    /// Sets the number of topic clusters.
    pub fn num_topics(mut self, num_topics: usize) -> Self {
        self.num_topics = num_topics;
        self
    }

    /// Sets the within-topic noise σ: the expected L2 magnitude of the
    /// perturbation added to a word's topic center. Expected within-topic
    /// cosine is roughly `1 / (1 + σ²)`.
    pub fn topic_noise(mut self, noise: f64) -> Self {
        self.topic_noise = noise;
        self
    }

    /// Sets the fraction of words drawn as isotropic background (no topic).
    pub fn background_fraction(mut self, fraction: f64) -> Self {
        self.background_fraction = fraction;
        self
    }

    /// Sets the anisotropy strength γ: every word receives a shared bias
    /// component `γ · b` for one common direction `b`, so *any* two words
    /// have baseline cosine ≈ `γ² / (1 + γ²)`.
    ///
    /// Real word embeddings (GloVe included) are strongly anisotropic;
    /// this is the background noise that makes the paper's diffusion
    /// degrade as documents accumulate. `γ = 0.5` gives a GloVe-like
    /// baseline similarity of ≈ 0.2.
    pub fn anisotropy(mut self, gamma: f64) -> Self {
        self.anisotropy = gamma;
        self
    }

    /// Generates the corpus.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::InvalidParameter`] if any of the parameters is
    /// out of domain (zero sizes, negative noise, fraction outside `[0, 1]`)
    /// and [`EmbedError::EmptyCorpus`] if `vocab_size` is zero.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<Corpus, EmbedError> {
        if self.vocab_size == 0 {
            return Err(EmbedError::EmptyCorpus);
        }
        if self.dim == 0 {
            return Err(EmbedError::invalid_parameter("dim must be positive"));
        }
        if self.num_topics == 0 {
            return Err(EmbedError::invalid_parameter("num_topics must be positive"));
        }
        if self.topic_noise < 0.0 || !self.topic_noise.is_finite() {
            return Err(EmbedError::invalid_parameter(
                "topic_noise must be non-negative and finite",
            ));
        }
        if !(0.0..=1.0).contains(&self.background_fraction) {
            return Err(EmbedError::invalid_parameter(
                "background_fraction must lie in [0, 1]",
            ));
        }
        if self.anisotropy < 0.0 || !self.anisotropy.is_finite() {
            return Err(EmbedError::invalid_parameter(
                "anisotropy must be non-negative and finite",
            ));
        }
        let centers: Vec<Embedding> = (0..self.num_topics)
            .map(|_| random_unit_vector(self.dim, rng))
            .collect();
        // The shared direction that makes the space anisotropic.
        let bias = random_unit_vector(self.dim, rng).scaled(self.anisotropy as f32);
        let mut words = Vec::with_capacity(self.vocab_size);
        for _ in 0..self.vocab_size {
            let is_background = rng.random_bool(self.background_fraction);
            // Per-component std σ/√dim makes the expected L2 norm of the
            // whole perturbation equal σ, independent of dimensionality, so
            // within-topic cosine stays ≈ 1/(1+σ²) at any `dim`.
            let per_component = self.topic_noise / (self.dim as f64).sqrt();
            let mut word = if is_background {
                random_unit_vector(self.dim, rng)
            } else {
                let center = &centers[rng.random_range(0..centers.len())];
                let mut w = center.clone();
                for x in w.as_mut_slice() {
                    *x += (per_component * standard_normal(rng)) as f32;
                }
                w
            };
            word.add_in_place(&bias).expect("bias shares the dimension");
            word.normalize_in_place();
            words.push(word);
        }
        Corpus::from_embeddings(words)
    }
}

/// Samples a uniform direction on the unit sphere `S^{dim-1}`.
pub fn random_unit_vector<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Embedding {
    loop {
        let mut v = Embedding::new((0..dim).map(|_| standard_normal(rng) as f32).collect());
        let n = v.norm();
        if n > 1e-6 {
            v.scale_in_place(1.0 / n);
            return v;
        }
        // Astronomically unlikely near-zero draw: resample.
    }
}

/// Standard normal sample via Box–Muller (keeps the dependency surface to
/// `rand` alone — no `rand_distr`).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn generates_requested_shape() {
        let c = SyntheticCorpus::builder()
            .vocab_size(100)
            .dim(16)
            .num_topics(5)
            .generate(&mut rng(1))
            .unwrap();
        assert_eq!(c.len(), 100);
        assert_eq!(c.dim(), 16);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let c = SyntheticCorpus::builder()
            .vocab_size(50)
            .dim(32)
            .generate(&mut rng(2))
            .unwrap();
        for (_, e) in c.iter() {
            assert!((e.norm() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn topic_structure_produces_close_neighbors() {
        let c = SyntheticCorpus::builder()
            .vocab_size(1000)
            .dim(64)
            .num_topics(20)
            .topic_noise(0.5)
            .background_fraction(0.2)
            .generate(&mut rng(3))
            .unwrap();
        // A sizeable fraction of words must have a neighbor above the
        // paper's 0.6 cosine threshold, otherwise query generation starves.
        let mut above = 0;
        for w in c.word_ids().take(200) {
            let (_, sim) = c.nearest_neighbor(w).unwrap();
            if sim >= 0.6 {
                above += 1;
            }
        }
        assert!(above > 100, "only {above}/200 words have a close neighbor");
    }

    #[test]
    fn background_words_are_nearly_orthogonal() {
        let mut r = rng(4);
        let a = random_unit_vector(128, &mut r);
        let b = random_unit_vector(128, &mut r);
        let sim = similarity::cosine(&a, &b).unwrap();
        assert!(
            sim.abs() < 0.4,
            "random directions should be near-orthogonal"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut r = rng(6);
        assert!(SyntheticCorpus::builder()
            .vocab_size(0)
            .generate(&mut r)
            .is_err());
        assert!(SyntheticCorpus::builder().dim(0).generate(&mut r).is_err());
        assert!(SyntheticCorpus::builder()
            .num_topics(0)
            .generate(&mut r)
            .is_err());
        assert!(SyntheticCorpus::builder()
            .topic_noise(-1.0)
            .generate(&mut r)
            .is_err());
        assert!(SyntheticCorpus::builder()
            .background_fraction(1.5)
            .generate(&mut r)
            .is_err());
        assert!(SyntheticCorpus::builder()
            .anisotropy(-0.5)
            .generate(&mut r)
            .is_err());
    }

    #[test]
    fn anisotropy_raises_baseline_similarity() {
        // With γ = 0.5 any two words share cosine ≈ γ²/(1+γ²) = 0.2 — the
        // GloVe-like background similarity that adds diffusion noise.
        let gen = |gamma: f64, seed: u64| {
            SyntheticCorpus::builder()
                .vocab_size(200)
                .dim(64)
                .anisotropy(gamma)
                .generate(&mut rng(seed))
                .unwrap()
        };
        let mean_cosine = |c: &crate::Corpus| {
            let mut total = 0.0;
            let mut count = 0;
            for i in 0..50u32 {
                for j in (i + 1)..50 {
                    total += similarity::cosine(
                        c.embedding(crate::WordId::new(i)),
                        c.embedding(crate::WordId::new(j)),
                    )
                    .unwrap() as f64;
                    count += 1;
                }
            }
            total / count as f64
        };
        let isotropic = mean_cosine(&gen(0.0, 7));
        let anisotropic = mean_cosine(&gen(0.5, 7));
        assert!(isotropic.abs() < 0.1, "isotropic baseline {isotropic}");
        assert!(
            anisotropic > 0.12 && anisotropic < 0.35,
            "anisotropic baseline {anisotropic} should be near 0.2"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let gen = SyntheticCorpus::builder().vocab_size(64).dim(8);
        let a = gen.generate(&mut rng(9)).unwrap();
        let b = gen.generate(&mut rng(9)).unwrap();
        assert_eq!(a, b);
    }
}
