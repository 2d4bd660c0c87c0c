//! Reproduction harnesses for the paper's evaluation (§V).
//!
//! * [`accuracy`] — Fig. 3: hit accuracy vs. query-to-gold distance, for
//!   `M ∈ {10, 100, 1000, 10000}` documents and `α ∈ {0.1, 0.5, 0.9}`;
//! * [`hops`] — Table I: success rate and hop-count statistics of
//!   successful walks at `α = 0.5`, and the sweep of uniformly started
//!   walks behind it that the walk ablations run with their own settings
//!   and placements;
//! * [`report`] — markdown/CSV rendering of both.
//!
//! [`Workbench`] assembles the shared experimental environment: the social
//! graph (paper: SNAP Facebook social circles; here the calibrated
//! generator or a user-supplied edge list), the word corpus (paper: GloVe
//! 300-d; here the synthetic topic-mixture corpus) and the query/gold
//! pairs of §V-B.

pub mod accuracy;
pub mod hops;
pub mod report;

use gdsearch_embed::querygen::{self, QueryGenConfig, QuerySet};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::{Corpus, WordId};
use gdsearch_graph::{generators, Graph};
use rand::seq::IndexedRandom;
use rand::Rng;

use crate::SearchError;

/// Parameters of the shared experimental environment.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkbenchSpec {
    /// Nodes in the social graph.
    pub nodes: u32,
    /// Vocabulary size of the synthetic corpus.
    pub vocab: usize,
    /// Embedding dimensionality (paper: 300; default 64 for speed — the
    /// similarity geometry, not the dimension, drives the results).
    pub dim: usize,
    /// Topic clusters in the synthetic corpus.
    pub topics: usize,
    /// Query/gold pairs to generate (paper: 1000).
    pub num_queries: usize,
    /// Gold-pair cosine threshold (paper: 0.6).
    pub min_cosine: f32,
    /// Corpus anisotropy γ: shared-direction bias giving any word pair a
    /// baseline cosine of ≈ γ²/(1+γ²). GloVe-like noise is γ ≈ 0.3–0.5;
    /// 0 disables it.
    pub anisotropy: f64,
}

impl WorkbenchSpec {
    /// A CI-sized setting that preserves the qualitative shape (hundreds
    /// of nodes, hundreds of words).
    pub fn ci_scale() -> Self {
        WorkbenchSpec {
            nodes: 300,
            vocab: 800,
            dim: 32,
            topics: 30,
            num_queries: 60,
            min_cosine: 0.6,
            anisotropy: 0.0,
        }
    }
}

/// The assembled experimental environment.
#[derive(Debug, Clone)]
pub struct Workbench {
    /// The P2P overlay.
    pub graph: Graph,
    /// The word corpus (documents and queries).
    pub corpus: Corpus,
    /// Query/gold pairs and the irrelevant pool (§V-B).
    pub queries: QuerySet,
}

impl Workbench {
    /// Builds the environment from a spec: social-circles-like graph,
    /// synthetic corpus, query generation.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures; fails if no query pair qualifies
    /// (corpus too diffuse for the cosine threshold).
    pub fn generate<R: Rng + ?Sized>(
        spec: &WorkbenchSpec,
        rng: &mut R,
    ) -> Result<Self, SearchError> {
        Self::with_graph(
            generators::social_circles_like_scaled(spec.nodes, rng)?,
            spec,
            rng,
        )
    }

    /// Builds the environment on a caller-supplied graph (e.g. the real
    /// SNAP `facebook_combined.txt` loaded through
    /// [`gdsearch_graph::io::read_edge_list_path`]).
    ///
    /// # Errors
    ///
    /// As [`Workbench::generate`].
    pub fn with_graph<R: Rng + ?Sized>(
        graph: Graph,
        spec: &WorkbenchSpec,
        rng: &mut R,
    ) -> Result<Self, SearchError> {
        let corpus = SyntheticCorpus::builder()
            .vocab_size(spec.vocab)
            .dim(spec.dim)
            .num_topics(spec.topics)
            .anisotropy(spec.anisotropy)
            .generate(rng)?;
        let queries = querygen::generate(
            &corpus,
            QueryGenConfig {
                num_queries: spec.num_queries,
                min_cosine: spec.min_cosine,
            },
            rng,
        )?;
        if queries.is_empty() {
            return Err(SearchError::invalid_parameter(
                "no query pair met the cosine threshold; densify the corpus",
            ));
        }
        Ok(Workbench {
            graph,
            corpus,
            queries,
        })
    }
}

/// One Monte-Carlo iteration's draw, shared by [`accuracy::run`] and
/// [`hops::sweep`]: a query pair picked uniformly, then the words of
/// `total_docs` documents — the pair's gold word first, so the gold
/// document is `DocId` 0, then `total_docs − 1` distinct irrelevant words.
/// Returns the query word and the document words.
///
/// # Errors
///
/// Returns [`SearchError::InvalidParameter`], before any draw, for zero
/// documents or an irrelevant pool smaller than `total_docs − 1`.
#[expect(
    clippy::indexing_slicing,
    reason = "the pair index is drawn below pairs.len()"
)]
fn draw_documents<R: Rng + ?Sized>(
    workbench: &Workbench,
    total_docs: usize,
    rng: &mut R,
) -> Result<(WordId, Vec<WordId>), SearchError> {
    let irrelevant = workbench.queries.irrelevant();
    let Some(irrelevant_needed) = total_docs.checked_sub(1) else {
        return Err(SearchError::invalid_parameter(
            "total_docs must be positive",
        ));
    };
    if irrelevant.len() < irrelevant_needed {
        return Err(SearchError::invalid_parameter(format!(
            "irrelevant pool ({}) cannot supply {irrelevant_needed} documents",
            irrelevant.len()
        )));
    }
    let pairs = workbench.queries.pairs();
    let pair = pairs[rng.random_range(0..pairs.len())];
    let mut words = Vec::with_capacity(total_docs);
    words.push(pair.gold);
    words.extend(irrelevant.choose_multiple(rng, irrelevant_needed).copied());
    Ok((pair.query, words))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ci_scale_workbench_builds() {
        let mut rng = StdRng::seed_from_u64(1);
        let wb = Workbench::generate(&WorkbenchSpec::ci_scale(), &mut rng).unwrap();
        assert_eq!(wb.graph.num_nodes(), 300);
        assert_eq!(wb.corpus.len(), 800);
        assert!(!wb.queries.is_empty());
        assert!(wb.queries.check_disjoint());
    }

    #[test]
    fn with_graph_uses_supplied_topology() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::grid(10, 10);
        let wb = Workbench::with_graph(g, &WorkbenchSpec::ci_scale(), &mut rng).unwrap();
        assert_eq!(wb.graph.num_nodes(), 100);
    }
}
