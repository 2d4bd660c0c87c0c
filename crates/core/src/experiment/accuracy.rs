//! Fig. 3 reproduction: hit accuracy vs. query-to-gold distance (§V-C).
//!
//! Protocol, following the paper exactly:
//!
//! > "In each iteration, we store one gold and M−1 irrelevant documents in
//! > the network, and sample multiple querying nodes, one from each radius
//! > away from the location of the gold document. At the end of simulation,
//! > the accuracy is computed as the percentage of queries that retrieved
//! > the gold document within a TTL of 50 hops. The simulation is repeated
//! > for three different values of α, 0.1, 0.5, and 0.9."

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_graph::algo::bfs;
use rand::Rng;

use crate::config::SchemeConfigBuilder;
use crate::experiment::{draw_documents, Workbench};
use crate::{walk, Placement, SchemeConfig, SearchError, SearchNetwork};

/// Parameters of one Fig. 3 subplot (fixed document count `M`).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyConfig {
    /// Total documents `M` in the network (1 gold + M−1 irrelevant).
    pub total_docs: usize,
    /// Teleport probabilities to sweep (paper: 0.1, 0.5, 0.9).
    pub alphas: Vec<f32>,
    /// Largest query-to-gold distance evaluated (paper: 8).
    pub max_distance: u32,
    /// Number of placements (iterations).
    pub iterations: usize,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            total_docs: 10,
            alphas: vec![0.1, 0.5, 0.9],
            max_distance: 8,
            iterations: 100,
        }
    }
}

/// One accuracy curve: per-distance hit rates for a fixed `alpha`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracySeries {
    /// Teleport probability of this series.
    pub alpha: f32,
    /// `accuracy[d]` = hit rate of queries issued at distance `d`.
    pub accuracy: Vec<f64>,
    /// `samples[d]` = number of queries issued at distance `d`.
    pub samples: Vec<usize>,
}

/// Full result of one Fig. 3 subplot.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyResult {
    /// Document count `M` of the subplot.
    pub total_docs: usize,
    /// One series per `alpha`.
    pub series: Vec<AccuracySeries>,
}

/// Runs the accuracy experiment on a prepared workbench.
///
/// `base` supplies everything but `alpha` (TTL, policy, tolerance, …); the
/// paper's setting is `SchemeConfig::default()`.
///
/// # Errors
///
/// Returns [`SearchError::InvalidParameter`] for zero documents or
/// iterations, an irrelevant pool that cannot supply `total_docs − 1`
/// documents or an invalid alpha, plus any substrate failure.
pub fn run<R: Rng + ?Sized>(
    workbench: &Workbench,
    config: &AccuracyConfig,
    base: &SchemeConfig,
    rng: &mut R,
) -> Result<AccuracyResult, SearchError> {
    if config.iterations == 0 {
        return Err(SearchError::invalid_parameter(
            "iterations must be positive",
        ));
    }
    let distances = config.max_distance as usize + 1;
    let mut hits = vec![vec![0usize; distances]; config.alphas.len()];
    let mut samples = vec![vec![0usize; distances]; config.alphas.len()];

    for _ in 0..config.iterations {
        let (query, words) = draw_documents(workbench, config.total_docs, rng)?;
        let placement = Placement::uniform(&workbench.graph, &words, rng)?;
        let gold_host = placement.host(0);
        // Distance rings around the gold host are alpha-independent.
        let rings = bfs::distance_rings(&workbench.graph, gold_host, config.max_distance);
        // Pre-pick one querying node per non-empty ring so every alpha
        // faces the same starts.
        let starts: Vec<Option<gdsearch_graph::NodeId>> = rings
            .iter()
            .map(|ring| {
                if ring.is_empty() {
                    None
                } else {
                    Some(ring[rng.random_range(0..ring.len())])
                }
            })
            .collect();
        let query_embedding = workbench.corpus.embedding(query);

        for (ai, &alpha) in config.alphas.iter().enumerate() {
            let scheme_config = rebuild_with_alpha(base, alpha)?;
            let network = SearchNetwork::build(
                &workbench.graph,
                &workbench.corpus,
                &placement,
                &scheme_config,
                rng,
            )?;
            for (d, start) in starts.iter().enumerate() {
                let Some(start) = start else { continue };
                let outcome = walk::run(&network, query_embedding, *start, rng)?;
                samples[ai][d] += 1;
                if outcome.contains(0) {
                    hits[ai][d] += 1;
                }
            }
        }
    }

    let series = config
        .alphas
        .iter()
        .enumerate()
        .map(|(ai, &alpha)| AccuracySeries {
            alpha,
            accuracy: (0..distances)
                .map(|d| {
                    if samples[ai][d] == 0 {
                        0.0
                    } else {
                        hits[ai][d] as f64 / samples[ai][d] as f64
                    }
                })
                .collect(),
            samples: samples[ai].clone(),
        })
        .collect();
    Ok(AccuracyResult {
        total_docs: config.total_docs,
        series,
    })
}

/// Clones `base` with a different teleport probability.
fn rebuild_with_alpha(base: &SchemeConfig, alpha: f32) -> Result<SchemeConfig, SearchError> {
    SchemeConfigBuilder {
        config: base.clone(),
    }
    .alpha(alpha)
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::WorkbenchSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_workbench(seed: u64) -> Workbench {
        let mut rng = StdRng::seed_from_u64(seed);
        Workbench::generate(&WorkbenchSpec::ci_scale(), &mut rng).unwrap()
    }

    #[test]
    fn produces_well_formed_series() {
        let wb = small_workbench(1);
        let cfg = AccuracyConfig {
            total_docs: 5,
            alphas: vec![0.5, 0.9],
            max_distance: 4,
            iterations: 4,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let result = run(&wb, &cfg, &SchemeConfig::default(), &mut rng).unwrap();
        assert_eq!(result.series.len(), 2);
        for s in &result.series {
            assert_eq!(s.accuracy.len(), 5);
            assert_eq!(s.samples.len(), 5);
            for (d, acc) in s.accuracy.iter().enumerate() {
                assert!((0.0..=1.0).contains(acc), "alpha {} d {d}", s.alpha);
            }
        }
    }

    #[test]
    fn distance_zero_is_always_a_hit() {
        // The querying node hosts the gold document: local retrieval finds
        // it at hop 0 regardless of alpha.
        let wb = small_workbench(3);
        let cfg = AccuracyConfig {
            total_docs: 5,
            alphas: vec![0.5],
            max_distance: 2,
            iterations: 6,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let result = run(&wb, &cfg, &SchemeConfig::default(), &mut rng).unwrap();
        assert_eq!(result.series[0].accuracy[0], 1.0);
    }

    #[test]
    fn accuracy_declines_with_distance() {
        // The paper's headline shape, at CI scale: distance-1 accuracy
        // should beat far-distance accuracy.
        let wb = small_workbench(5);
        let cfg = AccuracyConfig {
            total_docs: 10,
            alphas: vec![0.5],
            max_distance: 6,
            iterations: 25,
        };
        let mut rng = StdRng::seed_from_u64(6);
        let result = run(&wb, &cfg, &SchemeConfig::default(), &mut rng).unwrap();
        let s = &result.series[0];
        let near = s.accuracy[1];
        let far = s.accuracy[5].max(s.accuracy[6]);
        assert!(
            near >= far,
            "near accuracy {near} should be at least far accuracy {far}: {:?}",
            s.accuracy
        );
    }

    #[test]
    fn validates_inputs() {
        let wb = small_workbench(7);
        let mut rng = StdRng::seed_from_u64(8);
        let bad_docs = AccuracyConfig {
            total_docs: 0,
            ..AccuracyConfig::default()
        };
        assert!(run(&wb, &bad_docs, &SchemeConfig::default(), &mut rng).is_err());
        let too_many = AccuracyConfig {
            total_docs: 10_000_000,
            ..AccuracyConfig::default()
        };
        assert!(run(&wb, &too_many, &SchemeConfig::default(), &mut rng).is_err());
        let zero_iters = AccuracyConfig {
            iterations: 0,
            ..AccuracyConfig::default()
        };
        assert!(run(&wb, &zero_iters, &SchemeConfig::default(), &mut rng).is_err());
    }
}
