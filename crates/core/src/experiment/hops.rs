//! Table I reproduction: hop-count analysis of successful walks (§V-D).
//! One Monte-Carlo sweep ([`sweep`]) runs it; Table I runs it with
//! uniform placement and renders each row from the [`SweepOutcome`] and
//! [`hop_stats`], and the walk ablations
//! (parallel walks, forwarding policies, document placement, aggregation)
//! run it with their own scheme settings and placements.
//!
//! Protocol, following the paper:
//!
//! > "we execute 500 iterations in each of which we distribute 10 queries
//! > uniformly in the network, for a total of 5000 samples. We also choose
//! > the value 0.5 for the teleport probability α, scale the number of
//! > documents for 10 to 10000, and randomize the document distribution at
//! > each iteration."
//!
//! A walk is successful when it retrieves the gold document within the
//! TTL; for successful walks the hop at which the gold host was first
//! visited is recorded.

#![expect(
    clippy::cast_possible_truncation,
    reason = "a Graph's node count fits u32: every constructor takes it as a u32"
)]

use gdsearch_embed::WordId;
use rand::Rng;

use crate::experiment::{draw_documents, Workbench};
use crate::metrics::hop_stats;
use crate::{walk, Placement, SchemeConfig, SearchError, SearchNetwork};

/// Parameters of one sweep: one Table I row (fixed document count `M`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopCountConfig {
    /// Total documents `M` in the network.
    pub total_docs: usize,
    /// Number of placements (paper: 500).
    pub iterations: usize,
    /// Queries issued per placement from uniform random nodes (paper: 10).
    pub queries_per_iteration: usize,
}

/// What a [`sweep`] of uniformly started walks observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepOutcome {
    /// Walks issued.
    pub samples: usize,
    /// Forward messages spent across all walks.
    pub total_messages: u64,
    /// Hop at which each successful walk reached the gold host, in walk
    /// order.
    pub success_hops: Vec<u32>,
}

impl SweepOutcome {
    /// Walks that retrieved the gold document.
    pub fn successes(&self) -> usize {
        self.success_hops.len()
    }

    /// Success rate over issued walks.
    pub fn success_rate(&self) -> f64 {
        per_sample(self.successes() as f64, self.samples)
    }

    /// Mean messages per walk.
    pub fn mean_messages(&self) -> f64 {
        per_sample(self.total_messages as f64, self.samples)
    }

    /// Mean hop count of successful walks, if any.
    pub fn mean_success_hops(&self) -> Option<f64> {
        hop_stats(&self.success_hops).map(|s| s.mean)
    }
}

/// `total` per sample; 0 without samples.
fn per_sample(total: f64, samples: usize) -> f64 {
    if samples == 0 {
        0.0
    } else {
        total / samples as f64
    }
}

/// Runs `config.iterations` placements × `config.queries_per_iteration`
/// walks from uniformly drawn nodes under `scheme`. Each iteration draws a
/// query pair with one gold and `total_docs − 1` irrelevant documents
/// (the gold document is `DocId` 0), hosts them where `place` puts them
/// and builds the network.
///
/// # Errors
///
/// Returns [`SearchError::InvalidParameter`] for zero documents,
/// iterations or queries, or an irrelevant pool smaller than
/// `total_docs − 1`; plus placement, build and walk failures.
pub fn sweep<R, F>(
    workbench: &Workbench,
    config: &HopCountConfig,
    scheme: &SchemeConfig,
    rng: &mut R,
    mut place: F,
) -> Result<SweepOutcome, SearchError>
where
    R: Rng + ?Sized,
    F: FnMut(&[WordId], &mut R) -> Result<Placement, SearchError>,
{
    if config.iterations == 0 || config.queries_per_iteration == 0 {
        return Err(SearchError::invalid_parameter(
            "iterations and queries_per_iteration must be positive",
        ));
    }
    let n = workbench.graph.num_nodes() as u32;
    let mut outcome = SweepOutcome::default();
    for _ in 0..config.iterations {
        let (query, words) = draw_documents(workbench, config.total_docs, rng)?;
        let placement = place(&words, rng)?;
        let network =
            SearchNetwork::build(&workbench.graph, &workbench.corpus, &placement, scheme, rng)?;
        let query_embedding = workbench.corpus.embedding(query);
        for _ in 0..config.queries_per_iteration {
            let start = gdsearch_graph::NodeId::new(rng.random_range(0..n));
            let walk = walk::run(&network, query_embedding, start, rng)?;
            outcome.samples += 1;
            outcome.total_messages += u64::from(walk.hops);
            if let Some(hop) = walk.hop_of(0) {
                outcome.success_hops.push(hop);
            }
        }
    }
    Ok(outcome)
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

    /// Table I's sweep: uniform placement from `seed`.
    fn uniform_sweep(
        wb: &Workbench,
        config: &HopCountConfig,
        scheme: &SchemeConfig,
        seed: u64,
    ) -> Result<SweepOutcome, SearchError> {
        let mut rng = StdRng::seed_from_u64(seed);
        sweep(wb, config, scheme, &mut rng, |words, r| {
            Placement::uniform(&wb.graph, words, r)
        })
    }

    #[test]
    fn produces_consistent_counts() {
        let wb = small_workbench(1);
        let cfg = HopCountConfig {
            total_docs: 5,
            iterations: 10,
            queries_per_iteration: 4,
        };
        let outcome = uniform_sweep(&wb, &cfg, &SchemeConfig::default(), 2).unwrap();
        assert_eq!(outcome.samples, 40);
        assert!(outcome.successes() <= outcome.samples);
        assert!((0.0..=1.0).contains(&outcome.success_rate()));
        if outcome.successes() > 0 {
            assert!(hop_stats(&outcome.success_hops).is_some());
            assert!(outcome.mean_success_hops().unwrap() >= 0.0);
        }
    }

    #[test]
    fn some_walks_succeed_at_ci_scale() {
        let wb = small_workbench(3);
        let cfg = HopCountConfig {
            total_docs: 5,
            iterations: 15,
            queries_per_iteration: 5,
        };
        let outcome = uniform_sweep(&wb, &cfg, &SchemeConfig::default(), 4).unwrap();
        assert!(
            outcome.successes() > 0,
            "guided walks on a 300-node graph with TTL 50 must find some gold"
        );
    }

    #[test]
    fn validates_inputs() {
        let wb = small_workbench(5);
        for bad in [
            HopCountConfig {
                total_docs: 0,
                iterations: 1,
                queries_per_iteration: 1,
            },
            HopCountConfig {
                total_docs: 5,
                iterations: 0,
                queries_per_iteration: 1,
            },
            HopCountConfig {
                total_docs: 5,
                iterations: 1,
                queries_per_iteration: 0,
            },
            HopCountConfig {
                total_docs: 10_000_000,
                iterations: 1,
                queries_per_iteration: 1,
            },
        ] {
            assert!(uniform_sweep(&wb, &bad, &SchemeConfig::default(), 6).is_err());
        }
    }

    #[test]
    fn empty_success_set_reports_none() {
        // TTL 1 with a tiny document count on a 300-node graph: most walks
        // fail; with an adversarial seed all of them may. Check the
        // None-propagation path with an impossible TTL either way.
        let wb = small_workbench(7);
        let cfg = HopCountConfig {
            total_docs: 2,
            iterations: 2,
            queries_per_iteration: 2,
        };
        let base = SchemeConfig::builder().ttl(1).build().unwrap();
        let outcome = uniform_sweep(&wb, &cfg, &base, 8).unwrap();
        if outcome.successes() == 0 {
            assert!(hop_stats(&outcome.success_hops).is_none());
            assert!(outcome.mean_success_hops().is_none());
        }
    }
}
