//! The paper's Fig. 3 shape, as accuracy bands by BFS ring around the gold
//! host, on `fig3`'s default workbench (4,039 nodes, 12,000 words in 240
//! topics, dim 64, 1,000 query pairs at cosine ≥ 0.6, anisotropy 0.3, seed
//! 2022), ttl 50, 50 placements, α ∈ {0.1, 0.5, 0.9}.
//!
//! The bands are wide on purpose: they pin what the *scheme* does, so a
//! results-changing kernel or engine re-pins its goldens against them
//! rather than against the previous bits. Paper scale takes seconds in a
//! release build and minutes in a debug one, so a debug `cargo test`
//! skips it; CI runs it with `--release`.

use gdsearch::experiment::accuracy::{self, AccuracyConfig, AccuracyResult};
use gdsearch::experiment::{Workbench, WorkbenchSpec};
use gdsearch::SchemeConfig;
use gdsearch_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `fig3`'s default workbench: its flags' defaults at `--docs` ≤ 10,000.
fn workbench() -> Workbench {
    let spec = WorkbenchSpec {
        nodes: generators::FACEBOOK_NODES,
        vocab: 12_000,
        dim: 64,
        topics: 240,
        num_queries: 1000,
        min_cosine: 0.6,
        anisotropy: 0.3,
    };
    Workbench::generate(&spec, &mut StdRng::seed_from_u64(2022)).unwrap()
}

fn subplot(workbench: &Workbench, total_docs: usize, seed: u64) -> AccuracyResult {
    let config = AccuracyConfig {
        total_docs,
        alphas: vec![0.1, 0.5, 0.9],
        max_distance: 8,
        iterations: 50,
    };
    let base = SchemeConfig::builder().ttl(50).build().unwrap();
    accuracy::run(workbench, &config, &base, &mut StdRng::seed_from_u64(seed)).unwrap()
}

/// Asserts `lo ≤ accuracy ≤ hi` in `ring` for every α.
fn band(result: &AccuracyResult, ring: usize, lo: f64, hi: f64) {
    for series in &result.series {
        let acc = series.accuracy[ring];
        assert!(
            (lo..=hi).contains(&acc),
            "M = {}, α = {}: ring {ring} accuracy {acc} outside [{lo}, {hi}] ({:?})",
            result.total_docs,
            series.alpha,
            series.accuracy
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale; CI runs it with --release")]
fn accuracy_by_ring_stays_in_the_paper_bands() {
    let workbench = workbench();
    let few = subplot(&workbench, 10, 2022);
    let many = subplot(&workbench, 1000, 2023);

    for result in [&few, &many] {
        band(result, 0, 1.0, 1.0);
        band(result, 1, 1.0, 1.0);
    }

    band(&few, 2, 0.95, 1.0);
    band(&few, 3, 0.85, 1.0);
    band(&few, 4, 0.35, 0.85);

    band(&many, 2, 0.15, 0.80);
    band(&many, 3, 0.0, 0.50);
    for ring in 5..=8 {
        band(&many, ring, 0.0, 0.10);
    }

    // Irrelevant documents only compete with the gold one for the diffused
    // signal, so more of them never help.
    for (f, m) in few.series.iter().zip(&many.series) {
        for ring in 2..=4 {
            assert!(
                m.accuracy[ring] <= f.accuracy[ring],
                "α = {}: ring {ring} accuracy at M = 1000 ({}) above M = 10 ({})",
                f.alpha,
                m.accuracy[ring],
                f.accuracy[ring]
            );
        }
    }
}
