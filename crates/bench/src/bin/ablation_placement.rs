//! **Ablation D — document distribution.** The paper's conclusion
//! conjectures that realistic, spatially-correlated document distributions
//! "are expected to aid diffusion" (§V-B). This binary tests the
//! conjecture: uniform placement vs. topic-correlated placement at several
//! locality strengths.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_placement -- \
//!     --docs 200 --iterations 30 --queries 10 --localities 0.0,0.5,0.9
//! ```

use gdsearch::experiment::hops::{self, HopCountConfig};
use gdsearch::{Placement, SchemeConfig};
use gdsearch_bench::{workbench_from_args, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let docs: usize = args.get_or("docs", 200);
    let iterations: usize = args.get_or("iterations", 30);
    let queries: usize = args.get_or("queries", 10);
    let localities: Vec<f64> = args.get_list_or("localities", &[0.0, 0.5, 0.9]);
    let radius: u32 = args.get_or("radius", 1);
    let ttl: u32 = args.get_or("ttl", 50);
    let alpha: f32 = args.get_or("alpha", 0.5);
    let seed: u64 = args.get_or("seed", 2022);

    let workbench = match workbench_from_args(&args, docs + 2000) {
        Ok(wb) => wb,
        Err(e) => {
            eprintln!("failed to build workbench: {e}");
            std::process::exit(1);
        }
    };
    let sweep = HopCountConfig {
        total_docs: docs,
        iterations,
        queries_per_iteration: queries,
    };
    println!(
        "# Ablation: document distribution — M = {docs}, alpha = {alpha}, ttl = {ttl}, radius = {radius}"
    );
    println!("| placement | success rate | mean hops to gold |");
    println!("|---|---|---|");

    let config = SchemeConfig::builder()
        .alpha(alpha)
        .ttl(ttl)
        .build()
        .expect("valid configuration");

    // Uniform baseline.
    let mut rng = StdRng::seed_from_u64(seed);
    let uniform = hops::sweep(&workbench, &sweep, &config, &mut rng, |words, r| {
        Placement::uniform(&workbench.graph, words, r)
    })
    .unwrap_or_else(|e| {
        eprintln!("uniform placement failed: {e}");
        std::process::exit(1);
    });
    println!(
        "| uniform (paper) | {:.3} ({}/{}) | {} |",
        uniform.success_rate(),
        uniform.successes(),
        uniform.samples,
        uniform
            .mean_success_hops()
            .map(|h| format!("{h:.2}"))
            .unwrap_or_else(|| "–".into()),
    );

    for locality in localities {
        if locality == 0.0 {
            continue; // identical to uniform
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = hops::sweep(&workbench, &sweep, &config, &mut rng, |words, r| {
            Placement::topic_correlated(
                &workbench.graph,
                &workbench.corpus,
                words,
                locality,
                radius,
                r,
            )
        })
        .unwrap_or_else(|e| {
            eprintln!("correlated placement (locality {locality}) failed: {e}");
            std::process::exit(1);
        });
        println!(
            "| correlated, locality {locality} | {:.3} ({}/{}) | {} |",
            outcome.success_rate(),
            outcome.successes(),
            outcome.samples,
            outcome
                .mean_success_hops()
                .map(|h| format!("{h:.2}"))
                .unwrap_or_else(|| "–".into()),
        );
    }
}
