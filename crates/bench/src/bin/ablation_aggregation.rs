//! **Ablation A — personalization aggregation.** The paper's §VI calls
//! "more sophisticated aggregation methods" its current line of research;
//! this binary compares the paper's sum against mean, L2-normalized and
//! degree-scaled aggregation on the standard uniform-query protocol.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_aggregation -- \
//!     --docs 1000 --iterations 30 --queries 10
//! ```

use gdsearch::experiment::hops::{self, HopCountConfig};
use gdsearch::{Aggregation, Placement, SchemeConfig};
use gdsearch_bench::{workbench_from_args, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let docs: usize = args.get_or("docs", 1000);
    let iterations: usize = args.get_or("iterations", 30);
    let queries: usize = args.get_or("queries", 10);
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
    println!("# Ablation: personalization aggregation — M = {docs}, alpha = {alpha}, ttl = {ttl}");
    println!("| aggregation | success rate | mean hops to gold |");
    println!("|---|---|---|");

    for (name, aggregation) in [
        ("sum (paper)", Aggregation::Sum),
        ("mean", Aggregation::Mean),
        ("l2-normalized", Aggregation::L2Normalized),
        ("degree-scaled", Aggregation::DegreeScaled),
    ] {
        let config = SchemeConfig::builder()
            .alpha(alpha)
            .ttl(ttl)
            .aggregation(aggregation)
            .build()
            .expect("valid configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = hops::sweep(&workbench, &sweep, &config, &mut rng, |words, r| {
            Placement::uniform(&workbench.graph, words, r)
        })
        .unwrap_or_else(|e| {
            eprintln!("aggregation {name} failed: {e}");
            std::process::exit(1);
        });
        println!(
            "| {name} | {:.3} ({}/{}) | {} |",
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
