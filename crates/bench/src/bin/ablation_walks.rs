//! **Ablation C — parallel walks.** The paper evaluates a single random
//! walk ("the most challenging case") and notes the scheme "can be easily
//! extended to parallel walks" (§V-B). This binary quantifies that
//! extension: success rate vs. message cost for fanout 1, 2 and 4.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_walks -- \
//!     --docs 100 --iterations 30 --queries 10 --fanouts 1,2,4
//! ```

use gdsearch::experiment::hops::{self, HopCountConfig};
use gdsearch::{Placement, SchemeConfig};
use gdsearch_bench::{workbench_from_args, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let docs: usize = args.get_or("docs", 100);
    let iterations: usize = args.get_or("iterations", 30);
    let queries: usize = args.get_or("queries", 10);
    let fanouts: Vec<usize> = args.get_list_or("fanouts", &[1, 2, 4]);
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
    println!("# Ablation: parallel walks — M = {docs}, alpha = {alpha}, ttl = {ttl}");
    println!("| fanout | success rate | mean messages / query | mean hops to gold |");
    println!("|---|---|---|---|");

    for fanout in fanouts {
        let config = SchemeConfig::builder()
            .alpha(alpha)
            .ttl(ttl)
            .fanout(fanout)
            .build()
            .expect("valid configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = hops::sweep(&workbench, &sweep, &config, &mut rng, |words, r| {
            Placement::uniform(&workbench.graph, words, r)
        })
        .unwrap_or_else(|e| {
            eprintln!("fanout {fanout} failed: {e}");
            std::process::exit(1);
        });
        println!(
            "| {fanout} | {:.3} ({}/{}) | {:.1} | {} |",
            outcome.success_rate(),
            outcome.successes(),
            outcome.samples,
            outcome.mean_messages(),
            outcome
                .mean_success_hops()
                .map(|h| format!("{h:.2}"))
                .unwrap_or_else(|| "–".into()),
        );
    }
}
