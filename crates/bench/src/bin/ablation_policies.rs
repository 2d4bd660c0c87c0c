//! **Ablation B — forwarding policies.** Compares the paper's PPR-guided
//! greedy walk against the blind baselines its related-work section
//! discusses (uniform random walk, flooding) and two common heuristics
//! (degree-biased, ε-greedy hybrid), at equal TTL, on success rate and
//! message cost.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_policies -- \
//!     --docs 100 --iterations 30 --queries 10 --ttl 50 --flood-ttl 3
//! ```
//!
//! Flooding gets its own (much smaller) TTL: at TTL 50 it would visit the
//! entire graph and trivially win on accuracy while losing by orders of
//! magnitude on bandwidth — exactly the trade-off the paper motivates.

use gdsearch::experiment::hops::{self, HopCountConfig};
use gdsearch::{Placement, PolicyKind, SchemeConfig};
use gdsearch_bench::{workbench_from_args, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let docs: usize = args.get_or("docs", 100);
    let iterations: usize = args.get_or("iterations", 30);
    let queries: usize = args.get_or("queries", 10);
    let ttl: u32 = args.get_or("ttl", 50);
    let flood_ttl: u32 = args.get_or("flood-ttl", 3);
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
        "# Ablation: forwarding policies — M = {docs}, ttl = {ttl} (flooding: {flood_ttl}), alpha = {alpha}"
    );
    println!("| policy | success rate | mean messages / query | mean hops to gold |");
    println!("|---|---|---|---|");

    let policies: Vec<(&str, PolicyKind, u32)> = vec![
        ("ppr-greedy (paper)", PolicyKind::PprGreedy, ttl),
        ("random walk", PolicyKind::RandomWalk, ttl),
        ("degree-biased", PolicyKind::DegreeBiased, ttl),
        ("hybrid ε=0.2", PolicyKind::Hybrid { epsilon: 0.2 }, ttl),
        ("flooding", PolicyKind::Flooding, flood_ttl),
    ];
    for (name, policy, policy_ttl) in policies {
        let config = SchemeConfig::builder()
            .alpha(alpha)
            .policy(policy)
            .ttl(policy_ttl)
            .build()
            .expect("valid configuration");
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = hops::sweep(&workbench, &sweep, &config, &mut rng, |words, r| {
            Placement::uniform(&workbench.graph, words, r)
        })
        .unwrap_or_else(|e| {
            eprintln!("policy {name} failed: {e}");
            std::process::exit(1);
        });
        println!(
            "| {name} | {:.3} ({}/{}) | {:.1} | {} |",
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
