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

use gdsearch::PolicyKind;
use gdsearch_bench::{Ablation, Args};

fn main() {
    let args = Args::from_env();
    let flood_ttl: u32 = args.get_or("flood-ttl", 3);
    let ablation = Ablation::from_args(&args, 100, "policy", true);
    let ttl = ablation.ttl;
    ablation.print_header(&format!(
        "# Ablation: forwarding policies — M = {}, ttl = {ttl} (flooding: {flood_ttl}), alpha = {}",
        ablation.sweep.total_docs, ablation.alpha
    ));
    for (name, policy, policy_ttl) in [
        ("ppr-greedy (paper)", PolicyKind::PprGreedy, ttl),
        ("random walk", PolicyKind::RandomWalk, ttl),
        ("degree-biased", PolicyKind::DegreeBiased, ttl),
        ("hybrid ε=0.2", PolicyKind::Hybrid { epsilon: 0.2 }, ttl),
        ("flooding", PolicyKind::Flooding, flood_ttl),
    ] {
        ablation.run_uniform(name, ablation.scheme().policy(policy).ttl(policy_ttl));
    }
}
