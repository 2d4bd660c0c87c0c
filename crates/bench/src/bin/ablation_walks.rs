//! **Ablation C — parallel walks.** The paper evaluates a single random
//! walk ("the most challenging case") and notes the scheme "can be easily
//! extended to parallel walks" (§V-B). This binary quantifies that
//! extension: success rate vs. message cost for fanout 1, 2 and 4.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_walks -- \
//!     --docs 100 --iterations 30 --queries 10 --fanouts 1,2,4
//! ```

use gdsearch_bench::{Ablation, Args};

fn main() {
    let args = Args::from_env();
    let fanouts: Vec<usize> = args.get_list_or("fanouts", &[1, 2, 4]);
    let ablation = Ablation::from_args(&args, 100, "fanout", true);
    ablation.print_header(&format!(
        "# Ablation: parallel walks — M = {}, alpha = {}, ttl = {}",
        ablation.sweep.total_docs, ablation.alpha, ablation.ttl
    ));
    for fanout in fanouts {
        ablation.run_uniform(&fanout.to_string(), ablation.scheme().fanout(fanout));
    }
}
