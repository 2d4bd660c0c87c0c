//! **Ablation A — personalization aggregation.** The paper's §VI calls
//! "more sophisticated aggregation methods" its current line of research;
//! this binary compares the paper's sum against mean, L2-normalized and
//! degree-scaled aggregation on the standard uniform-query protocol.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_aggregation -- \
//!     --docs 1000 --iterations 30 --queries 10
//! ```

use gdsearch::Aggregation;
use gdsearch_bench::{Ablation, Args};

fn main() {
    let args = Args::from_env();
    let ablation = Ablation::from_args(&args, 1000, "aggregation", false);
    ablation.print_header(&format!(
        "# Ablation: personalization aggregation — M = {}, alpha = {}, ttl = {}",
        ablation.sweep.total_docs, ablation.alpha, ablation.ttl
    ));
    for (name, aggregation) in [
        ("sum (paper)", Aggregation::Sum),
        ("mean", Aggregation::Mean),
        ("l2-normalized", Aggregation::L2Normalized),
        ("degree-scaled", Aggregation::DegreeScaled),
    ] {
        ablation.run_uniform(name, ablation.scheme().aggregation(aggregation));
    }
}
