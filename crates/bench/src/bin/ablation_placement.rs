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

use gdsearch::Placement;
use gdsearch_bench::{Ablation, Args};

fn main() {
    let args = Args::from_env();
    let localities: Vec<f64> = args.get_list_or("localities", &[0.0, 0.5, 0.9]);
    let radius: u32 = args.get_or("radius", 1);
    let ablation = Ablation::from_args(&args, 200, "placement", false);
    ablation.print_header(&format!(
        "# Ablation: document distribution — M = {}, alpha = {}, ttl = {}, radius = {radius}",
        ablation.sweep.total_docs, ablation.alpha, ablation.ttl
    ));
    ablation.run_uniform("uniform (paper)", ablation.scheme());
    // Locality 0 is the uniform baseline above.
    for locality in localities.into_iter().filter(|&l| l != 0.0) {
        let wb = &ablation.workbench;
        ablation.run(
            &format!("correlated, locality {locality}"),
            ablation.scheme(),
            |words, rng| {
                Placement::topic_correlated(&wb.graph, &wb.corpus, words, locality, radius, rng)
            },
        );
    }
}
