//! Reproduces **Fig. 3** of the paper: hit accuracy vs. query-to-gold
//! distance, per document count `M` and teleport probability `α`.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin fig3                 # all four subplots
//! cargo run -p gdsearch-bench --release --bin fig3 -- --docs 1000  # one subplot
//! cargo run -p gdsearch-bench --release --bin fig3 -- \
//!     --iterations 100 --alphas 0.1,0.5,0.9 --dim 64 --seed 2022 \
//!     --csv target/fig3.csv
//! ```
//!
//! With `--graph path/to/facebook_combined.txt` the real SNAP graph is
//! used instead of the calibrated synthetic one.

// Harness code: wall-clock timing is progress reporting, not a result.
#![allow(clippy::disallowed_methods)]

use gdsearch::experiment::{accuracy, report};
use gdsearch::SchemeConfig;
use gdsearch_bench::{maybe_write_csv, or_exit, workbench_from_args, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let doc_counts: Vec<usize> = match args.get("docs") {
        Some(_) => vec![args.get_or("docs", 10)],
        None => vec![10, 100, 1000, 10_000],
    };
    let alphas: Vec<f32> = args.get_list_or("alphas", &[0.1, 0.5, 0.9]);
    let iterations: usize = args.get_or("iterations", 50);
    let max_distance: u32 = args.get_or("max-distance", 8);
    let ttl: u32 = args.get_or("ttl", 50);
    let seed: u64 = args.get_or("seed", 2022);

    let max_docs = doc_counts.iter().copied().max().unwrap_or(10);
    let workbench = workbench_from_args(&args, max_docs + 2000);
    println!(
        "# Fig. 3 reproduction — graph: {} nodes / {} edges, corpus: {} words ({}-d), {} query pairs",
        workbench.graph.num_nodes(),
        workbench.graph.num_edges(),
        workbench.corpus.len(),
        workbench.corpus.dim(),
        workbench.queries.len()
    );
    println!("# iterations = {iterations}, ttl = {ttl}, alphas = {alphas:?}, seed = {seed}\n");

    let base = or_exit(SchemeConfig::builder().ttl(ttl).build(), "invalid --ttl");
    let mut csv = String::new();
    for (i, &docs) in doc_counts.iter().enumerate() {
        let cfg = accuracy::AccuracyConfig {
            total_docs: docs,
            alphas: alphas.clone(),
            max_distance,
            iterations,
        };
        // Independent stream per subplot so adding one subplot does not
        // shift the others.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let started = std::time::Instant::now();
        let result = or_exit(
            accuracy::run(&workbench, &cfg, &base, &mut rng),
            format_args!("subplot M = {docs} failed"),
        );
        println!("{}", report::accuracy_markdown(&result));
        println!(
            "_({} placements in {:.1}s)_\n",
            iterations,
            started.elapsed().as_secs_f64()
        );
        if csv.is_empty() {
            csv = report::accuracy_csv(&result);
        } else {
            // Skip the duplicate header on subsequent subplots.
            let body = report::accuracy_csv(&result);
            csv.push_str(body.split_once('\n').map(|(_, b)| b).unwrap_or(""));
        }
    }
    maybe_write_csv(&args, &csv);
}
