//! Reproduces **Table I** of the paper: success rate and hop-count
//! statistics of successful walks, at `α = 0.5`, across document counts.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin table1
//! cargo run -p gdsearch-bench --release --bin table1 -- \
//!     --iterations 500 --queries 10 --docs 10,100,1000,10000 \
//!     --csv target/table1.csv
//! ```
//!
//! The paper uses 500 iterations × 10 queries = 5,000 samples per row;
//! the default here is 100 × 10 = 1,000 samples so the table regenerates
//! in minutes — pass `--iterations 500` for the full protocol.

// Harness code: wall-clock timing is progress reporting, not a result.
#![allow(clippy::disallowed_methods)]

use gdsearch::experiment::{hops, report};
use gdsearch::{Placement, SchemeConfig};
use gdsearch_bench::{maybe_write_csv, or_exit, workbench_from_args, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let doc_counts: Vec<usize> = args.get_list_or("docs", &[10, 100, 1000, 10_000]);
    let iterations: usize = args.get_or("iterations", 100);
    let queries_per_iteration: usize = args.get_or("queries", 10);
    let alpha: f32 = args.get_or("alpha", 0.5);
    let ttl: u32 = args.get_or("ttl", 50);
    let seed: u64 = args.get_or("seed", 2022);

    let max_docs = doc_counts.iter().copied().max().unwrap_or(10);
    let workbench = workbench_from_args(&args, max_docs + 2000);
    println!(
        "# Table I reproduction — graph: {} nodes / {} edges, corpus: {} words ({}-d)",
        workbench.graph.num_nodes(),
        workbench.graph.num_edges(),
        workbench.corpus.len(),
        workbench.corpus.dim(),
    );
    println!(
        "# alpha = {alpha}, ttl = {ttl}, {iterations} iterations x {queries_per_iteration} queries, seed = {seed}\n"
    );

    let base = SchemeConfig::builder().alpha(alpha).ttl(ttl).build();
    let base = or_exit(base, "invalid --alpha or --ttl");
    let mut rows = Vec::new();
    for (i, &docs) in doc_counts.iter().enumerate() {
        let cfg = hops::HopCountConfig {
            total_docs: docs,
            iterations,
            queries_per_iteration,
        };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let started = std::time::Instant::now();
        let outcome = hops::sweep(&workbench, &cfg, &base, &mut rng, |words, r| {
            Placement::uniform(&workbench.graph, words, r)
        });
        let outcome = or_exit(outcome, format_args!("row M = {docs} failed"));
        eprintln!(
            "M = {docs}: {}/{} successes in {:.1}s",
            outcome.successes(),
            outcome.samples,
            started.elapsed().as_secs_f64()
        );
        rows.push((docs, outcome));
    }
    println!("{}", report::hops_markdown(&rows));
    maybe_write_csv(&args, &report::hops_csv(&rows));
}
