//! **Ablation S — graph sharding.** Partitions large graphs by node range
//! ([`gdsearch_graph::ShardedGraph`]) and measures what the sharded
//! diffusion engines deliver: per-shard adjacency memory versus the ideal
//! `total / shards` split (plus the halo overhead that pays for it),
//! wall-clock of the sharded power sweep and sharded push, and a bitwise
//! check that every shard count produces identical scores.
//!
//! The default workload is the ROADMAP's 10⁶-node target on both a
//! Barabási–Albert graph (hub-heavy, large halos) and a ring (the
//! best-case partition: two cut edges per shard):
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_sharding -- \
//!     --nodes 1000000 --dim 8 --shards 1,2,4,8 --threads 4 \
//!     --alpha 0.5 --tolerance 1e-5
//! ```
//!
//! The process exits nonzero if any shard's adjacency memory exceeds
//! `total_csr_bytes / shards + halo_bytes` or any sharded result drifts
//! from the unsharded reference — so CI can run it as a smoke test.

use gdsearch_bench::{timed, Args};
use gdsearch_diffusion::sharded::{self, ShardedConfig};
use gdsearch_diffusion::{power, PprConfig, Signal};
use gdsearch_graph::{generators, Graph, NodeId, ShardedGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kb(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

#[allow(clippy::too_many_lines)]
fn run_family(name: &str, graph: &Graph, args: &Args) -> bool {
    let dim: usize = args.get_or("dim", 8);
    let shard_counts: Vec<usize> = args.get_list_or("shards", &[1usize, 2, 4, 8]);
    let threads: usize = args.get_or(
        "threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let alpha: f32 = args.get_or("alpha", 0.5);
    let tolerance: f32 = args.get_or("tolerance", 1e-5);
    let n = graph.num_nodes();
    let ppr = PprConfig::new(alpha)
        .expect("valid alpha")
        .with_tolerance(tolerance)
        .expect("valid tolerance");

    println!(
        "\n## {name}: N = {n}, E = {} (mean degree {:.1})",
        graph.num_edges(),
        graph.mean_degree()
    );

    // A mid-range source: its diffusion crosses shard boundaries in both
    // directions whatever the partition.
    let source = NodeId::new((n as u32 / 2).max(1) - 1);

    // The byte-balanced partitioner guarantees per-shard adjacency within
    // total/S plus one unsplittable row (and the sentinel offsets entry);
    // the memory check allows exactly that documented slack on top of the
    // halo overhead.
    let max_degree = (0..n as u32)
        .map(|u| graph.degree(NodeId::new(u)))
        .max()
        .unwrap_or(0);
    let row_slack = 2 * std::mem::size_of::<usize>() + 4 * max_degree;

    // Unsharded references.
    let mut e0 = Signal::zeros(n, dim);
    for d in 0..dim {
        e0.row_mut(source.index())[d] = 1.0 + d as f32 * 0.25;
    }
    let (dense_ms, dense_ref) =
        timed(|| power::diffuse(graph, &e0, &ppr).expect("dense diffusion"));
    let single_shard = ShardedGraph::from_graph(graph, 1).expect("single shard");
    let total_bytes = single_shard.shard(0).adjacency_bytes();
    println!(
        "total CSR: {:.0} KB; unsharded dense sweep: {dense_ms:.0} ms \
         ({} iterations); unsplittable-row slack: {row_slack} B",
        kb(total_bytes),
        dense_ref.iterations
    );
    println!();
    println!(
        "| shards | max shard adj KB | ideal KB (total/S) | max halo KB | \
         cut entries | mem ok | power ms | push ms | bitwise |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");

    let mut all_ok = true;
    let mut push_ref: Option<Vec<f32>> = None;
    for &shards in &shard_counts {
        let sharded_graph = ShardedGraph::from_graph(graph, shards).expect("partition");
        let actual_shards = sharded_graph.num_shards();
        let ideal = total_bytes / actual_shards;
        let mut mem_ok = true;
        let mut max_adj = 0usize;
        let mut max_halo = 0usize;
        let mut cut = 0usize;
        for shard in sharded_graph.shards() {
            max_adj = max_adj.max(shard.adjacency_bytes());
            max_halo = max_halo.max(shard.halo_bytes());
            cut += shard.cut_entries();
            if shard.adjacency_bytes() > ideal + shard.halo_bytes() + row_slack {
                mem_ok = false;
            }
        }
        let scfg = ShardedConfig::new(ppr)
            .with_shards(shards)
            .expect("valid shards")
            .with_threads(threads)
            .expect("valid threads");
        let (power_ms, power_out) = timed(|| {
            sharded::diffuse_partitioned(&sharded_graph, &e0, &scfg).expect("sharded power")
        });
        let (push_ms, push_out) = timed(|| {
            sharded::ppr_vector_partitioned(&sharded_graph, source, &scfg).expect("sharded push")
        });
        let power_bitwise = power_out.signal.as_slice() == dense_ref.signal.as_slice();
        let push_bitwise = match &push_ref {
            Some(reference) => &push_out == reference,
            None => {
                push_ref = Some(push_out);
                true
            }
        };
        let bitwise = power_bitwise && push_bitwise;
        all_ok &= mem_ok && bitwise;
        println!(
            "| {actual_shards} | {:.0} | {:.0} | {:.0} | {cut} | {} | {power_ms:.0} | \
             {push_ms:.0} | {} |",
            kb(max_adj),
            kb(ideal),
            kb(max_halo),
            if mem_ok { "yes" } else { "NO" },
            if bitwise { "yes" } else { "NO" },
        );
    }
    all_ok
}

fn main() {
    let args = Args::from_env();
    let nodes: u32 = args.get_or("nodes", 1_000_000);
    let seed: u64 = args.get_or("seed", 2022);
    let family = args.get("family").unwrap_or("both").to_string();

    println!("# Ablation: graph sharding — diffusion on partitioned state");

    let mut ok = true;
    if family == "both" || family == "ba" {
        let mut rng = StdRng::seed_from_u64(seed);
        let (gen_ms, graph) =
            timed(|| generators::barabasi_albert(nodes, 5, &mut rng).expect("valid BA parameters"));
        println!("\n(BA generation: {gen_ms:.0} ms)");
        ok &= run_family("Barabási–Albert m=5", &graph, &args);
    }
    if family == "both" || family == "ring" {
        let graph = generators::ring(nodes).expect("valid ring size");
        ok &= run_family("ring", &graph, &args);
    }
    if !ok {
        eprintln!("sharding ablation FAILED: memory bound or bitwise check violated");
        std::process::exit(1);
    }
    println!("\nAll shard counts met the memory bound and produced identical scores.");
}
