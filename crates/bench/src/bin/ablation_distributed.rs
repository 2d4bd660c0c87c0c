//! **Ablation D — distributed sharded push.** Runs the sharded forward
//! push with every shard on its own simulated machine ([`gdsearch_dist`]):
//! cross-shard residual mass travels as wire frames over bounded links at
//! every round barrier, and this bin measures what the interconnect costs
//! — completion time (reactor ticks and wall clock), barrier epochs, bytes
//! on the wire per epoch, and retrieval recall — across bandwidth tiers
//! from 1 KB/tick to 1 MB/tick, plus a lossy tier showing per-round
//! retransmission recovering the exact output.
//!
//! The default workload is 10⁵ nodes on both a Barabási–Albert graph
//! (hub-heavy, many peer links) and a ring (two cut edges per shard):
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_distributed -- \
//!     --nodes 100000 --dim 8 --shards 4 --threads 4 \
//!     --bandwidths 1024,8192,65536,1048576 --loss 0.2 --tolerance 1e-4
//! ```
//!
//! The process exits nonzero if any distributed result drifts bitwise
//! from the in-process sharded push, if the transport's byte accounting
//! disagrees with the driver's frame ledger, if recall@10 of the first
//! column against the in-process reference drops below 1, or if the lossy
//! tier moved frames without retransmitting one — so CI runs it as the
//! distributed smoke test.

use std::fmt::Write as _;

use gdsearch_bench::{maybe_write_csv, timed, Args};
use gdsearch_diffusion::sharded::{self, ShardedConfig};
use gdsearch_diffusion::{PprConfig, Signal};
use gdsearch_dist::DistConfig;
use gdsearch_embed::Embedding;
use gdsearch_graph::{generators, Graph, NodeId, ShardedGraph};
use gdsearch_sim::TransportConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Top-`k` node ids by score, ties broken by node id (total order, so the
/// comparison between runs is exact).
fn top_k(scores: &[f32], k: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..scores.len() as u32).collect();
    ids.sort_by(|&a, &b| {
        scores[b as usize]
            .total_cmp(&scores[a as usize])
            .then(a.cmp(&b))
    });
    ids.truncate(k);
    ids
}

/// The first column of a signal (empty for a zero-width one).
fn first_column(signal: &Signal) -> Vec<f32> {
    signal
        .as_slice()
        .iter()
        .step_by(signal.dim().max(1))
        .copied()
        .collect()
}

fn recall(reference: &[u32], got: &[f32]) -> f64 {
    let got = top_k(got, reference.len());
    let hits = reference.iter().filter(|id| got.contains(id)).count();
    hits as f64 / reference.len().max(1) as f64
}

fn run_family(name: &str, key: &str, graph: &Graph, args: &Args, csv: &mut String) -> bool {
    let dim: usize = args.get_or("dim", 8);
    let shards: usize = args.get_or("shards", 4);
    let threads: usize = args.get_or(
        "threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let alpha: f32 = args.get_or("alpha", 0.5);
    let tolerance: f32 = args.get_or("tolerance", 1e-4);
    let bandwidths: Vec<u64> = args.get_list_or("bandwidths", &[1024u64, 8192, 65536, 1024 * 1024]);
    let loss: f64 = args.get_or("loss", 0.2);
    let n = graph.num_nodes();

    let ppr = PprConfig::new(alpha)
        .expect("valid alpha")
        .with_tolerance(tolerance)
        .expect("valid tolerance");
    let scfg = ShardedConfig::new(ppr)
        .with_shards(shards)
        .expect("valid shards")
        .with_threads(threads)
        .expect("valid threads");

    println!(
        "\n## {name}: N = {n}, E = {} (mean degree {:.1}), {shards} shard machines",
        graph.num_edges(),
        graph.mean_degree()
    );

    let sharded_graph = ShardedGraph::from_graph(graph, shards).expect("partition");
    let halo_total: usize = sharded_graph
        .shards()
        .iter()
        .map(gdsearch_graph::GraphShard::halo_bytes)
        .sum();
    println!(
        "partition: {} shards, halo {:.0} KB total, peer links: {}",
        sharded_graph.num_shards(),
        halo_total as f64 / 1024.0,
        (0..sharded_graph.num_shards())
            .map(|s| sharded_graph.peers_of(s).len())
            .sum::<usize>()
            / 2,
    );

    // A mid-range source whose diffusion crosses shard boundaries.
    let source = NodeId::new((n as u32 / 2).max(1) - 1);
    let row = (0..dim).map(|d| 1.0 + d as f32 * 0.25).collect();
    let sources = [(source, Embedding::new(row))];

    // The in-process sharded reference (the distributed runs must
    // reproduce it bit for bit).
    let (ref_ms, reference) =
        timed(|| sharded::diffuse_sparse(graph, dim, &sources, &scfg).expect("in-process push"));
    let gold = top_k(&first_column(&reference), 10);
    println!("in-process reference: push {ref_ms:.0} ms");
    println!();
    println!(
        "| tier | B/tick | loss | push ms | push ticks | epochs | push B/epoch | retx | \
         recall@10 | bitwise | bytes ok |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");

    let mut all_ok = true;
    let mut tiers: Vec<(String, u64, f64)> = bandwidths
        .iter()
        .map(|&b| (format!("{} KB/tick", b / 1024), b, 0.0))
        .collect();
    // The adversarial tier: mid bandwidth with random frame loss; the
    // barrier's retransmission must still reach the exact output.
    if loss > 0.0 {
        let mid = bandwidths
            .get(bandwidths.len() / 2)
            .copied()
            .unwrap_or(65536);
        tiers.push((format!("{} KB/tick lossy", mid / 1024), mid, loss));
    }
    for (label, bandwidth, tier_loss) in tiers {
        let transport = TransportConfig::default()
            .with_bandwidth(bandwidth)
            .expect("positive bandwidth")
            .with_queue_capacity(4096)
            .expect("positive queue")
            .with_loss_probability(tier_loss)
            .expect("valid loss")
            .with_seed(args.get_or("seed", 2022));
        let dcfg = DistConfig::new(scfg).with_transport(transport);
        let (ms, out) = timed(|| gdsearch_dist::diffuse_sparse(graph, dim, &sources, &dcfg));
        let (out, stats) = match out {
            Ok(out) => out,
            Err(e) => {
                // Pad the row to the full column count so the uploaded
                // markdown report stays a valid table on failure.
                println!(
                    "| {label} | {bandwidth} | {tier_loss} | – | – | – | – | – | – | NO | NO |"
                );
                eprintln!("tier '{label}' FAILED: push: {e}");
                all_ok = false;
                continue;
            }
        };
        let bitwise = out == reference;
        let recall = recall(&gold, &first_column(&out));
        // Byte accounting is verified inside finish(); re-assert here so
        // the table column is an explicit check, not an assumption.
        let bytes_ok = stats.verify_byte_accounting().is_ok();
        let (ticks, epochs, retx) = (stats.ticks, stats.epochs, stats.retransmitted_frames);
        let loss_bit = tier_loss == 0.0 || stats.frames == 0 || retx > 0;
        if !loss_bit {
            eprintln!(
                "tier '{label}': {} frames at loss {tier_loss}, no retransmit",
                stats.frames
            );
        }
        all_ok &= bitwise && bytes_ok && recall >= 1.0 && loss_bit;
        let bytes_per_epoch = stats.frame_bytes / epochs.max(1);
        println!(
            "| {label} | {bandwidth} | {tier_loss} | {ms:.0} | {ticks} | {epochs} | \
             {bytes_per_epoch} | {retx} | {recall:.2} | {} | {} |",
            if bitwise { "yes" } else { "NO" },
            if bytes_ok { "yes" } else { "NO" },
        );
        let _ = writeln!(
            csv,
            "{key},{bandwidth},{tier_loss},{ms},{ticks},{epochs},{bytes_per_epoch},{retx},\
             {recall:.3},{bitwise},{bytes_ok}",
        );
    }
    all_ok
}

fn main() {
    let args = Args::from_env();
    let nodes: u32 = args.get_or("nodes", 100_000);
    let seed: u64 = args.get_or("seed", 2022);
    let family = args.get("family").unwrap_or("both").to_string();

    println!("# Ablation: distributed sharded push over simulated links");
    let mut csv = String::from(
        "family,bytes_per_tick,loss,push_ms,push_ticks,epochs,push_bytes_per_epoch,retransmits,\
         recall_at_10,bitwise,bytes_ok\n",
    );

    let mut ok = true;
    if family == "both" || family == "ba" {
        let mut rng = StdRng::seed_from_u64(seed);
        let (gen_ms, graph) =
            timed(|| generators::barabasi_albert(nodes, 5, &mut rng).expect("valid BA parameters"));
        println!("\n(BA generation: {gen_ms:.0} ms)");
        ok &= run_family("Barabási–Albert m=5", "ba", &graph, &args, &mut csv);
    }
    if family == "both" || family == "ring" {
        let graph = generators::ring(nodes).expect("valid ring size");
        ok &= run_family("ring", "ring", &graph, &args, &mut csv);
    }
    maybe_write_csv(&args, &csv);
    if !ok {
        eprintln!(
            "distributed ablation FAILED: bitwise, byte-accounting, recall or retransmit check violated"
        );
        std::process::exit(1);
    }
    println!("\nEvery tier reproduced the in-process sharded push bit for bit with exact byte accounting.");
}
