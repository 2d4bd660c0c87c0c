//! **Ablation T — link bandwidth.** The paper's argument against
//! flooding is about *bandwidth*, so this binary runs the full
//! message-passing protocol (PPR-greedy diffusion search vs. TTL-bounded
//! flooding) over the reactor with 1–100 KB/s links and compares bytes
//! moved, recall, queueing delay and backpressure drops. A row per policy
//! on `TransportConfig::unbounded()` links gives the infinite-bandwidth
//! baseline.
//!
//! ```text
//! cargo run -p gdsearch-bench --release --bin ablation_transport -- \
//!     --nodes 10000 --docs 100 --dim 64 --queries 20 --ttl 50 \
//!     --flood-ttl 3 --bandwidths 1000,10000,100000 --queue 64
//! ```
//!
//! Bandwidth is in bytes per tick; one tick is the reactor's virtual
//! second, so `--bandwidths 1000` models 1 KB/s links.

use gdsearch::experiment::report;
use gdsearch::protocol;
use gdsearch::{Placement, PolicyKind, SchemeConfig, SearchNetwork};
use gdsearch_bench::{maybe_write_csv, workbench_from_args, Args};
use gdsearch_graph::NodeId;
use gdsearch_sim::{NetStats, TransportConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One measured configuration.
struct Row {
    label: String,
    stats: NetStats,
    recall: f64,
    issued: usize,
    virtual_ticks: u64,
}

fn run_policy(
    scheme: &SearchNetwork<'_>,
    transport: TransportConfig,
    origins: &[NodeId],
    query: &gdsearch_embed::Embedding,
    ttl: u32,
    tick_budget: u64,
    label: String,
) -> Row {
    let mut net = protocol::build(scheme, transport).expect("protocol network builds");
    for (i, &origin) in origins.iter().enumerate() {
        protocol::issue_query(&mut net, origin, i as u64, query.clone(), ttl)
            .expect("origins are valid nodes");
    }
    if net.run_to_completion(tick_budget).is_err() {
        eprintln!("  [{label}] budget of {tick_budget} exhausted with work remaining");
    }
    let mut hits = 0usize;
    for (i, &origin) in origins.iter().enumerate() {
        let completed = net.handler(origin).expect("origin is valid").completed();
        if completed
            .iter()
            .any(|q| q.query_id == i as u64 && q.results.iter().any(|(doc, _, _)| *doc == 0))
        {
            hits += 1;
        }
    }
    Row {
        label,
        stats: *net.stats(),
        recall: hits as f64 / origins.len().max(1) as f64,
        issued: origins.len(),
        virtual_ticks: net.now_tick(),
    }
}

fn main() {
    let args = Args::from_env();
    let docs: usize = args.get_or("docs", 100);
    let queries: usize = args.get_or("queries", 20);
    let ttl: u32 = args.get_or("ttl", 50);
    let flood_ttl: u32 = args.get_or("flood-ttl", 3);
    let bandwidths: Vec<u64> = args.get_list_or("bandwidths", &[1_000, 10_000, 100_000]);
    let queue: usize = args.get_or("queue", 64);
    let tick_budget: u64 = args.get_or("tick-budget", 50_000_000);
    let seed: u64 = args.get_or("seed", 2022);

    let workbench = workbench_from_args(&args, docs + 50);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0074_7261_6e73);
    let n = workbench.graph.num_nodes() as u32;
    let pair = workbench.queries.pairs()[0];
    let mut words = vec![pair.gold];
    words.extend(
        workbench
            .queries
            .irrelevant()
            .iter()
            .copied()
            .take(docs.saturating_sub(1)),
    );
    let placement =
        Placement::uniform(&workbench.graph, &words, &mut rng).expect("placement fits graph");
    // Fig.-3 style conditioning: query origins start within `--origin-distance`
    // hops of the gold host (default 3), so recall is measurable for both
    // policies at this scale and the comparison is at comparable recall.
    let origin_distance: u32 = args.get_or("origin-distance", 3);
    let gold_host = placement.host(0);
    let candidates: Vec<NodeId> =
        gdsearch_graph::algo::bfs::distance_rings(&workbench.graph, gold_host, origin_distance)
            .into_iter()
            .skip(1) // not the host itself
            .flatten()
            .collect();
    let origins: Vec<NodeId> = (0..queries)
        .map(|_| {
            if candidates.is_empty() {
                NodeId::new(rng.random_range(0..n))
            } else {
                candidates[rng.random_range(0..candidates.len())]
            }
        })
        .collect();
    let query = workbench.corpus.embedding(pair.query);

    println!(
        "# Ablation: transport backends — N = {} nodes, {} edges, M = {} documents, \
         {} concurrent queries from ≤ {origin_distance} hops of the gold host, \
         queue capacity {queue}",
        workbench.graph.num_nodes(),
        workbench.graph.num_edges(),
        docs,
        queries,
    );
    println!(
        "\ndiffusion search: PPR-greedy, TTL {ttl} · flooding: TTL {flood_ttl} \
         (bounded so its recall is comparable, per the paper's bandwidth argument)"
    );

    let mut rows: Vec<Row> = Vec::new();
    for (policy, policy_ttl, name) in [
        (PolicyKind::PprGreedy, ttl, "diffusion"),
        (PolicyKind::Flooding, flood_ttl, "flooding"),
    ] {
        let cfg = SchemeConfig::builder()
            .policy(policy)
            .ttl(policy_ttl)
            .build()
            .expect("valid scheme config");
        let scheme = SearchNetwork::build(
            &workbench.graph,
            &workbench.corpus,
            &placement,
            &cfg,
            &mut rng,
        )
        .expect("scheme builds");
        let unbounded = (TransportConfig::unbounded(), "unbounded".to_string());
        let finite = bandwidths.iter().map(|&bandwidth| {
            let transport = TransportConfig::default()
                .with_bandwidth(bandwidth)
                .expect("positive bandwidth")
                .with_queue_capacity(queue)
                .expect("positive capacity");
            (transport, format!("{bandwidth} B/s"))
        });
        for (transport, links) in std::iter::once(unbounded).chain(finite) {
            rows.push(run_policy(
                &scheme,
                transport.with_seed(seed),
                &origins,
                query,
                policy_ttl,
                tick_budget,
                format!("{name} @ {links}"),
            ));
        }
    }

    println!("\n## Transport accounting\n");
    let labeled: Vec<(&str, &NetStats)> =
        rows.iter().map(|r| (r.label.as_str(), &r.stats)).collect();
    print!("{}", report::transport_markdown(&labeled));

    println!("\n## Search outcome\n");
    println!(
        "| configuration | recall | bytes/query | messages/query | \
         queue wait p50/p99/p999 | virtual time |"
    );
    println!("|---|---|---|---|---|---|");
    for r in &rows {
        println!(
            "| {} | {:.2} ({}/{}) | {:.0} | {:.0} | {}/{}/{} | {}s |",
            r.label,
            r.recall,
            (r.recall * r.issued as f64).round() as u64,
            r.issued,
            r.stats.bytes_sent as f64 / r.issued.max(1) as f64,
            r.stats.sent as f64 / r.issued.max(1) as f64,
            r.stats.p50_queue_delay_ticks(),
            r.stats.p99_queue_delay_ticks(),
            r.stats.p999_queue_delay_ticks(),
            r.virtual_ticks,
        );
    }

    maybe_write_csv(&args, &report::transport_csv(&labeled));
}
