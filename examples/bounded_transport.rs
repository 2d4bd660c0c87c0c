//! Bounded-transport demo: runs the paper's search protocol over
//! unbounded and over narrow links and shows what finite bandwidth does —
//! link saturation, queueing delay and backpressure drops — by comparing
//! PPR-greedy diffusion search against TTL-bounded flooding.
//!
//! ```text
//! cargo run -p gdsearch-examples --release --bin bounded_transport
//! ```

use gdsearch::experiment::report;
use gdsearch::protocol;
use gdsearch::{EngineConfig, Placement, PolicyKind, QueryEngine, SchemeConfig};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_graph::{generators, NodeId};
use gdsearch_sim::{NetStats, TransportConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = generators::social_circles_like_scaled(300, &mut rng)?;
    let corpus = SyntheticCorpus::builder()
        .vocab_size(400)
        .dim(32)
        .generate(&mut rng)?;
    let queries = querygen::generate(
        &corpus,
        QueryGenConfig {
            num_queries: 5,
            min_cosine: 0.6,
        },
        &mut rng,
    )?;
    let pair = queries.pairs()[0];
    let mut words = vec![pair.gold];
    words.extend(queries.irrelevant().iter().copied().take(19));
    let placement = Placement::uniform(&graph, &words, &mut rng)?;
    let origins: Vec<NodeId> = (0..10)
        .map(|_| NodeId::new(rng.random_range(0..300)))
        .collect();

    let mut rows: Vec<(String, NetStats, usize)> = Vec::new();
    for (policy, ttl, name) in [
        (PolicyKind::PprGreedy, 30u32, "diffusion"),
        (PolicyKind::Flooding, 3u32, "flooding"),
    ] {
        let cfg = SchemeConfig::builder().policy(policy).ttl(ttl).build()?;
        let engine_cfg = EngineConfig::builder().scheme(cfg).build()?;
        let engine = QueryEngine::build(&graph, &corpus, &placement, engine_cfg, &mut rng)?;
        let scheme = engine.network();
        for (transport, links) in [
            (TransportConfig::unbounded(), "unbounded"),
            (
                // 1 KB/s links with short queues: the saturation regime.
                TransportConfig::default()
                    .with_bandwidth(1_000)?
                    .with_queue_capacity(16)?,
                "1 KB/s",
            ),
        ] {
            let mut net = protocol::build(scheme, transport)?;
            for (i, &origin) in origins.iter().enumerate() {
                let query = corpus.embedding(pair.query).clone();
                protocol::issue_query(&mut net, origin, i as u64, query, ttl)?;
            }
            net.run_to_completion(10_000_000)?;
            let mut hits = 0;
            for (i, &origin) in origins.iter().enumerate() {
                let found = net.handler(origin)?.completed().iter().any(|q| {
                    q.query_id == i as u64 && q.results.iter().any(|(doc, _, _)| *doc == 0)
                });
                hits += usize::from(found);
            }
            rows.push((format!("{name} @ {links}"), *net.stats(), hits));
        }
    }

    let labeled: Vec<(&str, &NetStats)> = rows.iter().map(|(l, s, _)| (l.as_str(), s)).collect();
    print!("{}", report::transport_markdown(&labeled));
    println!();
    for (label, stats, hits) in &rows {
        println!(
            "{label:>22}: recall {hits}/10, {:.1} KB total, mean queue wait {:.1} ticks",
            stats.bytes_sent as f64 / 1e3,
            stats.mean_queue_delay_ticks(),
        );
    }
    println!(
        "\nOn narrow links flooding pays in queueing delay and backpressure drops;\n\
         the diffusion-guided walk moves orders of magnitude fewer bytes for\n\
         comparable recall — the paper's bandwidth argument, measured."
    );
    Ok(())
}
