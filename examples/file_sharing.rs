//! File-sharing under churn: runs the *full message-passing protocol* on
//! the discrete-event simulator, with finite links, message loss and node
//! failures — the operating conditions the paper's future work points at.
//!
//! Each node "shares files" (documents); a user issues queries while part
//! of the network is down. Responses backtrack to the querying node.
//!
//! ```text
//! cargo run -p gdsearch-examples --bin file_sharing
//! ```

use gdsearch::protocol::{self, issue_query};
use gdsearch::{EngineConfig, Placement, QueryEngine, SchemeConfig};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_graph::generators;
use gdsearch_graph::NodeId;
use gdsearch_sim::churn::ChurnSchedule;
use gdsearch_sim::TransportConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(7);

    let graph = generators::social_circles_like_scaled(150, &mut rng)?;
    let corpus = SyntheticCorpus::builder()
        .vocab_size(400)
        .dim(32)
        .num_topics(16)
        .generate(&mut rng)?;
    let queries = querygen::generate(
        &corpus,
        QueryGenConfig {
            num_queries: 8,
            min_cosine: 0.6,
        },
        &mut rng,
    )?;
    println!(
        "file-sharing overlay: {} peers, {} shared files, {} prepared queries",
        graph.num_nodes(),
        60,
        queries.len()
    );

    // Share 60 files (1 gold per query later + filler).
    let pair = queries.pairs()[0];
    let mut words = vec![pair.gold];
    words.extend(queries.irrelevant().iter().copied().take(59));
    let placement = Placement::uniform(&graph, &words, &mut rng)?;
    let scheme_config = SchemeConfig::builder().ttl(30).top_k(3).build()?;
    let engine_config = EngineConfig::builder().scheme(scheme_config).build()?;
    let engine = QueryEngine::build(&graph, &corpus, &placement, engine_config, &mut rng)?;
    let scheme = engine.network();

    // A TTL-30 walk is 61 ticks out and back. 10% of peers fail during
    // the first 30 ticks and recover 5 ticks later; links move 1 KB per
    // tick and lose 1% of messages.
    let churn = ChurnSchedule::random_failures(150, 0.10, 30.0, 5.0, &mut rng)?;
    println!("churn schedule: {} down/up events", churn.len());
    let transport = TransportConfig::default()
        .with_bandwidth(1_000)?
        .with_loss_probability(0.01)?
        .with_churn(churn)
        .with_seed(99);
    let mut net = protocol::build(scheme, transport)?;

    // Issue 20 queries from random peers, all at tick 0.
    let origins: Vec<NodeId> = (0..20)
        .map(|_| NodeId::new(rng.random_range(0..150)))
        .collect();
    for (qid, &origin) in origins.iter().enumerate() {
        issue_query(
            &mut net,
            origin,
            qid as u64,
            corpus.embedding(pair.query).clone(),
            30,
        )?;
    }

    // The protocol has no timers: a walk that loses a message just ends,
    // so the network always drains.
    let ticks = net.run_to_completion(100_000)?;
    let stats = *net.stats();
    println!(
        "\ntransport: {} sent / {} delivered / {} lost / {} to-down peers, {:.1} KiB total \
         in {ticks} ticks",
        stats.sent,
        stats.delivered,
        stats.lost,
        stats.dropped_down,
        stats.bytes_sent as f64 / 1024.0
    );

    let mut completed = 0;
    let mut hits = 0;
    for &origin in &origins {
        for done in net.handler(origin)?.completed() {
            completed += 1;
            if done.results.iter().any(|(doc, _, _)| *doc == 0) {
                hits += 1;
            }
        }
    }
    println!(
        "queries: {} issued, {} completed (responses backtracked), {} found the target file",
        origins.len(),
        completed,
        hits
    );
    println!("(incomplete queries lost a message to churn/loss — the paper's");
    println!(" protocol has no retransmission; see protocol.rs docs)");
    Ok(())
}
