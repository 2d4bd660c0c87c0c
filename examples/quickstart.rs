//! Quickstart: build a small decentralized search network and run one
//! query, printing every stage of the scheme.
//!
//! ```text
//! cargo run -p gdsearch-examples --bin quickstart
//! ```

use gdsearch::{EngineConfig, Placement, QueryEngine, QueryRequest, SchemeConfig};
use gdsearch_embed::querygen::{self, QueryGenConfig};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_graph::algo::bfs;
use gdsearch_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. A small social P2P overlay (relaxed-caveman social circles, the
    //    calibrated stand-in for the paper's Facebook graph).
    let graph = generators::social_circles_like_scaled(200, &mut rng)?;
    println!(
        "overlay: {} nodes, {} edges, mean degree {:.1}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.mean_degree()
    );

    // 2. A synthetic GloVe-like corpus and the paper's query/gold pairs
    //    (query word whose nearest neighbor has cosine >= 0.6).
    let corpus = SyntheticCorpus::builder()
        .vocab_size(500)
        .dim(32)
        .num_topics(20)
        .generate(&mut rng)?;
    let queries = querygen::generate(
        &corpus,
        QueryGenConfig {
            num_queries: 10,
            min_cosine: 0.6,
        },
        &mut rng,
    )?;
    let pair = queries.pairs()[0];
    println!(
        "query word {} -> gold document {} (cosine {:.3})",
        pair.query, pair.gold, pair.cosine
    );

    // 3. Place 1 gold + 9 irrelevant documents uniformly at random.
    let mut words = vec![pair.gold];
    words.extend(queries.irrelevant().iter().copied().take(9));
    let placement = Placement::uniform(&graph, &words, &mut rng)?;
    let gold_host = placement.host(0);
    println!("gold document hosted at {gold_host}");

    // 4. Build the serving engine: personalization vectors + PPR
    //    diffusion, wrapped in the admission/batching/caching layer.
    let scheme = SchemeConfig::builder().alpha(0.5).ttl(50).build()?;
    let engine_config = EngineConfig::builder().scheme(scheme).build()?;
    let engine = QueryEngine::build(&graph, &corpus, &placement, engine_config, &mut rng)?;
    println!(
        "diffused {}-dimensional embeddings over {} nodes (alpha = {})",
        engine.network().dim(),
        graph.num_nodes(),
        engine.network().config().alpha()
    );

    // 5. Query from a node a few hops away from the gold host. The
    //    engine's first execution of this query class starts an empty score
    //    column that the walk fills as it goes; repeats would be cache hits.
    let rings = bfs::distance_rings(&graph, gold_host, 3);
    let start = rings[3].first().copied().unwrap_or(gold_host);
    let request = QueryRequest::new(corpus.embedding(pair.query).clone(), start, 7);
    let response = engine.execute(request)?;
    let outcome = &response.outcome;
    println!(
        "walk from {start} (distance 3): visited {} nodes with {} forwards (cache: {:?})",
        outcome.unique_nodes, outcome.hops, response.verdict
    );
    match outcome.hop_of(0) {
        Some(hop) => println!("SUCCESS: gold document found after {hop} hops"),
        None => println!("MISS: gold document not found within the TTL"),
    }
    for found in &outcome.results {
        println!(
            "  result: doc {} (word {}) score {:.3} at hop {}",
            found.doc,
            placement.word(found.doc),
            found.score,
            found.hop
        );
    }
    Ok(())
}
