//! `gdsearch` — decentralized content search with Personalized PageRank
//! graph diffusion.
//!
//! This crate is a from-scratch reproduction of *"A Graph Diffusion Scheme
//! for Decentralized Content Search based on Personalized PageRank"*
//! (Giatsoglou, Krasanakis, Papadopoulos, Kompatsiaris — ICDCS 2022,
//! arXiv:2204.12902), built on four substrates:
//! [`gdsearch_graph`] (P2P topology), [`gdsearch_embed`] (dense retrieval),
//! [`gdsearch_diffusion`] (graph filters) and [`gdsearch_sim`]
//! (discrete-event networking).
//!
//! # The scheme in one paragraph
//!
//! Every node sums the embeddings of its local documents into a
//! *personalization vector* (§IV-A, [`personalization`]); the network
//! diffuses those vectors with a decentralized Personalized PageRank filter
//! (§IV-B, [`gdsearch_diffusion`]); a query then walks the overlay guided
//! by the diffused neighbor embeddings — dot-product-greedy over unvisited
//! neighbors, with a TTL and response backtracking (§IV-C, [`walk`] for the
//! fast in-process executor and [`protocol`] for the full message-passing
//! version). Baseline policies (blind random walk, flooding, degree-biased,
//! ε-greedy hybrid) live in [`forwarding`].
//!
//! # Reproducing the paper
//!
//! The [`experiment`] module regenerates every figure and table of the
//! evaluation: [`experiment::accuracy`] for Fig. 3 (hit accuracy vs.
//! query-to-gold distance) and [`experiment::hops`] for Table I (hop-count
//! analysis). The binaries `crates/bench/src/bin/{fig3,table1}.rs` run
//! them; README's "Building and testing" section shows how.
//!
//! # Quickstart
//!
//! ```
//! use gdsearch::{walk, Placement, SchemeConfig, SearchNetwork};
//! use gdsearch_embed::synthetic::SyntheticCorpus;
//! use gdsearch_embed::querygen::{self, QueryGenConfig};
//! use gdsearch_graph::generators;
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(42);
//! let graph = generators::social_circles_like_scaled(200, &mut rng)?;
//! let corpus = SyntheticCorpus::builder().vocab_size(400).dim(32).generate(&mut rng)?;
//! let queries = querygen::generate(&corpus, QueryGenConfig { num_queries: 5, min_cosine: 0.6 }, &mut rng)?;
//! let pair = queries.pairs()[0];
//!
//! // Place the gold document plus nine irrelevant ones uniformly.
//! let docs: Vec<_> = std::iter::once(pair.gold)
//!     .chain(queries.irrelevant().iter().copied().take(9))
//!     .collect();
//! let placement = Placement::uniform(&graph, &docs, &mut rng)?;
//! let network = SearchNetwork::build(&graph, &corpus, &placement, &SchemeConfig::default(), &mut rng)?;
//!
//! // Walk from some node towards the gold document.
//! let start = gdsearch_graph::NodeId::new(17);
//! let outcome = walk::run(&network, corpus.embedding(pair.query), start, &mut rng)?;
//! println!("found {} documents in {} hops", outcome.results.len(), outcome.hops);
//! # Ok(())
//! # }
//! ```

// The static gate for library code (tests exempt); audited exceptions are
// per-file `#![expect]`s, see README "Determinism invariants".
#![cfg_attr(
    not(test),
    warn(
        clippy::expect_used,
        clippy::unwrap_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]
#![warn(missing_docs)]

mod config;
pub mod engine;
mod error;
pub mod experiment;
pub mod forwarding;
pub mod metrics;
pub mod personalization;
mod placement;
pub mod protocol;
mod scheme;
pub mod walk;

pub use config::{SchemeConfig, SchemeConfigBuilder};
pub use engine::{
    CacheVerdict, ConfigError, EngineConfig, EngineError, QueryEngine, QueryRequest, QueryResponse,
};
pub use error::SearchError;
pub use forwarding::PolicyKind;
pub use personalization::Aggregation;
pub use placement::{DocId, Placement};
pub use scheme::SearchNetwork;
pub use walk::{FoundDoc, WalkOutcome};
