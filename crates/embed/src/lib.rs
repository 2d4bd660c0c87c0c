//! Dense-retrieval substrate for the `gdsearch` decentralized-search stack.
//!
//! The reproduced paper (Giatsoglou et al., ICDCS 2022) casts retrieval in
//! the bi-encoder vector-space model: documents and queries are embedding
//! vectors, relevance is the dot product / cosine similarity, and retrieval
//! is a (approximate) nearest-neighbor problem. This crate supplies that
//! machinery:
//!
//! * [`Embedding`] — a dimension-checked `f32` vector with the linear
//!   operations node personalization needs (sum, scale, normalize);
//! * [`similarity`] — dot product and cosine metrics;
//! * [`topk`] — bounded top-k selection by score;
//! * [`Corpus`] / [`synthetic`] — word corpora, including a synthetic
//!   GloVe-like topic-mixture corpus (the paper uses GloVe 300-d vectors;
//!   see `DESIGN.md` for the substitution rationale);
//! * [`querygen`] — the paper's §V-B query/gold-document sampling: random
//!   query words whose nearest neighbor has cosine ≥ 0.6.
//!
//! # Example
//!
//! ```
//! use gdsearch_embed::{similarity, Embedding};
//!
//! # fn main() -> Result<(), gdsearch_embed::EmbedError> {
//! let doc = Embedding::new(vec![1.0, 0.0, 1.0]);
//! let query = Embedding::new(vec![1.0, 1.0, 0.0]);
//! let score = similarity::dot(&doc, &query)?;
//! assert_eq!(score, 1.0);
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

mod corpus;
mod error;
pub mod querygen;
pub mod similarity;
pub mod synthetic;
pub mod topk;
mod vector;

pub use corpus::{Corpus, WordId};
pub use error::EmbedError;
pub use vector::Embedding;
