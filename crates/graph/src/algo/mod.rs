//! Graph algorithms used by the search scheme and its evaluation.
//!
//! * [`bfs`] — single-source distances, distance rings and shortest paths;
//!   the paper's accuracy experiment samples one querying node per BFS ring
//!   around the gold document's host.

pub mod bfs;
/// Clustering coefficients, read only by the generators' calibration tests.
#[cfg(test)]
pub(crate) mod clustering;
