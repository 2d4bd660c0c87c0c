//! Graph algorithms used by the search scheme and its evaluation.
//!
//! * [`bfs`] — single-source distances, distance rings and shortest paths;
//!   the paper's accuracy experiment samples one querying node per BFS ring
//!   around the gold document's host.
//! * [`components`] — connected components and largest-component extraction.
//! * [`clustering`] — local/average/global clustering coefficients, used to
//!   validate the social-graph generator calibration.

pub mod bfs;
pub mod clustering;
pub mod components;
