//! Shared plumbing for the `gdsearch` experiment binaries: a tiny
//! dependency-free CLI argument parser and workbench construction helpers.
//!
//! Every binary accepts the common flags
//!
//! ```text
//! --seed N          RNG seed (default 2022)
//! --nodes N         graph size (default 4039, the Facebook graph's size)
//! --vocab N         corpus vocabulary (default scales with --docs)
//! --dim N           embedding dimension (default 64; paper uses 300)
//! --ttl N           walk TTL (default 50)
//! --iterations N    placements per configuration
//! --anisotropy G    corpus anisotropy (default 0.3, GloVe-like; 0 = clean)
//! --graph PATH      load a real edge list (e.g. SNAP facebook_combined.txt)
//! --csv PATH        also write results as CSV
//! ```

// Harness code: CLI flag map is membership-only, and wall-clock timing
// is the measurement itself — neither reaches a reproducible result.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::str::FromStr;

use gdsearch::experiment::{Workbench, WorkbenchSpec};
use gdsearch::SearchError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parsed `--key value` command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()`, treating every `--key value` pair as an
    /// entry. A trailing `--key` without value is stored as `"true"`.
    pub fn from_env() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator (used by tests).
    pub fn parse_from<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut values = HashMap::new();
        let mut iter = iter.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().unwrap(),
                    _ => "true".to_string(),
                };
                values.insert(key.to_string(), value);
            }
        }
        Args { values }
    }

    /// String value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Parsed value of `key`, or `default` when the flag is absent. A
    /// present but unparseable value exits with status 2.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            Some(v) => parse_or_exit(key, v),
            None => default,
        }
    }

    /// Comma-separated list value of `key`, or `default` when the flag is
    /// absent. An unparseable element exits with status 2.
    pub fn get_list_or<T: FromStr + Clone>(&self, key: &str, default: &[T]) -> Vec<T> {
        match self.get(key) {
            Some(v) => v
                .split(',')
                .map(|tok| parse_or_exit(key, tok.trim()))
                .collect(),
            None => default.to_vec(),
        }
    }

    /// Whether a bare `--key` flag is present.
    pub fn has(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// Parses `value`, the value of flag `--key`; the error names both.
fn parse_flag<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{key}: cannot parse {value:?}"))
}

fn parse_or_exit<T: FromStr>(key: &str, value: &str) -> T {
    parse_flag(key, value).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// Builds the experimental environment from common CLI flags.
///
/// `min_vocab` lets binaries enforce a vocabulary large enough for their
/// document counts (e.g. `M = 10000` needs > 10k irrelevant words).
///
/// # Errors
///
/// Propagates workbench construction failures (bad graph file, starved
/// query generation, ...).
pub fn workbench_from_args(args: &Args, min_vocab: usize) -> Result<Workbench, SearchError> {
    let seed: u64 = args.get_or("seed", 2022);
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: u32 = args.get_or("nodes", gdsearch_graph::generators::FACEBOOK_NODES);
    let vocab: usize = args.get_or("vocab", min_vocab.max(12_000));
    let dim: usize = args.get_or("dim", 64);
    let spec = WorkbenchSpec {
        nodes,
        vocab,
        dim,
        topics: (vocab / 50).max(10),
        num_queries: args.get_or("queries-pool", 1000),
        min_cosine: args.get_or("min-cosine", 0.6),
        anisotropy: args.get_or("anisotropy", 0.3),
    };
    match args.get("graph") {
        Some(path) => {
            let graph = gdsearch_graph::io::read_edge_list_path(path)?;
            Workbench::with_graph(graph, &spec, &mut rng)
        }
        None => Workbench::generate(&spec, &mut rng),
    }
}

/// Runs `f` once and returns `(elapsed milliseconds, result)` — the
/// stopwatch the ablation binaries share.
pub fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = std::time::Instant::now();
    let value = f();
    (t0.elapsed().as_secs_f64() * 1e3, value)
}

/// Writes `content` to `--csv PATH` when the flag is present; reports the
/// destination on stdout.
pub fn maybe_write_csv(args: &Args, content: &str) {
    if let Some(path) = args.get("csv") {
        match std::fs::write(path, content) {
            Ok(()) => println!("\ncsv written to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse_from(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_key_value_pairs() {
        let a = args("--docs 100 --alphas 0.1,0.5 --fast");
        assert_eq!(a.get_or("docs", 0usize), 100);
        assert_eq!(a.get_list_or::<f32>("alphas", &[]), vec![0.1, 0.5]);
        assert!(a.has("fast"));
        assert!(!a.has("slow"));
    }

    #[test]
    fn defaults_apply() {
        let a = args("");
        assert_eq!(a.get_or("docs", 7usize), 7);
        assert_eq!(a.get_list_or("alphas", &[0.5f32]), vec![0.5]);
    }

    #[test]
    fn malformed_values_are_rejected() {
        assert_eq!(parse_flag::<u32>("nodes", "120"), Ok(120));
        assert_eq!(
            parse_flag::<u32>("nodes", "1e5"),
            Err("--nodes: cannot parse \"1e5\"".to_string())
        );
        assert!(parse_flag::<f64>("loss", "").is_err());
        assert!(parse_flag::<usize>("shards", "true").is_err());
    }

    #[test]
    fn ci_sized_workbench_via_args() {
        let a = args("--nodes 120 --vocab 300 --dim 16 --queries-pool 20");
        let wb = workbench_from_args(&a, 100).unwrap();
        assert_eq!(wb.graph.num_nodes(), 120);
        assert_eq!(wb.corpus.len(), 300);
    }
}
