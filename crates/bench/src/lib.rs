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

/// Aggregate outcome of a sweep of uniformly-started queries, used by the
/// ablation binaries to compare configurations on equal footing.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Walks that retrieved the gold document.
    pub successes: usize,
    /// Walks issued.
    pub samples: usize,
    /// Total forward messages spent across all walks.
    pub total_messages: u64,
    /// Hop at which each successful walk reached the gold host.
    pub success_hops: Vec<u32>,
}

impl SweepOutcome {
    /// Success rate over issued walks.
    pub fn success_rate(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.successes as f64 / self.samples as f64
        }
    }

    /// Mean messages per walk.
    pub fn mean_messages(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.samples as f64
        }
    }

    /// Mean hop count of successful walks, if any.
    pub fn mean_success_hops(&self) -> Option<f64> {
        gdsearch::metrics::hop_stats(&self.success_hops).map(|s| s.mean)
    }
}

/// Runs `iterations` placements × `queries_per_iteration` uniformly-started
/// walks under `config`, with a caller-supplied placement strategy
/// (uniform, topic-correlated, …). The gold document is `DocId` 0.
///
/// # Errors
///
/// Propagates placement/build/query failures; fails fast when the
/// irrelevant pool cannot supply `total_docs − 1` words.
pub fn uniform_query_sweep<F>(
    workbench: &Workbench,
    config: &gdsearch::SchemeConfig,
    total_docs: usize,
    iterations: usize,
    queries_per_iteration: usize,
    rng: &mut StdRng,
    mut place: F,
) -> Result<SweepOutcome, SearchError>
where
    F: FnMut(
        &Workbench,
        &[gdsearch_embed::WordId],
        &mut StdRng,
    ) -> Result<gdsearch::Placement, SearchError>,
{
    use rand::seq::IndexedRandom;
    use rand::Rng as _;
    let irrelevant_needed = total_docs.saturating_sub(1);
    if workbench.queries.irrelevant().len() < irrelevant_needed {
        return Err(SearchError::InvalidParameter {
            reason: format!(
                "irrelevant pool ({}) cannot supply {} documents",
                workbench.queries.irrelevant().len(),
                irrelevant_needed
            ),
        });
    }
    let n = workbench.graph.num_nodes() as u32;
    let mut outcome = SweepOutcome::default();
    for _ in 0..iterations {
        let pair = workbench.queries.pairs()[rng.random_range(0..workbench.queries.len())];
        let mut words = vec![pair.gold];
        words.extend(
            workbench
                .queries
                .irrelevant()
                .choose_multiple(rng, irrelevant_needed)
                .copied(),
        );
        let placement = place(workbench, &words, rng)?;
        let network = gdsearch::SearchNetwork::build(
            &workbench.graph,
            &workbench.corpus,
            &placement,
            config,
            rng,
        )?;
        let query = workbench.corpus.embedding(pair.query);
        for _ in 0..queries_per_iteration {
            let start = gdsearch_graph::NodeId::new(rng.random_range(0..n));
            let walk = gdsearch::walk::run(&network, query, start, rng)?;
            outcome.samples += 1;
            outcome.total_messages += u64::from(walk.hops);
            if let Some(hop) = walk.hop_of(0) {
                outcome.successes += 1;
                outcome.success_hops.push(hop);
            }
        }
    }
    Ok(outcome)
}
