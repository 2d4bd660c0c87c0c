//! Shared plumbing for the `gdsearch` experiment binaries: a tiny
//! dependency-free CLI argument parser, the workbench the Monte-Carlo
//! binaries build, and [`Ablation`], the driver of the four hop-sweep
//! ablations.
//!
//! Every binary that builds a workbench accepts the common flags
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
use std::fmt::Display;
use std::str::FromStr;

use gdsearch::experiment::hops::{self, HopCountConfig, SweepOutcome};
use gdsearch::experiment::{Workbench, WorkbenchSpec};
use gdsearch::{Placement, SchemeConfig, SchemeConfigBuilder, SearchError};
use gdsearch_embed::WordId;
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

/// Unwraps `result`, or prints `{context}: {error}` to stderr and exits
/// with status 1 — how the binaries end on a failed run.
pub fn or_exit<T, E: Display>(result: Result<T, E>, context: impl Display) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{context}: {e}");
        std::process::exit(1)
    })
}

/// Builds the experimental environment from common CLI flags, or exits
/// with status 1 when that fails (bad graph file, starved query
/// generation, ...).
///
/// `min_vocab` lets binaries enforce a vocabulary large enough for their
/// document counts (e.g. `M = 10000` needs > 10k irrelevant words).
pub fn workbench_from_args(args: &Args, min_vocab: usize) -> Workbench {
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
    let workbench = match args.get("graph") {
        Some(path) => gdsearch_graph::io::read_edge_list_path(path)
            .map_err(SearchError::from)
            .and_then(|graph| Workbench::with_graph(graph, &spec, &mut rng)),
        None => Workbench::generate(&spec, &mut rng),
    };
    or_exit(workbench, "failed to build workbench")
}

/// The driver of the hop-sweep ablations (`ablation_{walks, policies,
/// placement, aggregation}`). Each arm runs Table I's sweep
/// ([`hops::sweep`]) on one workbench under its own scheme settings and
/// placement, from a fresh `StdRng` seeded with `--seed`, and prints one
/// markdown row.
#[derive(Debug)]
pub struct Ablation {
    /// The environment every arm runs on.
    pub workbench: Workbench,
    /// `--docs`, `--iterations` (default 30) and `--queries` (default 10).
    pub sweep: HopCountConfig,
    /// `--alpha` (default 0.5).
    pub alpha: f32,
    /// `--ttl` (default 50).
    pub ttl: u32,
    seed: u64,
    /// The first column's name (`fanout`, `policy`, ...).
    arm: &'static str,
    /// Whether the table has the mean-messages column.
    messages: bool,
}

impl Ablation {
    /// Reads the common flags (`--docs` defaults to `docs`) and builds the
    /// workbench, exiting 1 when that fails. `arm` names the first column;
    /// `messages` adds the mean-messages column.
    pub fn from_args(args: &Args, docs: usize, arm: &'static str, messages: bool) -> Self {
        let sweep = HopCountConfig {
            total_docs: args.get_or("docs", docs),
            iterations: args.get_or("iterations", 30),
            queries_per_iteration: args.get_or("queries", 10),
        };
        let ttl = args.get_or("ttl", 50);
        let alpha = args.get_or("alpha", 0.5);
        let seed = args.get_or("seed", 2022);
        let workbench = workbench_from_args(args, sweep.total_docs + 2000);
        Ablation {
            workbench,
            sweep,
            alpha,
            ttl,
            seed,
            arm,
            messages,
        }
    }

    /// Prints `title` and the table's header and rule.
    pub fn print_header(&self, title: &str) {
        let (messages, rule) = if self.messages {
            (" mean messages / query |", "|---|---|---|---|")
        } else {
            ("", "|---|---|---|")
        };
        let arm = self.arm;
        println!("{title}\n| {arm} | success rate |{messages} mean hops to gold |\n{rule}");
    }

    /// A scheme builder with `--alpha` and `--ttl` set.
    pub fn scheme(&self) -> SchemeConfigBuilder {
        SchemeConfig::builder().alpha(self.alpha).ttl(self.ttl)
    }

    /// Runs the arm `label` with documents placed uniformly.
    pub fn run_uniform(&self, label: &str, scheme: SchemeConfigBuilder) {
        self.run(label, scheme, |words, rng| {
            Placement::uniform(&self.workbench.graph, words, rng)
        });
    }

    /// Runs the arm `label`: the sweep under `scheme` with documents placed
    /// by `place`, then prints its row. Exits 1, naming the arm, when the
    /// scheme is invalid or the sweep fails.
    pub fn run<F>(&self, label: &str, scheme: SchemeConfigBuilder, place: F)
    where
        F: FnMut(&[WordId], &mut StdRng) -> Result<Placement, SearchError>,
    {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let outcome = scheme
            .build()
            .and_then(|scheme| hops::sweep(&self.workbench, &self.sweep, &scheme, &mut rng, place));
        let outcome = or_exit(outcome, format_args!("{} {label} failed", self.arm));
        println!("{}", ablation_row(label, &outcome, self.messages));
    }
}

/// One ablation table row: `| label | rate (successes/samples) |`, then
/// the mean messages per walk when `messages` is set, then the mean hops
/// of successful walks (`–` when none succeeded).
fn ablation_row(label: &str, outcome: &SweepOutcome, messages: bool) -> String {
    let messages = if messages {
        format!(" {:.1} |", outcome.mean_messages())
    } else {
        String::new()
    };
    let hops = outcome
        .mean_success_hops()
        .map_or_else(|| "–".into(), |h| format!("{h:.2}"));
    format!(
        "| {label} | {:.3} ({}/{}) |{messages} {hops} |",
        outcome.success_rate(),
        outcome.successes(),
        outcome.samples
    )
}

/// Runs `f` once and returns `(elapsed milliseconds, result)` — the
/// stopwatch the ablation binaries share.
pub fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = std::time::Instant::now();
    let value = f();
    (t0.elapsed().as_secs_f64() * 1e3, value)
}

/// Writes `content` to `--csv PATH` when the flag is present and reports
/// the destination on stdout; exits 1 when the write fails.
pub fn maybe_write_csv(args: &Args, content: &str) {
    if let Some(path) = args.get("csv") {
        or_exit(
            std::fs::write(path, content),
            format_args!("failed to write {path}"),
        );
        println!("\ncsv written to {path}");
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
        assert_eq!(a.get("fast"), Some("true"));
        assert_eq!(a.get("slow"), None);
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
        let wb = workbench_from_args(&a, 100);
        assert_eq!(wb.graph.num_nodes(), 120);
        assert_eq!(wb.corpus.len(), 300);
    }

    #[test]
    fn ablation_rows_render_both_table_forms() {
        let none = SweepOutcome {
            samples: 40,
            total_messages: 2000,
            success_hops: Vec::new(),
        };
        assert_eq!(ablation_row("a", &none, false), "| a | 0.000 (0/40) | – |");
        assert_eq!(
            ablation_row("a", &none, true),
            "| a | 0.000 (0/40) | 50.0 | – |"
        );

        let some = SweepOutcome {
            samples: 30,
            total_messages: 1001,
            success_hops: vec![1, 2, 4],
        };
        assert_eq!(
            ablation_row("ppr-greedy (paper)", &some, false),
            "| ppr-greedy (paper) | 0.100 (3/30) | 2.33 |"
        );
        assert_eq!(
            ablation_row("2", &some, true),
            "| 2 | 0.100 (3/30) | 33.4 | 2.33 |"
        );
    }
}
