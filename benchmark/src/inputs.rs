//! Workloads, their sizes, and the inputs generated from `--seed`.

use std::error::Error;

use gdsearch::{EngineConfig, Placement, QueryEngine, QueryRequest};
use gdsearch_embed::querygen::{self, QueryGenConfig, QuerySet};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::{Corpus, WordId};
use gdsearch_graph::{generators, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Zipf;
use crate::trace::now_ns;

pub type Fallible<T> = Result<T, Box<dyn Error>>;

// One RNG stream per purpose, all derived from `--seed`.
const STREAM_PLACEMENT: u64 = 0x706c_6163_656d_656e;
const STREAM_REQUESTS: u64 = 0x7265_7175_6573_7473;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeCold,
    ServeBatch,
    RebuildDense,
    RebuildSparse,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::ServeBatch,
        Workload::RebuildDense,
        Workload::RebuildSparse,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::ServeBatch => "serve-batch",
            Workload::RebuildDense => "rebuild-dense",
            Workload::RebuildSparse => "rebuild-sparse",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_serve(self) -> bool {
        !matches!(self, Workload::RebuildDense | Workload::RebuildSparse)
    }
}

/// Operations before measuring, and operations per measured round. A round
/// has a fixed length so a per-round value means the same thing however many
/// rounds fit into `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Loop {
    pub warmup: usize,
    pub round: usize,
}

/// Run until `seconds` have passed *and* `min_ops` operations are done.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
}

impl Budget {
    pub fn ops(min_ops: usize) -> Self {
        Budget {
            seconds: 0.0,
            min_ops,
        }
    }
}

/// Every size the benchmark uses. `full` is what `BENCHMARK.json` measures;
/// `tiny` lets the test suite run all five workloads in seconds.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub nodes: u32,
    pub vocab: usize,
    pub dim: usize,
    pub topics: usize,
    pub num_queries: usize,
    /// Documents placed by the serve workloads and `rebuild-dense`: at least
    /// `dim / 4` hosts, so `Auto` diffuses with the dense power sweep.
    pub docs_dense: usize,
    /// Documents placed by `rebuild-sparse`: fewer than `dim / 4`, so `Auto`
    /// diffuses per source (forward push from 4,096 nodes up).
    pub docs_sparse: usize,
    /// Query classes of the hot mix: fewer than the engine's 256 cached
    /// columns, so every column stays resident.
    pub hot_classes: usize,
    pub hot_skew: f64,
    /// Query classes of the cold mix: more than the cache holds.
    pub cold_classes: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_reps: usize,
    pub measured_rounds_min: usize,
    pub exec_hot: Loop,
    pub exec_cold: Loop,
    /// Counted in batches of `batch` requests.
    pub batches: Loop,
    pub batch: usize,
    pub rebuild_dense: Loop,
    pub rebuild_sparse: Loop,
    /// Requests whose outcome is checked against `walk::run`.
    pub checked_requests: usize,
    /// Traced run: requests / batches / builds given to the loops that are
    /// not the workload's own, and how many parents get children replayed.
    pub probe_requests: usize,
    pub probe_batches: usize,
    pub probe_builds: usize,
    pub replayed_requests: usize,
    pub replayed_batches: usize,
    pub replayed_builds: usize,
    pub probe_repeats: usize,
    pub spawn_join_repeats: usize,
    pub open_rates: [u32; 3],
    pub open_seconds: f64,
    /// Completed requests an open-loop run needs before it may stop (a p99
    /// needs 1,000 samples), and the time after which it stops regardless.
    pub open_min_completed: usize,
    pub open_cap_seconds: f64,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            nodes: 100_000,
            vocab: 6_000,
            dim: 64,
            topics: 120,
            num_queries: 2_000,
            docs_dense: 1_000,
            docs_sparse: 12,
            hot_classes: 64,
            hot_skew: 1.1,
            cold_classes: 2_000,
            setup_reps: 3,
            measured_rounds_min: 3,
            exec_hot: Loop {
                warmup: 5_000,
                round: 2_000,
            },
            exec_cold: Loop {
                warmup: 300,
                round: 100,
            },
            batches: Loop {
                warmup: 200,
                round: 125,
            },
            batch: 16,
            rebuild_dense: Loop {
                warmup: 2,
                round: 1,
            },
            rebuild_sparse: Loop {
                warmup: 10,
                round: 10,
            },
            checked_requests: 256,
            probe_requests: 1_200,
            probe_batches: 100,
            probe_builds: 1,
            replayed_requests: 200,
            replayed_batches: 20,
            replayed_builds: 2,
            probe_repeats: 3,
            spawn_join_repeats: 1_000,
            open_rates: [2_000, 6_000, 12_000],
            open_seconds: 1.0,
            open_min_completed: 1_100,
            open_cap_seconds: 4.0,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizes {
            nodes: 600,
            vocab: 1_500,
            topics: 30,
            num_queries: 300,
            docs_dense: 200,
            cold_classes: 300,
            setup_reps: 2,
            measured_rounds_min: 1,
            exec_hot: Loop {
                warmup: 100,
                round: 300,
            },
            exec_cold: Loop {
                warmup: 100,
                round: 300,
            },
            batches: Loop {
                warmup: 10,
                round: 20,
            },
            rebuild_dense: Loop {
                warmup: 1,
                round: 1,
            },
            rebuild_sparse: Loop {
                warmup: 1,
                round: 2,
            },
            replayed_requests: 50,
            replayed_batches: 5,
            replayed_builds: 1,
            probe_repeats: 1,
            spawn_join_repeats: 20,
            open_seconds: 0.1,
            ..Sizes::full()
        }
    }

    pub fn docs(&self, workload: Workload) -> usize {
        match workload {
            Workload::RebuildSparse => self.docs_sparse,
            _ => self.docs_dense,
        }
    }

    /// The class mix a workload's queries are drawn from. The rebuild
    /// workloads serve no queries of their own; their traced run probes the
    /// serving layers with the hot mix.
    pub fn mix(&self, workload: Workload) -> Zipf {
        match workload {
            Workload::ServeCold => Zipf::new(self.cold_classes, 0.0),
            _ => Zipf::new(self.hot_classes, self.hot_skew),
        }
    }
}

/// When each generator started and ended, on the `now_ns` clock.
#[derive(Debug, Clone, Copy)]
pub struct GenSpans {
    pub graph: (u64, u64),
    pub corpus: (u64, u64),
    pub querygen: (u64, u64),
}

/// The generated world: overlay graph, word corpus, query/gold pairs.
#[derive(Debug)]
pub struct Env {
    pub graph: Graph,
    pub corpus: Corpus,
    pub queries: QuerySet,
    pub gen: GenSpans,
}

impl Env {
    /// The three calls of `gdsearch::experiment::Workbench::generate`, in its
    /// order on one RNG (so the inputs are the workbench's, which a test
    /// pins), timed one by one because `setup_s` is made of them.
    pub fn generate(sizes: &Sizes, seed: u64) -> Fallible<Env> {
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = now_ns();
        let graph = generators::social_circles_like_scaled(sizes.nodes, &mut rng)?;
        let t1 = now_ns();
        let corpus = SyntheticCorpus::builder()
            .vocab_size(sizes.vocab)
            .dim(sizes.dim)
            .num_topics(sizes.topics)
            .anisotropy(0.3)
            .generate(&mut rng)?;
        let t2 = now_ns();
        let queries = querygen::generate(
            &corpus,
            QueryGenConfig {
                num_queries: sizes.num_queries,
                min_cosine: 0.6,
            },
            &mut rng,
        )?;
        let t3 = now_ns();
        let needed = sizes.num_queries;
        if queries.len() < needed {
            return Err(format!(
                "seed {seed} yields {} query pairs, the workloads need {needed}",
                queries.len()
            )
            .into());
        }
        Ok(Env {
            graph,
            corpus,
            queries,
            gen: GenSpans {
                graph: (t0, t1),
                corpus: (t1, t2),
                querygen: (t2, t3),
            },
        })
    }

    /// The first `docs` gold words: document `i` is the gold of query class
    /// `i`, so a response to class `i` is a hit when it contains document `i`.
    pub fn gold_words(&self, docs: usize) -> Vec<WordId> {
        self.queries
            .pairs()
            .iter()
            .take(docs)
            .map(|p| p.gold)
            .collect()
    }
}

pub fn placement_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ STREAM_PLACEMENT)
}

/// Places `docs` documents and builds the serving engine over them: what
/// users get, the default scheme and engine, with only the worker threads set.
pub fn build_engine<'g>(
    env: &'g Env,
    docs: usize,
    threads: usize,
    seed: u64,
) -> Fallible<QueryEngine<'g>> {
    let mut rng = placement_rng(seed);
    let placement = Placement::uniform(&env.graph, &env.gold_words(docs), &mut rng)?;
    let config = EngineConfig::builder().threads(threads).build()?;
    Ok(QueryEngine::build(
        &env.graph,
        &env.corpus,
        &placement,
        config,
        &mut rng,
    )?)
}

/// One query a client will send: its class, entry node and walk seed.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    pub class: usize,
    pub start: NodeId,
    pub seed: u64,
}

/// The seeded request stream of one workload.
#[derive(Debug, Clone)]
pub struct RequestStream<'e> {
    env: &'e Env,
    mix: Zipf,
    rng: StdRng,
}

impl<'e> RequestStream<'e> {
    pub fn new(env: &'e Env, mix: Zipf, seed: u64) -> Self {
        RequestStream {
            env,
            mix,
            rng: StdRng::seed_from_u64(seed ^ STREAM_REQUESTS),
        }
    }

    pub fn next_ticket(&mut self) -> Ticket {
        let class = self.mix.sample(self.rng.random::<f64>());
        let nodes = u32::try_from(self.env.graph.num_nodes()).unwrap_or(u32::MAX);
        Ticket {
            class,
            start: NodeId::new(self.rng.random_range(0..nodes)),
            seed: self.rng.random::<u64>(),
        }
    }

    pub fn query_word(&self, ticket: &Ticket) -> WordId {
        self.env.queries.pairs()[ticket.class].query
    }

    pub fn request(&self, ticket: &Ticket) -> QueryRequest {
        let query = self.env.corpus.embedding(self.query_word(ticket)).clone();
        QueryRequest::new(query, ticket.start, ticket.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch::experiment::{Workbench, WorkbenchSpec};

    #[test]
    fn inputs_are_the_workbench_s() {
        let sizes = Sizes::tiny();
        let env = Env::generate(&sizes, 5).unwrap();
        let spec = WorkbenchSpec {
            nodes: sizes.nodes,
            vocab: sizes.vocab,
            dim: sizes.dim,
            topics: sizes.topics,
            num_queries: sizes.num_queries,
            min_cosine: 0.6,
            anisotropy: 0.3,
        };
        let wb = Workbench::generate(&spec, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(env.graph, wb.graph);
        assert_eq!(env.corpus.embeddings(), wb.corpus.embeddings());
        assert_eq!(env.queries, wb.queries);
    }

    #[test]
    fn same_seed_same_requests() {
        let sizes = Sizes::tiny();
        let env = Env::generate(&sizes, 9).unwrap();
        let draw = |seed| {
            let mut s = RequestStream::new(&env, sizes.mix(Workload::ServeHot), seed);
            (0..50)
                .map(|_| {
                    let t = s.next_ticket();
                    (t.class, t.start, t.seed)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("serve"), None);
    }
}
