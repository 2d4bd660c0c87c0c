//! The traced run's per-layer measurements: observers that record a span for
//! every call the loops make into the product, replays of the children those
//! calls hide, and stand-alone probes of the layers a workload's own path
//! does not go through — so every layer has a number on every workload.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;

use gdsearch::{
    forwarding, walk, CacheVerdict, QueryEngine, QueryResponse, SchemeConfig, WalkOutcome,
};
use gdsearch_diffusion::push::PushConfig;
use gdsearch_diffusion::sharded::ShardedConfig;
use gdsearch_diffusion::{per_source, power, push, sharded, workpool, PprConfig, Signal};
use gdsearch_dist::DistConfig;
use gdsearch_embed::{Embedding, WordId};
use gdsearch_graph::sparse::transition_matrix;
use gdsearch_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{Budget, Env, Fallible, RequestStream, Sizes, Ticket};
use crate::rebuild::{self, Built, RebuildObserver};
use crate::serve::{self, LoopStats, ServeObserver, Served, Stepped};
use crate::stats;
use crate::trace::{Span, SpanId, Tracer};

/// Names of the open-loop diagnostic's metrics, one row per offered rate in
/// `Sizes::open_rates` order: span, p50, p99, reject share, generator lateness.
const OPEN_NAMES: [[&str; 5]; 3] = [
    [
        "engine.open.r2000",
        "engine.open.r2000.p50_us",
        "engine.open.r2000.p99_us",
        "engine.open.r2000.reject_share",
        "engine.open.r2000.gen_late_max_us",
    ],
    [
        "engine.open.r6000",
        "engine.open.r6000.p50_us",
        "engine.open.r6000.p99_us",
        "engine.open.r6000.reject_share",
        "engine.open.r6000.gen_late_max_us",
    ],
    [
        "engine.open.r12000",
        "engine.open.r12000.p50_us",
        "engine.open.r12000.p99_us",
        "engine.open.r12000.reject_share",
        "engine.open.r12000.gen_late_max_us",
    ],
];

/// The one place that reads the engine's cache verdict.
fn is_miss(response: &QueryResponse) -> bool {
    response.verdict == CacheVerdict::Miss
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, op: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent: None,
        op,
        replay: false,
    }
}

/// A request kept for replay under the span of the call that served it:
/// what was asked, how the cache answered, and what the engine returned.
struct Kept {
    parent: SpanId,
    ticket: Ticket,
    miss: bool,
    outcome: WalkOutcome,
}

impl Kept {
    fn of(parent: SpanId, served: &Served<'_>) -> Self {
        Kept {
            parent,
            ticket: *served.ticket,
            miss: is_miss(served.response),
            outcome: served.response.outcome.clone(),
        }
    }
}

/// Records an `engine.execute` span per request and keeps every
/// `stride`-th request, up to `cap`, for replay.
struct ExecTrace<'t> {
    tracer: &'t mut Tracer,
    stride: usize,
    cap: usize,
    seen: usize,
    misses: usize,
    kept: Vec<Kept>,
}

impl ServeObserver for ExecTrace<'_> {
    fn served(&mut self, served: &Served<'_>) {
        let id = self.tracer.record(span(
            "engine.execute",
            served.sent_ns,
            served.done_ns,
            self.seen as u64,
        ));
        self.misses += usize::from(is_miss(served.response));
        if self.seen.is_multiple_of(self.stride) && self.kept.len() < self.cap {
            self.kept.push(Kept::of(id, served));
        }
        self.seen += 1;
    }
}

/// Records `engine.submit`, `engine.step`, and per request `engine.request`
/// (submit to the return of its step) and `engine.queue_wait` (submit to the
/// start of its step); keeps every `stride`-th step's requests for replay.
struct BatchTrace<'t> {
    tracer: &'t mut Tracer,
    stride: usize,
    cap: usize,
    steps: usize,
    responses: usize,
    served: u64,
    /// The step whose responses are being delivered: span, start, kept?
    current: Option<(SpanId, u64, bool)>,
    kept_steps: usize,
    kept: Vec<Kept>,
}

impl ServeObserver for BatchTrace<'_> {
    fn submitted(&mut self, start_ns: u64, end_ns: u64) {
        self.tracer
            .record(span("engine.submit", start_ns, end_ns, self.served));
    }

    fn stepped(&mut self, stepped: &Stepped) {
        let id = self.tracer.record(span(
            "engine.step",
            stepped.start_ns,
            stepped.end_ns,
            self.steps as u64,
        ));
        let keep = self.steps.is_multiple_of(self.stride) && self.kept_steps < self.cap;
        self.kept_steps += usize::from(keep);
        self.current = Some((id, stepped.start_ns, keep));
        self.steps += 1;
        self.responses += stepped.responses;
    }

    fn served(&mut self, served: &Served<'_>) {
        let Some((step, step_start_ns, keep)) = self.current else {
            return;
        };
        self.tracer.record(span(
            "engine.request",
            served.sent_ns,
            served.done_ns,
            self.served,
        ));
        self.tracer.record(span(
            "engine.queue_wait",
            served.sent_ns,
            step_start_ns,
            self.served,
        ));
        if keep {
            self.kept.push(Kept::of(step, served));
        }
        self.served += 1;
    }
}

/// Records `placement.uniform` and `scheme.build` per operation and, for the
/// first `cap` builds, replays the build's children while its inputs live.
struct RebuildTrace<'t, 'e> {
    tracer: &'t mut Tracer,
    env: &'e Env,
    ppr: PprConfig,
    cap: usize,
    ops: usize,
    checked: u64,
    failed: u64,
    first_rows: Option<Vec<(NodeId, Embedding)>>,
}

impl RebuildObserver for RebuildTrace<'_, '_> {
    fn built(&mut self, built: &Built<'_, '_>) {
        let op = self.ops as u64;
        self.ops += 1;
        self.tracer.record(span(
            "placement.uniform",
            built.place_start_ns,
            built.build_start_ns,
            op,
        ));
        let build = self.tracer.record(span(
            "scheme.build",
            built.build_start_ns,
            built.build_end_ns,
            op,
        ));
        if self.ops > self.cap {
            return;
        }
        self.checked += 1;
        let (env, ppr) = (self.env, &self.ppr);
        let (rows, _) = self.tracer.replay("personalization.rows", build, || {
            rebuild::personalization_of(env, built.placement, built.network)
        });
        let Ok(rows) = rows else {
            self.failed += 1;
            return;
        };
        self.tracer
            .count("personalization.hosts", rows.len() as u64);
        let (diffused, _) = self.tracer.replay("per_source.auto_diffuse", build, || {
            per_source::auto_diffuse(&env.graph, env.corpus.dim(), &rows, ppr)
        });
        // The engines are deterministic: the replay must reproduce the build.
        let same =
            diffused.is_ok_and(|signal| signal.as_slice() == built.network.embeddings().as_slice());
        self.failed += u64::from(!same);
        self.first_rows.get_or_insert(rows);
    }
}

/// Everything the traced run gathers.
pub struct Layers<'e> {
    pub tracer: Tracer,
    env: &'e Env,
    sizes: &'e Sizes,
    threads: usize,
    ppr: PprConfig,
    /// Per-layer values that are not aggregates of spans.
    values: BTreeMap<&'static str, f64>,
    /// Replays checked against what the product returned, and mismatches.
    pub attempted: u64,
    pub failed: u64,
    /// Score columns by query class, for replaying walks of cache hits.
    columns: BTreeMap<usize, Arc<Vec<f32>>>,
    first_rows: Option<Vec<(NodeId, Embedding)>>,
}

impl<'e> Layers<'e> {
    pub fn new(env: &'e Env, sizes: &'e Sizes, threads: usize) -> Fallible<Self> {
        let mut tracer = Tracer::default();
        for (name, (start_ns, end_ns)) in [
            ("graph.generate", env.gen.graph),
            ("embed.corpus", env.gen.corpus),
            ("embed.querygen", env.gen.querygen),
        ] {
            tracer.record(span(name, start_ns, end_ns, 0));
        }
        Ok(Layers {
            tracer,
            env,
            sizes,
            threads,
            ppr: rebuild::ppr_of(&SchemeConfig::default())?,
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            columns: BTreeMap::new(),
            first_rows: None,
        })
    }

    /// The execute loop, traced; then the kept requests' children replayed.
    pub fn exec(
        &mut self,
        engine: &QueryEngine<'_>,
        stream: &mut RequestStream<'_>,
        round_len: usize,
        budget: Budget,
    ) -> LoopStats {
        let mut observer = ExecTrace {
            tracer: &mut self.tracer,
            stride: (round_len / 50).max(1),
            cap: self.sizes.replayed_requests,
            seen: 0,
            misses: 0,
            kept: Vec::new(),
        };
        let stats = serve::exec_loop(engine, stream, round_len, budget, &mut observer);
        let ExecTrace {
            seen, misses, kept, ..
        } = observer;
        self.replay_requests(engine, stream, &kept);
        let seen = seen.max(1) as f64;
        self.values
            .insert("engine.cache_hit_ratio", 1.0 - misses as f64 / seen);
        self.values
            .insert("walk.hit_rate", stats.hits as f64 / seen);
        let cache = engine.stats().cache;
        let resident = cache
            .inserts
            .saturating_sub(cache.evictions + cache.invalidations);
        let column_bytes = self.env.graph.num_nodes() * 4;
        self.values.insert(
            "engine.cache_resident_mb",
            resident as f64 * column_bytes as f64 / 1e6,
        );
        stats
    }

    /// The submit/step loop, traced; then the kept steps' children replayed.
    pub fn batch(
        &mut self,
        engine: &QueryEngine<'_>,
        stream: &mut RequestStream<'_>,
        round_len: usize,
        budget: Budget,
    ) -> LoopStats {
        let batch = self.sizes.batch;
        let mut observer = BatchTrace {
            tracer: &mut self.tracer,
            stride: (round_len / 5).max(1),
            cap: self.sizes.replayed_batches,
            steps: 0,
            responses: 0,
            served: 0,
            current: None,
            kept_steps: 0,
            kept: Vec::new(),
        };
        let stats = serve::batch_loop(engine, stream, batch, round_len, budget, &mut observer);
        let BatchTrace {
            steps,
            responses,
            kept,
            ..
        } = observer;
        self.replay_requests(engine, stream, &kept);
        self.values.insert(
            "engine.batch_fill",
            responses as f64 / (steps.max(1) * batch) as f64,
        );
        stats
    }

    /// Replays what each parent did for its request: the score column if the
    /// engine had to compute it — once per missing class of a parent, as a
    /// `step` does — and the scored walk. Also times the inline walk — the
    /// path without any column — and checks that all three agree. Sixteen
    /// requests at a time, columns first: a column streams every embedding
    /// through the cache, and would leave each walk after it cold.
    fn replay_requests(
        &mut self,
        engine: &QueryEngine<'_>,
        stream: &RequestStream<'_>,
        kept: &[Kept],
    ) {
        let network = engine.network();
        let mut computed = BTreeSet::new();
        for chunk in kept.chunks(16) {
            let requests: Vec<_> = chunk.iter().map(|k| stream.request(&k.ticket)).collect();
            let mut columns = Vec::with_capacity(chunk.len());
            for (replay, request) in chunk.iter().zip(&requests) {
                let class = replay.ticket.class;
                let score = || forwarding::score_column(request.query(), network.embeddings());
                let column = if replay.miss && computed.insert((replay.parent, class)) {
                    let parent = replay.parent;
                    Arc::new(
                        self.tracer
                            .replay("forwarding.score_column", parent, score)
                            .0,
                    )
                } else if let Some(column) = self.columns.get(&class) {
                    Arc::clone(column)
                } else {
                    let op = self.tracer.op(replay.parent);
                    Arc::new(self.tracer.probe("forwarding.score_column", op, score).0)
                };
                if self.columns.len() < self.sizes.hot_classes {
                    self.columns
                        .entry(class)
                        .or_insert_with(|| Arc::clone(&column));
                }
                columns.push(column);
            }
            for scored in [true, false] {
                for ((replay, request), column) in chunk.iter().zip(&requests).zip(&columns) {
                    let ticket = &replay.ticket;
                    let mut rng = StdRng::seed_from_u64(ticket.seed);
                    let (query, start) = (request.query(), ticket.start);
                    let (walked, _) = if scored {
                        self.tracer.replay("walk.scored", replay.parent, || {
                            walk::run_scored(network, query, start, &mut rng, Some(column))
                        })
                    } else {
                        let op = self.tracer.op(replay.parent);
                        self.tracer.probe("walk.inline", op, || {
                            walk::run(network, query, start, &mut rng)
                        })
                    };
                    self.attempted += 1;
                    match walked {
                        Ok(outcome) if outcome == replay.outcome => {
                            self.tracer.count("walk.hops", u64::from(outcome.hops));
                            self.tracer
                                .count("walk.unique_nodes", outcome.unique_nodes as u64);
                        }
                        _ => self.failed += 1,
                    }
                }
            }
        }
    }

    /// The open-loop diagnostic at each offered rate.
    pub fn open_loops(
        &mut self,
        engine: &QueryEngine<'_>,
        stream: &mut RequestStream<'_>,
    ) -> Fallible<()> {
        let sizes = self.sizes;
        for (rate, names) in sizes.open_rates.into_iter().zip(OPEN_NAMES) {
            let [run, p50, p99, reject_share, gen_late] = names;
            let (out, _) = self.tracer.time(run, u64::from(rate), || {
                serve::open_loop(
                    engine,
                    stream,
                    rate,
                    sizes.open_seconds,
                    sizes.open_min_completed,
                    sizes.open_cap_seconds,
                )
            });
            self.attempted += out.offered;
            self.failed += out.failed;
            let tail = stats::tail(&out.latencies_ns, 0.99).ok_or_else(|| {
                format!(
                    "open loop at {rate}/s completed {} requests, too few for a p99",
                    out.latencies_ns.len()
                )
            })?;
            self.values
                .insert(p50, stats::median(&out.latencies_ns) as f64 / 1e3);
            self.values.insert(p99, tail as f64 / 1e3);
            self.values.insert(
                reject_share,
                out.rejected as f64 / out.offered.max(1) as f64,
            );
            self.values
                .insert(gen_late, out.gen_late_max_ns as f64 / 1e3);
        }
        Ok(())
    }

    /// What one `workpool::map_batched` costs when the work is nothing: the
    /// spawn and join of the engine's worker threads.
    pub fn spawn_join(&mut self) {
        let items = vec![(); self.threads];
        for i in 0..self.sizes.spawn_join_repeats {
            self.tracer.probe("workpool.spawn_join", i as u64, || {
                black_box(workpool::map_batched(&items, items.len(), |()| ()));
            });
        }
    }

    /// The rebuild loop, traced, with the first builds' children replayed.
    pub fn rebuild(
        &mut self,
        words: &[WordId],
        rng: &mut StdRng,
        round_len: usize,
        budget: Budget,
    ) -> LoopStats {
        let mut observer = RebuildTrace {
            tracer: &mut self.tracer,
            env: self.env,
            ppr: self.ppr,
            cap: self.sizes.replayed_builds,
            ops: 0,
            checked: 0,
            failed: 0,
            first_rows: None,
        };
        let scheme = SchemeConfig::default();
        let stats = rebuild::rebuild_loop(
            self.env,
            words,
            &scheme,
            rng,
            round_len,
            budget,
            &mut observer,
        );
        self.attempted += observer.checked;
        self.failed += observer.failed;
        self.first_rows = observer.first_rows;
        stats
    }

    /// Stand-alone probes of the diffusion and graph layers on the first
    /// replayed build's personalization rows. `Auto` takes either the dense
    /// sweep or the per-source push, so each workload's build path goes
    /// through one of them only; here both run — the sweep on all rows, push
    /// and its sharded and distributed forms on the first `docs_sparse` rows.
    pub fn diffusion_probes(&mut self) -> Fallible<()> {
        let rows = self
            .first_rows
            .take()
            .ok_or("no build was replayed before the diffusion probes")?;
        let (graph, dim, ppr) = (&self.env.graph, self.env.corpus.dim(), self.ppr);
        let n = graph.num_nodes();
        let sparse = &rows[..rows.len().min(self.sizes.docs_sparse)];
        let push_cfg = PushConfig::new(ppr).with_threads(self.threads.min(sparse.len()).max(1))?;
        let sharded_cfg = ShardedConfig::new(ppr)
            .with_shards(2)?
            .with_threads(self.threads)?;
        let dist_cfg = DistConfig::new(sharded_cfg);
        let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
        let mut product = vec![0.0f32; n * dim];
        for rep in 0..self.sizes.probe_repeats as u64 {
            let (swept, _) = self
                .tracer
                .probe("power.diffuse", rep, || power::diffuse(graph, &e0, &ppr));
            let swept = swept?;
            let (a, _) = self.tracer.probe("graph.transition", rep, || {
                transition_matrix(graph, ppr.normalization())
            });
            self.tracer.probe("graph.spmm", rep, || {
                a.mul_dense_into(swept.signal.as_slice(), dim, &mut product);
            });
            black_box(&product);
            self.tracer.count("power.sweeps", swept.iterations as u64);
            self.tracer.count("graph.nnz", a.nnz() as u64);
            let (pushed, _) = self.tracer.probe("push.diffuse_sparse", rep, || {
                push::diffuse_sparse(graph, dim, sparse, &push_cfg)
            });
            let (split, _) = self.tracer.probe("sharded.sparse", rep, || {
                sharded::diffuse_sparse(graph, dim, sparse, &sharded_cfg)
            });
            let (sent, _) = self.tracer.probe("dist.sparse", rep, || {
                gdsearch_dist::diffuse_sparse(graph, dim, sparse, &dist_cfg)
            });
            let (sent, exchange) = sent?;
            self.values
                .insert("dist.halo_bytes", exchange.frame_bytes as f64);
            self.values.insert("dist.frames", exchange.frames as f64);
            // Distributed is the sharded engine over simulated links: equal
            // bit for bit. Push agrees with both to the scheme's tolerance.
            self.attempted += 2;
            let split = split?;
            self.failed += u64::from(sent.as_slice() != split.as_slice());
            let gap = pushed?.max_abs_diff(&split)?;
            self.failed += u64::from(gap.is_nan() || gap > 2.0 * ppr.tolerance());
        }
        let (mut pushes, mut frontier_peak) = (0, 0);
        for (source, _) in sparse {
            let column = push::ppr_vector_detailed(graph, *source, &PushConfig::new(ppr))?;
            pushes += column.pushes;
            frontier_peak = frontier_peak.max(column.frontier_peak);
        }
        self.values.insert("push.pushes", pushes as f64);
        self.values
            .insert("push.frontier_peak", frontier_peak as f64);
        Ok(())
    }

    fn median_ns(&self, span: &str) -> f64 {
        stats::median(&self.tracer.durations_ns(span)) as f64
    }

    fn tail_ns(&self, span: &str) -> Fallible<f64> {
        let durations = self.tracer.durations_ns(span);
        let tail = stats::tail(&durations, 0.99)
            .ok_or_else(|| format!("{} {span} spans are too few for a p99", durations.len()))?;
        Ok(tail as f64)
    }

    /// Every per-layer metric by name, but `trace_overhead_share`, which the
    /// caller takes from the workload's own loop.
    pub fn metrics(&self) -> Fallible<BTreeMap<&'static str, f64>> {
        let mut m = self.values.clone();
        let (n, dim) = (
            self.env.graph.num_nodes() as f64,
            self.env.corpus.dim() as f64,
        );
        let nnz = self.tracer.mean_count("graph.nnz");
        let self_ns = |span: &str, threads: usize| {
            stats::median(&self.tracer.self_times_ns(span, threads)) as f64
        };

        m.insert("graph.gen_s", self.median_ns("graph.generate") / 1e9);
        m.insert("graph.edges", self.env.graph.num_edges() as f64);
        m.insert("embed.corpus_gen_s", self.median_ns("embed.corpus") / 1e9);
        m.insert("embed.querygen_s", self.median_ns("embed.querygen") / 1e9);

        m.insert(
            "placement.uniform_ms",
            self.median_ns("placement.uniform") / 1e6,
        );
        m.insert(
            "personalization.rows_ms",
            self.median_ns("personalization.rows") / 1e6,
        );
        m.insert(
            "personalization.hosts",
            self.tracer.mean_count("personalization.hosts"),
        );
        m.insert("scheme.build_ms", self.median_ns("scheme.build") / 1e6);
        m.insert("scheme.build_self_ms", self_ns("scheme.build", 1) / 1e6);
        m.insert(
            "per_source.auto_ms",
            self.median_ns("per_source.auto_diffuse") / 1e6,
        );

        let sweeps = self.tracer.mean_count("power.sweeps");
        m.insert("power.diffuse_ms", self.median_ns("power.diffuse") / 1e6);
        m.insert("power.sweeps", sweeps);
        m.insert(
            "power.ns_per_edge_sweep",
            self.median_ns("power.diffuse") / (sweeps * nnz).max(1.0),
        );
        let pushes = m.get("push.pushes").copied().unwrap_or(0.0);
        m.insert(
            "push.diffuse_sparse_ms",
            self.median_ns("push.diffuse_sparse") / 1e6,
        );
        m.insert(
            "push.ns_per_push",
            self.median_ns("push.diffuse_sparse") / pushes.max(1.0),
        );
        m.insert(
            "graph.transition_ms",
            self.median_ns("graph.transition") / 1e6,
        );
        m.insert("graph.spmm_ms", self.median_ns("graph.spmm") / 1e6);
        m.insert(
            "graph.spmm_ns_per_edge",
            self.median_ns("graph.spmm") / nnz.max(1.0),
        );
        // Computed, not measured: per stored entry a column index, a weight
        // and one row of X read; per output row one row of Y written.
        m.insert("graph.spmm_bytes", nnz * (8.0 + 4.0 * dim) + n * 4.0 * dim);
        m.insert("sharded.sparse_ms", self.median_ns("sharded.sparse") / 1e6);
        m.insert("dist.sparse_ms", self.median_ns("dist.sparse") / 1e6);

        m.insert("engine.execute_us", self.median_ns("engine.execute") / 1e3);
        m.insert(
            "engine.execute_p99_us",
            self.tail_ns("engine.execute")? / 1e3,
        );
        m.insert("engine.self_us", self_ns("engine.execute", 1) / 1e3);
        m.insert("engine.submit_ns", self.median_ns("engine.submit"));
        m.insert("engine.step_us", self.median_ns("engine.step") / 1e3);
        m.insert(
            "engine.step_self_us",
            self_ns("engine.step", self.threads) / 1e3,
        );
        m.insert(
            "engine.queue_wait_us",
            self.median_ns("engine.queue_wait") / 1e3,
        );
        m.insert("engine.batch_p99_us", self.tail_ns("engine.request")? / 1e3);

        m.insert(
            "forwarding.score_column_us",
            self.median_ns("forwarding.score_column") / 1e3,
        );
        m.insert(
            "forwarding.ns_per_dot",
            self.median_ns("forwarding.score_column") / n.max(1.0),
        );
        // Computed: every node's embedding row is read once per column.
        m.insert("forwarding.column_bytes_read", n * dim * 4.0);

        let hops = self.tracer.mean_count("walk.hops");
        m.insert("walk.scored_us", self.median_ns("walk.scored") / 1e3);
        m.insert("walk.inline_us", self.median_ns("walk.inline") / 1e3);
        m.insert(
            "walk.ns_per_hop",
            self.median_ns("walk.scored") / hops.max(1.0),
        );
        m.insert("walk.hops", hops);
        m.insert(
            "walk.unique_nodes",
            self.tracer.mean_count("walk.unique_nodes"),
        );

        m.insert(
            "workpool.spawn_join_us",
            self.median_ns("workpool.spawn_join") / 1e3,
        );
        Ok(m)
    }
}
