//! The two kinds of run: untraced, for the end-to-end metrics, and traced,
//! for the per-layer metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use gdsearch::{QueryEngine, SchemeConfig, WalkOutcome};
use rand::rngs::StdRng;

use crate::alloc;
use crate::inputs::{self, Budget, Env, Fallible, Loop, RequestStream, Sizes, Ticket, Workload};
use crate::layers::Layers;
use crate::rebuild;
use crate::serve::{self, LoopStats, ServeObserver, Served};
use crate::stats::{self, Summary};

/// What the command line asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Metric values by name, the spread of rounds behind some of them, and the
/// operations and checks tried and failed.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub spreads: BTreeMap<&'static str, Summary>,
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    fn add(&mut self, stats: &LoopStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
    }

    fn check(&mut self, passed: bool) {
        self.attempted += 1;
        self.failed += u64::from(!passed);
    }
}

fn serve_plan(workload: Workload, sizes: &Sizes) -> Loop {
    match workload {
        Workload::ServeBatch => sizes.batches,
        Workload::ServeCold => sizes.exec_cold,
        _ => sizes.exec_hot,
    }
}

fn rebuild_plan(workload: Workload, sizes: &Sizes) -> Loop {
    match workload {
        Workload::RebuildSparse => sizes.rebuild_sparse,
        _ => sizes.rebuild_dense,
    }
}

/// Keeps the first `cap` measured responses for correctness check 1.
struct CheckSample {
    cap: usize,
    kept: Vec<(Ticket, WalkOutcome)>,
}

impl ServeObserver for CheckSample {
    fn served(&mut self, served: &Served<'_>) {
        if self.kept.len() < self.cap {
            self.kept
                .push((*served.ticket, served.response.outcome.clone()));
        }
    }
}

/// The untraced run: set-up (several times, for its median), warm-up, the
/// measured rounds, then the correctness checks. Memory peaks from the end of
/// set-up to the end of the measured rounds.
pub fn untraced(opts: &Opts, sizes: &Sizes, threads: usize) -> Fallible<Outcome> {
    let (workload, seed) = (opts.workload, opts.seed);
    let docs = sizes.docs(workload);
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(sizes.setup_reps);
    for _ in 1..sizes.setup_reps {
        let t = Instant::now();
        let env = Env::generate(sizes, seed)?;
        if workload.is_serve() {
            inputs::build_engine(&env, docs, threads, seed)?;
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let env = Env::generate(sizes, seed)?;
    let (measured, peak_live_mb) = if workload.is_serve() {
        let engine = inputs::build_engine(&env, docs, threads, seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        measure_serve(opts, sizes, &env, &engine, &mut out)?
    } else {
        setup_s.push(t.elapsed().as_secs_f64());
        measure_rebuild(opts, sizes, &env, &mut out)?
    };
    out.add(&measured);

    let setup = stats::summarize(&setup_s);
    let rounds = measured.rounds.iter();
    let throughput: Vec<f64> = rounds.clone().map(serve::Round::ops_per_s).collect();
    let latency: Vec<f64> = rounds.map(|r| r.p50_ns as f64 / 1e3).collect();
    out.values.insert("setup_s", setup.median);
    out.values.insert("ops_per_s", measured.best_ops_per_s());
    out.values
        .insert("op_p50_us", measured.best_p50_ns() as f64 / 1e3);
    out.values.insert("peak_live_mb", peak_live_mb);
    out.spreads.insert("setup_s", setup);
    out.spreads
        .insert("ops_per_s", stats::summarize(&throughput));
    out.spreads.insert("op_p50_us", stats::summarize(&latency));
    Ok(out)
}

/// How long the measured loop runs: `--seconds`, and a few rounds at least.
fn measured_budget(opts: &Opts, sizes: &Sizes, plan: Loop) -> Budget {
    Budget {
        seconds: opts.seconds,
        min_ops: sizes.measured_rounds_min * plan.round,
    }
}

fn measure_serve(
    opts: &Opts,
    sizes: &Sizes,
    env: &Env,
    engine: &QueryEngine<'_>,
    out: &mut Outcome,
) -> Fallible<(LoopStats, f64)> {
    let workload = opts.workload;
    let plan = serve_plan(workload, sizes);
    let mut stream = RequestStream::new(env, sizes.mix(workload), opts.seed);
    let mut run = |budget, observer: &mut dyn ServeObserver| match workload {
        Workload::ServeBatch => serve::batch_loop(
            engine,
            &mut stream,
            sizes.batch,
            plan.round,
            budget,
            observer,
        ),
        _ => serve::exec_loop(engine, &mut stream, plan.round, budget, observer),
    };
    alloc::reset_peak();
    out.add(&run(Budget::ops(plan.warmup), &mut serve::Unobserved));
    let mut sample = CheckSample {
        cap: sizes.checked_requests,
        kept: Vec::new(),
    };
    let measured = run(measured_budget(opts, sizes, plan), &mut sample);
    let peak_live_mb = alloc::peak_mb();
    for (ticket, outcome) in &sample.kept {
        out.check(serve::outcome_matches_walk(
            engine, &stream, ticket, outcome,
        )?);
    }
    println!(
        "check {} engine outcomes against walk::run",
        sample.kept.len()
    );
    Ok((measured, peak_live_mb))
}

fn measure_rebuild(
    opts: &Opts,
    sizes: &Sizes,
    env: &Env,
    out: &mut Outcome,
) -> Fallible<(LoopStats, f64)> {
    let plan = rebuild_plan(opts.workload, sizes);
    let words = env.gold_words(sizes.docs(opts.workload));
    let scheme = SchemeConfig::default();
    let mut rng = inputs::placement_rng(opts.seed);
    let run = |rng: &mut StdRng, budget| {
        let observer = &mut rebuild::Unobserved;
        rebuild::rebuild_loop(env, &words, &scheme, rng, plan.round, budget, observer)
    };
    alloc::reset_peak();
    out.add(&run(&mut rng, Budget::ops(plan.warmup)));
    let first = rng.clone();
    let measured = run(&mut rng, measured_budget(opts, sizes, plan));
    let peak_live_mb = alloc::peak_mb();
    // Check the first measured build (made again from its RNG state: the
    // engines are deterministic) and one more after the last, here, so the
    // checker's own matrices stay out of the memory peak.
    for mut rng in [first, rng] {
        let (placement, network) = rebuild::place_and_build(env, &words, &scheme, &mut rng)?;
        let residual = rebuild::fixed_point_residual(env, &placement, &network)?;
        out.check(residual <= scheme.tolerance());
        println!(
            "check fixed-point residual {residual:e} against tolerance {:e}",
            scheme.tolerance()
        );
    }
    Ok((measured, peak_live_mb))
}

/// One loop of the traced run. The workload's own loop runs twice on
/// `own`'s budget: untraced for reference, then traced, and the ratio of
/// their best rounds is the tracing overhead. Any other loop runs traced
/// only, for `probe`'s fixed number of operations.
struct TracedLoop<'a> {
    own: Option<Budget>,
    probe: Budget,
    out: &'a mut Outcome,
}

impl TracedLoop<'_> {
    fn run(
        self,
        reference: impl FnOnce(Budget) -> LoopStats,
        traced: impl FnOnce(Budget) -> LoopStats,
    ) {
        let Some(budget) = self.own else {
            self.out.add(&traced(self.probe));
            return;
        };
        let (reference, traced) = (reference(budget), traced(budget));
        let overhead = 1.0 - traced.best_ops_per_s() / reference.best_ops_per_s();
        self.out.values.insert("trace_overhead_share", overhead);
        self.out.add(&reference);
        self.out.add(&traced);
    }
}

/// The traced run: every loop traced on this workload's inputs — the
/// workload's own for a quarter of `--seconds` (after as long untraced), the
/// others for a small fixed count — then the stand-alone probes, so each
/// layer is measured whether or not the workload's own path uses it. The
/// reference runs on a copy of the request stream (or placement RNG): the
/// traced loop sees the same inputs however long the reference ran, and the
/// work counters repeat exactly for a seed.
pub fn traced(opts: &Opts, sizes: &Sizes, threads: usize) -> Fallible<Outcome> {
    let (workload, seed) = (opts.workload, opts.seed);
    let docs = sizes.docs(workload);
    let mut out = Outcome::default();
    let env = Env::generate(sizes, seed)?;
    let mut layers = Layers::new(&env, sizes, threads)?;
    let own = |is_own: bool, min_ops| {
        is_own.then_some(Budget {
            seconds: opts.seconds / 4.0,
            min_ops,
        })
    };
    let unobserved = &mut serve::Unobserved;

    let plan = rebuild_plan(workload, sizes);
    let (words, scheme) = (env.gold_words(docs), SchemeConfig::default());
    let mut rng = inputs::placement_rng(seed);
    let untraced_rebuild = |rng: &mut StdRng, budget| {
        let observer = &mut rebuild::Unobserved;
        rebuild::rebuild_loop(&env, &words, &scheme, rng, plan.round, budget, observer)
    };
    if !workload.is_serve() {
        out.add(&untraced_rebuild(&mut rng, Budget::ops(plan.warmup)));
    }
    TracedLoop {
        own: own(!workload.is_serve(), plan.round),
        probe: Budget::ops(sizes.probe_builds),
        out: &mut out,
    }
    .run(
        |budget| untraced_rebuild(&mut rng.clone(), budget),
        |budget| layers.rebuild(&words, &mut rng.clone(), plan.round, budget),
    );
    layers.diffusion_probes()?;

    let engine = inputs::build_engine(&env, docs, threads, seed)?;
    let mut stream = RequestStream::new(&env, sizes.mix(workload), seed);
    let exec = match workload {
        Workload::ServeCold => sizes.exec_cold,
        _ => sizes.exec_hot,
    };
    let (batch, batches) = (sizes.batch, sizes.batches);
    let warmup = Budget::ops(exec.warmup);
    out.add(&serve::exec_loop(
        &engine,
        &mut stream,
        exec.round,
        warmup,
        unobserved,
    ));
    let mut copy = stream.clone();
    TracedLoop {
        own: own(
            matches!(workload, Workload::ServeHot | Workload::ServeCold),
            sizes.probe_requests,
        ),
        probe: Budget::ops(sizes.probe_requests),
        out: &mut out,
    }
    .run(
        |budget| {
            serve::exec_loop(
                &engine,
                &mut copy,
                exec.round,
                budget,
                &mut serve::Unobserved,
            )
        },
        |budget| layers.exec(&engine, &mut stream, exec.round, budget),
    );
    if workload == Workload::ServeBatch {
        let warmup = Budget::ops(batches.warmup);
        out.add(&serve::batch_loop(
            &engine,
            &mut stream,
            batch,
            batches.round,
            warmup,
            unobserved,
        ));
    }
    let mut copy = stream.clone();
    TracedLoop {
        own: own(workload == Workload::ServeBatch, sizes.probe_batches),
        probe: Budget::ops(sizes.probe_batches),
        out: &mut out,
    }
    .run(
        |budget| {
            let observer = &mut serve::Unobserved;
            serve::batch_loop(&engine, &mut copy, batch, batches.round, budget, observer)
        },
        |budget| layers.batch(&engine, &mut stream, batches.round, budget),
    );
    layers.open_loops(&engine, &mut stream)?;
    layers.spawn_join();

    out.values.extend(layers.metrics()?);
    out.attempted += layers.attempted;
    out.failed += layers.failed;
    let path = trace_path(workload);
    layers.tracer.write_chrome_file(&path)?;
    println!("trace written to {}", path.display());
    Ok(out)
}

/// `<target dir>/benchmark/<workload>.trace.json`, inside the checkout: the
/// target directory is cargo's (`CARGO_TARGET_DIR`, else `target`).
fn trace_path(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("benchmark")
        .join(format!("{}.trace.json", workload.name()))
}
