//! The rebuild loop — re-place the documents, re-diffuse, drop — and the
//! independent fixed-point check of what it built.

use gdsearch::personalization::personalization_rows;
use gdsearch::{Placement, SchemeConfig, SearchNetwork};
use gdsearch_diffusion::{PprConfig, Signal};
use gdsearch_embed::{Embedding, WordId};
use gdsearch_graph::sparse::transition_matrix;
use gdsearch_graph::NodeId;
use rand::rngs::StdRng;

use crate::inputs::{Budget, Env, Fallible};
use crate::serve::{within, LoopStats};
use crate::trace::now_ns;

/// A build as the observer sees it, before the network is dropped.
pub struct Built<'a, 'g> {
    pub placement: &'a Placement,
    pub network: &'a SearchNetwork<'g>,
    pub place_start_ns: u64,
    pub build_start_ns: u64,
    pub build_end_ns: u64,
}

pub trait RebuildObserver {
    fn built(&mut self, _built: &Built<'_, '_>) {}
}

/// Observes nothing (warm-up).
pub struct Unobserved;
impl RebuildObserver for Unobserved {}

/// One operation: `Placement::uniform` + `SearchNetwork::build`.
pub fn place_and_build<'g>(
    env: &'g Env,
    words: &[WordId],
    scheme: &SchemeConfig,
    rng: &mut StdRng,
) -> Fallible<(Placement, SearchNetwork<'g>)> {
    let placement = Placement::uniform(&env.graph, words, rng)?;
    let network = SearchNetwork::build(&env.graph, &env.corpus, &placement, scheme, rng)?;
    Ok((placement, network))
}

/// Closed loop: place, build, drop, again. A build's latency is the
/// `SearchNetwork::build` call alone; a round's elapsed time covers placing,
/// building and dropping, so work moved out of `build` still shows in
/// operations per second. The observer's time is not counted.
pub fn rebuild_loop(
    env: &Env,
    words: &[WordId],
    scheme: &SchemeConfig,
    rng: &mut StdRng,
    round_len: usize,
    budget: Budget,
    observer: &mut dyn RebuildObserver,
) -> LoopStats {
    let mut out = LoopStats::default();
    let mut latencies = Vec::with_capacity(round_len);
    let started_ns = now_ns();
    while within(budget, started_ns, out.ops()) {
        let mut observer_ns = 0;
        let round_ns = now_ns();
        for _ in 0..round_len {
            out.attempted += 1;
            let place_start_ns = now_ns();
            let Ok(placement) = Placement::uniform(&env.graph, words, rng) else {
                out.failed += 1;
                continue;
            };
            let build_start_ns = now_ns();
            let built = SearchNetwork::build(&env.graph, &env.corpus, &placement, scheme, rng);
            let build_end_ns = now_ns();
            let Ok(network) = built else {
                out.failed += 1;
                continue;
            };
            latencies.push(build_end_ns - build_start_ns);
            observer.built(&Built {
                placement: &placement,
                network: &network,
                place_start_ns,
                build_start_ns,
                build_end_ns,
            });
            observer_ns += now_ns() - build_end_ns;
            drop(network);
        }
        out.close_round(&mut latencies, round_ns + observer_ns);
    }
    out
}

/// The scheme's PPR parameters, from its public accessors.
pub fn ppr_of(scheme: &SchemeConfig) -> Fallible<PprConfig> {
    Ok(PprConfig::new(scheme.alpha())?
        .with_tolerance(scheme.tolerance())?
        .with_max_iterations(scheme.max_iterations())
        .with_normalization(scheme.normalization()))
}

/// A placement's documents grouped by host, in ascending host order — the
/// argument `personalization_rows` takes.
pub fn docs_by_host<'n>(
    placement: &Placement,
    network: &'n SearchNetwork<'_>,
) -> Vec<(NodeId, Vec<&'n Embedding>)> {
    placement
        .docs_by_host()
        .into_iter()
        .map(|(host, docs)| {
            let embeddings = docs.iter().map(|&d| network.doc_embedding(d)).collect();
            (host, embeddings)
        })
        .collect()
}

/// The personalization rows `E0` of a placement.
pub fn personalization_of(
    env: &Env,
    placement: &Placement,
    network: &SearchNetwork<'_>,
) -> Fallible<Vec<(NodeId, Embedding)>> {
    let grouped = docs_by_host(placement, network);
    Ok(personalization_rows(
        &env.graph,
        env.corpus.dim(),
        &grouped,
        network.config().aggregation(),
    )?)
}

/// Correctness check 2: `‖(1−α)·A·E + α·E0 − E‖∞` of a built network,
/// computed here from the transition matrix and the personalization rows —
/// independent of every engine's own convergence bookkeeping.
pub fn fixed_point_residual(
    env: &Env,
    placement: &Placement,
    network: &SearchNetwork<'_>,
) -> Fallible<f32> {
    let scheme = network.config();
    let alpha = scheme.alpha();
    let (n, dim) = (env.graph.num_nodes(), env.corpus.dim());
    let rows = personalization_of(env, placement, network)?;
    let e0 = Signal::from_sparse_rows(n, dim, &rows)?;
    let a = transition_matrix(&env.graph, scheme.normalization());
    let e = network.embeddings().as_slice();
    let mut ae = vec![0.0f32; e.len()];
    a.mul_dense_into(e, dim, &mut ae);
    let residual = ae
        .iter()
        .zip(e0.as_slice())
        .zip(e)
        .map(|((ae, e0), e)| ((1.0 - alpha) * ae + alpha * e0 - e).abs())
        // `f32::max` drops NaN; a NaN embedding must fail the check.
        .fold(0.0f32, |worst, r| {
            if r.is_nan() {
                f32::INFINITY
            } else {
                worst.max(r)
            }
        });
    Ok(residual)
}
