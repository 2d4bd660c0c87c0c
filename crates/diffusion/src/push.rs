//! Forward-push evaluation of single-source PPR with residual queues.
//!
//! Every sweep-based engine in this crate pays `O(iters · E)` per
//! diffusion. Forward push (Andersen–Chung–Lang local clustering; PowerWalk,
//! arXiv:1608.06054) instead maintains, per node, an **estimate** `p` and a
//! **residual** `r` with the invariant
//!
//! ```text
//! h_s = p + M r,          M = a (I − (1−a) A)^{-1},
//! ```
//!
//! starting from `p = 0, r = δ_s`. A *push* at node `u` moves the certain
//! part of `u`'s residual into the estimate and forwards the rest one hop:
//!
//! ```text
//! p(u) += a · r(u);    r(v) += (1−a) · r(u) · A[v][u]  for v ∈ N(u);    r(u) = 0.
//! ```
//!
//! Only nodes whose residual is large relative to their degree
//! (`r(u) > rmax · deg(u)`) sit on the FIFO frontier, so total work is
//! proportional to the *pushed mass* — sublinear in the graph for local
//! sources — instead of `iters · E`.
//!
//! # Accuracy guarantee
//!
//! `rmax` is a frontier granularity, not the accuracy contract. After each
//! drain the engine evaluates a rigorous bound on `‖M r‖∞ = ‖h_s − p‖∞`
//! (see [`PprConfig::tolerance`](crate::PprConfig::tolerance) for the
//! tolerance semantics) and keeps halving `rmax` until the bound meets the
//! tolerance, so results are interchangeable with
//! [`crate::per_source::ppr_vector`]. For the undirected graphs of this
//! workspace the bounds are, with `θ = max_u r(u)/deg(u)` and `d_max` the
//! maximum degree (reversibility of the simple random walk gives
//! `h_u(v) = (deg(v)/deg(u)) · h_v(u)` in the column-stochastic case):
//!
//! * column-stochastic: `‖M r‖∞ ≤ min(‖r‖₁, d_max · θ)`;
//! * row-stochastic: `‖M r‖∞ ≤ max_u r(u)` (rows of `M` sum to 1);
//! * symmetric: `‖M r‖∞ ≤ √d_max · max_u r(u)/√deg(u)`
//!   (via `M_sym = D^{1/2} M_row D^{-1/2}`).
//!
//! Residuals stay non-negative throughout (the personalization is `δ_s`
//! and `A` is non-negative), which is what makes the bounds valid.
//!
//! # Batched multi-source driver
//!
//! [`diffuse_sparse`] computes one push column per *distinct* source node
//! on a [`crate::workpool`] of scoped threads and rank-1-accumulates the
//! columns into the dense [`Signal`] exactly like
//! [`crate::per_source::diffuse_sparse`]. Column computation is a pure
//! function of `(graph, source, config)` and accumulation happens on the
//! calling thread in ascending node order, so the output is **bit-for-bit
//! identical for every thread count**.

use std::collections::{BTreeMap, VecDeque};

use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::Normalization;
use gdsearch_graph::{Graph, NodeId};

use crate::convergence::Convergence;
use crate::degrees::DegreeTables;
use crate::{workpool, DiffusionError, PprConfig, Signal};

/// Node count above which [`crate::per_source::auto_diffuse`] prefers the
/// push engine over scalar power iteration for sparse personalizations.
///
/// Below this size a full `O(iters · E)` scalar sweep is already cheap and
/// the push engine's queue bookkeeping does not pay for itself; above it,
/// push wins increasingly with `N`. The threshold itself is unmeasured:
/// the repo benchmark's `push.diffuse_sparse_ms` times the push side at
/// N = 10⁵, nothing times the scalar sweep it replaces.
pub const AUTO_PUSH_MIN_NODES: usize = 4096;

/// Configuration of the forward-push engine: the PPR filter parameters
/// plus the push-specific knobs.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::{push::PushConfig, PprConfig};
///
/// # fn main() -> Result<(), gdsearch_diffusion::DiffusionError> {
/// let cfg = PushConfig::new(PprConfig::new(0.5)?)
///     .with_rmax(1e-4)?
///     .with_threads(4)?;
/// assert_eq!(cfg.threads(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushConfig {
    ppr: PprConfig,
    rmax: f32,
    threads: usize,
}

impl PushConfig {
    /// Creates a push configuration with defaults: initial `rmax` equal to
    /// the PPR tolerance and a single worker thread.
    ///
    /// `rmax` only controls where the frontier refinement *starts* — the
    /// result always meets `ppr.tolerance()` (see the module docs), so the
    /// default is a reasonable schedule for any graph.
    #[must_use]
    pub fn new(ppr: PprConfig) -> Self {
        PushConfig {
            ppr,
            rmax: ppr.tolerance().max(f32::MIN_POSITIVE),
            threads: 1,
        }
    }

    /// Sets the initial frontier granularity: nodes enter the push queue
    /// while `r(u) > rmax · deg(u)`. Larger values start coarser and rely
    /// on more halving rounds; the final accuracy is unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] unless `rmax` is
    /// positive and finite.
    pub fn with_rmax(mut self, rmax: f32) -> Result<Self, DiffusionError> {
        if !rmax.is_finite() || rmax <= 0.0 {
            return Err(DiffusionError::invalid_parameter(format!(
                "rmax must be positive and finite, got {rmax}"
            )));
        }
        self.rmax = rmax;
        Ok(self)
    }

    /// Sets the worker-thread count of the batched multi-source driver.
    /// The output is identical for every thread count (see module docs).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Result<Self, DiffusionError> {
        if threads == 0 {
            return Err(DiffusionError::invalid_parameter(
                "threads must be positive",
            ));
        }
        self.threads = threads;
        Ok(self)
    }

    /// The PPR filter parameters.
    #[must_use]
    pub fn ppr(&self) -> &PprConfig {
        &self.ppr
    }

    /// Initial frontier granularity.
    #[must_use]
    pub fn rmax(&self) -> f32 {
        self.rmax
    }

    /// Worker threads of the batched driver.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Outcome of a single-source push with its work counters — what the
/// repo benchmark reports as `push.pushes` and `push.frontier_peak`.
#[derive(Debug, Clone, PartialEq)]
pub struct PushResult {
    /// The PPR column `h_s` to the certified accuracy.
    pub values: Vec<f32>,
    /// Individual push operations performed (each costs `deg(u)` work).
    pub pushes: usize,
    /// Frontier drains performed (one per `rmax` refinement level).
    pub drains: usize,
    /// The certified final bound on `‖h_s − values‖∞`.
    pub residual_bound: f32,
    /// The frontier granularity at which the bound was certified.
    pub final_rmax: f32,
    /// High-water frontier queue length over the whole computation.
    pub frontier_peak: usize,
}

/// The graph plus its degree tables — everything a column push reads.
///
/// The degree scalars and the certified residual bound live in
/// [`crate::degrees::DegreeTables`], shared with the sharded push engine
/// so the bound formulas exist exactly once.
struct PushContext<'g> {
    graph: &'g Graph,
    tables: DegreeTables,
}

impl<'g> PushContext<'g> {
    fn new(graph: &'g Graph, norm: Normalization) -> Self {
        PushContext {
            graph,
            tables: DegreeTables::from_graph(graph, norm),
        }
    }

    /// Rigorous bound on `‖M r‖∞`, the L∞ distance between the current
    /// estimate and the fixed point (derivations in the module docs).
    fn residual_bound(&self, residual: &[f32]) -> f32 {
        self.tables
            .residual_bound(residual.iter().copied().enumerate())
    }
}

/// Computes one push column to the certified tolerance. Pure in
/// `(ctx, source, config)`: the batched driver relies on this for
/// thread-count determinism.
fn push_column(
    ctx: &PushContext<'_>,
    source: u32,
    config: &PushConfig,
) -> Result<(Vec<f32>, PushResult), DiffusionError> {
    let n = ctx.graph.num_nodes();
    let alpha = config.ppr.alpha();
    let tolerance = config.ppr.tolerance();
    let budget = config.ppr.max_iterations().saturating_mul(n.max(1));

    let mut estimate = vec![0.0f32; n];
    let mut residual = vec![0.0f32; n];
    residual[source as usize] = 1.0;
    let mut in_queue = vec![false; n];
    let mut queue: VecDeque<u32> = VecDeque::new();
    queue.push_back(source);
    in_queue[source as usize] = true;

    let mut rmax = config.rmax;
    let mut pushes = 0usize;
    let mut frontier_peak = queue.len();
    let mut conv = Convergence::new();
    loop {
        // Drain the frontier at the current granularity.
        while let Some(u) = queue.pop_front() {
            // The queue only grows between pops, so observing its length
            // at every pop (plus the popped head) captures the high-water
            // mark exactly.
            frontier_peak = frontier_peak.max(queue.len() + 1);
            let ui = u as usize;
            in_queue[ui] = false;
            let ru = residual[ui];
            if ru <= rmax * ctx.tables.deg_scale[ui] {
                continue;
            }
            if pushes >= budget {
                return Err(DiffusionError::NotConverged {
                    iterations: pushes,
                    residual: ctx.residual_bound(&residual),
                });
            }
            pushes += 1;
            residual[ui] = 0.0;
            estimate[ui] += alpha * ru;
            let spread = (1.0 - alpha) * ru;
            if spread <= 0.0 {
                continue;
            }
            // Forward the remaining mass along column u of A. The column's
            // nonzeros are exactly u's neighbors (the graph is undirected).
            let neighbors = ctx.graph.neighbor_slice(NodeId::new(u));
            match ctx.tables.norm {
                Normalization::ColumnStochastic => {
                    // A[v][u] = 1/deg(u), uniform over neighbors.
                    let w = spread * ctx.tables.inv_deg[ui];
                    for v in neighbors {
                        let vi = v.index();
                        residual[vi] += w;
                        if !in_queue[vi] && residual[vi] > rmax * ctx.tables.deg_scale[vi] {
                            in_queue[vi] = true;
                            queue.push_back(v.as_u32());
                        }
                    }
                }
                Normalization::RowStochastic => {
                    // A[v][u] = 1/deg(v).
                    for v in neighbors {
                        let vi = v.index();
                        residual[vi] += spread * ctx.tables.inv_deg[vi];
                        if !in_queue[vi] && residual[vi] > rmax * ctx.tables.deg_scale[vi] {
                            in_queue[vi] = true;
                            queue.push_back(v.as_u32());
                        }
                    }
                }
                Normalization::Symmetric => {
                    // A[v][u] = 1/(sqrt(deg(u)) sqrt(deg(v))).
                    let w = spread * ctx.tables.inv_sqrt_deg[ui];
                    for v in neighbors {
                        let vi = v.index();
                        residual[vi] += w * ctx.tables.inv_sqrt_deg[vi];
                        if !in_queue[vi] && residual[vi] > rmax * ctx.tables.deg_scale[vi] {
                            in_queue[vi] = true;
                            queue.push_back(v.as_u32());
                        }
                    }
                }
            }
        }
        // Certify: does the remaining residual mass already guarantee the
        // tolerance? If so the estimate is interchangeable with the sweep
        // engines' output.
        let bound = ctx.residual_bound(&residual);
        if conv.record(bound, tolerance) {
            break;
        }
        // Not yet: halve the granularity and rebuild the frontier.
        rmax *= 0.5;
        for (ui, r) in residual.iter().enumerate() {
            if !in_queue[ui] && *r > rmax * ctx.tables.deg_scale[ui] {
                in_queue[ui] = true;
                queue.push_back(ui as u32);
            }
        }
        // Sub-denormal rmax with an empty frontier means the residuals
        // cannot be refined any further in f32 — report honestly instead
        // of spinning.
        if queue.is_empty() && rmax < f32::MIN_POSITIVE {
            return Err(DiffusionError::NotConverged {
                iterations: pushes,
                residual: bound,
            });
        }
    }
    let stats = PushResult {
        values: Vec::new(),
        pushes,
        drains: conv.iters,
        residual_bound: conv.residual,
        final_rmax: rmax,
        frontier_peak,
    };
    Ok((estimate, stats))
}

/// Computes the single-source PPR vector `h_s` by forward push, certified
/// to `config.ppr().tolerance()` in L∞.
///
/// Interchangeable with [`crate::per_source::ppr_vector`]; sublinear in the
/// graph when the diffusion is local.
///
/// # Errors
///
/// Returns [`DiffusionError::Graph`] if `source` is out of range and
/// [`DiffusionError::NotConverged`] if the push budget
/// (`max_iterations · N` pushes) is exhausted.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::push::{self, PushConfig};
/// use gdsearch_diffusion::PprConfig;
/// use gdsearch_graph::{generators, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::path(5);
/// let cfg = PushConfig::new(PprConfig::new(0.5)?);
/// let h = push::ppr_vector(&g, NodeId::new(0), &cfg)?;
/// // Weight decays with distance from the source.
/// assert!(h[0] > h[1] && h[1] > h[2]);
/// # Ok(())
/// # }
/// ```
pub fn ppr_vector(
    graph: &Graph,
    source: NodeId,
    config: &PushConfig,
) -> Result<Vec<f32>, DiffusionError> {
    Ok(ppr_vector_detailed(graph, source, config)?.values)
}

/// [`ppr_vector`] with the push-work counters attached.
///
/// # Errors
///
/// As [`ppr_vector`].
pub fn ppr_vector_detailed(
    graph: &Graph,
    source: NodeId,
    config: &PushConfig,
) -> Result<PushResult, DiffusionError> {
    graph.check_node(source)?;
    let ctx = PushContext::new(graph, config.ppr.normalization());
    let (values, mut stats) = push_column(&ctx, source.as_u32(), config)?;
    stats.values = values;
    Ok(stats)
}

/// Diffuses a sparse personalization — `(source node, embedding)` pairs —
/// with one push column per distinct source node, sharded across
/// `config.threads()` scoped workers.
///
/// Equivalent (to tolerance) to [`crate::per_source::diffuse_sparse`] and
/// the dense engines; bit-for-bit identical output for every thread count.
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] for ragged embeddings or
/// out-of-range sources, [`DiffusionError::NotConverged`] on push-budget
/// exhaustion.
pub fn diffuse_sparse(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PushConfig,
) -> Result<Signal, DiffusionError> {
    let n = graph.num_nodes();
    let mut out = Signal::zeros(n, dim);
    // Group repeated source nodes (diffusion is linear, so their
    // personalizations sum) — one column per distinct node. BTreeMap keeps
    // accumulation in ascending node order: deterministic.
    let mut grouped: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
    for (node, emb) in sources {
        if emb.dim() != dim {
            return Err(DiffusionError::ShapeMismatch {
                expected: (n, dim),
                got: (node.index(), emb.dim()),
            });
        }
        if node.index() >= n {
            return Err(DiffusionError::ShapeMismatch {
                expected: (n, dim),
                got: (node.index(), dim),
            });
        }
        grouped
            .entry(node.as_u32())
            .and_modify(|acc| {
                for (a, e) in acc.iter_mut().zip(emb.as_slice()) {
                    *a += e;
                }
            })
            .or_insert_with(|| emb.as_slice().to_vec());
    }
    if grouped.is_empty() || dim == 0 {
        return Ok(out);
    }
    let ctx = PushContext::new(graph, config.ppr.normalization());
    let nodes: Vec<u32> = grouped.keys().copied().collect();
    // Columns are computed in parallel but compressed to their nonzero
    // support in the worker, so peak memory tracks the diffusion's actual
    // locality rather than |sources| · N.
    let columns = workpool::map_batched(&nodes, config.threads, |&u| {
        push_column(&ctx, u, config).map(|(estimate, _)| {
            estimate
                .into_iter()
                .enumerate()
                .filter(|&(_, w)| w != 0.0)
                .map(|(ui, w)| (ui as u32, w))
                .collect::<Vec<(u32, f32)>>()
        })
    });
    // Sequential, ascending source order: deterministic for every worker
    // count.
    for (source, column) in nodes.iter().zip(columns) {
        let emb = &grouped[source];
        for (u, weight) in column? {
            let row = out.row_mut(u as usize);
            for (r, e) in row.iter_mut().zip(emb) {
                *r += weight * e;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exact, per_source, power};
    use gdsearch_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seeded(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn one_hot(n: usize, u: usize) -> Signal {
        let mut s = Signal::zeros(n, 1);
        s.row_mut(u)[0] = 1.0;
        s
    }

    fn push_cfg(alpha: f32, tol: f32) -> PushConfig {
        PushConfig::new(PprConfig::new(alpha).unwrap().with_tolerance(tol).unwrap())
    }

    #[test]
    fn matches_exact_oracle_across_alphas() {
        let g = generators::social_circles_like_scaled(50, &mut seeded(1)).unwrap();
        for alpha in [0.1f32, 0.5, 0.9] {
            let cfg = push_cfg(alpha, 1e-6);
            let truth = exact::diffuse(&g, &one_hot(50, 7), cfg.ppr()).unwrap();
            let h = ppr_vector(&g, NodeId::new(7), &cfg).unwrap();
            for (u, hu) in h.iter().enumerate() {
                assert!(
                    (hu - truth.row(u)[0]).abs() < 1e-4,
                    "alpha {alpha}, node {u}"
                );
            }
        }
    }

    #[test]
    fn matches_exact_under_all_normalizations() {
        let g = generators::grid(5, 5);
        for norm in [
            Normalization::ColumnStochastic,
            Normalization::RowStochastic,
            Normalization::Symmetric,
        ] {
            let ppr = PprConfig::new(0.4)
                .unwrap()
                .with_tolerance(1e-6)
                .unwrap()
                .with_normalization(norm);
            let cfg = PushConfig::new(ppr);
            let truth = exact::diffuse(&g, &one_hot(25, 12), &ppr).unwrap();
            let h = ppr_vector(&g, NodeId::new(12), &cfg).unwrap();
            for (u, hu) in h.iter().enumerate() {
                assert!((hu - truth.row(u)[0]).abs() < 1e-4, "{norm:?}, node {u}");
            }
        }
    }

    #[test]
    fn column_mass_is_preserved() {
        let g = generators::social_circles_like_scaled(80, &mut seeded(2)).unwrap();
        let cfg = push_cfg(0.3, 1e-7);
        let h = ppr_vector(&g, NodeId::new(11), &cfg).unwrap();
        let total: f32 = h.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "column mass {total}");
        assert!(h.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn certifies_within_tolerance_of_fixed_point() {
        let g = generators::grid(8, 8);
        let cfg = push_cfg(0.5, 1e-5);
        let out = ppr_vector_detailed(&g, NodeId::new(0), &cfg).unwrap();
        assert!(out.residual_bound <= 1e-5);
        assert!(out.pushes > 0);
        assert!(out.drains >= 1);
        assert!(out.final_rmax > 0.0);
    }

    #[test]
    fn batched_matches_per_source() {
        let g = generators::social_circles_like_scaled(70, &mut seeded(3)).unwrap();
        let dim = 5;
        let mut rng = seeded(4);
        let sources: Vec<(NodeId, Embedding)> = (0..4)
            .map(|i| {
                (
                    NodeId::new(i * 13),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>()).collect()),
                )
            })
            .collect();
        let ppr = PprConfig::new(0.4).unwrap().with_tolerance(1e-7).unwrap();
        let pushed = diffuse_sparse(&g, dim, &sources, &PushConfig::new(ppr)).unwrap();
        let swept = per_source::diffuse_sparse(&g, dim, &sources, &ppr).unwrap();
        assert!(
            pushed.max_abs_diff(&swept).unwrap() < 1e-4,
            "push vs per-source disagree"
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let g = generators::social_circles_like_scaled(90, &mut seeded(5)).unwrap();
        let dim = 4;
        let mut rng = seeded(6);
        let sources: Vec<(NodeId, Embedding)> = (0..8)
            .map(|_| {
                (
                    NodeId::new(rng.random_range(0..90)),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>()).collect()),
                )
            })
            .collect();
        let base = push_cfg(0.5, 1e-6);
        let reference = diffuse_sparse(&g, dim, &sources, &base).unwrap();
        for threads in [2usize, 4, 8] {
            let cfg = base.with_threads(threads).unwrap();
            let out = diffuse_sparse(&g, dim, &sources, &cfg).unwrap();
            assert_eq!(out, reference, "{threads} threads drifted bitwise");
        }
    }

    #[test]
    fn duplicate_sources_accumulate() {
        let g = generators::ring(12).unwrap();
        let sources = vec![
            (NodeId::new(3), Embedding::new(vec![1.0, 0.0])),
            (NodeId::new(3), Embedding::new(vec![0.5, 2.0])),
        ];
        let ppr = PprConfig::new(0.5).unwrap().with_tolerance(1e-7).unwrap();
        let pushed = diffuse_sparse(&g, 2, &sources, &PushConfig::new(ppr)).unwrap();
        let e0 = Signal::from_sparse_rows(12, 2, &sources).unwrap();
        let dense = power::diffuse(&g, &e0, &ppr).unwrap().signal;
        assert!(pushed.max_abs_diff(&dense).unwrap() < 1e-4);
    }

    #[test]
    fn alpha_one_is_pure_teleport() {
        let g = generators::ring(6).unwrap();
        let cfg = push_cfg(1.0, 1e-6);
        let out = ppr_vector_detailed(&g, NodeId::new(2), &cfg).unwrap();
        assert!((out.values[2] - 1.0).abs() < 1e-6);
        assert!(out
            .values
            .iter()
            .enumerate()
            .all(|(u, &v)| u == 2 || v == 0.0));
        assert_eq!(out.pushes, 1);
    }

    #[test]
    fn isolated_node_keeps_teleport_share_only() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let cfg = push_cfg(0.5, 1e-7);
        let h = ppr_vector(&g, NodeId::new(2), &cfg).unwrap();
        assert!((h[2] - 0.5).abs() < 1e-6);
        assert_eq!(h[0], 0.0);
        assert_eq!(h[1], 0.0);
    }

    #[test]
    fn rejects_out_of_range_and_ragged() {
        let g = generators::ring(5).unwrap();
        let cfg = PushConfig::new(PprConfig::default());
        assert!(ppr_vector(&g, NodeId::new(9), &cfg).is_err());
        assert!(diffuse_sparse(&g, 2, &[(NodeId::new(9), Embedding::zeros(2))], &cfg).is_err());
        assert!(diffuse_sparse(&g, 2, &[(NodeId::new(0), Embedding::zeros(3))], &cfg).is_err());
    }

    #[test]
    fn empty_sources_give_zero_signal() {
        let g = generators::ring(5).unwrap();
        let cfg = PushConfig::new(PprConfig::default());
        let out = diffuse_sparse(&g, 4, &[], &cfg).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn budget_exhaustion_errors() {
        let g = generators::ring(30).unwrap();
        let ppr = PprConfig::new(0.01)
            .unwrap()
            .with_tolerance(1e-12)
            .unwrap()
            .with_max_iterations(1);
        let cfg = PushConfig::new(ppr);
        assert!(matches!(
            ppr_vector(&g, NodeId::new(0), &cfg),
            Err(DiffusionError::NotConverged { .. })
        ));
    }

    #[test]
    fn invalid_knobs_rejected() {
        let cfg = PushConfig::new(PprConfig::default());
        assert!(cfg.with_rmax(0.0).is_err());
        assert!(cfg.with_rmax(-1.0).is_err());
        assert!(cfg.with_rmax(f32::NAN).is_err());
        assert!(cfg.with_threads(0).is_err());
        assert!(cfg.with_rmax(1e-3).unwrap().with_threads(8).is_ok());
    }

    #[test]
    fn coarse_initial_rmax_still_meets_tolerance() {
        // rmax is a schedule knob, not an accuracy knob: starting absurdly
        // coarse must still land within tolerance of the oracle.
        let g = generators::grid(6, 6);
        let ppr = PprConfig::new(0.5).unwrap().with_tolerance(1e-6).unwrap();
        let cfg = PushConfig::new(ppr).with_rmax(10.0).unwrap();
        let truth = exact::diffuse(&g, &one_hot(36, 5), &ppr).unwrap();
        let h = ppr_vector(&g, NodeId::new(5), &cfg).unwrap();
        for (u, hu) in h.iter().enumerate() {
            assert!((hu - truth.row(u)[0]).abs() < 1e-4, "node {u}");
        }
    }

    use gdsearch_graph::Graph;
}
