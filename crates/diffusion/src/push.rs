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
//! # Cost and scratch discipline
//!
//! A column costs `Σ deg(pushed)` for its pushes plus `O(touched)` per
//! drain, *touched* being every node a residual was ever added to. All
//! per-node state lives in one scratch per worker, allocated once per
//! driver call and reused across that worker's sources. A bitset marked at
//! every `residual[v] +=` is the touched set; the certified bound, the
//! frontier rebuild after an `rmax` halving, the column compression and the
//! clear walk it (`N/64` words per pass, ascending node id, no sort)
//! instead of `0..N`. Every node they skip holds an exact `+0.0` residual
//! and estimate — a no-op in each sum, max and threshold test — so results
//! and counters are bit-for-bit what the full scans gave (the test module
//! keeps those scans as the reference model). The same walk clears the
//! scratch on the `Ok` and the `Err` path.
//!
//! # Accuracy guarantee
//!
//! `rmax` is a frontier granularity, not the accuracy contract. After each
//! drain the engine evaluates a rigorous bound on `‖M r‖∞ = ‖h_s − p‖∞`
//! (see [`PprConfig::tolerance`](crate::PprConfig::tolerance) for the
//! tolerance semantics) and keeps halving `rmax` until the bound meets the
//! tolerance, so results are interchangeable with the power sweep's
//! ([`crate::power`]) to that tolerance. For the undirected graphs of this
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
//! columns into the dense [`Signal`]. Column computation is a pure
//! function of `(graph, source, config)` and accumulation happens on the
//! calling thread in ascending node order, so the output is **bit-for-bit
//! identical for every thread count**.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use std::collections::{BTreeMap, VecDeque};

use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::Normalization;
use gdsearch_graph::{Graph, NodeId};

use crate::convergence::Convergence;
use crate::degrees::DegreeTables;
use crate::{workpool, DiffusionError, PprConfig, Signal};

/// Node count from which [`crate::per_source::auto_diffuse`] prefers the
/// push engine over the dense sweep for sparse personalizations.
///
/// Below this size the sweep is already cheap and the push engine's queue
/// bookkeeping does not pay for itself; above it, push wins increasingly
/// with `N`. The cost side of the threshold is unmeasured — the repo
/// benchmark's `push.ns_per_push` times push at N = 10⁵ — and stale: it was
/// chosen when a column scanned all `N` nodes several times over (6.0–6.9 µs
/// per push in that probe); the touched-set kernel reads 1.2–1.3 µs
/// (ROADMAP item F, "Crossover from data").
///
/// It also guards accuracy. The tolerance is an absolute L∞ bound, and
/// push leaves every residual below it unpushed, while the search walk
/// reads the *relative order* of small scores far from the hosts. Routed
/// through push at tolerance 1e-5, the paper's 4,039-node graph dropped
/// Fig. 3's M = 10, α = 0.9 ring-3 accuracy from 0.96 to 0.40.
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

/// Widens a node id for indexing.
const fn ix(v: u32) -> usize {
    v as usize
}

/// One worker's push state, all zero / false / empty between columns.
///
/// Bit `v` of `touched` is set whenever `residual[v]` is added to;
/// estimates and queue flags only change where a residual is positive, so
/// the touched set covers every non-default entry.
struct PushScratch {
    estimate: Vec<f32>,
    residual: Vec<f32>,
    in_queue: Vec<bool>,
    queue: VecDeque<u32>,
    touched: Vec<u64>,
}

impl PushScratch {
    fn new(n: usize) -> Self {
        PushScratch {
            estimate: vec![0.0; n],
            residual: vec![0.0; n],
            in_queue: vec![false; n],
            queue: VecDeque::new(),
            touched: vec![0; n.div_ceil(64)],
        }
    }

    fn is_clean(&self) -> bool {
        self.queue.is_empty()
            && self.touched.iter().all(|&w| w == 0)
            && self.in_queue.iter().all(|&q| !q)
            && (self.estimate.iter().chain(&self.residual)).all(|x| x.to_bits() == 0)
    }

    /// The node ids set in `touched`, ascending.
    fn ascending(touched: &[u64]) -> impl Iterator<Item = u32> + '_ {
        let words = touched.iter().zip((0u32..).step_by(64));
        words.flat_map(|(&word, base)| {
            let bits = std::iter::successors(Some(word), |w| Some(w & w.wrapping_sub(1)));
            bits.take_while(|&w| w != 0)
                .map(move |w| base + w.trailing_zeros())
        })
    }

    /// Adds `amount` to `v`'s residual and queues `v` if that lifts it
    /// over `threshold`.
    #[inline]
    fn deposit(&mut self, v: u32, amount: f32, threshold: f32) {
        let vi = ix(v);
        self.residual[vi] += amount;
        self.touched[vi / 64] |= 1 << (vi % 64);
        if !self.in_queue[vi] && self.residual[vi] > threshold {
            self.in_queue[vi] = true;
            self.queue.push_back(v);
        }
    }

    /// Queues every touched node whose residual exceeds `rmax · deg`, in
    /// the ascending order a `0..N` scan would find them.
    fn rebuild_frontier(&mut self, rmax: f32, deg_scale: &[f32]) {
        for v in Self::ascending(&self.touched) {
            let vi = ix(v);
            if !self.in_queue[vi] && self.residual[vi] > rmax * deg_scale[vi] {
                self.in_queue[vi] = true;
                self.queue.push_back(v);
            }
        }
    }

    /// Rigorous bound on `‖M r‖∞`, the L∞ distance between the current
    /// estimate and the fixed point (derivations in the module docs).
    fn residual_bound(&self, tables: &DegreeTables) -> f32 {
        let touched = Self::ascending(&self.touched);
        tables.residual_bound(touched.map(|v| (ix(v), self.residual[ix(v)])))
    }

    /// Moves the estimate's nonzero support out and leaves the scratch
    /// clean: one walk of the touched set compresses and clears.
    fn take_column(&mut self) -> Vec<(u32, f32)> {
        let mut column = Vec::new();
        for v in Self::ascending(&self.touched) {
            let weight = std::mem::take(&mut self.estimate[ix(v)]);
            if weight != 0.0 {
                column.push((v, weight));
            }
            self.residual[ix(v)] = 0.0;
            self.in_queue[ix(v)] = false;
        }
        self.touched.fill(0);
        self.queue.clear();
        column
    }
}

/// Computes one push column to the certified tolerance, compressed to its
/// nonzero support in ascending node order. Pure in `(graph, tables,
/// source, config)` given a clean scratch, and leaves the scratch clean
/// whether it succeeds or not: the batched driver relies on both for
/// thread-count determinism.
fn push_column(
    graph: &Graph,
    tables: &DegreeTables,
    scratch: &mut PushScratch,
    source: u32,
    config: &PushConfig,
) -> Result<(Vec<(u32, f32)>, PushResult), DiffusionError> {
    debug_assert!(scratch.is_clean(), "a previous column leaked state");
    let stats = drain_to_tolerance(graph, tables, scratch, source, config);
    let column = scratch.take_column();
    Ok((column, stats?))
}

/// The push loop proper: drain, certify, halve `rmax`, repeat. Leaves the
/// estimate in `s` and returns the work counters (`values` empty).
fn drain_to_tolerance(
    graph: &Graph,
    tables: &DegreeTables,
    s: &mut PushScratch,
    source: u32,
    config: &PushConfig,
) -> Result<PushResult, DiffusionError> {
    let alpha = config.ppr.alpha();
    let tolerance = config.ppr.tolerance();
    let max_iterations = config.ppr.max_iterations();
    let budget = max_iterations.saturating_mul(graph.num_nodes().max(1));

    // r = δ_s, and the source is queued whatever the granularity.
    s.deposit(source, 1.0, f32::NEG_INFINITY);

    let mut rmax = config.rmax;
    let mut pushes = 0usize;
    let mut frontier_peak = s.queue.len();
    let mut conv = Convergence::new();
    loop {
        // Drain the frontier at the current granularity.
        while let Some(u) = s.queue.pop_front() {
            // The queue only grows between pops, so observing its length
            // at every pop (plus the popped head) captures the high-water
            // mark exactly.
            frontier_peak = frontier_peak.max(s.queue.len() + 1);
            let ui = ix(u);
            s.in_queue[ui] = false;
            let ru = s.residual[ui];
            if ru <= rmax * tables.deg_scale[ui] {
                continue;
            }
            if pushes >= budget {
                return Err(DiffusionError::NotConverged {
                    iterations: pushes,
                    residual: s.residual_bound(tables),
                });
            }
            pushes += 1;
            s.residual[ui] = 0.0;
            s.estimate[ui] += alpha * ru;
            let spread = (1.0 - alpha) * ru;
            if spread <= 0.0 {
                continue;
            }
            // Forward the remaining mass along column u of A. The column's
            // nonzeros are exactly u's neighbors (the graph is undirected).
            let neighbors = graph.neighbor_slice(NodeId::new(u));
            match tables.norm {
                Normalization::ColumnStochastic => {
                    // A[v][u] = 1/deg(u), uniform over neighbors.
                    let w = spread * tables.inv_deg[ui];
                    for v in neighbors {
                        s.deposit(v.as_u32(), w, rmax * tables.deg_scale[v.index()]);
                    }
                }
                Normalization::RowStochastic => {
                    // A[v][u] = 1/deg(v).
                    for v in neighbors {
                        let vi = v.index();
                        let w = spread * tables.inv_deg[vi];
                        s.deposit(v.as_u32(), w, rmax * tables.deg_scale[vi]);
                    }
                }
                Normalization::Symmetric => {
                    // A[v][u] = 1/(sqrt(deg(u)) sqrt(deg(v))).
                    let w = spread * tables.inv_sqrt_deg[ui];
                    for v in neighbors {
                        let vi = v.index();
                        let wv = w * tables.inv_sqrt_deg[vi];
                        s.deposit(v.as_u32(), wv, rmax * tables.deg_scale[vi]);
                    }
                }
            }
        }
        // Certify: does the remaining residual mass already guarantee the
        // tolerance? If so the estimate is interchangeable with the sweep
        // engines' output.
        let bound = s.residual_bound(tables);
        if conv.record(bound, tolerance) {
            break;
        }
        // Not yet: halve the granularity and rebuild the frontier.
        rmax *= 0.5;
        s.rebuild_frontier(rmax, &tables.deg_scale);
        // Sub-denormal rmax with an empty frontier means the residuals
        // cannot be refined any further in f32 — report honestly instead
        // of spinning.
        if s.queue.is_empty() && rmax < f32::MIN_POSITIVE {
            return Err(DiffusionError::NotConverged {
                iterations: pushes,
                residual: bound,
            });
        }
    }
    Ok(PushResult {
        values: Vec::new(),
        pushes,
        drains: conv.iters,
        residual_bound: conv.residual,
        final_rmax: rmax,
        frontier_peak,
    })
}

/// Computes the single-source PPR vector `h_s` by forward push, certified
/// to `config.ppr().tolerance()` in L∞.
///
/// Interchangeable with the one-hot power sweep ([`crate::power::diffuse`])
/// to tolerance; sublinear in the graph when the diffusion is local.
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
    let tables = DegreeTables::from_graph(graph, config.ppr.normalization());
    let mut scratch = PushScratch::new(graph.num_nodes());
    let (column, mut stats) = push_column(graph, &tables, &mut scratch, source.as_u32(), config)?;
    // The scratch is clean again: its estimate is the zero vector to
    // re-expand the column into.
    stats.values = scratch.estimate;
    for (u, weight) in column {
        stats.values[ix(u)] = weight;
    }
    Ok(stats)
}

/// Diffuses a sparse personalization — `(source node, embedding)` pairs —
/// with one push column per distinct source node, sharded across
/// `config.threads()` scoped workers.
///
/// Equivalent (to tolerance) to the dense engines; bit-for-bit identical
/// output for every thread count.
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
    let tables = DegreeTables::from_graph(graph, config.ppr.normalization());
    let nodes: Vec<u32> = grouped.keys().copied().collect();
    // One scratch per worker, reused across the sources it handles (worker
    // w takes sources w, w+T, …). Columns leave the worker compressed to
    // their nonzero support, so peak memory tracks the diffusion's actual
    // locality rather than |sources| · N.
    let threads = config.threads.min(nodes.len());
    let workers: Vec<usize> = (0..threads).collect();
    let per_worker = workpool::map_batched(&workers, threads, |&w| {
        let mut scratch = PushScratch::new(n);
        let sources = nodes.iter().skip(w).step_by(threads);
        let column = |&u| push_column(graph, &tables, &mut scratch, u, config).map(|(c, _)| c);
        sources.map(column).collect::<Vec<_>>()
    });
    // Source i is the next column of worker i mod T.
    let mut per_worker: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
    let columns = (0..nodes.len()).map_while(|i| per_worker[i % threads].next());
    // Sequential, ascending source order: deterministic for every worker
    // count.
    for (source, column) in nodes.iter().zip(columns) {
        let emb = &grouped[source];
        for (u, weight) in column? {
            let row = out.row_mut(ix(u));
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
    use crate::{exact, power};
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
        // Every source's column, summed: the exact solve of the summed rows.
        let e0 = Signal::from_sparse_rows(70, dim, &sources).unwrap();
        let truth = exact::diffuse(&g, &e0, &ppr).unwrap();
        assert!(
            pushed.max_abs_diff(&truth).unwrap() < 1e-4,
            "push vs the exact solve disagree"
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
    use proptest::prelude::*;

    /// The reference model: the engine as it stood before the touched set
    /// — three fresh N-vectors per column, `0..N` scans for the bound, the
    /// frontier rebuild and the compression. Slow and obviously right;
    /// [`push_column`] must reproduce it bit for bit.
    fn reference_push_column(
        graph: &Graph,
        tables: &DegreeTables,
        source: u32,
        config: &PushConfig,
    ) -> Result<(Vec<(u32, f32)>, PushResult), DiffusionError> {
        let bound_of =
            |residual: &[f32]| tables.residual_bound(residual.iter().copied().enumerate());
        let n = graph.num_nodes();
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
            while let Some(u) = queue.pop_front() {
                frontier_peak = frontier_peak.max(queue.len() + 1);
                let ui = u as usize;
                in_queue[ui] = false;
                let ru = residual[ui];
                if ru <= rmax * tables.deg_scale[ui] {
                    continue;
                }
                if pushes >= budget {
                    return Err(DiffusionError::NotConverged {
                        iterations: pushes,
                        residual: bound_of(&residual),
                    });
                }
                pushes += 1;
                residual[ui] = 0.0;
                estimate[ui] += alpha * ru;
                let spread = (1.0 - alpha) * ru;
                if spread <= 0.0 {
                    continue;
                }
                let neighbors = graph.neighbor_slice(NodeId::new(u));
                match tables.norm {
                    Normalization::ColumnStochastic => {
                        let w = spread * tables.inv_deg[ui];
                        for v in neighbors {
                            let vi = v.index();
                            residual[vi] += w;
                            if !in_queue[vi] && residual[vi] > rmax * tables.deg_scale[vi] {
                                in_queue[vi] = true;
                                queue.push_back(v.as_u32());
                            }
                        }
                    }
                    Normalization::RowStochastic => {
                        for v in neighbors {
                            let vi = v.index();
                            residual[vi] += spread * tables.inv_deg[vi];
                            if !in_queue[vi] && residual[vi] > rmax * tables.deg_scale[vi] {
                                in_queue[vi] = true;
                                queue.push_back(v.as_u32());
                            }
                        }
                    }
                    Normalization::Symmetric => {
                        let w = spread * tables.inv_sqrt_deg[ui];
                        for v in neighbors {
                            let vi = v.index();
                            residual[vi] += w * tables.inv_sqrt_deg[vi];
                            if !in_queue[vi] && residual[vi] > rmax * tables.deg_scale[vi] {
                                in_queue[vi] = true;
                                queue.push_back(v.as_u32());
                            }
                        }
                    }
                }
            }
            let bound = bound_of(&residual);
            if conv.record(bound, tolerance) {
                break;
            }
            rmax *= 0.5;
            for (ui, r) in residual.iter().enumerate() {
                if !in_queue[ui] && *r > rmax * tables.deg_scale[ui] {
                    in_queue[ui] = true;
                    queue.push_back(ui as u32);
                }
            }
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
        let column = estimate
            .into_iter()
            .enumerate()
            .filter(|&(_, w)| w != 0.0)
            .map(|(ui, w)| (ui as u32, w))
            .collect();
        Ok((column, stats))
    }

    /// Column weights and the two float counters as bit patterns, so that
    /// equality means bit equality (and `NotConverged` compares too).
    type Outcome = Result<(Vec<(u32, u32)>, [usize; 3], [u32; 2]), String>;

    fn bits(run: Result<(Vec<(u32, f32)>, PushResult), DiffusionError>) -> Outcome {
        match run {
            Ok((column, stats)) => Ok((
                column.iter().map(|&(u, w)| (u, w.to_bits())).collect(),
                [stats.pushes, stats.drains, stats.frontier_peak],
                [stats.residual_bound.to_bits(), stats.final_rmax.to_bits()],
            )),
            Err(DiffusionError::NotConverged {
                iterations,
                residual,
            }) => Err(format!(
                "{iterations} pushes, bound {:#x}",
                residual.to_bits()
            )),
            Err(other) => Err(other.to_string()),
        }
    }

    const NORMS: [Normalization; 3] = [
        Normalization::ColumnStochastic,
        Normalization::RowStochastic,
        Normalization::Symmetric,
    ];

    #[test]
    fn one_scratch_reproduces_the_reference_model_bitwise() {
        // 3,000 social-circle nodes with node 1,500 cut loose, so the
        // source list below meets an isolated node and a hub.
        let n = 3000u32;
        let isolated = NodeId::new(n / 2);
        let full = generators::social_circles_like_scaled(n, &mut seeded(21)).unwrap();
        let kept = full
            .edges()
            .filter(|&(u, v)| u != isolated && v != isolated);
        let g = Graph::from_edges(n, kept.map(|(u, v)| (u.as_u32(), v.as_u32()))).unwrap();
        assert_eq!(g.degree(isolated), 0);
        let hub = g.node_ids().max_by_key(|&u| g.degree(u)).unwrap();
        let sources = [0, isolated.as_u32(), hub.as_u32(), n - 1];

        // Every column of every configuration goes through this one
        // scratch back to back: a missed clear corrupts the next column.
        let mut scratch = PushScratch::new(g.num_nodes());
        for norm in NORMS {
            let tables = DegreeTables::from_graph(&g, norm);
            for alpha in [0.1f32, 0.5, 0.9] {
                let cfg = PushConfig::new(PprConfig::new(alpha).unwrap().with_normalization(norm));
                for source in sources {
                    let got = bits(push_column(&g, &tables, &mut scratch, source, &cfg));
                    let want = bits(reference_push_column(&g, &tables, source, &cfg));
                    assert!(want.is_ok(), "{norm:?} α {alpha} source {source}: {want:?}");
                    assert_eq!(got, want, "{norm:?} α {alpha} source {source}");
                }
            }
        }
        assert!(scratch.is_clean());
    }

    #[test]
    fn failed_column_leaves_the_scratch_clean() {
        let g = generators::ring(30).unwrap();
        let starved = PushConfig::new(
            PprConfig::new(0.01)
                .unwrap()
                .with_tolerance(1e-12)
                .unwrap()
                .with_max_iterations(1),
        );
        let normal = push_cfg(0.5, 1e-6);
        let tables = DegreeTables::from_graph(&g, Normalization::ColumnStochastic);

        let mut reused = PushScratch::new(30);
        let failed = bits(push_column(&g, &tables, &mut reused, 0, &starved));
        assert_eq!(
            failed,
            bits(reference_push_column(&g, &tables, 0, &starved))
        );
        assert!(failed.is_err(), "the starved budget must not converge");
        assert!(reused.is_clean(), "the error path skipped the clear");

        let after_failure = bits(push_column(&g, &tables, &mut reused, 7, &normal));
        let fresh = bits(push_column(
            &g,
            &tables,
            &mut PushScratch::new(30),
            7,
            &normal,
        ));
        assert!(fresh.is_ok());
        assert_eq!(after_failure, fresh);
    }

    #[test]
    fn detailed_values_expand_the_compressed_column() {
        let g = generators::social_circles_like_scaled(200, &mut seeded(8)).unwrap();
        let cfg = push_cfg(0.3, 1e-6);
        let tables = DegreeTables::from_graph(&g, Normalization::ColumnStochastic);
        let (column, stats) = reference_push_column(&g, &tables, 17, &cfg).unwrap();
        let out = ppr_vector_detailed(&g, NodeId::new(17), &cfg).unwrap();
        let mut dense = vec![0.0f32; 200];
        for (u, w) in column {
            dense[u as usize] = w;
        }
        let as_bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(as_bits(&out.values), as_bits(&dense));
        assert_eq!(out.pushes, stats.pushes);
        assert_eq!(out.frontier_peak, stats.frontier_peak);
    }

    /// The graph families of `tests/properties.rs` (ER may be disconnected,
    /// BA is hub-heavy), small enough for hundreds of cases.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (0usize..3, 4u32..36, 0u64..1000).prop_map(|(family, n, seed)| {
            let mut rng = seeded(seed);
            match family {
                0 => generators::ring(n).unwrap(),
                1 => generators::erdos_renyi(n, 0.15, &mut rng).unwrap(),
                _ => generators::barabasi_albert(n, 2, &mut rng).unwrap(),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random graphs, schedules and budgets — tight budgets make some
        /// columns fail mid-drain — five sources through one scratch.
        #[test]
        fn push_column_matches_the_reference_model(
            g in arb_graph(),
            norm in 0usize..3,
            alpha in 0.05f32..1.0,
            rmax_exp in -6i32..2,
            max_iterations in 1usize..40,
            picks in collection::vec(0u32..36, 5),
        ) {
            let n = g.num_nodes() as u32;
            let ppr = PprConfig::new(alpha)
                .unwrap()
                .with_tolerance(1e-6)
                .unwrap()
                .with_normalization(NORMS[norm])
                .with_max_iterations(max_iterations);
            let cfg = PushConfig::new(ppr).with_rmax(10f32.powi(rmax_exp)).unwrap();
            let tables = DegreeTables::from_graph(&g, NORMS[norm]);
            let mut scratch = PushScratch::new(g.num_nodes());
            for pick in picks {
                let got = bits(push_column(&g, &tables, &mut scratch, pick % n, &cfg));
                let want = bits(reference_push_column(&g, &tables, pick % n, &cfg));
                prop_assert_eq!(got, want, "source {}", pick % n);
            }
        }
    }
}
