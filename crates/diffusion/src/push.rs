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
//! All per-node state lives in one scratch per worker, allocated once per
//! driver call and reused across that worker's sources. The first
//! `residual[v] +=` onto a zero residual marks `v` in the *touched* set: a
//! bitmap of `N/64` words under a summary with one bit per non-zero word.
//! Later deposits skip both read-modify-writes, since a non-zero residual
//! is already marked (deposits are never below `+0.0`). A column costs
//! `Σ deg(pushed)` for its pushes plus walks of the touched set: per
//! drain, the certified bound and, when it misses the tolerance, the
//! frontier rebuild after an `rmax` halving; once per column, the
//! compression and the clear. A walk reads the `N/4096` summary words and
//! then the touched words alone, and visits the touched nodes in ascending
//! id with no sort, instead of `0..N`. Every node it skips holds an exact
//! `+0.0` residual and estimate — a no-op in each sum, max and threshold
//! test — so results and counters are bit-for-bit what the full scans gave
//! (the test module keeps those scans as the reference model). The same
//! walk clears the scratch on the `Ok` and the `Err` path.
//!
//! # Accuracy guarantee
//!
//! `rmax` is a frontier granularity, not the accuracy contract. After each
//! drain the engine evaluates a rigorous bound on `‖M r‖∞ = ‖h_s − p‖∞`
//! (see [`PprConfig::tolerance`](crate::PprConfig::tolerance) for the
//! tolerance semantics) and halves `rmax` until the bound meets the
//! tolerance, so results are interchangeable with the power sweep's
//! ([`crate::power`]) to that tolerance. For the undirected graphs of this
//! workspace the bound is, with `θ = max_u r(u)/deg(u)` and `d_max` the
//! maximum degree, `‖M r‖∞ ≤ min(‖r‖₁, d_max · θ)`: columns of `M` sum to
//! 1, and reversibility of the simple random walk gives
//! `h_u(v) = (deg(v)/deg(u)) · h_v(u)`.
//!
//! A column starts at `rmax = tolerance / d_max`, forward push's usual
//! granularity for a target error (Lofgren–Banerjee–Goel). A full drain
//! leaves every `r(u) ≤ rmax · deg(u)`, so `θ ≤ rmax` and
//! `d_max · θ ≤ tolerance`: one drain certifies, and halving is left for
//! the few ulps rounding can add. A NaN or infinite bound ends the column
//! with [`DiffusionError::NotConverged`].
//!
//! Residuals stay non-negative throughout (the personalization is `δ_s`
//! and `A` is non-negative), which is what makes the bound valid.
//!
//! # Batched multi-source driver
//!
//! [`diffuse_rows`] computes one push column per stored row of `E0`
//! on a [`crate::workpool`] of scoped threads and rank-1-accumulates the
//! columns into [`SparseRows`]: one row per node of the columns' joint
//! support, so the output costs `O(support · dim)` floats, not `N · dim`.
//! Column computation is a pure function of `(graph, source, config)` and
//! accumulation happens on the calling thread, ascending source, then
//! ascending node, so the output is **bit-for-bit identical for every
//! thread count**. Every cell starts at `+0.0` and receives the same float
//! operations in the same order as in a dense `N × dim` accumulator;
//! [`diffuse_sparse`] is that dense signal, the rows scattered into zeros.
//!
//! No call builds a per-node table: degrees come off the graph's CSR
//! offsets through the formulas of `degrees.rs`, so a column costs its
//! pushes and drains plus the scratch, and nothing else in `N`.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use std::collections::VecDeque;

use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::edge_weight;
use gdsearch_graph::{Graph, NodeId};

use crate::convergence::Convergence;
use crate::degrees;
use crate::signal::set_bits;
use crate::{workpool, DiffusionError, PprConfig, Signal, SparseRows};

/// Node count from which [`crate::per_source::auto_diffuse`] prefers the
/// push engine over the dense sweep for sparse personalizations.
///
/// Below this size the sweep is already cheap and the push engine's queue
/// bookkeeping does not pay for itself; above it, push wins increasingly
/// with `N`. The cost side of the threshold is unmeasured and stale: it was
/// chosen when a column scanned all `N` nodes several times over (6.0–6.9 µs
/// per push in that probe). Now one [`diffuse_rows`] call on one pinned
/// core (12 random 64-d sources on `social_circles_like_scaled(100_000)`,
/// seed 41, tolerance 1e-5, α 0.5: 4,215 pushes) takes 557 µs at best,
/// ≈ 46 µs per column and ≈ 130 ns per push, scratch and output included.
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
/// let cfg = PushConfig::new(PprConfig::new(0.5)?).with_threads(4)?;
/// assert_eq!(cfg.threads(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushConfig {
    ppr: PprConfig,
    threads: usize,
}

impl PushConfig {
    /// Creates a push configuration with a single worker thread.
    #[must_use]
    pub fn new(ppr: PprConfig) -> Self {
        PushConfig { ppr, threads: 1 }
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

/// The frontier threshold scale of `v`, read off the graph's offsets.
#[inline]
fn deg_scale(graph: &Graph, v: u32) -> f32 {
    degrees::deg_scale(graph.degree(NodeId::new(v)))
}

/// The frontier granularity a column starts at: `tolerance / d_max`,
/// floored at the smallest normal `f32`. Nodes enter the queue while
/// `r(u) > rmax · deg(u)`, so a full drain at this `rmax` leaves
/// `θ ≤ rmax` and certifies `d_max · θ ≤ tolerance` (module docs).
fn initial_rmax(tolerance: f32, max_degree: usize) -> f32 {
    (tolerance / degrees::deg_scale(max_degree)).max(f32::MIN_POSITIVE)
}

/// The touched set in two levels: bit `v` of `words` is node `v`, and bit
/// `w` of `summary` is set once word `w` holds a set bit, so a walk reads
/// the touched words alone, not all `N/64` of them.
struct Touched {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl Touched {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Touched {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, v: usize) {
        self.words[v / 64] |= 1 << (v % 64);
        self.summary[v / 4096] |= 1 << (v / 64 % 64);
    }

    /// The touched nodes, ascending: what `set_bits(&self.words)` yields.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.summary).flat_map(|w| {
            let word = std::slice::from_ref(&self.words[ix(w)]);
            set_bits(word).map(move |b| 64 * w + b)
        })
    }

    /// Empties both levels, writing the touched words only.
    fn clear(&mut self) {
        for w in set_bits(&self.summary) {
            self.words[ix(w)] = 0;
        }
        self.summary.fill(0);
    }

    fn is_empty(&self) -> bool {
        self.words.iter().chain(&self.summary).all(|&w| w == 0)
    }
}

/// One worker's push state, all zero / false / empty between columns.
///
/// Node `v` joins `touched` when a deposit finds `residual[v]` at zero, so
/// every node with a non-zero residual is in the set; estimates and queue
/// flags only change where a residual was non-zero, so the touched set
/// covers every non-default entry.
struct PushScratch {
    estimate: Vec<f32>,
    residual: Vec<f32>,
    in_queue: Vec<bool>,
    queue: VecDeque<u32>,
    touched: Touched,
}

impl PushScratch {
    fn new(n: usize) -> Self {
        PushScratch {
            estimate: vec![0.0; n],
            residual: vec![0.0; n],
            in_queue: vec![false; n],
            queue: VecDeque::new(),
            touched: Touched::new(n),
        }
    }

    fn is_clean(&self) -> bool {
        self.queue.is_empty()
            && self.touched.is_empty()
            && self.in_queue.iter().all(|&q| !q)
            && (self.estimate.iter().chain(&self.residual)).all(|x| x.to_bits() == 0)
    }

    /// Adds `amount` (finite or not, never below `+0.0`) to `v`'s residual
    /// and queues `v` if that lifts it over `rmax · deg(v)`. Only a deposit
    /// onto a zero residual marks `v` touched: a non-zero residual was
    /// marked by the deposit that made it so, or by whoever poisoned it.
    #[inline]
    fn deposit(&mut self, v: u32, amount: f32, rmax: f32, graph: &Graph) {
        let vi = ix(v);
        let before = self.residual[vi];
        let after = before + amount;
        self.residual[vi] = after;
        if before == 0.0 {
            self.touched.insert(vi);
        }
        if !self.in_queue[vi] && after > rmax * deg_scale(graph, v) {
            self.in_queue[vi] = true;
            self.queue.push_back(v);
        }
    }

    /// Queues every touched node whose residual exceeds `rmax · deg`, in
    /// the ascending order a `0..N` scan would find them.
    fn rebuild_frontier(&mut self, rmax: f32, graph: &Graph) {
        for v in self.touched.iter() {
            let vi = ix(v);
            if !self.in_queue[vi] && self.residual[vi] > rmax * deg_scale(graph, v) {
                self.in_queue[vi] = true;
                self.queue.push_back(v);
            }
        }
    }

    /// Rigorous bound on `‖M r‖∞`, the L∞ distance between the current
    /// estimate and the fixed point (derivations in the module docs).
    fn residual_bound(&self, graph: &Graph) -> f32 {
        let touched = self.touched.iter();
        let pairs = touched.map(|v| (graph.degree(NodeId::new(v)), self.residual[ix(v)]));
        degrees::residual_bound(graph.max_degree(), pairs)
    }

    /// Moves the estimate's nonzero support out and leaves the scratch
    /// clean: one walk of the touched set compresses and clears.
    fn take_column(&mut self) -> Vec<(u32, f32)> {
        let mut column = Vec::new();
        for v in self.touched.iter() {
            let weight = std::mem::take(&mut self.estimate[ix(v)]);
            if weight != 0.0 {
                column.push((v, weight));
            }
            self.residual[ix(v)] = 0.0;
            self.in_queue[ix(v)] = false;
        }
        self.touched.clear();
        self.queue.clear();
        column
    }
}

/// Computes one push column to the certified tolerance, compressed to its
/// nonzero support in ascending node order. Pure in `(graph, source,
/// config)` given a clean scratch, and leaves the scratch clean whether it
/// succeeds or not: the batched driver relies on both for thread-count
/// determinism.
fn push_column(
    graph: &Graph,
    scratch: &mut PushScratch,
    source: u32,
    config: &PushConfig,
) -> Result<(Vec<(u32, f32)>, PushResult), DiffusionError> {
    debug_assert!(scratch.is_clean(), "a previous column leaked state");
    let stats = drain_to_tolerance(graph, scratch, source, config);
    let column = scratch.take_column();
    Ok((column, stats?))
}

/// The push loop proper: drain, certify, halve `rmax`, repeat. One drain
/// at [`initial_rmax`] certifies unless rounding lifts the bound a few
/// ulps over the tolerance; a non-finite bound ends the column unconverged.
/// Leaves the estimate in `s` and returns the work counters (`values`
/// empty).
fn drain_to_tolerance(
    graph: &Graph,
    s: &mut PushScratch,
    source: u32,
    config: &PushConfig,
) -> Result<PushResult, DiffusionError> {
    let alpha = config.ppr.alpha();
    let tolerance = config.ppr.tolerance();
    let max_iterations = config.ppr.max_iterations();
    let budget = max_iterations.saturating_mul(graph.num_nodes().max(1));

    // r = δ_s, and the source is queued whatever the granularity.
    s.deposit(source, 1.0, f32::NEG_INFINITY, graph);

    let mut rmax = initial_rmax(tolerance, graph.max_degree());
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
            if ru <= rmax * deg_scale(graph, u) {
                continue;
            }
            if pushes >= budget {
                return Err(DiffusionError::NotConverged {
                    iterations: pushes,
                    residual: s.residual_bound(graph),
                });
            }
            pushes += 1;
            s.residual[ui] = 0.0;
            s.estimate[ui] += alpha * ru;
            let spread = (1.0 - alpha) * ru;
            if spread <= 0.0 {
                continue;
            }
            // Forward the remaining mass along column u of A, whose
            // nonzeros are u's neighbors (the graph is undirected), each
            // A[v][u] = 1/deg(u).
            let neighbors = graph.neighbor_slice(NodeId::new(u));
            let w = spread * edge_weight(neighbors.len());
            for v in neighbors {
                s.deposit(v.as_u32(), w, rmax, graph);
            }
        }
        // Certify: does the remaining residual mass already guarantee the
        // tolerance? If so the estimate is interchangeable with the sweep
        // engines' output.
        let bound = s.residual_bound(graph);
        if conv.record(bound, tolerance) {
            break;
        }
        // Not yet: halve the granularity and rebuild the frontier. A NaN
        // or infinite bound cannot shrink that way, and a sub-denormal
        // rmax with an empty frontier cannot refine the residuals further
        // in f32 — report honestly instead of spinning.
        if !bound.is_finite() {
            return Err(DiffusionError::NotConverged {
                iterations: pushes,
                residual: bound,
            });
        }
        rmax *= 0.5;
        s.rebuild_frontier(rmax, graph);
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
    let mut scratch = PushScratch::new(graph.num_nodes());
    let (column, mut stats) = push_column(graph, &mut scratch, source.as_u32(), config)?;
    // The scratch is clean again: its estimate is the zero vector to
    // re-expand the column into.
    stats.values = scratch.estimate;
    for (u, weight) in column {
        stats.values[ix(u)] = weight;
    }
    Ok(stats)
}

/// Diffuses a sparse personalization `e0` with one push column per stored
/// row, sharded across `config.threads()` scoped workers, into rows over
/// the columns' joint support (see the module docs).
/// [`SparseRows::from_sources`] folds and checks `(source, embedding)`
/// pairs into `e0`.
///
/// Equivalent (to tolerance) to the dense engines; bit-for-bit identical
/// output for every thread count, and row for row the bits of
/// [`diffuse_sparse`].
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] if `e0` has a different node
/// count than `graph`, [`DiffusionError::NotConverged`] on push-budget
/// exhaustion.
pub fn diffuse_rows(
    graph: &Graph,
    e0: &SparseRows,
    config: &PushConfig,
) -> Result<SparseRows, DiffusionError> {
    let (n, dim) = (graph.num_nodes(), e0.dim());
    if e0.num_nodes() != n {
        return Err(DiffusionError::ShapeMismatch {
            expected: (n, dim),
            got: (e0.num_nodes(), dim),
        });
    }
    let nodes: Vec<u32> = e0.support().collect();
    if nodes.is_empty() || dim == 0 {
        return Ok(SparseRows::zeros(n, dim));
    }
    // One scratch per worker, reused across the sources it handles (worker
    // w takes sources w, w+T, …). Columns leave the worker compressed to
    // their nonzero support, so peak memory tracks the diffusion's actual
    // locality rather than |sources| · N.
    let threads = config.threads.min(nodes.len());
    let workers: Vec<usize> = (0..threads).collect();
    let per_worker = workpool::map_batched(&workers, threads, |&w| {
        let mut scratch = PushScratch::new(n);
        let sources = nodes.iter().skip(w).step_by(threads);
        let column = |&u| push_column(graph, &mut scratch, u, config).map(|(c, _)| c);
        sources.map(column).collect::<Vec<_>>()
    });
    // Source i is the next column of worker i mod T; the first failure in
    // source order is the error.
    let mut per_worker: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
    let columns = (0..nodes.len()).map_while(|i| per_worker[i % threads].next());
    let columns: Vec<Vec<(u32, f32)>> = columns.collect::<Result<_, _>>()?;
    let support = columns.iter().flatten().map(|&(u, _)| u);
    let mut out = SparseRows::with_support(n, dim, support);
    // Sequential, ascending source order: deterministic for every worker
    // count. Every node of a column has a stored row.
    for (&source, column) in nodes.iter().zip(&columns) {
        let emb = e0.row(ix(source));
        for &(u, weight) in column {
            let row = out.stored_row_mut(ix(u)).into_iter().flatten();
            for (r, e) in row.zip(emb) {
                *r += weight * e;
            }
        }
    }
    Ok(out)
}

/// [`diffuse_rows`] of the `(source, embedding)` pairs as
/// [`SparseRows::from_sources`] folds them, as a dense `N × dim` signal:
/// its rows scattered into zeros.
///
/// # Errors
///
/// As [`SparseRows::from_sources`] and [`diffuse_rows`].
pub fn diffuse_sparse(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PushConfig,
) -> Result<Signal, DiffusionError> {
    let e0 = SparseRows::from_sources(graph.num_nodes(), dim, sources)?;
    Ok(diffuse_rows(graph, &e0, config)?.to_signal())
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
        let social = generators::social_circles_like_scaled(50, &mut seeded(1)).unwrap();
        let grid = generators::grid(5, 5);
        let cases = [
            (&social, 7u32, 0.1f32),
            (&social, 7, 0.5),
            (&social, 7, 0.9),
            (&grid, 12, 0.4),
        ];
        for (g, source, alpha) in cases {
            let cfg = push_cfg(alpha, 1e-6);
            let e0 = one_hot(g.num_nodes(), source as usize);
            let truth = exact::diffuse(g, &e0, cfg.ppr()).unwrap();
            let h = ppr_vector(g, NodeId::new(source), &cfg).unwrap();
            for (u, hu) in h.iter().enumerate() {
                assert!(
                    (hu - truth.row(u)[0]).abs() < 1e-4,
                    "{} nodes, alpha {alpha}, node {u}",
                    g.num_nodes()
                );
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
    fn non_finite_source_rows_are_rejected_by_node_and_component() {
        // Every entry folds its sources in `SparseRows::from_sources`; a NaN
        // used to spread through every reached row while push's residual
        // bound stayed finite.
        let g = generators::ring(5).unwrap();
        for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let sources = [
                (NodeId::new(1), Embedding::new(vec![1.0, 2.0, 3.0])),
                (NodeId::new(3), Embedding::new(vec![0.5, bad, 1.0])),
            ];
            let err = SparseRows::from_sources(5, 3, &sources).unwrap_err();
            assert!(
                matches!(&err, DiffusionError::InvalidParameter { reason }
                    if reason.contains("n3") && reason.contains("component 1")),
                "{bad}: {err}"
            );
            let cfg = PushConfig::new(PprConfig::default());
            let pushed = diffuse_sparse(&g, 3, &sources, &cfg).unwrap_err();
            assert_eq!(format!("{pushed:?}"), format!("{err:?}"));
        }
        let huge = [(NodeId::new(0), Embedding::new(vec![f32::MAX, -f32::MAX]))];
        assert!(
            SparseRows::from_sources(5, 2, &huge).is_ok(),
            "finite extremes are kept"
        );
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
        assert!(cfg.with_threads(0).is_err());
        assert!(cfg.with_threads(8).is_ok());
    }

    use gdsearch_graph::Graph;
    use proptest::prelude::*;

    /// The reference model: the engine as it stood before the touched set
    /// — three fresh N-vectors per column, `0..N` scans for the bound, the
    /// frontier rebuild and the compression. Slow and obviously right;
    /// [`push_column`] must reproduce it bit for bit.
    fn reference_push_column(
        graph: &Graph,
        source: u32,
        config: &PushConfig,
    ) -> Result<(Vec<(u32, f32)>, PushResult), DiffusionError> {
        // Per-node tables of the degree formulas, indexed by node.
        let table = |f: fn(usize) -> f32| -> Vec<f32> {
            graph.node_ids().map(|u| f(graph.degree(u))).collect()
        };
        let (weight, deg_scale) = (table(edge_weight), table(degrees::deg_scale));
        let bound_of = |residual: &[f32]| {
            let pairs = graph
                .node_ids()
                .map(|u| graph.degree(u))
                .zip(residual.iter().copied());
            degrees::residual_bound(graph.max_degree(), pairs)
        };
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

        let mut rmax = initial_rmax(tolerance, graph.max_degree());
        let mut pushes = 0usize;
        let mut frontier_peak = queue.len();
        let mut conv = Convergence::new();
        loop {
            while let Some(u) = queue.pop_front() {
                frontier_peak = frontier_peak.max(queue.len() + 1);
                let ui = u as usize;
                in_queue[ui] = false;
                let ru = residual[ui];
                if ru <= rmax * deg_scale[ui] {
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
                let w = spread * weight[ui];
                for v in graph.neighbor_slice(NodeId::new(u)) {
                    let vi = v.index();
                    residual[vi] += w;
                    if !in_queue[vi] && residual[vi] > rmax * deg_scale[vi] {
                        in_queue[vi] = true;
                        queue.push_back(v.as_u32());
                    }
                }
            }
            let bound = bound_of(&residual);
            if conv.record(bound, tolerance) {
                break;
            }
            if !bound.is_finite() {
                return Err(DiffusionError::NotConverged {
                    iterations: pushes,
                    residual: bound,
                });
            }
            rmax *= 0.5;
            for (ui, r) in residual.iter().enumerate() {
                if !in_queue[ui] && *r > rmax * deg_scale[ui] {
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
        for alpha in [0.1f32, 0.5, 0.9] {
            let cfg = PushConfig::new(PprConfig::new(alpha).unwrap());
            for source in sources {
                let got = bits(push_column(&g, &mut scratch, source, &cfg));
                let want = bits(reference_push_column(&g, source, &cfg));
                assert!(want.is_ok(), "α {alpha} source {source}: {want:?}");
                assert_eq!(got, want, "α {alpha} source {source}");
            }
        }
        assert!(scratch.is_clean());
    }

    #[test]
    fn a_column_certifies_in_one_drain() {
        // Every column of a social-circles graph, a grid and a BA graph
        // meets the tolerance after at most one halving; on social
        // circles, the benchmark's graph family, the first drain does.
        let social = generators::social_circles_like_scaled(10_000, &mut seeded(41)).unwrap();
        let grid = generators::grid(100, 100);
        let ba = generators::barabasi_albert(3_000, 4, &mut seeded(42)).unwrap();
        for (name, g) in [("social", &social), ("grid", &grid), ("ba", &ba)] {
            let n = g.num_nodes() as u32;
            let hub = g.node_ids().max_by_key(|&u| g.degree(u)).unwrap().as_u32();
            let sources = (0..n).step_by(n as usize / 16).chain([hub, n - 1]);
            let mut scratch = PushScratch::new(g.num_nodes());
            for alpha in [0.1f32, 0.5, 0.9] {
                let cfg = push_cfg(alpha, 1e-5);
                for source in sources.clone() {
                    let (_, stats) = push_column(g, &mut scratch, source, &cfg).unwrap();
                    let at = format!("{name}, α {alpha}, source {source}: {stats:?}");
                    assert!(stats.residual_bound <= 1e-5, "{at}");
                    assert!(stats.drains <= 2, "{at}");
                    if name == "social" {
                        assert_eq!(stats.drains, 1, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_finite_bound_ends_the_column_unconverged_at_once() {
        // The source's path 0–1–2 and the pair 3–4. Node 4's residual is
        // poisoned, touched but never queued, so the first certificate
        // reads it: a NaN must not drop out of the bound and certify, and
        // an ∞ must not be halved down to a frontier that pushes it.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let cfg = push_cfg(0.5, 1e-6);
        let clean = drain_to_tolerance(&g, &mut PushScratch::new(5), 0, &cfg).unwrap();
        assert_eq!(clean.drains, 1);
        for poison in [f32::NAN, f32::INFINITY] {
            let mut s = PushScratch::new(5);
            s.residual[4] = poison;
            s.touched.insert(4);
            match drain_to_tolerance(&g, &mut s, 0, &cfg) {
                Err(DiffusionError::NotConverged {
                    iterations,
                    residual,
                }) => {
                    assert_eq!(iterations, clean.pushes, "{poison}: one drain's pushes");
                    assert_eq!(residual.to_bits(), poison.to_bits());
                }
                other => panic!("{poison}: {other:?}"),
            }
            s.take_column();
            assert!(s.is_clean());
        }
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

        let mut reused = PushScratch::new(30);
        let failed = bits(push_column(&g, &mut reused, 0, &starved));
        assert_eq!(failed, bits(reference_push_column(&g, 0, &starved)));
        assert!(failed.is_err(), "the starved budget must not converge");
        assert!(reused.is_clean(), "the error path skipped the clear");

        let after_failure = bits(push_column(&g, &mut reused, 7, &normal));
        let fresh = bits(push_column(&g, &mut PushScratch::new(30), 7, &normal));
        assert!(fresh.is_ok());
        assert_eq!(after_failure, fresh);
    }

    #[test]
    fn detailed_values_expand_the_compressed_column() {
        let g = generators::social_circles_like_scaled(200, &mut seeded(8)).unwrap();
        let cfg = push_cfg(0.3, 1e-6);
        let (column, stats) = reference_push_column(&g, 17, &cfg).unwrap();
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

        /// Random graphs, tolerances (so initial granularities) from 10⁻⁶ to
        /// 10 and budgets — tight budgets make some columns fail mid-drain —
        /// five sources through one scratch.
        #[test]
        fn push_column_matches_the_reference_model(
            g in arb_graph(),
            alpha in 0.05f32..1.0,
            tolerance_exp in -6i32..2,
            max_iterations in 1usize..40,
            picks in collection::vec(0u32..36, 5),
        ) {
            let n = g.num_nodes() as u32;
            let ppr = PprConfig::new(alpha)
                .unwrap()
                .with_tolerance(10f32.powi(tolerance_exp))
                .unwrap()
                .with_max_iterations(max_iterations);
            let cfg = PushConfig::new(ppr);
            let mut scratch = PushScratch::new(g.num_nodes());
            for pick in picks {
                let got = bits(push_column(&g, &mut scratch, pick % n, &cfg));
                let want = bits(reference_push_column(&g, pick % n, &cfg));
                prop_assert_eq!(got, want, "source {}", pick % n);
                // Both levels of the touched set, after `Ok` and `Err`.
                prop_assert!(scratch.is_clean(), "source {}", pick % n);
            }
        }

        /// A deposit marks a node only when it finds a zero residual, so
        /// after a drain — certified, halved or stopped by the budget —
        /// every node with a non-zero residual or estimate, or a set queue
        /// flag, must still be in the touched set that the bound, the
        /// frontier rebuild and `take_column` walk.
        #[test]
        fn the_touched_set_covers_every_non_default_entry(
            g in arb_graph(),
            alpha in 0.05f32..1.0,
            tolerance_exp in -6i32..2,
            max_iterations in 1usize..40,
            picks in collection::vec(0u32..36, 5),
        ) {
            let n = g.num_nodes();
            let ppr = PprConfig::new(alpha)
                .unwrap()
                .with_tolerance(10f32.powi(tolerance_exp))
                .unwrap()
                .with_max_iterations(max_iterations);
            let cfg = PushConfig::new(ppr);
            let mut s = PushScratch::new(n);
            for pick in picks {
                let source = pick % n as u32;
                let _ = drain_to_tolerance(&g, &mut s, source, &cfg);
                let mut marked = vec![false; n];
                for v in s.touched.iter() {
                    marked[ix(v)] = true;
                }
                let entries = s.residual.iter().zip(&s.estimate).zip(&s.in_queue);
                for (v, ((r, e), &queued)) in entries.enumerate() {
                    let set = r.to_bits() != 0 || e.to_bits() != 0 || queued;
                    prop_assert!(!set || marked[v], "source {}, node {}", source, v);
                }
                s.take_column();
                prop_assert!(s.is_clean(), "source {}", source);
            }
        }

        /// The two-level touched set against `set_bits` over its full
        /// bitmap and against the sorted distinct deposits: deposits
        /// clustered at word and summary-word edges, repeats, three rounds
        /// through one set with a clear between them.
        #[test]
        fn the_touched_walk_is_the_full_bitmap_scan(
            n in 1usize..12_000,
            rounds in collection::vec(collection::vec((0usize..4, 0usize..200), 0..80), 3),
        ) {
            let mut touched = Touched::new(n);
            for deposits in rounds {
                // Near 0, a word edge, a summary-word edge and N − 1.
                let nodes: Vec<usize> = deposits
                    .iter()
                    .map(|&(at, off)| [off, 64 * 37 + off, 4096 - 100 + off, n - 1 - off % n][at] % n)
                    .collect();
                for &v in &nodes {
                    touched.insert(v);
                }
                let walked: Vec<u32> = touched.iter().collect();
                prop_assert_eq!(&walked, &set_bits(&touched.words).collect::<Vec<_>>());
                let mut want: Vec<u32> = nodes.iter().map(|&v| v as u32).collect();
                want.sort_unstable();
                want.dedup();
                prop_assert_eq!(&walked, &want);
                touched.clear();
                prop_assert!(touched.is_empty());
            }
        }

        /// The batched driver's rows against the dense driver it replaced:
        /// reference columns rank-1-added into an `N × dim` zero signal,
        /// ascending source, then ascending node. Widths from 0, repeated
        /// sources, an all-zero row, several worker counts; every row read
        /// through the accessor and the scattered signal carry its bits.
        #[test]
        fn push_rows_match_the_dense_accumulation(
            g in arb_graph(),
            alpha in 0.05f32..1.0,
            dim in 0usize..5,
            picks in collection::vec((0u32..36, 0u32..4), 0..6),
            threads in 1usize..4,
        ) {
            let n = g.num_nodes();
            let ppr = PprConfig::new(alpha)
                .unwrap()
                .with_tolerance(1e-6)
                .unwrap();
            let cfg = PushConfig::new(ppr).with_threads(threads).unwrap();
            // Kind 0 is the all-zero row.
            let sources: Vec<(NodeId, Embedding)> = picks
                .iter()
                .map(|&(u, kind)| {
                    let row = (0..dim).map(|i| (kind as f32) * 0.25 - (i as f32) * 0.125);
                    let row = row.map(|x| if kind == 0 { 0.0 } else { x });
                    (NodeId::new(u % n as u32), Embedding::new(row.collect()))
                })
                .collect();
            let want = reference_dense_accumulation(&g, dim, &sources, &cfg);
            let e0 = SparseRows::from_sources(n, dim, &sources).unwrap();
            let rows = diffuse_rows(&g, &e0, &cfg).unwrap();
            for u in 0..n {
                prop_assert_eq!(float_bits(rows.row(u)), float_bits(want.row(u)), "row {}", u);
            }
            let dense = diffuse_sparse(&g, dim, &sources, &cfg).unwrap();
            prop_assert_eq!(float_bits(dense.as_slice()), float_bits(want.as_slice()));
        }
    }

    fn float_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The dense driver as it stood before row-sparse output: the distinct
    /// sources' personalizations summed, then one reference column per
    /// source, ascending, rank-1-added into a zero `N × dim` signal.
    fn reference_dense_accumulation(
        graph: &Graph,
        dim: usize,
        sources: &[(NodeId, Embedding)],
        config: &PushConfig,
    ) -> Signal {
        use std::collections::BTreeMap;
        let mut grouped: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
        for (node, emb) in sources {
            let acc = grouped
                .entry(node.as_u32())
                .or_insert_with(|| vec![0.0; dim]);
            for (a, e) in acc.iter_mut().zip(emb.as_slice()) {
                *a += e;
            }
        }
        let mut out = Signal::zeros(graph.num_nodes(), dim);
        for (&source, emb) in &grouped {
            let (column, _) = reference_push_column(graph, source, config).unwrap();
            for (u, weight) in column {
                for (r, e) in out.row_mut(u as usize).iter_mut().zip(emb) {
                    *r += weight * e;
                }
            }
        }
        out
    }
}
