//! Diffusion on partitioned graph state: the sharded power sweep and the
//! sharded forward-push engine over a [`ShardedGraph`].
//!
//! Both engines keep *all* per-node state — signal blocks, residuals,
//! estimates — partitioned by the shard that owns the node range, and
//! exchange only boundary data between steps:
//!
//! * the **power sweep** exchanges halo *columns* of the previous iterate
//!   (each shard gathers the values of its halo nodes from their owners,
//!   then sweeps its own rows);
//! * the **push engine** drains per-shard residual frontiers locally and
//!   hands cross-shard residual *mass* to the owning shard between rounds.
//!
//! Per-step work is scheduled over [`crate::workpool`], so `shards` bounds
//! the state partition while `threads` bounds the physical parallelism —
//! the two knobs are independent and neither affects the output.
//!
//! Boundary movement itself goes through the [`ShardExchange`] trait:
//! the default
//! entry points use the shared-memory [`crate::exchange::InProcessExchange`],
//! while the `*_with_exchange` variants accept any interconnect (the
//! `gdsearch-dist` crate supplies one backed by simulated bandwidth-limited
//! links). The canonical schedule below is interconnect-independent, so
//! every conforming exchange yields bit-for-bit identical results.
//!
//! Nothing in the product reaches these engines:
//! [`crate::per_source::auto_diffuse`] runs the monolithic push and sweep
//! at every size, which in one process are faster and smaller than the
//! sharded ones (its docs give the measurement). They serve
//! `gdsearch-dist` and the sharding and distributed ablations.
//!
//! # Determinism
//!
//! **Power.** The sharded sweep is *bit-for-bit identical to
//! [`crate::power::diffuse`]* for every `(shards, threads)` combination.
//! Shard-local transition rows are the global transition rows with columns
//! remapped by [`GraphShard::slot_of`], which is strictly monotone in the
//! global node id — so each row's stored entries keep their global order,
//! with the [`edge_weight`] values the monolithic sweep reads from its
//! per-node tables. [`CsrMatrix::mul_dense_rows_into`] runs both sweeps'
//! row kernel, [`gdsearch_graph::sparse::gather_row`], and so performs the
//! same float operations in the same order as the monolithic gather (which,
//! while its liveness mask is on, leaves out the `w·(+0.0)` terms of rows
//! that are still zero — terms that change no bit of a sum). The blend
//! `E(t+1) = (1−a)·A·E(t) + a·E0` uses the same expression per element,
//! and the residual maxima are folded with `f32::max`, which is
//! associative for the non-NaN values produced here.
//!
//! **Push.** The sharded push uses a canonical *round* schedule (Jacobi
//! within a round): each round pushes every node whose round-start residual
//! exceeds `rmax · deg(u)`, in ascending node id; new residual mass is
//! buffered and merged afterwards, applied one contribution at a time in
//! ascending *source* id. Because shard ranges are contiguous and each
//! shard scans its frontier in ascending local order, the merge order —
//! shard 0's contributions, then shard 1's, … — is exactly ascending
//! source order no matter how the node set is sharded, and each shard's
//! outbox is replayed entry by entry. The schedule therefore performs
//! identical float operations for every `(shards, threads)` combination;
//! the single-shard instance *is* the unsharded counterpart. Accuracy uses
//! the same certified L∞ bounds as [`crate::push`] (evaluated in global
//! node order on the coordinator), so results are interchangeable with the
//! sweep engines at [`crate::PprConfig::tolerance`].
//!
//! What is *not* claimed: bit-equality between the round-scheduled push and
//! the FIFO-scheduled [`crate::push`] — different push orders accumulate
//! residuals in different orders, so those two agree only to the certified
//! tolerance (like every other engine pair in this crate).
//!
//! # Example
//!
//! ```
//! use gdsearch_diffusion::{power, sharded, PprConfig, Signal};
//! use gdsearch_graph::generators;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::ring(64)?;
//! let mut e0 = Signal::zeros(64, 2);
//! e0.row_mut(0).copy_from_slice(&[1.0, 0.25]);
//! let cfg = sharded::ShardedConfig::new(PprConfig::new(0.5)?)
//!     .with_shards(4)?
//!     .with_threads(2)?;
//! let out = sharded::diffuse(&g, &e0, &cfg)?;
//! let reference = power::diffuse(&g, &e0, &PprConfig::new(0.5)?)?;
//! // Bit-for-bit identical to the monolithic dense sweep.
//! assert_eq!(out.signal.as_slice(), reference.signal.as_slice());
//! # Ok(())
//! # }
//! ```

#![expect(
    clippy::expect_used,
    reason = "audited invariant expect()s: each site's message states the precondition that makes it unreachable"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "narrowing bounded by construction: node/shard/word counts are validated to fit u32 (CsrMatrix::from_sorted_rows and GraphBuilder reject larger)"
)]

use std::collections::BTreeMap;

use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::{edge_weight, CsrMatrix, Normalization};
use gdsearch_graph::{Graph, GraphShard, NodeId, ShardedGraph};

use crate::convergence::Convergence;
use crate::degrees::DegreeTables;
use crate::exchange::{InProcessExchange, ShardExchange};
use crate::power::DiffusionResult;
use crate::{workpool, DiffusionError, PprConfig, Signal};

pub use crate::exchange::Outbox;

/// Configuration of the sharded engines: the PPR filter parameters plus the
/// partitioning and scheduling knobs.
///
/// `shards` controls how the node set (and with it all per-node state) is
/// partitioned; `threads` controls how many workers sweep the shards.
/// Neither affects the output (see the module docs).
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::{sharded::ShardedConfig, PprConfig};
///
/// # fn main() -> Result<(), gdsearch_diffusion::DiffusionError> {
/// let cfg = ShardedConfig::new(PprConfig::new(0.5)?)
///     .with_shards(8)?
///     .with_threads(4)?;
/// assert_eq!(cfg.shards(), 8);
/// assert_eq!(cfg.threads(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    ppr: PprConfig,
    shards: usize,
    threads: usize,
    rmax: f32,
}

impl ShardedConfig {
    /// Creates a sharded configuration with defaults: a single shard, a
    /// single worker, and the push engine's initial frontier granularity
    /// equal to the PPR tolerance.
    #[must_use]
    pub fn new(ppr: PprConfig) -> Self {
        ShardedConfig {
            ppr,
            shards: 1,
            threads: 1,
            rmax: ppr.tolerance().max(f32::MIN_POSITIVE),
        }
    }

    /// Sets the shard count (clamped to the node count at partition time).
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] if `shards == 0`.
    pub fn with_shards(mut self, shards: usize) -> Result<Self, DiffusionError> {
        if shards == 0 {
            return Err(DiffusionError::invalid_parameter("shards must be positive"));
        }
        self.shards = shards;
        Ok(self)
    }

    /// Sets the worker-thread count shards are scheduled over.
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

    /// Sets the push engine's initial frontier granularity (a schedule
    /// knob, not an accuracy knob — see [`crate::push::PushConfig::with_rmax`]).
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

    /// The PPR filter parameters.
    #[must_use]
    pub fn ppr(&self) -> &PprConfig {
        &self.ppr
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Worker threads.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Initial push frontier granularity.
    #[must_use]
    pub fn rmax(&self) -> f32 {
        self.rmax
    }
}

// ---------------------------------------------------------------------------
// Sharded power sweep
// ---------------------------------------------------------------------------

/// Per-shard compute state of the sharded power sweep. The gather plan
/// lives in the [`ShardExchange`] implementation ([`crate::exchange`]);
/// this is only what the local row sweep needs.
struct PowerShard {
    /// This shard's index (for locating its own blocks in `currents` and
    /// the exchanged inputs).
    index: usize,
    /// The shard's transition rows, columns remapped to slots.
    matrix: CsrMatrix,
    /// Next iterate of the local block (`local_n × dim`).
    next: Vec<f32>,
    /// Local block of `E0`.
    origin: Vec<f32>,
}

/// Builds shard `s`'s transition rows with columns remapped to slots.
///
/// The values are exactly those of
/// [`gdsearch_graph::sparse::transition_matrix`]; the slot map is strictly
/// monotone, so each row keeps its global storage order (the determinism
/// argument in the module docs).
fn shard_transition(sharded: &ShardedGraph, s: usize, norm: Normalization) -> CsrMatrix {
    let shard = sharded.shard(s);
    let mut offsets = Vec::with_capacity(shard.num_local_nodes() + 1);
    let mut columns = Vec::with_capacity(shard.num_adjacency_entries());
    let mut values = Vec::with_capacity(shard.num_adjacency_entries());
    offsets.push(0);
    for local in 0..shard.num_local_nodes() {
        let deg_u = shard.local_degree(local);
        for &v in shard.local_neighbor_slice(local) {
            let slot = shard
                .slot_of(v)
                .expect("every neighbor is local or in the halo");
            columns.push(slot as u32);
            values.push(edge_weight(norm, deg_u, sharded.degree(v)));
        }
        offsets.push(columns.len());
    }
    CsrMatrix::from_sorted_rows(
        shard.num_local_nodes(),
        shard.slot_count(),
        offsets,
        columns,
        values,
    )
    .expect("slots of a sorted neighbor list ascend within the shard's u32 slot space")
}

/// Diffuses `e0` with the PPR filter on partitioned state: the graph is
/// split into `config.shards()` node ranges and each sweep runs shard-local
/// products, exchanging only halo columns between iterations.
///
/// Bit-for-bit identical to [`crate::power::diffuse`] for every
/// `(shards, threads)` combination (see the module docs).
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] if `e0` has a different node
/// count than `graph`.
pub fn diffuse(
    graph: &Graph,
    e0: &Signal,
    config: &ShardedConfig,
) -> Result<DiffusionResult, DiffusionError> {
    let sharded = ShardedGraph::from_graph(graph, config.shards)?;
    diffuse_partitioned(&sharded, e0, config)
}

/// [`diffuse`] over a prebuilt partition.
///
/// # Errors
///
/// As [`diffuse`].
pub fn diffuse_partitioned(
    sharded: &ShardedGraph,
    e0: &Signal,
    config: &ShardedConfig,
) -> Result<DiffusionResult, DiffusionError> {
    let mut exchange = InProcessExchange::new(sharded, config.threads);
    diffuse_with_exchange(sharded, e0, config, &mut exchange)
}

/// [`diffuse_partitioned`] with an explicit boundary interconnect: halo
/// columns move through `exchange` instead of the default shared-memory
/// copies. Any implementation honouring the [`crate::exchange`] contract
/// (e.g. the transport-backed one in `gdsearch-dist`) yields bit-for-bit
/// the same result as [`crate::power::diffuse`].
///
/// # Errors
///
/// As [`diffuse`], plus any [`DiffusionError::Exchange`] the interconnect
/// reports.
pub fn diffuse_with_exchange<E: ShardExchange>(
    sharded: &ShardedGraph,
    e0: &Signal,
    config: &ShardedConfig,
    exchange: &mut E,
) -> Result<DiffusionResult, DiffusionError> {
    let n = sharded.num_nodes();
    if e0.num_nodes() != n {
        return Err(DiffusionError::ShapeMismatch {
            expected: (n, e0.dim()),
            got: (e0.num_nodes(), e0.dim()),
        });
    }
    let dim = e0.dim();
    let tolerance = config.ppr.tolerance();
    if dim == 0 {
        // Zero-width signals converge immediately; mirror the dense
        // engine's bookkeeping exactly (one zero-residual sweep, unless the
        // iteration budget is itself zero).
        let mut conv = Convergence::new();
        while conv.iters < config.ppr.max_iterations() {
            if conv.record(0.0, tolerance) {
                break;
            }
        }
        return Ok(DiffusionResult {
            signal: e0.clone(),
            iterations: conv.iters,
            residual: conv.residual,
            converged: conv.converged,
        });
    }
    let norm = config.ppr.normalization();
    let alpha = config.ppr.alpha();
    let threads = config.threads.max(1);
    // Partition the signal: shard-local current blocks, exchanged
    // slot-layout inputs, and per-shard sweep scratch.
    let mut currents: Vec<Vec<f32>> = Vec::with_capacity(sharded.num_shards());
    let mut inputs: Vec<Vec<f32>> = Vec::with_capacity(sharded.num_shards());
    let mut scratch: Vec<PowerShard> = Vec::with_capacity(sharded.num_shards());
    for (s, shard) in sharded.shards().iter().enumerate() {
        let start = shard.start() as usize * dim;
        let len = shard.num_local_nodes() * dim;
        let block = e0.as_slice()[start..start + len].to_vec();
        scratch.push(PowerShard {
            index: s,
            matrix: shard_transition(sharded, s, norm),
            next: vec![0.0f32; len],
            origin: block.clone(),
        });
        inputs.push(vec![0.0f32; shard.slot_count() * dim]);
        currents.push(block);
    }
    let mut conv = Convergence::new();
    while conv.iters < config.ppr.max_iterations() {
        // One sweep: exchange halo columns (plus the free local copy),
        // then multiply local rows and blend with the teleport term — per
        // shard, scheduled over the workpool.
        exchange.exchange_halos(dim, &currents, &mut inputs)?;
        let max_delta = {
            let cur = &currents;
            let ins = &inputs;
            let deltas = workpool::map_batched_mut(&mut scratch, threads, |sh| {
                let mine = cur[sh.index].as_slice();
                sh.matrix
                    .mul_dense_rows_into(0, &ins[sh.index], dim, &mut sh.next);
                let mut local_max = 0.0f32;
                for (j, nx) in sh.next.iter_mut().enumerate() {
                    *nx = (1.0 - alpha) * *nx + alpha * sh.origin[j];
                    let delta = (*nx - mine[j]).abs();
                    if delta > local_max {
                        local_max = delta;
                    }
                }
                local_max
            });
            deltas.into_iter().fold(0.0f32, f32::max)
        };
        for (sh, cur) in scratch.iter_mut().zip(currents.iter_mut()) {
            std::mem::swap(&mut sh.next, cur);
        }
        if conv.record(max_delta, tolerance) {
            break;
        }
    }
    let mut signal = Signal::zeros(n, dim);
    let out = signal.as_mut_slice();
    let mut off = 0;
    for cur in &currents {
        out[off..off + cur.len()].copy_from_slice(cur);
        off += cur.len();
    }
    Ok(DiffusionResult {
        signal,
        iterations: conv.iters,
        residual: conv.residual,
        converged: conv.converged,
    })
}

// ---------------------------------------------------------------------------
// Sharded forward push
// ---------------------------------------------------------------------------

/// The certified L∞ bound of [`crate::degrees::DegreeTables`], fed the
/// partitioned residuals in global node order (shards ascending, local
/// rows ascending) so the result is independent of the shard count.
fn partitioned_bound(deg: &DegreeTables, shards: &[GraphShard], residuals: &[Vec<f32>]) -> f32 {
    deg.residual_bound(shards.iter().zip(residuals).flat_map(|(shard, res)| {
        let base = shard.start() as usize;
        res.iter()
            .enumerate()
            .map(move |(local, &r)| (base + local, r))
    }))
}

/// Runs one push round over the partitioned residuals at granularity
/// `rmax`, returning the number of pushes performed.
///
/// Phase 1 (parallel over shards): each shard scans its residual block in
/// ascending local order, pushes every node above the frontier threshold,
/// and buffers outgoing residual mass per destination shard as
/// `(dest-local row, weight)` pairs in emission order. Phase 2 (the round
/// barrier, [`ShardExchange::exchange_residuals`]): the buffered mass is
/// applied to each destination, source shard by source shard, one
/// contribution at a time — ascending source order globally (the module
/// docs' determinism argument).
#[allow(clippy::too_many_arguments)]
fn push_round<E: ShardExchange>(
    sharded: &ShardedGraph,
    deg: &DegreeTables,
    alpha: f32,
    rmax: f32,
    threads: usize,
    residuals: &mut [Vec<f32>],
    estimates: &mut [Vec<f32>],
    outboxes: &mut [Outbox],
    exchange: &mut E,
) -> Result<usize, DiffusionError> {
    let round_pushes: usize = {
        let mut items: Vec<(usize, &mut Vec<f32>, &mut Vec<f32>, &mut Outbox)> = residuals
            .iter_mut()
            .zip(estimates.iter_mut())
            .zip(outboxes.iter_mut())
            .enumerate()
            .map(|(s, ((r, e), o))| (s, r, e, o))
            .collect();
        workpool::map_batched_mut(&mut items, threads, |(s, residual, estimate, outbox)| {
            for dest in outbox.iter_mut() {
                dest.clear();
            }
            let shard = sharded.shard(*s);
            let base = shard.start() as usize;
            let mut pushed = 0usize;
            for local in 0..residual.len() {
                let u = base + local;
                let ru = residual[local];
                if ru <= rmax * deg.deg_scale[u] {
                    continue;
                }
                pushed += 1;
                residual[local] = 0.0;
                estimate[local] += alpha * ru;
                let spread = (1.0 - alpha) * ru;
                if spread <= 0.0 {
                    continue;
                }
                // Forward the remaining mass along column u of A; the
                // column's nonzeros are exactly u's neighbors.
                let neighbors = shard.local_neighbor_slice(local);
                match deg.norm {
                    Normalization::ColumnStochastic => {
                        let w = spread * deg.inv_deg[u];
                        for v in neighbors {
                            let owner = sharded.owner_of(*v);
                            let vl = v.as_u32() - sharded.shard(owner).start();
                            outbox[owner].push((vl, w));
                        }
                    }
                    Normalization::RowStochastic => {
                        for v in neighbors {
                            let owner = sharded.owner_of(*v);
                            let vl = v.as_u32() - sharded.shard(owner).start();
                            outbox[owner].push((vl, spread * deg.inv_deg[v.index()]));
                        }
                    }
                    Normalization::Symmetric => {
                        let w = spread * deg.inv_sqrt_deg[u];
                        for v in neighbors {
                            let owner = sharded.owner_of(*v);
                            let vl = v.as_u32() - sharded.shard(owner).start();
                            outbox[owner].push((vl, w * deg.inv_sqrt_deg[v.index()]));
                        }
                    }
                }
            }
            pushed
        })
        .into_iter()
        .sum()
    };
    if round_pushes > 0 {
        exchange.exchange_residuals(outboxes, residuals)?;
    }
    Ok(round_pushes)
}

/// Whether any node is above the frontier threshold at granularity `rmax`.
fn frontier_nonempty(
    sharded: &ShardedGraph,
    deg: &DegreeTables,
    rmax: f32,
    residuals: &[Vec<f32>],
) -> bool {
    sharded
        .shards()
        .iter()
        .zip(residuals)
        .any(|(shard, residual)| {
            let base = shard.start() as usize;
            residual
                .iter()
                .enumerate()
                .any(|(local, &r)| r > rmax * deg.deg_scale[base + local])
        })
}

/// Computes one push column on partitioned state, leaving the estimates in
/// `estimates` (per-shard blocks). Pure in its inputs — the determinism
/// contract of the module docs.
#[allow(clippy::too_many_arguments)]
fn push_column_partitioned<E: ShardExchange>(
    sharded: &ShardedGraph,
    deg: &DegreeTables,
    source: u32,
    config: &ShardedConfig,
    residuals: &mut [Vec<f32>],
    estimates: &mut [Vec<f32>],
    outboxes: &mut [Outbox],
    exchange: &mut E,
) -> Result<(), DiffusionError> {
    let n = sharded.num_nodes();
    let alpha = config.ppr.alpha();
    let tolerance = config.ppr.tolerance();
    let threads = config.threads.max(1);
    let budget = config.ppr.max_iterations().saturating_mul(n.max(1));
    for block in residuals.iter_mut() {
        block.iter_mut().for_each(|r| *r = 0.0);
    }
    for block in estimates.iter_mut() {
        block.iter_mut().for_each(|e| *e = 0.0);
    }
    let owner = sharded.owner_of(NodeId::new(source));
    residuals[owner][(source - sharded.shard(owner).start()) as usize] = 1.0;

    let mut rmax = config.rmax;
    let mut pushes = 0usize;
    let mut conv = Convergence::new();
    loop {
        // Drain at the current granularity: rounds until no frontier.
        loop {
            if pushes >= budget {
                if frontier_nonempty(sharded, deg, rmax, residuals) {
                    return Err(DiffusionError::NotConverged {
                        iterations: pushes,
                        residual: partitioned_bound(deg, sharded.shards(), residuals),
                    });
                }
                break;
            }
            let round = push_round(
                sharded, deg, alpha, rmax, threads, residuals, estimates, outboxes, exchange,
            )?;
            if round == 0 {
                break;
            }
            pushes += round;
        }
        // Certify against the remaining residual mass, exactly like the
        // FIFO engine.
        let bound = partitioned_bound(deg, sharded.shards(), residuals);
        if conv.record(bound, tolerance) {
            return Ok(());
        }
        rmax *= 0.5;
        if rmax < f32::MIN_POSITIVE && !frontier_nonempty(sharded, deg, rmax, residuals) {
            return Err(DiffusionError::NotConverged {
                iterations: pushes,
                residual: bound,
            });
        }
    }
}

/// Computes the single-source PPR vector `h_s` by sharded forward push,
/// certified to `config.ppr().tolerance()` in L∞.
///
/// Residual and estimate state is partitioned by shard throughout; only
/// cross-shard residual mass moves between rounds. Output is bit-for-bit
/// identical for every `(shards, threads)` combination.
///
/// # Errors
///
/// Returns [`DiffusionError::InvalidParameter`] if `source` is out of range
/// and [`DiffusionError::NotConverged`] if the push budget
/// (`max_iterations · N` pushes) is exhausted.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::{sharded, PprConfig};
/// use gdsearch_graph::{generators, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::path(5);
/// let cfg = sharded::ShardedConfig::new(PprConfig::new(0.5)?).with_shards(2)?;
/// let h = sharded::ppr_vector(&g, NodeId::new(0), &cfg)?;
/// assert!(h[0] > h[1] && h[1] > h[2]);
/// # Ok(())
/// # }
/// ```
pub fn ppr_vector(
    graph: &Graph,
    source: NodeId,
    config: &ShardedConfig,
) -> Result<Vec<f32>, DiffusionError> {
    let sharded = ShardedGraph::from_graph(graph, config.shards)?;
    ppr_vector_partitioned(&sharded, source, config)
}

/// [`ppr_vector`] over a prebuilt partition.
///
/// # Errors
///
/// As [`ppr_vector`].
pub fn ppr_vector_partitioned(
    sharded: &ShardedGraph,
    source: NodeId,
    config: &ShardedConfig,
) -> Result<Vec<f32>, DiffusionError> {
    let mut exchange = InProcessExchange::new(sharded, config.threads);
    ppr_vector_with_exchange(sharded, source, config, &mut exchange)
}

/// [`ppr_vector_partitioned`] with an explicit boundary interconnect:
/// cross-shard residual mass moves through `exchange` at every round
/// barrier. Bit-for-bit identical to the in-process result for any
/// implementation honouring the [`crate::exchange`] contract.
///
/// # Errors
///
/// As [`ppr_vector`], plus any [`DiffusionError::Exchange`] the
/// interconnect reports.
pub fn ppr_vector_with_exchange<E: ShardExchange>(
    sharded: &ShardedGraph,
    source: NodeId,
    config: &ShardedConfig,
    exchange: &mut E,
) -> Result<Vec<f32>, DiffusionError> {
    let n = sharded.num_nodes();
    if source.index() >= n {
        return Err(DiffusionError::invalid_parameter(format!(
            "source {source} out of range for {n} nodes"
        )));
    }
    let deg = DegreeTables::from_sharded(sharded, config.ppr.normalization());
    let (mut residuals, mut estimates, mut outboxes) = push_state(sharded);
    push_column_partitioned(
        sharded,
        &deg,
        source.as_u32(),
        config,
        &mut residuals,
        &mut estimates,
        &mut outboxes,
        exchange,
    )?;
    let mut out = Vec::with_capacity(n);
    for block in &estimates {
        out.extend_from_slice(block);
    }
    Ok(out)
}

/// Allocates the per-shard push state (residual blocks, estimate blocks,
/// per-destination outboxes).
fn push_state(sharded: &ShardedGraph) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, Vec<Outbox>) {
    let num_shards = sharded.num_shards();
    let residuals: Vec<Vec<f32>> = sharded
        .shards()
        .iter()
        .map(|s| vec![0.0f32; s.num_local_nodes()])
        .collect();
    let estimates = residuals.clone();
    let outboxes = vec![vec![Vec::new(); num_shards]; num_shards];
    (residuals, estimates, outboxes)
}

/// Diffuses a sparse personalization — `(source node, embedding)` pairs —
/// with one sharded push column per distinct source node.
///
/// The sharded sibling of [`crate::push::diffuse_sparse`]: equivalent to
/// the sweep engines at tolerance, bit-for-bit identical for every
/// `(shards, threads)` combination, with residual/estimate state
/// partitioned by shard while each column runs.
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
    config: &ShardedConfig,
) -> Result<Signal, DiffusionError> {
    let sharded = ShardedGraph::from_graph(graph, config.shards)?;
    diffuse_sparse_partitioned(&sharded, dim, sources, config)
}

/// [`diffuse_sparse`] over a prebuilt partition.
///
/// # Errors
///
/// As [`diffuse_sparse`].
pub fn diffuse_sparse_partitioned(
    sharded: &ShardedGraph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &ShardedConfig,
) -> Result<Signal, DiffusionError> {
    let mut exchange = InProcessExchange::new(sharded, config.threads);
    diffuse_sparse_with_exchange(sharded, dim, sources, config, &mut exchange)
}

/// [`diffuse_sparse_partitioned`] with an explicit boundary interconnect
/// (see [`ppr_vector_with_exchange`]); all columns reuse the same
/// exchange, so transport statistics accumulate across the batch.
///
/// # Errors
///
/// As [`diffuse_sparse`], plus any [`DiffusionError::Exchange`] the
/// interconnect reports.
pub fn diffuse_sparse_with_exchange<E: ShardExchange>(
    sharded: &ShardedGraph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &ShardedConfig,
    exchange: &mut E,
) -> Result<Signal, DiffusionError> {
    let n = sharded.num_nodes();
    let mut out = Signal::zeros(n, dim);
    // Group repeated source nodes (diffusion is linear); BTreeMap keeps
    // column order — and with it accumulation order — deterministic.
    let mut grouped: BTreeMap<u32, Vec<f32>> = BTreeMap::new();
    for (node, emb) in sources {
        if emb.dim() != dim || node.index() >= n {
            return Err(DiffusionError::ShapeMismatch {
                expected: (n, dim),
                got: (node.index(), emb.dim()),
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
    let deg = DegreeTables::from_sharded(sharded, config.ppr.normalization());
    let (mut residuals, mut estimates, mut outboxes) = push_state(sharded);
    for (source, emb) in &grouped {
        push_column_partitioned(
            sharded,
            &deg,
            *source,
            config,
            &mut residuals,
            &mut estimates,
            &mut outboxes,
            exchange,
        )?;
        // Rank-1 accumulation in ascending node order (shards ascending,
        // local rows ascending): deterministic.
        for (shard, block) in sharded.shards().iter().zip(&estimates) {
            let base = shard.start() as usize;
            for (local, weight) in block.iter().enumerate() {
                if *weight == 0.0 {
                    continue;
                }
                let row = out.row_mut(base + local);
                for (r, e) in row.iter_mut().zip(emb) {
                    *r += weight * e;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{power, push};
    use gdsearch_graph::generators;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn seeded(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn cfg(alpha: f32, tol: f32) -> ShardedConfig {
        ShardedConfig::new(PprConfig::new(alpha).unwrap().with_tolerance(tol).unwrap())
    }

    fn random_signal(n: usize, dim: usize, seed: u64) -> Signal {
        let mut rng = seeded(seed);
        let mut s = Signal::zeros(n, dim);
        for u in 0..n {
            for d in 0..dim {
                s.row_mut(u)[d] = rng.random::<f32>();
            }
        }
        s
    }

    #[test]
    fn shard_transition_equals_its_triplet_oracle() {
        // Global transition rows of the shard's node range, columns
        // remapped to slots, built the slow way.
        let g = generators::social_circles_like_scaled(60, &mut seeded(5)).unwrap();
        for norm in [
            Normalization::ColumnStochastic,
            Normalization::RowStochastic,
            Normalization::Symmetric,
        ] {
            let global = gdsearch_graph::sparse::transition_matrix(&g, norm);
            for shards in [1usize, 2, 3] {
                let sharded = ShardedGraph::from_graph(&g, shards).unwrap();
                for (s, shard) in sharded.shards().iter().enumerate() {
                    let mut triplets = Vec::new();
                    for local in 0..shard.num_local_nodes() {
                        for (c, w) in global.row(shard.global_id(local).index()) {
                            let slot = shard.slot_of(NodeId::new(c)).unwrap();
                            triplets.push((local as u32, slot as u32, w));
                        }
                    }
                    let oracle = CsrMatrix::from_triplets(
                        shard.num_local_nodes(),
                        shard.slot_count(),
                        &triplets,
                    )
                    .unwrap();
                    assert_eq!(shard_transition(&sharded, s, norm), oracle);
                }
            }
        }
    }

    #[test]
    fn sharded_power_is_bitwise_identical_to_dense() {
        let g = generators::social_circles_like_scaled(130, &mut seeded(1)).unwrap();
        let e0 = random_signal(130, 5, 2);
        let ppr = PprConfig::new(0.4).unwrap().with_tolerance(1e-7).unwrap();
        let reference = power::diffuse(&g, &e0, &ppr).unwrap();
        for shards in [1usize, 2, 3, 7, 130] {
            for threads in [1usize, 4] {
                let scfg = ShardedConfig::new(ppr)
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                let out = diffuse(&g, &e0, &scfg).unwrap();
                assert_eq!(
                    out.signal.as_slice(),
                    reference.signal.as_slice(),
                    "{shards} shards × {threads} threads drifted"
                );
                assert_eq!(out.iterations, reference.iterations);
                assert_eq!(out.residual.to_bits(), reference.residual.to_bits());
                assert_eq!(out.converged, reference.converged);
            }
        }
    }

    #[test]
    fn sharded_power_all_normalizations_match_dense() {
        let g = generators::grid(6, 6);
        for norm in [
            Normalization::ColumnStochastic,
            Normalization::RowStochastic,
            Normalization::Symmetric,
        ] {
            let ppr = PprConfig::new(0.5)
                .unwrap()
                .with_tolerance(1e-7)
                .unwrap()
                .with_normalization(norm);
            let e0 = random_signal(36, 3, 7);
            let reference = power::diffuse(&g, &e0, &ppr).unwrap();
            let scfg = ShardedConfig::new(ppr).with_shards(5).unwrap();
            let out = diffuse(&g, &e0, &scfg).unwrap();
            assert_eq!(
                out.signal.as_slice(),
                reference.signal.as_slice(),
                "{norm:?} drifted"
            );
        }
    }

    #[test]
    fn sharded_push_is_shard_and_thread_invariant() {
        let g = generators::social_circles_like_scaled(90, &mut seeded(3)).unwrap();
        let base = cfg(0.5, 1e-6);
        let reference = ppr_vector(&g, NodeId::new(11), &base).unwrap();
        for shards in [2usize, 7, 90] {
            for threads in [1usize, 4] {
                let scfg = base
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                let out = ppr_vector(&g, NodeId::new(11), &scfg).unwrap();
                assert_eq!(out, reference, "{shards}×{threads} drifted bitwise");
            }
        }
    }

    #[test]
    fn sharded_push_matches_fifo_push_and_sweep_to_tolerance() {
        let g = generators::social_circles_like_scaled(80, &mut seeded(4)).unwrap();
        let tol = 1e-6f32;
        let scfg = cfg(0.3, tol).with_shards(4).unwrap();
        let h = ppr_vector(&g, NodeId::new(7), &scfg).unwrap();
        let fifo =
            push::ppr_vector(&g, NodeId::new(7), &push::PushConfig::new(*scfg.ppr())).unwrap();
        let mut e0 = Signal::zeros(80, 1);
        e0.row_mut(7)[0] = 1.0;
        let sweep = power::diffuse(&g, &e0, scfg.ppr()).unwrap().signal;
        // Engine pairs agree to the shared accuracy contract (the same
        // slack the push-vs-sweep tests in `crate::push` use).
        for u in 0..80 {
            assert!((h[u] - fifo[u]).abs() < 1e-4, "node {u} vs fifo");
            assert!((h[u] - sweep.row(u)[0]).abs() < 1e-4, "node {u} vs sweep");
        }
        let mass: f32 = h.iter().sum();
        assert!((mass - 1.0).abs() < 1e-3, "column mass {mass}");
    }

    #[test]
    fn sharded_diffuse_sparse_matches_fifo_batch() {
        let g = generators::social_circles_like_scaled(70, &mut seeded(5)).unwrap();
        let dim = 4;
        let mut rng = seeded(6);
        let sources: Vec<(NodeId, Embedding)> = (0..5)
            .map(|_| {
                (
                    NodeId::new(rng.random_range(0..70)),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>()).collect()),
                )
            })
            .collect();
        let scfg = cfg(0.5, 1e-6).with_shards(3).unwrap();
        let out = diffuse_sparse(&g, dim, &sources, &scfg).unwrap();
        let fifo =
            push::diffuse_sparse(&g, dim, &sources, &push::PushConfig::new(*scfg.ppr())).unwrap();
        assert!(out.max_abs_diff(&fifo).unwrap() < 1e-4);
        // And shard/thread invariance of the batched driver.
        for shards in [1usize, 7] {
            for threads in [1usize, 4] {
                let alt = cfg(0.5, 1e-6)
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                assert_eq!(diffuse_sparse(&g, dim, &sources, &alt).unwrap(), out);
            }
        }
    }

    #[test]
    fn alpha_one_is_pure_teleport() {
        let g = generators::ring(6).unwrap();
        let scfg = cfg(1.0, 1e-6).with_shards(3).unwrap();
        let h = ppr_vector(&g, NodeId::new(2), &scfg).unwrap();
        assert!((h[2] - 1.0).abs() < 1e-6);
        assert!(h.iter().enumerate().all(|(u, &v)| u == 2 || v == 0.0));
    }

    #[test]
    fn isolated_node_keeps_teleport_share_only() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let scfg = cfg(0.5, 1e-7).with_shards(2).unwrap();
        let h = ppr_vector(&g, NodeId::new(2), &scfg).unwrap();
        assert!((h[2] - 0.5).abs() < 1e-6);
        assert_eq!(h[0], 0.0);
    }

    #[test]
    fn rejects_invalid_knobs_and_inputs() {
        let ppr = PprConfig::default();
        assert!(ShardedConfig::new(ppr).with_shards(0).is_err());
        assert!(ShardedConfig::new(ppr).with_threads(0).is_err());
        assert!(ShardedConfig::new(ppr).with_rmax(0.0).is_err());
        assert!(ShardedConfig::new(ppr).with_rmax(f32::NAN).is_err());
        let g = generators::ring(5).unwrap();
        let scfg = ShardedConfig::new(ppr);
        assert!(ppr_vector(&g, NodeId::new(9), &scfg).is_err());
        assert!(diffuse(&g, &Signal::zeros(6, 1), &scfg).is_err());
        assert!(diffuse_sparse(&g, 2, &[(NodeId::new(9), Embedding::zeros(2))], &scfg).is_err());
        assert!(diffuse_sparse(&g, 2, &[(NodeId::new(0), Embedding::zeros(3))], &scfg).is_err());
    }

    #[test]
    fn budget_exhaustion_errors() {
        let g = generators::ring(30).unwrap();
        let ppr = PprConfig::new(0.01)
            .unwrap()
            .with_tolerance(1e-12)
            .unwrap()
            .with_max_iterations(1);
        let scfg = ShardedConfig::new(ppr).with_shards(3).unwrap();
        assert!(matches!(
            ppr_vector(&g, NodeId::new(0), &scfg),
            Err(DiffusionError::NotConverged { .. })
        ));
    }

    #[test]
    fn zero_dim_and_empty_sources_degenerate_cleanly() {
        let g = generators::ring(5).unwrap();
        let scfg = ShardedConfig::new(PprConfig::default())
            .with_shards(2)
            .unwrap();
        let out = diffuse(&g, &Signal::zeros(5, 0), &scfg).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        let out = diffuse_sparse(&g, 3, &[], &scfg).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn duplicate_sources_accumulate() {
        let g = generators::ring(12).unwrap();
        let sources = vec![
            (NodeId::new(3), Embedding::new(vec![1.0, 0.0])),
            (NodeId::new(3), Embedding::new(vec![0.5, 2.0])),
        ];
        let scfg = cfg(0.5, 1e-7).with_shards(4).unwrap();
        let out = diffuse_sparse(&g, 2, &sources, &scfg).unwrap();
        let e0 = Signal::from_sparse_rows(12, 2, &sources).unwrap();
        let dense = power::diffuse(&g, &e0, scfg.ppr()).unwrap().signal;
        assert!(out.max_abs_diff(&dense).unwrap() < 1e-4);
    }

    use gdsearch_graph::Graph;
}
