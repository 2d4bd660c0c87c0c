//! The sharded forward-push engine: per-source PPR columns on partitioned
//! graph state over a [`ShardedGraph`].
//!
//! The engine keeps *all* per-node state — residuals and estimates —
//! partitioned by the shard that owns the node range, drains per-shard
//! residual frontiers locally, and hands cross-shard residual *mass* to
//! the owning shard between rounds (PowerWalk-style node-partitioned PPR).
//!
//! Per-round work is scheduled over [`crate::workpool`], so `shards` bounds
//! the state partition while `threads` bounds the physical parallelism —
//! the two knobs are independent and neither affects the output.
//!
//! Residual movement goes through the [`ShardExchange`] trait: the default
//! entry point uses the shared-memory [`crate::exchange::InProcessExchange`],
//! while [`diffuse_sparse_with_exchange`] accepts any interconnect (the
//! `gdsearch-dist` crate supplies one backed by simulated bandwidth-limited
//! links). The round schedule below is interconnect-independent, so every
//! conforming exchange yields bit-for-bit identical results.
//!
//! Nothing in the product reaches this engine:
//! [`crate::per_source::auto_diffuse`] runs the monolithic push and sweep
//! at every size, which in one process are faster and smaller (its docs
//! give the measurement). [`diffuse_sparse`] is reached through
//! `gdsearch_dist::diffuse_sparse`, the distributed ablation and the
//! repository benchmark's probes.
//!
//! # Determinism
//!
//! The sharded push uses a canonical *round* schedule (Jacobi within a
//! round): each round pushes every node whose round-start residual exceeds
//! `rmax · deg(u)`, in ascending node id (the granularity `rmax` starts at
//! the tolerance and halves until the certified bound meets it); new
//! residual mass is buffered and merged afterwards, applied one
//! contribution at a time in ascending *source* id. Because shard ranges
//! are contiguous and each shard scans its frontier in ascending local
//! order, the merge order — shard 0's contributions, then shard 1's, … —
//! is exactly ascending source order no matter how the node set is
//! sharded, and each shard's outbox is replayed entry by entry. The
//! schedule therefore performs identical float operations for every
//! `(shards, threads)` combination; the single-shard instance *is* the
//! unsharded counterpart. Accuracy uses the same certified L∞ bounds as
//! [`crate::push`] (evaluated in global node order on the coordinator), so
//! results are interchangeable with the sweep engines at
//! [`crate::PprConfig::tolerance`].
//!
//! What is *not* claimed: bit-equality between the round-scheduled push and
//! the FIFO-scheduled [`crate::push`] — different push orders accumulate
//! residuals in different orders, so those two agree only to the certified
//! tolerance (like every other engine pair in this crate).
//!
//! # Example
//!
//! ```
//! use gdsearch_diffusion::{sharded, PprConfig};
//! use gdsearch_embed::Embedding;
//! use gdsearch_graph::{generators, NodeId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let g = generators::ring(64)?;
//! let sources = [(NodeId::new(0), Embedding::new(vec![1.0, 0.25]))];
//! let one = sharded::ShardedConfig::new(PprConfig::new(0.5)?);
//! let four = one.with_shards(4)?.with_threads(2)?;
//! let out = sharded::diffuse_sparse(&g, 2, &sources, &four)?;
//! // Bit-for-bit identical to the single-shard instance.
//! assert_eq!(out, sharded::diffuse_sparse(&g, 2, &sources, &one)?);
//! # Ok(())
//! # }
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::edge_weight;
use gdsearch_graph::{Graph, GraphShard, NodeId, ShardedGraph};

use crate::convergence::Convergence;
use crate::degrees;
use crate::exchange::{InProcessExchange, ShardExchange};
use crate::{workpool, DiffusionError, PprConfig, Signal, SparseRows};

pub use crate::exchange::Outbox;

/// Configuration of the sharded push: the PPR filter parameters plus the
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
}

impl ShardedConfig {
    /// Creates a sharded configuration with defaults: a single shard and a
    /// single worker.
    #[must_use]
    pub fn new(ppr: PprConfig) -> Self {
        ShardedConfig {
            ppr,
            shards: 1,
            threads: 1,
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
}

// ---------------------------------------------------------------------------
// Sharded forward push
// ---------------------------------------------------------------------------

/// The certified L∞ bound of [`crate::degrees::residual_bound`], fed the
/// partitioned residuals in global node order (shards ascending, local
/// rows ascending) so the result is independent of the shard count.
fn partitioned_bound(max_degree: usize, shards: &[GraphShard], residuals: &[Vec<f32>]) -> f32 {
    let pairs = shards.iter().zip(residuals).flat_map(|(shard, res)| {
        res.iter()
            .enumerate()
            .map(move |(local, &r)| (shard.local_degree(local), r))
    });
    degrees::residual_bound(max_degree, pairs)
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
///
/// The frontier threshold and the forwarded weight come from a node's own
/// row length, through [`crate::degrees`] and [`edge_weight`].
#[allow(clippy::too_many_arguments)]
fn push_round<E: ShardExchange>(
    sharded: &ShardedGraph,
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
            let mut pushed = 0usize;
            for local in 0..residual.len() {
                let neighbors = shard.local_neighbor_slice(local);
                let ru = residual[local];
                if ru <= rmax * degrees::deg_scale(neighbors.len()) {
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
                // column's nonzeros are exactly u's neighbors, each
                // A[v][u] = 1/deg(u).
                let w = spread * edge_weight(neighbors.len());
                for v in neighbors {
                    let owner = sharded.owner_of(*v);
                    let vl = v.as_u32() - sharded.shard(owner).start();
                    outbox[owner].push((vl, w));
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
fn frontier_nonempty(sharded: &ShardedGraph, rmax: f32, residuals: &[Vec<f32>]) -> bool {
    sharded
        .shards()
        .iter()
        .zip(residuals)
        .any(|(shard, residual)| {
            residual
                .iter()
                .enumerate()
                .any(|(local, &r)| r > rmax * degrees::deg_scale(shard.local_degree(local)))
        })
}

/// Computes one push column on partitioned state, leaving the estimates in
/// `estimates` (per-shard blocks). Pure in its inputs — the determinism
/// contract of the module docs. The initial frontier granularity is the
/// PPR tolerance, halved until the certified bound meets it.
#[allow(clippy::too_many_arguments)]
fn push_column_partitioned<E: ShardExchange>(
    sharded: &ShardedGraph,
    max_degree: usize,
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

    let mut rmax = tolerance.max(f32::MIN_POSITIVE);
    let mut pushes = 0usize;
    let mut conv = Convergence::new();
    loop {
        // Drain at the current granularity: rounds until no frontier.
        loop {
            if pushes >= budget {
                if frontier_nonempty(sharded, rmax, residuals) {
                    return Err(DiffusionError::NotConverged {
                        iterations: pushes,
                        residual: partitioned_bound(max_degree, sharded.shards(), residuals),
                    });
                }
                break;
            }
            let round = push_round(
                sharded, alpha, rmax, threads, residuals, estimates, outboxes, exchange,
            )?;
            if round == 0 {
                break;
            }
            pushes += round;
        }
        // Certify against the remaining residual mass, exactly like the
        // FIFO engine.
        let bound = partitioned_bound(max_degree, sharded.shards(), residuals);
        if conv.record(bound, tolerance) {
            return Ok(());
        }
        // A NaN or infinite bound cannot shrink by refining.
        if !bound.is_finite() {
            return Err(DiffusionError::NotConverged {
                iterations: pushes,
                residual: bound,
            });
        }
        rmax *= 0.5;
        if rmax < f32::MIN_POSITIVE && !frontier_nonempty(sharded, rmax, residuals) {
            return Err(DiffusionError::NotConverged {
                iterations: pushes,
                residual: bound,
            });
        }
    }
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
/// with one sharded push column per distinct source node, certified to
/// `config.ppr().tolerance()` in L∞.
///
/// The sharded sibling of [`crate::push::diffuse_sparse`]: equivalent to
/// the sweep engines at tolerance, bit-for-bit identical for every
/// `(shards, threads)` combination, with residual/estimate state
/// partitioned by shard while each column runs and only cross-shard
/// residual mass moving between rounds.
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] for ragged embeddings or
/// out-of-range sources, [`DiffusionError::InvalidParameter`] for a source
/// row with a non-finite component, [`DiffusionError::NotConverged`] if a
/// column exhausts its push budget (`max_iterations · N` pushes).
pub fn diffuse_sparse(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &ShardedConfig,
) -> Result<Signal, DiffusionError> {
    let sharded = ShardedGraph::from_graph(graph, config.shards)?;
    let mut exchange = InProcessExchange::new(config.threads);
    diffuse_sparse_with_exchange(&sharded, dim, sources, config, &mut exchange)
}

/// [`diffuse_sparse`] over a prebuilt partition with an explicit boundary
/// interconnect: cross-shard residual mass moves through `exchange` at
/// every round barrier, and all columns reuse it, so transport statistics
/// accumulate across the batch. Bit-for-bit identical to the in-process
/// result for any implementation honouring the [`crate::exchange`]
/// contract.
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
    let e0 = SparseRows::from_sources(n, dim, sources)?;
    let mut out = Signal::zeros(n, dim);
    if e0.support().next().is_none() || dim == 0 {
        return Ok(out);
    }
    let max_degree = sharded
        .shards()
        .iter()
        .flat_map(|s| (0..s.num_local_nodes()).map(|l| s.local_degree(l)))
        .max()
        .unwrap_or(0);
    let (mut residuals, mut estimates, mut outboxes) = push_state(sharded);
    for source in e0.support() {
        let emb = e0.row(source as usize);
        push_column_partitioned(
            sharded,
            max_degree,
            source,
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

    /// The single-source PPR column `h_s`: [`diffuse_sparse`] of one unit
    /// row at dim 1, which is the column bit for bit (`0.0 + h·1.0 = h`).
    fn column(g: &Graph, source: u32, cfg: &ShardedConfig) -> Result<Vec<f32>, DiffusionError> {
        let unit = [(NodeId::new(source), Embedding::new(vec![1.0]))];
        Ok(diffuse_sparse(g, 1, &unit, cfg)?.as_slice().to_vec())
    }

    #[test]
    fn sharded_push_is_shard_and_thread_invariant() {
        let g = generators::social_circles_like_scaled(90, &mut seeded(3)).unwrap();
        let base = cfg(0.5, 1e-6);
        let reference = column(&g, 11, &base).unwrap();
        for shards in [2usize, 7, 90] {
            for threads in [1usize, 4] {
                let scfg = base
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                let out = column(&g, 11, &scfg).unwrap();
                assert_eq!(out, reference, "{shards}×{threads} drifted bitwise");
            }
        }
    }

    #[test]
    fn sharded_push_matches_fifo_push_and_sweep_to_tolerance() {
        let g = generators::social_circles_like_scaled(80, &mut seeded(4)).unwrap();
        let tol = 1e-6f32;
        let scfg = cfg(0.3, tol).with_shards(4).unwrap();
        let h = column(&g, 7, &scfg).unwrap();
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
        let h = column(&g, 2, &scfg).unwrap();
        assert!((h[2] - 1.0).abs() < 1e-6);
        assert!(h.iter().enumerate().all(|(u, &v)| u == 2 || v == 0.0));
    }

    #[test]
    fn isolated_node_keeps_teleport_share_only() {
        let g = Graph::from_edges(3, [(0, 1)]).unwrap();
        let scfg = cfg(0.5, 1e-7).with_shards(2).unwrap();
        let h = column(&g, 2, &scfg).unwrap();
        assert!((h[2] - 0.5).abs() < 1e-6);
        assert_eq!(h[0], 0.0);
    }

    #[test]
    fn rejects_invalid_knobs_and_inputs() {
        let ppr = PprConfig::default();
        assert!(ShardedConfig::new(ppr).with_shards(0).is_err());
        assert!(ShardedConfig::new(ppr).with_threads(0).is_err());
        let g = generators::ring(5).unwrap();
        let scfg = ShardedConfig::new(ppr);
        assert!(diffuse_sparse(&g, 2, &[(NodeId::new(9), Embedding::zeros(2))], &scfg).is_err());
        assert!(diffuse_sparse(&g, 2, &[(NodeId::new(0), Embedding::zeros(3))], &scfg).is_err());
        let nan = [(NodeId::new(0), Embedding::new(vec![0.0, f32::NAN]))];
        assert!(matches!(
            diffuse_sparse(&g, 2, &nan, &scfg),
            Err(DiffusionError::InvalidParameter { .. })
        ));
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
            column(&g, 0, &scfg),
            Err(DiffusionError::NotConverged { .. })
        ));
    }

    /// Delivers like the in-process exchange, then writes `poison` into
    /// one residual, once.
    struct Poisoning {
        inner: InProcessExchange,
        at: (usize, usize),
        poison: Option<f32>,
    }

    impl ShardExchange for Poisoning {
        fn exchange_residuals(
            &mut self,
            outboxes: &[Outbox],
            residuals: &mut [Vec<f32>],
        ) -> Result<(), DiffusionError> {
            self.inner.exchange_residuals(outboxes, residuals)?;
            if let Some(x) = self.poison.take() {
                residuals[self.at.0][self.at.1] = x;
            }
            Ok(())
        }
    }

    #[test]
    fn a_nan_residual_ends_the_column_unconverged() {
        // A path 0–…–9 and the pair 10–11 on two shards; node 11's residual
        // turns NaN after the first round. NaN never passes the frontier
        // test, so only the bound can see it, and it must not certify.
        let g = Graph::from_edges(12, (0..9).map(|u| (u, u + 1)).chain([(10, 11)])).unwrap();
        let scfg = cfg(0.5, 1e-6).with_shards(2).unwrap();
        let sharded = ShardedGraph::from_graph(&g, 2).unwrap();
        let mut exchange = Poisoning {
            inner: InProcessExchange::new(1),
            at: (1, 5),
            poison: Some(f32::NAN),
        };
        let unit = [(NodeId::new(0), Embedding::new(vec![1.0]))];
        let got = diffuse_sparse_with_exchange(&sharded, 1, &unit, &scfg, &mut exchange);
        assert!(
            matches!(got, Err(DiffusionError::NotConverged { residual, .. }) if residual.is_nan()),
            "{got:?}"
        );
    }

    #[test]
    fn zero_dim_and_empty_sources_degenerate_cleanly() {
        let g = generators::ring(5).unwrap();
        let scfg = ShardedConfig::new(PprConfig::default())
            .with_shards(2)
            .unwrap();
        let zero_dim = [(NodeId::new(1), Embedding::zeros(0))];
        let out = diffuse_sparse(&g, 0, &zero_dim, &scfg).unwrap();
        assert_eq!((out.num_nodes(), out.dim()), (5, 0));
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
