//! Per-source decomposition of PPR diffusion.
//!
//! Diffusion is linear (Eq. 4: `E = H E0`), so when only a few nodes carry
//! non-zero personalization — the common case in the paper's experiments,
//! where `M` documents land on at most `M` hosts out of 4,039 nodes — it is
//! cheaper to compute one *scalar* PPR column per source,
//!
//! ```text
//! h_s = a (I − (1−a) A)^{-1} δ_s            (one vector per source s)
//! E   = Σ_s h_s ⊗ e0_s                      (rank-1 accumulation)
//! ```
//!
//! than to power-iterate the dense `N × dim` signal. The flop-count
//! crossover is at `|sources| ≈ dim`, the measured wall-clock crossover
//! near `dim / 4` (dense rows are more cache-friendly); [`auto_diffuse`]
//! picks the cheaper engine.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::{transition_matrix, CsrMatrix};
use gdsearch_graph::{Graph, NodeId};

use crate::convergence::Convergence;
use crate::{power, push, workpool, DiffusionError, PprConfig, Signal};

/// Computes the single-source PPR vector `h_s`: entry `u` is the weight
/// with which source `s`'s personalization reaches node `u`.
///
/// # Errors
///
/// Returns [`DiffusionError::Graph`] if `source` is out of range and
/// [`DiffusionError::NotConverged`] if the iteration budget is exhausted.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::{per_source, PprConfig};
/// use gdsearch_graph::{generators, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::path(5);
/// let h = per_source::ppr_vector(&g, NodeId::new(0), &PprConfig::new(0.5)?)?;
/// // Weight decays with distance from the source.
/// assert!(h[0] > h[1] && h[1] > h[2]);
/// # Ok(())
/// # }
/// ```
pub fn ppr_vector(
    graph: &Graph,
    source: NodeId,
    config: &PprConfig,
) -> Result<Vec<f32>, DiffusionError> {
    graph.check_node(source)?;
    let matrix = transition_matrix(graph, config.normalization());
    ppr_vector_with_matrix(&matrix, source, config)
}

/// [`ppr_vector`] with a prebuilt transition matrix.
///
/// # Errors
///
/// Returns [`DiffusionError::InvalidParameter`] if `source` is out of range
/// and [`DiffusionError::NotConverged`] on budget exhaustion.
pub fn ppr_vector_with_matrix(
    matrix: &CsrMatrix,
    source: NodeId,
    config: &PprConfig,
) -> Result<Vec<f32>, DiffusionError> {
    let n = matrix.n_rows();
    if source.index() >= n {
        return Err(DiffusionError::invalid_parameter(format!(
            "source {source} out of range for {n} nodes"
        )));
    }
    let alpha = config.alpha();
    let mut current = vec![0.0f32; n];
    current[source.index()] = 1.0;
    let mut next = vec![0.0f32; n];
    let mut conv = Convergence::new();
    while conv.iters < config.max_iterations() {
        matrix.mul_vec_into(&current, &mut next);
        let mut max_delta = 0.0f32;
        for (i, nx) in next.iter_mut().enumerate() {
            *nx *= 1.0 - alpha;
            if i == source.index() {
                *nx += alpha;
            }
            let delta = (*nx - current[i]).abs();
            if delta > max_delta {
                max_delta = delta;
            }
        }
        std::mem::swap(&mut current, &mut next);
        if conv.record(max_delta, config.tolerance()) {
            return Ok(current);
        }
    }
    Err(conv.error())
}

/// Diffuses a sparse personalization — `(source node, embedding)` pairs —
/// by per-source decomposition, with the per-source columns computed over
/// [`crate::workpool`] on all available cores.
///
/// Equivalent (to tolerance) to dense power iteration on the corresponding
/// sparse [`Signal`], but costs `O(|sources| · iters · E)` scalar work
/// instead of `O(iters · E · dim)`. The output is identical for every
/// worker count (see [`diffuse_sparse_threaded`]), so defaulting to the
/// machine's parallelism is safe.
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] for ragged embeddings or
/// out-of-range sources, [`DiffusionError::NotConverged`] on budget
/// exhaustion.
pub fn diffuse_sparse(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PprConfig,
) -> Result<Signal, DiffusionError> {
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(sources.len().max(1));
    diffuse_sparse_threaded(graph, dim, sources, config, threads)
}

/// [`diffuse_sparse`] with an explicit worker count.
///
/// Each column `h_s` is a pure function of `(matrix, s, config)`, columns
/// are computed in waves of `threads` over the order-preserving
/// [`crate::workpool::map_batched`], and the rank-1 accumulation happens on
/// the calling thread in source order — so the output is **bit-for-bit
/// identical for every thread count** (and identical to the historical
/// sequential loop). Waves bound peak memory at `threads` dense columns.
///
/// # Errors
///
/// As [`diffuse_sparse`].
pub fn diffuse_sparse_threaded(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PprConfig,
    threads: usize,
) -> Result<Signal, DiffusionError> {
    let n = graph.num_nodes();
    for (node, emb) in sources {
        if emb.dim() != dim || node.index() >= n {
            return Err(DiffusionError::ShapeMismatch {
                expected: (n, dim),
                got: (node.index(), emb.dim()),
            });
        }
    }
    let threads = threads.max(1);
    let matrix = transition_matrix(graph, config.normalization());
    let mut out = Signal::zeros(n, dim);
    for wave in sources.chunks(threads) {
        let columns = workpool::map_batched(wave, threads, |(node, _)| {
            ppr_vector_with_matrix(&matrix, *node, config)
        });
        for ((_, emb), h) in wave.iter().zip(columns) {
            let h = h?;
            for (u, weight) in h.iter().enumerate() {
                if *weight == 0.0 {
                    continue;
                }
                let row = out.row_mut(u);
                for (r, e) in row.iter_mut().zip(emb.as_slice()) {
                    *r += weight * e;
                }
            }
        }
    }
    Ok(out)
}

/// The sparse/dense crossover: whether `num_sources` non-zero
/// personalization rows of width `dim` are few enough that one scalar PPR
/// column per source beats sweeping the dense `N × dim` signal (the "few
/// vs. many sources" axis of [`auto_diffuse`], which documents where the
/// `dim / 4` comes from). Every engine choice that depends on this
/// crossover asks here.
#[must_use]
pub fn is_sparse(num_sources: usize, dim: usize) -> bool {
    num_sources < dim / 4
}

/// Picks the cheapest engine for a sparse personalization.
///
/// The crossover model has two axes:
///
/// * **few vs. many sources** — the flop-count crossover between
///   per-source decomposition and dense power iteration sits at
///   `|sources| ≈ dim`, but the dense engine's contiguous row operations
///   were measured ≈ 4× more efficient per flop than per-source sparse
///   passes, so the break-even is taken as `dim / 4`. That ratio predates
///   two rounds of dense-side work: the O(E) operator build and the
///   liveness-masked sweep (≈ 1.8× on `rebuild-dense`), then the
///   matrix-free register-blocked sweep on every core (a further ≈ 2.3×
///   on two cores); a derivation of the crossover must re-measure it. The
///   dense branch runs [`power::diffuse_threaded`] on the same
///   `available_parallelism` workers as push, and its output is
///   bit-for-bit that of one worker. The repo benchmark has a
///   workload on each side (`rebuild-sparse`, `rebuild-dense`): its
///   `per_source.auto_ms` times this function, `push.diffuse_sparse_ms`
///   and `power.diffuse_ms` (one worker) time both branches on the same
///   input;
/// * **sweep vs. push** — within the few-source regime, scalar power
///   iteration still pays `O(iters · E)` per source while forward push
///   ([`crate::push`]) pays only for the pushed mass. Push's queue
///   bookkeeping has a constant overhead, so it is selected when the graph
///   is large (`N ≥` [`push::AUTO_PUSH_MIN_NODES`]) *and* the
///   personalization is genuinely sparse (`|sources| · 16 ≤ N`); the
///   batched driver then uses all available cores (the result is
///   identical for every thread count).
///
/// No size routes through the [`crate::sharded`] engines: in one process
/// they only re-partition memory the process already holds. On two cores
/// at 2.6×10⁵ and 10⁶ nodes (dim 64, 12 or 1,000 hosts) the monolithic
/// push was ≈ 75× faster than the sharded push, and the monolithic sweep
/// ≈ 2.2–2.7× faster than the sharded sweep at ≈ 40 % of its peak memory.
///
/// # Errors
///
/// As [`diffuse_sparse`] / [`push::diffuse_sparse`] /
/// [`power::diffuse_threaded`].
pub fn auto_diffuse(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PprConfig,
) -> Result<Signal, DiffusionError> {
    let n = graph.num_nodes();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if is_sparse(sources.len(), dim) {
        if n >= push::AUTO_PUSH_MIN_NODES && sources.len().saturating_mul(16) <= n {
            let threads = threads.min(sources.len().max(1));
            let push_cfg = push::PushConfig::new(*config).with_threads(threads)?;
            return push::diffuse_sparse(graph, dim, sources, &push_cfg);
        }
        diffuse_sparse(graph, dim, sources, config)
    } else {
        let e0 = Signal::from_sparse_rows(n, dim, sources)?;
        power::diffuse_threaded(graph, &e0, config, threads)?.into_converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::generators;
    use rand::Rng;
    use rand::SeedableRng;

    fn seeded(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn ppr_vector_sums_to_one() {
        let g = generators::social_circles_like_scaled(60, &mut seeded(1)).unwrap();
        let cfg = PprConfig::new(0.3).unwrap().with_tolerance(1e-8).unwrap();
        let h = ppr_vector(&g, NodeId::new(4), &cfg).unwrap();
        let total: f32 = h.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "column mass {total}");
        assert!(h.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn ppr_vector_peaks_at_source() {
        let g = generators::grid(5, 5);
        let cfg = PprConfig::new(0.5).unwrap();
        let h = ppr_vector(&g, NodeId::new(12), &cfg).unwrap();
        let max_idx = h
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 12);
    }

    #[test]
    fn sparse_matches_dense_power() {
        let g = generators::social_circles_like_scaled(70, &mut seeded(2)).unwrap();
        let cfg = PprConfig::new(0.4).unwrap().with_tolerance(1e-8).unwrap();
        let dim = 5;
        let mut rng = seeded(3);
        let sources: Vec<(NodeId, Embedding)> = (0..4)
            .map(|i| {
                (
                    NodeId::new(i * 13),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>()).collect()),
                )
            })
            .collect();
        let sparse = diffuse_sparse(&g, dim, &sources, &cfg).unwrap();
        let e0 = Signal::from_sparse_rows(70, dim, &sources).unwrap();
        let dense = power::diffuse(&g, &e0, &cfg).unwrap().signal;
        assert!(
            sparse.max_abs_diff(&dense).unwrap() < 1e-4,
            "engines disagree"
        );
    }

    #[test]
    fn auto_picks_both_paths_consistently() {
        let g = generators::grid(6, 6);
        let cfg = PprConfig::new(0.5).unwrap().with_tolerance(1e-8).unwrap();
        let dim = 3;
        let few: Vec<(NodeId, Embedding)> =
            vec![(NodeId::new(0), Embedding::new(vec![1.0, 0.0, 0.0]))];
        let many: Vec<(NodeId, Embedding)> = (0..10)
            .map(|i| (NodeId::new(i), Embedding::new(vec![0.1, 0.2, 0.3])))
            .collect();
        // few < dim -> per-source; many >= dim -> dense. Both must agree
        // with explicit engines.
        let a = auto_diffuse(&g, dim, &few, &cfg).unwrap();
        let b = diffuse_sparse(&g, dim, &few, &cfg).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() < 1e-6);
        let a = auto_diffuse(&g, dim, &many, &cfg).unwrap();
        let e0 = Signal::from_sparse_rows(36, dim, &many).unwrap();
        let b = power::diffuse(&g, &e0, &cfg).unwrap().signal;
        assert!(a.max_abs_diff(&b).unwrap() < 1e-6);
    }

    #[test]
    fn auto_dense_branch_is_the_one_thread_sweep_bit_for_bit() {
        // At least dim / 4 hosts: Auto sweeps on every available core, and
        // must still return the bits of the 1-thread sweep at any graph
        // size, so the machine's parallelism cannot leak into
        // `SearchNetwork::build`.
        let g = generators::social_circles_like_scaled(300, &mut seeded(21)).unwrap();
        let cfg = PprConfig::new(0.3).unwrap().with_tolerance(1e-6).unwrap();
        let dim = gdsearch_graph::sparse::GATHER_BLOCK + 3;
        let mut rng = seeded(22);
        let sources: Vec<(NodeId, Embedding)> = (0..dim / 4)
            .map(|_| {
                (
                    NodeId::new(rng.random_range(0..300)),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>() - 0.5).collect()),
                )
            })
            .collect();
        assert!(!is_sparse(sources.len(), dim));
        let auto = auto_diffuse(&g, dim, &sources, &cfg).unwrap();
        let e0 = Signal::from_sparse_rows(300, dim, &sources).unwrap();
        let swept = power::diffuse(&g, &e0, &cfg)
            .unwrap()
            .into_converged()
            .unwrap();
        let bits = |s: &Signal| s.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&auto), bits(&swept));
    }

    #[test]
    fn auto_picks_push_on_large_sparse_graphs() {
        // 70×70 grid: 4,900 nodes ≥ AUTO_PUSH_MIN_NODES, one source with
        // dim 8 → |sources| < dim/4 and |sources|·16 ≤ N, so Auto routes
        // through the push engine on every available core, and must return
        // the bits of the 1-thread push at any graph size.
        let g = generators::grid(70, 70);
        let cfg = PprConfig::new(0.5).unwrap().with_tolerance(1e-6).unwrap();
        let dim = 8;
        let sources = vec![(
            NodeId::new(17),
            Embedding::new((0..dim).map(|k| 1.0 + k as f32).collect()),
        )];
        let auto = auto_diffuse(&g, dim, &sources, &cfg).unwrap();
        let pushed = push::diffuse_sparse(&g, dim, &sources, &push::PushConfig::new(cfg)).unwrap();
        let bits = |s: &Signal| s.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&auto), bits(&pushed));
    }

    #[test]
    fn threaded_columns_are_bitwise_identical() {
        let g = generators::social_circles_like_scaled(80, &mut seeded(11)).unwrap();
        let cfg = PprConfig::new(0.4).unwrap().with_tolerance(1e-7).unwrap();
        let dim = 3;
        let mut rng = seeded(12);
        let sources: Vec<(NodeId, Embedding)> = (0..6)
            .map(|_| {
                (
                    NodeId::new(rng.random_range(0..80)),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>()).collect()),
                )
            })
            .collect();
        let reference = diffuse_sparse_threaded(&g, dim, &sources, &cfg, 1).unwrap();
        for threads in [2usize, 3, 8] {
            let out = diffuse_sparse_threaded(&g, dim, &sources, &cfg, threads).unwrap();
            assert_eq!(out, reference, "{threads} workers drifted bitwise");
        }
        // The parallel default is the same function.
        assert_eq!(diffuse_sparse(&g, dim, &sources, &cfg).unwrap(), reference);
    }

    #[test]
    fn rejects_out_of_range_source() {
        let g = generators::ring(5).unwrap();
        let cfg = PprConfig::default();
        assert!(ppr_vector(&g, NodeId::new(9), &cfg).is_err());
        assert!(diffuse_sparse(&g, 2, &[(NodeId::new(9), Embedding::zeros(2))], &cfg).is_err());
    }

    #[test]
    fn rejects_ragged_embedding() {
        let g = generators::ring(5).unwrap();
        assert!(diffuse_sparse(
            &g,
            2,
            &[(NodeId::new(0), Embedding::zeros(3))],
            &PprConfig::default()
        )
        .is_err());
    }

    #[test]
    fn empty_sources_give_zero_signal() {
        let g = generators::ring(5).unwrap();
        let out = diffuse_sparse(&g, 4, &[], &PprConfig::default()).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn budget_exhaustion_errors() {
        let g = generators::ring(30).unwrap();
        let cfg = PprConfig::new(0.01)
            .unwrap()
            .with_tolerance(1e-12)
            .unwrap()
            .with_max_iterations(2);
        assert!(matches!(
            ppr_vector(&g, NodeId::new(0), &cfg),
            Err(DiffusionError::NotConverged { .. })
        ));
    }
}
