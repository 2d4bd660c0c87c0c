//! Engine selection for a sparse personalization.
//!
//! Diffusion is linear (Eq. 4: `E = H E0`), and in the paper's experiments
//! only the nodes hosting documents — at most `M` of 4,039 — carry non-zero
//! rows of `E0`. [`auto_diffuse_rows`] takes those rows as `(source,
//! embedding)` pairs and evaluates `H E0` with forward push
//! ([`crate::push`]) when few sources sit on a large graph, and with the
//! dense power sweep ([`crate::power`]) everywhere else, returning what the
//! engine computed: push's rows over their support or the sweep's dense
//! signal. [`auto_diffuse`] is the same value as a dense [`Signal`].
//!
//! Neither branch materializes `E0`. The rows are folded and checked once,
//! into a [`SparseRows`]; push reads its stored rows, and the sweep keeps
//! it beside its one `N × dim` iterate, scatters its first sweep from it,
//! and neither reads nor writes a row no live row has reached yet.

use gdsearch_embed::Embedding;
use gdsearch_graph::{Graph, NodeId};

use crate::{power, push, Diffused, DiffusionError, PprConfig, Signal, SparseRows};

/// The sparse/dense crossover: whether `num_sources` non-zero
/// personalization rows of width `dim` are few enough that one scalar push
/// column per source beats sweeping the dense `N × dim` signal (the "few
/// vs. many sources" axis of [`auto_diffuse`], which documents where the
/// `dim / 4` comes from). Every engine choice that depends on this
/// crossover asks here.
#[must_use]
pub fn is_sparse(num_sources: usize, dim: usize) -> bool {
    num_sources < dim / 4
}

/// Picks the cheapest engine for a sparse personalization: forward push
/// ([`push::diffuse_rows`], a [`Diffused::Sparse`]) when the sources are few
/// ([`is_sparse`]) and the graph is large (`N ≥`
/// [`push::AUTO_PUSH_MIN_NODES`]), the dense sweep
/// ([`power::diffuse_rows`], a [`Diffused::Dense`]) otherwise. The sources
/// are folded and checked once, by [`SparseRows::from_sources`], whichever
/// engine runs. Both run on the `available_parallelism` workers, and both
/// return the bits of their one-worker run.
///
/// * **few vs. many sources** — a push column per source against one
///   sweep of all `dim` columns. The flop-count crossover sits at
///   `|sources| ≈ dim`, but the sweep's contiguous row operations were
///   measured ≈ 4× more efficient per flop, so the break-even is taken as
///   `dim / 4`. That ratio predates the matrix-free register-blocked
///   sweep on every core and push's one-drain columns (at N = 10⁵ and
///   tolerance 1e-5, ≈ 350 pushes and ≈ 46 µs per column on one pinned core);
///   a derivation of the crossover must re-measure it. The repo benchmark
///   has a workload on each side
///   (`rebuild-sparse`, `rebuild-dense`): its `per_source.auto_ms` times
///   this function, `push.diffuse_sparse_ms` and `power.diffuse_ms` (one
///   worker) time both branches on the same input;
/// * **small graphs** — below [`push::AUTO_PUSH_MIN_NODES`] the sweep
///   takes few sources too. On a 4,039-node graph (dim 64, 10 hosts,
///   tolerance 1e-5, two Xeon cores, best of 5) it beat the scalar
///   per-source power iteration it replaced at every α (23.8 / 5.1 /
///   3.4 ms against 35.2 / 8.8 / 6.9 ms at α 0.1 / 0.5 / 0.9), and push
///   there costs accuracy (see the constant's docs).
///
/// No size routes through the [`crate::sharded`] push: in one process it
/// only re-partitions memory the process already holds. On two cores at
/// 2.6×10⁵ and 10⁶ nodes (dim 64, 12 or 1,000 hosts) the monolithic push
/// was ≈ 75× faster than the sharded push.
///
/// # Errors
///
/// As [`SparseRows::from_sources`]: a [`DiffusionError::ShapeMismatch`] for
/// ragged embeddings or out-of-range sources, a
/// [`DiffusionError::InvalidParameter`] for a non-finite source row; and
/// [`DiffusionError::NotConverged`] on budget exhaustion.
pub fn auto_diffuse_rows(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PprConfig,
) -> Result<Diffused, DiffusionError> {
    let n = graph.num_nodes();
    let e0 = SparseRows::from_sources(n, dim, sources)?;
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if is_sparse(sources.len(), dim) && n >= push::AUTO_PUSH_MIN_NODES {
        let threads = threads.min(sources.len().max(1));
        let push_cfg = push::PushConfig::new(*config).with_threads(threads)?;
        Ok(Diffused::Sparse(push::diffuse_rows(graph, &e0, &push_cfg)?))
    } else {
        let swept = power::diffuse_rows(graph, &e0, config, threads)?;
        Ok(Diffused::Dense(swept.into_converged()?))
    }
}

/// [`auto_diffuse_rows`] as a dense `N × dim` signal (push's rows scattered
/// into zeros).
///
/// # Errors
///
/// As [`auto_diffuse_rows`].
pub fn auto_diffuse(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PprConfig,
) -> Result<Signal, DiffusionError> {
    Ok(auto_diffuse_rows(graph, dim, sources, config)?.into_signal())
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

    fn bits(s: &Signal) -> Vec<u32> {
        s.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// The sparse rows of one unit source: its output is the PPR vector.
    fn unit_source(node: u32) -> Vec<(NodeId, Embedding)> {
        vec![(NodeId::new(node), Embedding::new(vec![1.0]))]
    }

    #[derive(Debug)]
    enum Engine {
        Sweep,
        Push,
    }

    /// A routing case: a name, the graph, `dim`, the hosts, α and the
    /// engine `auto_diffuse` must match.
    type Case = (&'static str, Graph, usize, Vec<u32>, f32, Engine);

    /// Gives every host a random row of width `dim` and asserts that
    /// `auto_diffuse` — on every available core — returns the bits of the
    /// case's engine run on one worker, so the machine's parallelism
    /// cannot leak into `SearchNetwork::build`; and that every row of
    /// `auto_diffuse_rows` — push's sparse rows or the sweep's dense
    /// signal, as the engine says — carries the same bits.
    fn assert_routes(cases: Vec<Case>) {
        use Engine::{Push, Sweep};

        let mut rng = seeded(22);
        for (name, g, dim, hosts, alpha, engine) in cases {
            let sources: Vec<(NodeId, Embedding)> = hosts
                .into_iter()
                .map(|u| {
                    let emb = (0..dim).map(|_| rng.random::<f32>() - 0.5).collect();
                    (NodeId::new(u), Embedding::new(emb))
                })
                .collect();
            let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-5).unwrap();
            let auto = bits(&auto_diffuse(&g, dim, &sources, &cfg).unwrap());
            let want = match engine {
                Sweep => {
                    let e0 = Signal::from_sparse_rows(g.num_nodes(), dim, &sources).unwrap();
                    power::diffuse(&g, &e0, &cfg).unwrap().into_converged()
                }
                Push => push::diffuse_sparse(&g, dim, &sources, &push::PushConfig::new(cfg)),
            };
            assert_eq!(auto, bits(&want.unwrap()), "{name}: not the {engine:?}");
            let rows = auto_diffuse_rows(&g, dim, &sources, &cfg).unwrap();
            assert!(
                matches!(
                    (&rows, &engine),
                    (Diffused::Sparse(_), Push) | (Diffused::Dense(_), Sweep)
                ),
                "{name}: the rows are not the {engine:?}'s"
            );
            for u in 0..g.num_nodes() {
                let row_bits: Vec<u32> = rows.row(u).iter().map(|x| x.to_bits()).collect();
                assert_eq!(row_bits, auto[u * dim..][..dim], "{name}: row {u}");
            }
        }
    }

    #[test]
    fn auto_diffuse_is_push_or_the_sweep_bit_for_bit() {
        // Few sources below AUTO_PUSH_MIN_NODES: the sweep.
        // A triangle on 1, 2, 3 beside isolated nodes 0, 4, 5 and 6.
        let islands = Graph::from_edges(7, [(1, 2), (2, 3), (1, 3)]).unwrap();
        assert_routes(vec![
            ("one node", Graph::empty(1), 8, vec![0], 0.5, Engine::Sweep),
            (
                "two nodes",
                generators::path(2),
                8,
                vec![1],
                0.1,
                Engine::Sweep,
            ),
            (
                "host on an isolated node",
                islands,
                16,
                vec![0, 2],
                0.3,
                Engine::Sweep,
            ),
            (
                "a 4,039-node graph",
                generators::social_circles_like_scaled(4039, &mut seeded(2022)).unwrap(),
                64,
                (0..10).map(|i| i * 401).collect(),
                0.9,
                Engine::Sweep,
            ),
        ]);
    }

    #[test]
    fn auto_picks_both_paths_consistently() {
        // One graph at AUTO_PUSH_MIN_NODES, hosts on either side of
        // `is_sparse`: dim / 4 − 1 hosts push, dim / 4 hosts sweep.
        let g = generators::social_circles_like_scaled(4096, &mut seeded(5)).unwrap();
        let hosts = |count: u32| (0..count).map(|i| i * 251).collect::<Vec<_>>();
        assert_eq!(g.num_nodes(), push::AUTO_PUSH_MIN_NODES);
        assert!(is_sparse(15, 64) && !is_sparse(16, 64));
        assert_routes(vec![
            (
                "15 hosts, dim 64",
                g.clone(),
                64,
                hosts(15),
                0.5,
                Engine::Push,
            ),
            ("16 hosts, dim 64", g, 64, hosts(16), 0.5, Engine::Sweep),
        ]);
    }

    #[test]
    fn auto_dense_branch_is_the_one_thread_sweep_bit_for_bit() {
        // Many sources at any size: the sweep on every core.
        let block = gdsearch_graph::sparse::GATHER_BLOCK;
        assert_routes(vec![
            (
                "300 nodes, dim / 4 hosts",
                generators::social_circles_like_scaled(300, &mut seeded(21)).unwrap(),
                block + 3,
                (0..(block + 3) as u32 / 4).map(|i| i * 7).collect(),
                0.3,
                Engine::Sweep,
            ),
            (
                "70×70 grid, dim / 4 hosts",
                generators::grid(70, 70),
                4,
                vec![17],
                0.5,
                Engine::Sweep,
            ),
            (
                "no sources on a ring",
                generators::ring(5).unwrap(),
                8,
                vec![],
                0.5,
                Engine::Sweep,
            ),
            // `is_sparse` never holds at width 0.
            (
                "dim 0 on the 70×70 grid",
                generators::grid(70, 70),
                0,
                vec![17],
                0.5,
                Engine::Sweep,
            ),
        ]);
    }

    #[test]
    fn auto_picks_push_on_large_sparse_graphs() {
        // 70×70 grid: 4,900 nodes ≥ AUTO_PUSH_MIN_NODES, and one host is
        // fewer than dim / 4 = 2: push on every core — and so are none.
        let grid = generators::grid(70, 70);
        assert_routes(vec![
            ("70×70 grid", grid.clone(), 8, vec![17], 0.5, Engine::Push),
            ("no sources on the grid", grid, 8, vec![], 0.5, Engine::Push),
        ]);
    }

    #[test]
    fn ppr_vector_sums_to_one() {
        let g = generators::social_circles_like_scaled(60, &mut seeded(1)).unwrap();
        let cfg = PprConfig::new(0.3).unwrap().with_tolerance(1e-8).unwrap();
        let h = auto_diffuse(&g, 1, &unit_source(4), &cfg).unwrap();
        let total: f32 = h.as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "column mass {total}");
        assert!(h.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn ppr_vector_peaks_at_source() {
        let g = generators::grid(5, 5);
        let cfg = PprConfig::new(0.5).unwrap();
        let h = auto_diffuse(&g, 1, &unit_source(12), &cfg).unwrap();
        let max_idx = h
            .as_slice()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 12);
    }

    // The error and degenerate cases below run once per branch: a 5-node
    // ring takes the sweep, the 70×70 grid with dim ≥ 8 takes push.

    #[test]
    fn rejects_out_of_range_source() {
        let cfg = PprConfig::default();
        let ring = generators::ring(5).unwrap();
        let far = [(NodeId::new(9), Embedding::zeros(2))];
        assert!(auto_diffuse(&ring, 2, &far, &cfg).is_err());
        let grid = generators::grid(70, 70);
        let far = [(NodeId::new(4900), Embedding::zeros(8))];
        assert!(auto_diffuse(&grid, 8, &far, &cfg).is_err());
    }

    #[test]
    fn rejects_ragged_embedding() {
        let cfg = PprConfig::default();
        let ring = generators::ring(5).unwrap();
        let ragged = [(NodeId::new(0), Embedding::zeros(3))];
        assert!(auto_diffuse(&ring, 2, &ragged, &cfg).is_err());
        let grid = generators::grid(70, 70);
        assert!(auto_diffuse(&grid, 8, &ragged, &cfg).is_err());
    }

    #[test]
    fn empty_sources_give_zero_signal() {
        let cfg = PprConfig::default();
        for g in [generators::ring(5).unwrap(), generators::grid(70, 70)] {
            let out = auto_diffuse(&g, 8, &[], &cfg).unwrap();
            assert_eq!(out.num_nodes(), g.num_nodes());
            assert!(out.as_slice().iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn budget_exhaustion_errors() {
        let cfg = PprConfig::new(0.01)
            .unwrap()
            .with_tolerance(1e-12)
            .unwrap()
            .with_max_iterations(2);
        let one = [(NodeId::new(0), Embedding::new(vec![1.0; 8]))];
        for g in [generators::ring(30).unwrap(), generators::grid(70, 70)] {
            assert!(matches!(
                auto_diffuse(&g, 8, &one, &cfg),
                Err(DiffusionError::NotConverged { .. })
            ));
        }
    }
}
