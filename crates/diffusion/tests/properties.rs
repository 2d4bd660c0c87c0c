//! Property-based tests for the diffusion substrate: PPR's mathematical
//! identities must hold on arbitrary graphs and inputs.

use gdsearch_diffusion::push::{self, PushConfig};
use gdsearch_diffusion::{exact, power, DiffusionError, PprConfig, Signal, SparseRows};
use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::GATHER_BLOCK;
use gdsearch_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference;
use reference::reference_sweep;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2u32..30, 0u32..40, 0u64..1000).prop_map(|(n, extra, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_connected(n, extra, &mut rng).unwrap()
    })
}

/// Ring, Erdős–Rényi and Barabási–Albert families — the graph classes the
/// push-engine acceptance criteria name. ER may be disconnected and BA is
/// hub-heavy, which stresses the degree-scaled frontier and the residual
/// bounds from different directions.
fn arb_push_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 4u32..36, 0u64..1000).prop_map(|(family, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => generators::ring(n).unwrap(),
            1 => generators::erdos_renyi(n, 0.15, &mut rng).unwrap(),
            _ => generators::barabasi_albert(n, 2, &mut rng).unwrap(),
        }
    })
}

/// Signal widths on both sides of the sweep kernel's block boundaries.
const DIMS: [usize; 7] = [
    1,
    3,
    GATHER_BLOCK - 1,
    GATHER_BLOCK,
    GATHER_BLOCK + 1,
    2 * GATHER_BLOCK + 3,
    64,
];

fn one_hot(n: usize, u: usize) -> Signal {
    let mut s = Signal::zeros(n, 1);
    s.row_mut(u % n.max(1))[0] = 1.0;
    s
}

/// The sharded push's single-source column: `sharded::diffuse_sparse` of
/// one unit row at dim 1, which is the column bit for bit (`0.0 + h·1.0 = h`).
fn sharded_column(
    g: &Graph,
    source: NodeId,
    cfg: &gdsearch_diffusion::sharded::ShardedConfig,
) -> Vec<f32> {
    let unit = [(source, Embedding::new(vec![1.0]))];
    let column = gdsearch_diffusion::sharded::diffuse_sparse(g, 1, &unit, cfg).unwrap();
    column.as_slice().to_vec()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// E0's non-zero rows as `(source, embedding)` pairs, ascending: the rows
/// that `SparseRows::from_sources` folds back into `e0`'s stored rows, bit
/// for bit, when no row holds a `−0.0`.
fn source_rows(e0: &Signal) -> Vec<(NodeId, Embedding)> {
    (0..e0.num_nodes())
        .filter(|&u| e0.row(u).iter().any(|x| x.to_bits() != 0))
        .map(|u| (NodeId::new(u as u32), e0.row_embedding(u)))
        .collect()
}

/// A sweep's outcome with its floats as bits.
type Outcome = (Vec<u32>, usize, u32, bool);

fn outcome(out: &power::DiffusionResult) -> Outcome {
    let (signal, residual) = (out.signal.as_slice(), out.residual.to_bits());
    (bits(signal), out.iterations, residual, out.converged)
}

fn reference_outcome(reference: &(Vec<f32>, usize, f32, bool)) -> Outcome {
    let (signal, iterations, residual, converged) = reference;
    (bits(signal), *iterations, residual.to_bits(), *converged)
}

/// Asserts that the masked sweep from a dense E0 — the pinned
/// `power::diffuse`, and `diffuse_rows` over `SparseRows::from_signal` on
/// every thread count — equals the reference sweep bit for bit, and
/// returns the reference.
fn assert_dense_sweep_is_reference(
    g: &Graph,
    e0: &Signal,
    cfg: &PprConfig,
) -> (Vec<f32>, usize, f32, bool) {
    let reference = reference_sweep(g, e0, cfg);
    let want = reference_outcome(&reference);
    let dense = power::diffuse(g, e0, cfg).unwrap();
    assert_eq!(outcome(&dense), want, "diffuse");
    let rows = SparseRows::from_signal(e0);
    for threads in [1usize, 2, 3, 16] {
        let out = power::diffuse_rows(g, &rows, cfg, threads).unwrap();
        assert_eq!(outcome(&out), want, "{threads} threads");
    }
    reference
}

/// [`assert_dense_sweep_is_reference`], and the same from `sources`, E0's
/// rows, as `SparseRows::from_sources` folds them, on every thread count.
fn assert_sweep_is_reference_on_rows(
    g: &Graph,
    e0: &Signal,
    sources: &[(NodeId, Embedding)],
    cfg: &PprConfig,
) -> (Vec<f32>, usize, f32, bool) {
    let reference = assert_dense_sweep_is_reference(g, e0, cfg);
    let (rows, want) = (
        SparseRows::from_sources(g.num_nodes(), e0.dim(), sources).unwrap(),
        reference_outcome(&reference),
    );
    for threads in [1usize, 2, 3, 16] {
        let out = power::diffuse_rows(g, &rows, cfg, threads).unwrap();
        assert_eq!(outcome(&out), want, "rows, {threads} threads");
    }
    reference
}

/// [`assert_sweep_is_reference_on_rows`] with E0's non-zero rows as the
/// sources.
fn assert_sweep_is_reference(
    g: &Graph,
    e0: &Signal,
    cfg: &PprConfig,
) -> (Vec<f32>, usize, f32, bool) {
    assert_sweep_is_reference_on_rows(g, e0, &source_rows(e0), cfg)
}

/// Rows the liveness mask must treat as live by bit pattern, an E0 with no
/// live row at all, and components no live row ever reaches; and, for the
/// rows entry, sources that repeat a node, hold only `−0.0` or only `+0.0`,
/// or sit on an isolated node. A non-finite row reaches the sweep only in
/// a dense E0: as a source row it is rejected at the door.
#[test]
fn masked_sweep_equals_reference_on_hostile_rows() {
    // Path 0-1-2-3, host-free triangle 4-5-6, isolated node 7.
    let g = Graph::from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)]).unwrap();
    let cfg = PprConfig::new(0.3).unwrap().with_tolerance(1e-6).unwrap();
    let hostile: [[f32; 2]; 5] = [
        [-0.0, -0.0],
        [f32::NAN, 1.0],
        [f32::INFINITY, 0.5],
        [f32::NEG_INFINITY, f32::INFINITY],
        [f32::MIN_POSITIVE / 4.0, 0.0],
    ];
    for row in hostile {
        let mut e0 = Signal::zeros(8, 2);
        e0.row_mut(1).copy_from_slice(&row);
        e0.row_mut(3).copy_from_slice(&[0.25, -2.0]);
        if row.iter().any(|x| !x.is_finite()) {
            // A NaN or an infinity makes the first residual NaN, which
            // ends the sweep there, unconverged.
            let (signal, iterations, residual, converged) =
                assert_dense_sweep_is_reference(&g, &e0, &cfg);
            assert!(residual.is_nan());
            assert_eq!((iterations, converged), (1, false));
            assert!(bits(&signal[4 * 2..]).iter().all(|&b| b == 0));
            assert!(matches!(
                SparseRows::from_sources(8, 2, &source_rows(&e0)),
                Err(DiffusionError::InvalidParameter { .. })
            ));
            continue;
        }
        // The rows entry folds the −0.0 row into +0.0, which blends to the
        // same bits: `a · (−0.0)` is added to a sum that is never −0.0.
        let (signal, ..) = assert_sweep_is_reference(&g, &e0, &cfg);
        // No sweep ever reaches the triangle or the isolated node: their
        // rows stay dead, so the mask is on to the last sweep.
        assert!(bits(&signal[4 * 2..]).iter().all(|&b| b == 0));
    }
    let (_, iterations, _, converged) = assert_sweep_is_reference(&g, &Signal::zeros(8, 2), &cfg);
    assert_eq!((iterations, converged), (1, true));

    let row = |u: u32, x: [f32; 2]| (NodeId::new(u), Embedding::new(x.to_vec()));
    // A repeated source accumulates, in source order.
    let repeated = [row(1, [0.5, -1.0]), row(3, [2.0, 0.0]), row(1, [0.25, 3.0])];
    let mut e0 = Signal::zeros(8, 2);
    e0.row_mut(1).copy_from_slice(&[0.5 + 0.25, -1.0 + 3.0]);
    e0.row_mut(3).copy_from_slice(&[2.0, 0.0]);
    assert_sweep_is_reference_on_rows(&g, &e0, &repeated, &cfg);
    // −0.0-only and all-zero sources hold only +0.0 (stored rows, so live
    // in the mask): the sweep stops at once.
    for dead in [[-0.0, -0.0], [0.0, 0.0]] {
        let sources = [row(2, dead), row(5, dead)];
        let zeros = Signal::zeros(8, 2);
        let (signal, iterations, ..) =
            assert_sweep_is_reference_on_rows(&g, &zeros, &sources, &cfg);
        assert!(bits(&signal).iter().all(|&b| b == 0));
        assert_eq!(iterations, 1);
    }
    // A host on the isolated node, beside one on the path.
    let mut e0 = Signal::zeros(8, 2);
    e0.row_mut(7).copy_from_slice(&[1.0, -4.0]);
    e0.row_mut(0).copy_from_slice(&[0.5, 0.5]);
    assert_sweep_is_reference(&g, &e0, &cfg);
    // No nodes, one node, and width 0.
    for (g, dim) in [
        (Graph::empty(0), 2),
        (Graph::empty(1), 2),
        (Graph::empty(1), 0),
        (g.clone(), 0),
    ] {
        let n = g.num_nodes();
        let mut e0 = Signal::zeros(n, dim);
        if n > 0 {
            e0.row_mut(n - 1).fill(1.5);
        }
        let sources: Vec<_> = (0..n)
            .map(|u| (NodeId::new(u as u32), e0.row_embedding(u)))
            .collect();
        assert_sweep_is_reference_on_rows(&g, &e0, &sources, &cfg);
    }
}

/// Hostile graphs: no nodes, one node, isolated nodes beside a component,
/// and a degree-(N−1) hub, each at zero width and across the row kernel's
/// block boundaries, with dense and one-row E0s.
#[test]
fn sweep_equals_reference_on_hostile_graphs() {
    let graphs = [
        Graph::empty(0),
        Graph::empty(1),
        Graph::from_edges(7, [(1, 2), (2, 3), (1, 3)]).unwrap(),
        generators::star(9),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    for g in &graphs {
        let n = g.num_nodes();
        for dim in [0].into_iter().chain(DIMS) {
            let cfg = PprConfig::new(0.3).unwrap().with_tolerance(1e-6).unwrap();
            let mut dense = Signal::zeros(n, dim);
            for x in dense.as_mut_slice() {
                *x = rng.random::<f32>() - 0.5;
            }
            assert_sweep_is_reference(g, &dense, &cfg);
            if n > 0 {
                // One live row on the last node: isolated, or a leaf of
                // the hub.
                let mut one = Signal::zeros(n, dim);
                one.row_mut(n - 1).copy_from_slice(dense.row(0));
                assert_sweep_is_reference(g, &one, &cfg);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With one to three live rows in E0 — the regime the liveness mask is
    /// for, on graphs that may hold components no row ever reaches — the
    /// sweep equals the reference sweep bit for bit, at widths on both
    /// sides of the row kernel's block boundaries.
    #[test]
    fn masked_sweep_equals_reference_sweep(
        g in arb_push_graph(),
        alpha in 0.1f32..1.0,
        dim in 0usize..DIMS.len(),
        hosts in 1usize..4,
        signal_seed in 0u64..1000,
    ) {
        let (n, dim) = (g.num_nodes(), DIMS[dim]);
        let mut rng = StdRng::seed_from_u64(signal_seed);
        let mut e0 = Signal::zeros(n, dim);
        for _ in 0..hosts {
            let u = rng.random_range(0..n);
            for x in e0.row_mut(u) {
                *x = rng.random::<f32>() - 0.5;
            }
        }
        let cfg = PprConfig::new(alpha)
            .unwrap()
            .with_tolerance(1e-6)
            .unwrap();
        assert_sweep_is_reference(&g, &e0, &cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The workpool-sharded dense sweeps are bit-for-bit identical to the
    /// sequential engine for every thread count, on arbitrary graphs and
    /// dense signals at widths on both sides of the row kernel's block
    /// boundaries.
    #[test]
    fn power_threaded_is_bitwise_deterministic(
        g in arb_graph(),
        alpha in 0.1f32..1.0,
        dim in 0usize..DIMS.len(),
        signal_seed in 0u64..1000,
    ) {
        let (n, dim) = (g.num_nodes(), DIMS[dim]);
        let mut rng = StdRng::seed_from_u64(signal_seed);
        let mut e0 = Signal::zeros(n, dim);
        for x in e0.as_mut_slice() {
            *x = rng.random::<f32>();
        }
        let cfg = PprConfig::new(alpha)
            .unwrap()
            .with_tolerance(1e-6)
            .unwrap();
        let reference = power::diffuse(&g, &e0, &cfg).unwrap();
        let rows = SparseRows::from_signal(&e0);
        for threads in [2usize, 4, 7] {
            let out = power::diffuse_rows(&g, &rows, &cfg, threads).unwrap();
            prop_assert_eq!(bits(out.signal.as_slice()), bits(reference.signal.as_slice()));
            prop_assert_eq!(out.iterations, reference.iterations);
            prop_assert_eq!(out.residual.to_bits(), reference.residual.to_bits());
        }
    }

    /// Power iteration matches the exact dense solve.
    #[test]
    fn power_matches_exact(g in arb_graph(), alpha in 0.1f32..1.0, src in 0usize..30) {
        let n = g.num_nodes();
        let e0 = one_hot(n, src);
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let truth = exact::diffuse(&g, &e0, &cfg).unwrap();
        let approx = power::diffuse(&g, &e0, &cfg).unwrap();
        prop_assert!(approx.converged);
        prop_assert!(truth.max_abs_diff(&approx.signal).unwrap() < 1e-4);
    }

    /// The diffused signal is entrywise non-negative for non-negative input
    /// and bounded by the input's max (the filter is an average of
    /// substochastic propagations).
    #[test]
    fn ppr_preserves_nonnegativity(g in arb_graph(), alpha in 0.1f32..1.0) {
        let n = g.num_nodes();
        let e0 = one_hot(n, 0);
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let out = power::diffuse(&g, &e0, &cfg).unwrap().signal;
        for u in 0..n {
            prop_assert!(out.row(u)[0] >= -1e-6);
            prop_assert!(out.row(u)[0] <= 1.0 + 1e-4);
        }
    }

    /// Column-stochastic PPR conserves total mass.
    #[test]
    fn mass_conservation(g in arb_graph(), alpha in 0.1f32..1.0) {
        let n = g.num_nodes();
        let e0 = one_hot(n, 1);
        let cfg = PprConfig::new(alpha)
            .unwrap()
            .with_tolerance(1e-6)
            .unwrap();
        let out = power::diffuse(&g, &e0, &cfg).unwrap().signal;
        let mass = out.column_mass()[0];
        prop_assert!((mass - 1.0).abs() < 1e-3, "mass {mass}");
    }

    /// Diffusion commutes with linear combination of inputs.
    #[test]
    fn linearity(g in arb_graph(), alpha in 0.1f32..1.0, s in -3.0f32..3.0) {
        let n = g.num_nodes();
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let x = one_hot(n, 0);
        let y = one_hot(n, n.saturating_sub(1));
        let hx = power::diffuse(&g, &x, &cfg).unwrap().signal;
        let hy = power::diffuse(&g, &y, &cfg).unwrap().signal;
        // z = x + s*y
        let mut z = Signal::zeros(n, 1);
        z.row_mut(0)[0] += 1.0;
        z.row_mut(n - 1)[0] += s;
        let hz = power::diffuse(&g, &z, &cfg).unwrap().signal;
        for u in 0..n {
            let expect = hx.row(u)[0] + s * hy.row(u)[0];
            prop_assert!((hz.row(u)[0] - expect).abs() < 1e-3);
        }
    }

    /// Higher alpha concentrates more mass at the source.
    #[test]
    fn alpha_controls_locality(g in arb_graph()) {
        let n = g.num_nodes();
        let e0 = one_hot(n, 0);
        let run = |alpha: f32| {
            let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
            power::diffuse(&g, &e0, &cfg).unwrap().signal.row(0)[0]
        };
        let heavy = run(0.1);
        let light = run(0.9);
        prop_assert!(light >= heavy - 1e-5,
            "self-mass at alpha 0.9 ({light}) must exceed alpha 0.1 ({heavy})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Forward push agrees with the exact dense solve within the
    /// configured tolerance on every graph family (single source).
    #[test]
    fn push_matches_exact(g in arb_push_graph(), alpha in 0.1f32..1.0, src in 0usize..36) {
        let n = g.num_nodes();
        let src = src % n;
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let mut e0 = Signal::zeros(n, 1);
        e0.row_mut(src)[0] = 1.0;
        let truth = exact::diffuse(&g, &e0, &cfg).unwrap();
        let h = push::ppr_vector(&g, NodeId::new(src as u32), &PushConfig::new(cfg)).unwrap();
        for (u, hu) in h.iter().enumerate() {
            prop_assert!((hu - truth.row(u)[0]).abs() < 1e-4, "node {u}");
        }
    }

    /// Multi-source batched push agrees with the exact solve of the summed
    /// personalization (duplicate source nodes included).
    #[test]
    fn push_batch_matches_exact(g in arb_push_graph(), alpha in 0.1f32..1.0, seed in 0u64..1000) {
        let n = g.num_nodes();
        let dim = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<(NodeId, Embedding)> = (0..4)
            .map(|_| {
                (
                    NodeId::new(rng.random_range(0..n as u32)),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>()).collect()),
                )
            })
            .collect();
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let pushed = push::diffuse_sparse(&g, dim, &sources, &PushConfig::new(cfg)).unwrap();
        let e0 = Signal::from_sparse_rows(n, dim, &sources).unwrap();
        let truth = exact::diffuse(&g, &e0, &cfg).unwrap();
        prop_assert!(pushed.max_abs_diff(&truth).unwrap() < 1e-3);
    }

    /// The batched driver is bit-for-bit deterministic across thread
    /// counts. Nine sources over 1–4 workers: every worker reuses its
    /// scratch at least once, and 2, 3 and 4 workers all end on an uneven
    /// round-robin tail.
    #[test]
    fn push_is_deterministic_across_threads(g in arb_push_graph(), seed in 0u64..1000) {
        let n = g.num_nodes();
        let dim = 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<(NodeId, Embedding)> = (0..9)
            .map(|_| {
                (
                    NodeId::new(rng.random_range(0..n as u32)),
                    Embedding::new((0..dim).map(|_| rng.random::<f32>()).collect()),
                )
            })
            .collect();
        let ppr = PprConfig::new(0.5).unwrap().with_tolerance(1e-6).unwrap();
        let single = push::diffuse_sparse(
            &g, dim, &sources, &PushConfig::new(ppr).with_threads(1).unwrap(),
        ).unwrap();
        for threads in [2usize, 3, 4] {
            let out = push::diffuse_sparse(
                &g, dim, &sources, &PushConfig::new(ppr).with_threads(threads).unwrap(),
            ).unwrap();
            prop_assert_eq!(&out, &single, "{} threads leaked into the output", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sharded push column is bit-for-bit identical to its unsharded
    /// counterpart (the single-shard, single-thread instance) on ring/ER/BA
    /// graphs for every `(shards, threads)` combination, and agrees with
    /// the exact dense solve to the shared accuracy contract.
    #[test]
    fn sharded_push_is_bitwise_shard_invariant(
        g in arb_push_graph(),
        alpha in 0.1f32..1.0,
        src in 0usize..36,
    ) {
        use gdsearch_diffusion::sharded::ShardedConfig;

        let n = g.num_nodes();
        let source = NodeId::new((src % n) as u32);
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let unsharded = ShardedConfig::new(cfg);
        let reference = sharded_column(&g, source, &unsharded);
        for shards in [2usize, 7] {
            for threads in [1usize, 4] {
                let scfg = ShardedConfig::new(cfg)
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                let out = sharded_column(&g, source, &scfg);
                prop_assert_eq!(
                    &out,
                    &reference,
                    "{} shards x {} threads drifted from the unsharded push",
                    shards,
                    threads
                );
            }
        }
        let truth = exact::diffuse(&g, &one_hot(n, source.index()), &cfg).unwrap();
        for (u, r) in reference.iter().enumerate() {
            prop_assert!(
                (r - truth.row(u)[0]).abs() < 1e-4,
                "node {} disagrees with the exact solve",
                u
            );
        }
    }

    /// Uneven partitions (`n % shards != 0`) and all-single-node shards
    /// leave the sharded push bitwise unchanged.
    #[test]
    fn uneven_and_singleton_partitions_change_nothing(
        n in 3u32..24,
        alpha in 0.2f32..0.9,
        extra in 0u32..20,
        seed in 0u64..500,
    ) {
        use gdsearch_diffusion::sharded::ShardedConfig;

        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng).unwrap();
        let n = g.num_nodes();
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let push_ref = sharded_column(&g, NodeId::new(1), &ShardedConfig::new(cfg));
        // n - 1 shards never divides n evenly for n >= 3; n shards makes
        // every shard a single node.
        for shards in [n - 1, n] {
            let scfg = ShardedConfig::new(cfg).with_shards(shards).unwrap();
            let h = sharded_column(&g, NodeId::new(1), &scfg);
            prop_assert_eq!(&h, &push_ref, "{} shards drifted", shards);
        }
    }
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Forward push's output bits, pinned across commits: FNV-1a over every
/// `to_bits()` of `push::diffuse_sparse` on two 2,000–3,000-node graphs, at
/// three α and on one and two workers. The 12 sources repeat a node and
/// give another node only a `−0.0` row, the two cases where folding the
/// sources could move a bit.
#[test]
fn push_reproduces_its_pinned_bits() {
    let graphs = [
        generators::barabasi_albert(3_000, 4, &mut StdRng::seed_from_u64(1)).unwrap(),
        generators::social_circles_like_scaled(2_000, &mut StdRng::seed_from_u64(2)).unwrap(),
    ];
    let dim = 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for g in &graphs {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sources: Vec<(NodeId, Embedding)> = (0..12)
            .map(|_| {
                let node = NodeId::new(rng.random_range(0..g.num_nodes() as u32));
                let emb = (0..dim).map(|_| rng.random::<f32>() - 0.5).collect();
                (node, Embedding::new(emb))
            })
            .collect();
        sources[8].0 = sources[1].0;
        sources[3].1 = Embedding::new(vec![-0.0; dim]);
        for alpha in [0.1f32, 0.5, 0.9] {
            let ppr = PprConfig::new(alpha).unwrap().with_tolerance(1e-4).unwrap();
            for threads in [1usize, 2] {
                let cfg = PushConfig::new(ppr).with_threads(threads).unwrap();
                let out = push::diffuse_sparse(g, dim, &sources, &cfg).unwrap();
                for x in out.as_slice() {
                    h = fnv(h, u64::from(x.to_bits()));
                }
            }
        }
    }
    assert_eq!(h, 0x585d_7d2d_f0ac_9945, "digest {h:016x}");
}

/// What `SparseRows::from_sources` must do, spelled out: the first faulty
/// source in input order, as its index and whether its fault is a
/// non-finite component (a shape fault wins within a source); otherwise
/// the distinct source nodes, ascending, and a zero `N × dim` buffer that
/// each source's embedding is added to with `+=`, in input order.
fn reference_fold(
    n: usize,
    dim: usize,
    sources: &[(NodeId, Embedding)],
) -> Result<(Vec<u32>, Vec<f32>), (usize, bool)> {
    for (i, (node, emb)) in sources.iter().enumerate() {
        if node.index() >= n || emb.dim() != dim {
            return Err((i, false));
        }
        if emb.as_slice().iter().any(|x| !x.is_finite()) {
            return Err((i, true));
        }
    }
    let mut dense = vec![0.0f32; n * dim];
    for (node, emb) in sources {
        for (d, e) in dense[node.index() * dim..][..dim]
            .iter_mut()
            .zip(emb.as_slice())
        {
            *d += e;
        }
    }
    let mut support: Vec<u32> = sources.iter().map(|(node, _)| node.as_u32()).collect();
    support.sort_unstable();
    support.dedup();
    Ok((support, dense))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `SparseRows::from_sources` against the reference fold: stored rows,
    /// support and every row's bits, from sources that repeat a node, sum
    /// to zeros, hold only `−0.0`, or leave the nodes of the graph's
    /// isolated half without a row; and the first error when out-of-range
    /// nodes, ragged rows and NaN or ±∞ components sit at random
    /// positions. `Signal::from_sparse_rows` is the same fold, scattered;
    /// the sweep from the fold is the reference sweep from its dense copy.
    #[test]
    fn from_sources_matches_the_reference_model(
        n in 0usize..40,
        dim in 0usize..6,
        count in 0usize..12,
        faults in 0usize..3,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sources: Vec<(NodeId, Embedding)> = Vec::new();
        while n > 0 && sources.len() < count {
            let node = NodeId::new(rng.random_range(0..n as u32));
            let row: Vec<f32> = (0..dim).map(|_| rng.random::<f32>() - 0.5).collect();
            let negated = row.iter().map(|x| -x).collect();
            match rng.random_range(0..4) {
                0 => sources.push((node, Embedding::new(row))),
                1 => {
                    let node = sources.first().map_or(node, |(first, _)| *first);
                    sources.push((node, Embedding::new(row)));
                }
                2 => sources.extend([(node, Embedding::new(row)), (node, Embedding::new(negated))]),
                _ => sources.push((node, Embedding::new(vec![-0.0; dim]))),
            }
        }
        for _ in 0..faults {
            if sources.is_empty() {
                break;
            }
            let i = rng.random_range(0..sources.len());
            match rng.random_range(0..3) {
                0 => sources[i].0 = NodeId::new(n as u32 + rng.random_range(0..3u32)),
                1 => sources[i].1 = Embedding::new(vec![0.5; dim + 1]),
                _ if dim > 0 => {
                    let mut row = sources[i].1.as_slice().to_vec();
                    let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.random_range(0..3usize)];
                    row[rng.random_range(0..dim)] = bad;
                    sources[i].1 = Embedding::new(row);
                }
                _ => {}
            }
        }
        let got = SparseRows::from_sources(n, dim, &sources);
        let scattered = Signal::from_sparse_rows(n, dim, &sources);
        match (reference_fold(n, dim, &sources), got) {
            (Ok((support, dense)), Ok(rows)) => {
                prop_assert_eq!(rows.support().collect::<Vec<_>>(), support);
                for u in 0..n {
                    prop_assert_eq!(bits(rows.row(u)), bits(&dense[u * dim..][..dim]), "row {}", u);
                }
                prop_assert_eq!(bits(rows.to_signal().as_slice()), bits(&dense));
                let mut e0 = Signal::zeros(n, dim);
                e0.as_mut_slice().copy_from_slice(&dense);
                prop_assert_eq!(scattered.unwrap(), e0.clone());
                // A path on the first half of the nodes; the rest isolated.
                let half = (n / 2) as u32;
                let g = Graph::from_edges(n as u32, (1..half).map(|u| (u - 1, u))).unwrap();
                let cfg = PprConfig::new(0.3).unwrap().with_tolerance(1e-6).unwrap();
                let want = reference_outcome(&reference_sweep(&g, &e0, &cfg));
                for threads in [1usize, 2] {
                    let out = power::diffuse_rows(&g, &rows, &cfg, threads).unwrap();
                    prop_assert_eq!(outcome(&out), want.clone(), "{} threads", threads);
                }
            }
            (Err((i, non_finite)), Err(err)) => {
                let (node, emb) = &sources[i];
                if non_finite {
                    let c = emb.as_slice().iter().position(|x| !x.is_finite()).unwrap();
                    let named = format!("node {node} has a non-finite component {c} (");
                    prop_assert!(
                        matches!(&err, DiffusionError::InvalidParameter { reason } if reason.contains(&named)),
                        "source {}: {:?}", i, err
                    );
                } else {
                    prop_assert!(
                        matches!(err, DiffusionError::ShapeMismatch { expected, got }
                            if expected == (n, dim) && got == (node.index(), emb.dim())),
                        "source {}: {:?}", i, err
                    );
                }
                prop_assert_eq!(format!("{:?}", scattered.unwrap_err()), format!("{err:?}"));
            }
            (want, got) => prop_assert!(false, "model {:?}, from_sources {:?}", want, got),
        }
    }
}
