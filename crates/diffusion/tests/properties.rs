//! Property-based tests for the diffusion substrate: PPR's mathematical
//! identities must hold on arbitrary graphs and inputs.

use gdsearch_diffusion::push::{self, PushConfig};
use gdsearch_diffusion::{exact, power, PprConfig, Signal};
use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::{transition_weight, Normalization, GATHER_BLOCK};
use gdsearch_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

const NORMS: [Normalization; 3] = [
    Normalization::ColumnStochastic,
    Normalization::RowStochastic,
    Normalization::Symmetric,
];

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

/// The dense sweep spelled out — every neighbour gathered in adjacency
/// order, nothing skipped — as `(signal, iterations, residual, converged)`.
fn reference_sweep(g: &Graph, e0: &Signal, cfg: &PprConfig) -> (Vec<f32>, usize, f32, bool) {
    let (dim, a) = (e0.dim(), cfg.alpha());
    let mut cur = e0.as_slice().to_vec();
    let (mut iterations, mut residual, mut converged) = (0, f32::INFINITY, false);
    while iterations < cfg.max_iterations() && !converged {
        let mut next = vec![0.0f32; cur.len()];
        residual = 0.0;
        for u in g.node_ids() {
            let row = u.index() * dim..(u.index() + 1) * dim;
            for v in g.neighbors(u) {
                let w = transition_weight(g, cfg.normalization(), u, v);
                let src = &cur[v.index() * dim..][..dim];
                for (o, s) in next[row.clone()].iter_mut().zip(src) {
                    *o += w * s;
                }
            }
            for j in row {
                next[j] = (1.0 - a) * next[j] + a * e0.as_slice()[j];
                let delta = (next[j] - cur[j]).abs();
                if delta > residual {
                    residual = delta;
                }
            }
        }
        cur = next;
        iterations += 1;
        converged = residual <= cfg.tolerance();
    }
    (cur, iterations, residual, converged)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Asserts that the masked sweep (and the sharded one, which never masks)
/// equals the reference sweep bit for bit, for every thread count, and
/// returns the reference.
fn assert_sweep_is_reference(
    g: &Graph,
    e0: &Signal,
    cfg: &PprConfig,
) -> (Vec<f32>, usize, f32, bool) {
    use gdsearch_diffusion::sharded::{self, ShardedConfig};

    let reference = reference_sweep(g, e0, cfg);
    let sharded = sharded::diffuse(g, e0, &ShardedConfig::new(*cfg).with_shards(2).unwrap());
    let mut outs = vec![("sharded".to_string(), sharded.unwrap())];
    for threads in [1usize, 2, 3, 16] {
        let out = power::diffuse_threaded(g, e0, cfg, threads).unwrap();
        outs.push((format!("{threads} threads"), out));
    }
    for (who, out) in outs {
        let got = (
            bits(out.signal.as_slice()),
            out.iterations,
            out.residual.to_bits(),
            out.converged,
        );
        let want = (
            bits(&reference.0),
            reference.1,
            reference.2.to_bits(),
            reference.3,
        );
        assert_eq!(got, want, "{who}");
    }
    reference
}

/// Rows the liveness mask must treat as live by bit pattern, an E0 with no
/// live row at all, and components no live row ever reaches.
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
        let (signal, ..) = assert_sweep_is_reference(&g, &e0, &cfg);
        // No sweep ever reaches the triangle or the isolated node: their
        // rows stay dead, so the mask is on to the last sweep.
        assert!(bits(&signal[4 * 2..]).iter().all(|&b| b == 0));
    }
    let (_, iterations, _, converged) = assert_sweep_is_reference(&g, &Signal::zeros(8, 2), &cfg);
    assert_eq!((iterations, converged), (1, true));
}

/// Hostile graphs: no nodes, one node, isolated nodes beside a component,
/// and a degree-(N−1) hub, each at zero width and across the row kernel's
/// block boundaries, under every normalization and with dense and one-row
/// E0s.
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
            for norm in NORMS {
                let cfg = PprConfig::new(0.3)
                    .unwrap()
                    .with_normalization(norm)
                    .with_tolerance(1e-6)
                    .unwrap();
                let mut dense = Signal::zeros(n, dim);
                for x in dense.as_mut_slice() {
                    *x = rng.random::<f32>() - 0.5;
                }
                assert_sweep_is_reference(g, &dense, &cfg);
                if n > 0 {
                    // One live row on the last node: isolated, or a leaf
                    // of the hub.
                    let mut one = Signal::zeros(n, dim);
                    one.row_mut(n - 1).copy_from_slice(dense.row(0));
                    assert_sweep_is_reference(g, &one, &cfg);
                }
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
        norm in 0usize..3,
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
            .with_normalization(NORMS[norm])
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
    /// boundaries, under every normalization.
    #[test]
    fn power_threaded_is_bitwise_deterministic(
        g in arb_graph(),
        alpha in 0.1f32..1.0,
        dim in 0usize..DIMS.len(),
        norm in 0usize..3,
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
            .with_normalization(NORMS[norm])
            .with_tolerance(1e-6)
            .unwrap();
        let reference = power::diffuse(&g, &e0, &cfg).unwrap();
        for threads in [2usize, 4, 7] {
            let out = power::diffuse_threaded(&g, &e0, &cfg, threads).unwrap();
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
            .with_normalization(Normalization::ColumnStochastic)
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

    /// The sharded power sweep is bit-for-bit identical to the monolithic
    /// dense engine on ring/ER/BA graphs for every `(shards, threads)`
    /// combination — signal, iteration count and residual included.
    #[test]
    fn sharded_power_is_bitwise_identical_to_dense(
        g in arb_push_graph(),
        alpha in 0.1f32..1.0,
        dim in 1usize..4,
        signal_seed in 0u64..1000,
    ) {
        use gdsearch_diffusion::sharded::{self, ShardedConfig};

        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(signal_seed);
        let mut e0 = Signal::zeros(n, dim);
        for u in 0..n {
            for d in 0..dim {
                e0.row_mut(u)[d] = rng.random::<f32>();
            }
        }
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let reference = power::diffuse(&g, &e0, &cfg).unwrap();
        for shards in [1usize, 2, 7] {
            for threads in [1usize, 4] {
                let scfg = ShardedConfig::new(cfg)
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                let out = sharded::diffuse(&g, &e0, &scfg).unwrap();
                prop_assert_eq!(
                    out.signal.as_slice(),
                    reference.signal.as_slice(),
                    "{} shards x {} threads drifted from the dense sweep",
                    shards,
                    threads
                );
                prop_assert_eq!(out.iterations, reference.iterations);
                prop_assert_eq!(out.residual.to_bits(), reference.residual.to_bits());
                prop_assert_eq!(out.converged, reference.converged);
            }
        }
    }

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
        use gdsearch_diffusion::sharded::{self, ShardedConfig};

        let n = g.num_nodes();
        let source = NodeId::new((src % n) as u32);
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let unsharded = ShardedConfig::new(cfg);
        let reference = sharded::ppr_vector(&g, source, &unsharded).unwrap();
        for shards in [2usize, 7] {
            for threads in [1usize, 4] {
                let scfg = ShardedConfig::new(cfg)
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                let out = sharded::ppr_vector(&g, source, &scfg).unwrap();
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
    /// leave both sharded engines bitwise unchanged.
    #[test]
    fn uneven_and_singleton_partitions_change_nothing(
        n in 3u32..24,
        alpha in 0.2f32..0.9,
        extra in 0u32..20,
        seed in 0u64..500,
    ) {
        use gdsearch_diffusion::sharded::{self, ShardedConfig};

        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_connected(n, extra, &mut rng).unwrap();
        let n = g.num_nodes();
        let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap();
        let e0 = one_hot(n, 1);
        let dense = power::diffuse(&g, &e0, &cfg).unwrap();
        let push_ref = sharded::ppr_vector(&g, NodeId::new(1), &ShardedConfig::new(cfg)).unwrap();
        // n - 1 shards never divides n evenly for n >= 3; n shards makes
        // every shard a single node.
        for shards in [n - 1, n] {
            let scfg = ShardedConfig::new(cfg).with_shards(shards).unwrap();
            let out = sharded::diffuse(&g, &e0, &scfg).unwrap();
            prop_assert_eq!(out.signal.as_slice(), dense.signal.as_slice());
            let h = sharded::ppr_vector(&g, NodeId::new(1), &scfg).unwrap();
            prop_assert_eq!(&h, &push_ref, "{} shards drifted", shards);
        }
    }
}
