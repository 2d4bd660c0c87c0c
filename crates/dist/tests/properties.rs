//! Property-based tests of the distributed sharded push: whatever the
//! interconnect does — narrow links, random loss, node churn — the
//! transport-backed exchange must reproduce the in-process sharded results
//! **bit for bit**, because the canonical schedule and the canonical
//! application order are independent of delivery timing.

use gdsearch_diffusion::sharded::{self, ShardedConfig};
use gdsearch_diffusion::PprConfig;
use gdsearch_dist::DistConfig;
use gdsearch_embed::Embedding;
use gdsearch_graph::{generators, Graph, NodeId};
use gdsearch_sim::churn::{ChurnEvent, ChurnKind, ChurnSchedule};
use gdsearch_sim::TransportConfig;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ring, Erdős–Rényi and Barabási–Albert families — the acceptance
/// criteria's graph classes (ER may be disconnected, BA is hub-heavy with
/// many peer links).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (0usize..3, 4u32..36, 0u64..1000).prop_map(|(family, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => generators::ring(n).unwrap(),
            1 => generators::erdos_renyi(n, 0.15, &mut rng).unwrap(),
            _ => generators::barabasi_albert(n, 2, &mut rng).unwrap(),
        }
    })
}

/// A single-source push column as the sparse entries compute it: one unit
/// row at dim 1, which is the column bit for bit (`0.0 + h·1.0 = h`).
fn unit_row(source: NodeId) -> [(NodeId, Embedding); 1] {
    [(source, Embedding::new(vec![1.0]))]
}

fn sharded_cfg(alpha: f32, shards: usize, threads: usize) -> ShardedConfig {
    ShardedConfig::new(PprConfig::new(alpha).unwrap().with_tolerance(1e-6).unwrap())
        .with_shards(shards)
        .unwrap()
        .with_threads(threads)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under ample bandwidth and zero loss, the distributed push column is
    /// bit-for-bit identical to the in-process sharded push on ring/ER/BA
    /// for every `(shards, threads)` combination.
    #[test]
    fn distributed_push_is_bitwise_identical_under_ample_bandwidth(
        g in arb_graph(),
        alpha in 0.1f32..1.0,
        src in 0usize..36,
    ) {
        let n = g.num_nodes();
        let source = NodeId::new((src % n) as u32);
        let reference =
            sharded::diffuse_sparse(&g, 1, &unit_row(source), &sharded_cfg(alpha, 1, 1)).unwrap();
        for shards in [1usize, 2, 7] {
            for threads in [1usize, 4] {
                let scfg = sharded_cfg(alpha, shards, threads);
                let (scores, stats) = gdsearch_dist::diffuse_sparse(
                    &g,
                    1,
                    &unit_row(source),
                    &DistConfig::new(scfg),
                ).unwrap();
                prop_assert_eq!(
                    &scores,
                    &reference,
                    "{} shards x {} threads drifted over the wire",
                    shards,
                    threads
                );
                prop_assert_eq!(stats.frame_bytes, stats.net.bytes_sent);
            }
        }
    }

    /// Narrow links, random frame loss and a shard machine that is down
    /// for the first ticks of the run change how long the exchange takes
    /// and how many retransmissions it needs — but per-round
    /// retransmission recovers the **exact** push output, bit for bit.
    #[test]
    fn retransmission_recovers_the_exact_fixed_point_under_loss_and_churn(
        g in arb_graph(),
        alpha in 0.2f32..0.9,
        loss in 0.05f64..0.45,
        down_ticks in 1u64..12,
        seed in 0u64..1000,
    ) {
        let n = g.num_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<(NodeId, Embedding)> = (0..3)
            .map(|_| {
                let node = NodeId::new(rng.random_range(0..n as u32));
                (node, Embedding::new(vec![rng.random::<f32>(), rng.random::<f32>()]))
            })
            .collect();
        let shards = 3usize;
        let scfg = sharded_cfg(alpha, shards, 2);
        let reference = sharded::diffuse_sparse(&g, 2, &sources, &scfg).unwrap();
        // Shard machine 1 starts down and comes back after `down_ticks`;
        // frames sent to it meanwhile are dropped and must be
        // retransmitted once it recovers.
        let churn = ChurnSchedule::from_events(vec![
            ChurnEvent {
                tick: 0,
                node: NodeId::new(1),
                kind: ChurnKind::Down,
            },
            ChurnEvent {
                tick: down_ticks,
                node: NodeId::new(1),
                kind: ChurnKind::Up,
            },
        ]);
        let transport = TransportConfig::default()
            .with_bandwidth(256)
            .unwrap()
            .with_queue_capacity(8)
            .unwrap()
            .with_loss_probability(loss)
            .unwrap()
            .with_seed(seed)
            .with_churn(churn);
        let dcfg = DistConfig::new(scfg).with_transport(transport);
        let (out, stats) = gdsearch_dist::diffuse_sparse(&g, 2, &sources, &dcfg).unwrap();
        prop_assert_eq!(
            &out,
            &reference,
            "loss {} + churn {} ticks corrupted the push output",
            loss,
            down_ticks
        );
        prop_assert_eq!(stats.frame_bytes, stats.net.bytes_sent);
        // The adversarial interconnect must actually have bitten (unless
        // this partition produced no cross-shard frames at all).
        if stats.frames > 0 && g.num_nodes() > shards {
            prop_assert!(
                stats.retransmitted_frames > 0 || stats.net.lost == 0,
                "loss was rolled but nothing was retransmitted"
            );
        }
    }
}

/// FNV-1a-64 step over one 64-bit word.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// The sharded push's output bits and wire cost, pinned across commits:
/// FNV-1a over every output `to_bits()` of the in-process and the
/// distributed sparse diffusion, then the exchange's `frames` and
/// `frame_bytes`, on a hub-heavy and a clustered graph, three teleport
/// probabilities and three shard counts.
/// A refactor of the push must not move a bit or a frame.
#[test]
fn sharded_push_reproduces_its_pinned_bits() {
    let graphs = [
        generators::barabasi_albert(3_000, 4, &mut StdRng::seed_from_u64(1)).unwrap(),
        generators::social_circles_like_scaled(2_000, &mut StdRng::seed_from_u64(2)).unwrap(),
    ];
    let dim = 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for g in &graphs {
        let mut rng = StdRng::seed_from_u64(3);
        let sources: Vec<(NodeId, Embedding)> = (0..12)
            .map(|_| {
                let node = NodeId::new(rng.random_range(0..g.num_nodes() as u32));
                let emb = (0..dim).map(|_| rng.random::<f32>() - 0.5).collect();
                (node, Embedding::new(emb))
            })
            .collect();
        for alpha in [0.1f32, 0.5, 0.9] {
            let ppr = PprConfig::new(alpha).unwrap().with_tolerance(1e-4).unwrap();
            for shards in [1usize, 3, 8] {
                let scfg = ShardedConfig::new(ppr)
                    .with_shards(shards)
                    .unwrap()
                    .with_threads(2)
                    .unwrap();
                let local = sharded::diffuse_sparse(g, dim, &sources, &scfg).unwrap();
                let (wire, stats) =
                    gdsearch_dist::diffuse_sparse(g, dim, &sources, &DistConfig::new(scfg))
                        .unwrap();
                for x in local.as_slice().iter().chain(wire.as_slice()) {
                    h = fnv(h, u64::from(x.to_bits()));
                }
                h = fnv(fnv(h, stats.frames), stats.frame_bytes);
            }
        }
    }
    assert_eq!(h, 0xe601_5d78_de0e_380d, "digest {h:016x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One NaN or ±∞ at a random (source, component) fails every diffusion
    /// entry with the same `InvalidParameter`, before any engine runs: the
    /// fold in `SparseRows::from_sources` is the one door. `auto_diffuse`
    /// is asked on both sides of its routing: a 40-node ring sweeps, and
    /// a 4,900-node grid pushes, since 1–3 sources at width 16–24 are
    /// sparse.
    #[test]
    fn a_non_finite_source_row_fails_every_entry_alike(
        count in 1usize..4,
        dim in 16usize..25,
        which in 0usize..3,
        bad in 0usize..3,
        seed in 0u64..1000,
    ) {
        use gdsearch_diffusion::push::{self, PushConfig};
        use gdsearch_diffusion::{per_source, power, DiffusionError, Signal, SparseRows};

        let mut rng = StdRng::seed_from_u64(seed);
        let mut sources: Vec<(NodeId, Embedding)> = (0..count)
            .map(|_| {
                let node = NodeId::new(rng.random_range(0..40));
                let row = (0..dim).map(|_| rng.random::<f32>() - 0.5).collect();
                (node, Embedding::new(row))
            })
            .collect();
        let i = which % count;
        let mut row = sources[i].1.as_slice().to_vec();
        row[rng.random_range(0..dim)] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][bad];
        sources[i].1 = Embedding::new(row);

        let (ring, grid) = (generators::ring(40).unwrap(), generators::grid(70, 70));
        prop_assert!(per_source::is_sparse(count, dim));
        prop_assert!(grid.num_nodes() >= push::AUTO_PUSH_MIN_NODES);
        let ppr = PprConfig::new(0.5).unwrap().with_tolerance(1e-4).unwrap();
        let scfg = ShardedConfig::new(ppr).with_shards(3).unwrap();
        let want = Signal::from_sparse_rows(40, dim, &sources).unwrap_err();
        prop_assert!(matches!(want, DiffusionError::InvalidParameter { .. }), "{:?}", want);
        let errors = [
            ("power::diffuse_rows", SparseRows::from_sources(40, dim, &sources)
                .and_then(|e0| power::diffuse_rows(&ring, &e0, &ppr, 2)).map(|_| ())),
            ("push::diffuse_sparse", push::diffuse_sparse(&ring, dim, &sources, &PushConfig::new(ppr)).map(|_| ())),
            ("sharded::diffuse_sparse", sharded::diffuse_sparse(&ring, dim, &sources, &scfg).map(|_| ())),
            ("gdsearch_dist::diffuse_sparse", gdsearch_dist::diffuse_sparse(&ring, dim, &sources, &DistConfig::new(scfg)).map(|_| ())),
            ("auto_diffuse, sweep", per_source::auto_diffuse(&ring, dim, &sources, &ppr).map(|_| ())),
            ("auto_diffuse, push", per_source::auto_diffuse(&grid, dim, &sources, &ppr).map(|_| ())),
        ];
        for (entry, got) in errors {
            prop_assert_eq!(format!("{:?}", got.unwrap_err()), format!("{want:?}"), "{}", entry);
        }
    }
}
