//! The dense power sweep at benchmark scale (10⁵ nodes, dim 64, 1,000
//! sources): its output bits, pinned, and an independent check that what a
//! build leaves is the fixed point of the PPR filter.
//!
//! Both take seconds in a release build and far longer in a debug one, so
//! a debug `cargo test` skips them; CI runs them with `--release`.

use gdsearch::experiment::{Workbench, WorkbenchSpec};
use gdsearch::personalization::personalization_rows;
use gdsearch::{Placement, SchemeConfig, SearchNetwork};
use gdsearch_diffusion::{per_source, PprConfig, Signal};
use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::edge_weight;
use gdsearch_graph::{generators, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: u32 = 100_000;

/// FNV-1a (64-bit) over the little-endian bytes of every value's bits.
fn fnv1a(values: &[f32]) -> u64 {
    let bytes = values.iter().flat_map(|x| x.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The sweep's bits for 1,000 random sources on the benchmark's graph
/// shape, at α ∈ {0.1, 0.5, 0.9}: a change to the
/// sweep's arithmetic, its order or its buffers that moves one bit moves a
/// digest.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark scale; CI runs it with --release"
)]
fn dense_sweep_reproduces_its_pinned_digests() {
    let mut rng = StdRng::seed_from_u64(1);
    let graph = generators::social_circles_like_scaled(NODES, &mut rng).unwrap();
    let sources: Vec<(NodeId, Embedding)> = (0..1000)
        .map(|_| {
            let node = NodeId::new(rng.random_range(0..NODES));
            let row = (0..64).map(|_| rng.random::<f32>() - 0.5).collect();
            (node, Embedding::new(row))
        })
        .collect();
    let pinned: [(f32, u64); 3] = [
        (0.1, 0x2be5_49b2_e6ef_5049),
        (0.5, 0xf60a_c5a5_922a_1b74),
        (0.9, 0x8e09_5e94_8662_d511),
    ];
    for (alpha, digest) in pinned {
        let config = PprConfig::new(alpha).unwrap().with_tolerance(1e-5).unwrap();
        let swept = per_source::auto_diffuse(&graph, 64, &sources, &config).unwrap();
        assert_eq!(
            format!("{:016x}", fnv1a(swept.as_slice())),
            format!("{digest:016x}"),
            "α = {alpha}"
        );
    }
}

/// `‖(1−α)·A·E + α·E0 − E‖∞`, with `A` summed entry by entry from the
/// adjacency and `edge_weight` — none of the sweep's kernels. A NaN cell
/// reads as an infinite residual.
fn fixed_point_residual(graph: &Graph, e: &Signal, e0: &Signal, config: &SchemeConfig) -> f32 {
    let alpha = config.alpha();
    let mut worst = 0.0f32;
    for u in graph.node_ids() {
        let mut ae = vec![0.0f32; e.dim()];
        for &v in graph.neighbor_slice(u) {
            let w = edge_weight(graph.degree(v));
            for (sum, x) in ae.iter_mut().zip(e.row(v.index())) {
                *sum += w * x;
            }
        }
        for ((ae, e0), e) in ae.iter().zip(e0.row(u.index())).zip(e.row(u.index())) {
            let r = ((1.0 - alpha) * ae + alpha * e0 - e).abs();
            worst = if r.is_nan() {
                f32::INFINITY
            } else {
                worst.max(r)
            };
        }
    }
    worst
}

/// A build on a 10⁵-node workbench with 1,000 documents placed uniformly —
/// the benchmark's `rebuild-dense` operation, which takes the dense sweep —
/// leaves a fixed point of the filter to within the scheme's tolerance.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "benchmark scale; CI runs it with --release"
)]
fn a_dense_build_is_a_fixed_point_of_the_filter() {
    let spec = WorkbenchSpec {
        nodes: NODES,
        vocab: 6000,
        dim: 64,
        topics: 120,
        num_queries: 2000,
        min_cosine: 0.6,
        anisotropy: 0.3,
    };
    let mut rng = StdRng::seed_from_u64(41);
    let wb = Workbench::generate(&spec, &mut rng).unwrap();
    let words: Vec<_> = wb.corpus.word_ids().take(1000).collect();
    let placement = Placement::uniform(&wb.graph, &words, &mut rng).unwrap();
    let config = SchemeConfig::default();
    let network =
        SearchNetwork::build(&wb.graph, &wb.corpus, &placement, &config, &mut rng).unwrap();
    let docs_at: Vec<_> = placement
        .docs_by_host()
        .into_iter()
        .map(|(host, docs)| {
            (
                host,
                docs.iter().map(|&d| network.doc_embedding(d)).collect(),
            )
        })
        .collect();
    let rows = personalization_rows(&wb.graph, spec.dim, &docs_at, config.aggregation()).unwrap();
    let e0 = Signal::from_sparse_rows(wb.graph.num_nodes(), spec.dim, &rows).unwrap();
    let residual = fixed_point_residual(&wb.graph, network.embeddings(), &e0, &config);
    assert!(
        residual <= config.tolerance(),
        "residual {residual} above the tolerance {}",
        config.tolerance()
    );
}
