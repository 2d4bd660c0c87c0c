//! Criterion benches for the per-hop forwarding decision — the operation
//! every node performs on every query message, so its throughput bounds
//! the simulated network's query capacity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gdsearch::forwarding::{select_next_hops, ForwardContext, Scores};
use gdsearch::PolicyKind;
use gdsearch_diffusion::Signal;
use gdsearch_embed::Embedding;
use gdsearch_graph::{generators, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_policies(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let graph = generators::social_circles_like_scaled(1000, &mut rng).unwrap();
    let dim = 64;
    let mut embeddings = Signal::zeros(1000, dim);
    for u in 0..1000 {
        for x in embeddings.row_mut(u) {
            *x = rng.random::<f32>() - 0.5;
        }
    }
    let query = Embedding::new((0..dim).map(|_| rng.random::<f32>() - 0.5).collect());
    // A hub node: many candidates, the expensive case.
    let hub = graph
        .node_ids()
        .max_by_key(|&u| graph.degree(u))
        .expect("non-empty graph");
    let candidates: Vec<NodeId> = graph.neighbors(hub).collect();

    let mut group = c.benchmark_group("forwarding_decision");
    group.throughput(criterion::Throughput::Elements(1));
    for (name, policy) in [
        ("ppr_greedy", PolicyKind::PprGreedy),
        ("random_walk", PolicyKind::RandomWalk),
        ("degree_biased", PolicyKind::DegreeBiased),
        ("hybrid", PolicyKind::Hybrid { epsilon: 0.2 }),
    ] {
        group.bench_with_input(
            BenchmarkId::new(name, candidates.len()),
            &policy,
            |b, &policy| {
                let mut walk_rng = StdRng::seed_from_u64(4);
                b.iter(|| {
                    let ctx = ForwardContext {
                        node: hub,
                        candidates: black_box(&candidates),
                        query: &query,
                        node_embeddings: &embeddings,
                        graph: &graph,
                        fanout: 1,
                        scores: Scores::Inline,
                    };
                    select_next_hops(policy, &ctx, &mut walk_rng)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_policies);
criterion_main!(benches);
