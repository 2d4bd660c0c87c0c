//! An executable reference model of `walk::run_with` (ROADMAP item D).
//!
//! [`model_walk`] is the walk as it was first written: the paper's node
//! operations (§IV-C, Fig. 1) over `BTreeMap`/`BTreeSet` bookkeeping, a
//! fresh `Vec` for every intermediate, and a full sort to pick the best
//! candidate. It is slow and obviously right, built on public product
//! accessors only. The product walk filters through per-node adjacency
//! bitmasks, quantizes only the scores near the top, ranks by selection and
//! reuses its buffers;
//! the property below holds it to the model — same results, path and
//! message count, and the caller's RNG left at the same stream position —
//! across graph shapes (one with hubs wider than two mask words), every
//! policy, fan-outs, TTLs, and a zero-length and a full-length score column;
//! a full-length column ends up holding exactly the nodes the model scored,
//! and a second walk on it scores nothing anew.
//! Three more tests hold it to the model on an overflowing query, on a star
//! whose hub runs out of fresh leaves (the footnote-9 fallback on a
//! two-word mask) and on flooding at paper scale.
//!
//! (`SchemeConfig` rejects a zero TTL, so the grid's smallest is 1: one
//! forward, then the discard branch.)

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use gdsearch::forwarding::{self, LazyColumn};
use gdsearch::{
    walk, DocId, FoundDoc, Placement, PolicyKind, SchemeConfig, SearchNetwork, WalkOutcome,
};
use gdsearch_embed::synthetic::SyntheticCorpus;
use gdsearch_embed::topk::TopK;
use gdsearch_embed::{Corpus, Embedding, WordId};
use gdsearch_graph::algo::bfs;
use gdsearch_graph::{generators, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `forwarding`'s tie resolution (private there; part of the protocol).
const SCORE_TIE_RESOLUTION: f32 = 1e-4;

/// The bits of a score column's unset cell (private to `forwarding`): a
/// score with exactly these bits is never stored.
const UNSET: u32 = u32::MAX;

/// Sorts by descending score then ascending id, keeps the first `fanout`.
fn rank_and_take(mut scored: Vec<(f32, NodeId)>, fanout: usize) -> Vec<NodeId> {
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(fanout).map(|(_, c)| c).collect()
}

/// The model's forwarding decision: every policy, naively. Every node a
/// dot product is taken for goes into `scored`.
fn model_select(
    policy: PolicyKind,
    network: &SearchNetwork<'_>,
    query: &Embedding,
    candidates: &[NodeId],
    fanout: usize,
    rng: &mut StdRng,
    scored: &mut BTreeSet<NodeId>,
) -> Vec<NodeId> {
    if candidates.is_empty() || fanout == 0 {
        return Vec::new();
    }
    match policy {
        PolicyKind::PprGreedy => {
            let mut dot = |c: NodeId| -> f32 {
                scored.insert(c);
                let row = network.embeddings().row(c.index());
                query.as_slice().iter().zip(row).map(|(q, e)| q * e).sum()
            };
            let scored: Vec<(f32, NodeId)> = candidates.iter().map(|&c| (dot(c), c)).collect();
            // The scale of the finite scores; ±∞ ranks as itself, NaN last.
            let finite = scored.iter().filter(|(s, _)| s.is_finite());
            let scale = finite.map(|(s, _)| s.abs()).fold(0.0f32, f32::max);
            let quantum = (scale * SCORE_TIE_RESOLUTION).max(f32::MIN_POSITIVE);
            let quantize = |s: f32| {
                if s.is_nan() {
                    -f32::NAN
                } else {
                    (s / quantum).round()
                }
            };
            let quantized = scored.into_iter().map(|(s, c)| (quantize(s), c));
            rank_and_take(quantized.collect(), fanout)
        }
        PolicyKind::DegreeBiased => {
            let degree = |c| network.graph().degree(c) as f32;
            rank_and_take(candidates.iter().map(|&c| (degree(c), c)).collect(), fanout)
        }
        PolicyKind::RandomWalk => {
            let mut picks = candidates.to_vec();
            picks.shuffle(rng);
            picks.truncate(fanout);
            picks
        }
        PolicyKind::Flooding => candidates.to_vec(),
        PolicyKind::Hybrid { epsilon } => {
            let explore = epsilon > 0.0 && rng.random_bool(f64::from(epsilon.clamp(0.0, 1.0)));
            let policy = if explore {
                PolicyKind::RandomWalk
            } else {
                PolicyKind::PprGreedy
            };
            model_select(policy, network, query, candidates, fanout, rng, scored)
        }
    }
}

struct Head {
    at: NodeId,
    ttl: u32,
    hop: u32,
}

/// The reference walk. Inputs must be valid (`start` in range, `query` of
/// the network's dimension).
fn model_walk(
    network: &SearchNetwork<'_>,
    query: &Embedding,
    start: NodeId,
    rng: &mut StdRng,
) -> WalkOutcome {
    model_walk_scoring(network, query, start, rng).0
}

/// [`model_walk`], plus the nodes its forwarding decisions took a dot
/// product for.
fn model_walk_scoring(
    network: &SearchNetwork<'_>,
    query: &Embedding,
    start: NodeId,
    rng: &mut StdRng,
) -> (WalkOutcome, BTreeSet<NodeId>) {
    let config = network.config();

    let mut results: TopK<DocId> = TopK::new(config.top_k());
    let mut found_at: BTreeMap<DocId, u32> = BTreeMap::new();
    let mut path: Vec<NodeId> = Vec::new();
    let mut seen_nodes: BTreeSet<NodeId> = BTreeSet::new();
    // Per-node "exchanged with" memory (paper: received-from ∪ sent-to).
    let mut node_memory: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    let mut forwards = 0u32;
    let mut scored: BTreeSet<NodeId> = BTreeSet::new();

    let mut frontier: VecDeque<Head> = VecDeque::new();
    frontier.push_back(Head {
        at: start,
        ttl: config.ttl(),
        hop: 0,
    });

    while let Some(mut head) = frontier.pop_front() {
        let u = head.at;
        let first_visit = seen_nodes.insert(u);
        if first_visit {
            path.push(u);
        }
        // (1) Local retrieval; a document is recorded once.
        for &doc in network.docs_at(u) {
            if let std::collections::btree_map::Entry::Vacant(e) = found_at.entry(doc) {
                e.insert(head.hop);
                results.push(network.doc_score(query, doc), doc);
            }
        }
        if config.policy() == PolicyKind::Flooding && !first_visit {
            continue;
        }
        // (2) TTL check.
        if head.ttl == 0 {
            continue;
        }
        head.ttl -= 1;
        // (3) Candidate selection through visited memory.
        let neighbors = network.graph().neighbor_slice(u);
        if neighbors.is_empty() {
            continue;
        }
        let used = node_memory.get(&u).cloned().unwrap_or_default();
        let fresh: Vec<NodeId> = neighbors
            .iter()
            .copied()
            .filter(|v| !used.contains(v))
            .collect();
        // Footnote 9: do not waste the forwarding opportunity.
        let candidates = if fresh.is_empty() {
            neighbors.to_vec()
        } else {
            fresh
        };
        // (4) Policy decision; fan-out at the querying node only.
        let fanout = if head.hop == 0 { config.fanout() } else { 1 };
        let policy = config.policy();
        for v in model_select(
            policy,
            network,
            query,
            &candidates,
            fanout,
            rng,
            &mut scored,
        ) {
            forwards += 1;
            node_memory.entry(u).or_default().insert(v);
            node_memory.entry(v).or_default().insert(u);
            frontier.push_back(Head {
                at: v,
                ttl: head.ttl,
                hop: head.hop + 1,
            });
        }
    }

    let results = results
        .into_sorted()
        .into_iter()
        .map(|s| FoundDoc {
            doc: s.item,
            score: s.score,
            hop: found_at[&s.item],
        })
        .collect();
    let outcome = WalkOutcome {
        results,
        unique_nodes: path.len(),
        path,
        hops: forwards,
    };
    (outcome, scored)
}

/// Shared corpus for all cases (generation is the expensive part).
fn corpus() -> &'static Corpus {
    static CORPUS: std::sync::OnceLock<Corpus> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        SyntheticCorpus::builder()
            .vocab_size(150)
            .dim(12)
            .num_topics(8)
            .generate(&mut StdRng::seed_from_u64(99))
            .unwrap()
    })
}

/// Graph shapes [`graph_and_start`] draws from.
const SHAPES: usize = 5;

/// One of the graph shapes and a start node on it: an isolated start
/// beside a path, a path, a star (hub or leaf start), the paper's family,
/// and a double wheel of 4n + 130 nodes — two adjacent hubs joined to
/// every node of a path — whose hubs' adjacency spans three to five
/// 64-bit words.
fn graph_and_start(shape: usize, n: u32, rng: &mut StdRng) -> (Graph, NodeId) {
    let anywhere = NodeId::new(rng.random_range(0..n));
    match shape {
        4 => {
            let n = 4 * n + 130;
            let spokes = (2..n).flat_map(|leaf| [(0, leaf), (1, leaf)]);
            let rim = (3..n).map(|leaf| (leaf - 1, leaf));
            let edges = std::iter::once((0, 1)).chain(spokes).chain(rim);
            let start = NodeId::new(rng.random_range(0..n));
            (Graph::from_edges(n, edges).unwrap(), start)
        }
        0 => {
            let path = (1..n - 1).map(|u| (u - 1, u));
            (Graph::from_edges(n, path).unwrap(), NodeId::new(n - 1))
        }
        1 => (generators::path(n), anywhere),
        2 => (generators::star(n), anywhere),
        _ => (
            generators::social_circles_like_scaled(n, rng).unwrap(),
            anywhere,
        ),
    }
}

/// Everything two outcomes must share, score bits included.
type Observed = (Vec<(DocId, u32, u32)>, Vec<NodeId>, u32, usize, u64);

/// A walk's outcome plus the next draw of the RNG it was handed.
fn observe(outcome: WalkOutcome, rng: &mut StdRng) -> Observed {
    let results = outcome.results.iter();
    (
        results.map(|f| (f.doc, f.score.to_bits(), f.hop)).collect(),
        outcome.path,
        outcome.hops,
        outcome.unique_nodes,
        rng.random(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `walk::run_with` ≡ the model over the whole configuration grid, with
    /// a zero-length column (every candidate scored by the kernel) and a
    /// full-length one (filled as the walk scores). The full-length column
    /// then holds a cell for exactly the nodes the model took a dot product
    /// for (bar a score with the unset sentinel's bits, which is never
    /// stored), and a second walk on it, as a cached column would serve it,
    /// has the same outcome and sets no new cell.
    #[test]
    fn run_with_matches_the_reference_model(
        seed in 0u64..1_000_000,
        shape in 0usize..SHAPES,
        n in 6u32..48,
        docs in 1u32..10,
    ) {
        let corpus = corpus();
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, start) = graph_and_start(shape, n, &mut rng);
        let words: Vec<WordId> = (0..docs).map(WordId::new).collect();
        let placement = Placement::uniform(&graph, &words, &mut rng).unwrap();
        let query = corpus.embedding(WordId::new(rng.random_range(0..150)));
        let policies = [
            PolicyKind::PprGreedy,
            PolicyKind::RandomWalk,
            PolicyKind::DegreeBiased,
            PolicyKind::Flooding,
            PolicyKind::Hybrid { epsilon: 0.4 },
        ];
        for policy in policies {
            for fanout in [1, 2, 4] {
                for ttl in [1, 2, 8, 50] {
                    let config = SchemeConfig::builder()
                        .policy(policy)
                        .fanout(fanout)
                        .ttl(ttl)
                        .top_k(3)
                        .build()
                        .unwrap();
                    let network =
                        SearchNetwork::build(&graph, corpus, &placement, &config, &mut rng)
                            .unwrap();
                    let walk_seed = rng.random();
                    let mut model_rng = StdRng::seed_from_u64(walk_seed);
                    let (want, scored) =
                        model_walk_scoring(&network, query, start, &mut model_rng);
                    let want = observe(want, &mut model_rng);
                    let kernel = forwarding::score_column(query, network.embeddings());
                    let stored: BTreeSet<NodeId> = scored
                        .into_iter()
                        .filter(|c| kernel[c.index()].to_bits() != UNSET)
                        .collect();

                    // The zero-length column, then a full one as it comes
                    // fresh and as the first walk left it.
                    let empty = LazyColumn::new(0);
                    let full = LazyColumn::new(graph.num_nodes());
                    for (pass, scores) in [&empty, &full, &full].into_iter().enumerate() {
                        let mut walk_rng = StdRng::seed_from_u64(walk_seed);
                        let got = walk::run_with(&network, query, start, &mut walk_rng, scores)
                            .unwrap();
                        let case = format!(
                            "{policy:?} fanout {fanout} ttl {ttl} pass {pass} \
                             shape {shape} n {n} start {start:?}"
                        );
                        prop_assert_eq!(&observe(got, &mut walk_rng), &want, "{}", case);
                        let set: BTreeSet<NodeId> = graph
                            .node_ids()
                            .filter(|u| full.get(u.index()).is_some())
                            .collect();
                        let filled = if pass == 0 { BTreeSet::new() } else { stored.clone() };
                        prop_assert_eq!(set, filled, "{}", case);
                    }
                }
            }
        }
    }
}

/// A finite query scaled until its dot products overflow: ±∞ scores (and the
/// NaN of ∞ − ∞) rank by the model's rule.
#[test]
fn an_overflowing_query_matches_the_reference_model() {
    let corpus = corpus();
    let mut overflowed = 0;
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (graph, start) = graph_and_start(seed as usize % SHAPES, 40, &mut rng);
        // Every word placed, so rows near crowded hosts outgrow the query's
        // peak component and their scores overflow.
        let words: Vec<WordId> = (0..150).map(WordId::new).collect();
        let placement = Placement::uniform(&graph, &words, &mut rng).unwrap();
        let word = corpus.embedding(WordId::new(rng.random_range(0..150)));
        let peak = word.as_slice().iter().fold(0.0f32, |m, x| m.max(x.abs()));
        let scaled = word.as_slice().iter().map(|x| x / peak * f32::MAX);
        let query = Embedding::new(scaled.collect());
        for policy in [PolicyKind::PprGreedy, PolicyKind::Hybrid { epsilon: 0.4 }] {
            let config = SchemeConfig::builder()
                .policy(policy)
                .fanout(2)
                .build()
                .unwrap();
            let network =
                SearchNetwork::build(&graph, corpus, &placement, &config, &mut rng).unwrap();
            let column = forwarding::score_column(&query, network.embeddings());
            overflowed += column.iter().filter(|s| !s.is_finite()).count();
            let mut model_rng = StdRng::seed_from_u64(seed);
            let want = model_walk(&network, &query, start, &mut model_rng);
            let mut walk_rng = StdRng::seed_from_u64(seed);
            let got = walk::run(&network, &query, start, &mut walk_rng).unwrap();
            assert_eq!(
                observe(got, &mut walk_rng),
                observe(want, &mut model_rng),
                "seed {seed} {policy:?}"
            );
        }
    }
    assert!(overflowed > 0, "no score overflowed");
}

/// A hub that has exchanged the query with every one of its leaves falls
/// back to all of them (footnote 9) and revisits one, with the model's
/// outcome. From the hub every leaf sends the query straight back, so the
/// hub's forwards are hops 1, 3, …, and on a star of L leaves its first L
/// reach every leaf once. Its (L + 1)-th, hop 2·L + 1, has no fresh leaf
/// left: without the fallback the walk would stop there, so reaching
/// `hops == ttl` at TTL 2·L + 2 is the proof that the fallback fired. L
/// runs from 65, the first star whose hub mask takes two words, to 128, the
/// last.
#[test]
fn a_hub_out_of_fresh_leaves_falls_back_to_every_leaf() {
    let corpus = corpus();
    for leaves in [65u32, 100, 128] {
        let graph = generators::star(leaves + 1);
        let ttl = 2 * leaves + 2;
        let mut rng = StdRng::seed_from_u64(u64::from(leaves));
        let words: Vec<WordId> = (0..10).map(WordId::new).collect();
        let placement = Placement::uniform(&graph, &words, &mut rng).unwrap();
        let query = corpus.embedding(WordId::new(rng.random_range(0..150)));
        for policy in [
            PolicyKind::PprGreedy,
            PolicyKind::RandomWalk,
            PolicyKind::DegreeBiased,
        ] {
            let config = SchemeConfig::builder()
                .policy(policy)
                .fanout(1)
                .ttl(ttl)
                .build()
                .unwrap();
            let network =
                SearchNetwork::build(&graph, corpus, &placement, &config, &mut rng).unwrap();
            let hub = NodeId::new(0);
            let mut walk_rng = StdRng::seed_from_u64(u64::from(ttl));
            let got = walk::run(&network, query, hub, &mut walk_rng).unwrap();
            assert_eq!(got.hops, ttl, "{policy:?}, {leaves} leaves: no fallback");
            assert_eq!(got.unique_nodes, graph.num_nodes(), "{policy:?}");
            let mut model_rng = StdRng::seed_from_u64(u64::from(ttl));
            let want = model_walk(&network, query, hub, &mut model_rng);
            assert_eq!(
                observe(got, &mut walk_rng),
                observe(want, &mut model_rng),
                "{policy:?}, {leaves} leaves"
            );
        }
    }
}

/// Flooding the paper's 4,039-node graph (seed 2022) from node 0 reaches
/// exactly the BFS ball of radius TTL, with the model's outcome, at TTL 6
/// and 8 (≈ 65k and 88k forwards). Paper scale takes seconds in a release
/// build and far longer in a debug one, so a debug `cargo test` skips it;
/// CI runs it with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "paper scale; CI runs it with --release")]
fn flooding_at_paper_scale_covers_the_bfs_ball() {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(2022);
    let graph = generators::social_circles_like(&mut rng).unwrap();
    let words: Vec<WordId> = (0..10).map(WordId::new).collect();
    let placement = Placement::uniform(&graph, &words, &mut rng).unwrap();
    let query = corpus.embedding(WordId::new(3));
    let start = NodeId::new(0);
    let distances = bfs::distances(&graph, start);
    for ttl in [6, 8] {
        let config = SchemeConfig::builder()
            .policy(PolicyKind::Flooding)
            .ttl(ttl)
            .build()
            .unwrap();
        let network = SearchNetwork::build(&graph, corpus, &placement, &config, &mut rng).unwrap();
        let ball = distances
            .iter()
            .filter(|d| d.is_some_and(|d| d <= ttl))
            .count();
        let mut walk_rng = StdRng::seed_from_u64(u64::from(ttl));
        let got = walk::run(&network, query, start, &mut walk_rng).unwrap();
        assert_eq!(got.unique_nodes, ball, "ttl {ttl}");
        let mut model_rng = StdRng::seed_from_u64(u64::from(ttl));
        let want = model_walk(&network, query, start, &mut model_rng);
        assert_eq!(
            observe(got, &mut walk_rng),
            observe(want, &mut model_rng),
            "ttl {ttl}"
        );
    }
}
