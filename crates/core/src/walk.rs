//! In-process execution of the query-forwarding protocol (paper §IV-C,
//! Fig. 1).
//!
//! This is the *fast path* used by the experiment harnesses: it runs the
//! exact node operations — local retrieval, TTL decrement, candidate
//! filtering through visited memory, policy-based forwarding — without the
//! message-passing machinery. [`crate::protocol`] implements the same
//! protocol over the discrete-event simulator; an integration test pins
//! their equivalence for deterministic policies.
//!
//! A walk's bookkeeping is one node table, the per-node memory of §IV-C
//! (the paper rejects a visited set carried in the message on privacy
//! grounds). The table holds a row for every node the query has visited or
//! been exchanged with — a visited flag and a bitmask over the node's
//! adjacency positions (⌈deg/64⌉ words in one arena) — appended when the
//! query first meets the node and never moved. Each head carries the row of
//! the node it is at, so a visit is a flag flip and the node's mask is at
//! hand; only the peer a forward reaches is looked up, by bisecting a
//! `(node, row)` index. A hop's candidates are the neighbours whose bit is
//! clear (each 64-neighbour chunk copied whole, then its few set positions
//! removed), or every neighbour when none is left (footnote 9), whatever
//! the policy. A forward sets one bit on each side. Everything is ordered
//! by value, so nothing a walk reads depends on a per-process hasher seed
//! (the standing hazard `tests/tests/walk_determinism.rs` pins), and
//! everything grows in place, so a hop that forwards one copy allocates
//! nothing once its buffers fit the neighbourhoods it meets, bar a 1 KB
//! page of its score column for each 256-node range it first scores in.
//! `tests/tests/walk_model.rs` holds the map-and-set walk this replaced as
//! the reference every outcome is compared against.

use std::collections::VecDeque;
use std::ops::Range;

use gdsearch_embed::topk::TopK;
use gdsearch_embed::Embedding;
use gdsearch_graph::{Graph, NodeId};
use rand::Rng;

use crate::forwarding::{self, ForwardContext, LazyColumn};
use crate::{DocId, SearchError, SearchNetwork};

/// A document a query found, with the hop at which its host was visited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoundDoc {
    /// The placed document.
    pub doc: DocId,
    /// Relevance score (dot product of query and document embeddings).
    pub score: f32,
    /// Number of forwards taken before the hosting node was reached
    /// (0 = the querying node itself).
    pub hop: u32,
}

/// Outcome of one query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkOutcome {
    /// The top-k most relevant documents encountered, best first.
    pub results: Vec<FoundDoc>,
    /// Nodes in visit order (first entry is the querying node). For
    /// parallel walks and flooding this is the global visit order.
    pub path: Vec<NodeId>,
    /// Total forward messages spent (the bandwidth cost the paper's
    /// related-work section compares policies by).
    pub hops: u32,
    /// Number of distinct nodes visited.
    pub unique_nodes: usize,
}

impl WalkOutcome {
    /// The hop at which `doc` was found, or `None` if it was not retrieved.
    pub fn hop_of(&self, doc: DocId) -> Option<u32> {
        self.results.iter().find(|f| f.doc == doc).map(|f| f.hop)
    }

    /// Whether `doc` is among the retrieved results.
    pub fn contains(&self, doc: DocId) -> bool {
        self.results.iter().any(|f| f.doc == doc)
    }
}

/// One active walk head: a query message traversing the overlay.
struct Head {
    at: NodeId,
    /// The row of `at` in the walk's [`NodeTable`].
    row: usize,
    ttl: u32,
    hop: u32,
}

/// One node a query has touched, in a [`NodeTable`].
struct Row {
    visited: bool,
    /// Where the node's mask starts in [`NodeTable::masks`].
    mask: usize,
}

/// Per-node memory of one query (§IV-C: received-from ∪ sent-to), for
/// every node it has visited or been exchanged with: whether the node was
/// visited, and a bitmask over its adjacency positions — bit i set once it
/// exchanged the query with its i-th neighbour — of ⌈deg/64⌉ words in one
/// arena. A node only ever exchanges the query with its neighbours, and the
/// graph is simple (no self-loops, no duplicate edges), so a clear bit is
/// exactly a neighbour not yet exchanged with.
///
/// Rows are appended in the order the query meets their nodes and never
/// move, so a row number stays valid for the whole walk: a [`Head`] carries
/// the row of the node it is at, and only a node met for the first time is
/// searched for, by bisecting `index`, which lists `(node, row)` ascending
/// by node.
#[derive(Default)]
struct NodeTable {
    rows: Vec<Row>,
    index: Vec<(NodeId, usize)>,
    masks: Vec<u64>,
}

impl NodeTable {
    /// The row of `u`, added unvisited with a clear mask when the query
    /// first meets `u`.
    fn row(&mut self, graph: &Graph, u: NodeId) -> usize {
        let at = self.index.partition_point(|&(node, _)| node < u);
        match self.index.get(at) {
            Some(&(node, row)) if node == u => row,
            _ => {
                let row = self.rows.len();
                let mask = self.masks.len();
                self.masks.resize(mask + graph.degree(u).div_ceil(64), 0);
                self.rows.push(Row {
                    visited: false,
                    mask,
                });
                self.index.insert(at, (u, row));
                row
            }
        }
    }

    /// Marks the node of `row` visited; `true` the first time.
    fn visit(&mut self, row: usize) -> bool {
        self.rows
            .get_mut(row)
            .is_some_and(|row| !std::mem::replace(&mut row.visited, true))
    }

    /// Where the mask of `u`, whose row is `row`, lies in `masks`.
    fn span(&self, graph: &Graph, u: NodeId, row: usize) -> Range<usize> {
        let words = graph.degree(u).div_ceil(64);
        self.rows
            .get(row)
            .map_or(0..0, |row| row.mask..row.mask + words)
    }

    /// The mask of `u`, whose row is `row`.
    fn mask(&self, graph: &Graph, u: NodeId, row: usize) -> &[u64] {
        self.masks.get(self.span(graph, u, row)).unwrap_or(&[])
    }

    /// Records that `u`, whose row is `row`, forwarded the query to its
    /// neighbour `v`; returns the row of `v`.
    fn record(&mut self, graph: &Graph, u: NodeId, row: usize, v: NodeId) -> usize {
        self.mark(graph, u, row, v);
        let peer = self.row(graph, v);
        self.mark(graph, v, peer, u);
        peer
    }

    /// Marks `peer` exchanged with in the mask of `node`, whose row is `row`.
    fn mark(&mut self, graph: &Graph, node: NodeId, row: usize, peer: NodeId) {
        let span = self.span(graph, node, row);
        if let Some(mask) = self.masks.get_mut(span) {
            forwarding::mark_exchanged(graph.neighbor_slice(node), mask, peer);
        }
    }
}

/// Executes a query from `start` over the prepared network.
///
/// Follows Fig. 1 of the paper at every visited node:
///
/// 1. evaluate the query against local documents (merging into the
///    query's top-k);
/// 2. decrement the TTL, discarding the walk when it expires;
/// 3. compute candidate next hops — neighbors not yet exchanged with for
///    this query (falling back to all neighbors when none remain,
///    footnote 9);
/// 4. forward according to the configured policy (greedy embedding match,
///    random, flooding, …), spawning `fanout` parallel heads.
///
/// Scores go through a column of the walk's own, so each distinct node
/// costs one dot product however many hops meet it.
///
/// # Errors
///
/// Returns [`SearchError::Graph`] if `start` is out of range, then
/// [`SearchError::Embed`] if the query dimension disagrees with the corpus
/// and [`SearchError::InvalidParameter`] naming the first query component
/// that is NaN or infinite.
pub fn run<R: Rng + ?Sized>(
    network: &SearchNetwork<'_>,
    query: &Embedding,
    start: NodeId,
    rng: &mut R,
) -> Result<WalkOutcome, SearchError> {
    let scores = LazyColumn::new(network.graph().num_nodes());
    run_with(network, query, start, rng, &scores)
}

/// [`run`]; `scores`, meant to be [`forwarding::score_column`] of this
/// query, is not read: the scoring kernel computes the same bits, so the
/// outcome is [`run`]'s whatever the slice holds.
///
/// # Errors
///
/// As [`run`].
pub fn run_scored<R: Rng + ?Sized>(
    network: &SearchNetwork<'_>,
    query: &Embedding,
    start: NodeId,
    rng: &mut R,
    _scores: Option<&[f32]>,
) -> Result<WalkOutcome, SearchError> {
    run(network, query, start, rng)
}

/// Refuses a query the walk and the protocol cannot score: one whose
/// width is not the network's `dim`, and one with a NaN or an infinite
/// component, whose scores would be NaN, so that it could only walk its
/// full TTL, as the serving engine refuses it with `NonFiniteQuery`.
///
/// # Errors
///
/// Returns [`SearchError::Embed`] with `DimensionMismatch` for the width
/// and [`SearchError::InvalidParameter`] naming the first non-finite
/// component.
pub(crate) fn check_query(query: &Embedding, dim: usize) -> Result<(), SearchError> {
    if query.dim() != dim {
        return Err(SearchError::Embed(
            gdsearch_embed::EmbedError::DimensionMismatch {
                expected: dim,
                got: query.dim(),
            },
        ));
    }
    if let Some((c, x)) = query.iter().enumerate().find(|(_, x)| !x.is_finite()) {
        return Err(SearchError::invalid_parameter(format!(
            "query component {c} is not finite ({x})"
        )));
    }
    Ok(())
}

/// The walk itself: [`run`] reading and filling candidate scores in
/// `scores`, which must belong to this `query` and this network's
/// embeddings (the serving engine passes a cached column). The outcome is
/// bitwise that of [`run`] whatever the column's length or fill.
///
/// # Errors
///
/// As [`run`].
pub fn run_with<R: Rng + ?Sized>(
    network: &SearchNetwork<'_>,
    query: &Embedding,
    start: NodeId,
    rng: &mut R,
    scores: &LazyColumn,
) -> Result<WalkOutcome, SearchError> {
    network.graph().check_node(start)?;
    check_query(query, network.dim())?;
    let config = network.config();
    let graph = network.graph();

    let mut results: TopK<(DocId, u32)> = TopK::new(config.top_k());
    let mut path: Vec<NodeId> = Vec::new();
    let mut table = NodeTable::default();
    let mut forwards = 0u32;
    // Hop buffers, reused by every forwarding decision of this walk.
    let mut fresh: Vec<NodeId> = Vec::new();
    let mut scratch = forwarding::Scratch::default();

    let mut frontier: VecDeque<Head> = VecDeque::new();
    frontier.push_back(Head {
        at: start,
        row: table.row(graph, start),
        ttl: config.ttl(),
        hop: 0,
    });

    while let Some(mut head) = frontier.pop_front() {
        let u = head.at;
        let first_visit = table.visit(head.row);
        // (1) Local retrieval: score every local document, merge into the
        // query's top-k. A document has one host, so recording on the first
        // visit records it once, at the first hop that reached it —
        // revisits contribute nothing new.
        if first_visit {
            path.push(u);
            for &doc in network.docs_at(u) {
                results.push(network.doc_score(query, doc), (doc, head.hop));
            }
        }
        // Flooding without duplicate suppression explodes; suppress
        // re-processing like real flooding implementations do.
        if config.policy() == crate::PolicyKind::Flooding && !first_visit {
            continue;
        }
        // (2) TTL check.
        if head.ttl == 0 {
            continue; // discard; response backtracks (not modeled here)
        }
        head.ttl -= 1;
        // (3) Candidate selection through visited memory (none for a node
        // without neighbors, which then forwards nothing).
        let neighbors = graph.neighbor_slice(u);
        let mask = table.mask(graph, u, head.row);
        let candidates = forwarding::unexchanged(neighbors, mask, &mut fresh);
        // (4) Policy decision. Fanout > 1 spawns parallel walks *at the
        // querying node* (§IV-C: "multiple walks are executed in
        // parallel"); every relay hop forwards a single copy — branching at
        // every hop would be exponential flooding, not parallel walks.
        let effective_fanout = if head.hop == 0 { config.fanout() } else { 1 };
        let ctx = ForwardContext {
            candidates,
            query,
            node_embeddings: network.diffused(),
            graph,
            fanout: effective_fanout,
            scores,
        };
        let picks = forwarding::select_next_hops(config.policy(), &ctx, rng, &mut scratch);
        for &v in picks {
            forwards += 1;
            frontier.push_back(Head {
                at: v,
                row: table.record(graph, u, head.row, v),
                ttl: head.ttl,
                hop: head.hop + 1,
            });
        }
    }

    let results = results
        .into_sorted()
        .into_iter()
        .map(|s| FoundDoc {
            doc: s.item.0,
            score: s.score,
            hop: s.item.1,
        })
        .collect();
    Ok(WalkOutcome {
        results,
        unique_nodes: path.len(),
        path,
        hops: forwards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Placement, PolicyKind, SchemeConfig};
    use gdsearch_embed::synthetic::SyntheticCorpus;
    use gdsearch_embed::{Corpus, WordId};
    use gdsearch_graph::{generators, Graph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn corpus(seed: u64) -> Corpus {
        SyntheticCorpus::builder()
            .vocab_size(120)
            .dim(24)
            .num_topics(6)
            .topic_noise(0.4)
            .background_fraction(0.2)
            .generate(&mut rng(seed))
            .unwrap()
    }

    fn network_on<'g>(
        graph: &'g Graph,
        corpus: &Corpus,
        placement: &Placement,
        config: &SchemeConfig,
        seed: u64,
    ) -> SearchNetwork<'g> {
        SearchNetwork::build(graph, corpus, placement, config, &mut rng(seed)).unwrap()
    }

    #[test]
    fn finds_local_document_at_hop_zero() {
        let g = generators::ring(6).unwrap();
        let c = corpus(1);
        let words = vec![WordId::new(0), WordId::new(1)];
        let mut r = rng(2);
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let net = network_on(&g, &c, &p, &SchemeConfig::default(), 3);
        let host = p.host(0);
        let out = run(&net, c.embedding(p.word(0)), host, &mut rng(4)).unwrap();
        assert_eq!(out.hop_of(0), Some(0));
        assert_eq!(out.path[0], host);
    }

    #[test]
    fn ttl_bounds_messages_for_single_walk() {
        let g = generators::ring(30).unwrap();
        let c = corpus(5);
        let words = vec![WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut rng(6)).unwrap();
        let cfg = SchemeConfig::builder().ttl(7).build().unwrap();
        let net = network_on(&g, &c, &p, &cfg, 7);
        let out = run(
            &net,
            c.embedding(WordId::new(3)),
            NodeId::new(0),
            &mut rng(8),
        )
        .unwrap();
        assert!(out.hops <= 7, "single walk spends at most TTL forwards");
        assert!(out.path.len() <= 8);
    }

    #[test]
    fn greedy_walk_reaches_adjacent_gold() {
        // Gold document on a neighbor: the first forwarding decision must
        // pick it (its diffused embedding carries the gold signal).
        let g = generators::complete(5);
        let c = corpus(9);
        let words = vec![WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut rng(10)).unwrap();
        let host = p.host(0);
        let start = NodeId::new((host.as_u32() + 1) % 5);
        let net = network_on(&g, &c, &p, &SchemeConfig::default(), 11);
        let out = run(&net, c.embedding(WordId::new(0)), start, &mut rng(12)).unwrap();
        assert_eq!(
            out.hop_of(0),
            Some(1),
            "gold one hop away must be hit first"
        );
    }

    #[test]
    fn flooding_covers_ttl_ball() {
        let g = generators::ring(12).unwrap();
        let c = corpus(13);
        let words = vec![WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut rng(14)).unwrap();
        let cfg = SchemeConfig::builder()
            .policy(PolicyKind::Flooding)
            .ttl(3)
            .build()
            .unwrap();
        let net = network_on(&g, &c, &p, &cfg, 15);
        let out = run(
            &net,
            c.embedding(WordId::new(1)),
            NodeId::new(0),
            &mut rng(16),
        )
        .unwrap();
        // Ring ball of radius 3 around node 0 = 7 nodes.
        assert_eq!(out.unique_nodes, 7);
    }

    #[test]
    fn fanout_spawns_parallel_heads() {
        let g = generators::complete(8);
        let c = corpus(17);
        let words = vec![WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut rng(18)).unwrap();
        let cfg = SchemeConfig::builder().fanout(2).ttl(2).build().unwrap();
        let net = network_on(&g, &c, &p, &cfg, 19);
        let out = run(
            &net,
            c.embedding(WordId::new(2)),
            NodeId::new(0),
            &mut rng(20),
        )
        .unwrap();
        // The origin spawns 2 walks; each walk spends at most TTL forwards.
        assert!(out.hops > 2, "fanout 2 must spend more than a single walk");
        assert!(out.hops <= 2 * 2);
    }

    #[test]
    fn node_memory_prefers_unvisited() {
        // On a path graph, node memory forces the walk to march outward
        // rather than oscillate.
        let g = generators::path(8);
        let c = corpus(25);
        let words = vec![WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut rng(26)).unwrap();
        let cfg = SchemeConfig::builder()
            .policy(PolicyKind::RandomWalk)
            .ttl(7)
            .build()
            .unwrap();
        let net = network_on(&g, &c, &p, &cfg, 27);
        let out = run(
            &net,
            c.embedding(WordId::new(1)),
            NodeId::new(0),
            &mut rng(28),
        )
        .unwrap();
        assert_eq!(out.unique_nodes, 8, "walk must sweep the whole path");
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = generators::ring(5).unwrap();
        let c = corpus(29);
        let words = vec![WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut rng(30)).unwrap();
        let net = network_on(&g, &c, &p, &SchemeConfig::default(), 31);
        assert!(run(
            &net,
            c.embedding(WordId::new(1)),
            NodeId::new(99),
            &mut rng(32)
        )
        .is_err());
        assert!(run(&net, &Embedding::zeros(3), NodeId::new(0), &mut rng(33)).is_err());
    }

    #[test]
    fn rejects_a_non_finite_query_by_component() {
        let g = generators::ring(5).unwrap();
        let c = corpus(29);
        let p = Placement::uniform(&g, &[WordId::new(0)], &mut rng(30)).unwrap();
        let net = network_on(&g, &c, &p, &SchemeConfig::default(), 31);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut query = c.embedding(WordId::new(1)).as_slice().to_vec();
            query[7] = bad;
            query[9] = bad;
            let walked = run(&net, &Embedding::new(query), NodeId::new(0), &mut rng(33));
            assert!(
                matches!(&walked, Err(SearchError::InvalidParameter { reason })
                    if reason.starts_with("query component 7 is not finite")),
                "{bad}: {walked:?}"
            );
        }
    }

    #[test]
    fn results_are_sorted_and_bounded() {
        let g = generators::complete(6);
        let c = corpus(34);
        let words: Vec<WordId> = (0..20).map(WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut rng(35)).unwrap();
        let cfg = SchemeConfig::builder().top_k(5).ttl(10).build().unwrap();
        let net = network_on(&g, &c, &p, &cfg, 36);
        let out = run(
            &net,
            c.embedding(WordId::new(50)),
            NodeId::new(0),
            &mut rng(37),
        )
        .unwrap();
        assert!(out.results.len() <= 5);
        for w in out.results.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn unbounded_top_k_returns_every_document_found() {
        let g = generators::ring(12).unwrap();
        let c = corpus(38);
        let words: Vec<WordId> = (0..30).map(WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut rng(39)).unwrap();
        let cfg = SchemeConfig::builder()
            .top_k(usize::MAX)
            .ttl(5)
            .build()
            .unwrap();
        let net = network_on(&g, &c, &p, &cfg, 40);
        let out = run(
            &net,
            c.embedding(WordId::new(50)),
            NodeId::new(0),
            &mut rng(41),
        )
        .unwrap();
        let mut found: Vec<DocId> = out.results.iter().map(|f| f.doc).collect();
        found.sort_unstable();
        let mut hosted: Vec<DocId> = out
            .path
            .iter()
            .flat_map(|&u| net.docs_at(u).iter().copied())
            .collect();
        hosted.sort_unstable();
        assert!(!hosted.is_empty());
        assert_eq!(found, hosted);
    }
}
