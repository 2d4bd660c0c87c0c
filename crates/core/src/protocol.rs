//! Message-passing implementation of the search protocol on the
//! discrete-event simulator.
//!
//! [`crate::walk`] executes the paper's node operations in-process; this
//! module runs the *same* protocol as real messages over
//! [`gdsearch_sim::Reactor`], including the response backtracking of §IV-C
//! ("when their TTL expires, a response message is returned to the querying
//! nodes via backtracking"). It exists to demonstrate the scheme end to end
//! under finite bandwidth, loss and churn, and to pin the fast path's
//! semantics: for the deterministic greedy policy both implementations
//! visit the same nodes (see the workspace integration tests).
//!
//! Message bookkeeping: every query hop is a fresh message id; each node
//! records, per received query message, who sent it and which child
//! messages it spawned. Responses reference the message id they answer, so
//! results merge hop by hop back to the origin. Only direct neighbors ever
//! learn of each other — matching the paper's privacy argument for keeping
//! visited-node memory at nodes instead of inside messages.
//!
//! Loss and churn caveat: a lost query or response message orphans its
//! subtree, so the origin never sees a completion for that query (a real
//! deployment would add timeouts). The protocol has no timers, so such a
//! run still drains: [`Reactor::run_to_completion`] returns and the
//! surviving handlers hold the partial state.

#![expect(
    clippy::expect_used,
    reason = "audited invariant expect()s: each site's message states the precondition that makes it unreachable"
)]

use std::collections::BTreeMap;
use std::sync::Arc;

use gdsearch_diffusion::Diffused;
use gdsearch_embed::topk::TopK;
use gdsearch_embed::Embedding;
use gdsearch_graph::{Graph, NodeId};
use gdsearch_sim::{NodeApi, NodeHandler, Reactor, TransportConfig, WireMessage};

use crate::forwarding::{self, ForwardContext, LazyColumn};
use crate::{DocId, PolicyKind, SearchError, SearchNetwork};

/// A query or response message of the search protocol.
#[derive(Debug, Clone)]
pub enum SearchMessage {
    /// A forwarded query (paper Fig. 1 input).
    Query {
        /// Query identifier (unique per issued query).
        query_id: u64,
        /// Unique id of this hop's message.
        msg_id: u64,
        /// The query embedding.
        embedding: Embedding,
        /// Remaining hops.
        ttl: u32,
        /// Hops taken so far.
        hop: u32,
    },
    /// A backtracking response carrying gathered results.
    Response {
        /// Query identifier.
        query_id: u64,
        /// The query message this answers.
        answers_msg: u64,
        /// Results gathered in the answered subtree:
        /// `(doc, score, found-at-hop)`.
        results: Vec<(DocId, f32, u32)>,
    },
}

impl WireMessage for SearchMessage {
    fn wire_size(&self) -> usize {
        match self {
            // query_id + msg_id (16) + ttl + hop (8) + length-prefixed f32s.
            SearchMessage::Query { embedding, .. } => 24 + 4 + 4 * embedding.dim(),
            // query_id + answers_msg (16) + count (4) + triples (4+4+4 each).
            SearchMessage::Response { results, .. } => 20 + 12 * results.len(),
        }
    }
}

/// Per-message state a node keeps while the subtree below it is still
/// being explored.
#[derive(Debug)]
struct PendingMessage {
    /// Who sent this query message (`None` at the origin).
    from: Option<NodeId>,
    /// Child messages still owed a response.
    pending_children: usize,
    /// Results merged so far (own documents + children's responses).
    gathered: Vec<(DocId, f32, u32)>,
}

/// Final outcome of a query at its origin node.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedQuery {
    /// The query id.
    pub query_id: u64,
    /// Results merged from the whole walk tree, best-first, truncated to
    /// the configured top-k: `(doc, score, found-at-hop)`.
    pub results: Vec<(DocId, f32, u32)>,
}

/// Node handler implementing the paper's protocol (Fig. 1) over the
/// simulator.
#[derive(Debug)]
pub struct SearchNode {
    node: NodeId,
    /// Local documents: `(doc id, embedding)`.
    docs: Vec<(DocId, Embedding)>,
    /// Diffused embeddings — stands in for the neighbor embeddings every
    /// node stores after diffusion (§IV-B: nodes keep "track of the
    /// embeddings of the one-hop neighbors"). A node only ever reads its
    /// neighbors' rows.
    embeddings: Arc<Diffused>,
    graph: Arc<Graph>,
    policy: PolicyKind,
    fanout: usize,
    top_k: usize,
    /// Per-query memory of neighbors exchanged with (received-from ∪
    /// sent-to, §IV-C): a bitmask over this node's adjacency positions, as
    /// [`forwarding::mark_exchanged`] sets it. A query with no entry has
    /// exchanged with nobody.
    /// Ordered maps throughout: protocol replay must be bit-identical
    /// across processes, and hash iteration order is seeded per process.
    used: BTreeMap<u64, Vec<u64>>,
    /// Response bookkeeping per received query message.
    pending: BTreeMap<u64, PendingMessage>,
    /// Maps child message ids we created to the received message they
    /// continue.
    child_to_parent: BTreeMap<u64, u64>,
    /// Local message counter, combined with the node id for global
    /// uniqueness.
    next_msg: u64,
    /// Queries completed at this node (it was their origin).
    completed: Vec<CompletedQuery>,
}

impl SearchNode {
    /// Queries completed at this node so far.
    pub fn completed(&self) -> &[CompletedQuery] {
        &self.completed
    }

    fn fresh_msg_id(&mut self) -> u64 {
        let id = (u64::from(self.node.as_u32()) << 32) | self.next_msg;
        self.next_msg += 1;
        id
    }

    /// Records that this node exchanged query `query_id` with `peer`.
    fn exchange(&mut self, query_id: u64, peer: NodeId) {
        let neighbors = self.graph.neighbor_slice(self.node);
        let mask = self
            .used
            .entry(query_id)
            .or_insert_with(|| vec![0; neighbors.len().div_ceil(64)]);
        forwarding::mark_exchanged(neighbors, mask, peer);
    }

    /// Local retrieval: scores of all local documents for `query`.
    fn local_results(&self, query: &Embedding, hop: u32) -> Vec<(DocId, f32, u32)> {
        self.docs
            .iter()
            .map(|(doc, emb)| {
                let score = gdsearch_embed::similarity::dot(query, emb)
                    .expect("protocol messages carry corpus-dimension embeddings");
                (*doc, score, hop)
            })
            .collect()
    }

    /// If `msg_id` has no outstanding children, responds towards the
    /// origin (or records completion when this node *is* the origin).
    fn settle(&mut self, msg_id: u64, query_id: u64, api: &mut NodeApi<'_, SearchMessage>) {
        let done = matches!(self.pending.get(&msg_id), Some(r) if r.pending_children == 0);
        if !done {
            return;
        }
        let Some(record) = self.pending.remove(&msg_id) else {
            return; // unreachable: `done` implies the entry exists
        };
        match record.from {
            Some(parent) => api.send(
                parent,
                SearchMessage::Response {
                    query_id,
                    answers_msg: msg_id,
                    results: record.gathered,
                },
            ),
            None => {
                // Origin: dedup by document (a revisited host reports its
                // documents once per visit; keep the earliest hop), then
                // fold into the final top-k. BTreeMap keeps tie order
                // deterministic.
                let mut best: std::collections::BTreeMap<DocId, (f32, u32)> =
                    std::collections::BTreeMap::new();
                for (doc, score, hop) in record.gathered {
                    best.entry(doc)
                        .and_modify(|e| e.1 = e.1.min(hop))
                        .or_insert((score, hop));
                }
                let mut top = TopK::new(self.top_k);
                for (doc, (score, hop)) in best {
                    top.push(score, (doc, hop));
                }
                let results = top
                    .into_sorted()
                    .into_iter()
                    .map(|s| (s.item.0, s.score, s.item.1))
                    .collect();
                self.completed.push(CompletedQuery { query_id, results });
                self.used.remove(&query_id);
            }
        }
    }
}

impl NodeHandler<SearchMessage> for SearchNode {
    fn handle(
        &mut self,
        from: Option<NodeId>,
        msg: SearchMessage,
        api: &mut NodeApi<'_, SearchMessage>,
    ) {
        match msg {
            SearchMessage::Query {
                query_id,
                msg_id,
                embedding,
                ttl,
                hop,
            } => {
                // Remember whom we received from (paper §IV-C memory).
                if let Some(p) = from {
                    self.exchange(query_id, p);
                }
                // 1. Local retrieval.
                let gathered = self.local_results(&embedding, hop);
                // 2-4. TTL check, candidate filtering, policy decision —
                // the filter and the selection `walk.rs` runs.
                let mut fresh = Vec::new();
                let mut scratch = forwarding::Scratch::default();
                let mut targets: &[NodeId] = &[];
                if ttl > 0 {
                    let neighbors = self.graph.neighbor_slice(self.node);
                    let mask = self.used.get(&query_id).map_or(&[][..], Vec::as_slice);
                    let candidates = forwarding::unexchanged(neighbors, mask, &mut fresh);
                    // Fanout applies at the querying node only (hop 0);
                    // relays forward a single copy — see walk.rs.
                    let effective_fanout = if hop == 0 { self.fanout } else { 1 };
                    let ctx = ForwardContext {
                        candidates,
                        query: &embedding,
                        node_embeddings: &self.embeddings,
                        graph: &self.graph,
                        fanout: effective_fanout,
                        // A message meets each candidate once: nothing to
                        // store, so every score comes from the kernel.
                        scores: &LazyColumn::new(0),
                    };
                    targets =
                        forwarding::select_next_hops(self.policy, &ctx, api.rng(), &mut scratch);
                }
                self.pending.insert(
                    msg_id,
                    PendingMessage {
                        from,
                        pending_children: targets.len(),
                        gathered,
                    },
                );
                for &v in targets {
                    self.exchange(query_id, v);
                    let child_id = self.fresh_msg_id();
                    self.child_to_parent.insert(child_id, msg_id);
                    api.send(
                        v,
                        SearchMessage::Query {
                            query_id,
                            msg_id: child_id,
                            embedding: embedding.clone(),
                            ttl: ttl - 1,
                            hop: hop + 1,
                        },
                    );
                }
                // Leaf (TTL expired or no forwarding): respond immediately.
                self.settle(msg_id, query_id, api);
            }
            SearchMessage::Response {
                query_id,
                answers_msg,
                results,
            } => {
                let Some(parent_msg) = self.child_to_parent.remove(&answers_msg) else {
                    return; // stale response (e.g. after loss); drop
                };
                if let Some(record) = self.pending.get_mut(&parent_msg) {
                    record.gathered.extend(results);
                    record.pending_children -= 1;
                }
                self.settle(parent_msg, query_id, api);
            }
        }
    }
}

/// Builds a [`Reactor`] whose handlers run the search protocol with the
/// state of `network` (documents, diffused embeddings, policy). Drive it
/// with [`issue_query`] and the reactor's own `run_to_completion`, then
/// read `stats()`, `link_stats(..)`, `now_tick()` and
/// `handler(origin)?.completed()`.
///
/// # Example
///
/// ```
/// use gdsearch::protocol;
/// use gdsearch::{Placement, SchemeConfig, SearchNetwork};
/// use gdsearch_sim::TransportConfig;
/// # use gdsearch_embed::synthetic::SyntheticCorpus;
/// # use gdsearch_graph::generators;
/// # use rand::SeedableRng;
/// # use rand::rngs::StdRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let mut rng = StdRng::seed_from_u64(5);
/// # let graph = generators::social_circles_like_scaled(30, &mut rng)?;
/// # let corpus = SyntheticCorpus::builder().vocab_size(60).dim(8).generate(&mut rng)?;
/// # let words = vec![gdsearch_embed::WordId::new(0)];
/// # let placement = Placement::uniform(&graph, &words, &mut rng)?;
/// # let cfg = SchemeConfig::builder().ttl(5).build()?;
/// # let scheme = SearchNetwork::build(&graph, &corpus, &placement, &cfg, &mut rng)?;
/// let mut net = protocol::build(&scheme, TransportConfig::default().with_bandwidth(1_000)?)?;
/// let origin = gdsearch_graph::NodeId::new(3);
/// let query = corpus.embedding(gdsearch_embed::WordId::new(1)).clone();
/// protocol::issue_query(&mut net, origin, 1, query, 5)?;
/// net.run_to_completion(100_000)?;
/// assert_eq!(net.handler(origin)?.completed().len(), 1);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn build(
    network: &SearchNetwork<'_>,
    transport: TransportConfig,
) -> Result<Reactor<SearchMessage, SearchNode>, SearchError> {
    let graph = Arc::new(network.graph().clone());
    let embeddings = Arc::new(network.diffused().clone());
    let config = network.config();
    let handlers = network
        .graph()
        .node_ids()
        .map(|u| SearchNode {
            node: u,
            docs: network
                .docs_at(u)
                .iter()
                .map(|&d| (d, network.doc_embedding(d).clone()))
                .collect(),
            embeddings: embeddings.clone(),
            graph: graph.clone(),
            policy: config.policy(),
            fanout: config.fanout(),
            top_k: config.top_k(),
            used: BTreeMap::new(),
            pending: BTreeMap::new(),
            child_to_parent: BTreeMap::new(),
            next_msg: 0,
            completed: Vec::new(),
        })
        .collect();
    Ok(Reactor::new(network.graph().clone(), handlers, transport)?)
}

/// Issues a query into a protocol network at `origin`.
///
/// # Errors
///
/// Returns [`SearchError::Sim`] for unknown origins, and
/// [`SearchError::Embed`] with `DimensionMismatch` for a query whose
/// dimension differs from the network's embeddings and
/// [`SearchError::InvalidParameter`] for one with a NaN or infinite
/// component, as [`walk::run`] does; none injects a message.
///
/// [`walk::run`]: crate::walk::run
pub fn issue_query(
    net: &mut Reactor<SearchMessage, SearchNode>,
    origin: NodeId,
    query_id: u64,
    embedding: Embedding,
    ttl: u32,
) -> Result<(), SearchError> {
    let handler = net.handler_mut(origin)?;
    // Every diffused row is one embedding wide.
    crate::walk::check_query(&embedding, handler.embeddings.row(origin.index()).len())?;
    let msg_id = handler.fresh_msg_id();
    net.inject(
        origin,
        SearchMessage::Query {
            query_id,
            msg_id,
            embedding,
            ttl,
            hop: 0,
        },
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Placement, SchemeConfig};
    use gdsearch_embed::querygen::{self, QueryGenConfig};
    use gdsearch_embed::synthetic::SyntheticCorpus;
    use gdsearch_embed::Corpus;
    use gdsearch_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn corpus(seed: u64) -> Corpus {
        SyntheticCorpus::builder()
            .vocab_size(150)
            .dim(24)
            .num_topics(6)
            .topic_noise(0.4)
            .generate(&mut rng(seed))
            .unwrap()
    }

    #[test]
    fn single_walk_completes_and_finds_adjacent_gold() {
        let mut r = rng(1);
        let g = generators::social_circles_like_scaled(60, &mut r).unwrap();
        let c = corpus(2);
        let queries = querygen::generate(
            &c,
            QueryGenConfig {
                num_queries: 3,
                min_cosine: 0.6,
            },
            &mut r,
        )
        .unwrap();
        assert!(!queries.is_empty());
        let pair = queries.pairs()[0];
        let mut words = vec![pair.gold];
        words.extend(queries.irrelevant().iter().copied().take(4));
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let cfg = SchemeConfig::builder().ttl(20).build().unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &cfg, &mut r).unwrap();
        // Start adjacent to the gold host.
        let host = p.host(0);
        let start = g.neighbor_slice(host)[0];
        let mut net = build(&scheme, TransportConfig::unbounded()).unwrap();
        issue_query(&mut net, start, 7, c.embedding(pair.query).clone(), 20).unwrap();
        net.run_to_completion(100_000).unwrap();
        let completed = net.handler(start).unwrap().completed();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].query_id, 7);
        assert!(
            completed[0].results.iter().any(|(d, _, _)| *d == 0),
            "gold one hop away must be retrieved: {:?}",
            completed[0].results
        );
    }

    #[test]
    fn a_query_of_the_wrong_dimension_is_refused_before_injection() {
        let mut r = rng(3);
        let g = generators::ring(12).unwrap();
        let c = corpus(4);
        let words: Vec<_> = (0..2).map(gdsearch_embed::WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &SchemeConfig::default(), &mut r).unwrap();
        let mut net = build(&scheme, TransportConfig::unbounded()).unwrap();
        // The origin hosts documents, whose local scoring would panic on
        // a query of another dimension.
        let origin = p.host(0);
        let refused = issue_query(&mut net, origin, 1, Embedding::zeros(3), 5);
        assert!(matches!(
            refused,
            Err(SearchError::Embed(
                gdsearch_embed::EmbedError::DimensionMismatch {
                    expected: 24,
                    got: 3
                }
            ))
        ));
        assert!(net.is_idle());
        assert_eq!(net.run_to_completion(100).unwrap(), 0);
        assert!(net.handler(origin).unwrap().completed().is_empty());
    }

    #[test]
    fn a_non_finite_query_is_refused_before_injection() {
        let mut r = rng(3);
        let g = generators::ring(12).unwrap();
        let c = corpus(4);
        let words: Vec<_> = (0..2).map(gdsearch_embed::WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &SchemeConfig::default(), &mut r).unwrap();
        let mut net = build(&scheme, TransportConfig::unbounded()).unwrap();
        let origin = p.host(0);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut query = c.embeddings()[0].as_slice().to_vec();
            query[4] = bad;
            let refused = issue_query(&mut net, origin, 1, Embedding::new(query), 5);
            assert!(
                matches!(&refused, Err(SearchError::InvalidParameter { reason })
                    if reason.starts_with("query component 4 is not finite")),
                "{bad}: {refused:?}"
            );
        }
        assert!(net.is_idle());
        assert_eq!(net.run_to_completion(100).unwrap(), 0);
        assert!(net.handler(origin).unwrap().completed().is_empty());
    }

    #[test]
    fn response_backtracks_under_latency() {
        let mut r = rng(3);
        let g = generators::ring(12).unwrap();
        let c = corpus(4);
        let words = vec![gdsearch_embed::WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let cfg = SchemeConfig::builder().ttl(5).build().unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &cfg, &mut r).unwrap();
        let mut net = build(&scheme, TransportConfig::unbounded().with_seed(5)).unwrap();
        let origin = NodeId::new(3);
        issue_query(
            &mut net,
            origin,
            1,
            c.embedding(gdsearch_embed::WordId::new(1)).clone(),
            5,
        )
        .unwrap();
        net.run_to_completion(10_000).unwrap();
        assert_eq!(
            net.handler(origin).unwrap().completed().len(),
            1,
            "origin must receive the backtracked response"
        );
        // 5 forwards out + 5 responses back at one tick per hop, plus the
        // injection tick.
        assert_eq!(net.now_tick(), 11);
        // Forward query messages are larger than responses here; count both.
        assert_eq!(net.stats().sent, 10);
    }

    #[test]
    fn fanout_tree_merges_all_branches() {
        let mut r = rng(6);
        let g = generators::complete(8);
        let c = corpus(7);
        let words: Vec<_> = (0..6).map(gdsearch_embed::WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let cfg = SchemeConfig::builder()
            .ttl(2)
            .fanout(3)
            .top_k(4)
            .build()
            .unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &cfg, &mut r).unwrap();
        let mut net = build(&scheme, TransportConfig::unbounded()).unwrap();
        let origin = NodeId::new(0);
        issue_query(
            &mut net,
            origin,
            9,
            c.embedding(gdsearch_embed::WordId::new(10)).clone(),
            2,
        )
        .unwrap();
        net.run_to_completion(100_000).unwrap();
        let completed = net.handler(origin).unwrap().completed();
        assert_eq!(completed.len(), 1);
        assert!(completed[0].results.len() <= 4);
        // Every result's hop is within the TTL.
        for (_, _, hop) in &completed[0].results {
            assert!(*hop <= 2);
        }
    }

    #[test]
    fn lost_messages_orphan_the_walk() {
        let mut r = rng(8);
        let g = generators::ring(6).unwrap();
        let c = corpus(9);
        let words = vec![gdsearch_embed::WordId::new(0)];
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let cfg = SchemeConfig::builder().ttl(4).build().unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &cfg, &mut r).unwrap();
        let transport = TransportConfig::unbounded()
            .with_loss_probability(1.0)
            .unwrap();
        let mut net = build(&scheme, transport).unwrap();
        let origin = NodeId::new(0);
        issue_query(
            &mut net,
            origin,
            2,
            c.embedding(gdsearch_embed::WordId::new(1)).clone(),
            4,
        )
        .unwrap();
        net.run_to_completion(10_000).unwrap();
        // The first forward is lost; with everything dropped the origin
        // never completes (documented protocol limitation without timers).
        assert!(net.handler(origin).unwrap().completed().is_empty());
        assert_eq!(net.stats().lost, 1);
    }

    #[test]
    fn bounded_links_agree_with_unbounded_for_deterministic_policy() {
        // PprGreedy consumes no randomness, so ample finite links (1 MiB
        // per tick) must not change the walk: completed results, message
        // counts and the tick count coincide with the unbounded preset.
        // The independent reference for the
        // link fabric itself is the per-tick model in
        // `sim/tests/properties.rs`.
        let mut r = rng(21);
        let g = generators::social_circles_like_scaled(50, &mut r).unwrap();
        let c = corpus(22);
        let words: Vec<_> = (0..5).map(gdsearch_embed::WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let cfg = SchemeConfig::builder().ttl(12).top_k(3).build().unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &cfg, &mut r).unwrap();
        let origin = NodeId::new(7);
        let query = c.embedding(gdsearch_embed::WordId::new(8)).clone();
        let run = |transport: TransportConfig| {
            let mut net = build(&scheme, transport).unwrap();
            issue_query(&mut net, origin, 4, query.clone(), 12).unwrap();
            net.run_to_completion(1_000_000).unwrap();
            let done = net.handler(origin).unwrap().completed().to_vec();
            (done, *net.stats(), net.now_tick())
        };
        let (unbounded_done, unbounded_stats, unbounded_ticks) = run(TransportConfig::unbounded());
        let bounded = TransportConfig::default().with_bandwidth(1 << 20).unwrap();
        let (bounded_done, bounded_stats, bounded_ticks) = run(bounded);
        assert_eq!(unbounded_done.len(), 1);
        assert_eq!(unbounded_done, bounded_done);
        assert_eq!(unbounded_stats.sent, bounded_stats.sent);
        assert_eq!(unbounded_stats.delivered, bounded_stats.delivered);
        assert_eq!(unbounded_stats.bytes_sent, bounded_stats.bytes_sent);
        assert_eq!(unbounded_ticks, bounded_ticks);
        assert_eq!(bounded_stats.dropped_total(), 0);
    }

    #[test]
    fn saturated_links_backpressure_flooding() {
        // Flooding a narrow-link network must saturate queues: either
        // messages wait (queue delay) or overflow (backpressure drops).
        let mut r = rng(31);
        let g = generators::social_circles_like_scaled(40, &mut r).unwrap();
        let c = corpus(32);
        let words: Vec<_> = (0..4).map(gdsearch_embed::WordId::new).collect();
        let p = Placement::uniform(&g, &words, &mut r).unwrap();
        let cfg = SchemeConfig::builder()
            .ttl(4)
            .policy(crate::PolicyKind::Flooding)
            .build()
            .unwrap();
        let scheme = SearchNetwork::build(&g, &c, &p, &cfg, &mut r).unwrap();
        let transport = TransportConfig::default()
            .with_bandwidth(64)
            .unwrap()
            .with_queue_capacity(3)
            .unwrap();
        let mut net = build(&scheme, transport).unwrap();
        let origin = NodeId::new(0);
        issue_query(
            &mut net,
            origin,
            1,
            c.embedding(gdsearch_embed::WordId::new(5)).clone(),
            4,
        )
        .unwrap();
        net.run_to_completion(1_000_000).unwrap();
        let stats = net.stats();
        assert!(
            stats.queue_delay.sum() > 0 || stats.dropped_backpressure > 0,
            "narrow links must queue or drop: {stats:?}"
        );
        assert!(stats.max_queue_depth > 1);
    }

    #[test]
    fn wire_sizes_are_consistent() {
        let q = SearchMessage::Query {
            query_id: 1,
            msg_id: 2,
            embedding: Embedding::zeros(16),
            ttl: 5,
            hop: 0,
        };
        assert_eq!(q.wire_size(), 24 + 4 + 64);
        let r = SearchMessage::Response {
            query_id: 1,
            answers_msg: 2,
            results: vec![(0, 1.0, 3), (1, 0.5, 2)],
        };
        assert_eq!(r.wire_size(), 20 + 24);
    }
}
