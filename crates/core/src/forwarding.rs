//! Forwarding policies: how a node picks next hops for a query.
//!
//! The paper's scheme (§IV-C) matches the query embedding against the
//! *diffused* embeddings of candidate neighbors by dot product and forwards
//! to the best — a biased random walk. The other variants are the blind
//! baselines the related-work section positions the scheme against
//! (flooding, uniform random walks) plus two common heuristics
//! (degree-biased, ε-greedy hybrid) used in the ablation benches.

use std::sync::atomic::{AtomicU32, Ordering};

use gdsearch_diffusion::Signal;
use gdsearch_embed::Embedding;
use gdsearch_graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// The available forwarding policies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PolicyKind {
    /// The paper's policy: forward to the `fanout` candidates whose
    /// diffused embeddings score highest (dot product) against the query.
    #[default]
    PprGreedy,
    /// Blind uniform random walk (classic baseline).
    RandomWalk,
    /// Forward to the highest-degree candidates (hub-seeking heuristic).
    DegreeBiased,
    /// Forward to *every* candidate (Gnutella-style flooding; TTL-bounded).
    Flooding,
    /// ε-greedy: with probability `epsilon` act like [`PolicyKind::RandomWalk`],
    /// otherwise like [`PolicyKind::PprGreedy`]. Trades exploitation for
    /// exploration.
    Hybrid {
        /// Exploration probability in `[0, 1]`.
        epsilon: f32,
    },
}

/// Everything a policy may consult when choosing next hops.
#[derive(Debug)]
pub struct ForwardContext<'a> {
    /// The node making the decision.
    pub node: NodeId,
    /// Eligible next hops (unvisited neighbors, or all neighbors as the
    /// paper's footnote-9 fallback): what [`candidates`] returns.
    pub candidates: &'a [NodeId],
    /// The query embedding.
    pub query: &'a Embedding,
    /// Diffused node embeddings (`E` of Eq. 6), indexed by node.
    pub node_embeddings: &'a Signal,
    /// The overlay graph (for degree lookups).
    pub graph: &'a Graph,
    /// How many next hops to select (ignored by flooding, which takes all).
    pub fanout: usize,
    /// Where candidate scores come from (see [`Scores`]).
    pub scores: Scores<'a>,
}

/// The source of a walk's query-vs-embedding scores. Every variant yields,
/// for every node, the bits of the one scoring kernel — so the choice
/// changes how much work a walk does, never a forwarding decision.
#[derive(Debug, Clone, Copy)]
pub enum Scores<'a> {
    /// Compute each dot product when a candidate is scored.
    Inline,
    /// A full column indexed by node id; entries must equal
    /// [`score_column`] of the same query and embeddings. Nodes past its
    /// end are scored inline.
    Column(&'a [f32]),
    /// A column filled on first touch (the serving engine's hot-column
    /// cache); must only ever be used with one query and one embedding
    /// matrix.
    Lazy(&'a LazyColumn),
}

/// Bit pattern of a cell no walk has scored yet: a NaN, so no finite score
/// collides with it. A kernel result with exactly these bits is never
/// stored and is recomputed on every read — slower, same value.
const UNSET: u32 = u32::MAX;

/// One query's score column over all nodes, filled cell by cell as walks
/// touch candidates, so a walk pays for the nodes it visits and not for N.
///
/// Cells are shared between concurrent walks without a lock. Racing
/// writers of one cell store identical bits — a score is a pure function
/// of (query, embeddings, node) — so a reader sees either "unset" (and
/// recomputes) or the final value, and `Relaxed` suffices: a cell
/// publishes nothing but itself.
#[derive(Debug)]
pub struct LazyColumn {
    cells: Vec<AtomicU32>,
}

impl LazyColumn {
    /// A column of `num_nodes` unset cells.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        LazyColumn {
            cells: (0..num_nodes).map(|_| AtomicU32::new(UNSET)).collect(),
        }
    }

    /// The stored score of `node`, or `None` while its cell is unset (or
    /// `node` is past the column's end).
    #[must_use]
    pub fn get(&self, node: usize) -> Option<f32> {
        let bits = self.cells.get(node)?.load(Ordering::Relaxed);
        (bits != UNSET).then(|| f32::from_bits(bits))
    }

    /// The score of `node`: its cell if set, else `compute()`, stored for
    /// the next reader.
    fn get_or_fill(&self, node: usize, compute: impl FnOnce() -> f32) -> f32 {
        let Some(cell) = self.cells.get(node) else {
            return compute();
        };
        let bits = cell.load(Ordering::Relaxed);
        if bits != UNSET {
            return f32::from_bits(bits);
        }
        let score = compute();
        cell.store(score.to_bits(), Ordering::Relaxed);
        score
    }
}

/// The scheme's scoring kernel: dot product of the query with one diffused
/// embedding row. Single source of truth for [`candidate_score`] (inline
/// and lazy fill) and [`score_column`], so every [`Scores`] variant
/// reproduces the inline computation bit for bit.
fn dot_row(query: &Embedding, emb: &[f32]) -> f32 {
    query.as_slice().iter().zip(emb).map(|(q, e)| q * e).sum()
}

/// Scores a candidate exactly as the paper's nodes do: dot product of the
/// query with the candidate's diffused embedding, read from or filled into
/// [`ForwardContext::scores`] when a column is attached.
pub fn candidate_score(ctx: &ForwardContext<'_>, candidate: NodeId) -> f32 {
    let u = candidate.index();
    let inline = || dot_row(ctx.query, ctx.node_embeddings.row(u));
    match ctx.scores {
        Scores::Inline => inline(),
        Scores::Column(column) => column.get(u).copied().unwrap_or_else(inline),
        Scores::Lazy(column) => column.get_or_fill(u, inline),
    }
}

/// The full score column of one query against every node's diffused
/// embedding, computed with the exact per-candidate kernel of
/// [`candidate_score`]. A walk that reads this column through
/// [`Scores::Column`] makes bitwise-identical forwarding decisions to one
/// that computes dot products inline. It costs a pass over all N rows, so
/// the serving engine fills a [`LazyColumn`] instead; this stays as the
/// reference the lazy column is tested against.
#[must_use]
pub fn score_column(query: &Embedding, node_embeddings: &Signal) -> Vec<f32> {
    (0..node_embeddings.num_nodes())
        .map(|u| dot_row(query, node_embeddings.row(u)))
        .collect()
}

/// The buffers forwarding decisions are made in. Whoever runs a walk owns
/// one and lends it to every [`select_next_hops`] call, so once the buffers
/// have grown to the largest neighbourhood met, a hop allocates nothing —
/// and since no two walks share one, nothing here is global or locked.
#[derive(Debug, Default)]
pub struct Scratch {
    /// `(score, candidate)` pairs the scored policies rank in place.
    scored: Vec<(f32, NodeId)>,
    /// The selection of the latest [`select_next_hops`] call.
    picks: Vec<NodeId>,
}

/// Candidate next hops of a node (Fig. 1, step 3): its `neighbors` minus the
/// nodes in `used`, or all of them when none is left (footnote 9: never
/// waste the forwarding opportunity). Both inputs ascend — adjacency lists
/// by construction, visited memories because they are kept sorted — so one
/// merge pass filters them into `fresh`, the caller's buffer.
pub fn candidates<'a>(
    neighbors: &'a [NodeId],
    used: impl IntoIterator<Item = NodeId>,
    fresh: &'a mut Vec<NodeId>,
) -> &'a [NodeId] {
    fresh.clear();
    let mut used = used.into_iter().peekable();
    for &v in neighbors {
        while used.next_if(|&w| w < v).is_some() {}
        if used.peek() != Some(&v) {
            fresh.push(v);
        }
    }
    if fresh.is_empty() {
        neighbors
    } else {
        fresh
    }
}

/// Selects next hops under the given policy into `scratch` and returns
/// them: at most `ctx.fanout` hops (all candidates for flooding); an empty
/// slice of candidates yields an empty selection.
///
/// Deterministic for [`PolicyKind::PprGreedy`] and
/// [`PolicyKind::DegreeBiased`] (ties broken by ascending node id);
/// randomized policies consume from `rng`.
pub fn select_next_hops<'s, R: Rng + ?Sized>(
    kind: PolicyKind,
    ctx: &ForwardContext<'_>,
    rng: &mut R,
    scratch: &'s mut Scratch,
) -> &'s [NodeId] {
    scratch.picks.clear();
    if ctx.candidates.is_empty() || ctx.fanout == 0 {
        return &scratch.picks;
    }
    match kind {
        PolicyKind::PprGreedy => {
            let score = |c| candidate_score(ctx, c);
            top_by_quantized(ctx.candidates, ctx.fanout, score, scratch);
        }
        PolicyKind::DegreeBiased => {
            let score = |c| ctx.graph.degree(c) as f32;
            top_by(ctx.candidates, ctx.fanout, score, scratch);
        }
        PolicyKind::RandomWalk => {
            scratch.picks.extend_from_slice(ctx.candidates);
            scratch.picks.shuffle(rng);
            scratch.picks.truncate(ctx.fanout);
        }
        PolicyKind::Flooding => scratch.picks.extend_from_slice(ctx.candidates),
        PolicyKind::Hybrid { epsilon } => {
            let explore = epsilon > 0.0 && rng.random_bool(f64::from(epsilon.clamp(0.0, 1.0)));
            let kind = if explore {
                PolicyKind::RandomWalk
            } else {
                PolicyKind::PprGreedy
            };
            select_next_hops(kind, ctx, rng, scratch);
        }
    }
    &scratch.picks
}

/// Relative resolution below which two diffused-embedding scores count as
/// a tie.
///
/// The diffusion engines (sweep, per-source, push) converge to the same
/// fixed point along different floating-point paths, so their scores can
/// disagree by noise up to roughly the configured tolerance. Ranking on
/// raw floats would let any sub-tolerance gap flip a forwarding decision
/// between engines; quantizing to this grid (four orders of magnitude
/// coarser than typical engine noise) turns near-ties into explicit
/// protocol ties resolved by ascending node id. Scores can still straddle
/// a grid boundary, so cross-engine agreement is overwhelmingly likely
/// rather than guaranteed — bit-exact agreement is unattainable for
/// independently converging float iterations.
const SCORE_TIE_RESOLUTION: f32 = 1e-4;

/// Top-`fanout` candidates by quantized score: scores within
/// [`SCORE_TIE_RESOLUTION`] (relative to the largest magnitude) tie and
/// are broken by ascending node id. Used for diffused-embedding scores,
/// which carry engine-dependent float noise; exact scores (integer
/// degrees) go through [`top_by`] instead.
fn top_by_quantized(
    candidates: &[NodeId],
    fanout: usize,
    score: impl Fn(NodeId) -> f32,
    scratch: &mut Scratch,
) {
    let scored = &mut scratch.scored;
    scored.clear();
    scored.extend(candidates.iter().map(|&c| (score(c), c)));
    let scale = scored.iter().map(|(s, _)| s.abs()).fold(0.0f32, f32::max);
    let quantum = (scale * SCORE_TIE_RESOLUTION).max(f32::MIN_POSITIVE);
    for (s, _) in scored.iter_mut() {
        *s = (*s / quantum).round();
    }
    take_top(scored, fanout, &mut scratch.picks);
}

/// Top-`fanout` candidates by exact `score`, ties broken by ascending
/// node id.
fn top_by(
    candidates: &[NodeId],
    fanout: usize,
    score: impl Fn(NodeId) -> f32,
    scratch: &mut Scratch,
) {
    let scored = &mut scratch.scored;
    scored.clear();
    scored.extend(candidates.iter().map(|&c| (score(c), c)));
    take_top(scored, fanout, &mut scratch.picks);
}

/// Appends to `picks` the ids a full sort of `scored` by descending score
/// (`total_cmp`) then ascending id would list first, `fanout` of them, in
/// that order. The order is total, so any selection under it agrees with
/// the sort: one minimum pass for a single pick, a partial selection plus
/// a sort of just the picked prefix for more.
fn take_top(scored: &mut [(f32, NodeId)], fanout: usize, picks: &mut Vec<NodeId>) {
    let rank = |a: &(f32, NodeId), b: &(f32, NodeId)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
    match fanout {
        0 => {}
        1 => picks.extend(scored.iter().min_by(|a, b| rank(a, b)).map(|&(_, c)| c)),
        _ if fanout < scored.len() => {
            let (top, last, _) = scored.select_nth_unstable_by(fanout - 1, rank);
            top.sort_unstable_by(rank);
            picks.extend(top.iter().map(|&(_, c)| c));
            picks.push(last.1);
        }
        _ => {
            scored.sort_unstable_by(rank);
            picks.extend(scored.iter().map(|&(_, c)| c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdsearch_graph::generators;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// [`select_next_hops`] on a scratch of its own.
    fn select(kind: PolicyKind, ctx: &ForwardContext<'_>, rng: &mut StdRng) -> Vec<NodeId> {
        select_next_hops(kind, ctx, rng, &mut Scratch::default()).to_vec()
    }

    /// A star graph whose leaf embeddings encode their ids, plus a query
    /// aligned with leaf 3.
    fn fixture() -> (gdsearch_graph::Graph, Signal, Embedding, Vec<NodeId>) {
        let g = generators::star(5); // hub 0, leaves 1..4
        let mut e = Signal::zeros(5, 4);
        for leaf in 1..5 {
            e.row_mut(leaf)[leaf - 1] = 1.0;
        }
        let query = Embedding::new(vec![0.0, 0.0, 1.0, 0.0]); // matches node 3
        let candidates: Vec<NodeId> = (1..5).map(NodeId::new).collect();
        (g, e, query, candidates)
    }

    /// Perturbs the fixture's rows so scores are distinct and
    /// irrational-ish.
    fn perturb(e: &mut Signal) {
        for u in 0..5 {
            for (i, x) in e.row_mut(u).iter_mut().enumerate() {
                *x += (u as f32 + 1.0) * 0.137 + i as f32 * 0.011;
            }
        }
    }

    #[test]
    fn greedy_picks_best_scoring_candidate() {
        let (g, e, q, cands) = fixture();
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 1,
            scores: Scores::Inline,
        };
        let picks = select(PolicyKind::PprGreedy, &ctx, &mut rng(1));
        assert_eq!(picks, vec![NodeId::new(3)]);
    }

    #[test]
    fn greedy_fanout_orders_by_score() {
        let (g, mut e, q, cands) = fixture();
        // Give node 1 a partial match so ranking is 3 > 1 > others.
        e.row_mut(1)[2] = 0.5;
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 2,
            scores: Scores::Inline,
        };
        let picks = select(PolicyKind::PprGreedy, &ctx, &mut rng(1));
        assert_eq!(picks, vec![NodeId::new(3), NodeId::new(1)]);
    }

    #[test]
    fn greedy_tie_breaks_by_id() {
        let (g, _, _, cands) = fixture();
        let e = Signal::zeros(5, 4); // all scores equal (zero)
        let q = Embedding::new(vec![1.0, 1.0, 1.0, 1.0]);
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 2,
            scores: Scores::Inline,
        };
        let picks = select(PolicyKind::PprGreedy, &ctx, &mut rng(1));
        assert_eq!(picks, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn random_walk_stays_within_candidates_and_fanout() {
        let (g, e, q, cands) = fixture();
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 2,
            scores: Scores::Inline,
        };
        let mut r = rng(2);
        for _ in 0..20 {
            let picks = select(PolicyKind::RandomWalk, &ctx, &mut r);
            assert_eq!(picks.len(), 2);
            assert!(picks.iter().all(|p| cands.contains(p)));
            assert_ne!(picks[0], picks[1], "picks must be distinct");
        }
    }

    #[test]
    fn random_walk_is_uniform_ish() {
        let (g, e, q, cands) = fixture();
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 1,
            scores: Scores::Inline,
        };
        let mut counts = [0usize; 5];
        let mut r = rng(3);
        for _ in 0..4000 {
            let picks = select(PolicyKind::RandomWalk, &ctx, &mut r);
            counts[picks[0].index()] += 1;
        }
        for (leaf, &count) in counts.iter().enumerate().skip(1) {
            assert!(
                (count as f64 - 1000.0).abs() < 150.0,
                "leaf {leaf}: {count}"
            );
        }
    }

    #[test]
    fn degree_biased_prefers_hubs() {
        // Path 0-1-2 plus extra edges on node 2 making it the hub.
        let g = gdsearch_graph::Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (2, 4)]).unwrap();
        let e = Signal::zeros(5, 2);
        let q = Embedding::zeros(2);
        let cands = vec![NodeId::new(0), NodeId::new(2)];
        let ctx = ForwardContext {
            node: NodeId::new(1),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 1,
            scores: Scores::Inline,
        };
        let picks = select(PolicyKind::DegreeBiased, &ctx, &mut rng(4));
        assert_eq!(picks, vec![NodeId::new(2)]);
    }

    #[test]
    fn flooding_takes_everyone() {
        let (g, e, q, cands) = fixture();
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 1, // ignored
            scores: Scores::Inline,
        };
        let picks = select(PolicyKind::Flooding, &ctx, &mut rng(5));
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn hybrid_extremes_match_components() {
        let (g, e, q, cands) = fixture();
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 1,
            scores: Scores::Inline,
        };
        // epsilon = 0 -> always greedy.
        for seed in 0..10 {
            let picks = select(PolicyKind::Hybrid { epsilon: 0.0 }, &ctx, &mut rng(seed));
            assert_eq!(picks, vec![NodeId::new(3)]);
        }
        // epsilon = 1 -> random: must deviate from greedy at least once.
        let mut deviated = false;
        for seed in 0..20 {
            let picks = select(PolicyKind::Hybrid { epsilon: 1.0 }, &ctx, &mut rng(seed));
            if picks != vec![NodeId::new(3)] {
                deviated = true;
            }
        }
        assert!(deviated);
    }

    #[test]
    fn precomputed_column_matches_inline_scoring_bitwise() {
        let (g, mut e, q, cands) = fixture();
        perturb(&mut e);
        let column = score_column(&q, &e);
        let inline_ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 2,
            scores: Scores::Inline,
        };
        let cached_ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 2,
            scores: Scores::Column(&column),
        };
        for &c in &cands {
            assert_eq!(
                candidate_score(&inline_ctx, c).to_bits(),
                candidate_score(&cached_ctx, c).to_bits(),
                "column entry for {c:?} must reproduce the inline kernel"
            );
        }
        assert_eq!(
            select(PolicyKind::PprGreedy, &inline_ctx, &mut rng(7)),
            select(PolicyKind::PprGreedy, &cached_ctx, &mut rng(7)),
        );
    }

    #[test]
    fn short_column_falls_back_to_inline_scoring() {
        // A column that does not cover a candidate's index must not panic:
        // scoring falls back to the inline dot product.
        let (g, e, q, cands) = fixture();
        let short = vec![0.0f32; 2]; // covers nodes 0..2 only
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 1,
            scores: Scores::Column(&short),
        };
        let inline_ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &cands,
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 1,
            scores: Scores::Inline,
        };
        // Node 3 (index 3) is past the short column's end.
        assert_eq!(
            candidate_score(&ctx, NodeId::new(3)).to_bits(),
            candidate_score(&inline_ctx, NodeId::new(3)).to_bits(),
        );
    }

    fn scored_ctx<'a>(
        graph: &'a Graph,
        node_embeddings: &'a Signal,
        query: &'a Embedding,
        candidates: &'a [NodeId],
        scores: Scores<'a>,
    ) -> ForwardContext<'a> {
        ForwardContext {
            node: NodeId::new(0),
            candidates,
            query,
            node_embeddings,
            graph,
            fanout: 2,
            scores,
        }
    }

    #[test]
    fn lazy_column_touched_everywhere_equals_score_column_bitwise() {
        let (g, mut e, q, _) = fixture();
        perturb(&mut e);
        let reference = score_column(&q, &e);
        let lazy = LazyColumn::new(5);
        let all: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let ctx = scored_ctx(&g, &e, &q, &all, Scores::Lazy(&lazy));
        // Nothing is computed until a candidate is scored.
        assert!(all.iter().all(|c| lazy.get(c.index()).is_none()));
        // First pass fills, second pass reads: same bits both times.
        for pass in 0..2 {
            for (&c, want) in all.iter().zip(&reference) {
                assert_eq!(
                    candidate_score(&ctx, c).to_bits(),
                    want.to_bits(),
                    "pass {pass}, node {c:?}"
                );
            }
        }
        let stored: Vec<u32> = (0..5).map(|u| lazy.get(u).unwrap().to_bits()).collect();
        let want: Vec<u32> = reference.iter().map(|s| s.to_bits()).collect();
        assert_eq!(stored, want);
        // A node past the column's end is scored inline, as with a short
        // full column.
        let short = LazyColumn::new(2);
        let ctx = scored_ctx(&g, &e, &q, &all, Scores::Lazy(&short));
        assert_eq!(
            candidate_score(&ctx, NodeId::new(3)).to_bits(),
            reference[3].to_bits()
        );
    }

    #[test]
    fn sentinel_valued_score_is_recomputed_never_mistaken_for_a_value() {
        let column = LazyColumn::new(2);
        let calls = std::cell::Cell::new(0);
        let sentinel = || {
            calls.set(calls.get() + 1);
            f32::from_bits(UNSET)
        };
        // The kernel result whose bits are the sentinel comes back intact
        // every time; its cell just never looks set.
        assert_eq!(column.get_or_fill(0, sentinel).to_bits(), UNSET);
        assert_eq!(column.get_or_fill(0, sentinel).to_bits(), UNSET);
        assert_eq!(calls.get(), 2);
        assert!(column.get(0).is_none());
        // Any other NaN is an ordinary value: stored once, read back.
        let other_nan = f32::from_bits(0x7fc0_0001);
        assert_eq!(
            column.get_or_fill(1, || other_nan).to_bits(),
            other_nan.to_bits()
        );
        assert_eq!(
            column.get_or_fill(1, || unreachable!()).to_bits(),
            other_nan.to_bits()
        );
    }

    #[test]
    fn non_finite_rows_decide_the_same_lazily_and_inline() {
        let (g, mut e, q, cands) = fixture();
        // NaN, a NaN carrying the sentinel's bits, and an infinity among
        // the candidates' rows.
        e.row_mut(1).fill(f32::NAN);
        e.row_mut(2).fill(f32::from_bits(UNSET));
        e.row_mut(4)[2] = f32::INFINITY;
        let lazy = LazyColumn::new(5);
        let inline_ctx = scored_ctx(&g, &e, &q, &cands, Scores::Inline);
        let lazy_ctx = scored_ctx(&g, &e, &q, &cands, Scores::Lazy(&lazy));
        // Empty column, then the column the first pass left behind.
        for _ in 0..2 {
            for &c in &cands {
                assert_eq!(
                    candidate_score(&lazy_ctx, c).to_bits(),
                    candidate_score(&inline_ctx, c).to_bits(),
                    "node {c:?}"
                );
            }
            assert_eq!(
                select(PolicyKind::PprGreedy, &lazy_ctx, &mut rng(7)),
                select(PolicyKind::PprGreedy, &inline_ctx, &mut rng(7)),
            );
        }
    }

    #[test]
    fn empty_candidates_select_nothing() {
        let (g, e, q, _) = fixture();
        let ctx = ForwardContext {
            node: NodeId::new(0),
            candidates: &[],
            query: &q,
            node_embeddings: &e,
            graph: &g,
            fanout: 3,
            scores: Scores::Inline,
        };
        assert!(select(PolicyKind::PprGreedy, &ctx, &mut rng(6)).is_empty());
        assert!(select(PolicyKind::Flooding, &ctx, &mut rng(6)).is_empty());
    }

    /// The ranking this module ran before it selected — collect, sort
    /// everything, take — kept as the oracle of [`take_top`].
    fn sort_and_take(mut scored: Vec<(f32, NodeId)>, fanout: usize) -> Vec<NodeId> {
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(fanout).map(|(_, c)| c).collect()
    }

    /// [`sort_and_take`] behind the quantization of [`top_by_quantized`].
    fn quantize_sort_and_take(scored: &[(f32, NodeId)], fanout: usize) -> Vec<NodeId> {
        let scale = scored.iter().map(|(s, _)| s.abs()).fold(0.0f32, f32::max);
        let quantum = (scale * SCORE_TIE_RESOLUTION).max(f32::MIN_POSITIVE);
        let quantized = scored.iter().map(|&(s, c)| ((s / quantum).round(), c));
        sort_and_take(quantized.collect(), fanout)
    }

    /// A score function answering by call order, so candidates that repeat
    /// an id can still carry different scores.
    fn by_position(scored: &[(f32, NodeId)]) -> impl Fn(NodeId) -> f32 + '_ {
        let next = std::cell::Cell::new(0);
        move |_| {
            let i = next.replace(next.get() + 1);
            scored[i].0
        }
    }

    /// Scores from a palette heavy in what breaks naive comparisons: both
    /// NaNs, both infinities, both zeros, exact ties, values a quantum
    /// apart; ids from a range small enough to repeat. One case in four is
    /// all-equal.
    fn hostile_scored() -> impl Strategy<Value = Vec<(f32, NodeId)>> {
        let palette = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            1.0 + 0.4 * SCORE_TIE_RESOLUTION,
            -1.0,
        ];
        let score =
            (0usize..14, -2.0f32..2.0).prop_map(move |(i, x)| *palette.get(i).unwrap_or(&x));
        let pairs = collection::vec((score, (0u32..8).prop_map(NodeId::new)), 0..24);
        (pairs, 0u32..4).prop_map(|(mut pairs, mode)| {
            if let (0, Some(&(first, _))) = (mode, pairs.first()) {
                pairs.iter_mut().for_each(|p| p.0 = first);
            }
            pairs
        })
    }

    proptest! {
        /// Selection equals sort-then-take, pick for pick and in order, for
        /// both rankings, at every fanout boundary — on one reused scratch.
        #[test]
        fn selection_matches_full_sort_oracle(scored in hostile_scored()) {
            let ids: Vec<NodeId> = scored.iter().map(|&(_, c)| c).collect();
            let len = scored.len();
            let mut scratch = Scratch::default();
            for fanout in [0, 1, 2, len.saturating_sub(1), len, len + 3, usize::MAX] {
                scratch.picks.clear();
                top_by(&ids, fanout, by_position(&scored), &mut scratch);
                prop_assert_eq!(
                    &scratch.picks,
                    &sort_and_take(scored.clone(), fanout),
                    "top_by, fanout {} over {:?}", fanout, scored
                );
                scratch.picks.clear();
                top_by_quantized(&ids, fanout, by_position(&scored), &mut scratch);
                prop_assert_eq!(
                    &scratch.picks,
                    &quantize_sort_and_take(&scored, fanout),
                    "top_by_quantized, fanout {} over {:?}", fanout, scored
                );
            }
        }

        /// The merge filter is the plain set difference, and everyone when
        /// that is empty (footnote 9) — whatever was left in the buffer.
        #[test]
        fn candidates_are_the_unused_neighbors_or_all_of_them(
            neighbors in collection::vec(0u32..40, 0..20),
            used in collection::vec(0u32..40, 0..30),
        ) {
            let sorted = |ids: Vec<u32>| {
                let set: std::collections::BTreeSet<u32> = ids.into_iter().collect();
                set.into_iter().map(NodeId::new).collect::<Vec<_>>()
            };
            let (neighbors, used) = (sorted(neighbors), sorted(used));
            let unused: Vec<NodeId> =
                neighbors.iter().copied().filter(|v| !used.contains(v)).collect();
            let want = if unused.is_empty() { &neighbors } else { &unused };
            let mut fresh = vec![NodeId::new(99)];
            prop_assert_eq!(candidates(&neighbors, used.iter().copied(), &mut fresh), &want[..]);
        }
    }
}
