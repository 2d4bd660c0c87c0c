//! Forwarding policies: how a node picks next hops for a query.
//!
//! The paper's scheme (§IV-C) matches the query embedding against the
//! *diffused* embeddings of candidate neighbors by dot product and forwards
//! to the best — a biased random walk. The other variants are the blind
//! baselines the related-work section positions the scheme against
//! (flooding, uniform random walks) plus two common heuristics
//! (degree-biased, ε-greedy hybrid) used in the ablation benches.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use gdsearch_diffusion::{Diffused, Signal};
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
    /// Eligible next hops: the neighbours not yet exchanged with, or all of
    /// them as the paper's footnote-9 fallback.
    pub candidates: &'a [NodeId],
    /// The query embedding.
    pub query: &'a Embedding,
    /// Diffused node embeddings (`E` of Eq. 6), read by node through
    /// [`Diffused::row`].
    pub node_embeddings: &'a Diffused,
    /// The overlay graph (for degree lookups).
    pub graph: &'a Graph,
    /// How many next hops to select (ignored by flooding, which takes all).
    pub fanout: usize,
    /// The query's score column, read and filled as candidates are scored.
    /// It must only ever be used with one query and one embedding matrix.
    /// A node past the column's pages is scored by the kernel and stored
    /// nowhere — every node, for `LazyColumn::new(0)`, which allocates
    /// nothing; the bits are the same either way, so the column changes how
    /// much work a walk does, never a forwarding decision.
    pub scores: &'a LazyColumn,
}

/// Bit pattern of a cell no walk has scored yet: a NaN, so no finite score
/// collides with it. A kernel result with exactly these bits is never
/// stored and is recomputed on every read — slower, same value.
const UNSET: u32 = u32::MAX;

/// Cells per page of a [`LazyColumn`] (1 KB). Ids in a cave of the overlay
/// are contiguous, so the ≈ 100 cells a cold walk fills fall into a
/// handful of pages. Picked over 64 by measurement (PR 25, three pairs
/// each): `serve-cold` 31.4 k vs 29.5 k requests/s, `serve-hot` 33.3 k vs
/// 32.7 k.
const PAGE: usize = 256;

/// The cells of [`PAGE`] consecutive nodes.
type Page = [AtomicU32; PAGE];

/// One query's score column over all nodes, filled cell by cell as walks
/// touch candidates, so a walk pays for the nodes it visits and not for N.
///
/// The cells live in pages of 256 consecutive nodes behind a
/// directory. A new column is the directory alone (16 B per page, ≈ 6 KB
/// at N = 10⁵); a page is allocated, every cell unset, the first time a
/// walk scores one of its nodes, so a column holds 1 KB per page touched.
///
/// Cells are shared between concurrent walks without a lock. Racing
/// writers of one cell store identical bits — a score is a pure function
/// of (query, embeddings, node) — so a reader sees either "unset" (and
/// recomputes) or the final value, and `Relaxed` suffices: a cell
/// publishes nothing but itself. A page is published through
/// [`OnceLock::get_or_init`], which makes a walk racing the first fill of
/// the same page wait for it. That wait is harmless: the fill writes 1 KB
/// of "unset" and runs no dot product, and whichever walk fills the page,
/// its cells end up holding the same pure values.
#[derive(Debug)]
pub struct LazyColumn {
    /// Page `p` holds the cells of nodes `p · PAGE ..`, once allocated.
    pages: Box<[OnceLock<Box<Page>>]>,
}

impl LazyColumn {
    /// A column whose pages cover `num_nodes` nodes (every node of the
    /// pages, so up to `PAGE − 1` more); no page is allocated yet. `new(0)`
    /// allocates nothing: every node lies past its pages, so it is scored
    /// by the kernel and stored nowhere.
    #[must_use]
    pub fn new(num_nodes: usize) -> Self {
        LazyColumn {
            pages: (0..num_nodes.div_ceil(PAGE))
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// The stored score of `node`, or `None` while its cell is unset (or
    /// its page not allocated, or `node` past the column's pages).
    #[must_use]
    pub fn get(&self, node: usize) -> Option<f32> {
        let page = self.pages.get(node / PAGE)?.get()?;
        let bits = page.get(node % PAGE)?.load(Ordering::Relaxed);
        (bits != UNSET).then(|| f32::from_bits(bits))
    }

    /// Page `p`, allocated with every cell unset by its first caller.
    fn page(&self, p: usize) -> Option<&Page> {
        let slot = self.pages.get(p)?;
        Some(&**slot.get_or_init(|| Box::new(std::array::from_fn(|_| AtomicU32::new(UNSET)))))
    }

    /// Hands `push` the `(score, candidate)` of every candidate, in order:
    /// its cell if set, else `kernel(node)`, stored for the next reader. A
    /// run of candidates in one page looks the page up once, so ascending
    /// candidates pay one directory read per page they touch.
    fn score_into(
        &self,
        candidates: &[NodeId],
        mut kernel: impl FnMut(usize) -> f32,
        mut push: impl FnMut(f32, NodeId),
    ) {
        let mut open: Option<(usize, &Page)> = None;
        for &c in candidates {
            let u = c.index();
            let p = u / PAGE;
            let page = match open {
                Some((q, page)) if q == p => Some(page),
                _ => self.page(p).inspect(|&page| open = Some((p, page))),
            };
            let score = match page.and_then(|page| page.get(u % PAGE)) {
                Some(cell) => match cell.load(Ordering::Relaxed) {
                    UNSET => {
                        let score = kernel(u);
                        cell.store(score.to_bits(), Ordering::Relaxed);
                        score
                    }
                    bits => f32::from_bits(bits),
                },
                None => kernel(u),
            };
            push(score, c);
        }
    }

    /// Pages allocated so far.
    #[cfg(test)]
    pub(crate) fn pages_allocated(&self) -> usize {
        self.pages
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }
}

/// The scheme's scoring kernel: dot product of the query with one diffused
/// embedding row. Single source of truth for [`score_candidates`] and
/// [`score_column`], so a column of any length holds the kernel's bits.
fn dot_row(query: &Embedding, emb: &[f32]) -> f32 {
    query.as_slice().iter().zip(emb).map(|(q, e)| q * e).sum()
}

/// What ranking needs to know of a hop's scores, gathered while they are
/// scored so that ranking does not scan them again.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    /// The largest finite |s| (0 when there is none): the scale of the
    /// tie-resolution quantum.
    scale: f32,
    /// The largest finite s (−∞ when there is none).
    top: f32,
    /// Whether every score is finite.
    finite: bool,
}

impl Default for Spread {
    fn default() -> Self {
        Spread {
            scale: 0.0,
            top: f32::NEG_INFINITY,
            finite: true,
        }
    }
}

impl Spread {
    /// Takes `score` into account. A max over non-NaN values does not
    /// depend on their order, except for the sign of a zero `top`, and
    /// `±0 − 2q` is the same cutoff either way. The maxima are plain
    /// comparisons, which agree with `f32::max` on finite values but leave
    /// its NaN handling out of the loop's dependency chain (measured: the
    /// `f32::max` form costs the walk several percent).
    fn add(&mut self, score: f32) {
        if score.is_finite() {
            let size = score.abs();
            self.scale = if size > self.scale { size } else { self.scale };
            self.top = if score > self.top { score } else { self.top };
        } else {
            self.finite = false;
        }
    }

    /// The one place a hop's scores are appended: a sink that pushes
    /// `(score, candidate)` onto `scored` and takes the score into `self`.
    fn collect<'a>(
        &'a mut self,
        scored: &'a mut Vec<(f32, NodeId)>,
    ) -> impl FnMut(f32, NodeId) + 'a {
        move |score, c| {
            self.add(score);
            scored.push((score, c));
        }
    }
}

/// Scores every candidate of a hop exactly as the paper's nodes do — dot
/// product of the query with the candidate's diffused embedding, read from
/// or filled into [`ForwardContext::scores`] — into `scored` as
/// `(score, candidate)`, in candidate order, and returns their [`Spread`].
fn score_candidates(ctx: &ForwardContext<'_>, scored: &mut Vec<(f32, NodeId)>) -> Spread {
    let kernel = |u| dot_row(ctx.query, ctx.node_embeddings.row(u));
    scored.clear();
    let mut spread = Spread::default();
    ctx.scores
        .score_into(ctx.candidates, kernel, spread.collect(scored));
    spread
}

/// The full score column of one query against every node's diffused
/// embedding, computed with the exact kernel a walk scores its candidates
/// with. It costs a pass over all N rows, so walks fill a [`LazyColumn`]
/// instead; this stays as the reference the lazy column is tested against.
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

/// Candidate next hops of a node (Fig. 1, step 3): its `neighbors` whose
/// bit in `mask` is clear — those it has not exchanged the query with —
/// filtered into `fresh`, the caller's buffer, or all of them when none is
/// (footnote 9: never waste the forwarding opportunity). An empty `mask`
/// reads as all clear. Each chunk of 64 neighbours is copied whole, then
/// the few positions its mask word sets are removed, highest first, so the
/// positions still to remove stay put; a set bit is an adjacency position
/// ([`mark_exchanged`]), so it lies inside its chunk.
pub(crate) fn unexchanged<'a>(
    neighbors: &'a [NodeId],
    mask: &[u64],
    fresh: &'a mut Vec<NodeId>,
) -> &'a [NodeId] {
    fresh.clear();
    for (chunk, &word) in neighbors.chunks(64).zip(mask) {
        let base = fresh.len();
        fresh.extend_from_slice(chunk);
        let mut set = word;
        while set != 0 {
            let i = 63 - set.leading_zeros() as usize;
            fresh.remove(base + i);
            set ^= 1 << i;
        }
    }
    if fresh.is_empty() {
        neighbors
    } else {
        fresh
    }
}

/// Records in `mask` — ⌈`neighbors.len()` / 64⌉ words over the node's
/// adjacency positions — that the node exchanged the query with `peer`:
/// sets the bit of `peer`'s position, found by bisecting `neighbors`. A
/// `peer` that is no neighbour sets nothing.
pub(crate) fn mark_exchanged(neighbors: &[NodeId], mask: &mut [u64], peer: NodeId) {
    let Ok(pos) = neighbors.binary_search(&peer) else {
        return;
    };
    if let Some(word) = mask.get_mut(pos / 64) {
        *word |= 1 << (pos % 64);
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
            let spread = score_candidates(ctx, &mut scratch.scored);
            top_by_quantized(&mut scratch.scored, spread, ctx.fanout, &mut scratch.picks);
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
/// The diffusion engines (sweep, push) converge to the same
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

/// Where a NaN score quantizes to: a negative NaN, which `total_cmp` ranks
/// below every number, whatever the sign bit the NaN had.
const NAN_LAST: f32 = -f32::NAN;

/// `score` on the grid of `quantum`: `round(score / quantum)`, so ±∞ stays
/// itself, and any NaN becomes [`NAN_LAST`].
fn quantize(score: f32, quantum: f32) -> f32 {
    if score.is_nan() {
        NAN_LAST
    } else {
        (score / quantum).round()
    }
}

/// Appends to `picks` the top-`fanout` of `scored` by quantized score:
/// scores within [`SCORE_TIE_RESOLUTION`] of the largest finite magnitude
/// tie and are broken by ascending node id. Used for diffused-embedding
/// scores, which carry engine-dependent float noise; exact scores (integer
/// degrees) go through [`top_by`] instead. `spread` must be the [`Spread`]
/// of `scored`, as scoring returns it.
///
/// Only the scores that can reach the top are quantized. With `t` the
/// `fanout`-th best raw score and `q` the quantum, a candidate below
/// `t − 2q` cannot: `round(fl(s / q))` is monotone in `s`, and every
/// finite `|s / q|` is at most ≈ 10⁴, where the division's rounding error
/// is far below one quantum, so a gap of more than two quanta stays more
/// than one grid step and quantizes strictly below `t`. At fanout 1, `t`
/// is `spread.top`, and one pass keeps the best candidate at or above the
/// cutoff in [`take_top`]'s order; a larger fanout selects `t`, drops the
/// candidates below the cutoff from `scored`, quantizes the rest in place
/// and ranks them.
///
/// Non-finite scores rank the same on every FPU: the scale is taken over
/// finite scores only, ±∞ ranks as itself (above or below every finite
/// score), and NaN ranks last, whatever its sign bit. When any score is
/// non-finite every candidate is kept.
fn top_by_quantized(
    scored: &mut Vec<(f32, NodeId)>,
    spread: Spread,
    fanout: usize,
    picks: &mut Vec<NodeId>,
) {
    let quantum = (spread.scale * SCORE_TIE_RESOLUTION).max(f32::MIN_POSITIVE);
    if fanout == 1 {
        let cutoff = spread.top - 2.0 * quantum;
        let mut best: Option<(f32, NodeId)> = None;
        for &(s, c) in scored.iter() {
            if !spread.finite || s >= cutoff {
                // `take_top`'s order: descending by `total_cmp`, so −0.0
                // ranks below +0.0, then ascending id.
                let q = quantize(s, quantum);
                if best.is_none_or(|(bq, bc)| q.total_cmp(&bq).then(bc.cmp(&c)).is_gt()) {
                    best = Some((q, c));
                }
            }
        }
        picks.extend(best.map(|(_, c)| c));
        return;
    }
    if spread.finite && (1..scored.len()).contains(&fanout) {
        let by_score = |a: &(f32, NodeId), b: &(f32, NodeId)| b.0.total_cmp(&a.0);
        let kth = scored.select_nth_unstable_by(fanout - 1, by_score).1 .0;
        let cutoff = kth - 2.0 * quantum;
        scored.retain(|&(s, _)| s >= cutoff);
    }
    for (s, _) in scored.iter_mut() {
        *s = quantize(*s, quantum);
    }
    take_top(scored, fanout, picks);
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
        let e = Diffused::Dense(e);
        let ctx = scored_ctx(&g, &e, &q, &cands, 1, inline());
        let picks = select(PolicyKind::PprGreedy, &ctx, &mut rng(1));
        assert_eq!(picks, vec![NodeId::new(3)]);
    }

    #[test]
    fn greedy_fanout_orders_by_score() {
        let (g, mut e, q, cands) = fixture();
        // Give node 1 a partial match so ranking is 3 > 1 > others.
        e.row_mut(1)[2] = 0.5;
        let e = Diffused::Dense(e);
        let ctx = scored_ctx(&g, &e, &q, &cands, 2, inline());
        let picks = select(PolicyKind::PprGreedy, &ctx, &mut rng(1));
        assert_eq!(picks, vec![NodeId::new(3), NodeId::new(1)]);
    }

    #[test]
    fn greedy_tie_breaks_by_id() {
        let (g, _, _, cands) = fixture();
        let e = Diffused::Dense(Signal::zeros(5, 4)); // all scores equal (zero)
        let q = Embedding::new(vec![1.0, 1.0, 1.0, 1.0]);
        let ctx = scored_ctx(&g, &e, &q, &cands, 2, inline());
        let picks = select(PolicyKind::PprGreedy, &ctx, &mut rng(1));
        assert_eq!(picks, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn random_walk_stays_within_candidates_and_fanout() {
        let (g, e, q, cands) = fixture();
        let e = Diffused::Dense(e);
        let ctx = scored_ctx(&g, &e, &q, &cands, 2, inline());
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
        let e = Diffused::Dense(e);
        let ctx = scored_ctx(&g, &e, &q, &cands, 1, inline());
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
        let e = Diffused::Dense(Signal::zeros(5, 2));
        let q = Embedding::zeros(2);
        let cands = vec![NodeId::new(0), NodeId::new(2)];
        let ctx = scored_ctx(&g, &e, &q, &cands, 1, inline());
        let picks = select(PolicyKind::DegreeBiased, &ctx, &mut rng(4));
        assert_eq!(picks, vec![NodeId::new(2)]);
    }

    #[test]
    fn flooding_takes_everyone() {
        let (g, e, q, cands) = fixture();
        let e = Diffused::Dense(e);
        let ctx = scored_ctx(&g, &e, &q, &cands, 1, inline());
        let picks = select(PolicyKind::Flooding, &ctx, &mut rng(5));
        assert_eq!(picks.len(), 4);
    }

    #[test]
    fn hybrid_extremes_match_components() {
        let (g, e, q, cands) = fixture();
        let e = Diffused::Dense(e);
        let ctx = scored_ctx(&g, &e, &q, &cands, 1, inline());
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

    /// [`score_candidates`] as `(bits, candidate)`, having checked the
    /// [`Spread`] it returned against [`spread_of`] its scores.
    fn score_bits(ctx: &ForwardContext<'_>) -> Vec<(u32, NodeId)> {
        let mut scored = Vec::new();
        let spread = score_candidates(ctx, &mut scored);
        let pages = ctx.scores.pages.len();
        assert_eq!(spread, spread_of(&scored), "column of {pages} pages");
        scored.into_iter().map(|(s, c)| (s.to_bits(), c)).collect()
    }

    /// The [`Spread`] of `scored`, by the separate scan ranking made before
    /// scoring gathered it.
    fn spread_of(scored: &[(f32, NodeId)]) -> Spread {
        let finite = || scored.iter().map(|&(s, _)| s).filter(|s| s.is_finite());
        Spread {
            scale: finite().map(f32::abs).fold(0.0, f32::max),
            top: finite().fold(f32::NEG_INFINITY, f32::max),
            finite: scored.iter().all(|(s, _)| s.is_finite()),
        }
    }

    /// Scores `scored` into `into` the way a hop does — through
    /// [`LazyColumn::score_into`] on a column too short to store anything,
    /// with a kernel answering by position — and returns their [`Spread`].
    fn score_as_a_hop(scored: &[(f32, NodeId)], into: &mut Vec<(f32, NodeId)>) -> Spread {
        let ids: Vec<NodeId> = scored.iter().map(|&(_, c)| c).collect();
        into.clear();
        let kernel = by_position(scored);
        let mut spread = Spread::default();
        let push = spread.collect(into);
        LazyColumn::new(0).score_into(&ids, |u| kernel(NodeId::new(u as u32)), push);
        assert_eq!(spread, spread_of(scored));
        spread
    }

    /// The bits [`score_column`] holds for each of `candidates`.
    fn reference_bits(reference: &[f32], candidates: &[NodeId]) -> Vec<(u32, NodeId)> {
        candidates
            .iter()
            .map(|&c| (reference[c.index()].to_bits(), c))
            .collect()
    }

    /// [`LazyColumn::score_into`] on one node.
    fn fill(column: &LazyColumn, u: usize, kernel: impl FnMut(usize) -> f32) -> u32 {
        let mut bits = None;
        column.score_into(&[NodeId::new(u as u32)], kernel, |s, _| {
            bits = Some(s.to_bits())
        });
        bits.unwrap()
    }

    /// The zero-length column: every candidate scored by the kernel.
    fn inline() -> &'static LazyColumn {
        static EMPTY: OnceLock<LazyColumn> = OnceLock::new();
        EMPTY.get_or_init(|| LazyColumn::new(0))
    }

    fn scored_ctx<'a>(
        graph: &'a Graph,
        node_embeddings: &'a Diffused,
        query: &'a Embedding,
        candidates: &'a [NodeId],
        fanout: usize,
        scores: &'a LazyColumn,
    ) -> ForwardContext<'a> {
        ForwardContext {
            candidates,
            query,
            node_embeddings,
            graph,
            fanout,
            scores,
        }
    }

    #[test]
    fn lazy_column_touched_everywhere_equals_score_column_bitwise() {
        let (g, mut e, q, _) = fixture();
        perturb(&mut e);
        let reference = score_column(&q, &e);
        let e = Diffused::Dense(e);
        let lazy = LazyColumn::new(5);
        let all: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let ctx = scored_ctx(&g, &e, &q, &all, 2, &lazy);
        // Nothing is computed until a candidate is scored.
        assert!(all.iter().all(|c| lazy.get(c.index()).is_none()));
        // First pass fills, second pass reads: same bits both times.
        for pass in 0..2 {
            assert_eq!(
                score_bits(&ctx),
                reference_bits(&reference, &all),
                "pass {pass}"
            );
        }
        let stored: Vec<u32> = (0..5).map(|u| lazy.get(u).unwrap().to_bits()).collect();
        let want: Vec<u32> = reference.iter().map(|s| s.to_bits()).collect();
        assert_eq!(stored, want);
        // A column covers its pages whole: one sized for two nodes stores
        // the other three too.
        let short = LazyColumn::new(2);
        let ctx = scored_ctx(&g, &e, &q, &all, 2, &short);
        assert_eq!(score_bits(&ctx), reference_bits(&reference, &all));
        let stored: Vec<u32> = (0..5).map(|u| short.get(u).unwrap().to_bits()).collect();
        assert_eq!(stored, want);
    }

    #[test]
    fn sentinel_valued_score_is_recomputed_never_mistaken_for_a_value() {
        let column = LazyColumn::new(2);
        let calls = std::cell::Cell::new(0);
        let sentinel = |_| {
            calls.set(calls.get() + 1);
            f32::from_bits(UNSET)
        };
        // The kernel result whose bits are the sentinel comes back intact
        // every time, within one hop and across hops; its cell just never
        // looks set.
        assert_eq!(fill(&column, 0, sentinel), UNSET);
        assert_eq!(fill(&column, 0, sentinel), UNSET);
        let mut scored = Vec::new();
        column.score_into(&[NodeId::new(0), NodeId::new(0)], sentinel, |s, _| {
            scored.push(s)
        });
        assert!(scored.iter().all(|s| s.to_bits() == UNSET));
        assert_eq!(calls.get(), 4);
        assert!(column.get(0).is_none());
        // Any other NaN is an ordinary value: stored once, read back.
        let other_nan = f32::from_bits(0x7fc0_0001);
        assert_eq!(fill(&column, 1, |_| other_nan), other_nan.to_bits());
        assert_eq!(fill(&column, 1, |_| unreachable!()), other_nan.to_bits());
    }

    /// Column lengths around page boundaries: empty, one node, a page
    /// short by one, exact, one over, and a partial fourth page.
    const LENGTHS: [usize; 6] = [0, 1, PAGE - 1, PAGE, PAGE + 1, 3 * PAGE + 5];

    /// The nodes a column of `len` covers: every node of its pages.
    fn covered(len: usize) -> usize {
        len.div_ceil(PAGE) * PAGE
    }

    #[test]
    fn a_column_allocates_the_pages_it_fills_and_no_other() {
        let kernel = |u: usize| u as f32 + 0.5;
        for len in LENGTHS {
            let end = covered(len);
            let fresh = LazyColumn::new(len);
            assert_eq!(fresh.pages_allocated(), 0, "len {len}");
            // Past the pages a node is scored by the kernel, stored nowhere
            // and allocates nothing.
            for u in [end, end + 1, end + PAGE] {
                assert_eq!(fill(&fresh, u, kernel), kernel(u).to_bits());
                assert!(fresh.get(u).is_none());
            }
            assert_eq!(fresh.pages_allocated(), 0, "len {len}");
            // Filling node u — up to the end of a partial last page —
            // allocates page u / PAGE alone.
            for u in 0..end {
                let column = LazyColumn::new(len);
                assert_eq!(fill(&column, u, kernel), kernel(u).to_bits());
                assert_eq!(column.pages_allocated(), 1, "len {len}, node {u}");
                assert!(column.pages[u / PAGE].get().is_some());
                assert_eq!(column.get(u), Some(kernel(u)));
            }
            // The last covered node, then the first past the pages in the
            // same hop: the open page does not let the second one in.
            if let Some(last) = end.checked_sub(1) {
                let column = LazyColumn::new(len);
                let hop = [NodeId::new(last as u32), NodeId::new(end as u32)];
                column.score_into(&hop, kernel, |_, _| {});
                assert_eq!(column.get(last), Some(kernel(last)));
                assert!(column.get(end).is_none());
                assert_eq!(column.pages_allocated(), 1);
            }
        }
    }

    #[test]
    fn concurrent_first_fills_of_one_page_agree() {
        let n = 2 * PAGE;
        let mut e = Signal::zeros(n, 4);
        for (i, x) in e.as_mut_slice().iter_mut().enumerate() {
            *x = (i as f32 * 0.37).sin();
        }
        let q = Embedding::new(vec![0.3, -1.1, 0.7, 2.0]);
        let reference = score_column(&q, &e);
        let e = Diffused::Dense(e);
        let g = generators::star(2);
        for threads in [2, 4] {
            let column = LazyColumn::new(n);
            // Thread t scores 96 ids of page 1 from offset 32·t, so
            // neighbouring threads share two thirds of their cells.
            let sets: Vec<Vec<NodeId>> = (0..threads)
                .map(|t| (PAGE + 32 * t..PAGE + 32 * t + 96).map(|u| NodeId::new(u as u32)))
                .map(Iterator::collect)
                .collect();
            let barrier = std::sync::Barrier::new(threads);
            let (barrier, column_ref, g, e, q) = (&barrier, &column, &g, &e, &q);
            let scored: Vec<Vec<(u32, NodeId)>> = std::thread::scope(|s| {
                let workers: Vec<_> = sets
                    .iter()
                    .map(|cands| {
                        s.spawn(move || {
                            barrier.wait();
                            score_bits(&scored_ctx(g, e, q, cands, 2, column_ref))
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            for (cands, got) in sets.iter().zip(&scored) {
                assert_eq!(got, &reference_bits(&reference, cands), "{threads} threads");
            }
            assert_eq!(column.pages_allocated(), 1, "{threads} threads");
            for (u, score) in reference.iter().enumerate() {
                let filled = sets.iter().any(|set| set.contains(&NodeId::new(u as u32)));
                assert_eq!(
                    column.get(u).map(f32::to_bits),
                    filled.then(|| score.to_bits()),
                    "{threads} threads, node {u}"
                );
            }
        }
    }

    #[test]
    fn non_finite_rows_decide_the_same_lazily_and_inline() {
        let (g, mut e, q, cands) = fixture();
        // NaN, a NaN carrying the sentinel's bits, and an infinity among
        // the candidates' rows.
        e.row_mut(1).fill(f32::NAN);
        e.row_mut(2).fill(f32::from_bits(UNSET));
        e.row_mut(4)[2] = f32::INFINITY;
        let e = Diffused::Dense(e);
        let lazy = LazyColumn::new(5);
        let inline_ctx = scored_ctx(&g, &e, &q, &cands, 2, inline());
        let lazy_ctx = scored_ctx(&g, &e, &q, &cands, 2, &lazy);
        // Empty column, then the column the first pass left behind.
        for _ in 0..2 {
            assert_eq!(score_bits(&lazy_ctx), score_bits(&inline_ctx));
            assert_eq!(
                select(PolicyKind::PprGreedy, &lazy_ctx, &mut rng(7)),
                select(PolicyKind::PprGreedy, &inline_ctx, &mut rng(7)),
            );
        }
    }

    #[test]
    fn empty_candidates_select_nothing() {
        let (g, e, q, _) = fixture();
        let e = Diffused::Dense(e);
        let ctx = scored_ctx(&g, &e, &q, &[], 3, inline());
        assert!(select(PolicyKind::PprGreedy, &ctx, &mut rng(6)).is_empty());
        assert!(select(PolicyKind::Flooding, &ctx, &mut rng(6)).is_empty());
    }

    #[test]
    fn infinities_rank_as_themselves_and_nan_last() {
        let rank = |scores: &[f32]| {
            let ids = (0u32..).map(NodeId::new);
            let scored: Vec<(f32, NodeId)> = scores.iter().copied().zip(ids).collect();
            let (mut hop, mut picks) = (Vec::new(), Vec::new());
            let spread = score_as_a_hop(&scored, &mut hop);
            top_by_quantized(&mut hop, spread, scores.len(), &mut picks);
            picks.into_iter().map(NodeId::as_u32).collect::<Vec<_>>()
        };
        // +∞ above every number, which keeps its place on the grid of the
        // finite scale.
        assert_eq!(rank(&[1.0, f32::INFINITY, 3.0, 2.0]), [1, 2, 3, 0]);
        assert_eq!(rank(&[f32::INFINITY, 1.0]), [0, 1]);
        // −∞ below every number, and both NaNs below −∞, tied by id.
        let scores = [f32::NAN, f32::NEG_INFINITY, -f32::NAN, -5.0, 0.5];
        assert_eq!(rank(&scores), [4, 3, 1, 0, 2]);
    }

    /// The ranking this module ran before it selected — collect, sort
    /// everything, take — kept as the oracle of [`take_top`].
    fn sort_and_take(mut scored: Vec<(f32, NodeId)>, fanout: usize) -> Vec<NodeId> {
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(fanout).map(|(_, c)| c).collect()
    }

    /// [`sort_and_take`] behind the quantization of [`top_by_quantized`].
    fn quantize_sort_and_take(scored: &[(f32, NodeId)], fanout: usize) -> Vec<NodeId> {
        let finite = scored.iter().filter(|(s, _)| s.is_finite());
        let scale = finite.map(|(s, _)| s.abs()).fold(0.0f32, f32::max);
        let quantum = (scale * SCORE_TIE_RESOLUTION).max(f32::MIN_POSITIVE);
        let nan_last = |s: f32| {
            if s.is_nan() {
                -f32::NAN
            } else {
                (s / quantum).round()
            }
        };
        let quantized = scored.iter().map(|&(s, c)| (nan_last(s), c));
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

    /// Scores on the edges of [`top_by_quantized`]'s cutoff for a largest
    /// score `top` of quantum `q`: `top`, the cutoff `top − 2q` and the
    /// floats either side of it, and the rounding boundaries (m ± ½)·q of
    /// the four grid points m at and below `top`, each ± 1 ulp.
    fn cutoff_edges(top: f32) -> Vec<f32> {
        let q = (top * SCORE_TIE_RESOLUTION).max(f32::MIN_POSITIVE);
        let cut = top - 2.0 * q;
        let mut edges = vec![top, cut, cut.next_up(), cut.next_down()];
        let m = (top / q).round();
        for step in [0.0, 1.0, 2.0, 3.0] {
            for half in [-0.5, 0.5] {
                let boundary = (m - step + half) * q;
                edges.extend([boundary, boundary.next_up(), boundary.next_down()]);
            }
        }
        edges
    }

    /// Scores from a palette heavy in what breaks naive comparisons: both
    /// NaNs, both infinities, both zeros, exact ties, values a quantum
    /// apart; ids from a range small enough to repeat. Of every twelve
    /// cases, two are all-equal, two sit on the cutoff's edges
    /// ([`cutoff_edges`] of a largest score from unit to near-`f32::MAX`
    /// and down to the smallest normal quantum), one is all subnormal, one
    /// has scores quantizing to −0.0 and +0.0 under a scale of 1 (ranked
    /// apart by `total_cmp`, tied by `==`), one is a single candidate and
    /// one holds a non-finite score, so its fanout-1 pick keeps every
    /// candidate.
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
        let tops = [1.0, 0.37, 2.5e3, 3.0e38, 1.5e-34, 1.0e-36];
        let score =
            (0usize..14, -2.0f32..2.0).prop_map(move |(i, x)| *palette.get(i).unwrap_or(&x));
        let pairs = collection::vec((score, (0u32..8).prop_map(NodeId::new)), 0..24);
        let non_finite = [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let zeros = [-1.0, -1.0e-5, 1.0e-5, -0.0, 0.0];
        (pairs, 0u32..12, 0..tops.len()).prop_map(move |(mut pairs, mode, top)| {
            match (mode, pairs.first()) {
                (0 | 1, Some(&(first, _))) => pairs.iter_mut().for_each(|p| p.0 = first),
                (2 | 3, _) => {
                    let edges = cutoff_edges(tops[top]);
                    for (i, p) in pairs.iter_mut().enumerate() {
                        let pick = if i == 0 { 0 } else { p.0.to_bits() as usize };
                        p.0 = edges[pick % edges.len()];
                    }
                }
                (4, _) => pairs
                    .iter_mut()
                    .for_each(|p| p.0 = f32::from_bits(p.0.to_bits() & 0x807f_ffff)),
                (5, _) => {
                    for (i, p) in pairs.iter_mut().enumerate() {
                        let pick = if i == 0 { 0 } else { p.0.to_bits() as usize };
                        p.0 = zeros[pick % zeros.len()];
                    }
                }
                (6, _) => pairs.truncate(1),
                (7, Some(&(first, _))) => {
                    let at = first.to_bits() as usize % pairs.len();
                    pairs[at].0 = non_finite[top % non_finite.len()];
                }
                _ => {}
            }
            pairs
        })
    }

    /// One hop's scoring inputs: embedding rows, a lazy column's length (at
    /// most the rows'; the column covers its pages whole), the nodes filled
    /// before the hop, and its candidates.
    #[derive(Debug)]
    struct HopCase {
        rows: Signal,
        query: Embedding,
        len: usize,
        filled: Vec<NodeId>,
        candidates: Vec<NodeId>,
    }

    /// Rows of one of [`LENGTHS`] sizes with NaN, the sentinel NaN, both
    /// infinities and both zeros among ordinary values; a column empty,
    /// randomly half-filled or full; candidates as drawn (unordered,
    /// repeating), ascending with repeats, or ascending — half of them
    /// within two of a page boundary, so runs cross pages.
    fn hop_case() -> impl Strategy<Value = HopCase> {
        let palette = [
            f32::NAN,
            f32::from_bits(UNSET),
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
        ];
        let value =
            (0usize..30, -2.0f32..2.0).prop_map(move |(i, x)| *palette.get(i).unwrap_or(&x));
        (0..LENGTHS.len(), 1usize..4).prop_flat_map(move |(size, dim)| {
            let n = LENGTHS[size];
            let last = n.saturating_sub(1);
            let id = (0..n.max(1), 0usize..4, 0usize..8).prop_map(move |(u, k, d)| {
                let u = if d < 4 {
                    u
                } else {
                    (k * PAGE + d).saturating_sub(6).min(last)
                };
                NodeId::new(u as u32)
            });
            let hop_len = if n == 0 { 0..1 } else { 0..48 };
            (
                collection::vec(value.clone(), n * dim),
                collection::vec(-2.0f32..2.0, dim),
                0..=n,
                (0u32..3, collection::vec(0u32..2, n)),
                (collection::vec(id, hop_len), 0u32..3),
            )
                .prop_map(
                    move |(data, query, len, (fill, mask), (mut candidates, order))| {
                        let mut rows = Signal::zeros(n, dim);
                        rows.as_mut_slice().copy_from_slice(&data);
                        let filled = (0..covered(len).min(n))
                            .filter(|&u| fill == 2 || (fill == 1 && mask[u] == 1))
                            .map(|u| NodeId::new(u as u32))
                            .collect();
                        if order > 0 {
                            candidates.sort_unstable();
                        }
                        if order > 1 {
                            candidates.dedup();
                        }
                        HopCase {
                            rows,
                            query: Embedding::new(query),
                            len,
                            filled,
                            candidates,
                        }
                    },
                )
        })
    }

    proptest! {
        /// A hop scored through a zero-length column, then through a short
        /// or full one twice (as the hop finds it, then as it leaves it),
        /// carries the bits of [`score_column`]. The column then holds
        /// exactly those bits for the nodes of its pages that were filled or
        /// scored — bar a sentinel-valued score, which stays unset — in
        /// exactly the pages they fall in.
        #[test]
        fn hop_scores_match_the_score_column(case in hop_case()) {
            let HopCase { rows, query, len, filled, candidates } = case;
            let reference = score_column(&query, &rows);
            let rows = Diffused::Dense(rows);
            let want = reference_bits(&reference, &candidates);
            let g = generators::star(2);
            let lazy = LazyColumn::new(len);
            score_bits(&scored_ctx(&g, &rows, &query, &filled, 2, &lazy));
            for scores in [inline(), &lazy, &lazy] {
                let ctx = scored_ctx(&g, &rows, &query, &candidates, 2, scores);
                prop_assert_eq!(score_bits(&ctx), want.clone(), "column of {}", len);
            }
            let mut pages = std::collections::BTreeSet::new();
            for (u, score) in reference.iter().enumerate() {
                let node = NodeId::new(u as u32);
                let scored =
                    u < covered(len) && (filled.contains(&node) || candidates.contains(&node));
                if scored {
                    pages.insert(u / PAGE);
                }
                let bits = Some(score.to_bits()).filter(|&b| scored && b != UNSET);
                prop_assert_eq!(lazy.get(u).map(f32::to_bits), bits, "node {} of {}", u, len);
            }
            prop_assert!(lazy.get(covered(len)).is_none());
            prop_assert_eq!(lazy.pages_allocated(), pages.len());
        }

        /// Selection equals sort-then-take, pick for pick and in order, for
        /// both rankings, at every fanout boundary — on one reused scratch,
        /// the quantized ranking from the [`Spread`] scoring returns, so
        /// every fanout-1 case takes the one-pass pick.
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
                let spread = score_as_a_hop(&scored, &mut scratch.scored);
                top_by_quantized(&mut scratch.scored, spread, fanout, &mut scratch.picks);
                prop_assert_eq!(
                    &scratch.picks,
                    &quantize_sort_and_take(&scored, fanout),
                    "top_by_quantized, fanout {} over {:?}", fanout, scored
                );
            }
        }

        /// The mask filter, on a mask [`mark_exchanged`] set from `used`
        /// (non-neighbours among them), is the plain set difference, and
        /// every neighbour when that is empty (footnote 9) — whatever was
        /// left in the buffer. Up to 200 neighbours, so masks of one to
        /// four words; one case in four has exchanged with every neighbour.
        #[test]
        fn candidates_are_the_unused_neighbors_or_all_of_them(
            neighbors in collection::vec(0u32..300, 0..200),
            used in collection::vec(0u32..300, 0..250),
            everyone in 0u32..4,
        ) {
            let sorted = |ids: Vec<u32>| {
                let set: std::collections::BTreeSet<u32> = ids.into_iter().collect();
                set.into_iter().map(NodeId::new).collect::<Vec<_>>()
            };
            let mut used = sorted(used);
            let neighbors = sorted(neighbors);
            if everyone == 0 {
                used.extend_from_slice(&neighbors);
            }
            let mut mask = vec![0; neighbors.len().div_ceil(64)];
            for &w in &used {
                mark_exchanged(&neighbors, &mut mask, w);
            }
            let unused: Vec<NodeId> =
                neighbors.iter().copied().filter(|v| !used.contains(v)).collect();
            let want = if unused.is_empty() { &neighbors } else { &unused };
            let mut fresh = vec![NodeId::new(999)];
            prop_assert_eq!(unexchanged(&neighbors, &mask, &mut fresh), &want[..]);
            // No mask at all: nobody exchanged with yet.
            prop_assert_eq!(unexchanged(&neighbors, &[], &mut fresh), &neighbors[..]);
        }
    }
}
