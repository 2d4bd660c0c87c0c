//! Synchronous power-iteration evaluation of the PPR filter (paper Eq. 7):
//! `E(t) = (1−a) A E(t−1) + a E0`, iterated until the max-abs residual
//! between sweeps falls below the configured tolerance (see
//! [`PprConfig::tolerance`] for the exact semantics).
//!
//! The iteration is a contraction with factor `(1−a)` in the
//! `D⁻¹`-weighted norm [`PprConfig::tolerance`] states its bound in, so it
//! converges geometrically for any `a ∈ (0, 1]`.
//!
//! A sweep reads the graph's adjacency directly — no transition matrix is
//! built — and computes each row of `E(t)` in one pass: the weighted
//! gather in the register-blocked kernel shared with the CSR products
//! ([`gather_row`]), then the blend with `E0` and the residual. Rows are
//! independent, so [`diffuse_threaded`] splits them across workers with
//! bit-identical output. While some rows are still dead (all `+0.0`, and
//! gathering from no live row) the sweep neither reads nor writes them.
//!
//! The sweep keeps one `N × dim` iterate and updates it in place, a wave of
//! `⌈N/4⌉` consecutive rows at a time, holding back until the sweep ends
//! the rows a later wave still reads. Beside the iterate it keeps one wave
//! of rows and the held-back ones: about 0.3 of an iterate on the
//! clustered ids of a social-circles graph, and at most a second iterate's
//! rows (up to three more when 4 does not divide `N`) on any graph.
//!
//! One sweep loop serves two entries: [`diffuse_threaded`] reads a dense
//! `E0` and sweeps from a copy of it; [`diffuse_rows`] takes `E0` as its
//! non-zero rows, keeps it row-sparse and sweeps from its dense copy, so it
//! holds one `N × dim` buffer where the dense entry holds two.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_embed::Embedding;
use gdsearch_graph::sparse::{edge_weight, gather_row};
use gdsearch_graph::{Graph, NodeId};

use crate::convergence::Convergence;
use crate::{DiffusionError, PprConfig, Signal, SparseRows};

/// Outcome of an iterative diffusion.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionResult {
    /// The diffused signal `E`.
    pub signal: Signal,
    /// Sweeps performed.
    pub iterations: usize,
    /// Max-abs residual of the final sweep.
    pub residual: f32,
    /// Whether the residual met the tolerance within the iteration budget.
    pub converged: bool,
}

impl DiffusionResult {
    /// Unwraps the signal, turning budget exhaustion into
    /// [`DiffusionError::NotConverged`].
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::NotConverged`] if `converged` is false.
    pub fn into_converged(self) -> Result<Signal, DiffusionError> {
        if !self.converged {
            return Err(DiffusionError::NotConverged {
                iterations: self.iterations,
                residual: self.residual,
            });
        }
        Ok(self.signal)
    }
}

/// Diffuses `e0` over `graph` with the PPR filter, synchronously.
///
/// Returns the result even when the iteration budget is exhausted
/// (`converged = false`); callers that require convergence check the
/// flag.
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] if `e0` has a different node
/// count than `graph`.
///
/// # Example
///
/// ```
/// use gdsearch_diffusion::{power, PprConfig, Signal};
/// use gdsearch_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::complete(4);
/// let mut e0 = Signal::zeros(4, 2);
/// e0.row_mut(0).copy_from_slice(&[1.0, 0.5]);
/// let out = power::diffuse(&g, &e0, &PprConfig::new(0.5)?)?;
/// assert!(out.converged);
/// // The source keeps the largest share of its own signal.
/// assert!(out.signal.row(0)[0] > out.signal.row(1)[0]);
/// # Ok(())
/// # }
/// ```
pub fn diffuse(
    graph: &Graph,
    e0: &Signal,
    config: &PprConfig,
) -> Result<DiffusionResult, DiffusionError> {
    diffuse_threaded(graph, e0, config, 1)
}

/// Like [`diffuse`], but shards every row sweep across `threads` scoped
/// workers from [`crate::workpool`].
///
/// Each output row of the sweep `E(t) = (1−a) A E(t−1) + a E0` depends
/// only on the previous iterate, so disjoint row ranges are computed
/// concurrently into disjoint chunks of a wave buffer; the per-chunk
/// residual maxima are folded in chunk order, and `f32::max` is
/// associative for the non-NaN values produced here — the result is
/// therefore bit-for-bit identical for every thread count, including
/// `threads = 1` (which is exactly [`diffuse`]).
///
/// No transition matrix is built. A row reads its neighbour ids straight
/// from the graph's adjacency and entry `(u, v)`'s weight `1/deg v` from a
/// per-node table made once per call from [`edge_weight`], sums
/// `w · E(t)[v]` in the shared register-blocked kernel [`gather_row`], and
/// blends each finished block into `E(t+1)` and the residual in the same
/// pass — the float operations, in the same order, of
/// `(1−a)·(A · E(t)) + a·E0` with `A`
/// from [`transition_matrix`](gdsearch_graph::sparse::transition_matrix).
///
/// The sweep gathers only from rows that can be non-zero. A row is *dead*
/// while all its bits are `+0.0`; row `u` of `E(t+1)` is dead if row `u` of
/// `E0` is and every neighbour's row of `E(t)` is (`a` and `1−a` are
/// non-negative, so the blend of `+0.0`s is `+0.0`). The live set therefore
/// grows one hop per sweep from the rows of `E0` that hold a set bit, and
/// while it is not yet all rows each row skips its dead neighbours, which
/// changes no bit of a sum (argued at the row kernel). A row that stays
/// dead is neither read nor written: the iterate already holds its `+0.0`
/// bits. The mask is structural — a live row may still hold zeros —
/// and identical for every thread count.
///
/// The sweep holds `e0` and one copy of it, the iterate it updates in
/// place: two `N × dim` buffers, one of them the caller's, beside a wave
/// buffer and the held-back rows (see the module docs). [`diffuse_rows`]
/// takes `E0` row-sparse and holds one.
///
/// # Errors
///
/// As [`diffuse`].
pub fn diffuse_threaded(
    graph: &Graph,
    e0: &Signal,
    config: &PprConfig,
    threads: usize,
) -> Result<DiffusionResult, DiffusionError> {
    let n = graph.num_nodes();
    if e0.num_nodes() != n {
        return Err(DiffusionError::ShapeMismatch {
            expected: (n, e0.dim()),
            got: (e0.num_nodes(), e0.dim()),
        });
    }
    Ok(sweep_to_fixed_point(
        graph,
        e0.clone(),
        |u| e0.row(u),
        config,
        threads,
        WAVES,
    ))
}

/// [`diffuse_threaded`] with `E0` given by its non-zero rows: `(source,
/// embedding)` pairs, as [`per_source::auto_diffuse_rows`] takes them.
///
/// The sources are folded into a [`SparseRows`] the way
/// [`Signal::from_sparse_rows`] folds them — each row summed with `+=` from
/// `+0.0` in source order, so repeated sources accumulate and a `−0.0`
/// entry reads `+0.0` — and the first iterate is its dense copy. `E0` is
/// never materialized or cloned: the sweep holds one `N × dim` buffer, and
/// the bits are those of [`diffuse_threaded`] on
/// `Signal::from_sparse_rows(N, dim, sources)`.
///
/// [`per_source::auto_diffuse_rows`]: crate::per_source::auto_diffuse_rows
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] for an embedding of the wrong
/// width or a source outside the graph — the error
/// [`Signal::from_sparse_rows`] returns for the first such source.
pub fn diffuse_rows(
    graph: &Graph,
    dim: usize,
    sources: &[(NodeId, Embedding)],
    config: &PprConfig,
    threads: usize,
) -> Result<DiffusionResult, DiffusionError> {
    let n = graph.num_nodes();
    if let Some((node, emb)) = sources
        .iter()
        .find(|(node, emb)| node.index() >= n || emb.dim() != dim)
    {
        return Err(DiffusionError::ShapeMismatch {
            expected: (n, dim),
            got: (node.index(), emb.dim()),
        });
    }
    let mut e0 = SparseRows::with_support(n, dim, sources.iter().map(|(node, _)| node.as_u32()));
    for (node, emb) in sources {
        let row = e0.stored_row_mut(node.index()).into_iter().flatten();
        for (r, e) in row.zip(emb.as_slice()) {
            *r += e;
        }
    }
    Ok(sweep_to_fixed_point(
        graph,
        e0.to_signal(),
        |u| e0.row(u),
        config,
        threads,
        WAVES,
    ))
}

/// How many consecutive row ranges a sweep updates the iterate in, one
/// after another.
const WAVES: usize = 4;

/// The one sweep loop: iterates from `current`, which holds `E0`'s bits,
/// reading row `u` of `E0` as `origin(u)`, until the residual meets the
/// tolerance or the budget runs out. It finds the live rows of `E0` through
/// `origin`, so it touches no page of the iterate before a sweep writes it.
///
/// `current` is the only `N × dim` iterate: a sweep updates it in place,
/// over `waves` consecutive row ranges (see [`Waves`]). A wave sweeps its
/// rows into one wave-sized buffer, then copies each row it wrote back into
/// `current` — unless a later wave reads the row, which then waits in a
/// pending buffer until the sweep ends. So every read still sees `E(t)`,
/// and the bits are those of a sweep into a second iterate.
fn sweep_to_fixed_point<'o>(
    graph: &Graph,
    mut current: Signal,
    origin: impl Fn(usize) -> &'o [f32] + Sync,
    config: &PprConfig,
    threads: usize,
    waves: usize,
) -> DiffusionResult {
    let (n, dim) = (current.num_nodes(), current.dim());
    let waves = Waves::new(graph, waves, threads);
    let weights = weights(graph);
    let zeros = vec![0.0f32; dim];
    let mut wave = vec![0.0f32; waves.wave_rows * dim];
    let mut pending = vec![0.0f32; waves.held.len() * dim];
    // live: rows of `E(t)` that may hold a set bit. reached: the same for
    // `E(t+1)` — seeded with E0's rows, which are live in every iterate,
    // and only ever gaining rows, so the sweep grows it in place. A sweep
    // writes row `u` exactly when it leaves `reached[u]` set.
    let mut live: Vec<bool> = (0..n)
        .map(|u| origin(u).iter().any(|x| x.to_bits() != 0))
        .collect();
    let mut reached = live.clone();
    let mut conv = Convergence::new();
    while conv.iters < config.max_iterations() {
        let masked = live.contains(&false);
        let mut max_delta = 0.0f32;
        for first in (0..n).step_by(waves.wave_rows) {
            let rows = first..(first + waves.wave_rows).min(n);
            let (wave, reached) = (&mut wave[..rows.len() * dim], &mut reached[rows]);
            let sweep = Sweep {
                graph,
                weights: &weights,
                cur: current.as_slice(),
                origin: &origin,
                zeros: &zeros,
                dim,
                alpha: config.alpha(),
                live: masked.then_some(live.as_slice()),
            };
            max_delta = max_delta.max(waves.sweep(&sweep, first, wave, reached));
            waves.copy_back(first, wave, reached, &mut current, &mut pending);
        }
        waves.flush(&pending, &reached, &mut current);
        if masked {
            live.copy_from_slice(&reached);
        }
        if conv.record(max_delta, config.tolerance()) {
            break;
        }
    }
    DiffusionResult {
        signal: current,
        iterations: conv.iters,
        residual: conv.residual,
        converged: conv.converged,
    }
}

/// How a sweep walks the rows: in waves of `wave_rows` consecutive rows,
/// each split across the workers in chunks of `chunk_rows`.
///
/// A row is *held back* when its last neighbour (adjacency is sorted) lies
/// in a later wave. A wave reads its own rows, the later ones — which no
/// wave has written yet — and, adjacency being symmetric, exactly the
/// held-back rows of earlier waves. So a wave may write every other row it
/// computed into the iterate at once, and a held-back row must wait for the
/// end of the sweep. Which rows are held back depends only on the graph:
/// each keeps one pending slot for the whole call. No row of the last wave
/// is held back, so one wave buffer and the pending slots together hold at
/// most `N + waves − 1` rows; with clustered ids, far fewer.
struct Waves {
    wave_rows: usize,
    chunk_rows: usize,
    threads: usize,
    /// The held-back rows, ascending.
    held: Vec<u32>,
}

impl Waves {
    fn new(graph: &Graph, waves: usize, threads: usize) -> Self {
        let wave_rows = graph.num_nodes().max(1).div_ceil(waves.max(1));
        let threads = threads.max(1).min(wave_rows);
        let held = graph.node_ids().filter(|&u| {
            let last = graph.neighbor_slice(u).last();
            last.is_some_and(|v| v.index() / wave_rows > u.index() / wave_rows)
        });
        Waves {
            wave_rows,
            chunk_rows: wave_rows.div_ceil(threads),
            threads,
            held: held.map(NodeId::as_u32).collect(),
        }
    }

    /// Sweeps the wave of rows from `first` on into `new`, sharded by row
    /// range, and returns its max residual.
    fn sweep<'o, O: Fn(usize) -> &'o [f32] + Sync>(
        &self,
        sweep: &Sweep<'_, O>,
        first: usize,
        new: &mut [f32],
        reached: &mut [bool],
    ) -> f32 {
        let mut chunks: Vec<(usize, &mut [f32], &mut [bool])> = new
            .chunks_mut(self.chunk_rows * sweep.dim.max(1))
            .zip(reached.chunks_mut(self.chunk_rows))
            .enumerate()
            .map(|(i, (chunk, reached))| (first + i * self.chunk_rows, chunk, reached))
            .collect();
        let deltas = crate::workpool::map_batched_mut(
            &mut chunks,
            self.threads,
            |(first_row, chunk, reached)| sweep.rows(*first_row, chunk, reached),
        );
        deltas.into_iter().fold(0.0f32, f32::max)
    }

    /// Copies the rows the wave from `first` on wrote, `new`, into
    /// `current`, and each held-back one into its `pending` slot instead,
    /// sharded as the wave was swept.
    fn copy_back(
        &self,
        first: usize,
        new: &[f32],
        reached: &[bool],
        current: &mut Signal,
        pending: &mut [f32],
    ) {
        let dim = current.dim();
        let width = dim.max(1);
        let rows = &mut current.as_mut_slice()[first * dim..][..new.len()];
        let mut held_from = self.held.partition_point(|&u| (u as usize) < first);
        let mut slots = &mut pending[held_from * dim..];
        let chunks = rows
            .chunks_mut(self.chunk_rows * width)
            .zip(new.chunks(self.chunk_rows * width))
            .zip(reached.chunks(self.chunk_rows));
        let mut copies = Vec::with_capacity(self.threads);
        for (first_row, ((rows, new), reached)) in (first..).step_by(self.chunk_rows).zip(chunks) {
            let end = first_row + reached.len();
            let held_to = self.held.partition_point(|&u| (u as usize) < end);
            let (mine, rest) = std::mem::take(&mut slots).split_at_mut((held_to - held_from) * dim);
            copies.push(CopyBack {
                first_row,
                new,
                reached,
                held: &self.held[held_from..held_to],
                rows,
                slots: mine,
            });
            (held_from, slots) = (held_to, rest);
        }
        crate::workpool::map_batched_mut(&mut copies, self.threads, |copy| copy.apply(width));
    }

    /// Writes the held-back rows the sweep wrote from `pending` into
    /// `current`.
    fn flush(&self, pending: &[f32], reached: &[bool], current: &mut Signal) {
        let width = current.dim().max(1);
        for (&u, slot) in self.held.iter().zip(pending.chunks(width)) {
            if reached[u as usize] {
                current.row_mut(u as usize).copy_from_slice(slot);
            }
        }
    }
}

/// One worker's share of a wave's copy-back: the wave's rows from
/// `first_row` on.
struct CopyBack<'a> {
    first_row: usize,
    /// The rows of `E(t+1)`.
    new: &'a [f32],
    /// Which of them the sweep wrote.
    reached: &'a [bool],
    /// The held-back rows among them, ascending.
    held: &'a [u32],
    /// The same rows of the iterate.
    rows: &'a mut [f32],
    /// The held-back rows' pending slots.
    slots: &'a mut [f32],
}

impl CopyBack<'_> {
    /// Copies each written row to its pending slot if it is held back, and
    /// into the iterate otherwise.
    fn apply(&mut self, width: usize) {
        let held = self.held.iter().map(|&u| u as usize - self.first_row);
        let mut slots = held.zip(self.slots.chunks_mut(width)).peekable();
        let rows = self.new.chunks(width).zip(self.rows.chunks_mut(width));
        for (i, ((new, row), &reached)) in rows.zip(self.reached).enumerate() {
            let target = match slots.next_if(|(h, _)| *h == i) {
                Some((_, slot)) => slot,
                None => row,
            };
            if reached {
                target.copy_from_slice(new);
            }
        }
    }
}

/// The transition weights of a graph as the sweep reads them: entry
/// `(u, v)` is `table[v] = 1/deg v`, a per-node table built once per call
/// from [`edge_weight`] instead of a stored value per entry — bit for bit
/// the value [`transition_matrix`](gdsearch_graph::sparse::transition_matrix)
/// stores (`sweep_weights_are_the_transition_matrix` checks it).
fn weights(graph: &Graph) -> Vec<f32> {
    graph
        .node_ids()
        .map(|v| edge_weight(graph.degree(v)))
        .collect()
}

/// How many running maxima a row pass keeps the residual in.
const LANES: usize = 8;

/// Folds the cell residuals `|next − cur|` into `lanes`, cell `j` into lane
/// `j % LANES`. NaN never wins `>`, so the max over the lanes is the max
/// over the cells for any grouping, and the fixed lanes let the
/// comparisons vectorize.
fn fold_residual(lanes: &mut [f32; LANES], next: &[f32], cur: &[f32]) {
    let fold = |lanes: &mut [f32; LANES], next: &[f32], cur: &[f32]| {
        for ((lane, &nx), &cur) in lanes.iter_mut().zip(next).zip(cur) {
            let delta = (nx - cur).abs();
            *lane = if delta > *lane { delta } else { *lane };
        }
    };
    let (next, cur) = (next.chunks_exact(LANES), cur.chunks_exact(LANES));
    let (next_tail, cur_tail) = (next.remainder(), cur.remainder());
    for (next, cur) in next.zip(cur) {
        fold(lanes, next, cur);
    }
    fold(lanes, next_tail, cur_tail);
}

/// One sweep `E(t+1) = (1−a)·A·E(t) + a·E0`, read-only and shared by the
/// workers that write disjoint row ranges of `E(t+1)`.
struct Sweep<'a, O> {
    graph: &'a Graph,
    /// Entry `(u, v)` of `A` is `weights[v]`.
    weights: &'a [f32],
    /// `E(t)`, `dim` cells per node.
    cur: &'a [f32],
    /// Row `u` of `E0`.
    origin: O,
    /// A row of `dim` zeros: `E(t)`'s row of a dead node.
    zeros: &'a [f32],
    dim: usize,
    alpha: f32,
    /// While some row of `E(t)` is dead: which rows are live.
    live: Option<&'a [bool]>,
}

impl<'o, O: Fn(usize) -> &'o [f32]> Sweep<'_, O> {
    /// Sweeps the rows from `first_row` on into `next` (whole rows), ORs
    /// into `reached[i]` whether row `first_row + i` gathered from a live
    /// row, and returns the chunk's max residual `|E(t+1) − E(t)|`.
    fn rows(&self, first_row: usize, next: &mut [f32], reached: &mut [bool]) -> f32 {
        let rows = next.chunks_mut(self.dim.max(1)).zip(reached);
        let mut lanes = [0.0f32; LANES];
        for (u, (next, reached)) in self.graph.node_ids().skip(first_row).zip(rows) {
            *reached |= self.row(u, next, &mut lanes);
        }
        lanes.into_iter().fold(0.0f32, f32::max)
    }

    /// Sweeps row `u` into `next` (its `dim` cells), folds its residuals
    /// into `lanes`, and returns whether it gathered from a live row
    /// (always, unmasked).
    ///
    /// With a mask the row leaves out its dead neighbours, whose rows of
    /// `E(t)` are all `+0.0` bits. With finite weights the sums are still
    /// those of the full row, bit for bit: each left-out term is
    /// `w · (+0.0) = ±0.0`, every sum starts at `+0.0` and so is never
    /// `−0.0`, and adding `±0.0` to anything else changes no bit; the other
    /// terms keep their adjacency order.
    ///
    /// A row dead in `E(t)` has a dead row of `E0` too (`E0`'s live rows are
    /// live in every iterate). If it gathers from no live row it stays dead
    /// and is skipped: `next` already holds its `+0.0` bits, since dead
    /// rows start as zeros and the live set only grows, and its residual
    /// `|(+0.0) − (+0.0)|` would lose to every lane. If it does gather, its
    /// residual is folded against a zero row, not `cur`'s `+0.0` bits. Either
    /// way `cur` and `origin` are not read on a dead row.
    fn row(&self, u: NodeId, next: &mut [f32], lanes: &mut [f32; LANES]) -> bool {
        let cells = u.index() * self.dim..(u.index() + 1) * self.dim;
        let neighbors = self.graph.neighbor_slice(u);
        let entries = neighbors
            .iter()
            .map(|v| (v.index(), self.weights[v.index()]));
        match self.live {
            None => {
                self.blend(entries, u, &self.cur[cells], next, lanes);
                true
            }
            Some(live) => {
                let gathers = neighbors.iter().any(|v| live[v.index()]);
                let cur = if live[u.index()] {
                    &self.cur[cells]
                } else if gathers {
                    self.zeros
                } else {
                    return false;
                };
                self.blend(entries.filter(|&(v, _)| live[v]), u, cur, next, lanes);
                gathers
            }
        }
    }

    /// Writes `(1−a)·Σ w·E(t)[v] + a·E0[u]` over `entries` into `next` and
    /// folds `|next − cur|` into `lanes`, block by block.
    fn blend(
        &self,
        entries: impl Iterator<Item = (usize, f32)> + Clone,
        u: NodeId,
        cur: &[f32],
        next: &mut [f32],
        lanes: &mut [f32; LANES],
    ) {
        let origin = (self.origin)(u.index());
        let alpha = self.alpha;
        gather_row(entries, self.cur, self.dim, |start, sums| {
            let next = &mut next[start..][..sums.len()];
            for ((nx, &sum), &origin) in next.iter_mut().zip(sums).zip(&origin[start..]) {
                *nx = (1.0 - alpha) * sum + alpha * origin;
            }
            fold_residual(lanes, next, &cur[start..][..next.len()]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sweep;
    use gdsearch_graph::generators;
    use rand::Rng;

    fn one_hot_signal(n: usize, node: usize) -> Signal {
        let mut s = Signal::zeros(n, 1);
        s.row_mut(node)[0] = 1.0;
        s
    }

    #[test]
    fn converges_on_ring() {
        let g = generators::ring(10).unwrap();
        let out = diffuse(&g, &one_hot_signal(10, 0), &PprConfig::new(0.3).unwrap()).unwrap();
        assert!(out.converged);
        assert!(out.iterations > 1);
        assert!(out.residual <= 1e-6);
    }

    #[test]
    fn alpha_one_returns_personalization() {
        // a = 1: pure teleport, E = E0 after one step.
        let g = generators::ring(6).unwrap();
        let e0 = one_hot_signal(6, 2);
        let out = diffuse(&g, &e0, &PprConfig::new(1.0).unwrap()).unwrap();
        assert!(out.converged);
        assert!(out.signal.max_abs_diff(&e0).unwrap() < 1e-6);
    }

    #[test]
    fn mass_is_preserved_with_column_stochastic() {
        // Column-stochastic A preserves total mass: columns of
        // a(I-(1-a)A)^{-1} sum to 1.
        let g = generators::social_circles_like_scaled(80, &mut seeded(3)).unwrap();
        let e0 = one_hot_signal(80, 5);
        let cfg = PprConfig::new(0.2).unwrap().with_tolerance(1e-8).unwrap();
        let out = diffuse(&g, &e0, &cfg).unwrap();
        assert!(out.converged);
        let mass = out.signal.column_mass()[0];
        assert!((mass - 1.0).abs() < 1e-3, "mass {mass} drifted from 1");
    }

    #[test]
    fn stopping_rule_bounds_the_error_by_the_largest_degree() {
        // A hub with 40 leaves: `‖A‖∞ = 40`, so an L∞ contraction argument
        // does not apply; the bound `d_max · (1−a)/a · residual` of
        // `PprConfig::tolerance` must hold against the exact fixed point.
        let g = generators::star(41);
        let d_max = g.max_degree() as f32;
        for alpha in [0.1f32, 0.5, 0.9] {
            for source in [0, 1] {
                let e0 = one_hot_signal(41, source);
                let cfg = PprConfig::new(alpha).unwrap().with_tolerance(1e-3).unwrap();
                let out = diffuse(&g, &e0, &cfg).unwrap();
                assert!(out.converged);
                let truth = crate::exact::diffuse(&g, &e0, &cfg).unwrap();
                let error = truth.max_abs_diff(&out.signal).unwrap();
                let bound = d_max * (1.0 - alpha) / alpha * out.residual;
                // 1e-6 covers the f32 rounding of both evaluations.
                assert!(
                    error <= bound + 1e-6,
                    "alpha {alpha}, source {source}: error {error} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn decay_with_distance_on_path() {
        let g = generators::path(9);
        let out = diffuse(&g, &one_hot_signal(9, 0), &PprConfig::new(0.5).unwrap()).unwrap();
        let values: Vec<f32> = (0..9).map(|u| out.signal.row(u)[0]).collect();
        for w in values.windows(2) {
            assert!(
                w[0] > w[1],
                "PPR mass must decay monotonically along a path: {values:?}"
            );
        }
    }

    #[test]
    fn linearity_of_diffusion() {
        // PPR is a linear operator: H(x + y) = Hx + Hy.
        let g = generators::grid(4, 4);
        let cfg = PprConfig::new(0.4).unwrap().with_tolerance(1e-8).unwrap();
        let x = one_hot_signal(16, 0);
        let y = one_hot_signal(16, 9);
        let mut xy = Signal::zeros(16, 1);
        xy.row_mut(0)[0] = 1.0;
        xy.row_mut(9)[0] = 1.0;
        let hx = diffuse(&g, &x, &cfg).unwrap().signal;
        let hy = diffuse(&g, &y, &cfg).unwrap().signal;
        let hxy = diffuse(&g, &xy, &cfg).unwrap().signal;
        for u in 0..16 {
            let sum = hx.row(u)[0] + hy.row(u)[0];
            assert!((sum - hxy.row(u)[0]).abs() < 1e-4);
        }
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let g = generators::ring(50).unwrap();
        let cfg = PprConfig::new(0.01)
            .unwrap()
            .with_tolerance(1e-12)
            .unwrap()
            .with_max_iterations(3);
        let out = diffuse(&g, &one_hot_signal(50, 0), &cfg).unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }

    #[test]
    fn threaded_sweeps_are_bitwise_identical() {
        let g = generators::social_circles_like_scaled(120, &mut seeded(9)).unwrap();
        let mut e0 = Signal::zeros(120, 5);
        for u in 0..120 {
            for d in 0..5 {
                e0.row_mut(u)[d] = ((u * 5 + d) as f32 * 0.17).sin();
            }
        }
        let cfg = PprConfig::new(0.4).unwrap().with_tolerance(1e-7).unwrap();
        let reference = diffuse(&g, &e0, &cfg).unwrap();
        for threads in [2, 3, 4, 16] {
            let out = diffuse_threaded(&g, &e0, &cfg, threads).unwrap();
            assert_eq!(out.signal.as_slice(), reference.signal.as_slice());
            assert_eq!(out.iterations, reference.iterations);
            assert_eq!(out.residual, reference.residual);
            assert_eq!(out.converged, reference.converged);
        }
    }

    #[test]
    fn threaded_handles_more_threads_than_rows() {
        let g = generators::ring(3).unwrap();
        let out = diffuse_threaded(&g, &one_hot_signal(3, 0), &PprConfig::default(), 64).unwrap();
        let reference = diffuse(&g, &one_hot_signal(3, 0), &PprConfig::default()).unwrap();
        assert_eq!(out.signal.as_slice(), reference.signal.as_slice());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let g = generators::ring(5).unwrap();
        let e0 = Signal::zeros(6, 1);
        assert!(matches!(
            diffuse(&g, &e0, &PprConfig::default()),
            Err(DiffusionError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn zero_signal_stays_zero() {
        let g = generators::complete(5);
        let out = diffuse(&g, &Signal::zeros(5, 3), &PprConfig::default()).unwrap();
        assert!(out.converged);
        assert!(out.signal.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn isolated_node_keeps_teleport_share_only() {
        let g = gdsearch_graph::Graph::from_edges(3, [(0, 1)]).unwrap();
        let e0 = one_hot_signal(3, 2);
        let out = diffuse(&g, &e0, &PprConfig::new(0.5).unwrap()).unwrap();
        // Node 2 is isolated, so its row of A is empty: e = (1-a)*0 + a*1 = a
        // at every iteration, exactly alpha.
        assert!((out.signal.row(2)[0] - 0.5).abs() < 1e-6);
        assert_eq!(out.signal.row(0)[0], 0.0);
    }

    fn seeded(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn live_rows_product_skips_dead_sources_bit_for_bit() {
        // Path 0-1-2-3-4 with only row 1 of E(t) and E0 non-zero: rows 0
        // and 2 gather from it, rows 3 and 4 gather from nothing.
        let g = generators::path(5);
        let weights = weights(&g);
        let dim = 2;
        let mut cur = vec![0.0f32; 5 * dim];
        cur[2..4].copy_from_slice(&[0.3, -7.5]);
        let zeros = [0.0f32; 2];
        let source = [1.25f32, -0.5];
        let origin = |u: usize| if u == 1 { &source[..] } else { &zeros[..] };
        let sweep = |cur, live| Sweep {
            graph: &g,
            weights: &weights,
            cur,
            origin,
            zeros: &zeros,
            dim,
            alpha: 0.3,
            live,
        };
        let mut full = vec![1.0f32; 5 * dim];
        let full_delta = sweep(&cur, None).rows(0, &mut full, &mut [true; 5]);
        // Rows 0 and 2 are dead in E(t) but reached: poisoned in `cur`,
        // which a residual that read them would return. Rows 3 and 4 stay
        // dead: a NaN sentinel in `next` that a write would overwrite.
        let mut poisoned = cur.clone();
        for u in [0, 2] {
            poisoned[u * dim..][..dim].fill(f32::MAX);
        }
        let live = [false, true, false, false, false];
        let mut masked = vec![1.0f32; 5 * dim];
        masked[3 * dim..].fill(f32::NAN);
        let mut reached = [false, false, false, true, false];
        let masked_delta = sweep(&poisoned, Some(&live)).rows(0, &mut masked, &mut reached);
        assert_eq!(bits(&masked[..3 * dim]), bits(&full[..3 * dim]));
        assert!(masked[3 * dim..].iter().all(|x| x.is_nan()));
        assert_eq!(bits(&full[3 * dim..]), [0; 4]);
        assert_eq!(masked_delta.to_bits(), full_delta.to_bits());
        // Row 3 was set by the caller and is left set.
        assert_eq!(reached, [true, false, true, true, false]);
    }

    use proptest::prelude::*;

    /// Ring, Erdős–Rényi (isolated nodes likely at small `n`),
    /// Barabási–Albert and a degree-`(n−1)` star hub.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (0usize..4, 3u32..36, 0u64..1000).prop_map(|(family, n, seed)| {
            let mut rng = seeded(seed);
            match family {
                0 => generators::ring(n).unwrap(),
                1 => generators::erdos_renyi(n, 0.1, &mut rng).unwrap(),
                2 => generators::barabasi_albert(n, 2, &mut rng).unwrap(),
                _ => generators::star(n),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The weight the sweep gives entry `(u, v)` is the value
        /// `transition_matrix` stores, bit for bit: one sweep at `a = 0`
        /// over a one-hot `E(t)` on `v` leaves exactly column `v` of `A` in
        /// `E(t+1)` (`1·w + 0·0 = w`, and the `w·(+0.0)` terms add nothing).
        #[test]
        fn sweep_weights_are_the_transition_matrix(g in arb_graph()) {
            use gdsearch_graph::sparse::{transition_matrix, Normalization};
            let n = g.num_nodes();
            let a = transition_matrix(&g, Normalization::ColumnStochastic);
            let weights = weights(&g);
            let zeros = [0.0f32];
            for v in 0..n {
                let mut cur = vec![0.0f32; n];
                cur[v] = 1.0;
                let sweep = Sweep {
                    graph: &g,
                    weights: &weights,
                    cur: &cur,
                    origin: |_| &zeros[..],
                    zeros: &zeros,
                    dim: 1,
                    alpha: 0.0,
                    live: None,
                };
                let mut column = vec![f32::NAN; n];
                sweep.rows(0, &mut column, &mut vec![false; n]);
                let stored = (0..n).map(|u| {
                    a.row(u).find(|&(c, _)| c as usize == v).map_or(0.0, |(_, w)| w)
                });
                prop_assert_eq!(bits(&column), bits(&stored.collect::<Vec<_>>()), "column {}", v);
            }
        }
    }

    /// Graphs whose edges cross waves: Barabási–Albert (late ids attach to
    /// early hubs), a path zigzagging between the two ends of the id range
    /// (0, n−1, 1, n−2, …), a star whose hub has the largest id, and the
    /// hostile shapes of `sweep_equals_reference_on_hostile_graphs` (no
    /// nodes, one node, a triangle beside isolated nodes, a hub at id 0).
    fn arb_wave_graph() -> impl Strategy<Value = Graph> {
        (0usize..7, 3u32..40, 0u64..1000).prop_map(|(family, n, seed)| match family {
            0 => generators::barabasi_albert(n, 2, &mut seeded(seed)).unwrap(),
            1 => {
                let order: Vec<u32> = (0..n)
                    .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
                    .collect();
                Graph::from_edges(n, order.windows(2).map(|e| (e[0], e[1]))).unwrap()
            }
            2 => Graph::from_edges(n, (0..n - 1).map(|u| (u, n - 1))).unwrap(),
            3 => Graph::empty(0),
            4 => Graph::empty(1),
            5 => Graph::from_edges(7, [(1, 2), (2, 3), (1, 3)]).unwrap(),
            _ => generators::star(9),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// However many waves a sweep takes — one (nothing held back), a
        /// few, `WAVES`, one row each (N) or more waves than rows — and on
        /// any thread count, it leaves the reference sweep's bits, sweep
        /// count and residual: from sources on a few rows (the mask on) and
        /// on every row (the mask off).
        #[test]
        fn every_wave_count_is_the_reference_sweep(
            g in arb_wave_graph(),
            dim in 0usize..5,
            hosts in 0usize..4,
            alpha in 0.1f32..1.0,
            seed in 0u64..1000,
        ) {
            let (n, dim) = (g.num_nodes(), [0, 1, 63, 64, 65][dim]);
            let mut rng = seeded(seed);
            let mut e0 = Signal::zeros(n, dim);
            // hosts 0: every row; otherwise that many random rows.
            let rows: Vec<usize> = match hosts {
                0 => (0..n).collect(),
                _ if n == 0 => Vec::new(),
                hosts => (0..hosts).map(|_| rng.random_range(0..n)).collect(),
            };
            for u in rows {
                for x in e0.row_mut(u) {
                    *x = rng.random::<f32>() - 0.5;
                }
            }
            let cfg = PprConfig::new(alpha)
                .unwrap()
                .with_tolerance(1e-6)
                .unwrap();
            let (signal, iterations, residual, converged) = reference_sweep(&g, &e0, &cfg);
            let want = (bits(&signal), iterations, residual.to_bits(), converged);
            for waves in [1, 2, 3, WAVES, n, n + 1] {
                for threads in [1, 2, 3, 16] {
                    let out = sweep_to_fixed_point(&g, e0.clone(), |u| e0.row(u), &cfg, threads, waves);
                    let got = (bits(out.signal.as_slice()), out.iterations, out.residual.to_bits(), out.converged);
                    prop_assert_eq!(&got, &want, "{} waves, {} threads", waves, threads);
                }
            }
        }
    }
}
