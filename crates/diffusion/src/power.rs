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
//! built — and computes each row of `E(t+1)` in one register-blocked pass:
//! the weighted gather, then the blend with `E0` and the residual. Rows are
//! independent, so [`diffuse_rows`] splits them across workers in
//! contiguous chunks, with bit-identical output.
//!
//! Only `E0`'s stored rows are live at first, and the live set grows one hop
//! per sweep (see [`diffuse_rows`]). While some row is dead the first sweep
//! scatters: each live row of `E0` adds its weighted row to its
//! neighbours' sums, walking only the sources' adjacency. Later sweeps
//! gather: a live row from every neighbour, reading a dead one as `+0.0`; a
//! dead row from its live neighbours, and not at all if it has none.
//!
//! The sweep keeps one `N × dim` iterate, and a worker writes each row of
//! `E(t+1)` over its row of `E(t)` as soon as it has computed it. It reads
//! a neighbour's row of `E(t)` from one of two places:
//! - its *ring*, the rows within 127 ids of the row it computes, each
//!   stored one row ahead — before the worker overwrites it — already
//!   scaled by its weight, `w_v · E(t)[v]`, so the gather adds it with no
//!   multiply. Ids are local on the paper's graphs: on a social-circles
//!   graph 99.6 % of adjacency entries lie within 64 ids of their row;
//! - the *halo*, a snapshot of `E(t)` taken before each gather: the rows
//!   some neighbour reads from beyond its window, and the rows within 127
//!   ids of a chunk boundary, which the ring across it reads.
//!
//! Beside the iterate a sweep keeps one `256 × dim` ring per worker and the
//! halo: about a sixth of the rows on social-circles ids, at most a second
//! iterate on any graph.
//!
//! `E0` enters the sweep in one form, a [`SparseRows`], which the sweep
//! keeps row-sparse beside its one `N × dim` iterate. [`diffuse_rows`] takes
//! it as [`SparseRows::from_sources`] folds and checks the hosts' rows; the
//! pinned dense entry [`diffuse`] copies a [`Signal`]'s rows with a set bit
//! into it ([`SparseRows::from_signal`]) and sweeps on one thread.
//!
//! `from_sources` rejects a non-finite source row, so only a dense `E0` or
//! an overflow can reach the sweep with one. A non-finite residual ends the
//! iteration at once, unconverged.

#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]

use gdsearch_graph::sparse::{edge_weight, GATHER_BLOCK};
use gdsearch_graph::{Graph, NodeId};

use crate::convergence::{max_or_nan, Convergence};
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

/// Diffuses `e0` over `graph` with the PPR filter, synchronously, on one
/// thread: [`diffuse_rows`] over `E0`'s rows with a set bit, copied bit for
/// bit by [`SparseRows::from_signal`].
///
/// Returns the result even when the iteration budget is exhausted
/// (`converged = false`); callers that require convergence check the
/// flag. `e0` is not checked for non-finite values: a NaN or an infinity
/// ends the sweep unconverged (see the module docs).
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
    diffuse_rows(graph, &SparseRows::from_signal(e0), config, 1)
}

/// Diffuses `E0`, given by its rows, over `graph` with the PPR filter,
/// every row sweep sharded across `threads` scoped workers from
/// [`crate::workpool`]. [`SparseRows::from_sources`] folds and checks
/// `(source, embedding)` pairs into this form.
///
/// Each output row of the sweep `E(t) = (1−a) A E(t−1) + a E0` depends
/// only on the previous iterate, so disjoint row ranges are computed
/// concurrently, each worker over its own chunk of the iterate; the
/// per-chunk residual maxima are folded in chunk order by a max that lets
/// a NaN win, which is associative — the result is therefore bit-for-bit
/// identical for every thread count.
///
/// No transition matrix is built. A row reads its neighbour ids straight
/// from the graph's adjacency and entry `(u, v)`'s weight `1/deg v` from a
/// per-node table made once per call from [`edge_weight`], sums the
/// products `w · E(t)[v]` block by block — scaled when the row enters the
/// ring, or inline from the halo (see the module docs) — and blends each
/// finished block into `E(t+1)` and the residual in the same pass: the
/// float operations, in the same order, of `(1−a)·(A · E(t)) + a·E0` with
/// `A` from [`transition_matrix`](gdsearch_graph::sparse::transition_matrix).
///
/// A row is *dead* while all its bits are `+0.0`; row `u` of `E(t+1)` is
/// dead if row `u` of `E0` is and every neighbour's row of `E(t)` is (`a`
/// and `1−a` are non-negative, so the blend of `+0.0`s is `+0.0`). The live
/// set therefore grows one hop per sweep from `E0`'s stored rows, found
/// without a scan of all `N`: a stored row of zeros only adds `+0.0`
/// terms, which change no bit. While some row is dead, the first sweep
/// scatters from the stored rows; later sweeps read a dead row as `+0.0`
/// where a live row gathers it and skip it where a dead row does; a row
/// that stays dead is neither read nor written. None of it changes a bit
/// (argued at the row kernels). The mask is structural — a live row may
/// still hold zeros — and identical for every thread count.
///
/// `E0` stays row-sparse: the sweep holds one `N × dim` buffer, the
/// iterate it updates in place, beside the rings and the halo (see the
/// module docs).
///
/// # Errors
///
/// Returns [`DiffusionError::ShapeMismatch`] if `e0` has a different node
/// count than `graph`.
pub fn diffuse_rows(
    graph: &Graph,
    e0: &SparseRows,
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
    Ok(sweep_to_fixed_point(graph, e0, config, threads, RADIUS))
}

/// How far, in ids, a row's neighbours lie in its worker's ring: the ring
/// holds `2 · RADIUS + 1` rows, rounded up to a power of two.
const RADIUS: usize = 127;

/// The one sweep loop: iterates from `E0` until the residual meets the
/// tolerance, is not finite, or the budget runs out. `E0`'s stored rows
/// start the live set, so the loop touches no page of the iterate before a
/// sweep writes it.
///
/// The iterate, `E0`'s dense copy at first, is the only `N × dim` buffer,
/// which [`Sweep::pass`] updates in place. Before each pulling pass the
/// halo takes its rows of `E(t)`; a row reads a neighbour within `radius`
/// ids from its worker's ring and any other from the halo, so every read
/// still sees `E(t)`, and the bits are those of a sweep into a second
/// iterate.
fn sweep_to_fixed_point(
    graph: &Graph,
    e0: &SparseRows,
    config: &PprConfig,
    threads: usize,
    radius: usize,
) -> DiffusionResult {
    let (n, dim) = (e0.num_nodes(), e0.dim());
    let mut live = vec![false; n];
    for u in e0.support() {
        live[u as usize] = true;
    }
    let mut current = e0.to_signal();
    let threads = threads.max(1).min(n.max(1));
    let chunk_rows = n.div_ceil(threads).max(1);
    let mut halo = halo(graph, dim, radius, chunk_rows);
    let weights = weights(graph);
    let zeros = vec![0.0f32; dim];
    // live: rows of `E(t)` that may hold a set bit. reached: the same for
    // `E(t+1)` — seeded with E0's rows, which are live in every iterate,
    // and only ever gaining rows, so the sweep grows it in place. A sweep
    // writes row `u` exactly when it leaves `reached[u]` set.
    let mut reached = live.clone();
    let mut conv = Convergence::new();
    while conv.iters < config.max_iterations() {
        let masked = live.contains(&false);
        let live_rows = masked.then_some(live.as_slice());
        // E(0) is E0: a first sweep with a dead row scatters from its
        // stored rows and reads no halo.
        let scatter = masked && conv.iters == 0;
        if !scatter {
            snapshot(&mut halo, current.as_slice(), live_rows);
        }
        let sweep = Sweep {
            scatter,
            graph,
            weights: &weights,
            halo: &halo,
            e0,
            zeros: &zeros,
            dim,
            alpha: config.alpha(),
            live: live_rows,
            radius,
            chunk_rows,
        };
        let max_delta = sweep.pass(current.as_mut_slice(), &mut reached, threads);
        if masked {
            live.copy_from_slice(&reached);
        }
        if conv.record(max_delta, config.tolerance()) || !max_delta.is_finite() {
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

/// The halo of a sweep with workers on chunks of `chunk_rows` rows, zeroed:
/// a stored row for every node some row reads from beyond `radius` ids —
/// adjacency being sorted and symmetric, the nodes whose first or last
/// neighbour lies beyond it — and for every node within `radius` ids of a
/// chunk boundary, which the worker across it reads into its ring.
fn halo(graph: &Graph, dim: usize, radius: usize, chunk_rows: usize) -> SparseRows {
    let n = graph.num_nodes();
    let rows = graph.node_ids().filter(|&node| {
        let (u, neighbors) = (node.index(), graph.neighbor_slice(node));
        let far = neighbors.first().is_some_and(|v| v.index() + radius < u)
            || neighbors.last().is_some_and(|v| v.index() > u + radius);
        let (offset, up) = (u % chunk_rows, u - u % chunk_rows + chunk_rows);
        let border = (u >= chunk_rows && offset < radius) || (up < n && up - u <= radius);
        far || border
    });
    SparseRows::with_support(n, dim, rows.map(NodeId::as_u32))
}

/// Copies the halo's rows of `E(t)` from `current` — only the live ones
/// while some row is dead: a dead row is never read.
fn snapshot(halo: &mut SparseRows, current: &[f32], live: Option<&[bool]>) {
    for (u, row) in halo.stored_rows_mut() {
        if live.is_none_or(|live| live[u]) {
            row.copy_from_slice(&current[u * row.len()..][..row.len()]);
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
/// `j % LANES`, by [`max_or_nan`]: the max over the lanes is the max over
/// the cells, and NaN if any cell's is, and the fixed lanes let the
/// comparisons vectorize.
fn fold_residual(lanes: &mut [f32; LANES], next: &[f32], cur: &[f32]) {
    let fold = |lanes: &mut [f32; LANES], next: &[f32], cur: &[f32]| {
        for ((lane, &nx), &cur) in lanes.iter_mut().zip(next).zip(cur) {
            *lane = max_or_nan(*lane, (nx - cur).abs());
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
/// workers that each update a chunk of the iterate in place.
struct Sweep<'a> {
    /// Whether `E(t)` is `E0` with a dead row: the sweep scatters from the
    /// live rows of `E0` and reads no ring or halo.
    scatter: bool,
    graph: &'a Graph,
    /// Entry `(u, v)` of `A` is `weights[v]`.
    weights: &'a [f32],
    /// `E(t)` at the rows a worker reads from outside its ring or its chunk.
    halo: &'a SparseRows,
    /// `E0`, row-sparse.
    e0: &'a SparseRows,
    /// A row of `dim` zeros: `E(t)`'s row of a dead node.
    zeros: &'a [f32],
    dim: usize,
    alpha: f32,
    /// While some row of `E(t)` is dead: which rows are live.
    live: Option<&'a [bool]>,
    /// A row reads the neighbours within `radius` ids from the ring.
    radius: usize,
    /// Rows per worker; the halo was built for it.
    chunk_rows: usize,
}

impl Sweep<'_> {
    /// Sweeps every row of `current` in place — `E(t)` in, `E(t+1)` out —
    /// one chunk of `chunk_rows` rows per worker, sets `reached[u]` when row
    /// `u` gathers from a live row, and returns the max residual
    /// `|E(t+1) − E(t)|` (NaN if any cell's is).
    fn pass(&self, current: &mut [f32], reached: &mut [bool], threads: usize) -> f32 {
        let rows = current.chunks_mut(self.chunk_rows * self.dim.max(1));
        let mut chunks: Vec<(usize, &mut [f32], &mut [bool])> = rows
            .zip(reached.chunks_mut(self.chunk_rows))
            .enumerate()
            .map(|(i, (rows, reached))| (i * self.chunk_rows, rows, reached))
            .collect();
        let deltas =
            crate::workpool::map_batched_mut(&mut chunks, threads, |(first, rows, reached)| {
                match self.live {
                    Some(live) if self.scatter => self.scatter(live, *first, rows, reached),
                    _ => self.chunk(*first, rows, reached),
                }
            });
        deltas.into_iter().fold(0.0f32, max_or_nan)
    }

    /// The first sweep, from `E(0) = E0` with a dead row, over the chunk of
    /// rows from `first` on, `rows`; `reached` holds `live`, `E0`'s live
    /// rows. Returns the chunk's max residual.
    ///
    /// The live rows' sums are zeroed, and a dead row's when a live row
    /// first reaches it, so no dead row of `rows` is read. Then each live
    /// row `v`, in ascending order, adds `w_v · E0[v]` to its neighbours'
    /// sums in the chunk: a sum starts at `+0.0` and adds its live
    /// neighbours' products in adjacency order, the pull's bits (see
    /// [`Sweep::blend`]). The reached rows then blend, with the residual
    /// against `E0[u]` on a live row and against zeros on a dead one.
    fn scatter(&self, live: &[bool], first: usize, rows: &mut [f32], reached: &mut [bool]) -> f32 {
        let (dim, end, alpha) = (self.dim, first + reached.len(), self.alpha);
        for u in (first..end).filter(|&u| live[u]) {
            rows[(u - first) * dim..][..dim].fill(0.0);
        }
        for (v, node) in self.graph.node_ids().enumerate().filter(|&(v, _)| live[v]) {
            let neighbors = self.graph.neighbor_slice(node);
            let low = neighbors.partition_point(|u| u.index() < first);
            let high = low + neighbors[low..].partition_point(|u| u.index() < end);
            let (w, src) = (self.weights[v], self.e0.row(v));
            for i in neighbors[low..high].iter().map(|u| u.index() - first) {
                let sums = &mut rows[i * dim..][..dim];
                if !reached[i] {
                    reached[i] = true;
                    sums.fill(0.0);
                }
                for (sum, &x) in sums.iter_mut().zip(src) {
                    *sum += w * x;
                }
            }
        }
        let mut lanes = [0.0f32; LANES];
        for u in (first..end).filter(|&u| reached[u - first]) {
            let (row, origin) = (&mut rows[(u - first) * dim..][..dim], self.e0.row(u));
            for (cell, &origin) in row.iter_mut().zip(origin) {
                *cell = (1.0 - alpha) * *cell + alpha * origin;
            }
            fold_residual(&mut lanes, row, if live[u] { origin } else { self.zeros });
        }
        lanes.into_iter().fold(0.0f32, max_or_nan)
    }

    /// Sweeps the chunk of rows from `first` on, `rows`, in place, with a
    /// ring of its own, sets `reached[i]` when row `first + i` gathers from
    /// a live row, and returns the chunk's max residual.
    ///
    /// Before row `u` is swept the ring holds the rows within `radius` ids
    /// of it, each as `w_v · E(t)[v]`: row `u + radius` is stored just
    /// before, so no row of the chunk is stored after it is overwritten,
    /// and a row outside the chunk, which another worker may be
    /// overwriting, is stored from the halo. A dead row is not read: its
    /// slot reads `+0.0`, zeroed when it enters the window if the slot held
    /// a live row, as its halo row does, never snapshotted while dead. So a
    /// live row gathers every neighbour, and a dead one adds `+0.0`, which
    /// changes no bit of a sum (argued at [`Sweep::blend`]).
    ///
    /// A row dead in `E(t)` has a dead row of `E0` too (`E0`'s live rows are
    /// live in every iterate). It gathers only from its live neighbours, few
    /// where it is first reached, and if there are none it stays dead and
    /// is skipped: `rows` already holds its `+0.0` bits, since dead rows
    /// start as zeros and the live set only grows, and its residual
    /// `|(+0.0) − (+0.0)|` would lose to every lane.
    fn chunk(&self, first: usize, rows: &mut [f32], reached: &mut [bool]) -> f32 {
        let (dim, n, end) = (self.dim, self.graph.num_nodes(), first + reached.len());
        let ring_rows = self.ring_rows();
        let mut ring = vec![0.0f32; ring_rows * dim];
        let mut lanes = [0.0f32; LANES];
        let start = first.saturating_sub(self.radius);
        let mut stored = start;
        for (u, node) in (first..end).zip(self.graph.node_ids().skip(first)) {
            let last = (u + self.radius).min(n - 1);
            for v in stored..=last {
                let slot = &mut ring[(v & (ring_rows - 1)) * dim..][..dim];
                match self.live {
                    // The slot last held row `v − ring_rows`, if any.
                    Some(live) if !live[v] => {
                        if v >= start + ring_rows && live[v - ring_rows] {
                            slot.fill(0.0);
                        }
                    }
                    _ => {
                        let src = match v.checked_sub(first) {
                            Some(i) if v < end => &rows[i * dim..][..dim],
                            _ => self.halo.row(v),
                        };
                        for (s, &x) in slot.iter_mut().zip(src) {
                            *s = self.weights[v] * x;
                        }
                    }
                }
            }
            stored = stored.max(last + 1);
            let row = &mut rows[(u - first) * dim..][..dim];
            let neighbors = self.graph.neighbor_slice(node);
            match self.live {
                Some(live) if !live[u] => {
                    let gathers = neighbors.iter().any(|v| live[v.index()]);
                    if gathers {
                        self.blend(node, &ring, |v| live[v], false, row, &mut lanes);
                    }
                    reached[u - first] |= gathers;
                }
                _ => self.blend(node, &ring, |_| true, true, row, &mut lanes),
            }
        }
        lanes.into_iter().fold(0.0f32, max_or_nan)
    }

    /// How many rows a ring holds: the `2 · radius + 1` it must, or the
    /// graph's `N` if fewer, rounded up to a power of two.
    fn ring_rows(&self) -> usize {
        (2 * self.radius + 1)
            .min(self.graph.num_nodes())
            .next_power_of_two()
    }

    /// Writes `(1−a)·Σ w·E(t)[v] + a·E0[u]` over the neighbours `keep`
    /// passes into `row`, block by block, each block's `|E(t+1) − E(t)|`
    /// folded into `lanes` before it is written: against `row` when `u` is
    /// `live` in `E(t)`, against zeros when it is not, so `E(t)` is not
    /// read on a dead row.
    ///
    /// A dead neighbour's row of `E(t)` is all `+0.0` bits. A dead row's
    /// mask leaves its term out; a live row adds `+0.0` for it from the
    /// ring or the halo. With finite weights the sums are still those of
    /// the full row, bit for bit: the term is `w · (+0.0) = ±0.0`, every sum
    /// starts at `+0.0` and so is never `−0.0`, and adding `±0.0` to
    /// anything else changes no bit; the other terms keep their adjacency
    /// order.
    fn blend(
        &self,
        node: NodeId,
        ring: &[f32],
        keep: impl Fn(usize) -> bool + Copy,
        live: bool,
        row: &mut [f32],
        lanes: &mut [f32; LANES],
    ) {
        let u = node.index();
        let neighbors = self.graph.neighbor_slice(node);
        let within = |v: &NodeId| v.index() + self.radius >= u && v.index() <= u + self.radius;
        let (mut low, mut near) = (0, neighbors.len());
        if !(neighbors.first().is_none_or(within) && neighbors.last().is_none_or(within)) {
            low = neighbors.partition_point(|v| v.index() + self.radius < u);
            near = low + neighbors[low..].partition_point(|v| v.index() <= u + self.radius);
        }
        let parts = [&neighbors[..low], &neighbors[low..near], &neighbors[near..]];
        let (origin, alpha) = (self.e0.row(u), self.alpha);
        let mut emit = |start: usize, sums: &mut [f32]| {
            for (sum, &origin) in sums.iter_mut().zip(&origin[start..]) {
                *sum = (1.0 - alpha) * *sum + alpha * origin;
            }
            let (cells, zeros) = (&mut row[start..][..sums.len()], &self.zeros[..sums.len()]);
            fold_residual(lanes, sums, if live { cells } else { zeros });
            cells.copy_from_slice(sums);
        };
        // Whole blocks, then the tail: two inlined copies of `gather`, the
        // first with the constant width.
        let mut start = 0;
        while start + GATHER_BLOCK <= self.dim {
            let mut block = self.gather(GATHER_BLOCK, start, parts, ring, keep);
            emit(start, &mut block);
            start += GATHER_BLOCK;
        }
        if start < self.dim {
            let width = self.dim - start;
            let mut block = self.gather(width, start, parts, ring, keep);
            emit(start, &mut block[..width]);
        }
    }

    /// The sums `Σ w · E(t)[v]` over the neighbours `keep` passes, in
    /// adjacency order, of the `width` cells from `start` on, as the first
    /// `width` cells of a block: the low and the high part of the row
    /// multiply rows of the halo, the near part adds the ring's scaled rows.
    /// Every sum starts at `+0.0` and adds the products the CSR product
    /// adds, in its order, so its bits are that product's. The block is a
    /// local no reference outlives, so the sums can stay in registers.
    #[inline(always)]
    fn gather(
        &self,
        width: usize,
        start: usize,
        [low, near, high]: [&[NodeId]; 3],
        ring: &[f32],
        keep: impl Fn(usize) -> bool + Copy,
    ) -> [f32; GATHER_BLOCK] {
        let (mask, mut block) = (self.ring_rows() - 1, [0.0f32; GATHER_BLOCK]);
        let sums = &mut block[..width];
        // `move`: were `width` borrowed, a call to an out-of-line `far`
        // would hide that it is still the constant.
        let far = move |sums: &mut [f32], part: &[NodeId]| {
            for v in part.iter().map(|v| v.index()).filter(|&v| keep(v)) {
                let (w, src) = (self.weights[v], &self.halo.row(v)[start..][..width]);
                for (sum, &x) in sums.iter_mut().zip(src) {
                    *sum += w * x;
                }
            }
        };
        far(sums, low);
        for v in near.iter().map(|v| v.index()).filter(|&v| keep(v)) {
            let src = &ring[(v & mask) * self.dim + start..][..width];
            for (sum, &x) in sums.iter_mut().zip(src) {
                *sum += x;
            }
        }
        far(sums, high);
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::reference_sweep;
    use gdsearch_embed::Embedding;
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
        let rows = SparseRows::from_signal(&e0);
        for threads in [2, 3, 4, 16] {
            let out = diffuse_rows(&g, &rows, &cfg, threads).unwrap();
            assert_eq!(out.signal.as_slice(), reference.signal.as_slice());
            assert_eq!(out.iterations, reference.iterations);
            assert_eq!(out.residual, reference.residual);
            assert_eq!(out.converged, reference.converged);
        }
    }

    #[test]
    fn threaded_handles_more_threads_than_rows() {
        let g = generators::ring(3).unwrap();
        let e0 = SparseRows::from_signal(&one_hot_signal(3, 0));
        let out = diffuse_rows(&g, &e0, &PprConfig::default(), 64).unwrap();
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

    /// One pass of the sweep over `iterate`, in place, as the loop makes
    /// it: the halo's snapshot, then the rows, `how.1` workers and a ring
    /// of radius `how.0` each — or, with `how.2`, the first sweep's scatter
    /// from `e0`'s rows, which `iterate` must hold. Returns the pass's max
    /// residual.
    fn one_pass(
        g: &Graph,
        e0: &SparseRows,
        iterate: &mut Signal,
        live: Option<&[bool]>,
        alpha: f32,
        (radius, threads, scatter): (usize, usize, bool),
        reached: &mut [bool],
    ) -> f32 {
        let (n, dim) = (g.num_nodes(), e0.dim());
        let chunk_rows = n.div_ceil(threads).max(1);
        let mut halo = halo(g, dim, radius, chunk_rows);
        snapshot(&mut halo, iterate.as_slice(), live);
        let (weights, zeros) = (weights(g), vec![0.0f32; dim]);
        let sweep = Sweep {
            scatter,
            graph: g,
            weights: &weights,
            halo: &halo,
            e0,
            zeros: &zeros,
            dim,
            alpha,
            live,
            radius,
            chunk_rows,
        };
        sweep.pass(iterate.as_mut_slice(), reached, threads)
    }

    #[test]
    fn live_rows_product_skips_dead_sources_bit_for_bit() {
        // Path 0-…-4 with only row 1 of E(t) and E0 non-zero: rows 0 and 2
        // gather from it, rows 3 and 4 from nothing, and row 1, live, from
        // dead rows only. Path 0-…-9 with rows 0 and 5 live: row 5's
        // neighbours are dead, and at radius 1 the ring's 4 slots store row
        // 4, dead, where row 0, live, was. Through the ring (radius 127 and
        // 1) and the halo (radius 0), on 1 and 2 workers, by the pull from
        // E(t) and by the scatter from E0.
        let cases = [
            (5, vec![(1, [1.25, -0.5], [0.3, -7.5])]),
            (
                10,
                vec![
                    (0, [2.5, 0.75], [-1.5, 3.0]),
                    (5, [1.25, -0.5], [0.3, -7.5]),
                ],
            ),
        ];
        for (nodes, sources) in cases {
            let g = generators::path(nodes);
            let n = g.num_nodes();
            let (mut e0, mut cur) = (Signal::zeros(n, 2), Signal::zeros(n, 2));
            for (u, e, c) in &sources {
                e0.row_mut(*u).copy_from_slice(e);
                cur.row_mut(*u).copy_from_slice(c);
            }
            let live: Vec<bool> = (0..n).map(|u| sources.iter().any(|s| s.0 == u)).collect();
            let gathers: Vec<bool> = g
                .node_ids()
                .map(|u| live[u.index()] || g.neighbors(u).any(|v| live[v.index()]))
                .collect();
            for scatter in [false, true] {
                let from = if scatter { &e0 } else { &cur };
                for (radius, threads) in [(RADIUS, 1), (RADIUS, 2), (1, 1), (1, 2), (0, 1), (0, 2)]
                {
                    let how = (radius, threads, scatter);
                    let mut full = from.clone();
                    let unmasked = (radius, threads, false);
                    let (rows, mut all) = (SparseRows::from_signal(&e0), vec![true; n]);
                    let full_delta = one_pass(&g, &rows, &mut full, None, 0.3, unmasked, &mut all);
                    // Dead rows that gather are poisoned, which a gather or
                    // a residual that read them would return; the others
                    // hold a NaN sentinel that a write would overwrite.
                    let mut masked = from.clone();
                    for u in (0..n).filter(|&u| !live[u]) {
                        masked
                            .row_mut(u)
                            .fill(if gathers[u] { f32::MAX } else { f32::NAN });
                    }
                    // The pull leaves a row the caller set set; the scatter
                    // starts from `live`, as the loop calls it.
                    let mut reached = live.clone();
                    reached[n - 1] |= !scatter;
                    let masked_delta =
                        one_pass(&g, &rows, &mut masked, Some(&live), 0.3, how, &mut reached);
                    for (u, &gathers) in gathers.iter().enumerate() {
                        let (masked, full) = (masked.row(u), full.row(u));
                        if gathers {
                            assert_eq!(bits(masked), bits(full), "row {u}, {how:?}");
                        } else {
                            assert!(masked.iter().all(|x| x.is_nan()), "row {u}, {how:?}");
                            assert_eq!(bits(full), [0; 2]);
                        }
                    }
                    assert_eq!(masked_delta.to_bits(), full_delta.to_bits(), "{how:?}");
                    let mut want = gathers.clone();
                    want[n - 1] |= !scatter;
                    assert_eq!(reached, want, "{how:?}");
                }
            }
        }
    }

    #[test]
    fn a_nan_in_e0_ends_the_sweep_unconverged_at_once() {
        // ROADMAP measurement 1: one NaN component of one row of a dense E0
        // on a 300-node graph, which reaches the sweep (a source row with
        // one is rejected at `SparseRows::from_sources`). The first sweep's
        // residual is NaN, so the sweep stops there instead of reading as
        // converged; an infinity makes the residual non-finite too.
        let g = generators::social_circles_like_scaled(300, &mut seeded(5)).unwrap();
        let cfg = PprConfig::new(0.5).unwrap();
        for bad in [f32::NAN, f32::INFINITY] {
            let mut e0 = one_hot_signal(300, 4);
            e0.row_mut(7)[0] = 0.25;
            e0.row_mut(4)[0] = bad;
            let out = diffuse(&g, &e0, &cfg).unwrap();
            assert_eq!((out.converged, out.iterations), (false, 1), "{bad}");
            assert!(out.residual.is_nan(), "{bad}");
            assert!(matches!(
                out.into_converged(),
                Err(DiffusionError::NotConverged { iterations: 1, .. })
            ));
            let rows = SparseRows::from_signal(&e0);
            let out = diffuse_rows(&g, &rows, &cfg, 2).unwrap();
            assert_eq!((out.converged, out.iterations), (false, 1), "{bad}");
        }
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
            let e0 = SparseRows::zeros(n, 1);
            for (v, radius) in (0..n).flat_map(|v| [(v, 0), (v, RADIUS)]) {
                let mut column = Signal::zeros(n, 1);
                column.row_mut(v)[0] = 1.0;
                one_pass(&g, &e0, &mut column, None, 0.0, (radius, 1, false), &mut vec![false; n]);
                let column = column.as_slice();
                let stored = (0..n).map(|u| {
                    a.row(u).find(|&(c, _)| c as usize == v).map_or(0.0, |(_, w)| w)
                });
                prop_assert_eq!(bits(column), bits(&stored.collect::<Vec<_>>()), "column {} radius {}", v, radius);
            }
        }
    }

    /// Graphs whose edges reach far across the id range: Barabási–Albert
    /// (late ids attach to early hubs), a path zigzagging between the two
    /// ends of the id range (0, n−1, 1, n−2, …), a star whose hub has the
    /// largest id, a social-circles graph of 130–300 nodes with its ids
    /// shuffled, so the halo carries most entries at small radii, and the
    /// hostile shapes of `sweep_equals_reference_on_hostile_graphs` (no
    /// nodes, one node, a triangle beside isolated nodes, a hub at id 0).
    fn arb_far_graph() -> impl Strategy<Value = Graph> {
        (0usize..8, 3u32..40, 0u64..1000).prop_map(|(family, n, seed)| match family {
            0 => generators::barabasi_albert(n, 2, &mut seeded(seed)).unwrap(),
            1 => {
                let order: Vec<u32> = (0..n)
                    .map(|i| if i % 2 == 0 { i / 2 } else { n - 1 - i / 2 })
                    .collect();
                Graph::from_edges(n, order.windows(2).map(|e| (e[0], e[1]))).unwrap()
            }
            2 => Graph::from_edges(n, (0..n - 1).map(|u| (u, n - 1))).unwrap(),
            3 => {
                use rand::seq::SliceRandom;
                let mut rng = seeded(seed);
                let n = 130 + 4 * n;
                let g = generators::social_circles_like_scaled(n, &mut rng).unwrap();
                let mut label: Vec<u32> = (0..n).collect();
                label.shuffle(&mut rng);
                let edges = g.edges().map(|(u, v)| (label[u.index()], label[v.index()]));
                Graph::from_edges(n, edges).unwrap()
            }
            4 => Graph::empty(0),
            5 => Graph::empty(1),
            6 => Graph::from_edges(7, [(1, 2), (2, 3), (1, 3)]).unwrap(),
            _ => generators::star(9),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On any thread count, and whatever share of the entries the ring
        /// carries — none (radius 0), few, the sweep's own radius, or all
        /// (radius N) — the in-place sweep leaves the reference sweep's
        /// bits, sweep count and residual: from sources on a few rows (the
        /// mask on) and on every row (the mask off).
        #[test]
        fn every_thread_count_and_radius_is_the_reference_sweep(
            g in arb_far_graph(),
            dim in 0usize..6,
            hosts in 0usize..5,
            alpha in 0.1f32..1.0,
            seed in 0u64..1000,
        ) {
            let (n, dim) = (g.num_nodes(), [0, 1, 63, 64, 65, 130][dim]);
            let mut rng = seeded(seed);
            let mut e0 = Signal::zeros(n, dim);
            // hosts 0: every row; 4: every other row, so half of them
            // scatter; otherwise that many random rows.
            let rows: Vec<usize> = match hosts {
                0 => (0..n).collect(),
                4 => (0..n).step_by(2).collect(),
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
            let rows = SparseRows::from_signal(&e0);
            for radius in [0, 1, 2, RADIUS, n] {
                for threads in [1, 2, 3, 16] {
                    let out = sweep_to_fixed_point(&g, &rows, &cfg, threads, radius);
                    let got = (bits(out.signal.as_slice()), out.iterations, out.residual.to_bits(), out.converged);
                    prop_assert_eq!(&got, &want, "radius {}, {} threads", radius, threads);
                }
            }
        }

        /// The first sweep's scatter from `E0`'s rows leaves the masked
        /// pull's bits, residual and reached rows, on every thread count and
        /// against the pull at any radius, for sources as
        /// [`SparseRows::from_sources`] folds them: repeated, summing to `+0.0`,
        /// carrying `−0.0`, on an isolated node and on either side of a
        /// chunk boundary.
        #[test]
        fn first_sweep_scatter_is_the_masked_pull(
            g in arb_far_graph(),
            dim in 0usize..6,
            hosts in 1usize..8,
            alpha in 0.1f32..1.0,
            seed in 0u64..1000,
        ) {
            let (n, dim) = (g.num_nodes(), [0, 1, 63, 64, 65, 130][dim]);
            let mut rng = seeded(seed);
            let mut rows: Vec<usize> = match n {
                0 => Vec::new(),
                _ => (0..hosts).map(|_| rng.random_range(0..n)).collect(),
            };
            for chunk_rows in [n.div_ceil(2), n.div_ceil(3)] {
                rows.extend([chunk_rows.wrapping_sub(1), chunk_rows].into_iter().filter(|&u| u < n));
            }
            rows.extend(g.node_ids().find(|&v| g.degree(v) == 0).map(NodeId::index));
            let mut sources = Vec::new();
            for u in rows {
                let row: Vec<f32> = (0..dim).map(|_| rng.random::<f32>() - 0.5).collect();
                let negated = row.iter().map(|x| -x).collect();
                let node = NodeId::new(u32::try_from(u).unwrap());
                match rng.random_range(0..4) {
                    0 => sources.push((node, Embedding::new(row))),
                    1 => sources.extend([(node, Embedding::new(row.clone())), (node, Embedding::new(row))]),
                    2 => sources.extend([(node, Embedding::new(row)), (node, Embedding::new(negated))]),
                    _ => sources.push((node, Embedding::new(vec![-0.0; dim]))),
                }
            }
            let e0 = SparseRows::from_sources(n, dim, &sources).unwrap();
            let mut live = vec![false; n];
            for u in e0.support() {
                live[u as usize] = true;
            }
            for radius in [0, 1, RADIUS, n] {
                for threads in [1, 2, 3, 16] {
                    let pass = |scatter| {
                        let (mut iterate, mut reached) = (e0.to_signal(), live.clone());
                        let how = (radius, threads, scatter);
                        let delta = one_pass(&g, &e0, &mut iterate, Some(&live), alpha, how, &mut reached);
                        (bits(iterate.as_slice()), delta.to_bits(), reached)
                    };
                    prop_assert_eq!(pass(true), pass(false), "radius {}, {} threads", radius, threads);
                }
            }
        }
    }
}
