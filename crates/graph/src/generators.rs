//! Random and deterministic graph generators.
//!
//! The evaluation in the reproduced paper runs on the SNAP Facebook
//! social-circles graph (4,039 nodes, 88,234 edges, mean degree ≈ 43.7,
//! high clustering). That dataset is not redistributable here, so
//! [`social_circles_like`] provides a calibrated synthetic stand-in based on
//! the relaxed-caveman community model (dense 45-node circles on a sparse
//! inter-circle skeleton, reproducing the dataset's clustering *and* its
//! long graph distances); the real file can still be loaded through
//! [`crate::io::read_edge_list`].
//!
//! All generators take a caller-provided RNG so experiments are reproducible
//! end to end from a single seed.
//!
//! # Example
//!
//! ```
//! use gdsearch_graph::generators;
//! use rand::SeedableRng;
//! use rand::rngs::StdRng;
//!
//! # fn main() -> Result<(), gdsearch_graph::GraphError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = generators::barabasi_albert(100, 3, &mut rng)?;
//! assert_eq!(g.num_nodes(), 100);
//! // Preferential attachment adds m edges per new node.
//! assert!(g.num_edges() >= 3 * (100 - 4));
//! # Ok(())
//! # }
//! ```

#![expect(
    clippy::expect_used,
    reason = "audited invariant expect()s: each site's message states the precondition that makes it unreachable"
)]
#![expect(
    clippy::indexing_slicing,
    reason = "bounds-audited indexing: buffers are sized at construction and indices derive from validated node/shard/dim counts"
)]
#![expect(
    clippy::cast_possible_truncation,
    reason = "node ids bounded by the u32 node count; the f64 casts floor a geometric skip and the root of a triangular number, both inside the pair range"
)]
#![expect(
    clippy::cast_sign_loss,
    reason = "the f64 is the root of a positive value and the i64 skip is checked non-negative before its cast"
)]

use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, NodeId};

/// Number of nodes of the SNAP Facebook social-circles graph.
pub const FACEBOOK_NODES: u32 = 4_039;
/// Circle (community) size used by [`social_circles_like`]: a 45-node
/// near-clique has internal degree ≈ 42, matching the dataset's mean
/// degree of 43.7.
pub const FACEBOOK_CIRCLE_SIZE: u32 = 45;

/// Erdős–Rényi `G(n, p)` random graph.
///
/// Uses geometric edge skipping, so generation costs `O(n + E)` rather than
/// `O(n^2)` for sparse graphs.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]` or is
/// not finite.
pub fn erdos_renyi<R: Rng + ?Sized>(n: u32, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    check_probability(p, "p")?;
    let mut builder = GraphBuilder::new(n);
    if n >= 2 && p > 0.0 {
        let total_pairs = n as u64 * (n as u64 - 1) / 2;
        for pair in sample_bernoulli_indexes(total_pairs, p, rng) {
            let (u, v) = pair_from_index(pair);
            builder.add_edge(u, v)?;
        }
    }
    Ok(builder.build())
}

/// Barabási–Albert preferential-attachment graph.
///
/// Starts from a complete graph on `m + 1` seed nodes; each subsequent node
/// attaches to `m` distinct existing nodes sampled with probability
/// proportional to their degree.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `m == 0` or `n <= m`.
pub fn barabasi_albert<R: Rng + ?Sized>(n: u32, m: u32, rng: &mut R) -> Result<Graph, GraphError> {
    if m == 0 {
        return Err(GraphError::invalid_parameter("m must be positive"));
    }
    if n <= m {
        return Err(GraphError::invalid_parameter("n must exceed m"));
    }
    let seed = m + 1;
    let mut builder = GraphBuilder::new(n);
    // `repeated` holds every edge endpoint once, so uniform sampling from it
    // is degree-proportional sampling.
    let mut repeated: Vec<u32> = Vec::new();
    let connect = |builder: &mut GraphBuilder,
                   repeated: &mut Vec<u32>,
                   u: u32,
                   v: u32|
     -> Result<(), GraphError> {
        builder.add_edge(u, v)?;
        repeated.push(u);
        repeated.push(v);
        Ok(())
    };
    for u in 0..seed {
        for v in (u + 1)..seed {
            connect(&mut builder, &mut repeated, u, v)?;
        }
    }
    for u in seed..n {
        let mut last_target: Option<u32> = None;
        for _ in 0..m {
            if let Some(t) = last_target {
                // The two draws of a Holme–Kim triad step that is never
                // taken (a neighbour of `t`, then a coin against 0), kept so
                // every graph and the caller's next draw stay as pinned.
                rng.random_range(0..builder.added_neighbors(t).len());
                rng.random::<f64>();
            }
            // Preferential attachment with rejection of duplicates.
            let mut target = repeated[rng.random_range(0..repeated.len())];
            let mut attempts = 0;
            while (target == u || builder.has_edge(u, target)) && attempts < 64 {
                target = repeated[rng.random_range(0..repeated.len())];
                attempts += 1;
            }
            if target == u || builder.has_edge(u, target) {
                // Dense fallback: pick the smallest non-adjacent node.
                match (0..u).find(|&w| !builder.has_edge(u, w)) {
                    Some(w) => target = w,
                    None => break, // u is adjacent to all predecessors
                }
            }
            connect(&mut builder, &mut repeated, u, target)?;
            last_target = Some(target);
        }
    }
    Ok(builder.build())
}

/// Relaxed-caveman community graph: `n` nodes are partitioned into
/// communities of (at most) `community_size`; each community is an
/// Erdős–Rényi near-clique with edge probability `intra_p`; consecutive
/// communities are connected by a ring edge (guaranteeing connectivity) and
/// each community adds `bridges` extra uniform inter-community edges.
///
/// This is the classic model of *social-circles* topology: very high
/// clustering inside circles, and graph distances that grow along the
/// sparse inter-community skeleton — which is what gives the Facebook
/// social-circles dataset its diameter of 8 despite a mean degree of 43.7.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`,
/// `community_size < 2` or `intra_p` is outside `[0, 1]`.
pub fn relaxed_caveman<R: Rng + ?Sized>(
    n: u32,
    community_size: u32,
    intra_p: f64,
    bridges: u32,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    check_probability(intra_p, "intra_p")?;
    if n == 0 {
        return Err(GraphError::invalid_parameter("n must be positive"));
    }
    if community_size < 2 {
        return Err(GraphError::invalid_parameter(
            "community_size must be at least 2",
        ));
    }
    let mut builder = GraphBuilder::new(n);
    // Community c covers ids [c*community_size, min((c+1)*community_size, n)).
    let num_communities = n.div_ceil(community_size);
    let bounds = |c: u32| -> (u32, u32) {
        let start = c * community_size;
        (start, ((c + 1) * community_size).min(n))
    };
    for c in 0..num_communities {
        let (start, end) = bounds(c);
        let size = (end - start) as u64;
        // Dense intra-community edges.
        if size >= 2 && intra_p > 0.0 {
            let pairs = size * (size - 1) / 2;
            for pair in sample_bernoulli_indexes(pairs, intra_p, rng) {
                let (u, v) = pair_from_index(pair);
                builder.add_edge(start + u, start + v)?;
            }
        }
        // Ring edge to the next community (connectivity backbone).
        if num_communities > 1 {
            let (nstart, nend) = bounds((c + 1) % num_communities);
            let u = rng.random_range(start..end);
            let v = rng.random_range(nstart..nend);
            if u != v {
                builder.add_edge(u, v)?;
            }
        }
        // Long-range bridges.
        for _ in 0..bridges {
            if n <= end - start {
                break; // single community: nowhere else to bridge
            }
            let u = rng.random_range(start..end);
            for _ in 0..32 {
                let v = rng.random_range(0..n);
                if !(start..end).contains(&v) && v != u && !builder.has_edge(u, v) {
                    builder.add_edge(u, v)?;
                    break;
                }
            }
        }
    }
    Ok(builder.build())
}

/// Calibrated stand-in for the SNAP Facebook social-circles graph used in
/// the paper's evaluation: a [`relaxed_caveman`] graph with 4,039 nodes in
/// 45-node circles (mean degree ≈ 42 vs. 43.7 in the dataset), very high
/// clustering (≈ 0.9 vs. 0.61), and a sparse inter-circle skeleton that
/// reproduces the dataset's long graph distances (diameter 8, mean path
/// ≈ 4) — the property the paper's accuracy-vs-distance evaluation sweeps
/// over. See `DESIGN.md` for the substitution rationale; the real
/// `facebook_combined.txt` can be loaded with
/// [`crate::io::read_edge_list_path`] instead.
pub fn social_circles_like<R: Rng + ?Sized>(rng: &mut R) -> Result<Graph, GraphError> {
    relaxed_caveman(FACEBOOK_NODES, FACEBOOK_CIRCLE_SIZE, 0.95, 4, rng)
}

/// Scaled variant of [`social_circles_like`] with `n` nodes, keeping the
/// Facebook-like circle size (mean degree ≈ 42) and clustering. Small `n`
/// shrinks the circle size so at least three circles exist.
///
/// Useful for quick experiments and CI-sized tests.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 6`.
pub fn social_circles_like_scaled<R: Rng + ?Sized>(
    n: u32,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n < 6 {
        return Err(GraphError::invalid_parameter("n must be at least 6"));
    }
    let circle = FACEBOOK_CIRCLE_SIZE.min(n / 3);
    relaxed_caveman(n, circle, 0.95, 4, rng)
}

/// Path graph `0 - 1 - … - (n-1)`.
pub fn path(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 1..n {
        b.add_edge(u - 1, u).expect("consecutive ids are valid");
    }
    b.build()
}

/// Cycle graph on `n >= 3` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n < 3`.
pub fn ring(n: u32) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::invalid_parameter("a ring needs n >= 3"));
    }
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n)?;
    }
    Ok(b.build())
}

/// Complete graph on `n` nodes.
pub fn complete(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v).expect("distinct in-range ids");
        }
    }
    b.build()
}

/// Star graph: node 0 connected to nodes `1..n`.
pub fn star(n: u32) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 1..n {
        b.add_edge(0, u).expect("distinct in-range ids");
    }
    b.build()
}

/// Two-dimensional grid with `rows × cols` nodes; node `(r, c)` has index
/// `r * cols + c`.
pub fn grid(rows: u32, cols: u32) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    for r in 0..rows {
        for c in 0..cols {
            let u = r * cols + c;
            if c + 1 < cols {
                b.add_edge(u, u + 1).expect("in-range");
            }
            if r + 1 < rows {
                b.add_edge(u, u + cols).expect("in-range");
            }
        }
    }
    b.build()
}

/// Uniformly random spanning-tree-plus-extra-edges connected graph: builds a
/// random recursive tree on `n` nodes then adds `extra` uniform random edges.
///
/// Guaranteed connected; handy for simulator tests that need arbitrary
/// connected topologies.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameter`] if `n == 0`.
pub fn random_connected<R: Rng + ?Sized>(
    n: u32,
    extra: u32,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::invalid_parameter("n must be positive"));
    }
    let mut b = GraphBuilder::new(n);
    for u in 1..n {
        let parent = rng.random_range(0..u);
        b.add_edge(parent, u)?;
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < extra && attempts < 50 * extra as u64 + 100 {
        attempts += 1;
        if n < 2 {
            break;
        }
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && !b.has_edge(u, v) {
            b.add_edge(u, v)?;
            added += 1;
        }
    }
    Ok(b.build())
}

/// Samples the indexes of successes of `count` independent Bernoulli(`p`)
/// trials using geometric skipping, in `O(successes)` expected time.
fn sample_bernoulli_indexes<R: Rng + ?Sized>(count: u64, p: f64, rng: &mut R) -> Vec<u64> {
    let mut out = Vec::new();
    if p <= 0.0 || count == 0 {
        return out;
    }
    if p >= 1.0 {
        out.extend(0..count);
        return out;
    }
    let log_q = (1.0 - p).ln();
    let mut i: i64 = -1;
    loop {
        let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let skip = (u.ln() / log_q).floor() as i64;
        i = i.saturating_add(1).saturating_add(skip);
        if i < 0 || i as u64 >= count {
            break;
        }
        out.push(i as u64);
    }
    out
}

/// Maps a linear index over the strictly-lower-triangular pair space to the
/// pair `(u, v)` with `u < v`. Pair `k` enumerates `(0,1), (0,2), (1,2),
/// (0,3), …` i.e. column-major over `v`.
fn pair_from_index(k: u64) -> (u32, u32) {
    // Find v such that v(v-1)/2 <= k < v(v+1)/2.
    let v = ((1.0 + 8.0 * k as f64).sqrt() as u64).div_ceil(2);
    let v = if v * (v - 1) / 2 > k { v - 1 } else { v };
    let u = k - v * (v - 1) / 2;
    (u as u32, v as u32)
}

fn check_probability(p: f64, name: &str) -> Result<(), GraphError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GraphError::invalid_parameter(format!(
            "{name} must lie in [0, 1], got {p}"
        )));
    }
    Ok(())
}

/// Convenience: returns `true` if every node is reachable from node 0
/// (vacuously true for the empty graph).
pub fn is_connected(g: &Graph) -> bool {
    if g.num_nodes() == 0 {
        return true;
    }
    crate::algo::bfs::distances(g, NodeId::new(0))
        .iter()
        .all(|d| d.is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn pair_from_index_enumerates_lower_triangle() {
        let expected = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4)];
        for (k, &(u, v)) in expected.iter().enumerate() {
            assert_eq!(pair_from_index(k as u64), (u, v), "k={k}");
        }
    }

    #[test]
    fn erdos_renyi_p_zero_is_empty() {
        let g = erdos_renyi(50, 0.0, &mut rng(1)).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn erdos_renyi_p_one_is_complete() {
        let g = erdos_renyi(20, 1.0, &mut rng(1)).unwrap();
        assert_eq!(g.num_edges(), 20 * 19 / 2);
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let n = 400u32;
        let p = 0.05;
        let g = erdos_renyi(n, p, &mut rng(42)).unwrap();
        let expected = p * (n as f64) * (n as f64 - 1.0) / 2.0;
        let got = g.num_edges() as f64;
        // 5 standard deviations of the binomial.
        let sd = (expected * (1.0 - p)).sqrt();
        assert!(
            (got - expected).abs() < 5.0 * sd,
            "expected ≈ {expected}, got {got}"
        );
    }

    #[test]
    fn erdos_renyi_rejects_bad_p() {
        assert!(erdos_renyi(10, -0.1, &mut rng(1)).is_err());
        assert!(erdos_renyi(10, 1.5, &mut rng(1)).is_err());
        assert!(erdos_renyi(10, f64::NAN, &mut rng(1)).is_err());
    }

    #[test]
    fn barabasi_albert_counts_and_connectivity() {
        let g = barabasi_albert(200, 3, &mut rng(9)).unwrap();
        assert_eq!(g.num_nodes(), 200);
        // Seed K4 (6 edges) + 3 per added node (unless saturated).
        assert_eq!(g.num_edges(), 6 + 3 * (200 - 4));
        assert!(is_connected(&g));
        for u in g.node_ids() {
            assert!(g.degree(u) >= 3);
        }
    }

    #[test]
    fn barabasi_albert_rejects_bad_params() {
        assert!(barabasi_albert(5, 0, &mut rng(1)).is_err());
        assert!(barabasi_albert(3, 3, &mut rng(1)).is_err());
    }

    #[test]
    fn social_circles_like_matches_facebook_scale() {
        let g = social_circles_like(&mut rng(2022)).unwrap();
        assert_eq!(g.num_nodes(), FACEBOOK_NODES as usize);
        let mean = g.mean_degree();
        assert!(
            (mean - 43.7).abs() < 4.0,
            "mean degree {mean} should be close to facebook's 43.7"
        );
        assert!(is_connected(&g));
        // The circle structure must reproduce the dataset's long graph
        // distances (diameter 8 in SNAP's stats).
        let diameter = crate::algo::bfs::diameter_lower_bound(&g, NodeId::new(0));
        assert!(
            (6..=30).contains(&diameter),
            "diameter proxy {diameter} should be facebook-like (>= 6)"
        );
        let clustering = crate::algo::clustering::average_clustering(&g);
        assert!(clustering > 0.5, "circles must be clustered: {clustering}");
    }

    #[test]
    fn relaxed_caveman_structure() {
        let g = relaxed_caveman(200, 20, 1.0, 0, &mut rng(3)).unwrap();
        assert!(is_connected(&g));
        // Full cliques of 20 plus one ring edge per community.
        assert_eq!(g.num_edges(), 10 * (20 * 19 / 2) + 10);
        assert!(relaxed_caveman(0, 10, 0.5, 1, &mut rng(3)).is_err());
        assert!(relaxed_caveman(10, 1, 0.5, 1, &mut rng(3)).is_err());
        assert!(relaxed_caveman(10, 5, 1.5, 1, &mut rng(3)).is_err());
    }

    #[test]
    fn social_circles_like_scaled_small() {
        for n in 0u32..6 {
            assert!(
                matches!(
                    social_circles_like_scaled(n, &mut rng(5)),
                    Err(GraphError::InvalidParameter { .. })
                ),
                "n = {n}"
            );
        }
        for n in [6u32, 20, 60, 150] {
            let g = social_circles_like_scaled(n, &mut rng(5)).unwrap();
            assert_eq!(g.num_nodes(), n as usize);
            assert!(is_connected(&g), "n = {n}");
        }
    }

    /// FNV-1a over every node's degree followed by its neighbour ids.
    fn digest(g: &Graph) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for u in g.node_ids() {
            let row = std::iter::once(g.degree(u) as u64)
                .chain(g.neighbors(u).map(|v| u64::from(v.as_u32())));
            for x in row {
                h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Edge counts and digests of each random generator's graph as the
    /// `BTreeSet` builder produced it (seed 3 unless noted): a builder
    /// change must not move a bit or an RNG draw.
    #[test]
    fn generators_reproduce_the_parent_graphs() {
        let cases = [
            (
                "social_circles_like (seed 2022)",
                social_circles_like(&mut rng(2022)),
                84_679,
                0xb17f_6375_5ae9_836a,
            ),
            (
                "relaxed_caveman",
                relaxed_caveman(1000, 20, 0.9, 3, &mut rng(3)),
                8_727,
                0xdf47_6a2b_a75e_2f91,
            ),
            (
                "erdos_renyi",
                erdos_renyi(500, 0.1, &mut rng(3)),
                12_534,
                0x9d0f_ed11_fa19_3de0,
            ),
            (
                "barabasi_albert",
                barabasi_albert(2000, 3, &mut rng(3)),
                5_994,
                0xbfdd_499c_7ada_726c,
            ),
            (
                "random_connected",
                random_connected(2000, 2000, &mut rng(3)),
                3_999,
                0x6a1c_ff60_9742_fd43,
            ),
        ];
        for (name, graph, edges, want) in cases {
            let g = graph.unwrap();
            assert_eq!(g.num_edges(), edges, "{name}");
            assert_eq!(digest(&g), want, "{name}: {:016x}", digest(&g));
        }
        // Preferential attachment still draws for the triad step it never
        // takes, so the caller's next draw is pinned too.
        let mut r = rng(3);
        barabasi_albert(2000, 3, &mut r).unwrap();
        assert_eq!(r.random::<u64>(), 0x1957_6db6_b708_91be);
    }

    #[test]
    fn deterministic_topologies() {
        let p = path(5);
        assert_eq!(p.num_edges(), 4);
        assert_eq!(p.degree(NodeId::new(0)), 1);
        assert_eq!(p.degree(NodeId::new(2)), 2);

        let r = ring(6).unwrap();
        assert_eq!(r.num_edges(), 6);
        for u in r.node_ids() {
            assert_eq!(r.degree(u), 2);
        }
        assert!(ring(2).is_err());

        let c = complete(5);
        assert_eq!(c.num_edges(), 10);

        let s = star(5);
        assert_eq!(s.degree(NodeId::new(0)), 4);
        assert_eq!(s.num_edges(), 4);

        let g = grid(3, 4);
        assert_eq!(g.num_nodes(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4);
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let g = random_connected(64, 20, &mut rng(seed)).unwrap();
            assert!(is_connected(&g));
            assert!(g.num_edges() >= 63);
        }
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let a = social_circles_like_scaled(200, &mut rng(77)).unwrap();
        let b = social_circles_like_scaled(200, &mut rng(77)).unwrap();
        assert_eq!(a, b);
        let c = erdos_renyi(100, 0.1, &mut rng(13)).unwrap();
        let d = erdos_renyi(100, 0.1, &mut rng(13)).unwrap();
        assert_eq!(c, d);
    }
}
