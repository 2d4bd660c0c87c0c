//! Property-based tests for the dense-retrieval substrate.

use gdsearch_embed::topk::TopK;
use gdsearch_embed::{similarity, Embedding};
use proptest::prelude::*;

fn arb_vector(dim: usize) -> impl Strategy<Value = Embedding> {
    proptest::collection::vec(-10.0f32..10.0, dim).prop_map(Embedding::new)
}

proptest! {
    #[test]
    fn dot_is_bilinear(a in arb_vector(8), b in arb_vector(8), c in arb_vector(8), s in -5.0f32..5.0) {
        // <a + s·b, c> == <a, c> + s·<b, c>
        let mut left_vec = a.clone();
        left_vec.add_in_place(&b.scaled(s)).unwrap();
        let left = similarity::dot(&left_vec, &c).unwrap();
        let right = similarity::dot(&a, &c).unwrap() + s * similarity::dot(&b, &c).unwrap();
        prop_assert!((left - right).abs() < 1e-2 * (1.0 + right.abs()),
            "left {left} right {right}");
    }

    #[test]
    fn dot_is_symmetric(a in arb_vector(8), b in arb_vector(8)) {
        let ab = similarity::dot(&a, &b).unwrap();
        let ba = similarity::dot(&b, &a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn cosine_is_scale_invariant(a in arb_vector(6), b in arb_vector(6), s in 0.1f32..20.0) {
        prop_assume!(a.norm() > 1e-3 && b.norm() > 1e-3);
        let base = similarity::cosine(&a, &b).unwrap();
        let scaled = similarity::cosine(&a.scaled(s), &b).unwrap();
        prop_assert!((base - scaled).abs() < 1e-3);
    }

    #[test]
    fn cosine_bounded(a in arb_vector(6), b in arb_vector(6)) {
        let c = similarity::cosine(&a, &b).unwrap();
        prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&c));
    }

    #[test]
    fn normalization_preserves_direction(a in arb_vector(6)) {
        prop_assume!(a.norm() > 1e-3);
        let n = a.normalized();
        prop_assert!((n.norm() - 1.0).abs() < 1e-4);
        let c = similarity::cosine(&a, &n).unwrap();
        prop_assert!((c - 1.0).abs() < 1e-4);
    }

    #[test]
    fn topk_matches_full_sort(scores in proptest::collection::vec(-100.0f32..100.0, 0..60), k in 1usize..10) {
        let mut top = TopK::new(k);
        for (i, &s) in scores.iter().enumerate() {
            top.push(s, i);
        }
        let got: Vec<usize> = top.into_sorted().into_iter().map(|s| s.item).collect();
        let mut expected: Vec<(f32, usize)> =
            scores.iter().copied().zip(0..).collect();
        expected.sort_by(|a, b| b.0.total_cmp(&a.0));
        expected.truncate(k);
        // Compare score sequences (ties may order differently by item).
        let got_scores: Vec<f32> = got.iter().map(|&i| scores[i]).collect();
        let expected_scores: Vec<f32> = expected.iter().map(|e| e.0).collect();
        prop_assert_eq!(got_scores, expected_scores);
    }

    #[test]
    fn sum_aggregation_linearity(
        vectors in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 4), 1..20),
        query in proptest::collection::vec(-5.0f32..5.0, 4),
    ) {
        // Paper Eq. (3): dot(q, Σ d) == Σ dot(q, d).
        let q = Embedding::new(query);
        let mut sum = Embedding::zeros(4);
        let mut total = 0.0f32;
        for v in &vectors {
            let e = Embedding::new(v.clone());
            total += similarity::dot(&q, &e).unwrap();
            sum.add_in_place(&e).unwrap();
        }
        let combined = similarity::dot(&q, &sum).unwrap();
        prop_assert!((combined - total).abs() < 1e-2 * (1.0 + total.abs()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Corpus and query generation are deterministic under a seeded RNG:
    /// the same seed reproduces the same embeddings and query pairs.
    #[test]
    fn generation_is_deterministic_per_seed(seed in 0u64..1000) {
        use gdsearch_embed::querygen::{self, QueryGenConfig};
        use gdsearch_embed::synthetic::SyntheticCorpus;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let run = || {
            let mut rng = StdRng::seed_from_u64(seed);
            let corpus = SyntheticCorpus::builder()
                .vocab_size(80)
                .dim(8)
                .num_topics(5)
                .generate(&mut rng)
                .unwrap();
            let queries = querygen::generate(
                &corpus,
                QueryGenConfig { num_queries: 4, min_cosine: 0.3 },
                &mut rng,
            )
            .unwrap();
            (corpus.embeddings().to_vec(), queries.pairs().to_vec())
        };
        let (emb_a, pairs_a) = run();
        let (emb_b, pairs_b) = run();
        prop_assert_eq!(emb_a, emb_b, "embeddings must reproduce bit-for-bit");
        prop_assert_eq!(pairs_a, pairs_b, "query pairs must reproduce");
    }
}
