//! Property-based tests for the DIPR query semantics and DIPRS.

use alaya_index::flat::FlatIndex;
use alaya_index::graph::NeighborGraph;
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_query::diprs::{diprs, diprs_filtered, diprs_filtered_naive, DiprsParams};
use alaya_query::types::beta_from_alpha;
use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;
use proptest::prelude::*;

/// Whether no id appears twice.
fn distinct(band: &[ScoredIdx]) -> bool {
    let ids: std::collections::HashSet<usize> = band.iter().map(|s| s.idx).collect();
    ids.len() == band.len()
}

fn keys_strategy() -> impl Strategy<Value = (VecStore, Vec<f32>)> {
    (2usize..64, 2usize..8).prop_flat_map(|(n, dim)| {
        (
            prop::collection::vec(-10.0f32..10.0, n * dim),
            prop::collection::vec(-10.0f32..10.0, dim),
        )
            .prop_map(move |(flat, q)| (VecStore::from_flat(dim, flat), q))
    })
}

/// A fully connected graph makes DIPRS exact — it then must agree with the
/// flat DIPR definition bit-for-bit.
fn clique(n: usize) -> NeighborGraph {
    let mut g = NeighborGraph::new(n);
    for i in 0..n as u32 {
        for j in 0..n as u32 {
            g.add_edge(i, j);
        }
    }
    g
}

proptest! {
    /// Definition 3: exact DIPR returns precisely the β-band around the max.
    #[test]
    fn flat_dipr_is_the_beta_band((keys, q) in keys_strategy(), beta in 0.0f32..20.0) {
        let res = FlatIndex.search_dipr(&keys, &q, beta);
        let scores: Vec<f32> = (0..keys.len()).map(|i| keys.dot_row(&q, i)).collect();
        let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let expect: std::collections::HashSet<usize> = scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s >= max - beta)
            .map(|(i, _)| i)
            .collect();
        let got: std::collections::HashSet<usize> = res.iter().map(|s| s.idx).collect();
        prop_assert_eq!(got, expect);
        // Ascending id order, each id once.
        for w in res.windows(2) {
            prop_assert!(w[0].idx < w[1].idx);
        }
    }

    /// DIPR is a set: flat DIPR and DIPRS — on a clique and on a RoarGraph,
    /// with and without a prefix filter — return every id at most once.
    /// Attention absorbs the band without a dedup pass, so a duplicate
    /// would double-weight its token.
    #[test]
    fn dipr_results_never_repeat_an_id(
        (keys, q) in keys_strategy(),
        beta in 0.0f32..20.0,
        prefix_frac in 0.0f64..1.0,
    ) {
        let n = keys.len();
        let prefix = ((n as f64 * prefix_frac) as usize).max(1);
        let roar = RoarGraph::build(&keys, &keys, RoarGraphParams::default()).into_graph();
        let graphs = [clique(n), roar];
        let params = DiprsParams { beta, l0: 8, max_visits: usize::MAX };
        for filtered in [false, true] {
            let pred = |id: u32| !filtered || (id as usize) < prefix;
            let flat = FlatIndex.search_dipr_filtered(&keys, &q, beta, pred);
            prop_assert!(!flat.is_empty());
            prop_assert!(distinct(&flat), "flat DIPR repeated an id (filtered={})", filtered);
            for (gi, g) in graphs.iter().enumerate() {
                let got = diprs_filtered(g, &keys, &q, &params, None, pred);
                prop_assert!(distinct(&got.tokens), "DIPRS repeated an id (graph {}, filtered={})", gi, filtered);
                let naive = diprs_filtered_naive(g, &keys, &q, &params, None, pred);
                prop_assert!(distinct(&naive.tokens), "naive DIPRS repeated an id (graph {}, filtered={})", gi, filtered);
            }
        }
    }

    /// DIPR result sets are monotone in β.
    #[test]
    fn dipr_monotone_in_beta((keys, q) in keys_strategy(), b1 in 0.0f32..10.0, b2 in 0.0f32..10.0) {
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        let small = FlatIndex.search_dipr(&keys, &q, lo);
        let large = FlatIndex.search_dipr(&keys, &q, hi);
        prop_assert!(small.len() <= large.len());
        let large_ids: std::collections::HashSet<usize> = large.iter().map(|s| s.idx).collect();
        for s in &small {
            prop_assert!(large_ids.contains(&s.idx));
        }
    }

    /// On a fully connected graph DIPRS equals exact flat DIPR.
    #[test]
    fn diprs_exact_on_clique((keys, q) in keys_strategy(), beta in 0.0f32..10.0) {
        let g = clique(keys.len());
        let params = DiprsParams { beta, l0: keys.len(), max_visits: usize::MAX };
        let got = diprs(&g, &keys, &q, &params, None);
        let want = FlatIndex.search_dipr(&keys, &q, beta);
        let got_ids: std::collections::HashSet<usize> = got.tokens.iter().map(|s| s.idx).collect();
        let want_ids: std::collections::HashSet<usize> = want.iter().map(|s| s.idx).collect();
        prop_assert_eq!(got_ids, want_ids);
    }

    /// Every DIPRS result is within β of the reported max IP, and seeding
    /// with any value never widens the result set.
    #[test]
    fn diprs_band_and_seed_soundness((keys, q) in keys_strategy(), beta in 0.0f32..5.0, seed in -20.0f32..20.0) {
        let g = clique(keys.len());
        let params = DiprsParams { beta, l0: 8, max_visits: usize::MAX };
        let plain = diprs(&g, &keys, &q, &params, None);
        for t in &plain.tokens {
            prop_assert!(t.score >= plain.max_ip - beta - 1e-4);
        }
        let seeded = diprs(&g, &keys, &q, &params, Some(seed));
        prop_assert!(seeded.tokens.len() <= plain.tokens.len().max(1));
        for t in &seeded.tokens {
            prop_assert!(t.score >= seeded.max_ip - beta - 1e-4);
        }
    }

    /// Filtered DIPRS only ever returns ids satisfying the predicate, and
    /// equals exact filtered DIPR on a clique.
    #[test]
    fn filtered_diprs_soundness((keys, q) in keys_strategy(), beta in 0.0f32..5.0, modulo in 2u32..5) {
        let g = clique(keys.len());
        let pred = |id: u32| id.is_multiple_of(modulo);
        let params = DiprsParams { beta, l0: keys.len(), max_visits: usize::MAX };
        let got = diprs_filtered(&g, &keys, &q, &params, None, pred);
        prop_assert!(got.tokens.iter().all(|t| pred(t.idx as u32)));
        let want = FlatIndex.search_dipr_filtered(&keys, &q, beta, pred);
        let got_ids: std::collections::HashSet<usize> = got.tokens.iter().map(|s| s.idx).collect();
        let want_ids: std::collections::HashSet<usize> = want.iter().map(|s| s.idx).collect();
        prop_assert_eq!(got_ids, want_ids);
    }

    /// Theorem 1 as a property: for random score vectors, criticality by
    /// attention-score threshold α equals criticality by IP margin β.
    #[test]
    fn theorem_one_equivalence(
        ips in prop::collection::vec(-30.0f32..30.0, 1..40),
        alpha in 0.01f32..1.0,
        dim in 1usize..256,
    ) {
        let beta = beta_from_alpha(alpha, dim);
        let scale = 1.0 / (dim as f32).sqrt();
        let zs: Vec<f32> = ips.iter().map(|ip| ip * scale).collect();
        let zmax = zs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // softmax scores share the normalizer, so a_i >= alpha * a_max
        // iff exp(z_i) >= alpha * exp(z_max).
        let ip_max = ips.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for (ip, z) in ips.iter().zip(&zs) {
            let by_score = (z - zmax).exp() >= alpha;
            let by_ip = *ip >= ip_max - beta;
            // Guard the exact float boundary.
            if ((z - zmax).exp() - alpha).abs() > 1e-5 {
                prop_assert_eq!(by_score, by_ip, "ip={} alpha={} beta={}", ip, alpha, beta);
            }
        }
    }
}
