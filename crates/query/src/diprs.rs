//! DIPRS — the Dynamic Inner-Product Range Search algorithm (Algorithm 1)
//! and its filtered variant (§7.1).

use alaya_index::graph::{NeighborGraph, VisitedSet};
use alaya_index::source::VectorSource;
use alaya_vector::topk::ScoredIdx;

/// DIPRS tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiprsParams {
    /// Inner-product margin β ≥ 0 (Definition 3).
    pub beta: f32,
    /// Capacity threshold `l0`: while the candidate list is at most this
    /// long, every explored point is appended (exploration phase); beyond
    /// it, only points within β of the best-so-far IP are appended
    /// (pruning phase).
    pub l0: usize,
    /// Hard cap on scored nodes — a safety valve for adversarial graphs;
    /// never reached in normal operation.
    pub max_visits: usize,
}

impl Default for DiprsParams {
    fn default() -> Self {
        Self {
            beta: 1.0,
            l0: 64,
            max_visits: usize::MAX,
        }
    }
}

/// Output of one DIPRS run.
#[derive(Clone, Debug)]
pub struct DiprsResult {
    /// Critical tokens: every candidate within β of the best inner product
    /// found, in discovery order (unsorted), each id at most once. DIPR is a
    /// set (Definition 3) and its consumer folds it into an order-free
    /// partial softmax, so the search never sorts. Each `score` is the
    /// traversal's own `q · key` — bitwise what re-scoring the id would
    /// give — so callers push it instead of computing it again.
    pub tokens: Vec<ScoredIdx>,
    /// Number of nodes scored (the exploration cost; Figure 5's y-axis is
    /// driven by `tokens.len()`, the ablation benches use this).
    pub visited: usize,
    /// Number of nodes appended to the candidate list.
    pub appended: usize,
    /// Best inner product observed (including a window seed, if given).
    pub max_ip: f32,
}

/// DIPRS (Algorithm 1): approximate DIPR query over a proximity graph.
///
/// `seed_max_ip` implements the window-caching enhancement of §7.1: the
/// maximum inner product already known from the GPU-cached window seeds the
/// best-so-far value, tightening pruning from the first step. Pass `None`
/// for the plain algorithm.
pub fn diprs<S: VectorSource>(
    graph: &NeighborGraph,
    source: &S,
    q: &[f32],
    params: &DiprsParams,
    seed_max_ip: Option<f32>,
) -> DiprsResult {
    diprs_filtered(graph, source, q, params, seed_max_ip, |_| true)
}

/// Filtered DIPRS (§7.1 "Flexible Context Reuse By Attribute Filtering").
///
/// Only candidates with `predicate(id) == true` may enter the candidate
/// list, but traversal expands both 1-hop and 2-hop neighborhoods (the
/// ACORN-style widening) so that excluded nodes do not disconnect the
/// reused-prefix subgraph.
pub fn diprs_filtered<S, P>(
    graph: &NeighborGraph,
    source: &S,
    q: &[f32],
    params: &DiprsParams,
    seed_max_ip: Option<f32>,
    predicate: P,
) -> DiprsResult
where
    S: VectorSource,
    P: Fn(u32) -> bool,
{
    let mut result = DiprsResult {
        tokens: Vec::new(),
        visited: 0,
        appended: 0,
        max_ip: seed_max_ip.unwrap_or(f32::NEG_INFINITY),
    };
    if graph.is_empty() {
        return result;
    }

    let mut visited = VisitedSet::new(graph.len());
    // The unordered, growing candidate list C of Algorithm 1.
    let mut c: Vec<ScoredIdx> = Vec::with_capacity(params.l0 * 2);

    // Line 1: initialize C with the start key. The entry may itself fail
    // the predicate; it then only serves as a traversal seed.
    let entry = graph.entry();
    visited.insert(entry);
    let entry_score = source.score(q, entry);
    result.visited += 1;
    if predicate(entry) {
        c.push(ScoredIdx {
            idx: entry as usize,
            score: entry_score,
        });
        result.appended += 1;
        result.max_ip = result.max_ip.max(entry_score);
    }

    // One sweep expansion = gather the unvisited, predicate-passing 1-hop
    // and 2-hop frontier in traversal order, score it as one block, then
    // apply tryAppend (lines 10-14) sequentially. Scores do not depend on
    // the candidate-list state, so batching them ahead of the append
    // decisions returns exactly what per-key scoring would; the visit
    // budget truncates the block just as the per-node check did (nodes past
    // the budget stay marked visited but unscored, as before).
    let mut fresh: Vec<u32> = Vec::new();
    let mut fresh_scores: Vec<f32> = Vec::new();
    let append_block = |fresh: &[u32],
                        fresh_scores: &mut Vec<f32>,
                        c: &mut Vec<ScoredIdx>,
                        result: &mut DiprsResult| {
        let remaining = params.max_visits.saturating_sub(result.visited);
        let block = &fresh[..fresh.len().min(remaining)];
        fresh_scores.resize(block.len(), 0.0);
        source.score_block(q, block, fresh_scores);
        for (&k, &score) in block.iter().zip(fresh_scores.iter()) {
            result.visited += 1;
            if c.len() <= params.l0 || score >= result.max_ip - params.beta {
                c.push(ScoredIdx {
                    idx: k as usize,
                    score,
                });
                result.appended += 1;
                result.max_ip = result.max_ip.max(score);
            }
        }
    };

    // Lines 2-7: sweep the growing list.
    let mut i = 0usize;
    // Special case: if the entry failed the predicate, bootstrap traversal
    // from its neighborhood before the main loop (C would stay empty
    // otherwise).
    if c.is_empty() {
        fresh.clear();
        for &n in graph.neighbors(entry) {
            if predicate(n) {
                if visited.insert(n) {
                    fresh.push(n);
                }
            } else if visited.insert(n) {
                for &m in graph.neighbors(n) {
                    if predicate(m) && visited.insert(m) {
                        fresh.push(m);
                    }
                }
            }
        }
        append_block(&fresh, &mut fresh_scores, &mut c, &mut result);
    }

    while i < c.len() {
        let ci = c[i].idx as u32;
        i += 1;
        fresh.clear();
        for &n in graph.neighbors(ci) {
            if predicate(n) {
                if visited.insert(n) {
                    fresh.push(n);
                }
            } else if visited.insert(n) {
                // 2-hop expansion through the excluded node.
                for &m in graph.neighbors(n) {
                    if predicate(m) && visited.insert(m) {
                        fresh.push(m);
                    }
                }
            }
        }
        append_block(&fresh, &mut fresh_scores, &mut c, &mut result);
        if result.visited >= params.max_visits {
            break;
        }
    }

    // Lines 8-9: keep the β-band around the best inner product, in
    // discovery order (the visited set makes every id unique).
    let threshold = result.max_ip - params.beta;
    c.retain(|s| s.score >= threshold);
    result.tokens = c;
    result
}

/// The *naive* filtered DIPRS baseline (§7.1): nodes failing the predicate
/// are pruned outright, with no 2-hop widening. This "severely disrupts the
/// connectivity of the graph index structure" — kept as the ablation
/// baseline against [`diprs_filtered`].
pub fn diprs_filtered_naive<S, P>(
    graph: &NeighborGraph,
    source: &S,
    q: &[f32],
    params: &DiprsParams,
    seed_max_ip: Option<f32>,
    predicate: P,
) -> DiprsResult
where
    S: VectorSource,
    P: Fn(u32) -> bool,
{
    let mut result = DiprsResult {
        tokens: Vec::new(),
        visited: 0,
        appended: 0,
        max_ip: seed_max_ip.unwrap_or(f32::NEG_INFINITY),
    };
    if graph.is_empty() {
        return result;
    }
    let mut visited = VisitedSet::new(graph.len());
    let mut c: Vec<ScoredIdx> = Vec::with_capacity(params.l0 * 2);

    let entry = graph.entry();
    visited.insert(entry);
    if predicate(entry) {
        let score = source.score(q, entry);
        result.visited += 1;
        c.push(ScoredIdx {
            idx: entry as usize,
            score,
        });
        result.appended += 1;
        result.max_ip = result.max_ip.max(score);
    }

    let mut i = 0usize;
    while i < c.len() {
        let ci = c[i].idx as u32;
        i += 1;
        for &n in graph.neighbors(ci) {
            // Hard pruning: non-matching neighbors are dead ends.
            if !predicate(n) || !visited.insert(n) {
                continue;
            }
            if result.visited >= params.max_visits {
                break;
            }
            let score = source.score(q, n);
            result.visited += 1;
            if c.len() <= params.l0 || score >= result.max_ip - params.beta {
                c.push(ScoredIdx {
                    idx: n as usize,
                    score,
                });
                result.appended += 1;
                result.max_ip = result.max_ip.max(score);
            }
        }
        if result.visited >= params.max_visits {
            break;
        }
    }

    let threshold = result.max_ip - params.beta;
    c.retain(|s| s.score >= threshold);
    result.tokens = c;
    result
}

/// Filtered top-k beam search with the same 2-hop widening — the query
/// optimizer's plan for `TopK + filter` on a fine index.
pub fn graph_topk_filtered<S, P>(
    graph: &NeighborGraph,
    source: &S,
    q: &[f32],
    k: usize,
    ef: usize,
    predicate: P,
) -> Vec<ScoredIdx>
where
    S: VectorSource,
    P: Fn(u32) -> bool,
{
    if graph.is_empty() || k == 0 {
        return Vec::new();
    }
    let ef = ef.max(k);
    let mut visited = VisitedSet::new(graph.len());
    let mut frontier: std::collections::BinaryHeap<ScoredIdx> = std::collections::BinaryHeap::new();
    let mut results: std::collections::BinaryHeap<std::cmp::Reverse<ScoredIdx>> =
        std::collections::BinaryHeap::new();

    // Frontier scoring is batched per expansion (see `diprs_filtered`):
    // heap-insert decisions depend on heap state, scores do not, so scoring
    // the gathered block first and applying the insert logic in gathering
    // order yields exactly the per-key traversal's result.
    let mut fresh: Vec<u32> = Vec::new();
    let mut fresh_scores: Vec<f32> = Vec::new();
    let consider_block =
        |fresh: &[u32],
         fresh_scores: &mut Vec<f32>,
         frontier: &mut std::collections::BinaryHeap<ScoredIdx>,
         results: &mut std::collections::BinaryHeap<std::cmp::Reverse<ScoredIdx>>| {
            fresh_scores.resize(fresh.len(), 0.0);
            source.score_block(q, fresh, fresh_scores);
            for (&id, &score) in fresh.iter().zip(fresh_scores.iter()) {
                let item = ScoredIdx {
                    idx: id as usize,
                    score,
                };
                if results.len() < ef {
                    results.push(std::cmp::Reverse(item));
                    frontier.push(item);
                } else if item > results.peek().unwrap().0 {
                    results.pop();
                    results.push(std::cmp::Reverse(item));
                    frontier.push(item);
                }
            }
        };

    let entry = graph.entry();
    visited.insert(entry);
    if predicate(entry) {
        fresh.clear();
        fresh.push(entry);
        consider_block(&fresh, &mut fresh_scores, &mut frontier, &mut results);
    } else {
        frontier.push(ScoredIdx {
            idx: entry as usize,
            score: source.score(q, entry),
        });
    }

    while let Some(cand) = frontier.pop() {
        if results.len() >= ef {
            if let Some(worst) = results.peek() {
                if cand.score < worst.0.score {
                    break;
                }
            }
        }
        fresh.clear();
        for &n in graph.neighbors(cand.idx as u32) {
            if predicate(n) {
                if visited.insert(n) {
                    fresh.push(n);
                }
            } else if visited.insert(n) {
                for &m in graph.neighbors(n) {
                    if predicate(m) && visited.insert(m) {
                        fresh.push(m);
                    }
                }
            }
        }
        consider_block(&fresh, &mut fresh_scores, &mut frontier, &mut results);
    }

    let mut out: Vec<ScoredIdx> = results.into_iter().map(|r| r.0).collect();
    out.retain(|s| predicate(s.idx as u32));
    out.sort_unstable_by(|a, b| b.cmp(a));
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_index::flat::FlatIndex;
    use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
    use alaya_vector::rng::{gaussian_store, seeded};
    use alaya_vector::VecStore;

    fn fixture(n: usize, dim: usize, seed: u64) -> (NeighborGraph, VecStore, VecStore) {
        let mut rng = seeded(seed);
        let base = gaussian_store(&mut rng, n, dim, 1.0);
        let train = gaussian_store(&mut rng, n / 2, dim, 1.0);
        let queries = gaussian_store(&mut rng, 10, dim, 1.0);
        let rg = RoarGraph::build(&base, &train, RoarGraphParams::default());
        (rg.into_graph(), base, queries)
    }

    #[test]
    fn diprs_finds_the_max_ip_token() {
        let (graph, base, queries) = fixture(400, 12, 101);
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let res = diprs(&graph, &base, q, &DiprsParams::default(), None);
            let exact = FlatIndex.search_topk(&base, q, 1);
            // The band is unordered: its max is the best-scoring member.
            let best = res.tokens.iter().max();
            assert_eq!(
                best.map(|t| t.idx),
                Some(exact[0].idx),
                "query {qi} missed the max-IP key"
            );
        }
    }

    #[test]
    fn diprs_recall_against_exact_dipr() {
        let (graph, base, queries) = fixture(500, 12, 102);
        let beta = 2.0f32;
        let mut recall_sum = 0.0;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let res = diprs(
                &graph,
                &base,
                q,
                &DiprsParams {
                    beta,
                    l0: 64,
                    max_visits: usize::MAX,
                },
                None,
            );
            let exact = FlatIndex.search_dipr(&base, q, beta);
            let got: std::collections::HashSet<usize> = res.tokens.iter().map(|t| t.idx).collect();
            let hit = exact.iter().filter(|e| got.contains(&e.idx)).count();
            recall_sum += hit as f64 / exact.len().max(1) as f64;
        }
        let recall = recall_sum / queries.len() as f64;
        assert!(recall > 0.85, "DIPR recall {recall}");
    }

    #[test]
    fn returned_band_is_tight() {
        // Every returned token's score must be within beta of the returned max.
        let (graph, base, queries) = fixture(300, 8, 103);
        let params = DiprsParams {
            beta: 1.5,
            l0: 32,
            max_visits: usize::MAX,
        };
        let q = queries.row(0);
        let res = diprs(&graph, &base, q, &params, None);
        assert!(!res.tokens.is_empty());
        for t in &res.tokens {
            assert!(t.score >= res.max_ip - params.beta - 1e-5);
        }
        // Unordered, but every id appears once.
        let ids: std::collections::HashSet<usize> = res.tokens.iter().map(|t| t.idx).collect();
        assert_eq!(ids.len(), res.tokens.len(), "duplicate id in the band");
    }

    #[test]
    fn dynamic_result_size_tracks_distribution() {
        // Peaked key distribution -> few critical tokens; flat -> many.
        let mut peaked = VecStore::new(4);
        peaked.push(&[10.0, 0.0, 0.0, 0.0]);
        for i in 0..63 {
            peaked.push(&[0.01 * (i % 7) as f32, 0.1, 0.0, 0.0]);
        }
        let mut flat_keys = VecStore::new(4);
        for i in 0..64 {
            flat_keys.push(&[1.0 + 0.001 * (i % 5) as f32, 0.1, 0.0, 0.0]);
        }
        // Fully-connected graphs isolate the query semantics from graph quality.
        let mut g = NeighborGraph::new(64);
        for i in 0..64u32 {
            for j in 0..64u32 {
                g.add_edge(i, j);
            }
        }
        let params = DiprsParams {
            beta: 0.5,
            l0: 8,
            max_visits: usize::MAX,
        };
        let q = [1.0, 0.0, 0.0, 0.0];
        let few = diprs(&g, &peaked, &q, &params, None);
        let many = diprs(&g, &flat_keys, &q, &params, None);
        assert_eq!(few.tokens.len(), 1);
        assert_eq!(many.tokens.len(), 64);
    }

    #[test]
    fn window_seed_prunes_exploration() {
        let (graph, base, queries) = fixture(600, 12, 104);
        let q = queries.row(3);
        let params = DiprsParams {
            beta: 1.0,
            l0: 16,
            max_visits: usize::MAX,
        };
        let plain = diprs(&graph, &base, q, &params, None);
        // Seed with the true maximum: pruning can only get tighter.
        let exact_max = FlatIndex.search_topk(&base, q, 1)[0].score;
        let seeded_run = diprs(&graph, &base, q, &params, Some(exact_max));
        assert!(
            seeded_run.appended <= plain.appended,
            "seeding must not widen the candidate list ({} vs {})",
            seeded_run.appended,
            plain.appended
        );
        // The seeded threshold must be at least as strict.
        assert!(seeded_run.max_ip >= plain.max_ip - 1e-6);
        for t in &seeded_run.tokens {
            assert!(t.score >= exact_max - params.beta - 1e-5);
        }
    }

    #[test]
    fn filtered_diprs_only_returns_prefix_tokens() {
        let (graph, base, queries) = fixture(400, 12, 105);
        let prefix = 150usize;
        let q = queries.row(1);
        let res = diprs_filtered(
            &graph,
            &base,
            q,
            &DiprsParams {
                beta: 2.0,
                l0: 48,
                max_visits: usize::MAX,
            },
            None,
            |id| (id as usize) < prefix,
        );
        assert!(!res.tokens.is_empty());
        assert!(res.tokens.iter().all(|t| t.idx < prefix));
    }

    #[test]
    fn filtered_diprs_recall_stays_high() {
        // §9.2.2: recall of filter-based DIPRS stays high as the reuse
        // ratio shrinks.
        let (graph, base, queries) = fixture(600, 12, 106);
        let beta = 2.0f32;
        for &prefix in &[600usize, 300, 120] {
            let mut recall_sum = 0.0;
            for qi in 0..queries.len() {
                let q = queries.row(qi);
                let res = diprs_filtered(
                    &graph,
                    &base,
                    q,
                    &DiprsParams {
                        beta,
                        l0: 64,
                        max_visits: usize::MAX,
                    },
                    None,
                    |id| (id as usize) < prefix,
                );
                let exact =
                    FlatIndex.search_dipr_filtered(&base, q, beta, |id| (id as usize) < prefix);
                let got: std::collections::HashSet<usize> =
                    res.tokens.iter().map(|t| t.idx).collect();
                let hit = exact.iter().filter(|e| got.contains(&e.idx)).count();
                recall_sum += hit as f64 / exact.len().max(1) as f64;
            }
            let recall = recall_sum / queries.len() as f64;
            assert!(recall > 0.7, "prefix {prefix}: recall {recall}");
        }
    }

    #[test]
    fn graph_topk_filtered_matches_flat_filtered() {
        let (graph, base, queries) = fixture(500, 12, 107);
        let prefix = 200usize;
        let mut hits = 0;
        let mut total = 0;
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let got = graph_topk_filtered(&graph, &base, q, 10, 80, |id| (id as usize) < prefix);
            assert!(got.iter().all(|t| t.idx < prefix));
            let want = FlatIndex.search_topk_filtered(&base, q, 10, |id| (id as usize) < prefix);
            let want_ids: std::collections::HashSet<usize> = want.iter().map(|s| s.idx).collect();
            hits += got.iter().filter(|s| want_ids.contains(&s.idx)).count();
            total += want.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.75, "filtered top-k recall {recall}");
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = NeighborGraph::new(0);
        let base = VecStore::new(4);
        let res = diprs(&g, &base, &[0.0; 4], &DiprsParams::default(), None);
        assert!(res.tokens.is_empty());
        assert_eq!(res.visited, 0);
    }

    #[test]
    fn two_hop_filtering_beats_naive_pruning() {
        // §7.1: naive predicate pruning disconnects the graph; the 2-hop
        // expansion preserves recall. Compare both against exact filtered
        // DIPR under a selective predicate.
        let (graph, base, queries) = fixture(800, 12, 109);
        let beta = 2.0f32;
        let prefix = 160usize; // 20% reuse ratio
        let params = DiprsParams {
            beta,
            l0: 48,
            max_visits: usize::MAX,
        };
        let (mut naive_recall, mut twohop_recall) = (0.0f64, 0.0f64);
        for qi in 0..queries.len() {
            let q = queries.row(qi);
            let exact = FlatIndex.search_dipr_filtered(&base, q, beta, |id| (id as usize) < prefix);
            let exact_ids: std::collections::HashSet<usize> = exact.iter().map(|s| s.idx).collect();
            let naive = super::diprs_filtered_naive(&graph, &base, q, &params, None, |id| {
                (id as usize) < prefix
            });
            let twohop =
                diprs_filtered(&graph, &base, q, &params, None, |id| (id as usize) < prefix);
            let denom = exact_ids.len().max(1) as f64;
            naive_recall += naive
                .tokens
                .iter()
                .filter(|t| exact_ids.contains(&t.idx))
                .count() as f64
                / denom;
            twohop_recall += twohop
                .tokens
                .iter()
                .filter(|t| exact_ids.contains(&t.idx))
                .count() as f64
                / denom;
        }
        naive_recall /= queries.len() as f64;
        twohop_recall /= queries.len() as f64;
        assert!(
            twohop_recall >= naive_recall,
            "2-hop ({twohop_recall}) must not lose to naive ({naive_recall})"
        );
        assert!(twohop_recall > 0.6, "2-hop recall {twohop_recall}");
    }

    #[test]
    fn max_visits_caps_work() {
        let (graph, base, queries) = fixture(400, 12, 108);
        let res = diprs(
            &graph,
            &base,
            queries.row(0),
            &DiprsParams {
                beta: 5.0,
                l0: 64,
                max_visits: 10,
            },
            None,
        );
        assert!(res.visited <= 10);
    }
}
