//! Flat index: brute-force sequential scan.
//!
//! The paper's flat index (Table 4) scans every key on the CPU. It is the
//! exact-answer reference for every other index, the optimizer's choice for
//! first-layer attention (where the number of critical tokens is huge and a
//! scan's sequential bandwidth beats a graph's random access), and the
//! ground-truth oracle used by tests and recall measurements.

use alaya_vector::topk::{top_k_indices, ScoredIdx};

use crate::source::VectorSource;

/// Brute-force scan index over a [`VectorSource`].
///
/// Stateless: borrows the source per query, so it never holds a stale copy
/// of a growing KV cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatIndex;

impl FlatIndex {
    /// Exact top-`k` by inner product. Results are sorted descending.
    ///
    /// Scores the whole source through one [`VectorSource::score_range`]
    /// block call (the sequential-bandwidth path the optimizer picks this
    /// index for), so in-memory sources run the blocked multi-lane kernel
    /// instead of one dispatch per key. Ids scoring NaN sort last and are
    /// only returned once every finite score is exhausted.
    pub fn search_topk<S: VectorSource>(&self, source: &S, q: &[f32], k: usize) -> Vec<ScoredIdx> {
        let mut scores = vec![0.0f32; source.len()];
        source.score_range(q, 0, &mut scores);
        top_k_indices(scores, k)
    }

    /// Exact top-`k` among ids satisfying `predicate` (attribute filtering).
    pub fn search_topk_filtered<S: VectorSource>(
        &self,
        source: &S,
        q: &[f32],
        k: usize,
        predicate: impl Fn(u32) -> bool,
    ) -> Vec<ScoredIdx> {
        let mut scored: Vec<ScoredIdx> = (0..source.len() as u32)
            .filter(|&i| predicate(i))
            .map(|i| ScoredIdx {
                idx: i as usize,
                score: source.score(q, i),
            })
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        scored.truncate(k);
        scored
    }

    /// Exact DIPR: every id whose inner product is within `beta` of the
    /// maximum (Definition 3), in ascending id order with each id once.
    ///
    /// DIPR is a set: the band comes back unsorted by score, and each
    /// `score` is the scan's own `q · key` (bitwise equal to
    /// [`VectorSource::score`]), so attention pushes it instead of scoring
    /// the id again. Returns an empty vector for an empty source.
    pub fn search_dipr<S: VectorSource>(&self, source: &S, q: &[f32], beta: f32) -> Vec<ScoredIdx> {
        self.search_dipr_filtered(source, q, beta, |_| true)
    }

    /// Exact DIPR restricted to ids satisfying `predicate`; same order and
    /// score contract as [`FlatIndex::search_dipr`].
    ///
    /// Scores the whole source through one [`VectorSource::score_range`]
    /// block call, then keeps the band in one ascending pass — no per-key
    /// dispatch, no sort.
    ///
    /// NaN scores can never enter the band (`NaN ≥ max − beta` is false) and
    /// NaN never becomes the band maximum (`f32::max` skips it), so a
    /// poisoned key degrades to "not critical" instead of corrupting the
    /// result set.
    pub fn search_dipr_filtered<S: VectorSource>(
        &self,
        source: &S,
        q: &[f32],
        beta: f32,
        predicate: impl Fn(u32) -> bool,
    ) -> Vec<ScoredIdx> {
        let mut scores = vec![0.0f32; source.len()];
        source.score_range(q, 0, &mut scores);
        let max = scores
            .iter()
            .enumerate()
            .filter(|&(i, _)| predicate(i as u32))
            .fold(f32::NEG_INFINITY, |m, (_, &s)| m.max(s));
        let threshold = max - beta;
        scores
            .iter()
            .enumerate()
            .filter(|&(i, &s)| s >= threshold && predicate(i as u32))
            .map(|(idx, &score)| ScoredIdx { idx, score })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::VecStore;

    fn store() -> VecStore {
        // ids 0..5 with increasing first coordinate.
        VecStore::from_flat(2, vec![0.0, 1.0, 1.0, 1.0, 2.0, 1.0, 3.0, 1.0, 4.0, 1.0])
    }

    #[test]
    fn topk_orders_by_inner_product() {
        let s = store();
        let got = FlatIndex.search_topk(&s, &[1.0, 0.0], 3);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![4, 3, 2]);
    }

    #[test]
    fn dipr_returns_beta_band() {
        let s = store();
        // Scores with q=[1,0] are 0,1,2,3,4; beta=1.5 keeps {3,4}, in
        // ascending id order.
        let got = FlatIndex.search_dipr(&s, &[1.0, 0.0], 1.5);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![3, 4]);
        // beta=0 keeps only the max.
        let got = FlatIndex.search_dipr(&s, &[1.0, 0.0], 0.0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].idx, 4);
    }

    #[test]
    fn dipr_band_is_dynamic_with_distribution() {
        // A flat score distribution yields many critical tokens; a peaked
        // one yields few — the dynamism DIPR exists for (§6.1).
        let flat = VecStore::from_flat(1, vec![1.0, 1.0, 1.0, 1.0]);
        let peaked = VecStore::from_flat(1, vec![10.0, 1.0, 1.0, 1.0]);
        let b = 2.0;
        assert_eq!(FlatIndex.search_dipr(&flat, &[1.0], b).len(), 4);
        assert_eq!(FlatIndex.search_dipr(&peaked, &[1.0], b).len(), 1);
    }

    #[test]
    fn filtered_variants_respect_predicate() {
        let s = store();
        let got = FlatIndex.search_topk_filtered(&s, &[1.0, 0.0], 2, |id| id < 3);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![2, 1]);

        let got = FlatIndex.search_dipr_filtered(&s, &[1.0, 0.0], 1.5, |id| id < 3);
        let ids: Vec<usize> = got.iter().map(|x| x.idx).collect();
        // Max among ids<3 is 2.0 → band keeps {1, 2}, ascending.
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn empty_source() {
        let s = VecStore::new(2);
        assert!(FlatIndex.search_topk(&s, &[1.0, 0.0], 3).is_empty());
        assert!(FlatIndex.search_dipr(&s, &[1.0, 0.0], 1.0).is_empty());
    }

    #[test]
    fn nan_keys_never_enter_dipr_band_and_sort_last() {
        // id 1 is NaN-poisoned; ids 0/2 score 1 and 3.
        let s = VecStore::from_flat(2, vec![1.0, 0.0, f32::NAN, f32::NAN, 3.0, 0.0]);
        let q = [1.0f32, 1.0];

        // A huge beta band still excludes the NaN key (ascending ids).
        let band = FlatIndex.search_dipr(&s, &q, 1e9);
        let ids: Vec<usize> = band.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![0, 2]);

        // Top-k prefers every finite score over the NaN one.
        let top = FlatIndex.search_topk(&s, &q, 2);
        let ids: Vec<usize> = top.iter().map(|x| x.idx).collect();
        assert_eq!(ids, vec![2, 0]);
    }
}
