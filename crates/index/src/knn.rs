//! Exact k-nearest-neighbor (maximum inner product) construction.
//!
//! Stage (i) of RoarGraph construction — the q→k kNN graph — is the dominant
//! build cost the paper attacks in §7.2. The paper offloads it to the GPU
//! via NVIDIA cuVS and overlaps transfers with compute. Without a GPU, the
//! same *structural* optimization is reproduced with data-parallel execution
//! across CPU cores ([`exact_knn_parallel`] fans queries out over the shared
//! [`alaya_device::pool`] work-stealing pool, so index builds and the serving
//! scheduler never oversubscribe the machine): the speedup curve of Figure
//! 11a comes from the serial/parallel ratio, and the per-layer pipelining is
//! modeled by the harness.

use alaya_vector::topk::{top_k_indices, ScoredIdx};
use alaya_vector::VecStore;

/// Parameters for kNN-graph construction.
#[derive(Clone, Copy, Debug)]
pub struct KnnParams {
    /// Neighbors per query.
    pub k: usize,
    /// Maximum concurrent shards on the shared work-stealing pool
    /// (`0` = let the pool decide, `1` = serial on the caller). Bounds how
    /// much of the pool an index build may occupy next to serving.
    pub threads: usize,
}

impl Default for KnnParams {
    fn default() -> Self {
        Self { k: 16, threads: 0 }
    }
}

/// Exact top-`k` base ids (by inner product) for every query — serial
/// reference implementation (the paper's "CPU" baseline in Figure 11a).
///
/// Each query scores the whole base through one blocked
/// [`VecStore::dot_rows`] call (bitwise identical to per-row `dot`, see
/// `alaya_vector::ops::dot_many`) into a buffer reused across queries.
pub fn exact_knn(base: &VecStore, queries: &VecStore, k: usize) -> Vec<Vec<ScoredIdx>> {
    assert_eq!(base.dim(), queries.dim(), "dimensionality mismatch");
    let mut scores = vec![0.0f32; base.len()];
    (0..queries.len())
        .map(|qi| {
            base.dot_rows(queries.row(qi), &mut scores);
            top_k_indices(scores.iter().copied(), k)
        })
        .collect()
}

/// Data-parallel exact kNN: queries fan out over the shared work-stealing
/// pool (the CPU stand-in for the paper's GPU-based kNN construction).
/// Results are bitwise-identical to [`exact_knn`] for any worker count.
pub fn exact_knn_parallel(
    base: &VecStore,
    queries: &VecStore,
    params: KnnParams,
) -> Vec<Vec<ScoredIdx>> {
    assert_eq!(base.dim(), queries.dim(), "dimensionality mismatch");
    let n = queries.len();
    if n == 0 {
        return Vec::new();
    }
    if params.threads == 1 {
        return exact_knn(base, queries, params.k);
    }
    alaya_device::pool::global().map_bounded(n, params.threads, |qi| {
        let mut scores = vec![0.0f32; base.len()];
        base.dot_rows(queries.row(qi), &mut scores);
        top_k_indices(scores, params.k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaya_vector::rng::{gaussian_store, seeded};

    #[test]
    fn serial_knn_is_exact() {
        let base = VecStore::from_flat(1, vec![0.0, 1.0, 2.0, 3.0]);
        let queries = VecStore::from_flat(1, vec![1.0, -1.0]);
        let res = exact_knn(&base, &queries, 2);
        assert_eq!(res.len(), 2);
        let ids: Vec<usize> = res[0].iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![3, 2]); // max IP with +1
        let ids: Vec<usize> = res[1].iter().map(|s| s.idx).collect();
        assert_eq!(ids, vec![0, 1]); // max IP with -1
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = seeded(21);
        let base = gaussian_store(&mut rng, 300, 8, 1.0);
        let queries = gaussian_store(&mut rng, 37, 8, 1.0);
        let serial = exact_knn(&base, &queries, 5);
        for threads in [1, 2, 3, 8, 64] {
            let par = exact_knn_parallel(&base, &queries, KnnParams { k: 5, threads });
            assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                let si: Vec<usize> = s.iter().map(|x| x.idx).collect();
                let pi: Vec<usize> = p.iter().map(|x| x.idx).collect();
                assert_eq!(si, pi, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_queries() {
        let base = gaussian_store(&mut seeded(1), 10, 4, 1.0);
        let queries = VecStore::new(4);
        assert!(exact_knn_parallel(&base, &queries, KnnParams::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dim_mismatch_panics() {
        let base = VecStore::new(4);
        let queries = VecStore::new(8);
        exact_knn(&base, &queries, 1);
    }
}
