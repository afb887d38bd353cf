//! Score once: a sparse plan absorbs each retrieved token exactly once,
//! with the score the retrieval computed, in the documented push order:
//!
//! 1. the stored part of the cached window, ascending;
//! 2. the session-local window, ascending;
//! 3. the retrieved ids outside the window, in the order retrieval returns
//!    them (ranked for TopK, unordered for DIPR).
//!
//! For every plan kind, `Session::attention` (heads fanned out over the
//! pool) must be bitwise equal both to `Session::attention_sequential` and
//! to a reference rebuilt here from the retrieval call plus
//! `OnlineSoftmax`.

use alaya_core::{Db, DbConfig, Session};
use alaya_device::memory::MemoryTracker;
use alaya_index::flat::FlatIndex;
use alaya_llm::{KvCache, ModelConfig};
use alaya_query::diprs::{diprs_filtered, DiprsParams};
use alaya_query::optimizer::Plan;
use alaya_query::types::{IndexChoice, QueryType};
use alaya_vector::rng::{gaussian_vec, seeded};
use alaya_vector::softmax::OnlineSoftmax;
use alaya_vector::topk::ScoredIdx;

/// Stored-context length: above `PARALLEL_MIN_TOKENS`, so `attention` runs
/// its heads on the pool rather than in the sequential loop.
const STORED: usize = 640;
/// Tokens appended to the session-local window before attending.
const LOCAL: usize = 3;

/// A DB holding one random `STORED`-token context, planning under the given
/// GPU budget and short-context threshold.
fn db_with_context(gpu_bytes: u64, short_context_threshold: usize) -> (Db, DbConfig) {
    let model = ModelConfig::tiny();
    let mut cfg = DbConfig::for_tests(model.clone());
    cfg.optimizer.short_context_threshold = short_context_threshold;
    cfg.optimizer.default_beta = 8.0;
    cfg.gpu = MemoryTracker::new(gpu_bytes);
    let db = Db::new(cfg.clone());

    let mut rng = seeded(11);
    let mut rows = |count: usize| -> Vec<Vec<f32>> {
        (0..count)
            .map(|_| gaussian_vec(&mut rng, model.head_dim, 1.0))
            .collect()
    };
    let mut kv = KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim);
    for _ in 0..STORED {
        for layer in 0..model.n_layers {
            let keys = rows(model.n_kv_heads);
            let values = rows(model.n_kv_heads);
            kv.push_token(layer, &keys, &values);
        }
    }
    db.import(context_tokens(), kv);
    (db, cfg)
}

fn context_tokens() -> Vec<u32> {
    (0..STORED as u32).map(|t| t % 250).collect()
}

/// Attention for every query head at `layer`, rebuilt from the retrieval
/// call and `OnlineSoftmax` in the documented push order. Also returns how
/// many retrieved tokens fell outside the window (partition 3's size).
fn reference(
    session: &Session,
    cfg: &DbConfig,
    queries: &[Vec<f32>],
    layer: usize,
    plan: &Plan,
) -> (Vec<Vec<f32>>, usize) {
    let dim = cfg.model.head_dim;
    let scale = 1.0 / (dim as f32).sqrt();
    let n_stored = session.reused_len();
    let mut extras = 0;
    let outputs = queries
        .iter()
        .enumerate()
        .map(|(qh, q)| {
            let kv_head = qh / cfg.model.gqa_group_size();
            let (keys, values) = session.full_kv(layer, kv_head);
            let n = keys.len();
            let mut acc = OnlineSoftmax::new(dim);
            let push = |acc: &mut OnlineSoftmax, id: usize| {
                acc.push(keys.dot_row(q, id) * scale, values.row(id))
            };
            let (query, index, filter) = match plan {
                Plan::FullAttention { .. } => {
                    (0..n).for_each(|id| push(&mut acc, id));
                    return acc.output();
                }
                Plan::Sparse {
                    query,
                    index,
                    filter,
                } => (query, index, filter),
            };
            let window = cfg.window;
            for id in window.token_ids(n).filter(|&id| (id as usize) < n_stored) {
                push(&mut acc, id as usize);
            }
            (n_stored..n).for_each(|id| push(&mut acc, id));
            let seed = Some(acc.max_score() / scale);

            let base = session.base().expect("a stored context is reused");
            let stored_keys = &base.kv.head(layer, kv_head).keys;
            let prefix_len = filter.map_or(n_stored, |f| f.prefix_len);
            let pred = |id: u32| (id as usize) < prefix_len;
            let retrieved: Vec<ScoredIdx> = match (query, index) {
                (QueryType::TopK { k }, IndexChoice::Coarse) => {
                    let coarse = base.coarse(layer, kv_head);
                    let blocks = k.div_ceil(coarse.block_size()).max(1);
                    coarse
                        .select_tokens(q, blocks)
                        .into_iter()
                        .filter(|&id| pred(id))
                        .map(|id| ScoredIdx {
                            idx: id as usize,
                            score: stored_keys.dot_row(q, id as usize),
                        })
                        .collect()
                }
                (QueryType::Dipr { beta }, IndexChoice::Flat) => {
                    FlatIndex.search_dipr_filtered(stored_keys, q, *beta, pred)
                }
                (QueryType::Dipr { beta }, IndexChoice::Fine) => {
                    let graph = base.graph(layer, kv_head).expect("fine layer has a graph");
                    let params = DiprsParams {
                        beta: *beta,
                        l0: cfg.optimizer.default_k.max(16),
                        max_visits: usize::MAX,
                    };
                    diprs_filtered(graph, stored_keys, q, &params, seed, pred).tokens
                }
                other => panic!("plan {other:?} is not covered by this test"),
            };
            for s in retrieved {
                if !window.contains(s.idx, n) {
                    acc.push(s.score * scale, values.row(s.idx));
                    extras += 1;
                }
            }
            acc.output()
        })
        .collect();
    (outputs, extras)
}

fn bits(outputs: &[Vec<f32>]) -> Vec<Vec<u32>> {
    outputs
        .iter()
        .map(|o| o.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Opens a session reusing `reused` stored tokens, appends `LOCAL` tokens
/// at `layer`, and checks the three attention paths agree bit for bit.
/// Sparse plans must also retrieve something outside the window, so the
/// retrieved partition is exercised. Returns the plan.
fn check(db: &Db, cfg: &DbConfig, reused: usize, layer: usize) -> Plan {
    let mut prompt = context_tokens()[..reused].to_vec();
    prompt.push(255);
    let (mut session, _) = db.create_session(&prompt);
    assert_eq!(session.reused_len(), reused);

    let model = &cfg.model;
    let mut rng = seeded(5 + layer as u64);
    let mut rows = |count: usize| -> Vec<Vec<f32>> {
        (0..count)
            .map(|_| gaussian_vec(&mut rng, model.head_dim, 1.0))
            .collect()
    };
    let mut queries = Vec::new();
    for _ in 0..LOCAL {
        queries = rows(model.n_q_heads);
        let keys = rows(model.n_kv_heads);
        let values = rows(model.n_kv_heads);
        session.update(&queries, &keys, &values, layer);
    }

    let plan = session.plan(layer);
    let pooled = session.attention(&queries, layer);
    let sequential = session.attention_sequential(&queries, layer);
    let (want, extras) = reference(&session, cfg, &queries, layer, &plan);
    let label = plan.explain();
    assert_eq!(
        bits(&pooled),
        bits(&sequential),
        "{label}: attention != attention_sequential"
    );
    assert_eq!(
        bits(&pooled),
        bits(&want),
        "{label}: attention != reference"
    );
    if matches!(plan, Plan::Sparse { .. }) {
        assert!(extras > 0, "{label}: nothing retrieved outside the window");
    }
    plan
}

#[test]
fn full_attention_plan_matches_reference() {
    let (db, cfg) = db_with_context(u64::MAX, usize::MAX);
    for reused in [STORED, STORED / 2] {
        let plan = check(&db, &cfg, reused, 1);
        assert!(matches!(plan, Plan::FullAttention { .. }), "{plan:?}");
    }
}

#[test]
fn coarse_topk_plan_matches_reference() {
    let (db, cfg) = db_with_context(u64::MAX, 32);
    for reused in [STORED, STORED / 2] {
        let plan = check(&db, &cfg, reused, 1);
        assert!(
            matches!(
                plan,
                Plan::Sparse {
                    query: QueryType::TopK { .. },
                    index: IndexChoice::Coarse,
                    ..
                }
            ),
            "{plan:?}"
        );
    }
}

#[test]
fn flat_dipr_plan_matches_reference() {
    let (db, cfg) = db_with_context(0, 32);
    for reused in [STORED, STORED / 2] {
        let plan = check(&db, &cfg, reused, 0);
        assert!(
            matches!(
                plan,
                Plan::Sparse {
                    query: QueryType::Dipr { .. },
                    index: IndexChoice::Flat,
                    ..
                }
            ),
            "{plan:?}"
        );
    }
}

#[test]
fn fine_dipr_plan_matches_reference() {
    let (db, cfg) = db_with_context(0, 32);
    for reused in [STORED, STORED / 2] {
        let plan = check(&db, &cfg, reused, 1);
        assert!(
            matches!(
                plan,
                Plan::Sparse {
                    query: QueryType::Dipr { .. },
                    index: IndexChoice::Fine,
                    ..
                }
            ),
            "{plan:?}"
        );
    }
}
