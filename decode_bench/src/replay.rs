//! Replays captured requests outside the timed phase: the bitwise check
//! against a twin `Session::attention_sequential`, the per-layer timings of
//! the lower layers on the same stored context, and the dense reference.

use std::hint::black_box;
use std::time::Instant;

use alaya_core::{ContextId, Db, DbConfig, Session};
use alaya_index::coarse::CoarseIndex;
use alaya_index::flat::FlatIndex;
use alaya_index::roargraph::RoarGraph;
use alaya_index::sharing::sample_rows;
use alaya_llm::{FullKvBackend, Model};
use alaya_query::diprs::{diprs_filtered, DiprsParams};
use alaya_query::optimizer::Plan;
use alaya_query::types::{IndexChoice, QueryType};
use alaya_vector::{dot, OnlineSoftmax, VecStore};

use crate::workload::{Captured, OUT_TOKENS};

/// Index of `plan` in [`crate::workload::PLAN_KINDS`]; `None` for plans
/// no workload expects.
pub fn plan_kind(plan: &Plan) -> Option<usize> {
    match plan {
        Plan::FullAttention { .. } => Some(0),
        Plan::Sparse {
            index: IndexChoice::Coarse,
            query: QueryType::TopK { .. },
            ..
        } => Some(1),
        Plan::Sparse {
            index: IndexChoice::Flat,
            query: QueryType::Dipr { .. },
            ..
        } => Some(2),
        Plan::Sparse {
            index: IndexChoice::Fine,
            query: QueryType::Dipr { .. },
            ..
        } => Some(3),
        Plan::Sparse { .. } => None,
    }
}

/// What the replays measured. Times are nanoseconds per call.
#[derive(Default)]
pub struct Replay {
    pub steps: u64,
    pub plans: [u64; 4],
    pub unexpected_plans: u64,
    pub mismatches: Vec<String>,
    pub head_ns: Vec<f64>,
    pub head_other_ns: Vec<f64>,
    pub rel_err: Vec<f64>,
    pub diprs_ns: Vec<f64>,
    pub diprs_visited: Vec<f64>,
    pub dipr_selected: Vec<f64>,
    pub dipr_selected_frac: Vec<f64>,
    pub diprs_recall: Vec<f64>,
    pub flat_ns: Vec<f64>,
    pub coarse_ns: Vec<f64>,
    pub coarse_tokens: Vec<f64>,
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Replays `cap` on a twin session over the same DB. Every step's outputs
/// must be bitwise equal to the engine's. With `detail`, each query head
/// is also timed through `Session::attend_query_head` and through the
/// searches every plan could run on the stored context.
pub fn replay(db: &Db, cap: &Captured, detail: bool, out: &mut Replay) {
    let cfg = db.config();
    let model = &cfg.model;
    let group = model.gqa_group_size();
    let scale = 1.0 / (model.head_dim as f32).sqrt();
    let (mut twin, _) = db.create_session(&cap.prompt);
    let mut local_keys: Vec<Vec<VecStore>> = (0..model.n_layers)
        .map(|_| {
            (0..model.n_kv_heads)
                .map(|_| VecStore::new(model.head_dim))
                .collect()
        })
        .collect();

    for (si, step) in cap.steps.iter().enumerate() {
        let input = &step.input;
        let layer = step.layer;
        twin.update(&input.queries, &input.keys, &input.values, layer);
        for (h, k) in input.keys.iter().enumerate() {
            local_keys[layer][h].push(k);
        }
        let plan = twin.plan(layer);
        match plan_kind(&plan) {
            Some(k) => out.plans[k] += 1,
            None => out.unexpected_plans += 1,
        }
        out.steps += 1;
        if detail {
            let dense: Vec<Vec<f32>> = (0..model.n_kv_heads)
                .map(|h| {
                    let (k, v) = twin.full_kv(layer, h);
                    input.queries[h * group..(h + 1) * group]
                        .iter()
                        .map(|q| dense_attention(q, &k, &v, scale))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
                .concat();
            for (qh, q) in input.queries.iter().enumerate() {
                let t = Instant::now();
                let o = black_box(twin.attend_query_head(q, qh, layer, &plan));
                let head = elapsed_ns(t);
                let search =
                    search_replay(cfg, &twin, q, qh / group, layer, &plan, &local_keys, out);
                out.head_ns.push(head);
                out.head_other_ns.push(head - search);
                out.rel_err.push(rel_l2(&o, &dense[qh]));
            }
        }
        let got = twin.attention_sequential(&input.queries, layer);
        let same = got.len() == step.out.len()
            && got.iter().zip(&step.out).all(|(a, b)| {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            });
        if !same {
            out.mismatches.push(format!(
                "step {si} (layer {layer}): engine output differs from Session::attention_sequential"
            ));
        }
    }
}

/// Runs every search a plan could choose for one query head on the stored
/// context, recording each, and returns the time of the one `plan` runs.
#[allow(clippy::too_many_arguments)]
fn search_replay(
    cfg: &DbConfig,
    twin: &Session,
    q: &[f32],
    kv_head: usize,
    layer: usize,
    plan: &Plan,
    local_keys: &[Vec<VecStore>],
    out: &mut Replay,
) -> f64 {
    let Some(base) = twin.base() else { return 0.0 };
    let scale = 1.0 / (cfg.model.head_dim as f32).sqrt();
    let n_stored = twin.reused_len();
    let keys = &base.kv.head(layer, kv_head).keys;
    let (beta, prefix_len) = match plan {
        Plan::Sparse {
            query: QueryType::Dipr { beta },
            filter,
            ..
        } => (*beta, filter.map_or(n_stored, |f| f.prefix_len)),
        Plan::Sparse { filter, .. } | Plan::FullAttention { filter } => (
            cfg.optimizer.default_beta,
            filter.map_or(n_stored, |f| f.prefix_len),
        ),
    };
    let pred = |id: u32| (id as usize) < prefix_len;

    // The DIPRS seed the session derives from the window and local tokens.
    let local = &local_keys[layer][kv_head];
    let n = n_stored + local.len();
    let mut best = f32::NEG_INFINITY;
    for id in cfg
        .window
        .token_ids(n)
        .filter(|&id| (id as usize) < n_stored)
    {
        best = best.max(dot(q, keys.row(id as usize)) * scale);
    }
    for k in local.iter() {
        best = best.max(dot(q, k) * scale);
    }
    let seed = (best != f32::NEG_INFINITY).then(|| best / scale);

    let t = Instant::now();
    let exact = black_box(FlatIndex.search_dipr_filtered(keys, q, beta, pred));
    let flat_ns = elapsed_ns(t);
    if layer == 0 {
        out.flat_ns.push(flat_ns);
    }

    let mut diprs_ns = flat_ns;
    if let Some(graph) = base.graph(layer, kv_head) {
        let params = DiprsParams {
            beta,
            l0: cfg.optimizer.default_k.max(16),
            max_visits: usize::MAX,
        };
        let t = Instant::now();
        let r = black_box(diprs_filtered(graph, keys, q, &params, seed, pred));
        diprs_ns = elapsed_ns(t);
        out.diprs_ns.push(diprs_ns);
        out.diprs_visited.push(r.visited as f64);
        out.dipr_selected.push(r.tokens.len() as f64);
        out.dipr_selected_frac
            .push(r.tokens.len() as f64 / prefix_len.max(1) as f64);
        let mut want: Vec<usize> = exact.iter().map(|s| s.idx).collect();
        want.sort_unstable();
        let hit = r
            .tokens
            .iter()
            .filter(|s| want.binary_search(&s.idx).is_ok())
            .count();
        out.diprs_recall.push(hit as f64 / want.len().max(1) as f64);
    }

    let coarse = base.coarse(layer, kv_head);
    let blocks = cfg.optimizer.default_k.div_ceil(coarse.block_size()).max(1);
    let t = Instant::now();
    let picked = black_box(coarse.select_tokens(q, blocks));
    let coarse_ns = elapsed_ns(t);
    out.coarse_ns.push(coarse_ns);
    out.coarse_tokens.push(picked.len() as f64);

    match plan {
        Plan::FullAttention { .. } => 0.0,
        Plan::Sparse {
            query: QueryType::TopK { .. },
            index: IndexChoice::Coarse,
            ..
        } => coarse_ns,
        Plan::Sparse {
            query: QueryType::Dipr { .. },
            index: IndexChoice::Fine,
            ..
        } => diprs_ns,
        Plan::Sparse {
            query: QueryType::Dipr { .. },
            ..
        } => flat_ns,
        Plan::Sparse { .. } => 0.0,
    }
}

fn dense_attention(q: &[f32], keys: &VecStore, values: &VecStore, scale: f32) -> Vec<f32> {
    let mut acc = OnlineSoftmax::new(values.dim());
    for i in 0..keys.len() {
        acc.push(dot(q, keys.row(i)) * scale, values.row(i));
    }
    acc.output()
}

fn rel_l2(got: &[f32], want: &[f32]) -> f64 {
    let num: f64 = got
        .iter()
        .zip(want)
        .map(|(a, b)| ((a - b) as f64).powi(2))
        .sum();
    let den: f64 = want.iter().map(|b| (*b as f64).powi(2)).sum();
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

/// Greedy decode of the captured prompt with exact attention over the
/// stored prefix (`FullKvBackend`). Returns the tokens and the time per
/// output token after the first, in nanoseconds.
pub fn dense_reference(db: &Db, model: &Model, cap: &Captured) -> (Vec<u32>, Vec<f64>) {
    let (twin, suffix) = db.create_session(&cap.prompt);
    let start = twin.reused_len();
    let kv = match twin.base() {
        Some(base) => base.kv.prefix(start),
        None => alaya_llm::KvCache::new(
            model.config().n_layers,
            model.config().n_kv_heads,
            model.config().head_dim,
        ),
    };
    let mut backend = FullKvBackend::from_cache(kv, model.config().gqa_group_size());
    let mut logits = Vec::new();
    for (i, &t) in suffix.iter().enumerate() {
        logits = model.forward_token(t, start + i, &mut backend);
    }
    let mut tokens = vec![alaya_vector::argmax(&logits).expect("logits are non-empty") as u32];
    let mut tpot = Vec::new();
    let mut pos = start + suffix.len();
    while tokens.len() < OUT_TOKENS {
        let t = Instant::now();
        let logits = model.forward_token(tokens[tokens.len() - 1], pos, &mut backend);
        tokens.push(alaya_vector::argmax(&logits).expect("logits are non-empty") as u32);
        tpot.push(elapsed_ns(t));
        pos += 1;
    }
    (tokens, tpot)
}

/// Times the index builds an import runs, for one `(layer, kv head)` of
/// the stored context: the fine graph (trained, as `Db::import` does, on
/// sampled keys merged across the query-head group) and the coarse index.
pub fn build_replay(db: &Db, ctx: ContextId) -> (f64, f64) {
    let cfg = db.config();
    let base = db.context(ctx).expect("the set-up context is stored");
    let layer = cfg.optimizer.flat_layers.min(cfg.model.n_layers - 1);
    let keys = &base.kv.head(layer, 0).keys;
    let group = cfg.model.gqa_group_size();
    let per_q_head = sample_rows(keys, (keys.len() / 2).max(1));
    let total = (keys.len() as f64 * cfg.sample_ratio).ceil() as usize;
    let per_head = total.div_ceil(group).max(1);
    let mut train = VecStore::new(keys.dim());
    for _ in 0..group {
        train.extend_from(&sample_rows(&per_q_head, per_head));
    }
    let t = Instant::now();
    black_box(RoarGraph::build(keys, &train, cfg.index_params));
    let graph_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    black_box(CoarseIndex::build(
        keys,
        cfg.coarse_block_size,
        cfg.coarse_scoring,
    ));
    let coarse_s = t.elapsed().as_secs_f64();
    (graph_s, coarse_s)
}
