//! Sessions: the per-request connection between stored contexts and a
//! running inference (Table 2).
//!
//! A session pairs a (possibly partially) reused stored context with a
//! session-local KV window. `update` appends each step's keys/values to the
//! local window — never to the stored index (late materialization, §7.2) —
//! and records query-vector samples so a later `DB.store` can train fine
//! indexes from the true decode distribution. `attention` asks the query
//! optimizer for a plan and executes it per query head, merging the cached
//! window, the local window and the retrieved critical tokens through the
//! data-centric log-sum-exp aggregation.

use std::sync::Arc;

use alaya_llm::backend::{AttentionBackend, StepInput};
use alaya_llm::kv::KvCache;
use alaya_query::diprs::{diprs_filtered, graph_topk_filtered, DiprsParams};
use alaya_query::optimizer::{Optimizer, Plan, QuerySpec};
use alaya_query::types::{IndexChoice, QueryType};
use alaya_vector::softmax::OnlineSoftmax;
use alaya_vector::topk::ScoredIdx;
use alaya_vector::VecStore;

use crate::config::DbConfig;
use crate::stored::{QueryReservoir, StoredContext};

/// A running inference session (the paper's `Session` abstraction).
pub struct Session {
    cfg: DbConfig,
    optimizer: Optimizer,
    base: Option<Arc<StoredContext>>,
    reused_len: usize,
    local: KvCache,
    tokens: Vec<u32>,
    queries: QueryReservoir,
    /// Plans chosen so far, newest last (diagnostics / EXPLAIN).
    plan_log: Vec<String>,
}

impl Session {
    pub(crate) fn new(cfg: DbConfig, base: Option<Arc<StoredContext>>, reused_len: usize) -> Self {
        let model = &cfg.model;
        let local = KvCache::new(model.n_layers, model.n_kv_heads, model.head_dim);
        let tokens = base
            .as_ref()
            .map(|b| b.tokens[..reused_len].to_vec())
            .unwrap_or_default();
        let queries = QueryReservoir::new(
            model.n_layers,
            model.n_q_heads,
            model.head_dim,
            cfg.max_query_samples,
        );
        let optimizer = Optimizer::new(cfg.optimizer.clone());
        Self {
            cfg,
            optimizer,
            base,
            reused_len,
            local,
            tokens,
            queries,
            plan_log: Vec::new(),
        }
    }

    /// The reused stored context, if any.
    pub fn base(&self) -> Option<&Arc<StoredContext>> {
        self.base.as_ref()
    }

    /// Reused prefix length.
    pub fn reused_len(&self) -> usize {
        self.reused_len
    }

    /// Tokens appended to the session-local window (any layer; all layers
    /// advance together under the backend contract).
    pub fn local_len(&self) -> usize {
        self.local.seq_len(0)
    }

    /// Total sequence length (reused prefix + local window).
    pub fn total_len(&self) -> usize {
        self.reused_len + self.local_len()
    }

    /// Records the token ids the engine is processing, so `DB.store` can
    /// persist the full context. Call before/after `Model::generate` with
    /// the truncated prompt and the generated tokens.
    pub fn note_tokens(&mut self, tokens: &[u32]) {
        self.tokens.extend_from_slice(tokens);
    }

    /// The known token sequence (reused prefix + noted tokens).
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// The retained query samples (handed to index construction at store
    /// time).
    pub fn query_samples(&self) -> &QueryReservoir {
        &self.queries
    }

    /// Recent plan explanations, newest last.
    pub fn plan_log(&self) -> &[String] {
        &self.plan_log
    }

    pub(crate) fn local_kv(&self) -> &KvCache {
        &self.local
    }

    /// Appends one step's keys/values (one per KV head) for `layer` and
    /// records query samples — the `Session.update` API of Table 2.
    pub fn update(
        &mut self,
        queries: &[Vec<f32>],
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
        layer: usize,
    ) {
        self.local.push_token(layer, keys, values);
        for (qh, q) in queries.iter().enumerate() {
            self.queries.push(layer, qh, q);
        }
    }

    /// Materializes the full key/value matrices of `(layer, kv_head)` —
    /// reused prefix followed by the session-local window. This is Table
    /// 2's "option to return the full key and value cache for manual
    /// management" (`DynamicCache.update` compatibility); the sparse path
    /// never needs it.
    pub fn full_kv(&self, layer: usize, kv_head: usize) -> (VecStore, VecStore) {
        let dim = self.cfg.model.head_dim;
        let mut keys = VecStore::with_capacity(dim, self.total_len());
        let mut values = VecStore::with_capacity(dim, self.total_len());
        if let Some(base) = &self.base {
            let kv = base.kv.head(layer, kv_head);
            for i in 0..self.reused_len {
                keys.push(kv.keys.row(i));
                values.push(kv.values.row(i));
            }
        }
        let local = self.local.head(layer, kv_head);
        for i in 0..local.len() {
            keys.push(local.keys.row(i));
            values.push(local.values.row(i));
        }
        (keys, values)
    }

    /// The optimizer's workload description for an attention call at
    /// `layer` — the *plan* half of the plan/execute split the serving
    /// scheduler batches across sessions.
    pub fn query_spec(&self, layer: usize) -> QuerySpec {
        QuerySpec {
            context_len: self.base.as_ref().map(|b| b.len()).unwrap_or(0),
            reused_prefix: match &self.base {
                Some(b) if self.reused_len < b.len() => Some(self.reused_len),
                _ => None,
            },
            layer_id: layer,
            coarse_bytes_needed: self
                .base
                .as_ref()
                .map(|b| b.coarse_bytes_needed())
                .unwrap_or(0),
        }
    }

    /// Plans one attention call at `layer` without executing or logging it.
    /// Sessions sharing a stored context produce equal specs (for equal
    /// reused prefixes), so a scheduler can plan once per group and execute
    /// many sessions under the same plan.
    pub fn plan(&self, layer: usize) -> Plan {
        self.optimizer.plan(&self.query_spec(layer), &self.cfg.gpu)
    }

    /// Records `plan` in the plan log (deduplicating consecutive repeats) —
    /// the logging half of what [`Session::attention`] does implicitly.
    pub fn note_plan(&mut self, plan: &Plan) {
        if self
            .plan_log
            .last()
            .map(|p| p != &plan.explain())
            .unwrap_or(true)
        {
            self.plan_log.push(plan.explain());
        }
    }

    /// Computes attention outputs for every query head at `layer` — the
    /// `Session.attention` API of Table 2. K/V for the current step must
    /// already be in the local window (call [`Session::update`] first).
    ///
    /// Per-query-head execution fans out over the shared work-stealing pool
    /// ([`alaya_device::pool::global`]); outputs are bitwise-identical to
    /// [`Session::attention_sequential`] because every head's computation
    /// is independent and order-free.
    pub fn attention(&mut self, queries: &[Vec<f32>], layer: usize) -> Vec<Vec<f32>> {
        let plan = self.plan(layer);
        self.note_plan(&plan);
        self.attention_with_plan(queries, layer, &plan)
    }

    /// The sequential reference path: identical plan, per-head loop on the
    /// calling thread. Kept callable so tests and benches can assert the
    /// parallel and scheduled paths are bitwise-equal to it.
    pub fn attention_sequential(&mut self, queries: &[Vec<f32>], layer: usize) -> Vec<Vec<f32>> {
        let plan = self.plan(layer);
        self.note_plan(&plan);
        queries
            .iter()
            .enumerate()
            .map(|(qh, q)| self.attend_query_head(q, qh, layer, &plan))
            .collect()
    }

    /// Executes a pre-computed `plan` for every query head — the *execute*
    /// half of the plan/execute split. Immutable, so a scheduler holding
    /// many sessions can execute them concurrently; heads fan out over the
    /// shared pool when there is more than one.
    pub fn attention_with_plan(
        &self,
        queries: &[Vec<f32>],
        layer: usize,
        plan: &Plan,
    ) -> Vec<Vec<f32>> {
        let attended = self.reused_len + self.local.seq_len(layer);
        if queries.len() <= 1 || attended < PARALLEL_MIN_TOKENS {
            return queries
                .iter()
                .enumerate()
                .map(|(qh, q)| self.attend_query_head(q, qh, layer, plan))
                .collect();
        }
        alaya_device::pool::global().map(queries.len(), |qh| {
            self.attend_query_head(&queries[qh], qh, layer, plan)
        })
    }

    /// One query head's attention under a pre-computed `plan` (`qh` is the
    /// query-head index; the KV head is derived via the GQA group size).
    /// This is the granularity the serving scheduler fans out over.
    pub fn attend_query_head(&self, q: &[f32], qh: usize, layer: usize, plan: &Plan) -> Vec<f32> {
        self.attend_head(q, qh / self.cfg.model.gqa_group_size(), layer, plan)
    }

    /// One head's attention under `plan`.
    fn attend_head(&self, q: &[f32], kv_head: usize, layer: usize, plan: &Plan) -> Vec<f32> {
        let dim = self.cfg.model.head_dim;
        let scale = 1.0 / (dim as f32).sqrt();
        let n_stored = self.reused_len;
        let n_local = self.local.seq_len(layer);
        let n = n_stored + n_local;
        let mut acc = OnlineSoftmax::new(dim);

        let local_kv = self.local.head(layer, kv_head);
        let stored_kv = self.base.as_ref().map(|b| b.kv.head(layer, kv_head));

        match plan {
            Plan::FullAttention { .. } => {
                if let Some(kv) = stored_kv {
                    push_range(&mut acc, q, &kv.keys, &kv.values, scale, 0, n_stored);
                }
                push_range(
                    &mut acc,
                    q,
                    &local_kv.keys,
                    &local_kv.values,
                    scale,
                    0,
                    n_local,
                );
                acc.output()
            }
            Plan::Sparse {
                query,
                index,
                filter,
            } => {
                let window = self.cfg.window;

                // Partition 1 ("GPU"): cached window over the combined
                // sequence, restricted to the stored part (local tokens are
                // partition 2 in full).
                if let Some(kv) = stored_kv {
                    let wids: Vec<u32> = window
                        .token_ids(n)
                        .filter(|&id| (id as usize) < n_stored)
                        .collect();
                    push_ids(&mut acc, q, &kv.keys, &kv.values, scale, &wids);
                }

                // Partition 2: the session-local window — always attended
                // (late materialization keeps it un-indexed).
                push_range(
                    &mut acc,
                    q,
                    &local_kv.keys,
                    &local_kv.values,
                    scale,
                    0,
                    n_local,
                );

                // Window seeding for DIPRS (§7.1): best-so-far IP from the
                // already-computed partitions.
                let seed = if acc.is_empty() {
                    None
                } else {
                    Some(acc.max_score() / scale)
                };

                // Partition 3 ("CPU"): retrieved critical tokens from the
                // stored context. Every branch yields distinct `(id, score)`
                // pairs scored once, by the retrieval itself; TopK plans keep
                // their ranked order, DIPR plans come back unordered.
                let (Some(base), Some(kv)) = (self.base.as_ref(), stored_kv) else {
                    return acc.output();
                };
                let prefix_len = filter.map_or(n_stored, |f| f.prefix_len.min(n_stored));
                let pred = |id: u32| (id as usize) < prefix_len;
                let retrieved: Vec<ScoredIdx> = match (query, index) {
                    (QueryType::TopK { k }, IndexChoice::Coarse) => {
                        let coarse = base.coarse(layer, kv_head);
                        let blocks = k.div_ceil(coarse.block_size()).max(1);
                        coarse
                            .select_tokens(q, blocks)
                            .into_iter()
                            .filter(|&t| pred(t))
                            .map(|t| ScoredIdx {
                                idx: t as usize,
                                score: kv.keys.dot_row(q, t as usize),
                            })
                            .collect()
                    }
                    (QueryType::TopK { k }, IndexChoice::Fine) => {
                        match base.graph(layer, kv_head) {
                            Some(g) => graph_topk_filtered(g, &kv.keys, q, *k, k * 2, pred),
                            None => flat_topk_filtered(&kv.keys, q, *k, pred),
                        }
                    }
                    (QueryType::TopK { k }, IndexChoice::Flat) => {
                        flat_topk_filtered(&kv.keys, q, *k, pred)
                    }
                    (QueryType::Dipr { beta }, IndexChoice::Fine) => {
                        let params = DiprsParams {
                            beta: *beta,
                            l0: self.cfg.optimizer.default_k.max(16),
                            max_visits: usize::MAX,
                        };
                        match base.graph(layer, kv_head) {
                            Some(g) => diprs_filtered(g, &kv.keys, q, &params, seed, pred).tokens,
                            None => flat_dipr_filtered(&kv.keys, q, *beta, pred),
                        }
                    }
                    (QueryType::Dipr { beta }, IndexChoice::Flat | IndexChoice::Coarse) => {
                        flat_dipr_filtered(&kv.keys, q, *beta, pred)
                    }
                };

                // Absorb the retrieved tokens partition 1 did not: the
                // predicate keeps ids below `n_stored`, so window membership
                // is the only overlap to skip.
                for s in retrieved {
                    if !window.contains(s.idx, n) {
                        acc.push(s.score * scale, kv.values.row(s.idx));
                    }
                }
                acc.output()
            }
        }
    }
}

/// Keys scored per batched call below — big enough to amortize per-key row
/// arithmetic, small enough that the score buffer lives on the stack.
const SCORE_BLOCK: usize = 64;

/// Streams rows `[start, start + len)` into `acc` in order, scoring
/// [`SCORE_BLOCK`] contiguous keys per [`VecStore::dot_block`] call.
/// `dot_block` is bitwise-identical to per-row `dot_row` and the push order
/// is unchanged, so the accumulator state matches the one-push-per-key loop
/// exactly — `attention_sequential` stays a bitwise oracle.
fn push_range(
    acc: &mut OnlineSoftmax,
    q: &[f32],
    keys: &VecStore,
    values: &VecStore,
    scale: f32,
    start: usize,
    len: usize,
) {
    let mut scores = [0.0f32; SCORE_BLOCK];
    let mut i = start;
    let end = start + len;
    while i < end {
        let b = SCORE_BLOCK.min(end - i);
        let scores = &mut scores[..b];
        keys.dot_block(q, i, scores);
        for (j, &s) in scores.iter().enumerate() {
            acc.push(s * scale, values.row(i + j));
        }
        i += b;
    }
}

/// [`push_range`] for a non-contiguous id gather (same bitwise contract,
/// via [`VecStore::dot_ids`]).
fn push_ids(
    acc: &mut OnlineSoftmax,
    q: &[f32],
    keys: &VecStore,
    values: &VecStore,
    scale: f32,
    ids: &[u32],
) {
    let mut scores = [0.0f32; SCORE_BLOCK];
    for chunk in ids.chunks(SCORE_BLOCK) {
        let scores = &mut scores[..chunk.len()];
        keys.dot_ids(q, chunk, scores);
        for (&id, &s) in chunk.iter().zip(scores.iter()) {
            acc.push(s * scale, values.row(id as usize));
        }
    }
}

fn flat_topk_filtered(
    keys: &VecStore,
    q: &[f32],
    k: usize,
    pred: impl Fn(u32) -> bool,
) -> Vec<ScoredIdx> {
    alaya_index::flat::FlatIndex.search_topk_filtered(keys, q, k, pred)
}

fn flat_dipr_filtered(
    keys: &VecStore,
    q: &[f32],
    beta: f32,
    pred: impl Fn(u32) -> bool,
) -> Vec<ScoredIdx> {
    alaya_index::flat::FlatIndex.search_dipr_filtered(keys, q, beta, pred)
}

/// Below this many attended tokens, a per-head task is microseconds of
/// work and pool dispatch costs more than it saves — serial execution is
/// the fast path for short-context decode. Shared with the serving
/// scheduler's batch executor; outputs are identical either way (the pool
/// preserves per-index results).
pub const PARALLEL_MIN_TOKENS: usize = 512;

impl AttentionBackend for Session {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        self.update(&input.queries, &input.keys, &input.values, layer);
        self.attention(&input.queries, layer)
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.reused_len + self.local.seq_len(layer)
    }
}
