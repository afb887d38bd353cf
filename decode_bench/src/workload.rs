//! The three workloads: their inputs, set-up, and the timed phase that
//! drives `Model` through `ServeEngine` from at most two client threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alaya_core::{ContextId, Db, DbConfig};
use alaya_device::memory::MemoryTracker;
use alaya_llm::{AttentionBackend, KvCache, Model, ModelConfig, StepInput};
use alaya_serve::{ServeEngine, ServeError, SessionId, TelemetrySnapshot};

use crate::gen::{self, Rng};
use crate::trace::{self, Span, Tracer};

/// Greedy tokens generated per request. The end-of-text token does not
/// stop a request, so every request does the same amount of decode work.
pub const OUT_TOKENS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop, two clients, one 8K context reused with two fresh
    /// tokens; the GPU budget is below the coarse plan's need, so layer 0
    /// plans DIPR on Flat and deeper layers DIPR on the fine graph.
    DiprReuse,
    /// Open loop, seeded arrivals over two connections; a 1K system
    /// prompt plus a unique 32-token turn, so every plan is full attention.
    /// Run by hand only: not steady enough on a shared VM to gate changes
    /// (see README).
    ChatOpen,
    /// One closed-loop reader on an 8K context with budget to spare
    /// (TopK on Coarse) beside a writer importing 2K contexts back to back.
    IngestMix,
}

/// Optimizer plan kinds, in the order `core.plan_kind.*` reports them.
pub const PLAN_KINDS: [&str; 4] = ["full", "coarse", "dipr_flat", "dipr_fine"];

#[derive(Clone, Debug)]
pub struct Spec {
    pub kind: Kind,
    /// Tokens in the stored context imported at set-up.
    pub ctx_tokens: usize,
    /// Tokens each request adds after the stored context.
    pub fresh_tokens: usize,
    /// Request-level limits behind `slo_ok_frac`: time to first token, and
    /// mean time per output token after the first.
    pub ttft_limit_ms: f64,
    pub tpot_limit_ms: f64,
    /// Plan kinds (indexes into [`PLAN_KINDS`]) the workload must fire;
    /// any other kind is a failed check.
    pub expected_plans: &'static [usize],
    /// Requests whose attention calls are captured for the correctness
    /// checks, per client.
    pub captured_per_client: usize,
}

/// Arrival rate of `chat_open`: about 65% of the two-connection closed-
/// loop capacity measured on the reference host (see README).
pub const CHAT_RATE_PER_S: f64 = 9.0;
/// Erlang shape of `chat_open`'s inter-arrival gaps. With Poisson gaps
/// (shape 1) the TTFT tail swung by 30-50% between seeds; shape 4 halves
/// the gaps' coefficient of variation and keeps the open loop steady.
pub const CHAT_ARRIVAL_SHAPE: u32 = 4;
/// Tokens per context the `ingest_mix` writer imports.
pub const INGEST_CTX_TOKENS: usize = 2048;
/// Distinct pre-generated writer contexts, imported round-robin.
const INGEST_POOL: usize = 4;
/// The writer imports into its own DB, replaced after this many imports,
/// so resident memory does not grow with ingest speed.
const INGEST_DB_IMPORTS: usize = 4;

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        Some(match name {
            "dipr_reuse" => Spec {
                kind: Kind::DiprReuse,
                ctx_tokens: 8192,
                fresh_tokens: 2,
                ttft_limit_ms: 600.0,
                tpot_limit_ms: 250.0,
                expected_plans: &[2, 3],
                captured_per_client: 1,
            },
            "chat_open" => Spec {
                kind: Kind::ChatOpen,
                ctx_tokens: 1024,
                fresh_tokens: 32,
                ttft_limit_ms: 250.0,
                tpot_limit_ms: 8.0,
                expected_plans: &[0],
                captured_per_client: 4,
            },
            "ingest_mix" => Spec {
                kind: Kind::IngestMix,
                ctx_tokens: 8192,
                fresh_tokens: 2,
                ttft_limit_ms: 50.0,
                tpot_limit_ms: 15.0,
                expected_plans: &[1],
                captured_per_client: 2,
            },
            _ => return None,
        })
    }

    pub fn model() -> ModelConfig {
        ModelConfig::small()
    }

    /// The optimizer's GPU budget for a stored context whose KV takes
    /// `kv_bytes`. The coarse plan needs the whole KV plus block summaries
    /// resident; admission reservations are charged to the same tracker.
    fn gpu_budget(&self, kv_bytes: u64) -> u64 {
        match self.kind {
            Kind::DiprReuse => kv_bytes / 2,
            Kind::ChatOpen => u64::MAX / 4,
            Kind::IngestMix => kv_bytes * 2,
        }
    }
}

/// Everything a run feeds the system, generated from the seed before any
/// timing starts.
pub struct Inputs {
    pub ctx_tokens: Vec<u32>,
    pub ctx_kv: KvCache,
    /// Per client: the fresh tokens of each request, used in order and
    /// cycled if a client outruns them.
    pub fresh: Vec<Vec<Vec<u32>>>,
    /// `chat_open` arrival offsets in seconds.
    pub arrivals: Vec<f64>,
    /// `ingest_mix` writer contexts.
    pub ingest: Vec<(Vec<u32>, KvCache)>,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Self {
        let model = Spec::model();
        let mut rng = Rng::stream(seed, 1);
        let ctx_tokens = gen::tokens(&mut rng, spec.ctx_tokens);
        let ctx_kv = gen::kv_cache(&mut rng, &model, spec.ctx_tokens);
        let mut arrivals = Vec::new();
        let clients = match spec.kind {
            Kind::DiprReuse => 2,
            Kind::ChatOpen => {
                arrivals = gen::arrival_schedule(
                    &mut Rng::stream(seed, 2),
                    CHAT_RATE_PER_S,
                    seconds,
                    CHAT_ARRIVAL_SHAPE,
                );
                1
            }
            Kind::IngestMix => 1,
        };
        let per_client = if spec.kind == Kind::ChatOpen {
            arrivals.len()
        } else {
            4096
        };
        let fresh = (0..clients)
            .map(|c| {
                let mut r = Rng::stream(seed, 10 + c as u64);
                (0..per_client)
                    .map(|_| gen::tokens(&mut r, spec.fresh_tokens))
                    .collect()
            })
            .collect();
        let ingest = if spec.kind == Kind::IngestMix {
            (0..INGEST_POOL)
                .map(|i| {
                    let mut r = Rng::stream(seed, 100 + i as u64);
                    let toks = gen::tokens(&mut r, INGEST_CTX_TOKENS);
                    let kv = gen::kv_cache(&mut r, &model, INGEST_CTX_TOKENS);
                    (toks, kv)
                })
                .collect()
        } else {
            Vec::new()
        };
        Self {
            ctx_tokens,
            ctx_kv,
            fresh,
            arrivals,
            ingest,
        }
    }
}

/// The set-up a run measures: a fresh DB with the workload's stored
/// context imported (index builds included).
pub struct Setup {
    pub db: Arc<Db>,
    pub ctx: ContextId,
    pub budget: u64,
    pub setup_s: f64,
    pub import_s: f64,
}

pub fn setup(spec: &Spec, inputs: &Inputs) -> Setup {
    let kv = inputs.ctx_kv.clone();
    let tokens = inputs.ctx_tokens.clone();
    let budget = spec.gpu_budget(kv.bytes() as u64);
    let t0 = Instant::now();
    let db = Arc::new(Db::new(DbConfig::paper_defaults(
        Spec::model(),
        MemoryTracker::new(budget),
    )));
    let t_import = Instant::now();
    let ctx = db.import(tokens, kv);
    let end = Instant::now();
    Setup {
        db,
        ctx,
        budget,
        setup_s: (end - t0).as_secs_f64(),
        import_s: (end - t_import).as_secs_f64(),
    }
}

/// One captured attention call: the layer, what the model sent, and what
/// the engine returned.
pub struct Step {
    pub layer: usize,
    pub input: StepInput,
    pub out: Vec<Vec<f32>>,
}

/// A request whose attention calls were captured for the checks.
pub struct Captured {
    pub prompt: Vec<u32>,
    pub steps: Vec<Step>,
    pub tokens: Vec<u32>,
}

#[derive(Default)]
pub struct ReqRecord {
    pub ok: bool,
    pub ttft_ns: u64,
    pub tpot_ns: Vec<u64>,
    pub tokens: usize,
    pub attends_ok: u64,
    /// Open loop: how late the request started after it was due.
    pub lag_ns: Option<u64>,
}

pub struct ImportRecord {
    pub tokens: usize,
    pub secs: f64,
}

pub struct PhaseOut {
    pub wall_s: f64,
    pub requests: Vec<ReqRecord>,
    pub imports: Vec<ImportRecord>,
    pub captured: Vec<Captured>,
    pub spans: Vec<Span>,
    pub telemetry: TelemetrySnapshot,
    pub pool_tasks: u64,
    pub pool_steals: u64,
    pub gpu_peak: u64,
    pub errors: Vec<String>,
}

/// Routes the model's attention through the engine. A `ServeError` marks
/// the request failed instead of panicking; later layers get zeros and the
/// request loop stops at the next token boundary.
struct Backend<'a> {
    engine: &'a ServeEngine,
    id: SessionId,
    tracer: Option<&'a mut Tracer>,
    capture: Option<Vec<Step>>,
    error: Option<ServeError>,
    attends_ok: u64,
    n_q_heads: usize,
    head_dim: usize,
}

impl Backend<'_> {
    fn begin(&mut self, name: &'static str) -> Option<usize> {
        self.tracer.as_mut().map(|t| t.begin(name))
    }

    fn end(&mut self, span: Option<usize>) {
        if let (Some(t), Some(s)) = (self.tracer.as_mut(), span) {
            t.end(s);
        }
    }
}

impl AttentionBackend for Backend<'_> {
    fn attend(&mut self, layer: usize, input: StepInput) -> Vec<Vec<f32>> {
        if self.error.is_some() {
            return vec![vec![0.0; self.head_dim]; self.n_q_heads];
        }
        let kept = self.capture.as_ref().map(|_| input.clone());
        let span = self.begin("serve.attend");
        let result = self.engine.attend(self.id, layer, input);
        self.end(span);
        match result {
            Ok(out) => {
                self.attends_ok += 1;
                if let (Some(steps), Some(input)) = (self.capture.as_mut(), kept) {
                    steps.push(Step {
                        layer,
                        input,
                        out: out.clone(),
                    });
                }
                out
            }
            Err(e) => {
                self.error = Some(e);
                vec![vec![0.0; self.head_dim]; self.n_q_heads]
            }
        }
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.engine.seq_len(self.id, layer).unwrap_or(0)
    }
}

/// Shared, read-only state of a phase.
struct Env<'a> {
    engine: &'a ServeEngine,
    model: &'a Model,
    epoch: Instant,
}

/// Serves one request: admit, prefill the non-reused suffix, greedy-decode
/// [`OUT_TOKENS`] tokens, close. Times run from `due` when the request
/// has an arrival time (open loop), else from when it starts.
fn serve_request(
    env: &Env,
    prompt: &[u32],
    due: Option<Instant>,
    req: u64,
    tracer: Option<&mut Tracer>,
    capture: bool,
) -> (ReqRecord, Option<Captured>, Option<String>) {
    let mut rec = ReqRecord::default();
    let ns = |t: Instant| (t - env.epoch).as_nanos() as u64;
    let started = Instant::now();
    let due = due.unwrap_or(started);
    rec.lag_ns = (started > due).then(|| (started - due).as_nanos() as u64);
    let mut tracer = tracer;
    let root = tracer.as_mut().map(|t| {
        t.set_request(req);
        let root = t.begin_at("request", ns(due));
        if started > due {
            let w = t.begin_at("client.wait", ns(due));
            t.end_at(w, ns(started));
        }
        root
    });

    let admit_span = tracer.as_mut().map(|t| t.begin("serve.admit"));
    let admitted = env.engine.admit(prompt);
    if let (Some(t), Some(s)) = (tracer.as_mut(), admit_span) {
        t.end(s);
    }
    let (id, suffix) = match admitted {
        Ok(x) => x,
        Err(e) => {
            if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                t.end(r);
            }
            return (rec, None, Some(format!("admit: {e}")));
        }
    };
    let model_cfg = env.model.config();
    let mut b = Backend {
        engine: env.engine,
        id,
        tracer,
        capture: capture.then(Vec::new),
        error: None,
        attends_ok: 0,
        n_q_heads: model_cfg.n_q_heads,
        head_dim: model_cfg.head_dim,
    };
    let start_pos = prompt.len() - suffix.len();
    let mut logits = Vec::new();
    for (i, &t) in suffix.iter().enumerate() {
        let s = b.begin("llm.forward");
        logits = env.model.forward_token(t, start_pos + i, &mut b);
        b.end(s);
        if b.error.is_some() {
            break;
        }
    }
    let mut tokens: Vec<u32> = Vec::with_capacity(OUT_TOKENS);
    if b.error.is_none() {
        tokens.push(alaya_vector::argmax(&logits).expect("logits are non-empty") as u32);
        let mut prev = Instant::now();
        rec.ttft_ns = (prev - due).as_nanos() as u64;
        let mut pos = start_pos + suffix.len();
        while tokens.len() < OUT_TOKENS {
            let s = b.begin("llm.forward");
            let logits = env
                .model
                .forward_token(tokens[tokens.len() - 1], pos, &mut b);
            b.end(s);
            if b.error.is_some() {
                break;
            }
            tokens.push(alaya_vector::argmax(&logits).expect("logits are non-empty") as u32);
            let now = Instant::now();
            rec.tpot_ns.push((now - prev).as_nanos() as u64);
            prev = now;
            pos += 1;
        }
    }
    rec.attends_ok = b.attends_ok;
    let mut error = b.error.take().map(|e| format!("attend: {e}"));
    let steps = b.capture.take();
    let mut tracer = b.tracer.take();

    let close_span = tracer.as_mut().map(|t| t.begin("serve.close"));
    if let Err(e) = env.engine.close(id) {
        error.get_or_insert(format!("close: {e}"));
    }
    if let (Some(t), Some(s)) = (tracer.as_mut(), close_span) {
        t.end(s);
    }
    if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
        t.end(r);
    }
    rec.ok = error.is_none();
    rec.tokens = if rec.ok { tokens.len() } else { 0 };
    let captured = steps.filter(|_| rec.ok).map(|steps| Captured {
        prompt: prompt.to_vec(),
        steps,
        tokens,
    });
    (rec, captured, error)
}

/// Per-client results, merged after the threads join.
#[derive(Default)]
struct ClientOut {
    requests: Vec<ReqRecord>,
    imports: Vec<ImportRecord>,
    captured: Vec<Captured>,
    spans: Vec<Span>,
    errors: Vec<String>,
}

/// Runs one timed phase on a fresh engine over `setup.db`.
pub fn run_phase(
    spec: &Spec,
    inputs: &Inputs,
    setup: &Setup,
    model: &Model,
    seconds: f64,
    traced: bool,
    capture: bool,
) -> PhaseOut {
    let engine = ServeEngine::new(Arc::clone(&setup.db));
    let counter = |t: &TelemetrySnapshot, name: &str| t.registry.counter(name).unwrap_or(0);
    let before = engine.telemetry();
    setup.db.gpu().reset_peak();
    let env = Env {
        engine: &engine,
        model,
        epoch: Instant::now(),
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let next_arrival = AtomicUsize::new(0);
    let captured_per_client = if capture { spec.captured_per_client } else { 0 };

    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|client| {
                let env = &env;
                let next_arrival = &next_arrival;
                s.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(env.epoch));
                    let mut out = ClientOut::default();
                    let is_writer = spec.kind == Kind::IngestMix && client == 1;
                    if is_writer {
                        ingest_writer(inputs, deadline, tracer.as_mut(), &mut out);
                    } else {
                        let mut prompt = inputs.ctx_tokens.clone();
                        let mut i = 0usize;
                        loop {
                            let (due, fresh) = match spec.kind {
                                Kind::ChatOpen => {
                                    let k = next_arrival.fetch_add(1, Ordering::Relaxed);
                                    let Some(&at) = inputs.arrivals.get(k) else {
                                        break;
                                    };
                                    let due = start + Duration::from_secs_f64(at);
                                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                        std::thread::sleep(wait);
                                    }
                                    (Some(due), &inputs.fresh[0][k])
                                }
                                _ => {
                                    if Instant::now() >= deadline {
                                        break;
                                    }
                                    let pool = &inputs.fresh[client];
                                    (None, &pool[i % pool.len()])
                                }
                            };
                            prompt.truncate(inputs.ctx_tokens.len());
                            prompt.extend_from_slice(fresh);
                            let req = ((client as u64) << 32) | i as u64;
                            let (rec, cap, err) = serve_request(
                                env,
                                &prompt,
                                due,
                                req,
                                tracer.as_mut(),
                                i < captured_per_client,
                            );
                            out.requests.push(rec);
                            out.captured.extend(cap);
                            out.errors.extend(err);
                            i += 1;
                        }
                    }
                    if let Some(t) = tracer {
                        out.spans = t.into_spans();
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = engine.telemetry();
    let gpu_peak = setup.db.gpu().peak();
    drop(engine);

    let mut phase = PhaseOut {
        wall_s,
        requests: Vec::new(),
        imports: Vec::new(),
        captured: Vec::new(),
        spans: Vec::new(),
        pool_tasks: counter(&after, "device.pool.tasks_executed")
            - counter(&before, "device.pool.tasks_executed"),
        pool_steals: counter(&after, "device.pool.tasks_stolen")
            - counter(&before, "device.pool.tasks_stolen"),
        telemetry: after,
        gpu_peak,
        errors: Vec::new(),
    };
    let mut span_lists = Vec::new();
    for o in outs {
        phase.requests.extend(o.requests);
        phase.imports.extend(o.imports);
        phase.captured.extend(o.captured);
        phase.errors.extend(o.errors);
        span_lists.push(o.spans);
    }
    phase.spans = trace::merge(span_lists);
    phase
}

/// Request ids of writer imports carry this bit, so they never collide
/// with reader requests in the span list.
const WRITER_REQ: u64 = 1 << 63;

/// Imports the pre-generated writer contexts back to back until the
/// deadline. Each import runs the same `StoredContext::build` as
/// `Db::store`, on the shared pool.
fn ingest_writer(
    inputs: &Inputs,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
    out: &mut ClientOut,
) {
    let new_db = || {
        Db::new(DbConfig::paper_defaults(
            Spec::model(),
            MemoryTracker::unbounded(),
        ))
    };
    let mut db = new_db();
    let mut i = 0usize;
    while Instant::now() < deadline {
        if i > 0 && i.is_multiple_of(INGEST_DB_IMPORTS) {
            db = new_db();
        }
        let (tokens, kv) = &inputs.ingest[i % inputs.ingest.len()];
        let (tokens, kv) = (tokens.clone(), kv.clone());
        let n = tokens.len();
        let span = tracer.as_mut().map(|t| {
            t.set_request(WRITER_REQ | i as u64);
            t.begin("core.import")
        });
        let t0 = Instant::now();
        db.import(tokens, kv);
        let secs = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.end(s);
        }
        out.imports.push(ImportRecord { tokens: n, secs });
        i += 1;
    }
}
