//! Decode benchmark on AlayaDB's sparse attention path.
//!
//! Drives `alaya_llm::Model` (prefill, then greedy decode) through
//! `ServeEngine` over contexts stored with `DbConfig::paper_defaults`, on
//! one of three seeded workloads, checks the outputs, and prints one JSON
//! object as its last line of output:
//!
//! ```text
//! cargo run --release --manifest-path decode_bench/Cargo.toml -- \
//!     --workload dipr_reuse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of an untraced run.
//! `--trace 1` runs the same phase untraced and then traced, and reports
//! the per-layer metrics: spans recorded around the calls into each crate,
//! the engine's own telemetry snapshot, and replays of the captured
//! queries into the lower layers on the same stored context.

mod gen;
mod replay;
mod stats;
mod trace;
mod workload;

use std::path::Path;
use std::process::ExitCode;

use alaya_llm::Model;

use crate::replay::Replay;
use crate::stats::{median, Sample};
use crate::workload::{Inputs, Kind, PhaseOut, Spec, PLAN_KINDS};

/// End-to-end metrics, reported by `--trace 0`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("tpot_p50_ms", "ms"),
    ("tpot_p90_ms", "ms"),
    ("decode_tok_s", "tok/s"),
    ("slo_ok_frac", "frac"),
    ("ingest_tok_s", "tok/s"),
    ("token_match", "frac"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics, reported by `--trace 1`.
const PER_LAYER: [(&str, &str); 38] = [
    ("llm.compute_ms", "ms"),
    ("llm.tokens", "count"),
    ("llm.dense_ref_tpot_ms", "ms"),
    ("serve.attend_p50_ms", "ms"),
    ("serve.attend_p99_ms", "ms"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.plan_us", "us"),
    ("serve.exec_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.shared_plan_frac", "frac"),
    ("core.import_s", "s"),
    ("core.plan_kind.full", "count"),
    ("core.plan_kind.coarse", "count"),
    ("core.plan_kind.dipr_flat", "count"),
    ("core.plan_kind.dipr_fine", "count"),
    ("core.head_us", "us"),
    ("core.head_other_us", "us"),
    ("core.attn_rel_err", "frac"),
    ("query.diprs_us", "us"),
    ("query.diprs_visited", "count"),
    ("query.dipr_selected", "count"),
    ("query.dipr_selected_frac", "frac"),
    ("query.diprs_recall", "frac"),
    ("index.flat_scan_us", "us"),
    ("index.coarse_select_us", "us"),
    ("index.coarse_tokens", "count"),
    ("index.graph_build_s", "s"),
    ("index.coarse_build_s", "s"),
    ("device.pool_tasks", "count"),
    ("device.pool_steals", "count"),
    ("device.gpu_peak_bytes", "B"),
    ("trace.untraced_tok_s", "tok/s"),
    ("trace.traced_tok_s", "tok/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.ledger_max_gap_frac", "frac"),
    ("trace.spans", "count"),
    ("trace.requests", "count"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// A request's layers must account for its wall time within this share.
const LEDGER_TOLERANCE: f64 = 0.05;

const USAGE: &str =
    "usage: decode_bench --workload <dipr_reuse|chat_open|ingest_mix> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad)?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], not {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Metrics in report order, plus human-readable report lines.
#[derive(Default)]
struct Out {
    metrics: Vec<(&'static str, f64, &'static str)>,
    report: Vec<String>,
    failures: Vec<String>,
}

impl Out {
    fn put(&mut self, name: &'static str, value: f64, note: String) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        let value = if value.is_finite() { value } else { 0.0 };
        self.report.push(
            format!("metric {name} = {value} {unit} {note}")
                .trim_end()
                .to_string(),
        );
        self.metrics.push((name, value, unit));
    }

    fn line(&mut self, s: String) {
        self.report.push(s);
    }

    fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.report.push(format!(
            "check {name}: {} {detail}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            self.failures.push(format!("{name}: {detail}"));
        }
    }

    /// How late the open-loop generator ran: start time minus due time.
    fn lag_line(&mut self, spec: &Spec, phase: &PhaseOut) {
        if spec.kind != Kind::ChatOpen {
            return;
        }
        let lag = Sample::new(
            phase
                .requests
                .iter()
                .map(|r| r.lag_ns.map_or(0.0, ms))
                .collect(),
        );
        self.line(format!(
            "open loop: {} arrivals at {} req/s (Erlang-{} gaps); start lag p50 {:.3} ms, p90 {:.3} ms, max {:.3} ms",
            lag.len(),
            workload::CHAT_RATE_PER_S,
            workload::CHAT_ARRIVAL_SHAPE,
            lag.pct(50.0),
            lag.pct(90.0),
            lag.pct(100.0)
        ));
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::by_name(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    println!(
        "# decode_bench workload={} seed={} seconds={} trace={} host: cores={} cpu=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model()
    );
    let (out, attempted, failed) = run(&spec, &args);
    for line in &out.report {
        println!("{line}");
    }
    let correct = out.failures.is_empty();
    let metrics = if correct {
        let declared: Vec<&str> = if args.trace {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        };
        let emitted: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
        assert_eq!(
            emitted, declared,
            "every declared metric is emitted, in order"
        );
        out.metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect::<Vec<_>>()
            .join(", ")
    } else {
        String::new()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs the workload; returns the report, requests attempted, and requests
/// failed.
fn run(spec: &Spec, args: &Args) -> (Out, u64, u64) {
    let mut out = Out::default();
    let model = Model::new(Spec::model());
    let inputs = Inputs::generate(spec, args.seed, args.seconds);

    let mut setup_s = Vec::new();
    let mut import_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let s = workload::setup(spec, &inputs);
        setup_s.push(s.setup_s);
        import_s.push(s.import_s);
        kept = Some(s);
    }
    let setup = kept.expect("at least one set-up ran");
    let ctx = setup
        .db
        .context(setup.ctx)
        .expect("the set-up context is stored");
    let coarse_need = ctx.coarse_bytes_needed();
    out.line(format!(
        "setup: context {} tokens, coarse plan needs {} B, GPU budget {} B, set-ups {:?} s",
        ctx.len(),
        coarse_need,
        setup.budget,
        setup_s
    ));

    let untraced = args
        .trace
        .then(|| workload::run_phase(spec, &inputs, &setup, &model, args.seconds, false, false));
    let cpu_before = cpu_times();
    let phase = workload::run_phase(
        spec,
        &inputs,
        &setup,
        &model,
        args.seconds,
        args.trace,
        true,
    );
    out.line(steal_line(&cpu_before, &cpu_times()));

    let attempted = phase.requests.len() as u64;
    let failed = phase.requests.iter().filter(|r| !r.ok).count() as u64;
    out.line(format!(
        "requests: sent {attempted}, succeeded {}, failed {failed} (failed_frac {:.4})",
        attempted - failed,
        failed as f64 / attempted.max(1) as f64
    ));
    for e in phase.errors.iter().take(5) {
        out.line(format!("request error: {e}"));
    }
    out.check(
        "requests_sent",
        attempted > 0,
        format!("{attempted} requests"),
    );

    // The engine's span ledger at quiescence, against what the clients saw.
    let spans = phase.telemetry.spans;
    let attends_ok: u64 = phase.requests.iter().map(|r| r.attends_ok).sum();
    out.check(
        "engine_span_ledger",
        spans.opened == spans.closed() && spans.executed == attends_ok,
        format!(
            "opened {} == executed {} + shed {} + rejected {} + panicked {}; client attends {}",
            spans.opened, spans.executed, spans.shed, spans.rejected, spans.panicked, attends_ok
        ),
    );

    // Bitwise twin check and plan kinds on the captured requests; detail
    // timings on the first one when traced.
    let mut rep = Replay::default();
    for (i, cap) in phase.captured.iter().enumerate() {
        replay::replay(&setup.db, cap, args.trace && i == 0, &mut rep);
    }
    out.check(
        "bitwise_twin",
        !phase.captured.is_empty() && rep.mismatches.is_empty(),
        format!(
            "{} requests, {} attention calls vs Session::attention_sequential{}",
            phase.captured.len(),
            rep.steps,
            rep.mismatches
                .first()
                .map_or(String::new(), |m| format!("; {m}"))
        ),
    );
    let kinds_ok = rep.unexpected_plans == 0
        && (0..PLAN_KINDS.len()).all(|k| (rep.plans[k] > 0) == spec.expected_plans.contains(&k));
    let budget_ok = match spec.kind {
        Kind::DiprReuse => setup.budget < coarse_need,
        Kind::IngestMix => phase.gpu_peak + coarse_need <= setup.budget,
        Kind::ChatOpen => true,
    };
    out.check(
        "plan_kinds",
        kinds_ok && budget_ok,
        format!(
            "{:?} = {:?}, other {}; GPU peak in use {} B",
            PLAN_KINDS, rep.plans, rep.unexpected_plans, phase.gpu_peak
        ),
    );

    // Dense reference: token match (and its decode speed, traced).
    let mut matched = 0usize;
    let mut compared = 0usize;
    let mut dense_tpot = Vec::new();
    for cap in &phase.captured {
        let (tokens, tpot) = replay::dense_reference(&setup.db, &model, cap);
        compared += tokens.len();
        matched += tokens
            .iter()
            .zip(&cap.tokens)
            .filter(|(a, b)| a == b)
            .count();
        dense_tpot.extend(tpot);
    }
    let token_match = matched as f64 / compared.max(1) as f64;

    if args.trace {
        let untraced = untraced.expect("traced runs measure an untraced phase first");
        per_layer(
            &mut out,
            spec,
            &setup,
            &phase,
            &untraced,
            &rep,
            &dense_tpot,
            &import_s,
            args,
        );
    } else {
        end_to_end(
            &mut out,
            spec,
            &inputs,
            &phase,
            &setup_s,
            &import_s,
            token_match,
        );
    }
    out.line(format!(
        "token_match: {matched}/{compared} greedy tokens equal the dense reference"
    ));
    (out, attempted, failed)
}

fn end_to_end(
    out: &mut Out,
    spec: &Spec,
    inputs: &Inputs,
    phase: &PhaseOut,
    setup_s: &[f64],
    import_s: &[f64],
    token_match: f64,
) {
    let ok: Vec<_> = phase.requests.iter().filter(|r| r.ok).collect();
    let ttft = Sample::new(ok.iter().map(|r| ms(r.ttft_ns)).collect());
    let tpot = Sample::new(
        ok.iter()
            .flat_map(|r| r.tpot_ns.iter().map(|&t| ms(t)))
            .collect(),
    );
    let tokens: usize = ok.iter().map(|r| r.tokens).sum();
    let slo_ok = ok
        .iter()
        .filter(|r| {
            let mean_tpot = r.tpot_ns.iter().sum::<u64>() as f64 / r.tpot_ns.len().max(1) as f64;
            ms(r.ttft_ns) <= spec.ttft_limit_ms && mean_tpot / 1e6 <= spec.tpot_limit_ms
        })
        .count();
    let ingest_tok_s = if spec.kind == Kind::IngestMix {
        let toks: usize = phase.imports.iter().map(|i| i.tokens).sum();
        let secs: f64 = phase.imports.iter().map(|i| i.secs).sum();
        out.line(format!(
            "ingest: {} writer imports, {toks} tokens in {secs:.3} s",
            phase.imports.len()
        ));
        toks as f64 / secs
    } else {
        inputs.ctx_tokens.len() as f64 / median(import_s)
    };
    let n = |s: &Sample, p: f64| format!("(n={}, {} beyond)", s.len(), s.beyond(p));

    out.put(
        "setup_s",
        median(setup_s),
        format!("(median of {})", setup_s.len()),
    );
    out.put("ttft_p50_ms", ttft.pct(50.0), n(&ttft, 50.0));
    out.put("ttft_p90_ms", ttft.pct(90.0), n(&ttft, 90.0));
    out.put("tpot_p50_ms", tpot.pct(50.0), n(&tpot, 50.0));
    out.put("tpot_p90_ms", tpot.pct(90.0), n(&tpot, 90.0));
    out.put(
        "decode_tok_s",
        tokens as f64 / phase.wall_s,
        format!("({tokens} tokens in {:.3} s)", phase.wall_s),
    );
    out.put(
        "slo_ok_frac",
        slo_ok as f64 / phase.requests.len().max(1) as f64,
        format!(
            "(TTFT <= {} ms and mean TPOT <= {} ms; {slo_ok}/{} requests)",
            spec.ttft_limit_ms,
            spec.tpot_limit_ms,
            phase.requests.len()
        ),
    );
    out.put("ingest_tok_s", ingest_tok_s, String::new());
    out.put("token_match", token_match, String::new());
    out.put("rss_peak_mb", rss_peak_mb(), String::new());
    out.lag_line(spec, phase);
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Out,
    spec: &Spec,
    setup: &workload::Setup,
    phase: &PhaseOut,
    untraced: &PhaseOut,
    rep: &Replay,
    dense_tpot: &[f64],
    setup_import_s: &[f64],
    args: &Args,
) {
    let spans = &phase.spans;
    let nesting = trace::check_nesting(spans);
    out.check(
        "span_nesting",
        nesting.is_ok(),
        nesting.err().unwrap_or_default(),
    );
    let ledgers = trace::request_ledgers(spans, "request");
    let worst = ledgers.iter().map(|l| l.gap_frac()).fold(0.0, f64::max);
    let over = ledgers
        .iter()
        .filter(|l| l.gap_frac() > LEDGER_TOLERANCE)
        .count();
    out.check(
        "request_ledger",
        !ledgers.is_empty() && over == 0,
        format!(
            "{} requests; layers account for each one's wall time within {:.2}% (limit {}%)",
            ledgers.len(),
            worst * 100.0,
            LEDGER_TOLERANCE * 100.0
        ),
    );
    let by_name = trace::by_name(spans);
    for (name, (count, self_ns, _)) in &by_name {
        out.line(format!(
            "span {name}: {count} spans, self time {:.3} ms total",
            *self_ns as f64 / 1e6
        ));
    }
    let empty = (0, 0, Vec::new());
    let get = |name: &str| by_name.get(name).unwrap_or(&empty);
    let (fwd_n, fwd_self, _) = get("llm.forward");
    let attend = Sample::new(get("serve.attend").2.iter().map(|&ns| ns / 1e6).collect());
    let admit = Sample::new(get("serve.admit").2.iter().map(|&ns| ns / 1e6).collect());
    let mut imports: Vec<f64> = setup_import_s.to_vec();
    imports.extend(get("core.import").2.iter().map(|&ns| ns / 1e9));

    let tok_s = |p: &PhaseOut| p.requests.iter().map(|r| r.tokens).sum::<usize>() as f64 / p.wall_s;
    let (traced_tok_s, untraced_tok_s) = (tok_s(phase), tok_s(untraced));
    let t = &phase.telemetry;
    let (graph_s, coarse_s) = replay::build_replay(&setup.db, setup.ctx);
    let us = |v: &[f64]| Sample::new(v.iter().map(|ns| ns / 1e3).collect()).mean();
    let mean = |v: &[f64]| Sample::new(v.to_vec()).mean();
    let n = |v: &[f64]| format!("(n={})", v.len());

    out.put(
        "llm.compute_ms",
        *fwd_self as f64 / 1e6 / (*fwd_n).max(1) as f64,
        format!("(forward_token minus attend, per token; n={fwd_n})"),
    );
    out.put("llm.tokens", *fwd_n as f64, String::new());
    out.put(
        "llm.dense_ref_tpot_ms",
        mean(dense_tpot) / 1e6,
        n(dense_tpot),
    );
    out.put(
        "serve.attend_p50_ms",
        attend.pct(50.0),
        format!("(n={})", attend.len()),
    );
    out.put(
        "serve.attend_p99_ms",
        attend.pct(99.0),
        format!("(n={}, {} beyond)", attend.len(), attend.beyond(99.0)),
    );
    out.put(
        "serve.admit_ms",
        admit.mean(),
        format!("(mean, n={})", admit.len()),
    );
    out.put(
        "serve.queue_ms",
        t.stages.queue.mean.as_secs_f64() * 1e3,
        format!("(engine telemetry mean, n={})", t.stages.queue.count),
    );
    out.put(
        "serve.plan_us",
        t.stages.plan.mean.as_secs_f64() * 1e6,
        format!("(n={})", t.stages.plan.count),
    );
    out.put(
        "serve.exec_ms",
        t.stages.exec.mean.as_secs_f64() * 1e3,
        format!("(n={})", t.stages.exec.count),
    );
    out.put(
        "serve.batch_size",
        t.stats.requests as f64 / t.stats.batches.max(1) as f64,
        format!(
            "({} requests in {} batches)",
            t.stats.requests, t.stats.batches
        ),
    );
    out.put(
        "serve.shared_plan_frac",
        t.stats.shared_plan_requests as f64 / t.stats.requests.max(1) as f64,
        String::new(),
    );
    out.put("core.import_s", mean(&imports), n(&imports));
    for (k, name) in [
        "core.plan_kind.full",
        "core.plan_kind.coarse",
        "core.plan_kind.dipr_flat",
        "core.plan_kind.dipr_fine",
    ]
    .into_iter()
    .enumerate()
    {
        out.put(name, rep.plans[k] as f64, String::new());
    }
    out.put("core.head_us", us(&rep.head_ns), n(&rep.head_ns));
    out.put(
        "core.head_other_us",
        us(&rep.head_other_ns),
        n(&rep.head_other_ns),
    );
    out.put("core.attn_rel_err", mean(&rep.rel_err), n(&rep.rel_err));
    out.put("query.diprs_us", us(&rep.diprs_ns), n(&rep.diprs_ns));
    out.put(
        "query.diprs_visited",
        mean(&rep.diprs_visited),
        String::new(),
    );
    out.put(
        "query.dipr_selected",
        mean(&rep.dipr_selected),
        String::new(),
    );
    out.put(
        "query.dipr_selected_frac",
        mean(&rep.dipr_selected_frac),
        String::new(),
    );
    out.put("query.diprs_recall", mean(&rep.diprs_recall), String::new());
    out.put("index.flat_scan_us", us(&rep.flat_ns), n(&rep.flat_ns));
    out.put(
        "index.coarse_select_us",
        us(&rep.coarse_ns),
        n(&rep.coarse_ns),
    );
    out.put(
        "index.coarse_tokens",
        mean(&rep.coarse_tokens),
        String::new(),
    );
    out.put(
        "index.graph_build_s",
        graph_s,
        "(one layer, one KV head)".to_string(),
    );
    out.put(
        "index.coarse_build_s",
        coarse_s,
        "(one layer, one KV head)".to_string(),
    );
    out.put("device.pool_tasks", phase.pool_tasks as f64, String::new());
    out.put(
        "device.pool_steals",
        phase.pool_steals as f64,
        String::new(),
    );
    out.put(
        "device.gpu_peak_bytes",
        phase.gpu_peak as f64,
        String::new(),
    );
    out.put("trace.untraced_tok_s", untraced_tok_s, String::new());
    out.put("trace.traced_tok_s", traced_tok_s, String::new());
    out.put(
        "trace.overhead_frac",
        1.0 - traced_tok_s / untraced_tok_s,
        String::new(),
    );
    out.put("trace.ledger_max_gap_frac", worst, String::new());
    out.put("trace.spans", spans.len() as f64, String::new());
    out.put("trace.requests", ledgers.len() as f64, String::new());
    out.lag_line(spec, phase);

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, trace::to_jsonl(spans)))
    {
        Ok(()) => out.line(format!("spans written to {}", file.display())),
        Err(e) => out.line(format!("spans not written: {e}")),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Aggregate CPU time counters (user, nice, system, idle, iowait, irq,
/// softirq, steal) from `/proc/stat`, in clock ticks.
fn cpu_times() -> [u64; 8] {
    let mut t = [0u64; 8];
    if let Some(line) = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
    {
        for (slot, v) in t.iter_mut().zip(line.split_whitespace().skip(1)) {
            *slot = v.parse().unwrap_or(0);
        }
    }
    t
}

/// Busy and hypervisor-stolen shares of CPU time between two readings.
fn steal_line(before: &[u64; 8], after: &[u64; 8]) -> String {
    let d: Vec<f64> = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b) as f64)
        .collect();
    let total = d.iter().sum::<f64>().max(1.0);
    format!(
        "host during phase: busy {:.1}%, steal {:.1}%",
        100.0 * (total - d[3] - d[7]) / total,
        100.0 * d[7] / total
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload chat_open --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "chat_open");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args("--workload chat_open --seed 7 --seconds 10").is_err());
        assert!(args("--workload x --seed -1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 10 --trace 2").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn workloads_and_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        // `chat_open` runs by hand only; see README.
        let mut want: Vec<&str> = vec!["dipr_reuse", "ingest_mix"];
        want.extend(END_TO_END.iter().map(|m| m.0));
        want.extend(PER_LAYER.iter().map(|m| m.0));
        assert_eq!(names, want);
        for w in ["dipr_reuse", "chat_open", "ingest_mix"] {
            assert!(Spec::by_name(w).is_some());
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = json.split(&format!("\"name\": \"{name}\"")).nth(1).unwrap();
            assert!(
                entry.starts_with(&format!(", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
    }
}
