//! Figure 10: TTFT of long-context reuse — w/o reuse vs LMCache-style KV
//! loading vs AlayaDB decoding directly on the offloaded cache — plus the
//! Figure 10(b) latency breakdown.
//!
//! The GPU-side quantities (prefill compute, KV decompression + PCIe
//! transfer, window attention) come from the analytical cost model
//! calibrated to the paper's rig; the AlayaDB retrieval cost is *measured*
//! (a real DIPRS search over a real RoarGraph at reduced scale, one
//! search per (layer, query head), heads parallel across cores).
//!
//! Run: `cargo run --release -p alaya-bench --bin fig10_ttft [--full]`

use std::time::Instant;

use alaya_bench::{fmt_secs, paper_cost_model, print_header, print_row, write_json, Scale};
use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_query::diprs::{diprs, DiprsParams};
use alaya_vector::rng::{gaussian_store, seeded};
use serde::Serialize;

#[derive(Serialize)]
struct TtftRow {
    context_len: usize,
    without_reuse_s: f64,
    lmcache_s: f64,
    lmcache_load_s: f64,
    lmcache_decode_s: f64,
    alayadb_s: f64,
    alayadb_retrieval_s: f64,
    alayadb_decode_s: f64,
}

fn main() {
    let scale = Scale::from_args();
    let cost = paper_cost_model();
    let contexts = [40_000usize, 80_000, 120_000, 160_000, 200_000];
    // Measured retrieval runs at this reduced index size; graph search
    // scales sub-linearly with index size, so the measured per-search time
    // is used as-is for every context length.
    let probe_n = scale.pick(8_000usize, 60_000);
    let dim = 32usize;

    // Build one real head index and measure DIPRS latency on it.
    eprintln!("[building probe index over {probe_n} keys ...]");
    let mut rng = seeded(0x10FF);
    let keys = gaussian_store(&mut rng, probe_n, dim, 1.0);
    let train = gaussian_store(&mut rng, probe_n / 3, dim, 1.0);
    let rg = RoarGraph::build(&keys, &train, RoarGraphParams::default());
    let graph = rg.graph();

    let params = DiprsParams {
        beta: 2.0 * (dim as f32).sqrt(),
        l0: 64,
        max_visits: usize::MAX,
    };
    let probes = 64usize;
    let queries = gaussian_store(&mut rng, probes, dim, 1.0);
    let t0 = Instant::now();
    for qi in 0..probes {
        std::hint::black_box(diprs(graph, &keys, queries.row(qi), &params, None));
    }
    let per_search = t0.elapsed().as_secs_f64() / probes as f64;
    eprintln!("[measured DIPRS search: {} per head]", fmt_secs(per_search));

    // AlayaDB decode-on-offloaded-cache: one search per (layer, q head);
    // heads run in parallel across the 96 hardware threads, so wall time
    // per layer ~ one search; plus the modeled GPU window attention.
    let shape = &cost.shape;
    let searches_per_layer =
        (shape.n_q_heads as f64 / (96.0 / shape.n_layers as f64).max(1.0)).max(1.0);
    let retrieval = shape.n_layers as f64 * searches_per_layer * per_search;
    let window_decode = cost.decode_step_time(640);

    println!("\nFigure 10(a): TTFT of long-context reuse\n");
    let header = [
        "context",
        "w/o reuse",
        "LMCache",
        "AlayaDB",
        "speedup vs LMCache",
    ];
    let widths = [9usize, 10, 9, 9, 18];
    print_header(&header, &widths);

    let mut rows = Vec::new();
    for &n in &contexts {
        let without = cost.prefill_time(n);
        let load = cost.kv_load_time(n);
        let lm_decode = cost.decode_step_time(n);
        let lmcache = load + lm_decode;
        let alaya = retrieval + window_decode;
        print_row(
            &[
                format!("{}K", n / 1000),
                fmt_secs(without),
                fmt_secs(lmcache),
                fmt_secs(alaya),
                format!("{:.0}x", lmcache / alaya),
            ],
            &widths,
        );
        rows.push(TtftRow {
            context_len: n,
            without_reuse_s: without,
            lmcache_s: lmcache,
            lmcache_load_s: load,
            lmcache_decode_s: lm_decode,
            alayadb_s: alaya,
            alayadb_retrieval_s: retrieval,
            alayadb_decode_s: window_decode,
        });
    }

    println!("\nFigure 10(b): latency breakdown (load vs decode)\n");
    let header = ["context", "system", "load", "decode"];
    let widths = [9usize, 9, 9, 9];
    print_header(&header, &widths);
    for r in [&rows[0], rows.last().unwrap()] {
        print_row(
            &[
                format!("{}K", r.context_len / 1000),
                "LMCache".into(),
                fmt_secs(r.lmcache_load_s),
                fmt_secs(r.lmcache_decode_s),
            ],
            &widths,
        );
        print_row(
            &[
                format!("{}K", r.context_len / 1000),
                "AlayaDB".into(),
                "0".into(),
                fmt_secs(r.alayadb_s),
            ],
            &widths,
        );
    }

    let first = &rows[0];
    let last = rows.last().unwrap();
    println!(
        "\nreuse beats recompute by {:.0}-{:.0}x; AlayaDB beats LMCache by {:.0}-{:.0}x (paper: 19-42x)",
        first.without_reuse_s / first.alayadb_s,
        last.without_reuse_s / last.alayadb_s,
        first.lmcache_s / first.alayadb_s,
        last.lmcache_s / last.alayadb_s,
    );
    write_json("fig10_ttft", &rows);
}
