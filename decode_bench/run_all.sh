#!/usr/bin/env bash
# Runs every workload listed in BENCHMARK.json, untraced, and prints each
# run's report. Usage: decode_bench/run_all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
run_s="${2:-30}"
status=0
for wl in dipr_reuse ingest_mix; do
    cargo run --release --offline --quiet --manifest-path decode_bench/Cargo.toml -- \
        --workload "$wl" --seed "$seed" --seconds "$run_s" --trace 0 || status=1
done
exit "$status"
