#!/usr/bin/env bash
# Emits a performance baseline (schema v10) to
# `target/bench_baseline.json` — copy it to `BENCH_pr<N>.json` to freeze
# a record — then runs the in-tree `cargo bench` groups for eyeball
# comparison:
#
#   tools/bench_baseline.sh            # full baseline (seconds)
#   tools/bench_baseline.sh --smoke    # CI-sized workload
#
# `BENCH_seed.json` (schema v1) through `BENCH_pr10.json` (schema v9)
# are frozen earlier records kept for before/after comparison, each
# valid only under its own schema id. Schema v10 drops v8's `stream`
# and v9's `sched` sections — both compared a monolithic prover path
# against a streaming one, and there is one pipeline now; `zbench` is
# the instrument of record for residency and scheduler choices. Note
# the percentile semantics change introduced in v6 snapshots:
# `p50_ns`/`p99_ns` are bucket upper bounds clamped to the observed
# max — and PR 9 fixes the nearest-rank selection so a skewed
# distribution's p99 lands in the true tail bucket; older frozen
# baselines carry the earlier semantics.
#
# The baseline is emitted and schema-checked by the `bench_baseline`
# binary (see crates/bench/src/bin/bench_baseline.rs); timings come
# from the zaatar-obs metrics registry instrumenting the real protocol
# hot paths, not from separate stopwatch code. Fully offline.
set -euo pipefail
cd "$(dirname "$0")/.."

ARGS=("$@")
OUT="target/bench_baseline.json"

echo "==> bench_baseline → ${OUT}"
cargo run --release -q -p zaatar-bench --locked --bin bench_baseline -- \
    "${ARGS[@]}" --out "${OUT}"
cargo run --release -q -p zaatar-bench --locked --bin bench_baseline -- \
    --validate "${OUT}"

echo "==> cargo bench (in-tree harness, median-of-samples)"
cargo bench -p zaatar-bench --locked

echo "==> baseline written to ${OUT}"
