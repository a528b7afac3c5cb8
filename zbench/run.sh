#!/usr/bin/env bash
# Builds zbench from source and runs it.
#
#   zbench/run.sh --workload <name> [--seed N] [--seconds S] [--trace [0|1]]
#   zbench/run.sh [--seed N] [--trace]     every workload, one process each
#   zbench/run.sh --smoke                  every workload, timed and traced, tiny sizes
#   zbench/run.sh --repeat N [...]         noise floor: see noise.py
#
# The last line of standard output is the result as one JSON object.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

if [[ "${1:-}" == "--repeat" ]]; then
    exec python3 "$here/noise.py" "$@"
fi

ZBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export ZBENCH_RUSTC
export ZBENCH_OUT="${ZBENCH_OUT:-$here/out}"

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/zbench"

for arg in "$@"; do
    if [[ "$arg" == "--workload" || "$arg" == "--smoke" ]]; then
        exec "$bin" "$@"
    fi
done
for workload in batch_f128 single_f220 fleet_mixed budget_streamed; do
    "$bin" --workload "$workload" "$@"
done
