#!/usr/bin/env bash
# Tier-1 verification, runnable fully offline (no registry access):
#
#   tools/ci.sh
#
# 1. release build of the whole workspace;
# 2. the complete test suite (unit, property, integration, and the
#    1000+-scenario fault-injection sweep);
# 3. the same suite again under the release profile — the differential
#    polynomial harness must agree with the naive references with
#    optimizations on, not just under the checked dev profile;
# 4. clippy over every target (libs, bins, tests, examples) with
#    warnings promoted to errors;
# 5. the required-test guard: the tests whose loss must fail CI by
#    name, checked once against the suite's `--list` (step 3 already ran
#    them under the release profile), and the session-family guards
#    (one setup path, no per-circuit endpoint in product code);
# 6. the ZAATAR_WORKERS matrix (transcript differentials, the crypto
#    proptests and the golden transcript digests at one worker and at
#    four — a different process environment, so not a re-run) and the
#    out-of-workspace `zbench` package;
# 7. one tiny-scale run of the `network` and `microbench` evaluation
#    binaries, so the Fig. 3 model and wire-cost formula
#    (`zaatar_bench::cost`) and the domain-substitution rows execute;
# 8. the size ledger ROADMAP.md tracks, and the workspace's `unsafe`
#    count (0: every crate root carries `#![forbid(unsafe_code)]`).
#
# CI and pre-commit hooks should run exactly this script; anything it
# accepts is mergeable by the repo's own standard.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace --locked

echo "==> cargo test"
cargo test -q --workspace --locked

echo "==> cargo test --release"
cargo test -q --workspace --locked --release

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

# Tests that must exist: a renamed or deleted one fails CI with its
# name instead of letting its gate silently shrink. In order: every
# adversary against the deployed `SessionVerifier::verify_instance` (F61,
# and the paper's App. A.2 parameters on F128); the concurrent fault
# matrix against one SessionServer; the field kernel (deferred-reduction
# `dot` / `add_scaled_rows` and the blocked matvec against the naive
# loop); the group layer (in-place Montgomery kernel, Pippenger MSM, pure
# `(m, k)` encryption against their references); the encoding
# (`ginger_to_quad`'s rule and the pinned sizes of the six circuits
# `zbench` proves — LCS m=8 back over 4096 fails by name); byte-identical
# transcripts against isolated sessions, across chunk lengths and across
# policies, the 16x leak guard and the golden digests; `parallel_map`'s
# contract and the `ZAATAR_WORKERS` pin; the sharded set-up (the PRG's
# seek-and-redraw sampler against sequential draws, query generation and
# the consistency query at every shard count, the per-batch draw count,
# and the SETUP digests at the paper's parameters); the wire-cost
# formula against the encoded session messages, and the Fig. 3 cost
# model's tests; the prover machine's exact replies to a frame script
# (the retired SETUP frame included) and the per-session secrets of the
# verifier driver.
required_tests=(
    bad_quotient_prover_rejected
    non_linear_oracle_rejected
    commit_decommit_equivocation_rejected
    post_commit_witness_flip_rejected
    adversary_zoo_shares_one_batch
    paper_parameter_zoo_rejected_on_f128
    false_output_in_a_c_row_rejected
    honest_batch_accepts
    fault_matrix_concurrent_against_one_server
    concurrent_responses_are_byte_identical_to_isolated_reference
    fp::tests::wide_reduce_matches_limbwise_value
    f61::dot_matches_naive_loop
    f128::dot_matches_naive_loop
    f220::dot_matches_naive_loop
    f61::dot_of_largest_operands
    f128::dot_of_largest_operands
    f220::dot_of_largest_operands
    f61::add_scaled_rows_matches_naive_loop
    f128::add_scaled_rows_matches_naive_loop
    f220::add_scaled_rows_matches_naive_loop
    matvec::tests::matvec_matches_per_row_dot_on_f128_and_f220
    mont_mul_assign_matches_double_and_add_across_widths
    msm_matches_reference_across_widths_and_lengths
    elgamal_inner_product_matches_naive
    encrypt_with_matches_scalar_encrypt_on_both_groups
    transform::tests::worked_example_counts
    transform::tests::single_product_is_emitted_as_written
    transform::tests::common_factor_in_second_position
    transform::tests::common_factor_in_first_position
    transform::tests::squared_term_shares_its_variable
    transform::tests::linear_constraint_unchanged
    transform::tests::distinct_terms_are_shared_across_constraints
    stats::tests::stats_track_fig3_relations
    size_relations_hold
    transform_preserves_satisfiability
    suite::tests::benchmark_circuit_encodings_are_pinned
    suite::tests::fig3_size_relations_hold_for_all
    hetero_batch_through_session_server_matches_isolated_sessions
    streaming_prove_transcripts_byte_identical_across_chunk_sizes
    streaming_leak_guard_high_water_under_budget_at_16x_bench
    transcripts_byte_identical_across_policies
    every_spelling_of_the_covering_chunk_is_one_schedule
    policy_decides_monolithic_vs_streaming
    golden_transcripts_match_the_recorded_digests
    tests::each_worker_inits_once_and_carries_its_state_down_one_contiguous_run
    tests::items_holding_disjoint_mut_borrows_are_all_written
    tests::concurrent_panics_surface_exactly_one_payload
    zaatar_workers_env_pins_the_worker_count
    chacha::tests::sharded_fill_matches_sequential_draws
    chacha::tests::sharded_fill_redraws_after_rejections
    pcp::tests::generate_queries_is_identical_at_every_shard_count
    pcp::tests::query_generation_draws_rho_times_linearity_rows_plus_tau
    commit::tests::consistency_query_is_identical_at_every_shard_count
    golden_setup_messages_match_the_recorded_digests
    network_model_counts_every_encoded_byte_on_f61_and_f128
    cost::tests::derived_sizes_follow_section4
    cost::tests::zaatar_prover_beats_ginger_prover
    cost::tests::zaatar_breaks_even_much_earlier
    cost::tests::break_even_none_when_processing_dominates
    cost::tests::amortization_decreases_with_beta
    cost::tests::degenerate_k2_flips_the_comparison
    cost::tests::measured_micro_params_are_sane
    cost::tests::paper_params_match_table
    cost::tests::seeding_slashes_verifier_to_prover_bytes
    cost::tests::prover_traffic_scales_with_batch
    runtime::tests::machine_replies_exactly_to_an_hsetup_frame_script
    runtime::tests::run_session_verifier_draws_fresh_secrets_per_session
)
echo "==> required tests (${#required_tests[@]} names against the suite's --list)"
listed="$(cargo test -q --workspace --locked --release -- --list)"
missing=()
for name in "${required_tests[@]}"; do
    grep -qxF "$name: test" <<<"$listed" || missing+=("$name")
done
if (( ${#missing[@]} )); then
    printf 'error: required test missing from the suite: %s\n' "${missing[@]}" >&2
    exit 1
fi

# One session family on the product path: the retired single-circuit
# setup method stays deleted, and the session drivers, the in-process
# argument and the server build sessions from the `Hetero*` endpoints
# only — `SessionVerifier` / `SessionProver` are the per-circuit parts
# those wrap. Each file is read up to its first `#[cfg(test)]`.
echo "==> session-family guards"
if grep -rn receive_legacy_setup crates/; then
    echo "error: receive_legacy_setup is back under crates/" >&2
    exit 1
fi
named="$(for f in crates/core/src/runtime.rs crates/core/src/argument.rs crates/server/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit }
        /(^|[^A-Za-z_])Session(Verifier|Prover)([^A-Za-z_]|$)/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
if [[ -n "$named" ]]; then
    printf 'error: product code names a per-circuit session endpoint:\n%s\n' "$named" >&2
    exit 1
fi

# The worker-count override must be honored at both extremes: the
# whole tier-1-critical differential slice reruns pinned to one worker
# (every `parallel_map` runs on the calling thread) and pinned to
# four (oversubscribed on narrow CI hosts — the clamp itself is under
# test). Transcript identity across the two runs is what makes the
# scheduler safe to ship: policy changes threads, never bytes. Keygen
# shards and instance splits take their count from the same override,
# so the crypto proptests rerun too, and the golden transcript digests
# — constants, each recorded at the parent of the change it judged — are
# what prove the two processes emit the same bytes as each other.
# `parallel_map`'s own suite states its expectations at the resolved
# count, so =4 runs it on four real threads whatever the host.
echo "==> env-override matrix (ZAATAR_WORKERS=1 and =4, release)"
for workers in 1 4; do
    ZAATAR_WORKERS=$workers cargo test -q -p zaatar --test batch_differential --locked --release
    ZAATAR_WORKERS=$workers cargo test -q -p zaatar --test sched_policy --locked --release
    ZAATAR_WORKERS=$workers cargo test -q -p zaatar-crypto --test proptests --locked --release
    ZAATAR_WORKERS=$workers cargo test -q -p zaatar-sched --lib --locked --release
done

# zbench is a package of its own outside the workspace, so none of the
# steps above compiles it: build it against the crates as they are now
# and run every workload once, timed and traced, at tiny sizes — a
# public-API change that breaks the benchmark fails here.
echo "==> zbench smoke (out-of-workspace benchmark builds and runs)"
bash zbench/run.sh --smoke

# The evaluation binaries are built by step 1 but run by no test: run
# the two that exercise `zaatar_bench::cost` and the domain rows once.
echo "==> evaluation smoke (network, microbench at ZAATAR_SCALE=tiny)"
for bin in network microbench; do
    ZAATAR_SCALE=tiny cargo run -q --release --locked -p zaatar-bench --bin "$bin" >/dev/null
done

# The size ledger the ROADMAP's targets are read off (`core` `pub fn`
# count; non-test `*.rs` lines per crate, i.e. `src/` up to the first
# `#[cfg(test)]` of each file).
echo "==> size ledger"
echo "core pub fn: $(cat crates/core/src/*.rs | grep -cE '^\s*pub fn ')"
echo "unsafe: $(grep -rw unsafe --include='*.rs' crates/*/src | wc -l)"
for crate in crates/*/; do
    find "$crate/src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { lines++ }
        END { printf "%-10s %6d non-test lines\n", crate, lines }'
done

echo "==> tier-1 green"
