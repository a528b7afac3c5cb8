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
# 4. clippy over every target (libs, tests, benches, examples) with
#    warnings promoted to errors;
# 5. smoke steps re-running, under the release profile, the slices
#    whose failure should name a subsystem — soundness, server soak,
#    the field kernel's differentials (deferred-reduction `dot` and its
#    transpose against the naive loop on all three fields, the blocked
#    matvec on F128/F220), the group layer's differentials (in-place
#    Montgomery kernel, MSM, pure encryption), the encoding (the
#    transform's rule and the pinned sizes of the circuits the benchmark
#    proves), hetero acceptance, streaming differential, scheduler, the
#    ZAATAR_WORKERS matrix (transcript differentials, the crypto
#    proptests and the golden transcript digests at one worker and at
#    four) — and the out-of-workspace `zbench` package;
# 6. the size ledger ROADMAP.md tracks.
#
# CI and pre-commit hooks should run exactly this script; anything it
# accepts is mergeable by the repo's own standard.
set -euo pipefail
cd "$(dirname "$0")/.."

# Runs `cargo test ... -- name...` with each name matched exactly and
# fails unless every name ran: a renamed or deleted test must break its
# smoke step, not silently turn it into "0 tests, ok".
filtered_test() {
    local expected=0 past_separator=0 arg out ran
    for arg in "$@"; do
        if [[ "$past_separator" == 1 ]]; then
            expected=$((expected + 1))
        elif [[ "$arg" == "--" ]]; then
            past_separator=1
        fi
    done
    out="$("$@" --exact 2>&1)" || { echo "$out"; return 1; }
    echo "$out"
    ran="$(awk '/^test result:/ { n += $4 } END { print n + 0 }' <<<"$out")"
    if [[ "$ran" != "$expected" ]]; then
        echo "error: $expected test name(s) given, $ran ran: a filter matched nothing" >&2
        return 1
    fi
}

echo "==> cargo build --release"
cargo build --release --workspace --locked

echo "==> cargo test"
cargo test -q --workspace --locked

echo "==> cargo test --release"
cargo test -q --workspace --locked --release

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --locked -- -D warnings

# Soundness smoke: the malicious-prover suite (bad quotient,
# non-linear oracle, equivocation, post-commit flip, wrong answer
# counts, a false output bound in a C row) must be rejected under the
# release profile, where debug_asserts are compiled out and the blocked
# answer kernel runs its optimized code paths. The verifier under
# attack is the deployed one — `SessionVerifier::verify_instance`, fed
# byte-level messages — at a reduced profile on F61 across seeds and,
# once per CI run, at the paper's App. A.2 parameters (rho = 8,
# rho_lin = 20) on F128. Every test is named: a renamed or deleted
# adversary fails the step.
echo "==> soundness smoke (malicious-prover suite vs SessionVerifier, release)"
filtered_test cargo test -q -p zaatar --test malicious_prover --locked --release -- \
    bad_quotient_prover_rejected \
    non_linear_oracle_rejected \
    commit_decommit_equivocation_rejected \
    post_commit_witness_flip_rejected \
    adversary_zoo_shares_one_batch \
    paper_parameter_zoo_rejected_on_f128 \
    false_output_in_a_c_row_rejected \
    honest_batch_accepts

# Server soak: a bounded slice of the 1008-scenario fault matrix run
# as waves of 8 concurrent sessions against ONE SessionServer — every
# serial invariant plus zero cross-session interference and a
# leak-free workspace pool, under the release profile. The full sweep
# runs in step 3; this re-runs a capped slice explicitly so a failure
# here names the multi-tenant path, not the whole suite.
echo "==> server soak (concurrent fault matrix slice, release)"
ZAATAR_SOAK_SCENARIOS=96 cargo test -q -p zaatar --test fault_matrix_concurrent \
    --locked --release

# Field kernel differential: every answer and the verifier's consistency
# query run on `Field::dot` / `Field::add_scaled_rows`, which reduce once
# per sum instead of once per term. They must name the same element as
# the naive `s += a * b` loop under the release profile — random and
# all-(p − 1) operands, term counts around the 256-column reduction
# interval and past 2^16 (the accumulator's spare limb), accumulators at
# their limb maxima, and the blocked matvec at 1, 2 and 8 workers on the
# fields a session runs on. Named: a renamed or deleted test fails the
# step.
echo "==> field kernel differential (dot / add_scaled_rows vs naive loop, release)"
filtered_test cargo test -q -p zaatar-field --lib --test proptests --locked --release -- \
    fp::tests::wide_reduce_matches_limbwise_value \
    f61::dot_matches_naive_loop \
    f128::dot_matches_naive_loop \
    f220::dot_matches_naive_loop \
    f61::dot_of_largest_operands \
    f128::dot_of_largest_operands \
    f220::dot_of_largest_operands \
    f61::add_scaled_rows_matches_naive_loop \
    f128::add_scaled_rows_matches_naive_loop \
    f220::add_scaled_rows_matches_naive_loop
filtered_test cargo test -q -p zaatar-core --lib --locked --release -- \
    matvec::tests::matvec_matches_per_row_dot_on_f128_and_f220

# MSM differential smoke: the in-place Montgomery kernel (against
# double-and-add, at the width it specialises and below it), the
# Pippenger commitment engine and the pure `(m, k)` encryption a sharded
# keygen is built from must agree with their references under the
# release profile (debug_asserts out, carry paths optimized) — these run
# in step 3 too, but a failure here names the group layer directly.
echo "==> msm differential smoke (crypto proptests, release)"
filtered_test cargo test -q -p zaatar-crypto --test proptests --locked --release -- \
    mont_mul_assign_matches_double_and_add_across_widths \
    msm_matches_reference_across_widths_and_lengths \
    elgamal_inner_product_matches_naive \
    encrypt_with_matches_scalar_encrypt_on_both_groups

# Encoding smoke: every prover cost is linear in the padded domain, and
# the padded domain is decided by `ginger_to_quad`'s rule — constraints
# that are already a product of two linear forms are emitted as written,
# the rest go through §4's replacement. The transform's unit and
# property tests and the pinned (constraints, variables, domain) of the
# six circuits `zbench` proves are named here, so a compiler change that
# pushes LCS m=8 back over 4096 fails this step by name.
echo "==> encoding smoke (transform rule + pinned benchmark encodings, release)"
filtered_test cargo test -q -p zaatar-cc --lib --test proptests --locked --release -- \
    transform::tests::worked_example_counts \
    transform::tests::single_product_is_emitted_as_written \
    transform::tests::common_factor_in_second_position \
    transform::tests::common_factor_in_first_position \
    transform::tests::squared_term_shares_its_variable \
    transform::tests::linear_constraint_unchanged \
    transform::tests::distinct_terms_are_shared_across_constraints \
    stats::tests::stats_track_fig3_relations \
    size_relations_hold \
    transform_preserves_satisfiability
filtered_test cargo test -q -p zaatar-apps --lib --locked --release -- \
    suite::tests::benchmark_circuit_encodings_are_pinned \
    suite::tests::fig3_size_relations_hold_for_all

# Hetero acceptance smoke: one SessionServer session carries a
# beta = 9 batch over the three gadget-zoo circuits under the release
# profile — the step fails if an instance is rejected or if the
# heterogeneous transcript stops matching isolated per-circuit
# sessions byte for byte. Named: a renamed or deleted test fails the
# step instead of shrinking it.
echo "==> hetero acceptance smoke (SessionServer vs isolated sessions, release)"
filtered_test cargo test -q -p zaatar --test hetero_acceptance --locked --release -- \
    hetero_batch_through_session_server_matches_isolated_sessions

# Chunk-geometry differential smoke: the prover pipeline must produce
# session wire transcripts byte-identical to the default covering
# chunk across batch sizes and chunk geometries (explicit covering
# chunk, even split, ragged tail) under the release profile, and the
# 16× leak guard must hold its absolute budget across 100 sessions —
# these run in step 3 too, but a failure here names the chunked
# pipeline directly.
echo "==> streaming differential smoke (chunked prover, release)"
filtered_test cargo test -q -p zaatar --test batch_differential --locked --release -- \
    streaming_prove_transcripts_byte_identical_across_chunk_sizes \
    streaming_leak_guard_high_water_under_budget_at_16x_bench

# Scheduler smoke: the zero-dep policy crate's deterministic unit
# suite (synthetic host profiles, no wall clock)
# plus the root policy differential — transcripts must stay
# byte-identical across every workers × chunk-length policy, every
# spelling of the covering chunk must be one schedule, and the
# covering/chunked boundary must sit where the scheduler puts it.
echo "==> sched smoke (policy units + transcript differential, release)"
cargo test -q -p zaatar-sched --locked --release
cargo test -q -p zaatar --test sched_policy --locked --release

# The worker-count override must be honored at both extremes: the
# whole tier-1-critical differential slice reruns pinned to one worker
# (every parallel_map collapses to the calling thread) and pinned to
# four (oversubscribed on narrow CI hosts — the clamp itself is under
# test). Transcript identity across the two runs is what makes the
# scheduler safe to ship: policy changes threads, never bytes. Keygen
# shards and instance splits take their count from the same override,
# so the crypto proptests rerun too, and the golden transcript digests
# — constants, each recorded at the parent of the change it judged — are
# what prove the two processes emit the same bytes as each other.
echo "==> env-override matrix (ZAATAR_WORKERS=1 and =4, release)"
for workers in 1 4; do
    ZAATAR_WORKERS=$workers cargo test -q -p zaatar --test batch_differential --locked --release
    ZAATAR_WORKERS=$workers cargo test -q -p zaatar --test sched_policy --locked --release
    ZAATAR_WORKERS=$workers cargo test -q -p zaatar-crypto --test proptests --locked --release
    ZAATAR_WORKERS=$workers filtered_test cargo test -q -p zaatar --test sched_policy --locked --release -- \
        golden_transcripts_match_the_recorded_digests
done

# zbench is a package of its own outside the workspace, so none of the
# steps above compiles it: build it against the crates as they are now
# and run every workload once, timed and traced, at tiny sizes — a
# public-API change that breaks the benchmark fails here.
echo "==> zbench smoke (out-of-workspace benchmark builds and runs)"
bash zbench/run.sh --smoke

# The size ledger the ROADMAP's targets are read off (`core` `pub fn`
# count; non-test `*.rs` lines per crate, i.e. `src/` up to the first
# `#[cfg(test)]` of each file).
echo "==> size ledger"
echo "core pub fn: $(cat crates/core/src/*.rs | grep -cE '^\s*pub fn ')"
for crate in crates/*/; do
    find "$crate/src" -name '*.rs' -print0 | xargs -0 awk -v crate="$(basename "$crate")" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { lines++ }
        END { printf "%-10s %6d non-test lines\n", crate, lines }'
done

echo "==> tier-1 green"
