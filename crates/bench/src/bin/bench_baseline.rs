//! Emits (or validates) the repo's per-phase performance baseline,
//! `BENCH_seed.json`: one JSON document with the zaatar-obs registry's
//! timings for every protocol phase (QAP build, H(t) quotient, PCP
//! prove/answer/check, commitment, full session round-trip), the
//! registry's counters, and a serial-vs-parallel batch-proving
//! comparison.
//!
//! ```text
//! cargo run --release -p zaatar-bench --bin bench_baseline -- --out BENCH_seed.json
//! cargo run --release -p zaatar-bench --bin bench_baseline -- --smoke --out t.json
//! cargo run --release -p zaatar-bench --bin bench_baseline -- --validate t.json
//! ```
//!
//! `--smoke` shrinks the workload to seconds for CI; `--validate`
//! parses an existing baseline with [`zaatar_obs::json`] and checks the
//! `zaatar-bench-baseline/v10` schema, exiting non-zero on any mismatch.
//! All timings are honest measurements on the current host; the
//! `host.parallelism` field records how many cores produced them.
//!
//! Schema v2 (PR 3) adds an `ntt` section: cold (first-use, includes the
//! twiddle-table build) vs. warm per-size transform timings from the
//! kernel layer's plan cache, plus the cache hit/miss counters.
//!
//! Schema v3 (PR 4) adds a `pcp` section: the verifier's batch-amortized
//! query setup cost (query generation + consistency queries, once per
//! batch) divided across batch sizes β ∈ {1, 4, 16}, plus the batched
//! answer kernel's per-instance cost and the `pcp.batch.query_reuse` /
//! `commit.fixed_base_hit` counters. The validator enforces that the
//! per-instance setup cost strictly decreases with β — the §2.2
//! amortization claim, measured.
//!
//! Schema v4 (PR 5) adds a `mem` section: the staged prover pipeline's
//! scratch-pool traffic (`mem.scratch.hit` / `mem.scratch.miss`) around
//! a serial batch prove over ONE reused workspace at β ∈ {1, 16}, with
//! the derived hit rate, per-instance pool misses (i.e. real
//! allocations), per-instance prove time, and the workspace footprint.
//! The validator enforces a non-zero scratch hit rate at β = 16 —
//! buffer reuse across batch instances must actually happen.
//!
//! Schema v5 (PR 6) adds a `server` section from the multi-tenant
//! session server: sessions/sec and p99 session latency for a fleet of
//! concurrent verifiers against ONE poll-loop server at nominal load,
//! plus the admission ledger under a synthetic overload (8 connections
//! offered to a 2-session server, admitted before the first poll, so
//! the accept/reject split is deterministic). The validator enforces
//! that rejections never exceed admissions at nominal load — graceful
//! degradation must not become refusal-by-default.
//!
//! Schema v6 (PR 7) adds a `commit` section: per-commit timings of the
//! Pippenger bucket-MSM commitment engine against the retained
//! per-element square-and-multiply reference, at vector lengths
//! spanning the oracle sizes the session workload actually commits to,
//! plus the `commit.msm.{windows,buckets,doublings}` counters. The
//! validator enforces MSM ≥ 4× faster than the per-element loop at the
//! largest length. v6 also fixes the `parallel` section to record the
//! post-clamp `effective_workers` actually used (on a parallelism-1
//! host the old `workers: 8` misattributed oversubscription), and its
//! `p50_ns`/`p99_ns` figures inherit the obs percentile fix (bucket
//! upper bound clamped to the observed max, no longer the floor).
//!
//! Schema v7 (PR 8) adds a `cc` section: for every workload in the zoo
//! (the five ZSL suite benchmarks and the three gadget-library apps),
//! the constraint and witness counts of the raw Ginger system next to
//! the `cc::opt`-optimized one, with the per-pass work tallies
//! (constants folded, CSE hits, witness variables pruned). The
//! validator enforces `ratio ≤ 1.0` for every app — the optimizer must
//! never grow a circuit — and that it strictly shrinks at least three
//! of them.
//!
//! Schema v10 removes the v8 `stream` and v9 `sched` sections: both
//! adjudicated a monolithic-vs-streaming fork that no longer exists
//! (one pipeline, one chunk length), and `zbench` is the instrument of
//! record for residency (`prover_workspace_peak_bytes`) and for the
//! scheduler's choices (`sched.*`). Frozen `BENCH_pr9.json` /
//! `BENCH_pr10.json` keep their sections under their own schema ids.

use std::time::{Duration, Instant};

use zaatar_apps::{build as build_suite_app, GadgetApp, Suite};
use zaatar_cc::{ginger_to_quad, optimize, Builder};
use zaatar_core::commit::CommitmentKey;
use zaatar_core::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
use zaatar_core::qap::{Qap, QapWitness};
use zaatar_core::runtime::{
    prove_batch_with_policy, prove_instance_policied, run_session_prover, run_session_verifier,
};
use zaatar_core::workspace::ProverWorkspace;
use zaatar_core::{ExecPolicy, MemBudget};
use zaatar_crypto::ChaChaPrg;
use zaatar_field::{Field, F61};
use zaatar_obs::json::{self, Value};
use zaatar_server::{Admission, ServerConfig, SessionServer};
use zaatar_transport::{loopback_transport_pair, RetryPolicy};

/// Schema identifier written into (and required from) every baseline.
const SCHEMA: &str = "zaatar-bench-baseline/v10";

/// How many zoo apps the optimizer must strictly shrink for a baseline
/// to validate (the PR 8 acceptance gate).
const CC_MIN_SHRUNK_APPS: usize = 3;

/// Minimum speedup the MSM commitment engine must show over the
/// per-element reference at the largest measured oracle length.
const MSM_MIN_SPEEDUP: f64 = 4.0;

/// Batch sizes for the `mem` scratch-reuse section: β = 1 shows the
/// cold cost (every pool take is a miss), β = 16 shows steady-state
/// reuse on one workspace.
const MEM_BATCH_SIZES: [usize; 2] = [1, 16];

/// Batch sizes for the `pcp` amortization section. The endpoints (1 and
/// 16) anchor the validator's strict-decrease check.
const PCP_BATCH_SIZES: [usize; 3] = [1, 4, 16];

/// Phase timers the baseline must carry (ISSUE acceptance list: QAP
/// build, H(t), prove, answer, check, commit, session round-trip).
const REQUIRED_PHASES: [&str; 7] = [
    "qap.build",
    "qap.compute_h",
    "pcp.prove",
    "pcp.answer",
    "pcp.check",
    "commit.commit",
    "runtime.session",
];

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().expect("--out requires a path")),
            "--validate" => validate = Some(args.next().expect("--validate requires a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_baseline [--smoke] [--out PATH] | --validate PATH");
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = validate {
        match validate_baseline(&path) {
            Ok(()) => println!("{path}: valid {SCHEMA}"),
            Err(e) => {
                eprintln!("{path}: INVALID baseline: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let doc = run_baseline(smoke);
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write baseline");
            println!("wrote {path}");
        }
        None => println!("{doc}"),
    }
}

/// A multiplication-chain circuit big enough that every phase timer
/// records non-trivial work, small enough to run in seconds.
#[allow(clippy::type_complexity)]
fn build_workload(
    chain: usize,
    batch: usize,
) -> (
    ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
    Vec<QapWitness<F61>>,
    Vec<Vec<F61>>,
) {
    let mut b = Builder::<F61>::new();
    let x = b.alloc_input();
    let y = b.alloc_input();
    let mut acc = b.mul(&x, &y);
    for _ in 0..chain {
        acc = b.mul(&acc, &x);
        let s = acc.add(&y);
        acc = b.mul(&s, &y);
    }
    b.bind_output(&acc);
    let (sys, solver) = b.finish();
    let t = ginger_to_quad(&sys);
    let qap = Qap::new(&t.system);
    let pcp = ZaatarPcp::new(qap, PcpParams::light());
    let mut witnesses = Vec::new();
    let mut ios = Vec::new();
    for i in 0..batch {
        let asg = solver
            .solve(&[F61::from_i64(2 + i as i64), F61::from_i64(3 + i as i64)])
            .expect("solvable");
        let ext = t.extend_assignment(&asg);
        witnesses.push(pcp.qap().witness(&ext));
        ios.push(
            pcp.qap()
                .var_map()
                .inputs()
                .iter()
                .chain(pcp.qap().var_map().outputs())
                .map(|v| ext.get(*v))
                .collect(),
        );
    }
    (pcp, witnesses, ios)
}

/// Batch proving at an explicit worker count (covering chunk).
fn prove_at(
    pcp: &ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
    witnesses: &[QapWitness<F61>],
    workers: usize,
) -> Vec<Option<ZaatarProof<F61>>> {
    prove_batch_with_policy(pcp, witnesses, &ExecPolicy::with_workers(workers), MemBudget::unlimited())
        .expect("unlimited budget never refuses a lease")
}

/// One row of the `ntt` section: per-size transform timings off the
/// plan cache. `cold` is the first-ever use of the size in this process
/// (twiddle-table build included), `warm_*` are means over the repeats.
struct NttSample {
    log2: u32,
    cold_forward_ns: u64,
    warm_forward_ns: u64,
    warm_inverse_ns: u64,
}

/// Times the NTT kernel layer at several sizes. Must run before the main
/// workload so the `cold` numbers really are first use.
fn bench_ntt(smoke: bool) -> (Vec<NttSample>, u64) {
    let logs: &[u32] = if smoke { &[8, 10, 12] } else { &[10, 12, 14, 16] };
    let reps: u64 = if smoke { 3 } else { 10 };
    let mut samples = Vec::new();
    for &log2 in logs {
        let n = 1usize << log2;
        let base: Vec<F61> = (0..n as u64)
            .map(|i| F61::from_u64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1))
            .collect();
        let mut a = base.clone();
        let start = Instant::now();
        zaatar_poly::fft::ntt(&mut a);
        let cold_forward_ns = (start.elapsed().as_nanos() as u64).max(1);
        let (mut warm_f, mut warm_i) = (0u64, 0u64);
        for _ in 0..reps {
            let mut x = base.clone();
            let t = Instant::now();
            zaatar_poly::fft::ntt(&mut x);
            warm_f += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            zaatar_poly::fft::intt(&mut x);
            warm_i += t.elapsed().as_nanos() as u64;
            assert_eq!(x, base, "ntt/intt round trip at 2^{log2}");
        }
        samples.push(NttSample {
            log2,
            cold_forward_ns,
            warm_forward_ns: (warm_f / reps).max(1),
            warm_inverse_ns: (warm_i / reps).max(1),
        });
    }
    (samples, reps)
}

/// One row of the `commit` section: one homomorphic commitment
/// (`∏ Enc(rᵢ)^(uᵢ)`, both ciphertext components) over a length-`len`
/// oracle, via the Pippenger bucket MSM and via the per-element
/// square-and-multiply reference.
struct CommitSample {
    len: usize,
    msm_ns: u64,
    naive_ns: u64,
    speedup: f64,
}

/// Times the commitment engine against its reference at oracle lengths
/// spanning what the session workload really commits to (the z oracle
/// is a few hundred entries at the baseline circuit; the h oracle is
/// comparable). Medians over `reps` keep scheduler noise out of the
/// ≥ 4× validator gate. Both paths run the *same* key and proof vector,
/// so the comparison is pure engine-vs-engine; results are asserted
/// equal — the speedup is only meaningful if the answers agree.
fn bench_commit(smoke: bool) -> Vec<CommitSample> {
    let lens: &[usize] = if smoke { &[64, 256] } else { &[64, 256, 512] };
    let reps: usize = if smoke { 3 } else { 5 };
    let mut prg = ChaChaPrg::from_u64_seed(0xC0517);
    lens.iter()
        .map(|&len| {
            let key = CommitmentKey::<F61>::generate(len, &mut prg);
            let u: Vec<F61> = prg.field_vec(len);
            let median = |f: &dyn Fn() -> zaatar_crypto::Ciphertext| -> (u64, zaatar_crypto::Ciphertext) {
                let mut ns: Vec<u64> = Vec::with_capacity(reps);
                let mut out = None;
                for _ in 0..reps {
                    let start = Instant::now();
                    let ct = f();
                    ns.push((start.elapsed().as_nanos() as u64).max(1));
                    out = Some(ct);
                }
                ns.sort_unstable();
                (ns[reps / 2], out.expect("reps >= 1"))
            };
            // Time the raw inner products (not CommitmentKey::commit) so
            // the `phases` section's commit.commit stays a pure record of
            // the session workload, comparable to earlier baselines.
            let (msm_ns, msm_ct) =
                median(&|| zaatar_crypto::ElGamal::<F61>::inner_product(&key.enc_r, &u));
            let (naive_ns, naive_ct) =
                median(&|| zaatar_crypto::ElGamal::<F61>::inner_product_naive(&key.enc_r, &u));
            assert_eq!(msm_ct, naive_ct, "MSM must match the reference at len {len}");
            CommitSample {
                len,
                msm_ns,
                naive_ns,
                speedup: naive_ns as f64 / msm_ns.max(1) as f64,
            }
        })
        .collect()
}

/// One row of the `pcp` section: the verifier's once-per-batch query
/// setup (PCP query generation + both consistency queries) spread over
/// `batch` instances, plus the batched answer kernel's per-instance
/// cost off the same packed query set.
struct PcpBatchSample {
    batch: usize,
    setup_ns: u64,
    per_instance_setup_ns: u64,
    answer_ns_per_instance: u64,
}

/// Measures batch amortization of verifier query setup. The setup work
/// is identical for every β (that is the point — §2.2 amortizes one
/// generation over the whole batch), so the per-instance cost falls as
/// `1/β`; medians over `reps` runs keep the measurement noise well
/// below the 4× jumps between batch sizes.
fn bench_pcp_amortization(
    pcp: &ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
    proofs: &[ZaatarProof<F61>],
    smoke: bool,
) -> Vec<PcpBatchSample> {
    let reps: usize = if smoke { 3 } else { 5 };
    let n_z = pcp.qap().var_map().num_unbound();
    let n_h = pcp.qap().degree() + 1;
    // Commitment keys are generated once per batch too, but their cost
    // is dominated by ElGamal encryption and already reported under
    // `commit.keygen`; the `pcp` section isolates the query pipeline.
    let mut prg = ChaChaPrg::from_u64_seed(0xA11C);
    let key_z = CommitmentKey::<F61>::generate(n_z, &mut prg);
    let key_h = CommitmentKey::<F61>::generate(n_h, &mut prg);
    PCP_BATCH_SIZES
        .iter()
        .map(|&beta| {
            let mut setups: Vec<u64> = (0..reps)
                .map(|r| {
                    let mut prg = ChaChaPrg::from_u64_seed(0xBEE5 + r as u64);
                    let start = Instant::now();
                    let batch = pcp.generate_batch_queries(&mut prg);
                    let _tz = key_z.consistency_query(&batch.queries().z_queries(), &mut prg);
                    let _th = key_h.consistency_query(&batch.queries().h_queries(), &mut prg);
                    start.elapsed().as_nanos() as u64
                })
                .collect();
            setups.sort_unstable();
            let setup_ns = setups[reps / 2].max(1);
            // Answer β instances off ONE packed generation.
            let mut prg = ChaChaPrg::from_u64_seed(0xBEE5);
            let batch = pcp.generate_batch_queries(&mut prg);
            let start = Instant::now();
            for i in 0..beta {
                let responses = batch.answer(&proofs[i % proofs.len()], 1);
                assert!(!responses.z_answers.is_empty());
            }
            let answer_ns_per_instance =
                (start.elapsed().as_nanos() as u64 / beta as u64).max(1);
            PcpBatchSample {
                batch: beta,
                setup_ns,
                per_instance_setup_ns: (setup_ns / beta as u64).max(1),
                answer_ns_per_instance,
            }
        })
        .collect()
}

/// One row of the `mem` section: scratch-pool traffic for a serial
/// batch prove of `batch` instances over one fresh workspace.
struct MemSample {
    batch: usize,
    scratch_hit: u64,
    scratch_miss: u64,
    hit_rate: f64,
    allocs_per_instance: f64,
    prove_ns_per_instance: u64,
    footprint_bytes: usize,
}

/// Measures workspace reuse in the staged prover pipeline: for each β,
/// proves β instances serially through `prove_instance_policied` on one
/// fresh [`ProverWorkspace`] and reads the `mem.scratch.{hit,miss}` counter
/// deltas around the run. At β = 1 every take is a cold miss; at β = 16
/// instances 2..16 are served from the pool, so the hit rate must be
/// non-zero and per-instance allocations (pool misses) must drop.
fn bench_mem_reuse(
    pcp: &ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
    witnesses: &[QapWitness<F61>],
) -> Vec<MemSample> {
    MEM_BATCH_SIZES
        .iter()
        .map(|&beta| {
            let batch: Vec<QapWitness<F61>> = (0..beta)
                .map(|i| witnesses[i % witnesses.len()].clone())
                .collect();
            let hit0 = zaatar_obs::counter("mem.scratch.hit").get();
            let miss0 = zaatar_obs::counter("mem.scratch.miss").get();
            let mut ws = ProverWorkspace::new();
            let start = Instant::now();
            for w in &batch {
                let proof = prove_instance_policied(pcp, w, &mut ws).expect("unlimited budget");
                assert!(proof.is_some(), "honest witnesses");
            }
            let prove_ns_per_instance =
                (start.elapsed().as_nanos() as u64 / beta as u64).max(1);
            let scratch_hit = zaatar_obs::counter("mem.scratch.hit").get() - hit0;
            let scratch_miss = zaatar_obs::counter("mem.scratch.miss").get() - miss0;
            MemSample {
                batch: beta,
                scratch_hit,
                scratch_miss,
                hit_rate: scratch_hit as f64 / (scratch_hit + scratch_miss).max(1) as f64,
                allocs_per_instance: scratch_miss as f64 / beta as f64,
                prove_ns_per_instance,
                footprint_bytes: ws.footprint_bytes(),
            }
        })
        .collect()
}

/// The `server` section: throughput and latency of the multi-tenant
/// session server at nominal load, plus the deterministic admission
/// split under synthetic overload.
struct ServerSample {
    nominal_sessions: usize,
    nominal_accepted: u64,
    nominal_rejected: u64,
    sessions_per_sec: f64,
    p99_session_ns: u64,
    overload_offered: usize,
    overload_max_sessions: usize,
    overload_accepted: u64,
    overload_rejected: u64,
    overload_rejection_rate: f64,
}

/// Nominal load: `n` concurrent verifier sessions over loopback links
/// against one [`SessionServer`] with headroom, timed end to end for
/// sessions/sec; p99 session latency comes off the `server.session`
/// timer the poll loop records at each terminal state. Overload: 8
/// connections offered to a `max_sessions = 2` server *before* the
/// first poll, so exactly 2 are admitted and 6 refused — a
/// deterministic rejection rate, not a race.
fn bench_server(
    pcp: &ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
    proofs: &[ZaatarProof<F61>],
    ios: &[Vec<F61>],
    smoke: bool,
) -> ServerSample {
    let n = if smoke { 8 } else { 16 };
    // The loopback links are lossless, so this policy's timeouts never
    // retransmit; the generous deadline only keeps CPU contention from
    // masquerading as loss when n sessions share few (or one) cores.
    let policy = RetryPolicy {
        deadline: Duration::from_secs(120),
        initial_timeout: Duration::from_secs(2),
        backoff_factor: 2,
        max_timeout: Duration::from_secs(8),
        max_retransmits: 10,
    };
    // Same reasoning for the server's patience: a client that is merely
    // descheduled must not be mistaken for one that went away.
    let config = ServerConfig {
        session_budget: Duration::from_secs(300),
        idle_timeout: Duration::from_secs(120),
        ..ServerConfig::default()
    };
    let mut server = SessionServer::new(pcp, proofs, config);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for i in 0..n {
            let (mut vt, pt) = loopback_transport_pair();
            let admission = server.admit(pt, "bench");
            assert!(
                matches!(admission, Admission::Admitted(_)),
                "nominal load must fit under the default admission limits"
            );
            let policy = policy.clone();
            scope.spawn(move || {
                let mut prg = ChaChaPrg::from_u64_seed(0x5E44E4 + i as u64);
                let report = run_session_verifier(&mut vt, pcp, ios, &policy, &mut prg)
                    .expect("nominal session");
                assert!(report.all_accepted(), "nominal batch must verify");
            });
        }
        loop {
            let finished = {
                let st = server.stats();
                st.served + st.expired + st.failed
            };
            if finished >= n as u64 {
                break;
            }
            if server.poll().is_empty() {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    });
    let elapsed = start.elapsed();
    let stats = server.stats().clone();
    assert_eq!(stats.served, n as u64, "every nominal session must be served");
    assert_eq!(server.pool().outstanding(), 0, "workspace leak at nominal load");
    let sessions_per_sec = n as f64 / elapsed.as_secs_f64().max(1e-9);
    let p99_session_ns = zaatar_obs::snapshot()
        .timers
        .get("server.session")
        .map_or(0, |t| t.p99_ns);

    // Synthetic overload: all offers on the table before the first
    // poll, against a server with room for two.
    let offered = 8usize;
    let max_sessions = 2usize;
    let config = ServerConfig { max_sessions, ..ServerConfig::default() };
    let mut overload = SessionServer::new(pcp, proofs, config);
    let mut clients = Vec::new();
    for _ in 0..offered {
        let (vt, pt) = loopback_transport_pair();
        let _ = overload.admit(pt, "overload");
        clients.push(vt); // keep links open until admission settles
    }
    let ostats = overload.stats().clone();
    drop(clients);
    ServerSample {
        nominal_sessions: n,
        nominal_accepted: stats.accepted,
        nominal_rejected: stats.rejected,
        sessions_per_sec,
        p99_session_ns,
        overload_offered: offered,
        overload_max_sessions: max_sessions,
        overload_accepted: ostats.accepted,
        overload_rejected: ostats.rejected,
        overload_rejection_rate: ostats.rejected as f64
            / (ostats.accepted + ostats.rejected).max(1) as f64,
    }
}

/// Runs the measured workload and renders the baseline document.
fn run_baseline(smoke: bool) -> String {
    let (chain, batch, workers) = if smoke { (8, 4, 2) } else { (160, 16, 8) };
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    zaatar_obs::global().reset();

    // NTT microbenchmark first: its cold column must see the sizes
    // before the protocol workload (or anything else) warms the cache.
    let (ntt_samples, ntt_reps) = bench_ntt(smoke);

    let (pcp, witnesses, ios) = build_workload(chain, batch);

    // Serial vs parallel batch proving, timed directly (wall clock) so
    // the comparison is independent of the phase timers it populates.
    let start = Instant::now();
    let serial = prove_at(&pcp, &witnesses, 1);
    let serial_ns = start.elapsed().as_nanos() as u64;
    assert!(serial.iter().all(Option::is_some), "honest witnesses");
    let start = Instant::now();
    let parallel = prove_at(&pcp, &witnesses, workers);
    let parallel_ns = start.elapsed().as_nanos() as u64;
    assert!(parallel.iter().all(Option::is_some), "honest witnesses");
    let speedup = serial_ns as f64 / parallel_ns.max(1) as f64;
    // What the parallel run actually used: the same clamp parallel_map
    // applies (worker override / host parallelism, then batch size). The
    // requested count is kept alongside so a baseline from a wide host
    // and one from a laptop remain distinguishable.
    let effective_workers = zaatar_poly::parallel::effective_workers(workers)
        .max(1)
        .min(batch.max(1));

    // Full session round-trip over an in-memory transport, populating
    // the commit/answer/check/runtime.session timers.
    let (mut vt, mut pt) = loopback_transport_pair();
    let pcp2 = pcp.clone();
    let proofs: Vec<_> = parallel.into_iter().map(Option::unwrap).collect();
    let server = std::thread::spawn(move || {
        run_session_prover(&mut pt, &pcp2, &proofs, Duration::from_secs(30)).expect("prover")
    });
    let mut prg = ChaChaPrg::from_u64_seed(0x5EED);
    let report = run_session_verifier(&mut vt, &pcp, &ios, &RetryPolicy::fast(), &mut prg)
        .expect("verifier session");
    assert!(report.all_accepted(), "baseline batch must verify");
    server.join().expect("prover thread");

    // MSM-vs-reference commitment timings across oracle lengths (also
    // populates the commit.msm.* counters alongside the session runs
    // above).
    let commit_samples = bench_commit(smoke);

    // Batch-amortization measurement for the query pipeline (also
    // populates the query-reuse and fixed-base counters the validator
    // requires).
    let pcp_proofs: Vec<ZaatarProof<F61>> = serial
        .iter()
        .map(|o| o.clone().expect("honest witnesses"))
        .collect();
    let pcp_samples = bench_pcp_amortization(&pcp, &pcp_proofs, smoke);

    // Scratch-pool reuse in the staged prover pipeline (one workspace,
    // serial batch) — populates the mem.scratch counters the validator
    // requires.
    let mem_samples = bench_mem_reuse(&pcp, &witnesses);

    // Multi-tenant session-server throughput and admission behaviour
    // (nominal fleet + deterministic synthetic overload) — populates
    // the server.* counters and the server.session timer.
    let server_sample = bench_server(&pcp, &pcp_proofs, &ios, smoke);

    // Compiler-optimizer shrink ratios across the workload zoo —
    // populates the cc.opt.* counters alongside the per-app report.
    let cc_samples = bench_cc();

    let snap = zaatar_obs::snapshot();
    for phase in REQUIRED_PHASES {
        assert!(
            snap.timers.get(phase).is_some_and(|t| t.count > 0),
            "workload failed to exercise phase timer {phase}"
        );
    }

    let mut s = String::from("{\n");
    s.push_str(&format!("  \"schema\": {},\n", json::escape(SCHEMA)));
    s.push_str(&format!("  \"host\": {{\"parallelism\": {host}}},\n"));
    s.push_str(&format!(
        "  \"workload\": {{\"circuit\": \"mul-chain\", \"chain\": {chain}, \"batch\": {batch}, \"smoke\": {smoke}}},\n"
    ));
    s.push_str("  \"phases\": {\n");
    for (i, phase) in REQUIRED_PHASES.iter().enumerate() {
        let t = &snap.timers[*phase];
        s.push_str(&format!(
            "    {}: {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{}\n",
            json::escape(phase),
            t.count,
            t.total_ns,
            t.mean_ns,
            t.min_ns,
            t.max_ns,
            t.p50_ns,
            t.p99_ns,
            if i + 1 < REQUIRED_PHASES.len() { "," } else { "" },
        ));
    }
    s.push_str("  },\n");
    s.push_str(&format!(
        "  \"parallel\": {{\"batch\": {batch}, \"workers_requested\": {workers}, \"effective_workers\": {effective_workers}, \"serial_ns\": {serial_ns}, \"parallel_ns\": {parallel_ns}, \"speedup\": {speedup:.3}}},\n"
    ));
    let msm_windows = snap.counters.get("commit.msm.windows").copied().unwrap_or(0);
    let msm_buckets = snap.counters.get("commit.msm.buckets").copied().unwrap_or(0);
    let msm_doublings = snap
        .counters
        .get("commit.msm.doublings")
        .copied()
        .unwrap_or(0);
    s.push_str(&format!(
        "  \"commit\": {{\"field\": \"F61\", \"msm_windows\": {msm_windows}, \"msm_buckets\": {msm_buckets}, \"msm_doublings\": {msm_doublings}, \"lens\": [\n"
    ));
    for (i, smp) in commit_samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"len\": {}, \"msm_ns\": {}, \"naive_ns\": {}, \"speedup\": {:.3}}}{}\n",
            smp.len,
            smp.msm_ns,
            smp.naive_ns,
            smp.speedup,
            if i + 1 < commit_samples.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]},\n");
    let cache_hits = snap
        .counters
        .get("poly.ntt.twiddle_cache_hit")
        .copied()
        .unwrap_or(0);
    let cache_misses = snap
        .counters
        .get("poly.ntt.twiddle_cache_miss")
        .copied()
        .unwrap_or(0);
    s.push_str(&format!(
        "  \"ntt\": {{\"field\": \"F61\", \"reps\": {ntt_reps}, \"twiddle_cache_hit\": {cache_hits}, \"twiddle_cache_miss\": {cache_misses}, \"sizes\": [\n"
    ));
    for (i, smp) in ntt_samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"log2\": {}, \"cold_forward_ns\": {}, \"warm_forward_ns\": {}, \"warm_inverse_ns\": {}}}{}\n",
            smp.log2,
            smp.cold_forward_ns,
            smp.warm_forward_ns,
            smp.warm_inverse_ns,
            if i + 1 < ntt_samples.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]},\n");
    let query_reuse = snap
        .counters
        .get("pcp.batch.query_reuse")
        .copied()
        .unwrap_or(0);
    let fixed_base_hit = snap
        .counters
        .get("commit.fixed_base_hit")
        .copied()
        .unwrap_or(0);
    let fixed_base_miss = snap
        .counters
        .get("commit.fixed_base_miss")
        .copied()
        .unwrap_or(0);
    let params = pcp.params();
    s.push_str(&format!(
        "  \"pcp\": {{\"rho\": {}, \"rho_lin\": {}, \"total_queries\": {}, \"query_reuse\": {query_reuse}, \"fixed_base_hit\": {fixed_base_hit}, \"fixed_base_miss\": {fixed_base_miss}, \"batches\": [\n",
        params.rho,
        params.rho_lin,
        params.total_queries(),
    ));
    for (i, smp) in pcp_samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"batch\": {}, \"setup_ns\": {}, \"per_instance_setup_ns\": {}, \"answer_ns_per_instance\": {}}}{}\n",
            smp.batch,
            smp.setup_ns,
            smp.per_instance_setup_ns,
            smp.answer_ns_per_instance,
            if i + 1 < pcp_samples.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]},\n");
    let high_water = snap
        .gauges
        .get("mem.scratch.high_water")
        .copied()
        .unwrap_or(0);
    s.push_str(&format!(
        "  \"mem\": {{\"high_water_bytes\": {high_water}, \"scratch\": [\n"
    ));
    for (i, smp) in mem_samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"batch\": {}, \"scratch_hit\": {}, \"scratch_miss\": {}, \"hit_rate\": {:.4}, \"allocs_per_instance\": {:.2}, \"prove_ns_per_instance\": {}, \"footprint_bytes\": {}}}{}\n",
            smp.batch,
            smp.scratch_hit,
            smp.scratch_miss,
            smp.hit_rate,
            smp.allocs_per_instance,
            smp.prove_ns_per_instance,
            smp.footprint_bytes,
            if i + 1 < mem_samples.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]},\n");
    let sv = &server_sample;
    s.push_str(&format!(
        "  \"server\": {{\"nominal_sessions\": {}, \"accepted\": {}, \"rejected\": {}, \
         \"sessions_per_sec\": {:.2}, \"p99_session_ns\": {}, \"overload\": \
         {{\"offered\": {}, \"max_sessions\": {}, \"accepted\": {}, \"rejected\": {}, \
         \"rejection_rate\": {:.4}}}}},\n",
        sv.nominal_sessions,
        sv.nominal_accepted,
        sv.nominal_rejected,
        sv.sessions_per_sec,
        sv.p99_session_ns,
        sv.overload_offered,
        sv.overload_max_sessions,
        sv.overload_accepted,
        sv.overload_rejected,
        sv.overload_rejection_rate,
    ));
    s.push_str("  \"cc\": {\"apps\": [\n");
    for (i, smp) in cc_samples.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"constraints_before\": {}, \"constraints_after\": {}, \
             \"ratio\": {:.4}, \"witness_before\": {}, \"witness_after\": {}, \
             \"folded\": {}, \"cse_hits\": {}, \"pruned_vars\": {}}}{}\n",
            json::escape(&smp.name),
            smp.constraints_before,
            smp.constraints_after,
            smp.ratio,
            smp.witness_before,
            smp.witness_after,
            smp.folded,
            smp.cse_hits,
            smp.pruned_vars,
            if i + 1 < cc_samples.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]},\n");
    // The registry's full snapshot (all timers + counters), for
    // drill-down beyond the required phases.
    s.push_str(&format!("  \"metrics\": {}\n", snap.to_json()));
    s.push_str("}\n");
    s
}

/// One workload's before/after encoding under the `cc::opt` pipeline.
struct CcSample {
    name: String,
    constraints_before: usize,
    constraints_after: usize,
    ratio: f64,
    witness_before: usize,
    witness_after: usize,
    folded: usize,
    cse_hits: usize,
    pruned_vars: usize,
}

/// Runs the optimizer over every zoo workload (five suite apps + three
/// gadget apps) and records the shrink report. Pure compilation — no
/// proving — so this stays cheap even outside `--smoke`.
fn bench_cc() -> Vec<CcSample> {
    let mut samples = Vec::new();
    let mut push = |name: &str, sys: &zaatar_cc::GingerSystem<F61>| {
        let opt = optimize(sys);
        let r = &opt.report;
        assert!(
            r.after.num_constraints <= r.before.num_constraints,
            "{name}: optimizer grew constraints"
        );
        samples.push(CcSample {
            name: name.to_string(),
            constraints_before: r.before.num_constraints,
            constraints_after: r.after.num_constraints,
            ratio: r.after.num_constraints as f64 / r.before.num_constraints.max(1) as f64,
            witness_before: r.before.num_unbound,
            witness_after: r.after.num_unbound,
            folded: r.folded,
            cse_hits: r.cse_hits,
            pruned_vars: r.pruned_vars,
        });
    };
    for app in Suite::all_small() {
        let art = build_suite_app::<F61>(&app);
        push(app.name(), &art.compiled.ginger);
    }
    for app in GadgetApp::all() {
        let (sys, _solver) = app.build::<F61>();
        push(app.name(), &sys);
    }
    samples
}

/// Checks that `path` holds a structurally valid baseline document for
/// the current [`SCHEMA`]. Every failure names the offending field.
fn validate_baseline(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parse: {e}"))?;
    let root = doc.as_object().ok_or("root is not an object")?;

    match root.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA => {}
        Some(s) => return Err(format!("schema is {s:?}, expected {SCHEMA:?}")),
        None => return Err("missing string field \"schema\"".into()),
    }

    let host = root
        .get("host")
        .and_then(Value::as_object)
        .ok_or("missing object \"host\"")?;
    match host.get("parallelism").and_then(Value::as_u64) {
        Some(p) if p >= 1 => {}
        _ => return Err("host.parallelism must be an integer >= 1".into()),
    }

    let phases = root
        .get("phases")
        .and_then(Value::as_object)
        .ok_or("missing object \"phases\"")?;
    for name in REQUIRED_PHASES {
        let t = phases
            .get(name)
            .and_then(Value::as_object)
            .ok_or_else(|| format!("phases.{name} missing or not an object"))?;
        for field in ["count", "total_ns", "mean_ns", "min_ns", "max_ns", "p50_ns", "p99_ns"] {
            if t.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("phases.{name}.{field} missing or not an integer"));
            }
        }
        if t["count"].as_u64() == Some(0) {
            return Err(format!("phases.{name}.count is 0 — phase never ran"));
        }
    }

    let par = root
        .get("parallel")
        .and_then(Value::as_object)
        .ok_or("missing object \"parallel\"")?;
    for field in ["batch", "workers_requested", "effective_workers", "serial_ns", "parallel_ns"] {
        match par.get(field).and_then(Value::as_u64) {
            Some(v) if v >= 1 => {}
            _ => return Err(format!("parallel.{field} must be an integer >= 1")),
        }
    }
    let requested = par["workers_requested"].as_u64().expect("checked above");
    let effective = par["effective_workers"].as_u64().expect("checked above");
    if effective > requested {
        return Err(format!(
            "parallel.effective_workers ({effective}) exceeds workers_requested ({requested})"
        ));
    }
    match par.get("speedup").and_then(Value::as_f64) {
        Some(s) if s > 0.0 => {}
        _ => return Err("parallel.speedup must be a positive number".into()),
    }

    let commit = root
        .get("commit")
        .and_then(Value::as_object)
        .ok_or("missing object \"commit\"")?;
    for field in ["msm_windows", "msm_buckets", "msm_doublings"] {
        match commit.get(field).and_then(Value::as_u64) {
            Some(v) if v >= 1 => {}
            _ => {
                return Err(format!(
                    "commit.{field} must be an integer >= 1 — the MSM engine never ran"
                ))
            }
        }
    }
    let lens = commit
        .get("lens")
        .and_then(Value::as_array)
        .ok_or("missing array \"commit.lens\"")?;
    if lens.is_empty() {
        return Err("commit.lens must be non-empty".into());
    }
    let mut prev_len = 0u64;
    for (i, entry) in lens.iter().enumerate() {
        let e = entry
            .as_object()
            .ok_or_else(|| format!("commit.lens[{i}] is not an object"))?;
        for field in ["len", "msm_ns", "naive_ns"] {
            match e.get(field).and_then(Value::as_u64) {
                Some(v) if v >= 1 => {}
                _ => return Err(format!("commit.lens[{i}].{field} must be an integer >= 1")),
            }
        }
        let len = e["len"].as_u64().expect("checked above");
        if len <= prev_len {
            return Err(format!("commit.lens[{i}].len {len} not > previous {prev_len}"));
        }
        prev_len = len;
        if e.get("speedup").and_then(Value::as_f64).is_none() {
            return Err(format!("commit.lens[{i}].speedup missing or not a number"));
        }
    }
    // The tentpole gate: at the largest (most oracle-like) length the
    // bucket MSM must beat the per-element loop by at least 4×.
    let largest = lens[lens.len() - 1].as_object().expect("checked above");
    match largest["speedup"].as_f64() {
        Some(s) if s >= MSM_MIN_SPEEDUP => {}
        Some(s) => {
            return Err(format!(
                "commit.lens speedup at largest length is {s:.2}, below the required \
                 {MSM_MIN_SPEEDUP:.1}× — the MSM engine is not earning its keep"
            ))
        }
        None => return Err("commit.lens[last].speedup missing".into()),
    }

    let ntt = root
        .get("ntt")
        .and_then(Value::as_object)
        .ok_or("missing object \"ntt\"")?;
    match ntt.get("reps").and_then(Value::as_u64) {
        Some(r) if r >= 1 => {}
        _ => return Err("ntt.reps must be an integer >= 1".into()),
    }
    match ntt.get("twiddle_cache_hit").and_then(Value::as_u64) {
        Some(h) if h >= 1 => {}
        _ => return Err("ntt.twiddle_cache_hit must be >= 1 — cache never reused".into()),
    }
    match ntt.get("twiddle_cache_miss").and_then(Value::as_u64) {
        Some(m) if m >= 1 => {}
        _ => return Err("ntt.twiddle_cache_miss must be >= 1 — tables never built".into()),
    }
    let sizes = ntt
        .get("sizes")
        .and_then(Value::as_array)
        .ok_or("missing array \"ntt.sizes\"")?;
    if sizes.is_empty() {
        return Err("ntt.sizes must be non-empty".into());
    }
    for (i, entry) in sizes.iter().enumerate() {
        let e = entry
            .as_object()
            .ok_or_else(|| format!("ntt.sizes[{i}] is not an object"))?;
        for field in ["log2", "cold_forward_ns", "warm_forward_ns", "warm_inverse_ns"] {
            match e.get(field).and_then(Value::as_u64) {
                Some(v) if v >= 1 => {}
                _ => return Err(format!("ntt.sizes[{i}].{field} must be an integer >= 1")),
            }
        }
    }

    let pcp = root
        .get("pcp")
        .and_then(Value::as_object)
        .ok_or("missing object \"pcp\"")?;
    for field in ["rho", "rho_lin", "total_queries", "query_reuse", "fixed_base_hit"] {
        match pcp.get(field).and_then(Value::as_u64) {
            Some(v) if v >= 1 => {}
            _ => return Err(format!("pcp.{field} must be an integer >= 1")),
        }
    }
    let batches = pcp
        .get("batches")
        .and_then(Value::as_array)
        .ok_or("missing array \"pcp.batches\"")?;
    if batches.len() < 2 {
        return Err("pcp.batches needs at least two batch sizes".into());
    }
    let mut prev: Option<(u64, u64)> = None; // (batch, per_instance_setup_ns)
    for (i, entry) in batches.iter().enumerate() {
        let e = entry
            .as_object()
            .ok_or_else(|| format!("pcp.batches[{i}] is not an object"))?;
        for field in ["batch", "setup_ns", "per_instance_setup_ns", "answer_ns_per_instance"] {
            match e.get(field).and_then(Value::as_u64) {
                Some(v) if v >= 1 => {}
                _ => return Err(format!("pcp.batches[{i}].{field} must be an integer >= 1")),
            }
        }
        let batch = e["batch"].as_u64().expect("checked above");
        let per_instance = e["per_instance_setup_ns"].as_u64().expect("checked above");
        if let Some((pb, pc)) = prev {
            if batch <= pb {
                return Err(format!("pcp.batches[{i}].batch {batch} not > previous {pb}"));
            }
            if per_instance >= pc {
                return Err(format!(
                    "pcp.batches[{i}].per_instance_setup_ns {per_instance} not < previous {pc} — \
                     amortization must strictly reduce per-instance query cost"
                ));
            }
        }
        prev = Some((batch, per_instance));
    }
    let first = batches[0].as_object().expect("checked above");
    let last = batches[batches.len() - 1].as_object().expect("checked above");
    if first["batch"].as_u64() != Some(1) {
        return Err("pcp.batches must start at batch size 1".into());
    }
    if last["batch"].as_u64() < Some(16) {
        return Err("pcp.batches must reach batch size 16".into());
    }

    let mem = root
        .get("mem")
        .and_then(Value::as_object)
        .ok_or("missing object \"mem\"")?;
    if mem.get("high_water_bytes").and_then(Value::as_u64).is_none() {
        return Err("mem.high_water_bytes must be an integer".into());
    }
    let scratch = mem
        .get("scratch")
        .and_then(Value::as_array)
        .ok_or("missing array \"mem.scratch\"")?;
    if scratch.len() < 2 {
        return Err("mem.scratch needs at least two batch sizes".into());
    }
    for (i, entry) in scratch.iter().enumerate() {
        let e = entry
            .as_object()
            .ok_or_else(|| format!("mem.scratch[{i}] is not an object"))?;
        for field in ["batch", "scratch_hit", "scratch_miss", "prove_ns_per_instance", "footprint_bytes"] {
            if e.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("mem.scratch[{i}].{field} missing or not an integer"));
            }
        }
        for field in ["hit_rate", "allocs_per_instance"] {
            if e.get(field).and_then(Value::as_f64).is_none() {
                return Err(format!("mem.scratch[{i}].{field} missing or not a number"));
            }
        }
    }
    let first = scratch[0].as_object().expect("checked above");
    let last = scratch[scratch.len() - 1].as_object().expect("checked above");
    if first["batch"].as_u64() != Some(1) {
        return Err("mem.scratch must start at batch size 1".into());
    }
    if last["batch"].as_u64() < Some(16) {
        return Err("mem.scratch must reach batch size 16".into());
    }
    match last["hit_rate"].as_f64() {
        Some(r) if r > 0.0 => {}
        _ => {
            return Err(
                "mem.scratch hit_rate at batch 16 must be > 0 — the staged pipeline \
                 must serve repeat instances from the workspace pool"
                    .into(),
            )
        }
    }
    let (first_allocs, last_allocs) = (
        first["allocs_per_instance"].as_f64().expect("checked above"),
        last["allocs_per_instance"].as_f64().expect("checked above"),
    );
    if last_allocs >= first_allocs {
        return Err(format!(
            "mem.scratch allocs_per_instance at batch 16 ({last_allocs}) not < batch 1 \
             ({first_allocs}) — workspace reuse must amortize allocations"
        ));
    }

    let server = root
        .get("server")
        .and_then(Value::as_object)
        .ok_or("missing object \"server\"")?;
    let nominal_accepted = match server.get("accepted").and_then(Value::as_u64) {
        Some(a) if a >= 1 => a,
        _ => return Err("server.accepted must be an integer >= 1".into()),
    };
    let nominal_rejected = server
        .get("rejected")
        .and_then(Value::as_u64)
        .ok_or("server.rejected missing or not an integer")?;
    // The graceful-degradation invariant: at nominal load the server
    // must mostly say yes — a baseline where refusals outnumber
    // admissions means admission control is misconfigured, not shedding.
    if nominal_rejected > nominal_accepted {
        return Err(format!(
            "server.rejected ({nominal_rejected}) exceeds server.accepted \
             ({nominal_accepted}) at nominal load — backpressure must not dominate"
        ));
    }
    match server.get("sessions_per_sec").and_then(Value::as_f64) {
        Some(r) if r > 0.0 => {}
        _ => return Err("server.sessions_per_sec must be a positive number".into()),
    }
    match server.get("p99_session_ns").and_then(Value::as_u64) {
        Some(p) if p >= 1 => {}
        _ => return Err("server.p99_session_ns must be an integer >= 1".into()),
    }
    let overload = server
        .get("overload")
        .and_then(Value::as_object)
        .ok_or("missing object \"server.overload\"")?;
    let offered = match overload.get("offered").and_then(Value::as_u64) {
        Some(o) if o >= 1 => o,
        _ => return Err("server.overload.offered must be an integer >= 1".into()),
    };
    let (oa, or) = match (
        overload.get("accepted").and_then(Value::as_u64),
        overload.get("rejected").and_then(Value::as_u64),
    ) {
        (Some(a), Some(r)) => (a, r),
        _ => return Err("server.overload.{accepted,rejected} must be integers".into()),
    };
    if oa + or != offered {
        return Err(format!(
            "server.overload accepted ({oa}) + rejected ({or}) != offered ({offered})"
        ));
    }
    if or == 0 {
        return Err("server.overload.rejected is 0 — overload never engaged backpressure".into());
    }
    match overload.get("rejection_rate").and_then(Value::as_f64) {
        Some(r) if r > 0.0 && r < 1.0 => {}
        _ => {
            return Err(
                "server.overload.rejection_rate must be in (0, 1): some refused, some served"
                    .into(),
            )
        }
    }

    let cc = root
        .get("cc")
        .and_then(Value::as_object)
        .ok_or("missing object \"cc\"")?;
    let cc_apps = cc
        .get("apps")
        .and_then(Value::as_array)
        .ok_or("missing array \"cc.apps\"")?;
    if cc_apps.is_empty() {
        return Err("cc.apps must be non-empty".into());
    }
    let mut shrunk = 0usize;
    for (i, entry) in cc_apps.iter().enumerate() {
        let e = entry
            .as_object()
            .ok_or_else(|| format!("cc.apps[{i}] is not an object"))?;
        let name = e
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("cc.apps[{i}].name missing or not a string"))?;
        for field in ["constraints_before", "constraints_after", "witness_before", "witness_after", "folded", "cse_hits", "pruned_vars"] {
            if e.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("cc.apps[{i}].{field} missing or not an integer"));
            }
        }
        let before = e["constraints_before"].as_u64().expect("checked above");
        let after = e["constraints_after"].as_u64().expect("checked above");
        if before == 0 {
            return Err(format!("cc.apps[{i}] ({name}): constraints_before is 0"));
        }
        // The optimizer contract: never grow a circuit.
        match e.get("ratio").and_then(Value::as_f64) {
            Some(r) if r <= 1.0 => {}
            Some(r) => {
                return Err(format!(
                    "cc.apps[{i}] ({name}): ratio {r:.4} > 1.0 — the optimizer grew the circuit"
                ))
            }
            None => return Err(format!("cc.apps[{i}].ratio missing or not a number")),
        }
        if after > before {
            return Err(format!(
                "cc.apps[{i}] ({name}): constraints_after {after} > constraints_before {before}"
            ));
        }
        if after < before {
            shrunk += 1;
        }
    }
    if shrunk < CC_MIN_SHRUNK_APPS {
        return Err(format!(
            "cc.apps: optimizer strictly shrank only {shrunk} apps, need >= \
             {CC_MIN_SHRUNK_APPS} — the pass pipeline is not earning its keep"
        ));
    }

    let metrics = root
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("missing object \"metrics\"")?;
    let counters = metrics
        .get("counters")
        .and_then(Value::as_object)
        .ok_or("missing object \"metrics.counters\"")?;
    match counters.get("pcp.prove.calls").and_then(Value::as_u64) {
        Some(n) if n >= 1 => {}
        _ => return Err("metrics.counters[\"pcp.prove.calls\"] must be >= 1".into()),
    }
    match counters
        .get("poly.ntt.twiddle_cache_hit")
        .and_then(Value::as_u64)
    {
        Some(n) if n >= 1 => {}
        _ => {
            return Err(
                "metrics.counters[\"poly.ntt.twiddle_cache_hit\"] must be >= 1".into(),
            )
        }
    }
    Ok(())
}
