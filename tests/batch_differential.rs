//! Differential lockdown for the amortized batch query pipeline: the
//! blocked matrix–vector kernel the session answers with
//! (`decommit_packed_into` over a [`BatchQuerySet`]'s matrices) must produce
//! answers **byte-identical** to the serial per-instance reference
//! (`generate_queries` + `answer`, one dense dot product per query) on
//! the same ChaCha seed. Field addition is exact, so re-association in
//! the blocked kernel cannot change any sum — this test pins that
//! guarantee at the serialization level, across worker counts, seeds,
//! and the session-prover wire path.

use zaatar::cc::Builder;
use zaatar::core::commit::{decommit, decommit_packed_into};
use zaatar::core::pcp::{BatchQuerySet, PcpResponses, ZaatarPcp, ZaatarProof};
use zaatar::core::qap::QapWitness;
use zaatar::core::runtime::{prove_batch_with_policy, prove_instance_policied};
use zaatar::core::session::{SessionProver, SessionVerifier};
use zaatar::core::workspace::ProverWorkspace;
use zaatar::core::{ExecPolicy, MemBudget};
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, PrimeField, F61};
use zaatar::poly::Radix2Domain;

type Pcp = ZaatarPcp<F61, Radix2Domain<F61>>;

fn f(x: i64) -> F61 {
    F61::from_i64(x)
}

/// y = (a − b)² + min(a, b): mul, square, and comparison gadgets give
/// the QAP some width. The circuit is built here; the
/// solve/extend/prove pipeline is the shared [`circuit_fixture`].
fn build_fixture(inputs: &[[i64; 2]]) -> zaatar::core::testutil::CircuitFixture {
    let mut b = Builder::<F61>::new();
    let a = b.alloc_input();
    let bb = b.alloc_input();
    let d = a.sub(&bb);
    let sq = b.mul(&d, &d);
    let mn = b.min(&a, &bb, 10);
    b.bind_output(&sq.add(&mn));
    let (sys, solver) = b.finish();
    let field_inputs: Vec<Vec<F61>> = inputs
        .iter()
        .map(|pair| vec![f(pair[0]), f(pair[1])])
        .collect();
    zaatar::core::testutil::circuit_fixture(&sys, &solver, &field_inputs)
}

fn fixture_witnesses(inputs: &[[i64; 2]]) -> (Pcp, Vec<QapWitness<F61>>, Vec<Vec<F61>>) {
    let fx = build_fixture(inputs);
    (fx.pcp, fx.witnesses, fx.ios)
}

fn fixture(inputs: &[[i64; 2]]) -> (Pcp, Vec<ZaatarProof<F61>>, Vec<Vec<F61>>) {
    let fx = build_fixture(inputs);
    (fx.pcp, fx.proofs, fx.ios)
}

/// The answers a session sends for `proof`: `decommit_packed_into` over
/// the batch's packed matrices (its consistency answer is not compared,
/// so `t` is the proof vector itself).
fn packed_answers(
    batch: &BatchQuerySet<F61>,
    proof: &ZaatarProof<F61>,
    workers: usize,
) -> PcpResponses<F61> {
    let answer = |u: &[F61], m| decommit_packed_into(u, m, u, workers, Vec::new()).answers;
    PcpResponses {
        z_answers: answer(&proof.z, batch.z_matrix()),
        h_answers: answer(&proof.h, batch.h_matrix()),
    }
}

fn response_bytes(r: &PcpResponses<F61>) -> Vec<u8> {
    r.z_answers
        .iter()
        .chain(r.h_answers.iter())
        .flat_map(|a| a.to_bytes_le())
        .collect()
}

/// Core differential: per-instance serial answers vs batched kernel
/// answers from the same seed, byte-for-byte, across worker counts.
#[test]
fn batched_answers_byte_identical_to_serial() {
    let (pcp, proofs, _) = fixture(&[[3, 7], [10, 2], [0, 0], [-5, 5]]);
    for seed in [0u64, 1, 0xdead_beef, 0x5eed] {
        // Serial reference: fresh query generation per run.
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let queries = pcp.generate_queries(&mut prg);
        let serial: Vec<_> = proofs.iter().map(|p| pcp.answer(p, &queries)).collect();
        // Batched path: same seed, one packed generation for the batch.
        for workers in [1usize, 2, 8] {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let batch = BatchQuerySet::new(pcp.generate_queries(&mut prg));
            for (p, reference) in proofs.iter().zip(&serial) {
                let batched = packed_answers(&batch, p, workers);
                assert_eq!(
                    response_bytes(&batched),
                    response_bytes(reference),
                    "seed {seed}, workers {workers}"
                );
            }
        }
    }
}

/// Packed decommitment answers (the session prover's Answer stage) are
/// byte-identical to serial decommitment over the same queries at every
/// worker count — the one pin of that identity now that the malicious-
/// prover suite attacks the session path only.
#[test]
fn packed_decommit_byte_identical_to_serial() {
    let (pcp, proofs, _) = fixture(&[[4, 8]]);
    let mut prg = ChaChaPrg::from_u64_seed(0x0dd);
    let batch = BatchQuerySet::new(pcp.generate_queries(&mut prg));
    let t_z: Vec<F61> = prg.field_vec(proofs[0].z.len());
    let t_h: Vec<F61> = prg.field_vec(proofs[0].h.len());
    let serial_z = decommit(&proofs[0].z, &batch.queries().z_queries(), &t_z);
    let serial_h = decommit(&proofs[0].h, &batch.queries().h_queries(), &t_h);
    for workers in 1usize..=4 {
        let packed_z =
            decommit_packed_into(&proofs[0].z, batch.z_matrix(), &t_z, workers, Vec::new());
        let packed_h =
            decommit_packed_into(&proofs[0].h, batch.h_matrix(), &t_h, workers, Vec::new());
        let ser = |d: &zaatar::core::commit::Decommitment<F61>| -> Vec<u8> {
            d.answers
                .iter()
                .chain(std::iter::once(&d.t_answer))
                .flat_map(|a| a.to_bytes_le())
                .collect()
        };
        assert_eq!(ser(&packed_z), ser(&serial_z), "z workers {workers}");
        assert_eq!(ser(&packed_h), ser(&serial_h), "h workers {workers}");
    }
}

/// Batched answers feed `check` exactly like serial answers: same
/// accept verdicts on honest proofs, same reject verdicts on corrupted
/// ones.
#[test]
fn check_verdicts_agree_between_paths() {
    let (pcp, mut proofs, ios) = fixture(&[[3, 5], [7, 1]]);
    proofs[1].z[0] += F61::ONE; // Corrupt the second instance.
    for seed in [2u64, 21, 0xfeed] {
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let batch = BatchQuerySet::new(pcp.generate_queries(&mut prg));
        for (p, io) in proofs.iter().zip(&ios) {
            let serial = pcp.answer(p, batch.queries());
            let batched = packed_answers(&batch, p, 2);
            assert_eq!(
                pcp.check(batch.queries(), &serial, io),
                pcp.check(batch.queries(), &batched, io),
                "seed {seed}"
            );
        }
    }
}

/// The session-prover wire path (which answers through the packed
/// kernel) produces messages a serial-thinking verifier accepts, and
/// the whole seeded round trip is deterministic.
#[test]
fn session_prover_packed_path_round_trips() {
    let (pcp, proofs, ios) = fixture(&[[2, 6], [9, 9]]);
    let run = |seed: u64| -> (Vec<bool>, Vec<Vec<u8>>) {
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let mut verifier = SessionVerifier::new(&pcp, &mut prg);
        let mut prover = SessionProver::new(&pcp);
        let setup = verifier.setup_message().unwrap();
        prover.receive_setup(&setup).unwrap();
        let mut verdicts = Vec::new();
        let mut messages = Vec::new();
        for (p, io) in proofs.iter().zip(&ios) {
            let msg = prover
                .instance_message_policied(p, &mut ProverWorkspace::new())
                .unwrap();
            verdicts.push(verifier.verify_instance(&msg, io).unwrap());
            messages.push(msg);
        }
        (verdicts, messages)
    };
    let (verdicts, messages) = run(0x5e55);
    assert_eq!(verdicts, vec![true; 2]);
    // Determinism: the same seed reproduces identical wire bytes.
    let (verdicts2, messages2) = run(0x5e55);
    assert_eq!(verdicts, verdicts2);
    assert_eq!(messages, messages2);
}

/// Proves every witness serially over one caller-owned workspace, at
/// the chunk length `policy` gives. The stamp persists on `ws`,
/// as a server's would, so a following [`session_transcript`] serves
/// under the same policy.
fn prove_all(
    pcp: &Pcp,
    witnesses: &[QapWitness<F61>],
    policy: ExecPolicy,
    ws: &mut ProverWorkspace<F61>,
) -> Result<Vec<Option<ZaatarProof<F61>>>, zaatar::core::BudgetError> {
    ws.set_policy(policy);
    witnesses.iter().map(|w| prove_instance_policied(pcp, w, ws)).collect()
}

/// The full session wire transcript (setup message + every instance
/// message) under workspace reuse, served under the policy stamped on
/// `ws` — one covering MSM chunk by default, `chunk_len`-fed MSMs under
/// a streamed stamp. Returns the concatenated frames so differential
/// tests compare at the byte level.
fn session_transcript(
    pcp: &Pcp,
    proofs: &[Option<ZaatarProof<F61>>],
    ios: &[Vec<F61>],
    seed: u64,
    ws: &mut ProverWorkspace<F61>,
) -> Vec<Vec<u8>> {
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let mut verifier = SessionVerifier::new(pcp, &mut prg);
    let mut prover = SessionProver::new(pcp);
    let setup = verifier.setup_message().unwrap();
    prover.receive_setup(&setup).unwrap();
    let mut transcript = vec![setup];
    for (p, io) in proofs.iter().zip(ios) {
        let p = p.as_ref().expect("fixture witnesses satisfy the system");
        let msg = prover.instance_message_policied(p, ws).unwrap();
        assert!(verifier.verify_instance(&msg, io).unwrap());
        transcript.push(msg);
    }
    transcript
}

/// Tentpole lockdown: proving through reused workspaces — per-worker
/// pools in `prove_batch_with_policy`, one serial pool under
/// `prove_instance_policied`, and a session-long Answer-stage pool — produces session wire transcripts
/// **byte-identical** to the fresh-allocation path, across seeds, batch
/// sizes β ∈ {1, 4, 16}, and worker counts. Field arithmetic is exact
/// and buffer identity never reaches the wire, so any divergence here
/// is a bug in the workspace plumbing.
#[test]
fn workspace_reuse_transcripts_byte_identical_to_fresh() {
    for beta in [1usize, 4, 16] {
        let inputs: Vec<[i64; 2]> = (0..beta as i64).map(|i| [3 * i + 1, 17 - 2 * i]).collect();
        let (pcp, witnesses, ios) = fixture_witnesses(&inputs);
        // Reference: every instance proved and served with fresh
        // allocations (throwaway workspaces).
        let fresh: Vec<Option<ZaatarProof<F61>>> =
            witnesses.iter().map(|w| pcp.prove(w)).collect();
        for seed in [0u64, 0xA11CE, 0x5eed_f00d] {
            let reference =
                session_transcript(&pcp, &fresh, &ios, seed, &mut ProverWorkspace::new());
            for workers in [1usize, 2, 8] {
                let proofs = prove_batch_with_policy(
                    &pcp,
                    &witnesses,
                    &ExecPolicy::with_workers(workers),
                    MemBudget::unlimited(),
                )
                .expect("unlimited budget never refuses");
                let mut ws = ProverWorkspace::new();
                let transcript = session_transcript(&pcp, &proofs, &ios, seed, &mut ws);
                assert_eq!(
                    transcript, reference,
                    "β={beta}, seed={seed}, workers={workers}"
                );
            }
            // Serial path over one long-lived workspace, reused for
            // both proving and answering.
            let mut ws = ProverWorkspace::new();
            let proofs = prove_all(&pcp, &witnesses, ExecPolicy::serial(), &mut ws).unwrap();
            let transcript = session_transcript(&pcp, &proofs, &ios, seed, &mut ws);
            assert_eq!(transcript, reference, "β={beta}, seed={seed}, serial ws");
        }
    }
}

/// Leak guard: a single workspace serving 100 back-to-back
/// prove-and-answer sessions must not grow — its footprint (field pool
/// plus group-word pool) stabilizes after the first session, and the
/// pool is actually being hit, not bypassed.
#[test]
fn workspace_footprint_bounded_across_sessions() {
    let inputs: Vec<[i64; 2]> = (0..4i64).map(|i| [i + 2, 2 * i]).collect();
    let (pcp, witnesses, ios) = fixture_witnesses(&inputs);
    let mut ws = ProverWorkspace::new();
    let run = |ws: &mut ProverWorkspace<F61>| {
        let proofs = prove_all(&pcp, &witnesses, ExecPolicy::serial(), ws).unwrap();
        session_transcript(&pcp, &proofs, &ios, 0xcafe, ws)
    };
    let first = run(&mut ws);
    let footprint = ws.footprint_bytes();
    let pooled = ws.pooled();
    assert!(footprint > 0, "stages must have pooled their buffers");
    let hits_before = zaatar::obs::counter("mem.scratch.hit").get();
    for _ in 0..99 {
        run(&mut ws);
    }
    assert_eq!(
        ws.footprint_bytes(),
        footprint,
        "workspace footprint must not grow across sessions"
    );
    assert_eq!(ws.pooled(), pooled, "no buffers may leak out of the pool");
    assert!(
        zaatar::obs::counter("mem.scratch.hit").get() >= hits_before + 99,
        "repeat sessions must be served from the pool"
    );
    // The gauge tracks per-pool peaks; the workspace footprint spans
    // two pools, so the bound is the larger of the two.
    let largest_pool = ws
        .scratch()
        .footprint_bytes()
        .max(ws.group_scratch().footprint_bytes());
    assert!(zaatar::obs::gauge("mem.scratch.high_water").get() >= largest_pool as u64);
    // And the transcripts stay deterministic throughout.
    assert_eq!(run(&mut ws), first);
}

/// Chunk-geometry lockdown: the prover pipeline — chunked Witness
/// accumulators, the drained coset quotient kernel, and chunk-fed MSM
/// commitments — produces session wire transcripts **byte-identical**
/// to the default covering-chunk policy for every chunk geometry: one
/// explicit covering chunk, an even two-way split, and a ragged tail
/// that divides nothing. Field arithmetic is exact and the per-slot
/// operation order does not depend on the chunk, so any divergence
/// here is a bug in the chunk walking.
#[test]
fn streaming_prove_transcripts_byte_identical_across_chunk_sizes() {
    for beta in [1usize, 4, 16] {
        let inputs: Vec<[i64; 2]> = (0..beta as i64).map(|i| [2 * i + 1, 19 - 3 * i]).collect();
        let (pcp, witnesses, ios) = fixture_witnesses(&inputs);
        let n = pcp.qap().degree() + 1;
        let fresh: Vec<Option<ZaatarProof<F61>>> =
            witnesses.iter().map(|w| pcp.prove(w)).collect();
        for seed in [0u64, 0xA11CE, 0x5eed_f00d] {
            let reference =
                session_transcript(&pcp, &fresh, &ios, seed, &mut ProverWorkspace::new());
            // One covering chunk, an even split, and a ragged tail.
            for chunk_len in [n, n.div_ceil(2), 7] {
                let mut ws = ProverWorkspace::new();
                let proofs = prove_all(&pcp, &witnesses, ExecPolicy::streamed(chunk_len), &mut ws)
                    .expect("an unbudgeted workspace admits every lease");
                let transcript = session_transcript(&pcp, &proofs, &ios, seed, &mut ws);
                assert_eq!(
                    transcript, reference,
                    "β={beta}, seed={seed}, chunk_len={chunk_len}"
                );
            }
        }
    }
}

/// A multiplication-chain circuit (two constraints per link),
/// parameterized so the leak guard can pick its domain size.
fn bench_chain_fixture(chain: usize, batch: usize) -> (Pcp, Vec<QapWitness<F61>>, Vec<Vec<F61>>) {
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
    let field_inputs: Vec<Vec<F61>> = (0..batch as i64).map(|i| vec![f(2 + i), f(3 + i)]).collect();
    let fx = zaatar::core::testutil::circuit_fixture(&sys, &solver, &field_inputs);
    (fx.pcp, fx.witnesses, fx.ios)
}

/// Leak + budget guard at scale: a chain = 2560 circuit (domain 8192,
/// 16 chunks) proves at chunk 512 under a hard budget
/// half a domain point above the pipeline's 7-elements-per-point
/// residency floor, across 100 back-to-back sessions on one workspace
/// — no `BudgetExceeded`, no footprint creep, measured high-water never
/// above the budget, and the per-session bytes identical to the
/// unbudgeted covering-chunk reference throughout. Half that floor is
/// refused with a typed error at either chunk length.
#[test]
fn streaming_leak_guard_high_water_under_budget_at_16x_bench() {
    let (pcp, witnesses, ios) = bench_chain_fixture(2560, 1);
    let n = pcp.qap().degree();
    assert!(n >= 16 * 512, "must span ≥ 16 chunks of 512, got {n}");
    let chunk_len = 512usize;
    let elem = std::mem::size_of::<F61>();
    let floor = 7 * n * elem;

    // One verifier setup serves all 100 sessions (the expensive
    // `Enc(r)` generation is once-per-key in production too); each
    // session is a full prove + instance answer.
    let mut prg = ChaChaPrg::from_u64_seed(0xcafe);
    let mut verifier = SessionVerifier::new(&pcp, &mut prg);
    let mut prover = SessionProver::new(&pcp);
    let setup = verifier.setup_message().unwrap();
    prover.receive_setup(&setup).unwrap();

    // Reference bytes: the default policy on an unbudgeted workspace.
    let mut free = ProverWorkspace::new();
    let free_proofs = prove_all(&pcp, &witnesses, ExecPolicy::serial(), &mut free).unwrap();
    let free_proof = free_proofs[0].as_ref().expect("honest witness");
    let reference = prover.instance_message_policied(free_proof, &mut free).unwrap();
    assert!(verifier.verify_instance(&reference, &ios[0]).unwrap());

    let budget = floor + n * elem / 2;
    let mut ws = ProverWorkspace::with_budget(MemBudget::bytes(budget));
    for session in 0..100 {
        let proofs = prove_all(&pcp, &witnesses, ExecPolicy::streamed(chunk_len), &mut ws)
            .unwrap_or_else(|e| panic!("session {session}: budget refused a lease: {e}"));
        let proof = proofs[0].as_ref().expect("honest witness");
        let msg = prover
            .instance_message_policied(proof, &mut ws)
            .unwrap_or_else(|e| panic!("session {session}: {e}"));
        assert_eq!(msg, reference, "session {session}: wire bytes diverged");
    }
    let peak = ws.high_water_bytes();
    assert!(peak > 0 && peak <= budget, "peak {peak} outside (0, {budget}]");

    for policy in [ExecPolicy::serial(), ExecPolicy::streamed(chunk_len)] {
        let mut starved = ProverWorkspace::with_budget(MemBudget::bytes(floor / 2));
        let err = prove_all(&pcp, &witnesses, policy, &mut starved)
            .expect_err("half the residency floor cannot hold the pipeline");
        assert_eq!(err.limit_bytes, floor / 2);
        assert!(starved.high_water_bytes() <= floor / 2, "{policy:?} over-allocated");
    }
}
