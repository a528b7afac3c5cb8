//! Scheduler policy lockdown: (1) the chunk-length decision is the
//! policy's to make, with the covering/chunked boundary pinned;
//! (2) policy dispatch is **byte-transparent** — every combination of
//! workers and chunk length produces transcripts identical to the
//! serial covering-chunk reference.
//! A policy changes where and when work happens (threads, chunks),
//! never the field/group values that reach the wire.

use zaatar::core::runtime::{prove_batch_with_policy, prove_instance_policied};
use zaatar::core::session::{SessionProver, SessionVerifier};
use zaatar::core::testutil::mul_fixture;
use zaatar::core::workspace::ProverWorkspace;
use zaatar::crypto::ChaChaPrg;
use zaatar::mem::MemBudget;
use zaatar::sched::{ExecPolicy, HostProfile, Proving, Scheduler, WorkloadShape};

fn shape(domain_size: usize) -> WorkloadShape {
    WorkloadShape { domain_size, batch: 1, elem_bytes: 8 }
}

/// Under an unlimited budget the scheduler keeps the covering chunk
/// while the predicted working set is cache-resident (n = 1024) and
/// chunks only past the residency threshold (n = 4096) — and under a
/// finite budget, chunking engages exactly when the scheduler's
/// covering-chunk threshold no longer fits.
#[test]
fn policy_decides_monolithic_vs_streaming() {
    let sched = Scheduler::new(HostProfile::synthetic(1, 25_000.0));

    // Unlimited budget, cache-resident working set: covering chunk.
    assert_eq!(
        sched.policy(shape(1024), MemBudget::unlimited()).proving,
        Proving::Monolithic,
        "an 80 KiB predicted working set is cache-resident"
    );
    // Unlimited budget, working set past cache residency: chunked.
    assert!(
        matches!(
            sched.policy(shape(4096), MemBudget::unlimited()).proving,
            Proving::Streamed { .. }
        ),
        "a 320 KiB predicted working set falls out of cache"
    );

    // A budget exactly at the threshold still gets the covering chunk;
    // one byte less gets a sane smaller one.
    let peak = Scheduler::predicted_monolithic_peak_bytes(shape(1024));
    assert_eq!(
        sched.policy(shape(1024), MemBudget::bytes(peak)).proving,
        Proving::Monolithic
    );
    let Proving::Streamed { chunk_len } =
        sched.policy(shape(1024), MemBudget::bytes(peak - 1)).proving
    else {
        panic!("budget below the threshold must chunk");
    };
    assert!((16..=1024).contains(&chunk_len), "chunk_len {chunk_len} out of range");
}

/// The scheduler's worker decision honors the batch and the host as
/// ceilings.
#[test]
fn scheduled_workers_never_exceed_batch_or_host() {
    let sched = Scheduler::new(HostProfile::synthetic(8, 25_000.0));
    for beta in [1usize, 4, 16] {
        let p = sched.policy(
            WorkloadShape { domain_size: 1024, batch: beta, elem_bytes: 8 },
            MemBudget::unlimited(),
        );
        assert!(p.workers <= 8.min(beta.max(1)));
    }
}

/// The differential: proofs and session wire bytes must be identical
/// across every policy — workers x proving — for several batch sizes.
#[test]
fn transcripts_byte_identical_across_policies() {
    for beta in [1usize, 4, 16] {
        let inputs: Vec<[i64; 2]> = (0..beta as i64).map(|i| [i + 2, 2 * i + 3]).collect();
        let fx = mul_fixture(&inputs);
        let domain = fx.pcp.qap().degree();

        // Reference: the serial covering-chunk policy over one workspace.
        let reference = &fx.proofs;

        // A ragged and a covering chunk next to the default, each
        // serial and at four workers.
        let covering = domain.next_power_of_two();
        let policies = [
            ExecPolicy::serial(),
            ExecPolicy::with_workers(4),
            ExecPolicy::streamed(16),
            ExecPolicy::streamed(covering),
            ExecPolicy { workers: 4, ..ExecPolicy::streamed(16) },
            ExecPolicy { workers: 4, ..ExecPolicy::streamed(covering) },
        ];

        for policy in &policies {
            // Proving: same z and h coefficients, every policy.
            let proofs = prove_batch_with_policy(
                &fx.pcp,
                &fx.witnesses,
                policy,
                MemBudget::unlimited(),
            )
            .expect("unlimited budget never refuses");
            assert_eq!(proofs.len(), reference.len());
            for (got, want) in proofs.iter().zip(reference.iter()) {
                let got = got.as_ref().expect("satisfying witness");
                assert_eq!(got.z, want.z, "policy {policy:?} changed proof z");
                assert_eq!(got.h, want.h, "policy {policy:?} changed proof h");
            }

            // Session wire bytes: the policied serving path emits the
            // same bytes a default-policy serve would.
            let mut prg = ChaChaPrg::from_u64_seed(0xA11CE);
            let mut verifier = SessionVerifier::new(&fx.pcp, &mut prg);
            let setup = verifier.setup_message().expect("setup");
            let mut prover = SessionProver::new(&fx.pcp);
            prover.receive_setup(&setup).expect("valid setup");
            let mut plain_ws = ProverWorkspace::new();
            let mut policied_ws = ProverWorkspace::new().with_policy(*policy);
            for proof in reference {
                let plain = prover
                    .instance_message_policied(proof, &mut plain_ws)
                    .expect("serve");
                let policied = prover
                    .instance_message_policied(proof, &mut policied_ws)
                    .expect("serve");
                assert_eq!(plain, policied, "policy {policy:?} changed wire bytes");
            }
        }
    }
}

/// Session setup plus every instance message, proved and served on one
/// workspace under `proving`, and that workspace's peak residency.
fn transcript_and_peak(
    fx: &zaatar::core::testutil::CircuitFixture,
    proving: Proving,
    budget: MemBudget,
) -> (Vec<Vec<u8>>, usize) {
    let policy = ExecPolicy { proving, ..ExecPolicy::serial() };
    let mut ws = ProverWorkspace::with_budget(budget).with_policy(policy);
    let mut prg = ChaChaPrg::from_u64_seed(0xA11CE);
    let mut verifier = SessionVerifier::new(&fx.pcp, &mut prg);
    let setup = verifier.setup_message().expect("setup");
    let mut prover = SessionProver::new(&fx.pcp);
    prover.receive_setup(&setup).expect("valid setup");
    let mut transcript = vec![setup];
    for (w, io) in fx.witnesses.iter().zip(&fx.ios) {
        let proof = prove_instance_policied(&fx.pcp, w, &mut ws)
            .expect("budget admits the pipeline")
            .expect("satisfying witness");
        let msg = prover.instance_message_policied(&proof, &mut ws).expect("serve");
        assert!(verifier.verify_instance(&msg, io).expect("well-formed message"));
        transcript.push(msg);
    }
    (transcript, ws.high_water_bytes())
}

/// Chunk length is normalised in one place: every spelling of "one
/// covering chunk" — `Monolithic`, `Streamed { n }`, `Streamed { MAX }`
/// — is the same schedule (same bytes, same peak), and `Streamed { 0 }`
/// is chunk 1, not a panic.
#[test]
fn every_spelling_of_the_covering_chunk_is_one_schedule() {
    let fx = mul_fixture(&[[3, 7], [4, 9]]);
    let n = fx.pcp.qap().degree();
    let unlimited = MemBudget::unlimited();
    let (reference, peak) = transcript_and_peak(&fx, Proving::Monolithic, unlimited);
    assert!(peak > 0);
    for chunk_len in [n, 1 << 40, usize::MAX] {
        let got = transcript_and_peak(&fx, Proving::Streamed { chunk_len }, unlimited);
        assert_eq!(got, (reference.clone(), peak), "chunk_len={chunk_len}");
    }
    let (degenerate, _) = transcript_and_peak(&fx, Proving::Streamed { chunk_len: 0 }, unlimited);
    assert_eq!(degenerate, reference);
}

/// Budgets are absolute: half the pipeline's 7-elements-per-point
/// residency floor is refused with a typed error at any chunk length —
/// never a panic, never an allocation past the cap — and an adequate
/// budget proves identically to the default policy with measured
/// high-water at or under it.
#[test]
fn policied_proving_respects_the_budget() {
    let fx = mul_fixture(&[[3, 7], [4, 9]]);
    let floor = Scheduler::predicted_streamed_floor_bytes(shape(fx.pcp.qap().degree()));
    for policy in [ExecPolicy::serial(), ExecPolicy::streamed(16)] {
        let starved = MemBudget::bytes(floor / 2);
        let err = prove_batch_with_policy(&fx.pcp, &fx.witnesses, &policy, starved)
            .expect_err("half the residency floor cannot hold the pipeline");
        assert_eq!(err.limit_bytes, floor / 2, "{policy:?}");
        let mut ws = ProverWorkspace::with_budget(starved).with_policy(policy);
        assert!(prove_instance_policied(&fx.pcp, &fx.witnesses[0], &mut ws).is_err());
        assert!(ws.high_water_bytes() <= floor / 2, "{policy:?} over-allocated");
    }

    let roomy = MemBudget::bytes(1 << 20);
    let (reference, _) = transcript_and_peak(&fx, Proving::Monolithic, MemBudget::unlimited());
    for proving in [Proving::Monolithic, Proving::Streamed { chunk_len: 16 }] {
        let (transcript, peak) = transcript_and_peak(&fx, proving, roomy);
        assert_eq!(transcript, reference, "{proving:?}");
        assert!(peak <= 1 << 20, "{proving:?} peaked at {peak}");
    }
}
