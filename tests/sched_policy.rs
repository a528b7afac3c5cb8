//! Scheduler policy lockdown: (1) the monolithic-vs-streaming decision
//! is the policy's to make, with the boundary pinned where the bench
//! measured it; (2) policy dispatch is **byte-transparent** — every
//! combination of workers and proving pipeline produces transcripts
//! identical to the serial monolithic reference.
//! A policy changes where and when work happens (threads, chunks),
//! never the field/group values that reach the wire.

use zaatar::core::runtime::prove_batch_with_policy;
use zaatar::core::session::{SessionProver, SessionVerifier};
use zaatar::core::testutil::mul_fixture;
use zaatar::core::workspace::ProverWorkspace;
use zaatar::crypto::ChaChaPrg;
use zaatar::mem::MemBudget;
use zaatar::sched::{ExecPolicy, HostProfile, MicroCosts, Proving, Scheduler, WorkloadShape};

fn shape(domain_size: usize) -> WorkloadShape {
    WorkloadShape { domain_size, batch: 1, elem_bytes: 8 }
}

/// Satellite regression: under an unlimited budget the scheduler stays
/// monolithic while the predicted working set is cache-resident
/// (n = 1024, the bench's chain-160 stream size) and switches to
/// streaming only past the residency threshold (n = 4096, chain 640) —
/// and under a finite budget, streaming engages exactly when the
/// predicted monolithic peak no longer fits.
#[test]
fn policy_decides_monolithic_vs_streaming() {
    let sched = Scheduler::new(HostProfile::synthetic(1, 25_000.0), MicroCosts::paper_128());

    // Unlimited budget, cache-resident working set: monolithic.
    assert_eq!(
        sched.policy(shape(1024), MemBudget::unlimited()).proving,
        Proving::Monolithic,
        "chain-160 working set (80 KiB) is cache-resident; monolithic measured faster"
    );
    // Unlimited budget, working set past cache residency: streamed.
    assert!(
        matches!(
            sched.policy(shape(4096), MemBudget::unlimited()).proving,
            Proving::Streamed { .. }
        ),
        "chain-640 working set (320 KiB) falls out of cache; streaming measured faster"
    );

    // A budget exactly at the predicted peak still runs monolithic;
    // one byte less forces streaming with a sane chunk.
    let peak = Scheduler::predicted_monolithic_peak_bytes(shape(1024));
    assert_eq!(
        sched.policy(shape(1024), MemBudget::bytes(peak)).proving,
        Proving::Monolithic
    );
    let Proving::Streamed { chunk_len } =
        sched.policy(shape(1024), MemBudget::bytes(peak - 1)).proving
    else {
        panic!("budget below predicted peak must stream");
    };
    assert!((16..=1024).contains(&chunk_len), "chunk_len {chunk_len} out of range");
}

/// The scheduler's worker decision can never be slower than serial by
/// construction, and honors the batch as a ceiling.
#[test]
fn scheduled_workers_never_exceed_batch_or_host() {
    let sched = Scheduler::new(HostProfile::synthetic(8, 25_000.0), MicroCosts::paper_128());
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

        // Reference: the serial monolithic pipeline over one workspace.
        let reference = &fx.proofs;

        // Both pipelines (streamed at a ragged and at a covering chunk),
        // each serial and at four workers.
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
            // same bytes a plain monolithic serve would.
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

/// A streaming policy under a budget that cannot even hold the
/// streamed floor surfaces a typed budget error instead of allocating
/// past the cap — and the same shape under an adequate budget proves
/// identically to monolithic.
#[test]
fn policied_streaming_respects_the_budget() {
    let fx = mul_fixture(&[[3, 7], [4, 9]]);
    let starved = prove_batch_with_policy(
        &fx.pcp,
        &fx.witnesses,
        &ExecPolicy::streamed(16),
        MemBudget::bytes(8),
    );
    assert!(starved.is_err(), "an 8-byte budget cannot hold any stage buffer");

    let roomy = prove_batch_with_policy(
        &fx.pcp,
        &fx.witnesses,
        &ExecPolicy::streamed(16),
        MemBudget::bytes(1 << 20),
    )
    .expect("1 MiB fits the light fixture");
    for (got, want) in roomy.iter().zip(fx.proofs.iter()) {
        let got = got.as_ref().expect("satisfying witness");
        assert_eq!((&got.z, &got.h), (&want.z, &want.h));
    }
}
