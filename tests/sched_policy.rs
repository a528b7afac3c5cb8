//! Scheduler policy lockdown: (1) the chunk-length decision is the
//! policy's to make, with the covering/chunked boundary pinned;
//! (2) policy dispatch is **byte-transparent** — every combination of
//! workers and chunk length produces transcripts identical to the
//! serial covering-chunk reference.
//! A policy changes where and when work happens (threads, chunks),
//! never the field/group values that reach the wire.

use zaatar::apps::pam::Pam;
use zaatar::apps::{GadgetApp, Suite};
use zaatar::cc::{ginger_to_quad, GingerSystem};
use zaatar::core::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
use zaatar::core::qap::Qap;
use zaatar::core::runtime::{prove_batch_with_policy, prove_instance_policied};
use zaatar::core::session::{SessionProver, SessionVerifier};
use zaatar::core::testutil::mul_fixture;
use zaatar::core::workspace::ProverWorkspace;
use zaatar::crypto::{ChaChaPrg, HasGroup};
use zaatar::field::{PrimeField, F128, F220};
use zaatar::mem::MemBudget;
use zaatar::poly::domain::EvalDomain;
use zaatar::poly::Radix2Domain;
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

/// FNV-1a (64-bit) over `SETUP ‖ INSTANCE_RESP…` of one session run
/// from `seed`, every instance served under `policy` and verified.
fn session_digest<F, D>(
    pcp: &ZaatarPcp<F, D>,
    proofs: &[ZaatarProof<F>],
    ios: &[Vec<F>],
    seed: u64,
    policy: ExecPolicy,
) -> u64
where
    F: HasGroup + PrimeField,
    D: EvalDomain<F>,
{
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let mut verifier = SessionVerifier::new(pcp, &mut prg);
    let setup = verifier.setup_message().expect("setup");
    let mut prover = SessionProver::new(pcp);
    prover.receive_setup(&setup).expect("valid setup");
    let mut ws = ProverWorkspace::new().with_policy(policy);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    absorb(&setup);
    for (proof, io) in proofs.iter().zip(ios) {
        let msg = prover.instance_message_policied(proof, &mut ws).expect("serve");
        assert!(verifier.verify_instance(&msg, io).expect("well-formed message"));
        absorb(&msg);
    }
    digest
}

/// The golden transcripts: a whole session's wire bytes, digested, must
/// equal constants recorded at a *parent* commit, never by the change
/// they judge. In-process differentials compare two runs of the same
/// build, so they cannot see a keygen whose output depends on the
/// process-wide worker count, nor a kernel that changes an element's
/// encoding on both sides at once; a constant can. `ci.sh` reruns this
/// under `ZAATAR_WORKERS=1` and `=4`.
///
/// The constants were first recorded before the group layer was rewritten
/// (PR 19's parent) and re-recorded once since, when `ginger_to_quad`
/// began emitting product constraints as written: in a scratch clone of
/// that change's parent (`58b939d`), with the then-ablation
/// `ginger_to_quad_optimized` swapped into `circuit_fixture_with` and
/// into the MatMul fixture below (release and dev, `ZAATAR_WORKERS`
/// unset / 1 / 4, equal under all three policies). Both circuits hold
/// single products only, where the two transforms agree byte for byte,
/// so reproducing them here shows the encoding moved and nothing else in
/// the transcript did.
#[test]
fn golden_transcripts_match_the_recorded_digests() {
    const GOLDEN_F61_MUL: u64 = 5343036814905860250;
    const GOLDEN_F128_MAT_MUL: u64 = 16437996927366332019;
    let policies = [ExecPolicy::serial(), ExecPolicy::with_workers(2), ExecPolicy::streamed(16)];

    // (i) The F61 product circuit over the 256-bit test group.
    let fx = mul_fixture(&[[3, 7], [4, 9], [5, 11]]);
    for policy in policies {
        assert_eq!(
            session_digest(&fx.pcp, &fx.proofs, &fx.ios, 0x0060_1DE2, policy),
            GOLDEN_F61_MUL,
            "F61 transcript moved under {policy:?}"
        );
    }

    // (ii) A gadget-zoo circuit on F128: the 1024-bit production group.
    let app = GadgetApp::MatMul;
    let (sys, solver) = app.build::<F128>();
    let transform = ginger_to_quad(&sys);
    let pcp: ZaatarPcp<F128, Radix2Domain<F128>> =
        ZaatarPcp::new(Qap::new(&transform.system), PcpParams::light());
    let (mut proofs, mut ios) = (Vec::new(), Vec::new());
    for seed in 0..2u64 {
        let asg = solver.solve(&app.gen_inputs::<F128>(seed)).expect("in-range inputs");
        let ext = transform.extend_assignment(&asg);
        proofs.push(pcp.prove(&pcp.qap().witness(&ext)).expect("honest instance"));
        let vars = pcp.qap().var_map();
        ios.push(vars.inputs().iter().chain(vars.outputs()).map(|v| ext.get(*v)).collect());
    }
    for policy in policies {
        assert_eq!(
            session_digest(&pcp, &proofs, &ios, 0x0060_1DE3, policy),
            GOLDEN_F128_MAT_MUL,
            "F128 transcript moved under {policy:?}"
        );
    }
}

/// The golden set-up messages at the paper's parameters
/// (`PcpParams::default()`): FNV-1a of `SessionVerifier::setup_message()`
/// for `single_f220`'s circuit (PAM m=4, d=3) on F220 and for the
/// hash-chain gadget on F128. Keygen's `r` and `k`, every query row and
/// the αs reach these bytes through `t`, at sizes past the PRG's
/// sharding threshold, so a sharded draw that lands one word off moves
/// them. The constants were recorded in a scratch clone of `f236d23`,
/// the parent of the change that shards the PRG and query generation,
/// before any code changed (release and dev, `ZAATAR_WORKERS` unset / 1
/// / 4, all equal).
#[test]
fn golden_setup_messages_match_the_recorded_digests() {
    const GOLDEN_F220_PAM_SETUP: u64 = 3085312780646069345;
    const GOLDEN_F128_HASH_CHAIN_SETUP: u64 = 4003578537301162547;
    fn setup_digest<F: HasGroup + PrimeField>(sys: &GingerSystem<F>) -> u64 {
        let transform = ginger_to_quad(sys);
        let pcp: ZaatarPcp<F, Radix2Domain<F>> =
            ZaatarPcp::new(Qap::new(&transform.system), PcpParams::default());
        let mut prg = ChaChaPrg::from_u64_seed(20130415);
        let setup = SessionVerifier::new(&pcp, &mut prg).setup_message().expect("setup");
        setup.iter().fold(0xcbf2_9ce4_8422_2325u64, |d, &b| (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    }
    let pam = zaatar::apps::build::<F220>(&Suite::Pam(Pam { m: 4, d: 3 }));
    assert_eq!(setup_digest(&pam.compiled.ginger), GOLDEN_F220_PAM_SETUP, "F220 PAM set-up moved");
    let (hash_chain, _) = GadgetApp::HashChain.build::<F128>();
    assert_eq!(setup_digest(&hash_chain), GOLDEN_F128_HASH_CHAIN_SETUP, "F128 hash-chain set-up moved");
}

/// A two-worker instance runs its two ciphertext components on two
/// bucket buffers and its answer rows in two shards — all of it leased
/// from the workspace, where the tenant budget can see it: the group
/// pool's peak at most doubles, the field pool's does not move, and the
/// bytes are the serial run's.
#[test]
fn a_split_instance_leases_from_the_workspace_and_at_most_doubles_the_group_pool() {
    let fx = mul_fixture(&[[3, 7], [4, 9]]);
    let mut prg = ChaChaPrg::from_u64_seed(0xA11CE);
    let setup = SessionVerifier::new(&fx.pcp, &mut prg).setup_message().expect("setup");
    let mut prover = SessionProver::new(&fx.pcp);
    prover.receive_setup(&setup).expect("valid setup");
    let serve = |policy: ExecPolicy| {
        let mut ws = ProverWorkspace::new().with_policy(policy);
        let msgs: Vec<Vec<u8>> = fx
            .proofs
            .iter()
            .map(|proof| prover.instance_message_policied(proof, &mut ws).expect("serve"))
            .collect();
        (msgs, ws.group_scratch().high_water_bytes(), ws.scratch().high_water_bytes())
    };
    let (serial_msgs, serial_group, serial_field) = serve(ExecPolicy::serial());
    let (split_msgs, split_group, split_field) = serve(ExecPolicy::with_workers(2));
    assert_eq!(split_msgs, serial_msgs);
    assert!(serial_group > 0);
    assert!(
        (serial_group..=2 * serial_group).contains(&split_group),
        "group pool peaked at {split_group} B against {serial_group} B serial"
    );
    assert_eq!(split_field, serial_field);
}
