//! Malicious-prover soundness suite against the **deployed** verifier:
//! every adversarial message is built at byte level and judged by
//! [`SessionVerifier::verify_instance`] — the check a `SessionServer`
//! client actually trusts — next to an honest neighbour.
//!
//! Four adversaries, mirroring the soundness analysis's attack surface:
//!
//! * **bad-quotient** — a non-satisfying witness whose quotient `h`
//!   silently drops the nonzero remainder (`prove_unchecked`); caught by
//!   the divisibility correction test for all but `deg/|F|` of the τ's.
//! * **non-linear oracle** — answers `f(⟨q,u⟩)` for a non-linear `f`
//!   instead of a linear function; caught by the linearity tests *and*
//!   the commitment consistency check.
//! * **equivocation** — commits to `u`, decommits with `u′ ≠ u`; caught
//!   by `Dec(e) == g^(π(t) − Σαᵢπ(qᵢ))` unless `⟨r, u′−u⟩ = 0`
//!   (probability `1/|F|` over the verifier's secret `r`).
//! * **post-commit witness flip** — re-solves with a different witness
//!   after the commitment round and answers from the new proof; caught
//!   like equivocation, plus the PCP checks on the flipped witness.
//!
//! plus messages whose answer vectors are one element short or long
//! (a rejection, never a panic), and a **false output** claimed on a
//! circuit whose output sits in a `C` row (bound variables reach all
//! three matrices since product constraints are emitted as written).
//! Every attack rides in a batch next to
//! an honest instance, asserting that batch amortization neither leaks
//! rejections into honest instances nor lets a cheat hide behind an
//! honest neighbour. The suite runs at a reduced profile on F61 across
//! seeds and once at the paper's App. A.2 parameters on F128.

use zaatar::cc::{ginger_to_quad, Builder, LinComb};
use zaatar::core::commit::Decommitment;
use zaatar::core::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
use zaatar::core::qap::{Qap, QapWitness};
use zaatar::core::wire::{decode_prover_message, encode_prover_message, WireError};
use zaatar::core::{ProverWorkspace, SessionProver, SessionVerifier};
use zaatar::crypto::{ChaChaPrg, HasGroup};
use zaatar::field::{Field, F128, F61};
use zaatar::poly::Radix2Domain;

type Pcp<F> = ZaatarPcp<F, Radix2Domain<F>>;

/// y = a·b + min(a, b) with one satisfying witness per input pair (the
/// statement of witness `w` is `w.io`).
fn fixture<F: HasGroup>(inputs: &[[i64; 2]], params: PcpParams) -> (Pcp<F>, Vec<QapWitness<F>>) {
    let mut b = Builder::<F>::new();
    let a = b.alloc_input();
    let bb = b.alloc_input();
    let prod = b.mul(&a, &bb);
    let mn = b.min(&a, &bb, 10);
    b.bind_output(&prod.add(&mn));
    witnesses_of(b, inputs, params)
}

/// The PCP over a finished two-input circuit and one witness per pair.
fn witnesses_of<F: HasGroup>(
    b: Builder<F>,
    inputs: &[[i64; 2]],
    params: PcpParams,
) -> (Pcp<F>, Vec<QapWitness<F>>) {
    let (sys, solver) = b.finish();
    let t = ginger_to_quad(&sys);
    let pcp = ZaatarPcp::new(Qap::new(&t.system), params);
    let witnesses = inputs
        .iter()
        .map(|pair| {
            let asg = solver.solve(&pair.map(F::from_i64)).expect("solves");
            pcp.qap().witness(&t.extend_assignment(&asg))
        })
        .collect();
    (pcp, witnesses)
}

/// The reduced profile the F61 sweeps run at.
const SUITE_PARAMS: PcpParams = PcpParams { rho: 3, rho_lin: 4 };

/// A per-answer warp applied to the (z, h) decommitments before they
/// are re-encoded.
type AnswerWarp<F> = fn(&mut Decommitment<F>, &mut Decommitment<F>);

/// One batch slot: what the prover commits to, what it answers from,
/// an optional warp of the answers, and the statement it claims.
struct Slot<F> {
    committed: ZaatarProof<F>,
    answering: ZaatarProof<F>,
    warp: Option<AnswerWarp<F>>,
    io: Vec<F>,
}

/// `w` with its first unbound variable off by one: no longer satisfying.
fn broken<F: Field>(w: &QapWitness<F>) -> QapWitness<F> {
    let mut bad = w.clone();
    bad.z[0] += F::ONE;
    bad
}

impl<F: HasGroup> Slot<F> {
    /// Commits to and answers from the honest proof, warping the answers.
    fn warped(pcp: &Pcp<F>, w: &QapWitness<F>, warp: Option<AnswerWarp<F>>) -> Self {
        let proof = pcp.prove(w).expect("honest witness");
        Slot { committed: proof.clone(), answering: proof, warp, io: w.io.clone() }
    }

    fn honest(pcp: &Pcp<F>, w: &QapWitness<F>) -> Self {
        Self::warped(pcp, w, None)
    }

    /// (a) Nonzero-remainder quotient: break the witness, ship the
    /// truncated quotient anyway.
    fn bad_quotient(pcp: &Pcp<F>, w: &QapWitness<F>) -> Self {
        let proof = pcp.prove_unchecked(&broken(w));
        Slot { committed: proof.clone(), answering: proof, warp: None, io: w.io.clone() }
    }

    /// (c) Equivocation: commit to `u`, answer every query from `u′ ≠ u`.
    fn equivocating(pcp: &Pcp<F>, w: &QapWitness<F>) -> Self {
        let committed = pcp.prove(w).expect("honest witness");
        let mut answering = committed.clone();
        answering.z[0] += F::ONE;
        answering.h[0] += F::ONE;
        Slot { committed, answering, warp: None, io: w.io.clone() }
    }

    /// (d) Post-commit witness flip: commit to the honest proof, then
    /// re-derive the proof from a flipped witness and answer from that.
    fn witness_flip(pcp: &Pcp<F>, w: &QapWitness<F>) -> Self {
        Slot {
            committed: pcp.prove(w).expect("honest witness"),
            answering: pcp.prove_unchecked(&broken(w)),
            warp: None,
            io: w.io.clone(),
        }
    }
}

/// (b) Non-linear oracle: answers `a² + a` per query instead of a
/// linear function of the queries.
fn square_warp<F: Field>(dz: &mut Decommitment<F>, dh: &mut Decommitment<F>) {
    for a in dz.answers.iter_mut().chain(dh.answers.iter_mut()) {
        *a = *a * *a + *a;
    }
    dz.t_answer = dz.t_answer * dz.t_answer + dz.t_answer;
    dh.t_answer = dh.t_answer * dh.t_answer + dh.t_answer;
}

/// One z-answer short: the vector no longer matches the query count.
fn short_warp<F: Field>(dz: &mut Decommitment<F>, _: &mut Decommitment<F>) {
    dz.answers.pop();
}

/// One h-answer long.
fn long_warp<F: Field>(_: &mut Decommitment<F>, dh: &mut Decommitment<F>) {
    dh.answers.push(F::ZERO);
}

/// Runs one session over the slots. Each cheat is assembled the way a
/// malicious peer would: take the session prover's message for the
/// committed proof and the one for the answering proof, splice the
/// first's commitments onto the second's decommitments, warp, re-encode
/// — and hand those bytes to the deployed verifier.
fn run_batch<F: HasGroup>(
    pcp: &Pcp<F>,
    slots: &[Slot<F>],
    seed: u64,
) -> Vec<Result<bool, WireError>> {
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let mut verifier = SessionVerifier::new(pcp, &mut prg);
    let mut prover = SessionProver::new(pcp);
    prover.receive_setup(&verifier.setup_message().unwrap()).unwrap();
    let mut ws = ProverWorkspace::new();
    slots
        .iter()
        .map(|s| {
            let mut message = |proof: &ZaatarProof<F>| {
                let bytes = prover.instance_message_policied(proof, &mut ws).unwrap();
                decode_prover_message::<F>(&bytes).unwrap()
            };
            let (commitments, _, _) = message(&s.committed);
            let (_, mut dz, mut dh) = message(&s.answering);
            if let Some(warp) = s.warp {
                warp(&mut dz, &mut dh);
            }
            let bytes = encode_prover_message(&commitments, &dz, &dh).unwrap();
            verifier.verify_instance(&bytes, &s.io)
        })
        .collect()
}

/// Slot 0 is honest and must accept; every other slot must be a clean
/// rejection (`Ok(false)`: not an acceptance, not a decode error).
fn assert_rejected_with_honest_neighbour<F: HasGroup>(
    pcp: &Pcp<F>,
    slots: &[Slot<F>],
    seeds: &[u64],
    label: &str,
) {
    for &seed in seeds {
        let verdicts = run_batch(pcp, slots, seed);
        assert_eq!(verdicts[0], Ok(true), "{label}: honest neighbour rejected (seed {seed})");
        for (i, verdict) in verdicts.iter().enumerate().skip(1) {
            assert_eq!(*verdict, Ok(false), "{label}: adversary slot {i} (seed {seed})");
        }
    }
}

const SEEDS: [u64; 3] = [11, 29, 47];

/// One adversary next to an honest neighbour, at the suite profile on
/// F61 across the suite's seeds.
fn assert_adversary_rejected(
    inputs: [[i64; 2]; 2],
    adversary: fn(&Pcp<F61>, &QapWitness<F61>) -> Slot<F61>,
    label: &str,
) {
    let (pcp, ws) = fixture::<F61>(&inputs, SUITE_PARAMS);
    let slots = [Slot::honest(&pcp, &ws[0]), adversary(&pcp, &ws[1])];
    assert_rejected_with_honest_neighbour(&pcp, &slots, &SEEDS, label);
}

#[test]
fn bad_quotient_prover_rejected() {
    assert_adversary_rejected([[3, 7], [10, 2]], Slot::bad_quotient, "bad-quotient");
}

#[test]
fn non_linear_oracle_rejected() {
    let non_linear = |pcp: &Pcp<F61>, w: &QapWitness<F61>| Slot::warped(pcp, w, Some(square_warp));
    assert_adversary_rejected([[5, 6], [8, 1]], non_linear, "non-linear");
}

#[test]
fn commit_decommit_equivocation_rejected() {
    assert_adversary_rejected([[2, 9], [4, 4]], Slot::equivocating, "equivocation");
}

#[test]
fn post_commit_witness_flip_rejected() {
    assert_adversary_rejected([[7, 3], [6, 5]], Slot::witness_flip, "witness-flip");
}

/// `y = a·b` with the output also stated by a product gate, `a·b = y`:
/// the statement's last coordinate sits in a `C` row of the QAP.
fn product_gate_fixture(inputs: &[[i64; 2]]) -> (Pcp<F61>, Vec<QapWitness<F61>>) {
    let mut b = Builder::<F61>::new();
    let a = b.alloc_input();
    let bb = b.alloc_input();
    let prod = b.mul(&a, &bb);
    let y = b.bind_output(&prod);
    b.enforce_product(&a, &bb, &LinComb::var(y));
    witnesses_of(b, inputs, SUITE_PARAMS)
}

/// A false output where the output is a `C`-row variable: once claimed
/// over the honest proof's bytes, once with the lie carried through the
/// witness (the product variable moves with it, so the linear binding
/// `prod = y` holds and only the two product gates are violated).
#[test]
fn false_output_in_a_c_row_rejected() {
    let (pcp, ws) = product_gate_fixture(&[[3, 7], [4, 9], [5, 11]]);
    let mut claimed = Slot::honest(&pcp, &ws[1]);
    *claimed.io.last_mut().unwrap() += F61::ONE;
    let mut lie = broken(&ws[2]); // z[0] is the product variable
    *lie.io.last_mut().unwrap() += F61::ONE;
    let proof = pcp.prove_unchecked(&lie);
    let carried = Slot { committed: proof.clone(), answering: proof, warp: None, io: lie.io };
    let slots = [Slot::honest(&pcp, &ws[0]), claimed, carried];
    assert_rejected_with_honest_neighbour(&pcp, &slots, &SEEDS, "false output");
}

/// Every adversary in ONE batch behind an honest instance: the
/// batch-amortized query set must reject each independently.
fn adversary_zoo<F: HasGroup>(params: PcpParams) -> (Pcp<F>, Vec<Slot<F>>) {
    let (pcp, ws) =
        fixture::<F>(&[[3, 7], [10, 2], [5, 6], [2, 9], [6, 5], [1, 8], [9, 9]], params);
    let slots = vec![
        Slot::honest(&pcp, &ws[0]),
        Slot::bad_quotient(&pcp, &ws[1]),
        Slot::warped(&pcp, &ws[2], Some(square_warp)),
        Slot::equivocating(&pcp, &ws[3]),
        Slot::witness_flip(&pcp, &ws[4]),
        Slot::warped(&pcp, &ws[5], Some(short_warp)),
        Slot::warped(&pcp, &ws[6], Some(long_warp)),
    ];
    (pcp, slots)
}

#[test]
fn adversary_zoo_shares_one_batch() {
    let (pcp, slots) = adversary_zoo::<F61>(SUITE_PARAMS);
    assert_rejected_with_honest_neighbour(&pcp, &slots, &SEEDS, "zoo");
}

/// ROADMAP item 4 (d): the same zoo at the paper's App. A.2 parameters
/// (ρ = 8, ρ_lin = 20) on the paper's 128-bit field, one seed.
/// `tools/ci.sh`'s soundness step names this test.
#[test]
fn paper_parameter_zoo_rejected_on_f128() {
    let (pcp, slots) = adversary_zoo::<F128>(PcpParams::default());
    assert_rejected_with_honest_neighbour(&pcp, &slots, &[0x5ec], "paper-parameter zoo");
}

/// The honest end of the same pipeline: every slot honest, every slot
/// accepted — completeness guard for the harness itself (a splice that
/// broke honest messages would make every rejection above vacuous).
#[test]
fn honest_batch_accepts() {
    let (pcp, ws) = fixture::<F61>(&[[1, 2], [3, 4], [0, 0]], SUITE_PARAMS);
    let slots: Vec<_> = ws.iter().map(|w| Slot::honest(&pcp, w)).collect();
    assert_eq!(run_batch(&pcp, &slots, 5), vec![Ok(true); 3]);
}
