//! Cross-domain equivalence: the protocol behaves identically over the
//! NTT-friendly subgroup domain (our fast path) and the paper's literal
//! arithmetic-progression domain `σⱼ = 1..|C|` — the substitution
//! documented in DESIGN.md §3.

use zaatar::cc::lang::{compile, CompileOptions};
use zaatar::cc::ginger_to_quad;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::core::workspace::ProverWorkspace;
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, F61};
use zaatar::poly::{ArithDomain, Radix2Domain};

const SRC: &str = r"
    input a[4];
    output y;
    var acc = 0;
    for i in 0..4 {
        if (acc < a[i]) { acc = a[i] + acc * 2; }
    }
    y = acc;
";

fn witness_io(inputs: &[i64]) -> (zaatar::cc::QuadSystem<F61>, zaatar::cc::Assignment<F61>) {
    let compiled = compile::<F61>(SRC, &CompileOptions::default()).unwrap();
    let quad = ginger_to_quad(&compiled.ginger);
    let ins: Vec<F61> = inputs.iter().map(|&v| F61::from_i64(v)).collect();
    let asg = compiled.solver.solve(&ins).unwrap();
    (quad.system.clone(), quad.extend_assignment(&asg))
}

fn run_on<D: zaatar::poly::domain::EvalDomain<F61>>(
    sys: &zaatar::cc::QuadSystem<F61>,
    ext: &zaatar::cc::Assignment<F61>,
    domain: D,
    corrupt: bool,
    seed: u64,
) -> bool {
    let qap = Qap::with_domain(sys, domain);
    let mut w = qap.witness(ext);
    if corrupt {
        w.z[0] += F61::ONE;
    }
    let io: Vec<F61> = qap
        .var_map()
        .inputs()
        .iter()
        .chain(qap.var_map().outputs())
        .map(|v| ext.get(*v))
        .collect();
    let pcp = ZaatarPcp::new(qap, PcpParams::light());
    let proof = pcp.prove_unchecked(&w);
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let queries = pcp.generate_queries(&mut prg);
    let responses = pcp.answer(&proof, &queries);
    pcp.check(&queries, &responses, &io)
}

#[test]
fn domains_agree_on_honest_proofs() {
    let (sys, ext) = witness_io(&[3, 9, 1, 12]);
    for seed in 0..5 {
        assert!(run_on(&sys, &ext, Radix2Domain::new(sys.constraints.len()), false, seed));
        assert!(run_on(&sys, &ext, ArithDomain::new(sys.constraints.len()), false, seed));
    }
}

#[test]
fn domains_agree_on_cheating_proofs() {
    let (sys, ext) = witness_io(&[7, 2, 8, 4]);
    let mut radix_rejects = 0;
    let mut arith_rejects = 0;
    for seed in 0..15 {
        if !run_on(&sys, &ext, Radix2Domain::new(sys.constraints.len()), true, seed) {
            radix_rejects += 1;
        }
        if !run_on(&sys, &ext, ArithDomain::new(sys.constraints.len()), true, seed) {
            arith_rejects += 1;
        }
    }
    assert!(radix_rejects >= 14, "radix2: {radix_rejects}/15");
    assert!(arith_rejects >= 14, "arith: {arith_rejects}/15");
}

#[test]
fn quotients_agree_as_polynomials() {
    // Both domains must certify the same relation D·H = P_w even though
    // D(t), H(t) differ: cross-evaluate at random points.
    let (sys, ext) = witness_io(&[1, 2, 3, 4]);
    let q_r = Qap::with_domain(&sys, Radix2Domain::<F61>::new(sys.constraints.len()));
    let q_a = Qap::with_domain(&sys, ArithDomain::<F61>::new(sys.constraints.len()));
    let w_r = q_r.witness(&ext);
    let w_a = q_a.witness(&ext);
    let mut ws = ProverWorkspace::new();
    let h_r = q_r.compute_h_policied(&w_r, &mut ws).unwrap().expect("radix2 divides");
    let h_a = q_a.compute_h_policied(&w_a, &mut ws).unwrap().expect("arith divides");
    for tau_raw in [5u64, 1234, 987654] {
        let tau = F61::from_u64(tau_raw);
        let horner = |h: &[F61]| h.iter().rev().fold(F61::ZERO, |acc, c| acc * tau + *c);
        let er = q_r.evals_at(tau);
        let ea = q_a.evals_at(tau);
        // D·H equals the same P_w(τ) on each domain... up to each
        // domain's own D and padding, so check the defining relation
        // per-domain rather than equality of H.
        assert_eq!(er.d_tau * horner(&h_r), q_r.p_at(&er, &w_r));
        assert_eq!(ea.d_tau * horner(&h_a), q_a.p_at(&ea, &w_a));
        // And both P_w evaluations agree on the shared (unpadded)
        // constraint semantics: the witness is identical.
        assert_eq!(w_r.z, w_a.z);
        assert_eq!(w_r.io, w_a.io);
    }
}
