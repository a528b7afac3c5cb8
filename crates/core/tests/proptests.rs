//! Property-style tests for the protocol core: Claim A.1 (divisibility
//! iff satisfiability) and PCP completeness/soundness over random
//! circuits, witnesses, and query seeds. Driven by a small in-tree
//! deterministic generator (the build must work offline, so no external
//! proptest dependency).

use zaatar_cc::{ginger_to_quad, Builder, LinComb};
use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_core::qap::Qap;
use zaatar_crypto::ChaChaPrg;
use zaatar_field::{Field, F61};

/// Deterministic splitmix64 generator standing in for proptest.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % ((hi - lo) as u64)) as i64
    }
}

/// A random arithmetic circuit over `n_in` inputs described by a list of
/// gate specs: each gate multiplies two prior values (by index) and adds
/// a constant.
#[derive(Clone, Debug)]
struct Circuit {
    n_in: usize,
    gates: Vec<(usize, usize, i64)>,
}

fn arb_circuit(g: &mut Gen) -> Circuit {
    let n_in = 2 + (g.next_u64() % 2) as usize;
    let n_gates = 1 + (g.next_u64() % 7) as usize;
    let mut gates = Vec::new();
    for i in 0..n_gates {
        let avail = n_in + i;
        gates.push((
            (g.next_u64() as usize) % avail,
            (g.next_u64() as usize) % avail,
            g.range_i64(-4, 4),
        ));
    }
    Circuit { n_in, gates }
}

/// Builds the circuit, returning the PCP, an honest witness, and io.
fn build(
    c: &Circuit,
    inputs: &[i64],
) -> (
    ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
    zaatar_core::qap::QapWitness<F61>,
    Vec<F61>,
) {
    let mut b = Builder::<F61>::new();
    let mut values: Vec<LinComb<F61>> = (0..c.n_in).map(|_| b.alloc_input()).collect();
    for (i, j, add) in &c.gates {
        let v = b.mul(&values[*i].clone(), &values[*j].clone());
        values.push(v.add_constant(F61::from_i64(*add)));
    }
    let last = values.last().expect("at least inputs").clone();
    b.bind_output(&last);
    let (sys, solver) = b.finish();
    let t = ginger_to_quad(&sys);
    let ins: Vec<F61> = inputs.iter().map(|&v| F61::from_i64(v)).collect();
    let asg = solver.solve(&ins).expect("solvable");
    let ext = t.extend_assignment(&asg);
    let qap = Qap::new(&t.system);
    let w = qap.witness(&ext);
    let io: Vec<F61> = qap
        .var_map()
        .inputs()
        .iter()
        .chain(qap.var_map().outputs())
        .map(|v| ext.get(*v))
        .collect();
    (ZaatarPcp::new(qap, PcpParams::light()), w, io)
}

const CASES: usize = 48;

/// Claim A.1, forward: honest witnesses always divide.
#[test]
fn honest_witnesses_divide() {
    let mut g = Gen::new(1);
    for _ in 0..CASES {
        let c = arb_circuit(&mut g);
        let a = g.range_i64(-20, 20);
        let b = g.range_i64(-20, 20);
        let inputs: Vec<i64> = (0..c.n_in).map(|i| if i % 2 == 0 { a } else { b }).collect();
        let (pcp, w, _) = build(&c, &inputs);
        assert!(pcp.prove(&w).is_some());
    }
}

/// Claim A.1, converse: perturbing any single witness coordinate breaks
/// divisibility (unless the perturbed assignment happens to satisfy,
/// which a single-coordinate field perturbation of a functional circuit
/// cannot).
#[test]
fn perturbed_witnesses_do_not_divide() {
    let mut g = Gen::new(2);
    for _ in 0..CASES {
        let c = arb_circuit(&mut g);
        let a = g.range_i64(-20, 20);
        let inputs: Vec<i64> = (0..c.n_in).map(|_| a).collect();
        let (pcp, mut w, _) = build(&c, &inputs);
        if w.z.is_empty() {
            continue;
        }
        let i = (g.next_u64() as usize) % w.z.len();
        let delta = 1 + g.next_u64() % 999;
        w.z[i] += F61::from_u64(delta);
        assert!(pcp.prove(&w).is_none());
    }
}

/// PCP completeness over random circuits and seeds.
#[test]
fn pcp_completeness() {
    let mut g = Gen::new(3);
    for _ in 0..CASES {
        let c = arb_circuit(&mut g);
        let seed = g.next_u64();
        let a = g.range_i64(-20, 20);
        let inputs: Vec<i64> = (0..c.n_in).map(|i| a + i as i64).collect();
        let (pcp, w, io) = build(&c, &inputs);
        let proof = pcp.prove(&w).expect("honest");
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let queries = pcp.generate_queries(&mut prg);
        let responses = pcp.answer(&proof, &queries);
        assert!(pcp.check(&queries, &responses, &io));
    }
}

/// PCP soundness: a wrong claimed output is rejected (statistically;
/// with ρ=2 repetitions over a 61-bit field the per-seed failure
/// probability is negligible, so we assert outright).
#[test]
fn pcp_rejects_wrong_output() {
    let mut g = Gen::new(4);
    for _ in 0..CASES {
        let c = arb_circuit(&mut g);
        let seed = g.next_u64();
        let a = g.range_i64(-20, 20);
        let inputs: Vec<i64> = (0..c.n_in).map(|_| a).collect();
        let (pcp, w, mut io) = build(&c, &inputs);
        let proof = pcp.prove_unchecked(&w);
        let last = io.len() - 1;
        io[last] += F61::ONE;
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let queries = pcp.generate_queries(&mut prg);
        let responses = pcp.answer(&proof, &queries);
        assert!(!pcp.check(&queries, &responses, &io));
    }
}

/// The divisibility identity D(τ)·H(τ) = P_w(τ) holds at arbitrary
/// evaluation points for honest witnesses.
#[test]
fn divisibility_identity() {
    let mut g = Gen::new(5);
    for _ in 0..CASES {
        let c = arb_circuit(&mut g);
        let tau = F61::from_u64(g.next_u64());
        let inputs: Vec<i64> = (0..c.n_in).map(|i| i as i64 + 1).collect();
        let (pcp, w, _) = build(&c, &inputs);
        let h = pcp.prove(&w).expect("honest").h;
        let evals = pcp.qap().evals_at(tau);
        let h_tau: F61 = h.iter().rev().fold(F61::ZERO, |acc, coeff| acc * tau + *coeff);
        assert_eq!(evals.d_tau * h_tau, pcp.qap().p_at(&evals, &w));
    }
}
