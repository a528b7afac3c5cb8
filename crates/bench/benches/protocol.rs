//! Benches for the protocol phases: the prover's quotient computation,
//! query answering, commitment, and the verifier's query generation and
//! checking — on a real compiled benchmark (LCS). On the in-tree harness
//! (`zaatar_bench::harness`).

use std::hint::black_box;
use zaatar_apps::{build, Suite};
use zaatar_bench::harness::BenchGroup;
use zaatar_core::commit::{decommit, CommitmentKey};
use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_core::qap::Qap;
use zaatar_core::workspace::ProverWorkspace;
use zaatar_crypto::ChaChaPrg;
use zaatar_field::F61;

fn protocol_phases() {
    let app = Suite::Lcs(zaatar_apps::lcs::Lcs { m: 8 });
    let art = build::<F61>(&app);
    let inputs: Vec<F61> = app.gen_inputs(1);
    let asg = art.compiled.solver.solve(&inputs).unwrap();
    let ext = art.quad.extend_assignment(&asg);
    let qap = Qap::new(&art.quad.system);
    let witness = qap.witness(&ext);
    let io: Vec<F61> = qap
        .var_map()
        .inputs()
        .iter()
        .chain(qap.var_map().outputs())
        .map(|v| ext.get(*v))
        .collect();
    let pcp = ZaatarPcp::new(qap, PcpParams::light());

    let mut group = BenchGroup::new("protocol");

    group.bench("witness_solve", || {
        let a = art.compiled.solver.solve(black_box(&inputs)).unwrap();
        black_box(art.quad.extend_assignment(&a))
    });

    group.bench("prover_compute_h", || {
        black_box(pcp.qap().compute_h_policied(&witness, &mut ProverWorkspace::new()))
    });

    let proof = pcp.prove(&witness).unwrap();
    let mut prg = ChaChaPrg::from_u64_seed(2);
    let queries = pcp.generate_queries(&mut prg);

    group.bench("verifier_generate_queries", || {
        let mut p = ChaChaPrg::from_u64_seed(3);
        black_box(pcp.generate_queries(&mut p))
    });

    group.bench("prover_answer_queries", || black_box(pcp.answer(&proof, &queries)));

    let responses = pcp.answer(&proof, &queries);
    group.bench("verifier_pcp_check", || {
        black_box(pcp.check(&queries, &responses, &io))
    });

    // Commitment phases on the z-oracle.
    let mut prg = ChaChaPrg::from_u64_seed(4);
    let key = CommitmentKey::<F61>::generate(proof.z.len(), &mut prg);
    group.bench("prover_commit", || {
        black_box(CommitmentKey::<F61>::commit(&key.enc_r, &proof.z))
    });
    let zq = queries.z_queries();
    let (t, alphas) = key.consistency_query(&zq, &mut prg);
    let commitment = CommitmentKey::<F61>::commit(&key.enc_r, &proof.z);
    let d = decommit(&proof.z, &zq, &t);
    group.bench("verifier_decommit_check", || {
        black_box(key.verify(&commitment, &d.answers, d.t_answer, &alphas))
    });
}

fn main() {
    protocol_phases();
}
