//! The wire-cost formula against the codec: `zaatar_network_costs`
//! must count exactly the bytes a session encodes — every length prefix
//! and the commitment group's real element width included — in both
//! directions, on a test field and on a paper field.

use zaatar_bench::cost::zaatar_network_costs;
use zaatar_cc::{ginger_to_quad, Builder};
use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_core::qap::Qap;
use zaatar_core::{ProverWorkspace, SessionProver, SessionVerifier};
use zaatar_crypto::{ChaChaPrg, HasGroup};
use zaatar_field::{PrimeField, F128, F61};
use zaatar_poly::Radix2Domain;

fn check_model_matches_encoded_session<F: PrimeField + HasGroup>() {
    // y = x·z + (x < z): a product and a comparison gadget.
    let mut b = Builder::<F>::new();
    let x = b.alloc_input();
    let z = b.alloc_input();
    let p = b.mul(&x, &z);
    let lt = b.less_than(&x, &z, 8);
    b.bind_output(&p.add(&lt));
    let (sys, solver) = b.finish();
    let t = ginger_to_quad(&sys);
    let asg = solver.solve(&[F::from_u64(3), F::from_u64(9)]).unwrap();
    let pcp: ZaatarPcp<F, Radix2Domain<F>> =
        ZaatarPcp::new(Qap::new(&t.system), PcpParams::light());
    let proof = pcp.prove(&pcp.qap().witness(&t.extend_assignment(&asg))).unwrap();

    let mut verifier = SessionVerifier::new(&pcp, &mut ChaChaPrg::from_u64_seed(6));
    let mut prover = SessionProver::new(&pcp);
    let setup = verifier.setup_message().unwrap();
    prover.receive_setup(&setup).unwrap();
    let instance = prover
        .instance_message_policied(&proof, &mut ProverWorkspace::new())
        .unwrap();

    let beta = 3;
    let model = zaatar_network_costs(&pcp, beta, true);
    assert_eq!(model.v_to_p, setup.len() as u64, "setup message");
    assert_eq!(model.p_to_v, beta * instance.len() as u64, "instance messages");
}

#[test]
fn network_model_counts_every_encoded_byte_on_f61_and_f128() {
    check_model_matches_encoded_session::<F61>();
    check_model_matches_encoded_session::<F128>();
}
