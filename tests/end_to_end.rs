//! Workspace integration tests: the complete pipeline — ZSL program →
//! constraints → quadratic form → QAP → batched argument — across all
//! five benchmark applications.

use zaatar::apps::{build, Suite};
use zaatar::cc::numeric::decode_i64;
use zaatar::core::argument::run_batched_argument;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::field::{Field, F61};

/// Builds proofs + ios for a batch of instances of one app.
#[allow(clippy::type_complexity)]
fn prepare(
    app: &Suite,
    seeds: &[u64],
) -> (
    ZaatarPcp<F61, zaatar::poly::Radix2Domain<F61>>,
    Vec<zaatar::core::pcp::ZaatarProof<F61>>,
    Vec<Vec<F61>>,
) {
    let art = build::<F61>(app);
    let qap = Qap::new(&art.quad.system);
    let pcp = ZaatarPcp::new(qap, PcpParams::light());
    let mut proofs = Vec::new();
    let mut ios = Vec::new();
    for &seed in seeds {
        let inputs: Vec<F61> = app.gen_inputs(seed);
        let asg = art.compiled.solver.solve(&inputs).expect("solvable");
        let ext = art.quad.extend_assignment(&asg);
        let w = pcp.qap().witness(&ext);
        proofs.push(pcp.prove(&w).expect("honest"));
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
    (pcp, proofs, ios)
}

#[test]
fn all_benchmarks_verify_through_the_argument() {
    for app in Suite::all_small() {
        let (pcp, proofs, ios) = prepare(&app, &[0, 1]);
        let result = run_batched_argument(&pcp, &proofs, &ios, 99);
        assert_eq!(result.accepted, vec![true, true], "{}", app.name());
    }
}

#[test]
fn all_benchmarks_reject_wrong_outputs() {
    for app in Suite::all_small() {
        let (pcp, proofs, mut ios) = prepare(&app, &[2]);
        let last = ios[0].len() - 1;
        ios[0][last] += F61::ONE;
        let result = run_batched_argument(&pcp, &proofs, &ios, 100);
        assert!(!result.accepted[0], "{} accepted a lie", app.name());
    }
}

#[test]
fn all_benchmarks_reject_wrong_inputs() {
    // Claiming a different input x must also fail: the io binding covers
    // inputs as well as outputs.
    for app in Suite::all_small() {
        let (pcp, proofs, mut ios) = prepare(&app, &[3]);
        ios[0][0] += F61::ONE;
        let result = run_batched_argument(&pcp, &proofs, &ios, 101);
        assert!(!result.accepted[0], "{} accepted wrong input", app.name());
    }
}

#[test]
fn verified_outputs_equal_native_execution() {
    // The value the argument certifies is the value the native program
    // computes.
    for app in Suite::all_small() {
        let art = build::<F61>(&app);
        let inputs: Vec<F61> = app.gen_inputs(7);
        let raw: Vec<i64> = inputs
            .iter()
            .map(|v| decode_i64::<F61>(*v).expect("small"))
            .collect();
        let asg = art.compiled.solver.solve(&inputs).unwrap();
        let outs: Vec<i64> = asg
            .extract(art.compiled.solver.outputs())
            .into_iter()
            .map(|v| decode_i64(v).expect("small"))
            .collect();
        assert_eq!(outs, app.reference(&raw), "{}", app.name());
    }
}

#[test]
fn one_bad_instance_does_not_poison_the_batch() {
    let app = Suite::all_small().remove(4); // LCS.
    let (pcp, mut proofs, ios) = prepare(&app, &[0, 1, 2]);
    // Corrupt the middle instance's proof.
    proofs[1].h[0] += F61::ONE;
    let result = run_batched_argument(&pcp, &proofs, &ios, 55);
    assert_eq!(result.accepted, vec![true, false, true]);
}

#[test]
fn batch_reuses_one_query_set() {
    // Same query set verifies instances with very different inputs —
    // the amortization the paper's break-even analysis depends on.
    let app = Suite::all_small().remove(2); // APSP.
    let seeds: Vec<u64> = (0..5).collect();
    let (pcp, proofs, ios) = prepare(&app, &seeds);
    let result = run_batched_argument(&pcp, &proofs, &ios, 7);
    assert_eq!(result.accepted, vec![true; 5]);
    // Setup happened once; per-instance checking is far cheaper.
    assert!(result.verifier_setup > result.verifier_check / 5);
}
