//! Quickstart: outsource a small computation and verify the result.
//!
//! A verifier writes the computation in ZSL, ships inputs to an
//! untrusted prover, and checks the returned output via the Zaatar
//! argument (compile → solve → commit → query → check; Fig. 1 of the
//! paper).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use zaatar::cc::lang::{compile, CompileOptions};
use zaatar::cc::numeric::decode_i64;
use zaatar::cc::ginger_to_quad;
use zaatar::core::argument::run_batched_argument;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::field::{Field, F128};

fn main() {
    // 1. The computation Ψ: sum of squares above a threshold.
    let source = r"
        input xs[4];
        input threshold;
        output result;
        var total = 0;
        for i in 0..4 {
            total = total + xs[i] * xs[i];
        }
        if (total < threshold) { result = 0; } else { result = total; }
    ";
    let compiled = compile::<F128>(source, &CompileOptions::default()).expect("valid ZSL");
    println!(
        "compiled: {} constraints, {} variables",
        compiled.ginger.constraints.len(),
        compiled.ginger.vars.len()
    );

    // 2. Transform to quadratic form and build the QAP (§3, §4).
    let quad = ginger_to_quad(&compiled.ginger);
    let qap = Qap::new(&quad.system);
    println!(
        "quadratic form: {} constraints ({} product variables introduced), QAP degree {}",
        quad.system.constraints.len(),
        quad.k2(),
        qap.degree()
    );

    // 3. The prover executes Ψ, obtaining the output and a satisfying
    //    assignment (step 2 of Fig. 1).
    let inputs: Vec<F128> = [3i64, 1, 4, 1, 20]
        .iter()
        .map(|&v| F128::from_i64(v))
        .collect();
    let assignment = compiled.solver.solve(&inputs).expect("solvable");
    let extended = quad.extend_assignment(&assignment);
    let output = assignment.extract(compiled.solver.outputs())[0];
    println!("prover claims: result = {}", decode_i64(output).unwrap());

    // 4. Run the argument: commitment, queries, checks (step 3).
    let witness = qap.witness(&extended);
    let io: Vec<F128> = qap
        .var_map()
        .inputs()
        .iter()
        .chain(qap.var_map().outputs())
        .map(|v| extended.get(*v))
        .collect();
    let pcp = ZaatarPcp::new(qap, PcpParams::default());
    // `prove` is the one prover pipeline (witness → quotient) run on a
    // throwaway workspace; batches and long-lived provers run the same
    // pipeline through `runtime::prove_batch_with_policy` /
    // `prove_instance_policied` over reused, policy-stamped workspaces.
    let proof = pcp.prove(&witness).expect("honest prover");
    println!(
        "proof vector: |z| = {}, |h| = {} (vs Ginger's |z| + |z|^2 = {})",
        proof.z.len(),
        proof.h.len(),
        proof.z.len() + proof.z.len() * proof.z.len()
    );
    let result = run_batched_argument(&pcp, &[proof], &[io], 42);
    assert!(result.accepted[0]);
    println!(
        "verifier ACCEPTED (prover: {:?}, verifier setup: {:?})",
        result.prover_total,
        result.verifier_setup
    );
}
