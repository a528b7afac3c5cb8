//! ZSL playground: compile and verifiably run a ZSL program from a file
//! (or a built-in demo), printing the compilation pipeline's artifacts.
//!
//! ```text
//! cargo run --example zsl_playground -- path/to/program.zsl 3 4 5
//! cargo run --example zsl_playground            # built-in demo
//! ```
//!
//! The integer arguments after the path are the program's inputs, in
//! declaration order.

use zaatar::cc::lang::{compile, CompileOptions};
use zaatar::cc::numeric::decode_i64;
use zaatar::cc::{ginger_stats, ginger_to_quad, quad_stats};
use zaatar::core::argument::run_batched_argument;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::core::soundness;
use zaatar::field::{Field, PrimeField, F128};

const DEMO: &str = r"
// Demo: verified dot product with a threshold flag.
input a[3];
input b[3];
output dot;
output above;
dot = a[0]*b[0] + a[1]*b[1] + a[2]*b[2];
above = dot > 100;
";

const DEMO_INPUTS: [i64; 6] = [3, 4, 5, 10, 9, 8];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (source, inputs): (String, Vec<i64>) = if args.is_empty() {
        (DEMO.to_string(), DEMO_INPUTS.to_vec())
    } else {
        let src = std::fs::read_to_string(&args[0])
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", args[0]));
        let ins = args[1..]
            .iter()
            .map(|s| s.parse().unwrap_or_else(|e| panic!("bad input {s}: {e}")))
            .collect();
        (src, ins)
    };

    println!("--- source ---\n{}", source.trim());
    let compiled = compile::<F128>(&source, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("compile error: {e}"));
    let gstats = ginger_stats(&compiled.ginger);
    println!("\n--- Ginger encoding ---");
    println!(
        "constraints: {}, |Z|: {}, K: {}, K2: {} (K2* = {})",
        gstats.num_constraints,
        gstats.num_unbound,
        gstats.k_terms,
        gstats.k2_distinct,
        gstats.k2_star()
    );

    let quad = ginger_to_quad(&compiled.ginger);
    let zstats = quad_stats(&quad.system);
    println!("\n--- Zaatar (quadratic form) encoding ---");
    println!(
        "constraints: {}, |Z|: {} — proof length {} vs Ginger's {}",
        zstats.num_constraints,
        zstats.num_unbound,
        zstats.zaatar_proof_len(),
        gstats.ginger_proof_len(),
    );
    println!(
        "hybrid encoding choice: {}",
        if gstats.prefer_zaatar() { "Zaatar" } else { "Ginger (degenerate K2)" }
    );

    let ins: Vec<F128> = inputs.iter().map(|&v| F128::from_i64(v)).collect();
    let asg = compiled
        .solver
        .solve(&ins)
        .unwrap_or_else(|e| panic!("solve error: {e}"));
    assert!(compiled.ginger.is_satisfied(&asg), "internal: unsatisfied");
    println!("\n--- execution ---");
    for (i, out) in asg.extract(compiled.solver.outputs()).iter().enumerate() {
        match decode_i64(*out) {
            Some(v) => println!("output[{i}] = {v}"),
            None => println!("output[{i}] = {out} (field element)"),
        }
    }

    // Verify through the full argument.
    let ext = quad.extend_assignment(&asg);
    let qap = Qap::new(&quad.system);
    let io: Vec<F128> = qap
        .var_map()
        .inputs()
        .iter()
        .chain(qap.var_map().outputs())
        .map(|v| ext.get(*v))
        .collect();
    let params = PcpParams::default();
    let pcp = ZaatarPcp::new(qap, params);
    let witness = pcp.qap().witness(&ext);
    let proof = pcp.prove(&witness).expect("satisfying witness");
    let result = run_batched_argument(&pcp, &[proof], &[io], 0xcafe);
    println!("\n--- verification ---");
    println!(
        "accepted: {} (soundness error < {:.1e})",
        result.accepted[0],
        soundness::argument_error(
            params,
            pcp.qap().degree() as f64,
            F128::NUM_BITS,
        )
    );
    assert!(result.accepted[0]);
}
