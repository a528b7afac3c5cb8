//! Batch verification of a realistic workload: the verifier outsources
//! β instances of all-pairs shortest paths (one of the paper's
//! benchmarks) and amortizes its query-construction cost over the batch
//! (§2.2's batching model — "large-scale simulations in scientific
//! computing often have repeated structure").
//!
//! ```text
//! cargo run --release --example batch_outsourcing
//! ```

use zaatar::apps::{build, Suite};
use zaatar::apps::apsp::Apsp;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::core::{prove_instance_policied, ProverWorkspace, SessionProver, SessionVerifier};
use zaatar::crypto::ChaChaPrg;
use zaatar::field::F128;
use zaatar::obs::Snapshot;

fn main() {
    let beta = 8;
    let app = Suite::Apsp(Apsp { m: 5 });
    println!("outsourcing {beta} instances of {} ({})", app.name(), app.params());

    let art = build::<F128>(&app);
    println!(
        "encoding: |Z_ginger| = {}, |C_zaatar| = {}, proof length {} (Ginger's would be {})",
        art.ginger_stats.num_unbound,
        art.zaatar_stats.num_constraints,
        art.zaatar_stats.zaatar_proof_len(),
        art.ginger_stats.ginger_proof_len(),
    );

    let qap = Qap::new(&art.quad.system);
    let pcp = ZaatarPcp::new(qap, PcpParams::default());

    // Verifier: one-time batch setup (commitment keys + queries), shipped
    // to the prover as one encoded message (Fig. 2, step 1 + 3).
    let mut prg = ChaChaPrg::from_u64_seed(2024);
    let mut verifier = SessionVerifier::new(&pcp, &mut prg);
    let after_setup = zaatar::obs::snapshot();
    let mut prover = SessionProver::new(&pcp);
    let setup = verifier.setup_message().expect("fits the wire format");
    prover.receive_setup(&setup).expect("valid setup");

    // Prover: solve, prove, commit and answer each instance; each reply
    // is one encoded message checked against the SAME query set.
    let mut ws = ProverWorkspace::new();
    let mut solve = std::time::Duration::ZERO;
    let (mut accepted, mut proof_bytes) = (0, 0);
    for i in 0..beta {
        let inputs: Vec<F128> = app.gen_inputs(i as u64);
        let start = std::time::Instant::now();
        let asg = art.compiled.solver.solve(&inputs).expect("solvable");
        solve += start.elapsed();
        let witness = pcp.qap().witness(&art.quad.extend_assignment(&asg));
        let proof = prove_instance_policied(&pcp, &witness, &mut ws)
            .expect("unlimited budget")
            .expect("satisfying witness");
        let msg = prover.instance_message_policied(&proof, &mut ws).expect("unlimited budget");
        proof_bytes += msg.len();
        // `witness.io` is the statement: inputs then outputs in QAP order.
        if verifier.verify_instance(&msg, &witness.io).expect("well-formed message") {
            accepted += 1;
        }
    }
    println!(
        "accepted {accepted}/{beta} instances ({} B set-up, {} B of proofs on the wire)",
        setup.len(),
        proof_bytes
    );
    assert_eq!(accepted, beta);

    // The economics of batching (§2.2's break-even notion), read from the
    // spans the session path records — the ones Fig. 5 is cut from.
    let secs = |snap: &Snapshot, spans: &[&str]| -> f64 {
        let ns = |n: &&str| snap.timers.get(*n).map_or(0, |t| t.total_ns);
        spans.iter().map(ns).sum::<u64>() as f64 * 1e-9
    };
    // Only the verifier's set-up had run when `after_setup` was taken.
    let setup_spans = ["commit.keygen", "pcp.generate_queries", "commit.consistency_query"];
    let setup = secs(&after_setup, &setup_spans);
    let end = zaatar::obs::snapshot();
    println!(
        "verifier: setup {:.3} s (amortized {:.3} s/instance at beta={beta}), checks {:.4} s/instance",
        setup,
        setup / beta as f64,
        secs(&end, &["commit.verify", "pcp.check"]) / beta as f64
    );
    println!(
        "prover:   solve {:.3?}, construct {:.3} s, crypto {:.3} s, answer {:.3} s (batch totals)",
        solve,
        secs(&end, &["pcp.prove"]),
        secs(&end, &["commit.commit"]),
        secs(&end, &["pcp.answer"]),
    );
}
