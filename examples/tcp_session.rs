//! A batched argument over real TCP on localhost, with a fault-tolerant
//! session runtime on both ends.
//!
//! The prover thread listens on an ephemeral port and serves proofs;
//! the verifier connects, ships the batch setup, requests each
//! instance, and prints a per-instance verdict plus channel statistics.
//! Swap the in-process thread for a second machine and the code is
//! unchanged — that is the point of the [`zaatar::transport`] layer.
//!
//! ```text
//! cargo run --example tcp_session
//! ```

use std::net::TcpListener;
use std::time::Duration;

use zaatar::cc::lang::{compile, CompileOptions};
use zaatar::cc::ginger_to_quad;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::core::runtime::{prove_batch_with_policy, run_session_prover, run_session_verifier};
use zaatar::core::{ExecPolicy, MemBudget};
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, F61};
use zaatar::transport::{RetryPolicy, TcpTransport, Transport};

fn main() {
    // 1. The computation Ψ, shared by both parties: m · n + (m == n).
    let source = r"
        input m;
        input n;
        output result;
        result = m * n + (m == n);
    ";
    let compiled = compile::<F61>(source, &CompileOptions::default()).expect("valid ZSL");
    let quad = ginger_to_quad(&compiled.ginger);
    let qap = Qap::new(&quad.system);
    let pcp = ZaatarPcp::new(qap, PcpParams::light());

    // 2. The prover executes a batch of β = 4 instances and constructs
    //    its proof vectors (step 2 of Fig. 1) — in parallel: instances
    //    are independent, so proof construction shards across workers.
    let batch: Vec<[i64; 2]> = vec![[3, 7], [5, 5], [0, 9], [12, 12]];
    let mut witnesses = Vec::new();
    let mut ios = Vec::new();
    for pair in &batch {
        let inputs: Vec<F61> = pair.iter().map(|&v| F61::from_i64(v)).collect();
        let asg = compiled.solver.solve(&inputs).expect("solvable");
        let ext = quad.extend_assignment(&asg);
        witnesses.push(pcp.qap().witness(&ext));
        ios.push(
            pcp.qap()
                .var_map()
                .inputs()
                .iter()
                .chain(pcp.qap().var_map().outputs())
                .map(|v| ext.get(*v))
                .collect::<Vec<_>>(),
        );
    }
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let policy = ExecPolicy::with_workers(workers);
    let proofs: Vec<_> = prove_batch_with_policy(&pcp, &witnesses, &policy, MemBudget::unlimited())
        .expect("unlimited budget never refuses a lease")
        .into_iter()
        .map(|p| p.expect("honest prover"))
        .collect();

    // 3. The prover listens on localhost and serves the batch.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    println!("prover listening on {addr}");
    let prover_pcp = pcp.clone();
    let prover = std::thread::spawn(move || {
        let mut transport = TcpTransport::accept(&listener).expect("accept");
        let stats =
            run_session_prover(&mut transport, &prover_pcp, &proofs, Duration::from_secs(10))
                .expect("prover session");
        (stats, transport.stats())
    });

    // 4. The verifier connects and runs the session: one setup message
    //    amortized across the batch, then one exchange per instance.
    //    Every exchange retransmits on loss under RetryPolicy.
    let mut transport = TcpTransport::connect(addr).expect("connect");
    let mut prg = ChaChaPrg::from_u64_seed(0xD1A1);
    let report = run_session_verifier(
        &mut transport,
        &pcp,
        &ios,
        &RetryPolicy::default(),
        &mut prg,
    )
    .expect("verifier session");

    for (pair, outcome) in batch.iter().zip(&report.outcomes) {
        println!("  Ψ({}, {}) → {:?}", pair[0], pair[1], outcome);
    }
    let vstats = transport.stats();
    println!(
        "verifier: {} frames / {} bytes sent, {} frames / {} bytes received, {} retransmits, {:?}",
        vstats.frames_sent,
        vstats.bytes_sent,
        vstats.frames_received,
        vstats.bytes_received,
        report.retransmits,
        report.elapsed,
    );
    let (pstats, ptransport) = prover.join().expect("prover thread");
    println!(
        "prover: served {} responses, reported {} errors, {} bytes sent",
        pstats.responses_served, pstats.errors_reported, ptransport.bytes_sent,
    );
    assert!(report.all_accepted());
    println!("verifier ACCEPTED all {} instances", report.outcomes.len());
}
