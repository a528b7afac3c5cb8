//! A fleet of verifiers against ONE multi-tenant session server.
//!
//! Where `tcp_session` pairs a single prover thread with a single
//! verifier, this example runs the [`zaatar::server`] poll loop: one
//! thread multiplexes every connection at frame granularity, leases
//! each session a pooled [`ProverWorkspace`], and sheds load with a
//! typed `ERROR(BUSY)` refusal once `max_sessions` are live. Refused
//! clients see [`SessionError::Peer`]`(BUSY)` — a decision, not a
//! timeout — and reconnect after a short backoff, so the demo also
//! exercises the graceful-degradation path end to end.
//!
//! ```text
//! cargo run --example server_fleet
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zaatar::cc::ginger_to_quad;
use zaatar::cc::lang::{compile, CompileOptions};
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::core::runtime::{errcode, prove_batch_with_policy};
use zaatar::core::runtime::run_session_verifier;
use zaatar::core::{ExecPolicy, MemBudget, SessionError};
use zaatar::crypto::ChaChaPrg;
use zaatar::field::{Field, F61};
use zaatar::server::{ServerConfig, SessionServer, TcpAcceptor};
use zaatar::transport::RetryPolicy;
use zaatar::transport::TcpTransport;

const CLIENTS: usize = 6;
const MAX_LIVE: usize = 3;

fn main() {
    // 1. The computation Ψ and the prover's batch, exactly as in
    //    `tcp_session`: proofs are constructed once, then amortized
    //    across every session the server will ever serve.
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

    // 2. One server, capped below the fleet size so backpressure
    //    engages: at most MAX_LIVE concurrent sessions, everyone else
    //    refused at the door and expected back later.
    let acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = acceptor.local_addr().expect("local addr");
    println!("server listening on {addr} (max {MAX_LIVE} live sessions, {CLIENTS} clients)");

    let stop = Arc::new(AtomicBool::new(false));
    let server_stop = Arc::clone(&stop);
    let server_pcp = pcp.clone();
    let server = std::thread::spawn(move || {
        let config = ServerConfig { max_sessions: MAX_LIVE, ..ServerConfig::default() };
        let mut server = SessionServer::new(&server_pcp, &proofs, config);
        let mut connections = 0u64;
        while !server_stop.load(Ordering::Relaxed) || server.live_sessions() > 0 {
            while let Ok(Some(transport)) = acceptor.try_accept() {
                connections += 1;
                // A rejection already sent the typed refusal frame;
                // nothing more to do on this side either way.
                let _ = server.admit(transport, "fleet");
            }
            server.poll();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(server.pool().outstanding(), 0, "workspace leak");
        (server.stats().clone(), connections)
    });

    // 3. The fleet: each tenant connects, and on a BUSY refusal backs
    //    off and reconnects — the typed frame is what makes this loop
    //    terminate fast instead of burning a full retry deadline.
    let ios = Arc::new(ios);
    let pcp = Arc::new(pcp);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let ios = Arc::clone(&ios);
            let pcp = Arc::clone(&pcp);
            std::thread::spawn(move || {
                let start = Instant::now();
                let mut refusals = 0u32;
                loop {
                    let mut transport = TcpTransport::connect(addr).expect("connect");
                    let mut prg = ChaChaPrg::from_u64_seed(0xF1EE7 + i as u64);
                    match run_session_verifier(
                        &mut transport,
                        &pcp,
                        &ios,
                        &RetryPolicy::default(),
                        &mut prg,
                    ) {
                        Ok(report) => {
                            assert!(report.all_accepted());
                            return (refusals, report.outcomes.len(), start.elapsed());
                        }
                        Err(SessionError::Peer(code)) if code == errcode::BUSY => {
                            refusals += 1;
                            std::thread::sleep(Duration::from_millis(20 * (1 << refusals.min(4))));
                        }
                        Err(e) => panic!("tenant-{i}: unexpected session error: {e}"),
                    }
                }
            })
        })
        .collect();

    for (i, handle) in handles.into_iter().enumerate() {
        let (refusals, verified, elapsed) = handle.join().expect("client thread");
        println!(
            "  tenant-{i}: ACCEPTED {verified} instances after {refusals} refusals in {elapsed:?}"
        );
    }
    stop.store(true, Ordering::Relaxed);
    let (stats, connections) = server.join().expect("server thread");

    println!(
        "server: {connections} connections, {} accepted / {} refused, \
         {} served / {} expired / {} failed, {} frames",
        stats.accepted, stats.rejected, stats.served, stats.expired, stats.failed,
        stats.frames_processed,
    );
    for (tenant, t) in &stats.per_tenant {
        println!("  {tenant}: accepted {} served {} rejected {}", t.accepted, t.served, t.rejected);
    }
    let snapshot = zaatar::server::obs_snapshot();
    for (name, value) in &snapshot.counters {
        println!("  obs {name} = {value}");
    }
    assert_eq!(stats.served, CLIENTS as u64, "every tenant eventually served");
    println!("fleet done: all {CLIENTS} tenants served");
}
