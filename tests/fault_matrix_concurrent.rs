//! The fault matrix, multi-tenant edition: the same 1008 seeded
//! fault scenarios as `tests/fault_matrix.rs`, but every session runs
//! against ONE shared [`SessionServer`] instance, in waves of 8
//! concurrent clients. The serial sweep proves the protocol survives a
//! hostile channel; this sweep proves the *server* does, with zero
//! cross-session interference:
//!
//! 1. every serial invariant still holds per session (no false accept,
//!    no honest reject, bounded termination, no server panic);
//! 2. instance responses are byte-identical to a reference prover fed
//!    the same setup — concurrency and workspace reuse leave no
//!    fingerprint on the transcript;
//! 3. the shared workspace pool never leaks: zero outstanding leases
//!    after the drain, and a footprint bounded (≤ 2× warmup plateau)
//!    across ~1000 session churns.
//!
//! Every run sweeps all 1008 scenarios.

use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zaatar_core::runtime::{msg, run_session_verifier, VerifyOutcome};
use zaatar_core::testutil::{mul_fixture, CircuitFixture};
use zaatar_core::{ProverWorkspace, SessionProver, SessionVerifier};
use zaatar_crypto::ChaChaPrg;
use zaatar_field::{Field, F61};
use zaatar_server::{Admission, ServerConfig, ServerStats, SessionServer};
use zaatar_transport::{
    exchange, faulty_loopback_pair, FaultConfig, FaultKind, FaultyTransport, Frame, LoopbackLink,
    RetryPolicy, Transport,
};

fn fixture() -> CircuitFixture {
    mul_fixture(&[[3, 7], [5, 11]])
}

/// A single-circuit setup blob in the C = 1 `HSETUP` envelope a session
/// sends: `u32 1 ‖ u32 len ‖ blob ‖ u32 β ‖ β × u32 0`.
fn hsetup_envelope(blob: &[u8], batch: usize) -> Vec<u8> {
    let mut out = [1, blob.len() as u32].map(u32::to_le_bytes).concat();
    out.extend_from_slice(blob);
    out.extend((batch as u32).to_le_bytes());
    out.resize(out.len() + 4 * batch, 0);
    out
}

#[derive(Clone, Copy, Debug)]
struct Scenario {
    seed: u64,
    kind: FaultKind,
    fault_v_to_p: bool,
    target_send: u64,
    honest: bool,
}

/// The exact scenario enumeration of the serial sweep (same seeds, same
/// honest/lying alternation), so both sweeps cover identical ground.
fn all_scenarios() -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    let mut flip = false;
    for seed in 0..42u64 {
        for kind in FaultKind::ALL {
            for fault_v_to_p in [true, false] {
                for target_send in [0u64, 1] {
                    flip = !flip;
                    scenarios.push(Scenario {
                        seed: seed * 1000 + kind as u64 * 10 + target_send,
                        kind,
                        fault_v_to_p,
                        target_send,
                        honest: flip,
                    });
                }
            }
        }
    }
    scenarios
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_secs(5),
        initial_timeout: Duration::from_millis(10),
        backoff_factor: 2,
        max_timeout: Duration::from_millis(200),
        max_retransmits: 10,
    }
}

#[derive(Default)]
struct Tally {
    scenarios: u64,
    instances: u64,
    accepted: u64,
    timed_out: u64,
    fatal_sessions: u64,
}

/// What the server thread reports after draining everything.
struct ServerReport {
    stats: ServerStats,
    outstanding: usize,
    final_footprint: usize,
    plateau_footprint: Option<usize>,
    /// Largest footprint observed after the plateau sample was taken.
    post_plateau_high_water: usize,
}

/// Runs one server on its own thread, admitting every transport that
/// arrives on `rx` until the channel closes and all sessions drain.
fn serve_all(
    fx: &CircuitFixture,
    rx: mpsc::Receiver<FaultyTransport<LoopbackLink>>,
    plateau_after: u64,
) -> ServerReport {
    let config = ServerConfig {
        max_sessions: 64,
        session_budget: Duration::from_secs(20),
        idle_timeout: Duration::from_secs(8),
        ..ServerConfig::default()
    };
    let mut server = SessionServer::new(&fx.pcp, &fx.proofs, config);
    let mut finished = 0u64;
    let mut plateau: Option<usize> = None;
    let mut post_plateau_high_water = 0usize;
    let mut closed = false;
    loop {
        loop {
            match rx.try_recv() {
                Ok(transport) => {
                    let admission = server.admit(transport, "matrix");
                    assert!(
                        matches!(admission, Admission::Admitted(_)),
                        "nominal load must never be refused: {admission:?}"
                    );
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    closed = true;
                    break;
                }
            }
        }
        let batch = server.poll();
        finished += batch.len() as u64;
        if plateau.is_none() && finished >= plateau_after {
            plateau = Some(server.workspace_footprint_bytes());
        }
        if plateau.is_some() {
            post_plateau_high_water =
                post_plateau_high_water.max(server.workspace_footprint_bytes());
        }
        if closed && server.live_sessions() == 0 {
            break;
        }
        if batch.is_empty() {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    ServerReport {
        stats: server.stats().clone(),
        outstanding: server.pool().outstanding(),
        final_footprint: server.workspace_footprint_bytes(),
        plateau_footprint: plateau,
        post_plateau_high_water,
    }
}

/// One client-side scenario against the shared server: identical
/// invariants to the serial sweep's `run_scenario`, minus the per-run
/// prover thread (the server is everyone's prover now).
fn run_client(fx: &CircuitFixture, sc: Scenario, mut vt: FaultyTransport<LoopbackLink>) -> Tally {
    let mut tally = Tally::default();
    let mut ios = fx.ios.clone();
    if !sc.honest {
        let last = ios[1].len() - 1;
        ios[1][last] += F61::ONE;
    }
    let mut prg = ChaChaPrg::from_u64_seed(sc.seed ^ 0xFA17);
    let started = Instant::now();
    let result = run_session_verifier(&mut vt, &fx.pcp, &ios, &policy(), &mut prg);
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(16), "{sc:?}: session ran {elapsed:?}");

    tally.scenarios += 1;
    match result {
        Ok(report) => {
            assert_eq!(report.outcomes.len(), ios.len(), "{sc:?}");
            for (i, outcome) in report.outcomes.iter().enumerate() {
                tally.instances += 1;
                match outcome {
                    VerifyOutcome::Accepted => {
                        assert!(sc.honest || i != 1, "{sc:?}: accepted an invalid proof claim");
                        tally.accepted += 1;
                    }
                    VerifyOutcome::Rejected => {
                        assert!(!(sc.honest || i != 1), "{sc:?}: rejected an honest instance");
                    }
                    VerifyOutcome::Malformed(e) => panic!("{sc:?}: instance {i} malformed: {e}"),
                    VerifyOutcome::TimedOut => tally.timed_out += 1,
                }
            }
        }
        Err(_) => tally.fatal_sessions += 1,
    }
    tally
}

#[test]
fn fault_matrix_concurrent_against_one_server() {
    let fx = Arc::new(fixture());
    let scenarios = all_scenarios();
    assert!(scenarios.len() >= 1000, "sweep too small: {}", scenarios.len());
    const WAVE: usize = 8;

    let fault_config = FaultConfig {
        max_delay: Duration::from_millis(20),
        ..FaultConfig::none()
    };
    let (tx, rx) = mpsc::channel::<FaultyTransport<LoopbackLink>>();
    let mut total = Tally::default();

    let report = std::thread::scope(|scope| {
        let fx_server = fx.clone();
        // Warmup horizon: two full waves have leased and returned every
        // workspace the waves can touch.
        let server = scope.spawn(move || serve_all(&fx_server, rx, 4 * WAVE as u64));

        for wave in scenarios.chunks(WAVE) {
            let clients: Vec<_> = wave
                .iter()
                .map(|&sc| {
                    let (mut vt, mut pt) = faulty_loopback_pair(sc.seed, fault_config.clone());
                    if sc.fault_v_to_p {
                        vt.link_mut().inject_at(sc.target_send, sc.kind);
                    } else {
                        pt.link_mut().inject_at(sc.target_send, sc.kind);
                    }
                    tx.send(pt).expect("server alive");
                    let fx = fx.clone();
                    scope.spawn(move || run_client(&fx, sc, vt))
                })
                .collect();
            for client in clients {
                let tally = client.join().expect("client panicked (scenario inside panicked)");
                total.scenarios += tally.scenarios;
                total.instances += tally.instances;
                total.accepted += tally.accepted;
                total.timed_out += tally.timed_out;
                total.fatal_sessions += tally.fatal_sessions;
            }
        }
        drop(tx);
        server.join().expect("server panicked")
    });

    // Serial-sweep invariants, unchanged by concurrency.
    assert_eq!(total.scenarios, scenarios.len() as u64);
    assert_eq!(total.fatal_sessions, 0, "sessions failed fatally");
    assert!(
        total.timed_out * 100 <= total.instances,
        "{} of {} instances timed out",
        total.timed_out,
        total.instances
    );
    assert!(
        total.accepted * 2 > total.instances,
        "too few accepts: {}/{}",
        total.accepted,
        total.instances
    );

    // Server-side invariants: every admitted session reached a typed
    // terminal state, nothing was refused at nominal load, and the
    // shared pool leaked nothing across ~1000 session churns.
    assert_eq!(report.stats.accepted, scenarios.len() as u64);
    assert_eq!(report.stats.rejected, 0);
    assert_eq!(
        report.stats.served + report.stats.expired + report.stats.failed,
        report.stats.accepted,
        "every session must reach a terminal state: {:?}",
        report.stats
    );
    // A lost DONE degrades to an idle-out (still Served); hard failures
    // mean cross-session damage and must not happen.
    assert_eq!(report.stats.failed, 0, "no session may fail fatally: {:?}", report.stats);
    assert_eq!(report.outstanding, 0, "workspace leases leaked");
    // Leak guard: after warmup the pool footprint must be BOUNDED —
    // retained scratch buffers may still settle into a slightly larger
    // steady state (which buffers a workspace retains depends on the
    // interleaving), but growth proportional to session count is a
    // leak. The deterministic single-threaded churn in
    // `tests/server_edges.rs` pins exact flatness; here, with hundreds
    // of sessions after the plateau sample, even a tiny per-session
    // leak would blow far past 2x.
    if let Some(plateau) = report.plateau_footprint {
        assert!(
            report.post_plateau_high_water <= plateau.max(1024) * 2,
            "workspace footprint kept growing after warmup (plateau {} bytes, \
             high water {} bytes, final {} bytes)",
            plateau, report.post_plateau_high_water, report.final_footprint
        );
    }
}

/// Byte-identity under concurrency: 8 clients drive the protocol by
/// hand against one server (through seeded lossy channels), and every
/// INSTANCE_RESP payload must equal what a fresh, isolated reference
/// prover produces from the same setup bytes. Any cross-session state
/// bleed — a shared cache slot, a workspace buffer surviving with
/// stale contents, a response routed to the wrong session — breaks the
/// equality.
#[test]
fn concurrent_responses_are_byte_identical_to_isolated_reference() {
    const CLIENTS: usize = 8;
    let fx = Arc::new(fixture());
    let (tx, rx) = mpsc::channel::<FaultyTransport<LoopbackLink>>();

    let transcripts = std::thread::scope(|scope| {
        let fx_server = fx.clone();
        let server = scope.spawn(move || serve_all(&fx_server, rx, u64::MAX));

        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|i| {
                // A mildly lossy channel per client: retransmits and
                // duplicate responses must not perturb payload bytes.
                let config = FaultConfig::uniform(30, Duration::from_millis(3));
                let (vt, pt) = faulty_loopback_pair(0xB17E + i * 7, config);
                tx.send(pt).expect("server alive");
                let fx = fx.clone();
                scope.spawn(move || {
                    let mut vt = vt;
                    let mut prg = ChaChaPrg::from_u64_seed(0x5E55 + i);
                    let mut verifier = SessionVerifier::new(&fx.pcp, &mut prg);
                    let setup_bytes = verifier.setup_message().expect("setup serializes");
                    let mut retry_prg = prg.fork(1);
                    let p = policy();
                    let setup = Frame::new(
                        msg::HSETUP,
                        0,
                        hsetup_envelope(&setup_bytes, fx.proofs.len()),
                    );
                    let ack = exchange(
                        &mut vt,
                        &setup,
                        &[msg::SETUP_ACK, msg::ERROR],
                        &p,
                        &mut retry_prg,
                    )
                    .expect("setup exchange");
                    assert_eq!(ack.response.msg_type, msg::SETUP_ACK, "client {i}");
                    let mut responses = Vec::new();
                    for idx in 0..fx.proofs.len() {
                        let req = Frame::new(
                            msg::INSTANCE_REQ,
                            (idx + 1) as u32,
                            (idx as u32).to_le_bytes().to_vec(),
                        );
                        let out = exchange(
                            &mut vt,
                            &req,
                            &[msg::INSTANCE_RESP, msg::ERROR],
                            &p,
                            &mut retry_prg,
                        )
                        .expect("instance exchange");
                        assert_eq!(out.response.msg_type, msg::INSTANCE_RESP, "client {i}");
                        // The payload must also actually verify.
                        assert!(
                            verifier
                                .verify_instance(&out.response.payload, &fx.ios[idx])
                                .expect("well-formed response"),
                            "client {i} instance {idx}"
                        );
                        responses.push(out.response.payload);
                    }
                    let _ = vt.send(&Frame::new(msg::DONE, u32::MAX, Vec::new()));
                    (setup_bytes, responses)
                })
            })
            .collect();

        let transcripts: Vec<_> =
            clients.into_iter().map(|c| c.join().expect("client panicked")).collect();
        drop(tx);
        let report = server.join().expect("server panicked");
        assert_eq!(report.outstanding, 0, "workspace leases leaked");
        assert_eq!(report.stats.accepted, CLIENTS as u64);
        assert_eq!(report.stats.failed, 0, "{:?}", report.stats);
        transcripts
    });

    // Replay each session against a fresh, fully isolated prover (no
    // pool, no concurrency) and demand byte equality.
    for (i, (setup_bytes, responses)) in transcripts.iter().enumerate() {
        let mut reference = SessionProver::new(&fx.pcp);
        reference.receive_setup(setup_bytes).expect("recorded setup replays");
        for (idx, served) in responses.iter().enumerate() {
            let expected = reference
                .instance_message_policied(&fx.proofs[idx], &mut ProverWorkspace::new())
                .expect("reference prover answers");
            assert_eq!(
                served, &expected,
                "client {i} instance {idx}: served bytes diverge from isolated reference"
            );
        }
    }
}
