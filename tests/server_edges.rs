//! Edge-of-envelope tests for the session server: deadline expiry
//! mid-serve, typed admission refusal, workspace-pool leak guards
//! across session churn, and failure typing. All single-threaded — the
//! loopback link's sends never block, so one thread can play both the
//! client and the server's poll loop, which makes every assertion
//! deterministic.

use std::time::{Duration, Instant};

use zaatar_core::runtime::{errcode, msg, run_hetero_session_prover, run_session_verifier};
use zaatar_core::testutil::{mul_eq_fixture, mul_fixture, CircuitFixture};
use zaatar_core::{HeteroSessionVerifier, SessionError, SessionVerifier};
use zaatar_crypto::ChaChaPrg;
use zaatar_field::F61;
use zaatar_server::{Admission, RejectReason, ServerConfig, SessionOutcome, SessionServer};
use zaatar_transport::{
    loopback_transport_pair, Frame, LoopbackTransport, RetryPolicy, Transport, TransportError,
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

fn config() -> ServerConfig {
    ServerConfig {
        max_sessions: 4,
        session_budget: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// Sends `frame`, polls the server until it replies, and returns the
/// reply — the single-threaded stand-in for `exchange`.
fn ask(
    client: &mut LoopbackTransport,
    server: &mut SessionServer<'_, F61, zaatar_poly::Radix2Domain<F61>>,
    frame: &Frame,
) -> Frame {
    client.send(frame).expect("loopback send");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        server.poll();
        match client.poll_recv().expect("client poll") {
            Some(reply) => return reply,
            None => assert!(Instant::now() < deadline, "server never replied to {frame:?}"),
        }
    }
}

/// Drives one complete, honest session through the server and asserts
/// it ends [`SessionOutcome::Served`]. Returns the client transport's
/// final stats.
fn run_full_session(
    fx: &CircuitFixture,
    server: &mut SessionServer<'_, F61, zaatar_poly::Radix2Domain<F61>>,
    seed: u64,
) {
    let (mut client, pt) = loopback_transport_pair();
    let Admission::Admitted(id) = server.admit(pt, "edge") else {
        panic!("admission refused at nominal load");
    };
    let mut prg = ChaChaPrg::from_u64_seed(seed);
    let mut verifier = SessionVerifier::new(&fx.pcp, &mut prg);
    let setup = hsetup_envelope(&verifier.setup_message().unwrap(), fx.proofs.len());
    let ack = ask(&mut client, server, &Frame::new(msg::HSETUP, 0, setup));
    assert_eq!(ack.msg_type, msg::SETUP_ACK);
    for idx in 0..fx.proofs.len() {
        let req = Frame::new(msg::INSTANCE_REQ, (idx + 1) as u32, (idx as u32).to_le_bytes().to_vec());
        let resp = ask(&mut client, server, &req);
        assert_eq!(resp.msg_type, msg::INSTANCE_RESP);
        assert!(verifier.verify_instance(&resp.payload, &fx.ios[idx]).unwrap());
    }
    client.send(&Frame::new(msg::DONE, u32::MAX, Vec::new())).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let finished = server.poll();
        if let Some((fid, outcome)) = finished.first() {
            assert_eq!(*fid, id);
            assert_eq!(*outcome, SessionOutcome::Served);
            break;
        }
        assert!(Instant::now() < deadline, "session never drained");
    }
}

/// A session whose wall-clock budget expires mid-serve (after setup,
/// with an instance response already cached — "mid-commit") must
/// terminate Expired, notify the client with a typed ERROR(EXPIRED)
/// frame, and release its workspace back to the pool.
#[test]
fn expired_session_releases_workspace_and_notifies() {
    let fx = fixture();
    let cfg = ServerConfig {
        session_budget: Duration::from_millis(120),
        ..config()
    };
    let mut server = SessionServer::new(&fx.pcp, &fx.proofs, cfg);
    let (mut client, pt) = loopback_transport_pair();
    let Admission::Admitted(id) = server.admit(pt, "t0") else {
        panic!("admission refused");
    };
    assert_eq!(server.pool().outstanding(), 1);

    // Get the session past setup and through one instance response, so
    // the expiry lands mid-commit with leased buffers in play.
    let mut prg = ChaChaPrg::from_u64_seed(0xE0);
    let mut verifier = SessionVerifier::new(&fx.pcp, &mut prg);
    let setup = hsetup_envelope(&verifier.setup_message().unwrap(), fx.proofs.len());
    let ack = ask(&mut client, &mut server, &Frame::new(msg::HSETUP, 0, setup));
    assert_eq!(ack.msg_type, msg::SETUP_ACK);
    let resp = ask(
        &mut client,
        &mut server,
        &Frame::new(msg::INSTANCE_REQ, 1, 0u32.to_le_bytes().to_vec()),
    );
    assert_eq!(resp.msg_type, msg::INSTANCE_RESP);
    let footprint_live = server.workspace_footprint_bytes();
    assert!(footprint_live > 0, "serving must have warmed the workspace");

    // Let the budget run out, then poll: the session must expire.
    std::thread::sleep(Duration::from_millis(150));
    let finished = server.poll();
    assert_eq!(finished, vec![(id, SessionOutcome::Expired)]);
    assert_eq!(server.live_sessions(), 0);

    // Leak guard: the lease is back, bytes intact (no trim at this
    // footprint), nothing outstanding.
    assert_eq!(server.pool().outstanding(), 0, "expired session leaked its workspace");
    assert_eq!(server.pool().pooled_bytes(), footprint_live);
    assert_eq!(server.stats().expired, 1);

    // The client hears about it: a typed EXPIRED error, not silence.
    let notice = client.recv(Instant::now() + Duration::from_secs(1)).unwrap();
    assert_eq!(notice.msg_type, msg::ERROR);
    assert_eq!(notice.payload, vec![errcode::EXPIRED]);
}

/// An admission-refused client receives a well-formed ERROR(BUSY) frame
/// at seq 0 — which the stock verifier runtime surfaces as a typed
/// `SessionError::Peer(BUSY)`, not a dropped connection or a timeout.
#[test]
fn rejected_client_gets_typed_refusal_frame() {
    let fx = fixture();
    let cfg = ServerConfig {
        max_sessions: 1,
        ..config()
    };
    let mut server = SessionServer::new(&fx.pcp, &fx.proofs, cfg);

    // Fill the only slot.
    let (_held_client, pt) = loopback_transport_pair();
    assert!(matches!(server.admit(pt, "t0"), Admission::Admitted(_)));
    assert!(server.backpressure_engaged());

    // The second tenant is refused at admission...
    let (mut rejected_client, pt2) = loopback_transport_pair();
    assert_eq!(
        server.admit(pt2, "t1"),
        Admission::Rejected(RejectReason::Backpressure)
    );
    // ...with a frame that parses cleanly: ERROR, seq 0, payload BUSY.
    let refusal = rejected_client.recv(Instant::now() + Duration::from_secs(1)).unwrap();
    assert_eq!(refusal.msg_type, msg::ERROR);
    assert_eq!(refusal.seq, 0);
    assert_eq!(refusal.payload, vec![errcode::BUSY]);
    assert_eq!(rejected_client.stats().corrupt_events, 0);
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.stats().per_tenant["t1"].rejected, 1);
    assert_eq!(server.stats().per_tenant["t0"].accepted, 1);

    // And the stock verifier runtime sees the typed peer error.
    let (mut verifier_side, pt3) = loopback_transport_pair();
    assert!(matches!(
        server.admit(pt3, "t2"),
        Admission::Rejected(RejectReason::Backpressure)
    ));
    let mut prg = ChaChaPrg::from_u64_seed(0xB05);
    let err = run_session_verifier(
        &mut verifier_side,
        &fx.pcp,
        &fx.ios,
        &RetryPolicy::fast(),
        &mut prg,
    )
    .unwrap_err();
    assert_eq!(err, SessionError::Peer(errcode::BUSY));
    // The overload split is exact: three offers to a one-session server
    // are one admission and two refusals, nothing lost or double-counted.
    assert_eq!((server.stats().accepted, server.stats().rejected), (1, 2));
}

/// 100 sequential session churns through one server: the pool's
/// footprint must plateau after the first session warms it, and no
/// lease may ever leak — the server-side analogue of the PR-5
/// leak-guard suite.
#[test]
fn hundred_session_churn_keeps_pool_bounded() {
    let fx = fixture();
    let mut server = SessionServer::new(&fx.pcp, &fx.proofs, config());
    let mut warm = 0;
    for i in 0..100u64 {
        run_full_session(&fx, &mut server, 0xC0DE + i);
        assert_eq!(server.pool().outstanding(), 0, "churn {i} leaked a lease");
        let footprint = server.workspace_footprint_bytes();
        if i == 0 {
            warm = footprint;
            assert!(warm > 0, "first session must warm the pool");
        } else {
            assert_eq!(
                footprint, warm,
                "churn {i}: footprint moved off its plateau ({footprint} vs {warm} bytes)"
            );
        }
    }
    assert_eq!(server.stats().served, 100);
    assert_eq!(server.stats().accepted, 100);
    assert_eq!(server.stats().failed + server.stats().expired, 0);
}

/// A client that connects and disappears without ever completing a
/// setup is a Failed session (typed, counted), and its workspace comes
/// back too.
#[test]
fn vanishing_client_is_typed_failed_and_leaks_nothing() {
    let fx = fixture();
    let mut server = SessionServer::new(&fx.pcp, &fx.proofs, config());
    let (client, pt) = loopback_transport_pair();
    let Admission::Admitted(id) = server.admit(pt, "ghost") else {
        panic!("admission refused");
    };
    drop(client);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let finished = server.poll();
        if let Some((fid, outcome)) = finished.first() {
            assert_eq!(*fid, id);
            assert_eq!(
                *outcome,
                SessionOutcome::Failed(SessionError::Transport(TransportError::Closed))
            );
            break;
        }
        assert!(Instant::now() < deadline, "vanished client never detected");
    }
    assert_eq!(server.pool().outstanding(), 0);
    assert_eq!(server.stats().failed, 1);
    assert_eq!(server.stats().per_tenant["ghost"].failed, 1);
}

/// Memory-threshold admission: with the footprint ceiling set below one
/// warm workspace, the server accepts while cold, then sheds load once
/// the pool's bytes cross the ceiling — and trims returning workspaces
/// to recover headroom.
#[test]
fn memory_pressure_engages_backpressure_and_trim() {
    let fx = fixture();
    let cfg = ServerConfig {
        max_footprint_bytes: 1, // any warm byte engages pressure
        trim_to_bytes: 0,
        ..config()
    };
    let mut server = SessionServer::new(&fx.pcp, &fx.proofs, cfg);
    // Cold pool: footprint 0 < 1, so the first session is admitted.
    run_full_session(&fx, &mut server, 0x3A);
    // The returning workspace was trimmed to zero retained bytes (the
    // pressure path), so the next admission is accepted again.
    assert_eq!(server.workspace_footprint_bytes(), 0, "trim must shed idle bytes");
    assert!(!server.backpressure_engaged());
    run_full_session(&fx, &mut server, 0x3B);
    assert_eq!(server.stats().served, 2);
    assert_eq!(server.stats().rejected, 0);
}

/// Regression: a re-setup whose *second* embedded blob is corrupt resets
/// every circuit to unready, so responses cached under the superseded
/// setup must die with it — a previously served index answers
/// `ERROR(NO_SETUP)` exactly like a never-served one, instead of
/// replaying stale bytes. The same frame script runs through the
/// blocking loop and through the server: both pump one state machine.
#[test]
fn failed_resetup_invalidates_cached_responses() {
    let a = mul_fixture(&[[3, 7]]);
    let b = mul_eq_fixture(&[[5, 5]]);
    let pcps = [&a.pcp, &b.pcp];
    let circuit_ids = [0u32, 1];
    let proofs = vec![a.proofs[0].clone(), b.proofs[0].clone()];
    let setup_from = |seed: u64| {
        HeteroSessionVerifier::new(&pcps, &circuit_ids, &ChaChaPrg::from_u64_seed(seed))
            .setup_message()
            .unwrap()
    };
    let good = setup_from(0x5E7);
    // A fresh setup (valid framing, valid first blob) whose second
    // blob announces an absurd ciphertext count.
    let mut corrupt = setup_from(0x5E8);
    let len0 = u32::from_le_bytes(corrupt[4..8].try_into().unwrap()) as usize;
    let blob1 = 4 + 4 + len0 + 4;
    corrupt[blob1..blob1 + 4].copy_from_slice(&u32::MAX.to_le_bytes());

    let req = |seq: u32, idx: u32| Frame::new(msg::INSTANCE_REQ, seq, idx.to_le_bytes().to_vec());
    let script = [
        Frame::new(msg::HSETUP, 0, good),
        req(1, 0),
        Frame::new(msg::HSETUP, 2, corrupt),
        req(3, 0),
        req(4, 1),
    ];
    let check = |replies: &[Frame], path: &str| {
        let summary: Vec<_> = replies.iter().map(|r| (r.msg_type, r.seq)).collect();
        assert_eq!(
            summary,
            [
                (msg::SETUP_ACK, 0),
                (msg::INSTANCE_RESP, 1),
                (msg::ERROR, 2),
                (msg::ERROR, 3),
                (msg::ERROR, 4),
            ],
            "{path}"
        );
        assert_eq!(replies[2].payload, [errcode::MALFORMED], "{path}");
        assert_eq!(replies[3].payload, [errcode::NO_SETUP], "{path}: stale cached response");
        assert_eq!(replies[4].payload, [errcode::NO_SETUP], "{path}");
    };

    // Blocking loop: loopback sends never block, so queue the whole
    // script plus DONE, let the loop drain it, then read the replies.
    let (mut client, mut pt) = loopback_transport_pair();
    for frame in &script {
        client.send(frame).unwrap();
    }
    client.send(&Frame::new(msg::DONE, u32::MAX, Vec::new())).unwrap();
    let stats =
        run_hetero_session_prover(&mut pt, &pcps, &circuit_ids, &proofs, Duration::from_secs(5))
            .unwrap();
    assert_eq!((stats.responses_served, stats.errors_reported), (1, 3));
    let replies: Vec<Frame> = script
        .iter()
        .map(|_| client.poll_recv().unwrap().expect("one reply per scripted frame"))
        .collect();
    check(&replies, "blocking loop");

    // Server: the same script, one frame at a time.
    let errors_before = zaatar_obs::counter("runtime.prover.errors_reported").get();
    let mut server = SessionServer::new_hetero(&pcps, &circuit_ids, &proofs, config());
    let (mut client, pt) = loopback_transport_pair();
    assert!(matches!(server.admit(pt, "resetup"), Admission::Admitted(_)));
    let replies: Vec<Frame> = script.iter().map(|f| ask(&mut client, &mut server, f)).collect();
    check(&replies, "session server");
    // The server path reports through the shared machine's counters.
    assert!(zaatar_obs::counter("runtime.prover.errors_reported").get() >= errors_before + 3);
}
