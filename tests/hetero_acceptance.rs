//! The heterogeneous acceptance test: one [`SessionServer`] session
//! carries a β = 9 batch over the three gadget-zoo circuits, every
//! instance must verify, and every instance response must be
//! byte-identical to an isolated single-circuit [`SessionProver`] fed
//! the same per-circuit setup (derived via the pinned
//! [`HETERO_PRG_STREAM_BASE`] fork schedule).

use std::time::{Duration, Instant};

use zaatar::apps::GadgetApp;
use zaatar::cc::builder::WitnessSolver;
use zaatar::cc::ginger_to_quad;
use zaatar::core::pcp::{PcpParams, ZaatarPcp};
use zaatar::core::qap::Qap;
use zaatar::core::runtime::msg;
use zaatar::core::session::{
    HeteroSessionVerifier, SessionProver, SessionVerifier, HETERO_PRG_STREAM_BASE,
};
use zaatar::core::testutil::TestPcp;
use zaatar::core::workspace::ProverWorkspace;
use zaatar::crypto::ChaChaPrg;
use zaatar::field::F61;
use zaatar::server::{Admission, ServerConfig, SessionOutcome, SessionServer};
use zaatar::transport::{loopback_transport_pair, Frame, LoopbackTransport, Transport};

/// A gadget circuit ready to prove instances.
struct Circuit {
    pcp: TestPcp,
    transform: zaatar::cc::QuadTransform<F61>,
    solver: WitnessSolver<F61>,
}

fn gadget_circuit(app: GadgetApp) -> Circuit {
    let (sys, solver) = app.build::<F61>();
    let transform = ginger_to_quad(&sys);
    let qap = Qap::new(&transform.system);
    Circuit {
        pcp: ZaatarPcp::new(qap, PcpParams::light()),
        transform,
        solver,
    }
}

/// Sends `frame`, polls the server until it replies, and returns the
/// reply — the single-threaded loopback driver.
fn ask(
    client: &mut LoopbackTransport,
    server: &mut SessionServer<'_, F61, zaatar::poly::Radix2Domain<F61>>,
    frame: &Frame,
) -> Frame {
    client.send(frame).expect("loopback send");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        server.poll();
        match client.poll_recv().expect("client poll") {
            Some(reply) => return reply,
            None => assert!(Instant::now() < deadline, "server never replied to {frame:?}"),
        }
    }
}

/// One server session proves a heterogeneous batch — three distinct
/// circuits, β = 9 — end to end, and every instance response is
/// byte-identical to an isolated per-circuit session seeded from the
/// same PRG fork schedule.
#[test]
fn hetero_batch_through_session_server_matches_isolated_sessions() {
    let circuits: Vec<Circuit> = GadgetApp::all().into_iter().map(gadget_circuit).collect();
    let apps = GadgetApp::all();

    // β = 9 instances round-robin over the three circuits, each with
    // its own seeded inputs.
    let circuit_ids: Vec<u32> = (0..9u32).map(|i| i % 3).collect();
    let mut proofs = Vec::new();
    let mut ios = Vec::new();
    for (i, &c) in circuit_ids.iter().enumerate() {
        let app = apps[c as usize];
        let circuit = &circuits[c as usize];
        let inputs: Vec<F61> = app.gen_inputs(i as u64);
        let asg = circuit.solver.solve(&inputs).expect("in-range inputs");
        let ext = circuit.transform.extend_assignment(&asg);
        let w = circuit.pcp.qap().witness(&ext);
        proofs.push(circuit.pcp.prove(&w).expect("honest instance"));
        ios.push(
            circuit
                .pcp
                .qap()
                .var_map()
                .inputs()
                .iter()
                .chain(circuit.pcp.qap().var_map().outputs())
                .map(|v| ext.get(*v))
                .collect::<Vec<F61>>(),
        );
    }

    let pcp_refs: Vec<&TestPcp> = circuits.iter().map(|c| &c.pcp).collect();
    let config = ServerConfig {
        max_sessions: 2,
        session_budget: Duration::from_secs(30),
        idle_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let mut server = SessionServer::new_hetero(&pcp_refs, &circuit_ids, &proofs, config);
    assert_eq!(server.num_circuits(), 3);

    let (mut client, pt) = loopback_transport_pair();
    let Admission::Admitted(id) = server.admit(pt, "hetero") else {
        panic!("admission refused at nominal load");
    };

    // Drive the session: HSETUP, then all nine instances.
    let prg = ChaChaPrg::from_u64_seed(0x4e7e);
    let mut verifier = HeteroSessionVerifier::new(&pcp_refs, &circuit_ids, &prg);
    let setup = verifier.setup_message().unwrap();
    let ack = ask(&mut client, &mut server, &Frame::new(msg::HSETUP, 0, setup));
    assert_eq!(ack.msg_type, msg::SETUP_ACK, "HSETUP refused: {ack:?}");

    let mut responses = Vec::new();
    for (i, io) in ios.iter().enumerate() {
        let req = Frame::new(
            msg::INSTANCE_REQ,
            (i + 1) as u32,
            (i as u32).to_le_bytes().to_vec(),
        );
        let resp = ask(&mut client, &mut server, &req);
        assert_eq!(resp.msg_type, msg::INSTANCE_RESP, "instance {i}");
        assert!(
            verifier.verify_instance(i, &resp.payload, io).unwrap(),
            "instance {i} rejected"
        );
        responses.push(resp.payload);
    }

    client
        .send(&Frame::new(msg::DONE, u32::MAX, Vec::new()))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let finished = server.poll();
        if let Some((fid, outcome)) = finished.first() {
            assert_eq!(*fid, id);
            assert_eq!(*outcome, SessionOutcome::Served);
            break;
        }
        assert!(Instant::now() < deadline, "session never drained");
    }

    // Reference: one isolated legacy session per circuit, seeded from
    // the same fork schedule the hetero verifier pins. Responses must
    // match the server's byte for byte — grouped answering and
    // workspace reuse leave no fingerprint on the transcript.
    for (c, circuit) in circuits.iter().enumerate() {
        let mut sub = prg.fork(HETERO_PRG_STREAM_BASE + c as u64);
        let mut ref_verifier = SessionVerifier::new(&circuit.pcp, &mut sub);
        let mut ref_prover = SessionProver::new(&circuit.pcp);
        ref_prover
            .receive_setup(&ref_verifier.setup_message().unwrap())
            .unwrap();
        for (i, &cid) in circuit_ids.iter().enumerate() {
            if cid as usize != c {
                continue;
            }
            let reference = ref_prover
                .instance_message_policied(&proofs[i], &mut ProverWorkspace::new())
                .unwrap();
            assert_eq!(
                reference, responses[i],
                "instance {i} (circuit {c}): transcript differs from isolated session"
            );
            assert!(ref_verifier.verify_instance(&reference, &ios[i]).unwrap());
        }
    }
}
