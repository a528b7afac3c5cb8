//! Differential lockdown for the `cc::opt` pass pipeline and the
//! heterogeneous session path.
//!
//! Part 1 — optimizer differential: every workload (the five ZSL suite
//! benchmarks and the three gadget-zoo circuits) is proved and verified
//! through the full PCP pipeline twice, once from the raw Ginger system
//! and once from the optimized one. Across query seeds both sides must
//! accept, the public `(inputs ‖ outputs)` vectors must be identical,
//! the optimized encoding must never grow in constraints or witness
//! variables, and at least three suite apps must strictly shrink.
//!
//! Part 2 — the heterogeneous acceptance test: one [`SessionServer`]
//! session carries a β = 9 batch over three distinct circuits, and every
//! instance response must be byte-identical to an isolated
//! single-circuit [`SessionProver`] fed the same per-circuit setup
//! (derived via the pinned [`HETERO_PRG_STREAM_BASE`] fork schedule).

use std::time::{Duration, Instant};

use zaatar::apps::{build as build_suite, GadgetApp, Suite};
use zaatar::cc::builder::WitnessSolver;
use zaatar::cc::{ginger_to_quad, optimize, Assignment, GingerSystem};
use zaatar::core::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
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

/// One side of the differential: a system proved over already-mapped
/// assignments.
struct Side {
    pcp: TestPcp,
    proofs: Vec<ZaatarProof<F61>>,
    ios: Vec<Vec<F61>>,
}

fn prove_side(name: &str, sys: &GingerSystem<F61>, assignments: &[Assignment<F61>]) -> Side {
    let t = ginger_to_quad(sys);
    let qap = Qap::new(&t.system);
    let pcp = ZaatarPcp::new(qap, PcpParams::light());
    let mut proofs = Vec::new();
    let mut ios = Vec::new();
    for asg in assignments {
        let ext = t.extend_assignment(asg);
        assert!(t.system.is_satisfied(&ext), "{name}: unsatisfied");
        let w = pcp.qap().witness(&ext);
        proofs.push(pcp.prove(&w).unwrap_or_else(|| panic!("{name}: prove failed")));
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
    Side { pcp, proofs, ios }
}

/// Proves `input_batches` through both the raw and the optimized
/// system and checks the two pipelines agree everywhere they must.
/// Returns whether the optimizer strictly shrank the constraint count.
fn optimizer_differential(
    name: &str,
    sys: &GingerSystem<F61>,
    solver: &WitnessSolver<F61>,
    input_batches: &[Vec<F61>],
) -> bool {
    let opt = optimize(sys);
    assert!(
        opt.report.after.num_constraints <= opt.report.before.num_constraints,
        "{name}: optimizer grew constraints {} -> {}",
        opt.report.before.num_constraints,
        opt.report.after.num_constraints
    );
    assert!(
        opt.report.after.num_unbound <= opt.report.before.num_unbound,
        "{name}: optimizer grew witness {} -> {}",
        opt.report.before.num_unbound,
        opt.report.after.num_unbound
    );

    let raw: Vec<Assignment<F61>> = input_batches
        .iter()
        .map(|ins| solver.solve(ins).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    let mapped: Vec<Assignment<F61>> = raw.iter().map(|a| opt.map_assignment(a)).collect();
    let base = prove_side(name, sys, &raw);
    let optimized = prove_side(name, &opt.system, &mapped);

    // The optimizer must not disturb the public interface: identical
    // `(inputs ‖ outputs)` per instance, in QAP variable order.
    assert_eq!(base.ios, optimized.ios, "{name}: public io drifted");

    // Both pipelines accept every instance, across query seeds.
    for seed in [11u64, 29, 0xd1ff] {
        for (side, label) in [(&base, "raw"), (&optimized, "optimized")] {
            let mut prg = ChaChaPrg::from_u64_seed(seed);
            let queries = side.pcp.generate_queries(&mut prg);
            for (i, (proof, io)) in side.proofs.iter().zip(&side.ios).enumerate() {
                let responses = side.pcp.answer(proof, &queries);
                assert!(
                    side.pcp.check(&queries, &responses, io),
                    "{name} ({label}): instance {i} rejected at seed {seed}"
                );
            }
        }
    }
    opt.report.after.num_constraints < opt.report.before.num_constraints
}

#[test]
fn optimizer_differential_all_suite_apps() {
    let mut shrunk = 0;
    for app in Suite::all_small() {
        let art = build_suite::<F61>(&app);
        let batches: Vec<Vec<F61>> = (0..2).map(|seed| app.gen_inputs(seed)).collect();
        let ginger = &art.compiled.ginger;
        shrunk += usize::from(optimizer_differential(app.name(), ginger, &art.compiled.solver, &batches));
    }
    // Never growing is not enough: the pass pipeline must pay for itself.
    assert!(shrunk >= 3, "optimizer strictly shrank only {shrunk} of the suite apps");
}

#[test]
fn optimizer_differential_all_gadget_apps() {
    for app in GadgetApp::all() {
        let (sys, solver) = app.build::<F61>();
        let batches: Vec<Vec<F61>> = (0..2).map(|seed| app.gen_inputs(seed)).collect();
        optimizer_differential(app.name(), &sys, &solver, &batches);
    }
}

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

/// The PR acceptance test: one server session proves a heterogeneous
/// batch — three distinct circuits, β = 9 — end to end, and every
/// instance response is byte-identical to an isolated per-circuit
/// session seeded from the same PRG fork schedule.
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
        pool_capacity: 2,
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
