//! The fault matrix: a seeded sweep of single-fault and hostile-channel
//! scenarios over the full session runtime, asserting the three
//! robustness invariants of the transport work:
//!
//! 1. the verifier never accepts an invalid proof, no matter what the
//!    channel does;
//! 2. no fault combination panics either endpoint;
//! 3. every session terminates within its configured deadline, with a
//!    typed verdict per instance.
//!
//! The sweep enumerates {drop, corrupt, truncate, duplicate, reorder,
//! delay} × {verifier→prover, prover→verifier} × {setup exchange,
//! instance exchange} × 42 seeds × {honest, lying} — 1008 scenarios,
//! each fully determined by its coordinates, so any failure replays
//! exactly from the printed scenario tuple.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zaatar_core::runtime::{
    msg, run_hetero_session_prover, run_hetero_session_verifier, run_session_prover,
    run_session_verifier, VerifyOutcome,
};
use zaatar_core::testutil::{mul_eq_fixture, mul_fixture, CircuitFixture};
use zaatar_core::{
    HeteroSessionVerifier, ProverWorkspace, SessionProver, SessionVerifier,
    HETERO_PRG_STREAM_BASE,
};
use zaatar_crypto::ChaChaPrg;
use zaatar_field::{Field, F61};
use zaatar_transport::{
    exchange, faulty_loopback_pair, FaultConfig, FaultKind, Frame, RetryPolicy, Transport,
};

fn fixture() -> CircuitFixture {
    mul_fixture(&[[3, 7], [5, 11]])
}

#[derive(Clone, Copy, Debug)]
struct Scenario {
    seed: u64,
    kind: FaultKind,
    /// true: fault the verifier→prover direction; false: prover→verifier.
    fault_v_to_p: bool,
    /// Which send (0-based) on the faulted side gets the fault: 0 lands
    /// on the setup exchange, 1 on the first instance exchange.
    target_send: u64,
    /// false: the verifier claims a wrong output for instance 1.
    honest: bool,
}

#[derive(Default)]
struct Tally {
    scenarios: u64,
    instances: u64,
    accepted: u64,
    timed_out: u64,
    fatal_sessions: u64,
}

fn run_scenario(fx: &Arc<CircuitFixture>, sc: Scenario, tally: &mut Tally) {
    let policy = RetryPolicy {
        deadline: Duration::from_secs(5),
        initial_timeout: Duration::from_millis(10),
        backoff_factor: 2,
        max_timeout: Duration::from_millis(200),
        max_retransmits: 10,
    };
    let config = FaultConfig {
        max_delay: Duration::from_millis(20),
        ..FaultConfig::none()
    };
    let (mut vt, mut pt) = faulty_loopback_pair(sc.seed, config);
    if sc.fault_v_to_p {
        vt.link_mut().inject_at(sc.target_send, sc.kind);
    } else {
        pt.link_mut().inject_at(sc.target_send, sc.kind);
    }

    let fx2 = fx.clone();
    let server = std::thread::spawn(move || {
        run_session_prover(&mut pt, &fx2.pcp, &fx2.proofs, Duration::from_secs(8))
    });

    let mut ios = fx.ios.clone();
    if !sc.honest {
        let last = ios[1].len() - 1;
        ios[1][last] += F61::ONE;
    }
    let mut prg = ChaChaPrg::from_u64_seed(sc.seed ^ 0xFA17);
    let started = Instant::now();
    let result = run_session_verifier(&mut vt, &fx.pcp, &ios, &policy, &mut prg);
    let elapsed = started.elapsed();

    // Invariant 3: bounded termination. Setup (1 exchange) + 2 instance
    // exchanges, each deadline-capped at 5s.
    assert!(
        elapsed < Duration::from_secs(16),
        "{sc:?}: session ran {elapsed:?}"
    );

    tally.scenarios += 1;
    match result {
        Ok(report) => {
            assert_eq!(report.outcomes.len(), ios.len(), "{sc:?}");
            for (i, outcome) in report.outcomes.iter().enumerate() {
                tally.instances += 1;
                match outcome {
                    VerifyOutcome::Accepted => {
                        // Invariant 1: a lying claim must never verify.
                        assert!(
                            sc.honest || i != 1,
                            "{sc:?}: accepted an invalid proof claim"
                        );
                        tally.accepted += 1;
                    }
                    VerifyOutcome::Rejected => {
                        // A single channel fault never mutates a message
                        // undetected (CRC), so an honest instance must
                        // never be rejected — only lost.
                        assert!(
                            !(sc.honest || i != 1),
                            "{sc:?}: rejected an honest instance"
                        );
                    }
                    VerifyOutcome::Malformed(e) => {
                        panic!("{sc:?}: instance {i} malformed: {e}");
                    }
                    VerifyOutcome::TimedOut => tally.timed_out += 1,
                }
            }
        }
        // A fatal session error is legitimate only when the fault hit
        // the setup exchange hard enough to exhaust its retries — which
        // a single injected fault cannot, so count and bound it.
        Err(_) => tally.fatal_sessions += 1,
    }

    // Invariant 2 (prover side): the serving loop exits cleanly, never
    // panics, never returns a fatal error on channel garbage.
    server
        .join()
        .unwrap_or_else(|_| panic!("{sc:?}: prover panicked"))
        .unwrap_or_else(|e| panic!("{sc:?}: prover fatal error {e}"));
}

#[test]
fn fault_matrix_sweep() {
    let fx = Arc::new(fixture());
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
    assert!(scenarios.len() >= 1000, "sweep too small: {}", scenarios.len());

    // Shard the sweep across workers; each scenario is self-contained.
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let chunks: Vec<Vec<Scenario>> = scenarios
        .chunks(scenarios.len().div_ceil(workers))
        .map(<[Scenario]>::to_vec)
        .collect();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let fx = fx.clone();
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                for sc in chunk {
                    run_scenario(&fx, sc, &mut tally);
                }
                tally
            })
        })
        .collect();

    let mut total = Tally::default();
    for handle in handles {
        let tally = handle.join().expect("worker panicked (scenario inside panicked)");
        total.scenarios += tally.scenarios;
        total.instances += tally.instances;
        total.accepted += tally.accepted;
        total.timed_out += tally.timed_out;
        total.fatal_sessions += tally.fatal_sessions;
    }

    assert_eq!(total.scenarios, scenarios.len() as u64);
    // A single injected fault is always recoverable by retransmission:
    // no session may fail fatally, and instance-level timeouts should
    // not occur at all (allow a whisker of slack for loaded machines).
    assert_eq!(total.fatal_sessions, 0, "sessions failed fatally");
    assert!(
        total.timed_out * 100 <= total.instances,
        "{} of {} instances timed out",
        total.timed_out,
        total.instances
    );
    // Sanity: honest scenarios dominate accepts — roughly 3 of every 4
    // instances across the sweep (all honest + instance 0 of lying).
    assert!(total.accepted * 2 > total.instances, "too few accepts: {}/{}", total.accepted, total.instances);
}

/// The same machinery under sustained hostility rather than surgical
/// single faults: every fault kind active at once in both directions.
#[test]
fn hostile_channel_session_keeps_its_verdicts_straight() {
    let fx = Arc::new(fixture());
    for seed in [1u64, 2, 3] {
        let config = FaultConfig::uniform(50, Duration::from_millis(5));
        let (mut vt, mut pt) = faulty_loopback_pair(seed.wrapping_mul(0x9E3779B9), config);
        let fx2 = fx.clone();
        let server = std::thread::spawn(move || {
            run_session_prover(&mut pt, &fx2.pcp, &fx2.proofs, Duration::from_secs(10))
        });
        let mut ios = fx.ios.clone();
        let last = ios[1].len() - 1;
        ios[1][last] += F61::ONE; // instance 1 lies
        let policy = RetryPolicy::fast();
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let report = run_session_verifier(&mut vt, &fx.pcp, &ios, &policy, &mut prg)
            .expect("hostile channel at 5% rates must still complete setup");
        // Instance 1's lie must never verify; instance 0 must never be
        // rejected (though it may time out on a bad enough run).
        assert_ne!(report.outcomes[1], VerifyOutcome::Accepted, "seed {seed}");
        assert_ne!(report.outcomes[0], VerifyOutcome::Rejected, "seed {seed}");
        server.join().unwrap().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Heterogeneous-batch wave: the same seeded fault injector, but every
// session carries a mixed-circuit batch (two distinct circuits
// interleaved) through the hetero runtime endpoints.
// ---------------------------------------------------------------------------

/// Two distinct circuits plus a four-instance interleaved batch layout.
struct HeteroFixture {
    mul: CircuitFixture,
    mul_eq: CircuitFixture,
    circuit_ids: Vec<u32>,
    proofs: Vec<zaatar_core::pcp::ZaatarProof<F61>>,
    ios: Vec<Vec<F61>>,
}

fn hetero_fixture() -> HeteroFixture {
    let mul = mul_fixture(&[[3, 7], [5, 11]]);
    let mul_eq = mul_eq_fixture(&[[4, 4], [2, 9]]);
    let circuit_ids = vec![0u32, 1, 0, 1];
    let proofs = vec![
        mul.proofs[0].clone(),
        mul_eq.proofs[0].clone(),
        mul.proofs[1].clone(),
        mul_eq.proofs[1].clone(),
    ];
    let ios = vec![
        mul.ios[0].clone(),
        mul_eq.ios[0].clone(),
        mul.ios[1].clone(),
        mul_eq.ios[1].clone(),
    ];
    HeteroFixture { mul, mul_eq, circuit_ids, proofs, ios }
}

fn run_hetero_scenario(fx: &Arc<HeteroFixture>, sc: Scenario, tally: &mut Tally) {
    let policy = RetryPolicy {
        deadline: Duration::from_secs(5),
        initial_timeout: Duration::from_millis(10),
        backoff_factor: 2,
        max_timeout: Duration::from_millis(200),
        max_retransmits: 10,
    };
    let config = FaultConfig {
        max_delay: Duration::from_millis(20),
        ..FaultConfig::none()
    };
    let (mut vt, mut pt) = faulty_loopback_pair(sc.seed, config);
    if sc.fault_v_to_p {
        vt.link_mut().inject_at(sc.target_send, sc.kind);
    } else {
        pt.link_mut().inject_at(sc.target_send, sc.kind);
    }

    let fx2 = fx.clone();
    let server = std::thread::spawn(move || {
        let pcps = [&fx2.mul.pcp, &fx2.mul_eq.pcp];
        run_hetero_session_prover(
            &mut pt,
            &pcps,
            &fx2.circuit_ids,
            &fx2.proofs,
            Duration::from_secs(8),
        )
    });

    let mut ios = fx.ios.clone();
    if !sc.honest {
        let last = ios[1].len() - 1;
        ios[1][last] += F61::ONE;
    }
    let pcps = [&fx.mul.pcp, &fx.mul_eq.pcp];
    let mut prg = ChaChaPrg::from_u64_seed(sc.seed ^ 0xFA17);
    let started = Instant::now();
    let result =
        run_hetero_session_verifier(&mut vt, &pcps, &fx.circuit_ids, &ios, &policy, &mut prg);
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(26), "{sc:?}: session ran {elapsed:?}");

    tally.scenarios += 1;
    match result {
        Ok(report) => {
            assert_eq!(report.outcomes.len(), ios.len(), "{sc:?}");
            for (i, outcome) in report.outcomes.iter().enumerate() {
                tally.instances += 1;
                match outcome {
                    VerifyOutcome::Accepted => {
                        assert!(sc.honest || i != 1, "{sc:?}: accepted an invalid hetero claim");
                        tally.accepted += 1;
                    }
                    VerifyOutcome::Rejected => {
                        assert!(!(sc.honest || i != 1), "{sc:?}: rejected an honest hetero instance");
                    }
                    VerifyOutcome::Malformed(e) => panic!("{sc:?}: instance {i} malformed: {e}"),
                    VerifyOutcome::TimedOut => tally.timed_out += 1,
                }
            }
        }
        Err(_) => tally.fatal_sessions += 1,
    }

    server
        .join()
        .unwrap_or_else(|_| panic!("{sc:?}: hetero prover panicked"))
        .unwrap_or_else(|e| panic!("{sc:?}: hetero prover fatal error {e}"));
}

/// The mixed-circuit session survives the single-fault matrix with the
/// same typed-verdict invariants as the homogeneous sweep.
#[test]
fn hetero_fault_matrix_wave() {
    let fx = Arc::new(hetero_fixture());
    let mut scenarios = Vec::new();
    let mut flip = false;
    for seed in 0..12u64 {
        for kind in FaultKind::ALL {
            for fault_v_to_p in [true, false] {
                for target_send in [0u64, 1] {
                    flip = !flip;
                    scenarios.push(Scenario {
                        seed: seed * 1000 + kind as u64 * 10 + target_send + 0x4e70,
                        kind,
                        fault_v_to_p,
                        target_send,
                        honest: flip,
                    });
                }
            }
        }
    }

    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    let chunks: Vec<Vec<Scenario>> = scenarios
        .chunks(scenarios.len().div_ceil(workers).max(1))
        .map(<[Scenario]>::to_vec)
        .collect();
    let handles: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let fx = fx.clone();
            std::thread::spawn(move || {
                let mut tally = Tally::default();
                for sc in chunk {
                    run_hetero_scenario(&fx, sc, &mut tally);
                }
                tally
            })
        })
        .collect();

    let mut total = Tally::default();
    for handle in handles {
        let tally = handle.join().expect("worker panicked (scenario inside panicked)");
        total.scenarios += tally.scenarios;
        total.instances += tally.instances;
        total.accepted += tally.accepted;
        total.timed_out += tally.timed_out;
        total.fatal_sessions += tally.fatal_sessions;
    }

    assert_eq!(total.scenarios, scenarios.len() as u64);
    assert_eq!(total.fatal_sessions, 0, "hetero sessions failed fatally");
    assert!(
        total.timed_out * 100 <= total.instances,
        "{} of {} hetero instances timed out",
        total.timed_out,
        total.instances
    );
    assert!(total.accepted * 2 > total.instances, "too few accepts: {}/{}", total.accepted, total.instances);
}

/// Byte-identity through a lossy channel: a hand-driven client collects
/// every INSTANCE_RESP payload from the hetero serving loop and demands
/// equality with isolated single-circuit reference provers seeded from
/// the pinned fork schedule. Retransmits, duplicates, and grouped
/// answering must leave no fingerprint on the transcript.
#[test]
fn hetero_responses_byte_identical_to_isolated_reference() {
    let fx = Arc::new(hetero_fixture());
    let seed = 0x4e7e_0b17u64;
    let config = FaultConfig::uniform(30, Duration::from_millis(3));
    let (mut vt, mut pt) = faulty_loopback_pair(seed, config);

    let fx2 = fx.clone();
    let server = std::thread::spawn(move || {
        let pcps = [&fx2.mul.pcp, &fx2.mul_eq.pcp];
        run_hetero_session_prover(
            &mut pt,
            &pcps,
            &fx2.circuit_ids,
            &fx2.proofs,
            Duration::from_secs(10),
        )
    });

    let pcps = [&fx.mul.pcp, &fx.mul_eq.pcp];
    let prg = ChaChaPrg::from_u64_seed(seed ^ 0x1D);
    let mut verifier = HeteroSessionVerifier::new(&pcps, &fx.circuit_ids, &prg);
    let setup_bytes = verifier.setup_message().expect("setup serializes");
    let mut retry_prg = prg.fork(1);
    let policy = RetryPolicy::fast();
    let ack = exchange(
        &mut vt,
        &Frame::new(msg::HSETUP, 0, setup_bytes),
        &[msg::SETUP_ACK, msg::ERROR],
        &policy,
        &mut retry_prg,
    )
    .expect("hetero setup exchange");
    assert_eq!(ack.response.msg_type, msg::SETUP_ACK);

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
            &policy,
            &mut retry_prg,
        )
        .expect("instance exchange");
        assert_eq!(out.response.msg_type, msg::INSTANCE_RESP, "instance {idx}");
        assert!(
            verifier
                .verify_instance(idx, &out.response.payload, &fx.ios[idx])
                .expect("well-formed response"),
            "instance {idx}"
        );
        responses.push(out.response.payload);
    }
    let _ = vt.send(&Frame::new(msg::DONE, u32::MAX, Vec::new()));
    server.join().expect("prover panicked").expect("prover fatal error");

    // Replay against isolated per-circuit sessions seeded from the same
    // fork schedule the hetero verifier pins.
    for (c, pcp) in pcps.iter().enumerate() {
        let mut sub = prg.fork(HETERO_PRG_STREAM_BASE + c as u64);
        let mut ref_verifier = SessionVerifier::new(pcp, &mut sub);
        let mut ref_prover = SessionProver::new(pcp);
        ref_prover
            .receive_setup(&ref_verifier.setup_message().expect("reference setup"))
            .expect("reference prover accepts setup");
        for (idx, &cid) in fx.circuit_ids.iter().enumerate() {
            if cid as usize != c {
                continue;
            }
            let expected = ref_prover
                .instance_message_policied(&fx.proofs[idx], &mut ProverWorkspace::new())
                .expect("reference prover answers");
            assert_eq!(
                responses[idx], expected,
                "instance {idx} (circuit {c}): served bytes diverge from isolated reference"
            );
            assert!(ref_verifier
                .verify_instance(&expected, &fx.ios[idx])
                .expect("reference verifies"));
        }
    }
}
