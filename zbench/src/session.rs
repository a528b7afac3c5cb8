//! The timed run: set-up (build, seeded batch, warm-up session with its
//! negative controls) and closed-loop verified sessions with verifier
//! and prover in one process, timed from the verifier's transport.
//! Tracing is off here; the per-layer numbers come from `trace.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use zaatar_core::runtime::{
    prove_batch_with_policy, prove_instance_policied, run_hetero_session_verifier, run_session_prover,
    run_session_verifier, SessionReport,
};
use zaatar_core::{ExecPolicy, HostProfile, MemBudget, ProverWorkspace, SessionError, ZaatarProof};
use zaatar_crypto::ChaChaPrg;
use zaatar_server::{Admission, ServerConfig, SessionOutcome, SessionServer, TcpAcceptor};
use zaatar_transport::{loopback_transport_pair, RetryPolicy, TcpTransport, Transport};

use crate::circuit::{Batch, BenchField};
use crate::timed::{attribute, RolePhases, TimedTransport};
use crate::workload::{tenant_budget_bytes, Harness, Spec};

/// How long either side waits before giving a session up. Far above any
/// phase of any workload, so a measured run never retransmits: the
/// retry layer's first timeout must outlast the prover's slowest reply.
const PATIENCE: Duration = Duration::from_secs(120);

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        deadline: PATIENCE,
        initial_timeout: PATIENCE,
        backoff_factor: 1,
        max_timeout: PATIENCE,
        max_retransmits: 0,
    }
}

/// Everything a workload's sessions run on, built once per set-up pass.
pub struct Prepared<F> {
    pub batch: Batch<F>,
    pub harness: Harness,
    /// The policy proofs are constructed (and, on a server, served) under.
    pub policy: ExecPolicy,
    pub budget: MemBudget,
    /// Seconds the scheduler took to derive `policy` (0 when pinned).
    pub policy_s: f64,
    /// `Fleet` only: the batch's proofs, constructed once in set-up.
    pub fleet_proofs: Option<Vec<ZaatarProof<F>>>,
}

/// The proofs, claimed ios and circuit assignment one session runs on —
/// the batch's own, or the warm-up's with the cheating instance added.
pub struct SessionInput<'a, F> {
    pub proofs: &'a [ZaatarProof<F>],
    pub ios: &'a [Vec<F>],
    pub circuit_ids: &'a [u32],
}

/// What the verifier's side of one session observed.
pub struct Exchange {
    /// Verifier call-to-return (`Fleet`: connect to report), seconds.
    pub wall_s: f64,
    pub phases: RolePhases,
    /// Bytes the verifier sent plus received, frame headers included.
    pub wire_bytes: u64,
    pub result: Result<SessionReport, SessionError>,
}

/// One measured session.
pub struct SessionSample {
    /// Construct plus verifier wall (`Fleet`: verifier wall only).
    pub wall_s: f64,
    /// `prove_batch_with_policy` wall; `None` when proofs were built in set-up.
    pub construct_s: Option<f64>,
    pub exchange: Exchange,
}

impl SessionSample {
    /// Instances of this session that did not end `Accepted`; a session
    /// that failed as a whole fails all `beta` of them.
    pub fn failed_instances(&self, beta: usize) -> usize {
        match &self.exchange.result {
            Ok(report) => report.outcomes.iter().filter(|o| !o.is_accepted()).count(),
            Err(_) => beta,
        }
    }
}

/// Counters of the server side of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounts {
    pub rejected: u64,
    pub expired: u64,
    pub failed: u64,
    pub budget_refusals: u64,
    pub live_high_water: u64,
}

impl ServerCounts {
    fn absorb(&mut self, outcome: &SessionOutcome) {
        match outcome {
            SessionOutcome::Served => {}
            SessionOutcome::Expired => self.expired += 1,
            SessionOutcome::Rejected(_) => self.rejected += 1,
            SessionOutcome::Failed(SessionError::BudgetExceeded { .. }) => {
                self.failed += 1;
                self.budget_refusals += 1;
            }
            SessionOutcome::Failed(_) => self.failed += 1,
        }
    }

    pub fn merge(&mut self, other: &ServerCounts) {
        self.rejected += other.rejected;
        self.expired += other.expired;
        self.failed += other.failed;
        self.budget_refusals += other.budget_refusals;
        self.live_high_water = self.live_high_water.max(other.live_high_water);
    }
}

fn server_config(budget: MemBudget) -> ServerConfig {
    ServerConfig {
        max_sessions: 4,
        session_budget: PATIENCE,
        idle_timeout: PATIENCE,
        tenant_budget: budget,
        ..ServerConfig::default()
    }
}

impl<F: BenchField> Prepared<F> {
    /// Builds the workload's batch from `seed` and fixes its policy:
    /// pinned monolithic for `Direct`, the server's own `tenant_policy()`
    /// for the two server harnesses.
    pub fn build(spec: &Spec, seed: u64) -> Result<Self, String> {
        let batch = Batch::<F>::build(&spec.mix, seed)?;
        let mut prep = Prepared {
            harness: spec.harness,
            policy: ExecPolicy::serial(),
            budget: MemBudget::unlimited(),
            policy_s: 0.0,
            fleet_proofs: None,
            batch,
        };
        match spec.harness {
            Harness::Direct => {
                let nproc = HostProfile::from_env().parallelism;
                prep.policy = ExecPolicy::with_workers(nproc.min(prep.batch.beta()));
            }
            Harness::Budgeted | Harness::Fleet { .. } => {
                if spec.harness == Harness::Budgeted {
                    let domain = prep.batch.circuits[0].pcp.qap().degree();
                    prep.budget = MemBudget::bytes(tenant_budget_bytes(domain, std::mem::size_of::<F>()));
                }
                let t = Instant::now();
                let probe = SessionServer::new_hetero(&prep.batch.pcps(), &[], &[], server_config(prep.budget));
                prep.policy = probe.tenant_policy();
                prep.policy_s = t.elapsed().as_secs_f64();
            }
        }
        if matches!(spec.harness, Harness::Fleet { .. }) {
            prep.fleet_proofs = Some(prep.construct()?);
        }
        Ok(prep)
    }

    /// Constructs the batch's proofs under the workload's policy and
    /// budget, one `prove_batch_with_policy` call per circuit.
    pub fn construct(&self) -> Result<Vec<ZaatarProof<F>>, String> {
        let batch = &self.batch;
        let mut proofs: Vec<Option<ZaatarProof<F>>> = (0..batch.beta()).map(|_| None).collect();
        for (c, circuit) in batch.circuits.iter().enumerate() {
            let members: Vec<usize> = (0..batch.beta()).filter(|&i| batch.circuit_ids[i] as usize == c).collect();
            let witnesses: Vec<_> = members.iter().map(|&i| batch.instances[i].witness.clone()).collect();
            let built = prove_batch_with_policy(&circuit.pcp, &witnesses, &self.policy, self.budget)
                .map_err(|e| format!("construct refused by the memory budget: {e:?}"))?;
            for (i, proof) in members.into_iter().zip(built) {
                proofs[i] = proof;
            }
        }
        proofs
            .into_iter()
            .map(|p| p.ok_or_else(|| "an honest witness failed the divisibility gate".to_string()))
            .collect()
    }

    /// Serves `input` to one verifier over the workload's link and
    /// returns what the verifier saw (`Direct` and `Budgeted`).
    fn serve_one(&self, input: &SessionInput<'_, F>, prg_seed: u64, tamper: bool) -> (Exchange, ServerCounts) {
        let pcp = &self.batch.circuits[0].pcp;
        let (vt, mut pt) = loopback_transport_pair();
        std::thread::scope(|s| match self.harness {
            Harness::Direct => {
                let prover = s.spawn(move || run_session_prover(&mut pt, pcp, input.proofs, PATIENCE));
                let mut exchange = verify_over(&self.batch, input, vt, Instant::now(), prg_seed, tamper);
                if let Err(e) = prover.join().expect("prover thread panicked") {
                    exchange.result = exchange.result.and(Err(e));
                }
                (exchange, ServerCounts::default())
            }
            Harness::Budgeted | Harness::Fleet { .. } => {
                let config = server_config(self.budget);
                let server = s.spawn(move || {
                    let mut counts = ServerCounts::default();
                    let mut server = SessionServer::new(pcp, input.proofs, config);
                    match server.admit(pt, "tenant") {
                        Admission::Admitted(_) => {}
                        Admission::Rejected(_) => counts.rejected += 1,
                    }
                    for (_, outcome) in server.run_until_drained(Instant::now() + PATIENCE) {
                        counts.absorb(&outcome);
                    }
                    counts.live_high_water = 1;
                    counts
                });
                let exchange = verify_over(&self.batch, input, vt, Instant::now(), prg_seed, tamper);
                (exchange, server.join().expect("server thread panicked"))
            }
        })
    }

    /// One session of the `Direct` or `Budgeted` harness: construct,
    /// then serve and verify.
    fn session(&self, prg_seed: u64) -> Result<(SessionSample, ServerCounts), String> {
        let t = Instant::now();
        let proofs = self.construct()?;
        let construct_s = t.elapsed().as_secs_f64();
        let ios = self.batch.ios();
        let input = SessionInput { proofs: &proofs, ios: &ios, circuit_ids: &self.batch.circuit_ids };
        let (exchange, counts) = self.serve_one(&input, prg_seed, false);
        Ok((SessionSample { wall_s: construct_s + exchange.wall_s, construct_s: Some(construct_s), exchange }, counts))
    }

    /// The untimed warm-up session — NTT plans and fixed-base tables get
    /// interned, arenas page-faulted — doubling as the correctness gate's
    /// negative control: its first response is tampered in flight and an
    /// extra instance carries a proof built from a flipped witness. Both
    /// must be refused and every other instance accepted.
    pub fn warm_up(&self, seed: u64) -> Result<(), String> {
        let batch = &self.batch;
        let bad = batch.flipped_witness();
        let mut ws = ProverWorkspace::with_budget(self.budget).with_policy(self.policy);
        match prove_instance_policied(&batch.circuit_of(0).pcp, &bad, &mut ws) {
            Ok(None) => {}
            Ok(Some(_)) => {
                return Err("negative control: the prover's divisibility gate passed a flipped witness".into())
            }
            Err(e) => return Err(format!("negative control: budget refused the flipped witness: {e:?}")),
        }
        let mut proofs = match &self.fleet_proofs {
            Some(proofs) => proofs.clone(),
            None => self.construct()?,
        };
        proofs.push(batch.cheating_proof());
        let mut ios = batch.ios();
        ios.push(batch.instances[0].io.clone());
        let mut circuit_ids = batch.circuit_ids.clone();
        circuit_ids.push(batch.circuit_ids[0]);
        let input = SessionInput { proofs: &proofs, ios: &ios, circuit_ids: &circuit_ids };
        let prg_seed = session_prg_seed(seed, usize::MAX, 0);
        let exchange = match self.harness {
            Harness::Fleet { .. } => {
                let mut run = self.fleet(&input, 1, None, seed, true)?;
                run.samples.pop().ok_or("warm-up produced no session")?.exchange
            }
            _ => self.serve_one(&input, prg_seed, true).0,
        };
        let report = exchange.result.map_err(|e| format!("warm-up session failed: {e}"))?;
        let beta = batch.beta();
        if report.outcomes.len() != beta + 1 {
            return Err(format!("warm-up returned {} verdicts for {} instances", report.outcomes.len(), beta + 1));
        }
        if report.outcomes[0].is_accepted() {
            return Err("negative control: a tampered INSTANCE_RESP was accepted".into());
        }
        if report.outcomes[beta].is_accepted() {
            return Err("negative control: a proof from a flipped witness was accepted".into());
        }
        if let Some(i) = (1..beta).find(|&i| !report.outcomes[i].is_accepted()) {
            return Err(format!("warm-up instance {i} was not accepted: {:?}", report.outcomes[i]));
        }
        Ok(())
    }

    /// Runs a hetero `SessionServer` over TCP on 127.0.0.1 against
    /// `tenants` closed-loop verifiers. Each tenant starts its next
    /// session when the previous one returns, until `until` passes
    /// (`None`: exactly one session each).
    fn fleet(
        &self,
        input: &SessionInput<'_, F>,
        tenants: usize,
        until: Option<Instant>,
        seed: u64,
        tamper: bool,
    ) -> Result<Measured, String> {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = acceptor.local_addr().map_err(|e| format!("local addr: {e}"))?;
        let stop = AtomicBool::new(false);
        let samples = Mutex::new(Vec::new());
        let pcps = self.batch.pcps();
        let config = server_config(self.budget);
        let started = Instant::now();
        let (wall_s, counts) = std::thread::scope(|s| {
            let server = s.spawn(|| {
                let mut counts = ServerCounts::default();
                let mut server = SessionServer::new_hetero(&pcps, input.circuit_ids, input.proofs, config);
                // The product's drain loop (`run_until_drained`: sweep,
                // sleep 200 µs when no session finished) plus accepting.
                while !stop.load(Ordering::SeqCst) || server.live_sessions() > 0 {
                    while let Ok(Some(transport)) = acceptor.try_accept() {
                        if let Admission::Rejected(_) = server.admit(transport, "fleet") {
                            counts.rejected += 1;
                        }
                    }
                    counts.live_high_water = counts.live_high_water.max(server.live_sessions() as u64);
                    let finished = server.poll();
                    for (_, outcome) in &finished {
                        counts.absorb(outcome);
                    }
                    if finished.is_empty() {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                counts
            });
            let clients: Vec<_> = (0..tenants)
                .map(|tenant| {
                    let samples = &samples;
                    let batch = &self.batch;
                    s.spawn(move || {
                        for k in 0.. {
                            let origin = Instant::now();
                            let exchange = match TcpTransport::connect(addr) {
                                Ok(transport) => verify_over(
                                    batch,
                                    input,
                                    transport,
                                    origin,
                                    session_prg_seed(seed, tenant, k),
                                    tamper && k == 0,
                                ),
                                Err(e) => Exchange {
                                    wall_s: origin.elapsed().as_secs_f64(),
                                    phases: RolePhases::default(),
                                    wire_bytes: 0,
                                    result: Err(SessionError::Transport(e)),
                                },
                            };
                            let failed = exchange.result.is_err();
                            samples.lock().expect("sample mutex").push(SessionSample {
                                wall_s: exchange.wall_s,
                                construct_s: None,
                                exchange,
                            });
                            // A dead server would make this loop spin.
                            if failed || until.is_none_or(|u| Instant::now() >= u) {
                                break;
                            }
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("tenant thread panicked");
            }
            let wall_s = started.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            (wall_s, server.join().expect("server thread panicked"))
        });
        Ok(Measured { samples: samples.into_inner().expect("sample mutex"), wall_s, counts })
    }

    /// The measured phase: closed-loop sessions until `seconds` have
    /// passed and at least `min_sessions` ran (on the fleet: at least one
    /// per tenant). `tenants` overrides the fleet's client count (the
    /// traced run measures one tenant alone).
    pub fn measure(
        &self,
        seed: u64,
        seconds: f64,
        min_sessions: usize,
        tenants: Option<usize>,
    ) -> Result<Measured, String> {
        let started = Instant::now();
        let span = Duration::from_secs_f64(seconds);
        if let Harness::Fleet { tenants: configured } = self.harness {
            let tenants = tenants.unwrap_or(configured);
            let proofs = self.fleet_proofs.as_ref().expect("fleet proofs are built in set-up");
            let ios = self.batch.ios();
            let input = SessionInput { proofs, ios: &ios, circuit_ids: &self.batch.circuit_ids };
            // Every tenant runs at least one session, whatever the window.
            return self.fleet(&input, tenants, Some(started + span), seed, false);
        }
        let mut samples = Vec::new();
        let mut counts = ServerCounts::default();
        while samples.len() < min_sessions || started.elapsed() < span {
            let (sample, served) = self.session(session_prg_seed(seed, 0, samples.len()))?;
            counts.merge(&served);
            samples.push(sample);
        }
        Ok(Measured { samples, wall_s: started.elapsed().as_secs_f64(), counts })
    }
}

/// A measured run of sessions (on the fleet: of all tenants together).
pub struct Measured {
    pub samples: Vec<SessionSample>,
    /// First session start to last session end, seconds.
    pub wall_s: f64,
    pub counts: ServerCounts,
}

/// The verifier's PRG seed for session `k` of `tenant`: derived from the
/// run's seed only, so the same `--seed` replays the same keys and queries.
pub fn session_prg_seed(seed: u64, tenant: usize, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add((tenant as u64) << 32).wrapping_add(k as u64)
}

/// Runs the verifier's side of one session over `transport`, stamped by
/// a [`TimedTransport`] whose clock starts at `origin`.
pub fn verify_over<F: BenchField, T: Transport>(
    batch: &Batch<F>,
    input: &SessionInput<'_, F>,
    transport: T,
    origin: Instant,
    prg_seed: u64,
    tamper: bool,
) -> Exchange {
    let mut timed = TimedTransport::new(transport, origin);
    if tamper {
        timed = timed.tampering();
    }
    let mut prg = ChaChaPrg::from_u64_seed(prg_seed);
    let retry = retry_policy();
    let result = if batch.is_hetero() {
        run_hetero_session_verifier(&mut timed, &batch.pcps(), input.circuit_ids, input.ios, &retry, &mut prg)
    } else {
        run_session_verifier(&mut timed, &batch.circuits[0].pcp, input.ios, &retry, &mut prg)
    };
    let wall_s = origin.elapsed().as_secs_f64();
    let stats = timed.stats();
    Exchange { wall_s, phases: attribute(timed.events()), wire_bytes: stats.bytes_sent + stats.bytes_received, result }
}
