//! Multi-tenant session server: many concurrent prover sessions over
//! one nonblocking poll loop.
//!
//! `zaatar_core::run_session_prover` drives exactly one verifier over
//! one transport and returns when that verifier goes away — fine for a
//! benchmark, useless for the ROADMAP's "millions of users" north star.
//! This crate lifts the same protocol — literally: every session pumps
//! the same [`zaatar_core::ProverMachine`] the blocking loop does — and
//! the same graceful-degradation philosophy from one connection to a
//! fleet of them:
//!
//! * [`SessionServer`] — a single-threaded poll loop multiplexing any
//!   number of framed connections. Each sweep gives every session at
//!   most `FRAMES_PER_SWEEP` (32) frames of attention, so a
//!   slow-loris client costs one poll per sweep, never the loop.
//! * **Workspace pool** — every admitted session leases a
//!   [`ProverWorkspace`] from a bounded [`WorkspacePool`]; release on
//!   any terminal state (graceful or not) is structural, so a session
//!   that dies mid-commit cannot leak its buffers.
//! * **Deadline budgets** — each session carries a wall-clock
//!   [`DeadlineBudget`] enforced at frame boundaries; an over-budget
//!   session terminates [`SessionOutcome::Expired`] with a best-effort
//!   typed `ERROR(EXPIRED)` frame, and its neighbors never notice.
//! * **Admission control** — when live sessions or pooled-workspace
//!   bytes cross the configured thresholds, new connections are refused
//!   with a well-formed `ERROR(BUSY)` frame at `seq 0` (the setup
//!   sequence number, so a verifier's first exchange surfaces it as
//!   [`zaatar_core::SessionError::Peer`] instead of a timeout).
//!
//! Every terminal state is typed ([`SessionOutcome`]) and counted, both
//! in the server's own [`ServerStats`] (per-tenant breakdown included)
//! and in the global `zaatar_obs` registry under `server.*`, which the
//! bench harness snapshots deterministically via
//! [`zaatar_obs::Snapshot::filter_prefix`].

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::net::{TcpListener, ToSocketAddrs};
use std::time::{Duration, Instant};

use zaatar_core::runtime::{errcode, msg};
use zaatar_core::{
    ExecPolicy, HostProfile, MemBudget, ProverMachine, ProverStep, ProverWorkspace,
    Scheduler, SessionError, WorkloadShape, ZaatarProof,
};
use zaatar_core::pcp::ZaatarPcp;
use zaatar_crypto::HasGroup;
use zaatar_field::PrimeField;
use zaatar_poly::domain::EvalDomain;
use zaatar_transport::{
    BoxedLink, DeadlineBudget, Frame, FramedTransport, Link, TcpLink, TcpTransport, Transport,
    TransportError,
};

/// Tuning knobs for one [`SessionServer`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Live-session ceiling; admission beyond it is refused.
    pub max_sessions: usize,
    /// Workspace-memory ceiling in bytes (pooled + leased, as measured
    /// by [`SessionServer::workspace_footprint_bytes`]); admission is
    /// refused while the footprint is at or above it.
    pub max_footprint_bytes: usize,
    /// Wall-clock budget per session, from admission to terminal state.
    pub session_budget: Duration,
    /// A session with no valid frame for this long is wound down:
    /// [`SessionOutcome::Served`] after a setup (the verifier is
    /// presumed done), [`SessionOutcome::Expired`] before one.
    pub idle_timeout: Duration,
    /// When memory pressure engages, workspaces returning to the pool
    /// are trimmed to at most this many retained bytes.
    pub trim_to_bytes: usize,
    /// Per-tenant workspace budget: every leased workspace enforces
    /// this as a hard cap on each of its pools, so one tenant's
    /// session fails with a typed
    /// [`SessionError::BudgetExceeded`] instead of growing into the
    /// server-wide [`ServerConfig::max_footprint_bytes`] headroom other
    /// tenants depend on. [`MemBudget::unlimited`] (the default)
    /// preserves the pre-budget behavior.
    pub tenant_budget: MemBudget,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_footprint_bytes: 256 << 20,
            session_budget: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(5),
            trim_to_bytes: 1 << 20,
            tenant_budget: MemBudget::unlimited(),
        }
    }
}

/// Why admission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Live sessions or workspace memory crossed a configured ceiling.
    Backpressure,
}

/// How one session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The verifier finished (DONE), left, or went idle after a valid
    /// setup — the protocol's normal endings.
    Served,
    /// The session ran out of wall-clock budget, or idled out before
    /// ever completing a setup.
    Expired,
    /// Admission was refused; the client got a typed `ERROR(BUSY)`.
    Rejected(RejectReason),
    /// The session died on a non-recoverable error.
    Failed(SessionError),
}

/// Identifies one admitted session for the life of the server.
pub type SessionId = u64;

/// The result of [`SessionServer::admit`].
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// The session is live and will be served by subsequent polls.
    Admitted(SessionId),
    /// The connection was refused and dropped (after a best-effort
    /// `ERROR(BUSY)` frame).
    Rejected(RejectReason),
}

/// A bounded free-list of prover workspaces. Leases are capped at
/// `capacity`; a `None` lease is the memory-side backpressure signal.
pub struct WorkspacePool<F> {
    free: Vec<ProverWorkspace<F>>,
    capacity: usize,
    outstanding: usize,
}

impl<F> WorkspacePool<F> {
    /// An empty pool allowing up to `capacity` concurrent leases.
    pub fn new(capacity: usize) -> Self {
        WorkspacePool { free: Vec::new(), capacity, outstanding: 0 }
    }

    /// Leases a workspace (warm if one is pooled), or `None` when all
    /// `capacity` workspaces are already out.
    pub fn lease(&mut self) -> Option<ProverWorkspace<F>> {
        if self.outstanding >= self.capacity {
            return None;
        }
        self.outstanding += 1;
        Some(self.free.pop().unwrap_or_default())
    }

    /// Returns a leased workspace for reuse.
    pub fn release(&mut self, ws: ProverWorkspace<F>) {
        self.outstanding = self.outstanding.saturating_sub(1);
        self.free.push(ws);
    }

    /// Leases currently out.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Bytes held by idle pooled workspaces.
    pub fn pooled_bytes(&self) -> usize {
        self.free.iter().map(ProverWorkspace::footprint_bytes).sum()
    }
}

/// Counters per tenant label, mirroring the global totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Sessions admitted.
    pub accepted: u64,
    /// Sessions ending [`SessionOutcome::Served`].
    pub served: u64,
    /// Admissions refused.
    pub rejected: u64,
    /// Sessions ending [`SessionOutcome::Expired`].
    pub expired: u64,
    /// Sessions ending [`SessionOutcome::Failed`].
    pub failed: u64,
}

/// Aggregate counters for one server instance.
#[derive(Clone, Debug, Default)]
pub struct ServerStats {
    /// Sessions admitted.
    pub accepted: u64,
    /// Admissions refused under backpressure.
    pub rejected: u64,
    /// Sessions ending [`SessionOutcome::Served`].
    pub served: u64,
    /// Sessions ending [`SessionOutcome::Expired`].
    pub expired: u64,
    /// Sessions ending [`SessionOutcome::Failed`].
    pub failed: u64,
    /// Valid frames processed across all sessions.
    pub frames_processed: u64,
    /// Per-tenant breakdown, keyed by the label given at admission.
    pub per_tenant: BTreeMap<String, TenantStats>,
}

struct Session<'p, F: PrimeField + HasGroup, D: EvalDomain<F>> {
    transport: FramedTransport<BoxedLink>,
    /// The protocol itself: setup state, response cache, reply frames.
    machine: ProverMachine<'p, F, D>,
    ws: Option<ProverWorkspace<F>>,
    budget: DeadlineBudget,
    last_activity: Instant,
    started: Instant,
    tenant: String,
    /// Seq of the most recent valid frame, for best-effort typed
    /// error notices on expiry.
    last_seq: u32,
}

impl<F: PrimeField + HasGroup, D: EvalDomain<F>> Session<'_, F, D> {
    /// How a session whose peer hung up ends: after a setup that is
    /// the protocol's "done" for verifiers that skip the DONE frame;
    /// before one it is a failure.
    fn hangup_outcome(&self) -> SessionOutcome {
        if self.machine.is_ready() {
            SessionOutcome::Served
        } else {
            SessionOutcome::Failed(SessionError::Transport(TransportError::Closed))
        }
    }
}

/// What one sweep of one session concluded.
enum Sweep {
    /// Still live.
    Continue,
    /// Terminal; remove the session.
    Done(SessionOutcome),
}

/// A poll-loop prover server: admits framed connections, serves the
/// batched argument protocol to all of them concurrently (frame by
/// frame, no thread per session), and degrades per session.
pub struct SessionServer<'p, F: PrimeField + HasGroup, D: EvalDomain<F>> {
    pcps: Vec<&'p ZaatarPcp<F, D>>,
    circuit_ids: Vec<u32>,
    proofs: &'p [ZaatarProof<F>],
    config: ServerConfig,
    pool: WorkspacePool<F>,
    sessions: BTreeMap<SessionId, Session<'p, F, D>>,
    next_id: SessionId,
    stats: ServerStats,
    /// Per-tenant execution policy, derived once at construction from
    /// the largest configured circuit and
    /// [`ServerConfig::tenant_budget`], and stamped on every leased
    /// workspace — the serving path chunks its commitments exactly when
    /// the scheduler's covering-chunk threshold does not fit the budget.
    tenant_policy: ExecPolicy,
}

impl<'p, F, D> SessionServer<'p, F, D>
where
    F: PrimeField + HasGroup,
    D: EvalDomain<F>,
{
    /// A server for one proof batch over a single circuit: the
    /// one-circuit case of [`SessionServer::new_hetero`]. Every
    /// admitted verifier session negotiates its own C = 1 `HSETUP` and
    /// is answered from `proofs`.
    pub fn new(pcp: &'p ZaatarPcp<F, D>, proofs: &'p [ZaatarProof<F>], config: ServerConfig) -> Self {
        Self::new_hetero(&[pcp], &vec![0; proofs.len()], proofs, config)
    }

    /// A server for a *heterogeneous* proof batch: `proofs[i]` belongs
    /// to circuit `circuit_ids[i]` of `pcps`. Admitted sessions set up
    /// with `HSETUP` (the retired `SETUP` frame is answered
    /// `ERROR(MALFORMED)`), answering each instance through its own
    /// circuit's packed query set.
    ///
    /// # Panics
    ///
    /// Panics if `circuit_ids` and `proofs` disagree in length or any
    /// id is out of range — server configuration, not wire input.
    pub fn new_hetero(
        pcps: &[&'p ZaatarPcp<F, D>],
        circuit_ids: &[u32],
        proofs: &'p [ZaatarProof<F>],
        config: ServerConfig,
    ) -> Self {
        assert_eq!(circuit_ids.len(), proofs.len(), "one circuit id per proof");
        assert!(
            circuit_ids.iter().all(|&c| (c as usize) < pcps.len()),
            "circuit id out of range"
        );
        // A live session holds exactly one workspace, and `admit`
        // refuses at `max_sessions` before it leases.
        let pool = WorkspacePool::new(config.max_sessions);
        // One policy decision for the whole server. Batch 1 keeps
        // `workers` at one, and that is a decision: a poll thread that
        // multiplexes tenants does not fan one tenant's instance out
        // over the cores its other tenants are waiting for (the blocking
        // single-session pump does; the ROADMAP's chunk-axis item, which
        // re-fits `sched`, revisits this). What is left to size is the
        // chunk length — for the largest configured circuit against the
        // per-tenant budget, so every tenant's workspace serves every
        // circuit.
        let scheduler = Scheduler::new(HostProfile::from_env());
        let shape = WorkloadShape {
            domain_size: pcps.iter().map(|p| p.qap().degree()).max().unwrap_or(1),
            batch: 1,
            elem_bytes: std::mem::size_of::<F>(),
        };
        let tenant_policy = scheduler.policy(shape, config.tenant_budget);
        SessionServer {
            pcps: pcps.to_vec(),
            circuit_ids: circuit_ids.to_vec(),
            proofs,
            config,
            pool,
            sessions: BTreeMap::new(),
            next_id: 0,
            stats: ServerStats::default(),
            tenant_policy,
        }
    }

    /// The execution policy stamped on every admitted session's
    /// workspace (derived from the largest circuit and the tenant
    /// budget at construction).
    pub fn tenant_policy(&self) -> ExecPolicy {
        self.tenant_policy
    }

    /// Circuits this server carries (1 for a single-circuit server).
    pub fn num_circuits(&self) -> usize {
        self.pcps.len()
    }

    /// Live sessions right now.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Counters so far.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The workspace pool, e.g. to assert zero leaks after a drain.
    pub fn pool(&self) -> &WorkspacePool<F> {
        &self.pool
    }

    /// Total workspace bytes attributable to this server: idle pooled
    /// workspaces plus every live session's leased one. This is the
    /// quantity [`ServerConfig::max_footprint_bytes`] gates.
    pub fn workspace_footprint_bytes(&self) -> usize {
        self.pool.pooled_bytes()
            + self
                .sessions
                .values()
                .filter_map(|s| s.ws.as_ref())
                .map(ProverWorkspace::footprint_bytes)
                .sum::<usize>()
    }

    /// Whether a new admission would currently be refused.
    pub fn backpressure_engaged(&self) -> bool {
        self.sessions.len() >= self.config.max_sessions
            || self.workspace_footprint_bytes() >= self.config.max_footprint_bytes
            || self.pool.outstanding() >= self.pool.capacity
    }

    /// Admits one framed connection under the tenant label, or refuses
    /// it with a typed `ERROR(BUSY)` frame at `seq 0` — the sequence
    /// number of the setup exchange, so the verifier's first
    /// [`zaatar_transport::exchange`] resolves to
    /// [`SessionError::Peer`]`(BUSY)` rather than timing out.
    pub fn admit<L: Link + Send + 'static>(
        &mut self,
        transport: FramedTransport<L>,
        tenant: &str,
    ) -> Admission {
        let mut transport = transport.boxed();
        let refused = self.sessions.len() >= self.config.max_sessions
            || self.workspace_footprint_bytes() >= self.config.max_footprint_bytes;
        let ws = if refused { None } else { self.pool.lease() };
        // A recycled workspace may carry a previous session's budget
        // and policy (or none); (re)stamp the per-tenant cap and the
        // scheduler's decision before it serves.
        let ws = ws.map(|mut ws| {
            ws.set_budget(self.config.tenant_budget);
            ws.set_policy(self.tenant_policy);
            ws
        });
        let tenant_entry = self.stats.per_tenant.entry(tenant.to_string()).or_default();
        let Some(ws) = ws else {
            tenant_entry.rejected += 1;
            self.stats.rejected += 1;
            zaatar_obs::counter("server.sessions.rejected").inc();
            zaatar_obs::counter("server.backpressure.engaged").inc();
            // Best effort: a refusal the client never hears is still a
            // refusal (it degrades to the client's timeout path).
            let _ = transport.send(&Frame::new(msg::ERROR, 0, vec![errcode::BUSY]));
            return Admission::Rejected(RejectReason::Backpressure);
        };
        tenant_entry.accepted += 1;
        self.stats.accepted += 1;
        zaatar_obs::counter("server.sessions.accepted").inc();
        let id = self.next_id;
        self.next_id += 1;
        let now = Instant::now();
        self.sessions.insert(
            id,
            Session {
                transport,
                machine: ProverMachine::new(&self.pcps, &self.circuit_ids, self.proofs),
                ws: Some(ws),
                budget: DeadlineBudget::new(self.config.session_budget),
                last_activity: now,
                started: now,
                tenant: tenant.to_string(),
                last_seq: 0,
            },
        );
        zaatar_obs::gauge("server.sessions.live_high_water").observe(self.sessions.len() as u64);
        Admission::Admitted(id)
    }

    /// One sweep over every live session, each bounded to
    /// `FRAMES_PER_SWEEP` frames. Returns the sessions
    /// that reached a terminal state this sweep, with their outcomes;
    /// their workspaces are already back in the pool.
    pub fn poll(&mut self) -> Vec<(SessionId, SessionOutcome)> {
        let mut finished = Vec::new();
        let ids: Vec<SessionId> = self.sessions.keys().copied().collect();
        for id in ids {
            let session = self.sessions.get_mut(&id).expect("live session");
            let (sweep, frames) = Self::sweep_session(session, &self.config);
            self.stats.frames_processed += frames;
            if let Sweep::Done(outcome) = sweep {
                // Measure pressure while the dying session's workspace
                // still counts, so the trim decision sees the footprint
                // the admission gate would.
                let pressured =
                    self.workspace_footprint_bytes() >= self.config.max_footprint_bytes;
                let mut session = self.sessions.remove(&id).expect("live session");
                // Structural release: whatever ended the session, its
                // workspace returns to the pool — under memory
                // pressure, trimmed first.
                if let Some(mut ws) = session.ws.take() {
                    if pressured {
                        ws.trim_to(self.config.trim_to_bytes);
                    }
                    self.pool.release(ws);
                }
                zaatar_obs::global()
                    .timer("server.session")
                    .record_duration(session.started.elapsed());
                let tenant = self.stats.per_tenant.entry(session.tenant.clone()).or_default();
                match outcome {
                    SessionOutcome::Served => {
                        self.stats.served += 1;
                        tenant.served += 1;
                        zaatar_obs::counter("server.sessions.served").inc();
                    }
                    SessionOutcome::Expired => {
                        self.stats.expired += 1;
                        tenant.expired += 1;
                        zaatar_obs::counter("server.sessions.expired").inc();
                    }
                    SessionOutcome::Failed(_) => {
                        self.stats.failed += 1;
                        tenant.failed += 1;
                        zaatar_obs::counter("server.sessions.failed").inc();
                    }
                    // Rejections never enter the session table.
                    SessionOutcome::Rejected(_) => unreachable!("rejected sessions are never live"),
                }
                finished.push((id, outcome));
            }
        }
        finished
    }

    /// Polls until every live session has terminated or `deadline`
    /// passes, sleeping briefly between idle sweeps. Returns everything
    /// that finished, in completion order.
    pub fn run_until_drained(&mut self, deadline: Instant) -> Vec<(SessionId, SessionOutcome)> {
        let mut finished = Vec::new();
        while !self.sessions.is_empty() && Instant::now() < deadline {
            let batch = self.poll();
            if batch.is_empty() {
                std::thread::sleep(Duration::from_micros(200));
            }
            finished.extend(batch);
        }
        finished
    }

    /// Frames one session may consume per poll sweep before the loop
    /// moves on — the anti-starvation budget.
    const FRAMES_PER_SWEEP: usize = 32;

    /// Drives one session for up to `FRAMES_PER_SWEEP` frames; returns
    /// the sweep verdict and how many valid frames were consumed. The
    /// protocol is the session's [`ProverMachine`]; this loop adds what
    /// is the server's own — the deadline, the idle-out, and the mapping
    /// from how a session stopped to its [`SessionOutcome`].
    fn sweep_session(session: &mut Session<'p, F, D>, config: &ServerConfig) -> (Sweep, u64) {
        let mut frames = 0u64;
        for _ in 0..Self::FRAMES_PER_SWEEP {
            // Deadlines are enforced at frame boundaries: an expired
            // budget terminates the session before the next frame is
            // even read.
            if session.budget.expired() {
                let _ = session
                    .transport
                    .send(&Frame::new(msg::ERROR, session.last_seq, vec![errcode::EXPIRED]));
                return (Sweep::Done(SessionOutcome::Expired), frames);
            }
            let frame = match session.transport.poll_recv() {
                Ok(Some(frame)) => frame,
                Ok(None) => {
                    // Nothing ready. Idle-out if quiet too long; the
                    // outcome depends on whether a setup is in force.
                    if session.last_activity.elapsed() >= config.idle_timeout {
                        let outcome = if session.machine.is_ready() {
                            SessionOutcome::Served
                        } else {
                            SessionOutcome::Expired
                        };
                        return (Sweep::Done(outcome), frames);
                    }
                    return (Sweep::Continue, frames);
                }
                Err(TransportError::Closed) => {
                    return (Sweep::Done(session.hangup_outcome()), frames)
                }
                Err(e) => {
                    return (Sweep::Done(SessionOutcome::Failed(SessionError::Transport(e))), frames)
                }
            };
            frames += 1;
            session.last_activity = Instant::now();
            session.last_seq = frame.seq;
            let ws = session.ws.as_mut().expect("live session owns a workspace");
            let reply = match session.machine.step(&frame, ws) {
                ProverStep::Reply(reply) => reply,
                ProverStep::Ignore => continue,
                ProverStep::Done => return (Sweep::Done(SessionOutcome::Served), frames),
                ProverStep::Fatal(e) => return (Sweep::Done(SessionOutcome::Failed(e)), frames),
            };
            match session.transport.send(&reply) {
                Ok(()) => {}
                // A response the peer will never read is the Closed
                // path with extra steps.
                Err(TransportError::Closed) => {
                    return (Sweep::Done(session.hangup_outcome()), frames)
                }
                Err(e) => {
                    return (Sweep::Done(SessionOutcome::Failed(SessionError::Transport(e))), frames)
                }
            }
        }
        (Sweep::Continue, frames)
    }
}

/// A nonblocking TCP accept loop companion to [`SessionServer`]: poll
/// it between server sweeps and [`SessionServer::admit`] whatever it
/// yields.
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds and switches the listener to nonblocking mode.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(TransportError::from)?;
        listener.set_nonblocking(true).map_err(TransportError::from)?;
        Ok(TcpAcceptor { listener })
    }

    /// The bound address (for clients in tests and examples).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, TransportError> {
        self.listener.local_addr().map_err(TransportError::from)
    }

    /// Accepts one pending connection, or `None` when nobody is
    /// knocking right now.
    pub fn try_accept(&self) -> Result<Option<TcpTransport>, TransportError> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                // Accepted streams do not inherit the listener's
                // nonblocking flag on all platforms; force blocking so
                // the framed recv/poll_recv pair behaves uniformly.
                stream.set_nonblocking(false).map_err(TransportError::from)?;
                Ok(Some(FramedTransport::new(TcpLink::new(stream)?)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// A deterministic snapshot of all `server.*` metrics from the global
/// registry — the bench harness serializes this.
pub fn obs_snapshot() -> zaatar_obs::Snapshot {
    zaatar_obs::snapshot().filter_prefix("server.")
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Field, F61};

    #[test]
    fn pool_bounds_leases_and_reuses_buffers() {
        let mut pool: WorkspacePool<F61> = WorkspacePool::new(2);
        let a = pool.lease().unwrap();
        let mut b = pool.lease().unwrap();
        assert!(pool.lease().is_none(), "capacity 2 means two leases");
        assert_eq!(pool.outstanding(), 2);
        // Warm a workspace, return it, and get the same bytes back.
        let buf = b.scratch().take(256, F61::ZERO);
        b.scratch().put(buf);
        let warm = b.footprint_bytes();
        assert!(warm > 0);
        pool.release(b);
        assert_eq!(pool.pooled_bytes(), warm);
        let again = pool.lease().unwrap();
        assert_eq!(again.footprint_bytes(), warm, "lease must reuse the warm workspace");
        pool.release(again);
        pool.release(a);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn default_config_is_self_consistent() {
        let c = ServerConfig::default();
        assert!(c.max_sessions >= 1);
        assert!(c.session_budget > c.idle_timeout);
        assert_eq!(c.tenant_budget, MemBudget::unlimited());
    }

    #[test]
    fn admit_stamps_the_tenant_budget_on_leased_workspaces() {
        let fx = zaatar_core::testutil::mul_fixture(&[[3, 7]]);
        let config = ServerConfig {
            tenant_budget: MemBudget::bytes(1 << 20),
            ..ServerConfig::default()
        };
        let mut server = SessionServer::new(&fx.pcp, &fx.proofs, config);
        let (_client, pt) = zaatar_transport::loopback_transport_pair();
        let Admission::Admitted(id) = server.admit(pt, "tenant-a") else {
            panic!("empty server must admit");
        };
        let session = server.sessions.get(&id).expect("live session");
        let ws = session.ws.as_ref().expect("admitted session owns a workspace");
        assert_eq!(ws.budget().limit_bytes(), Some(1 << 20));
        // A workspace recycled through the pool gets re-stamped: park
        // one with no budget and admit again.
        let mut stale: ProverWorkspace<F61> = ProverWorkspace::new();
        stale.set_budget(MemBudget::unlimited());
        server.pool.release(stale);
        let (_client2, pt2) = zaatar_transport::loopback_transport_pair();
        let Admission::Admitted(id2) = server.admit(pt2, "tenant-b") else {
            panic!("second admit fits under default ceilings");
        };
        let ws2 = server.sessions.get(&id2).unwrap().ws.as_ref().unwrap();
        assert_eq!(ws2.budget().limit_bytes(), Some(1 << 20));
    }

    #[test]
    fn admit_stamps_the_tenant_policy_on_leased_workspaces() {
        let fx = zaatar_core::testutil::mul_fixture(&[[3, 7]]);
        // A budget below the scheduler's covering-chunk threshold for
        // this circuit must yield a chunked policy; an unlimited one
        // (tiny circuit, cache resident) must keep the covering chunk.
        let shape = WorkloadShape {
            domain_size: fx.pcp.qap().degree(),
            batch: 1,
            elem_bytes: std::mem::size_of::<F61>(),
        };
        let peak = Scheduler::predicted_monolithic_peak_bytes(shape);
        let tight = ServerConfig {
            tenant_budget: MemBudget::bytes(peak - 1),
            ..ServerConfig::default()
        };
        let mut server = SessionServer::new(&fx.pcp, &fx.proofs, tight);
        assert!(matches!(
            server.tenant_policy().proving,
            zaatar_core::Proving::Streamed { .. }
        ));
        let (_client, pt) = zaatar_transport::loopback_transport_pair();
        let Admission::Admitted(id) = server.admit(pt, "tenant-a") else {
            panic!("empty server must admit");
        };
        let ws = server.sessions.get(&id).unwrap().ws.as_ref().unwrap();
        assert_eq!(ws.policy(), server.tenant_policy());

        // The derived policy itself, pinned on a 121-gate chain (one
        // constraint per gate plus the output binding: padded domain
        // n = 128; floor 7·n, covering threshold 10·n) for an unlimited,
        // an 8·n and a sub-floor budget.
        let mut b = zaatar_cc::Builder::<F61>::new();
        let x = b.alloc_input();
        let mut acc = b.mul(&x, &x);
        for _ in 0..120 {
            acc = b.mul(&acc, &x);
        }
        b.bind_output(&acc);
        let (sys, solver) = b.finish();
        let chain = zaatar_core::testutil::circuit_fixture(&sys, &solver, &[vec![F61::from_i64(3)]]);
        let policy_under = |tenant_budget| {
            let config = ServerConfig { tenant_budget, ..ServerConfig::default() };
            SessionServer::new(&chain.pcp, &chain.proofs, config).tenant_policy()
        };
        let workers = HostProfile::from_env().effective_workers(1);
        let streamed = |chunk_len| ExecPolicy {
            workers,
            proving: zaatar_core::Proving::Streamed { chunk_len },
        };
        assert_eq!(chain.pcp.qap().degree().next_power_of_two(), 128);
        assert_eq!(policy_under(MemBudget::unlimited()), ExecPolicy::with_workers(workers));
        assert_eq!(policy_under(MemBudget::bytes(8 * 128 * shape.elem_bytes)), streamed(64));
        assert_eq!(policy_under(MemBudget::bytes(6 * 128 * shape.elem_bytes)), streamed(16));
    }
}
