//! The Zaatar verified-computation protocol (Setty et al., EuroSys 2013).
//!
//! This crate implements the paper's primary contribution and its
//! baseline:
//!
//! * [`qap`] — Quadratic Arithmetic Programs built from quadratic-form
//!   constraints (App. A.1): the variable polynomials `{Aᵢ, Bᵢ, Cᵢ}`, the
//!   divisor polynomial `D(t)`, and the prover's quotient
//!   `H(t) = P_w(t)/D(t)` computed with FFT-based polynomial arithmetic
//!   (App. A.3);
//! * [`pcp`] — the QAP-based **linear PCP** of Fig. 10: linearity tests
//!   plus the divisibility correction test, with self-corrected queries;
//! * [`ginger`] — the baseline **classical linear PCP** used by
//!   Ginger/Pepper (proof vector `(z, z ⊗ z)`, §2.2): linearity,
//!   quadratic-correction, and circuit tests;
//! * [`commit`] — Ginger's linear commitment primitive
//!   (commit + multidecommit) over exponential ElGamal, which turns either
//!   PCP into an efficient argument (§2.2);
//! * [`session`] — the batched end-to-end argument system as encoded
//!   byte messages: the verifier amortizes query construction over β
//!   instances of the same computation (§2.2); [`argument`] drives it in
//!   one process, and the `zaatar_obs` spans it records feed the Fig. 5
//!   table;
//! * [`runtime`] — the session state machines and the parallel batch
//!   prover (§5.2, Fig. 6), which shards a batch across worker threads
//!   through `zaatar_sched::parallel_map_with` — the one place the
//!   workspace spawns.
//!
//! How the protocol is *evaluated* — the Fig. 3 cost model and the
//! wire-cost formula — lives in `zaatar-bench`, its only reader.

#![forbid(unsafe_code)]

pub mod argument;
pub mod commit;
pub mod ginger;
pub mod matvec;
pub mod pcp;
pub mod qap;
pub mod runtime;
pub mod session;
pub mod soundness;
pub mod testutil;
pub mod wire;
pub mod workspace;

pub use argument::{run_batched_argument, run_batched_ginger_argument, BatchResult};
pub use commit::{CommitmentKey, Decommitment};
pub use ginger::{GingerPcp, GingerProof};
pub use matvec::QueryMatrix;
pub use pcp::{BatchQuerySet, PcpParams, QuerySet, ZaatarPcp, ZaatarProof};
pub use qap::{Qap, QapEvals, QapWitness, StagedWitnessChunked};
pub use runtime::{
    parse_instance_index, prove_batch_with_policy, prove_instance_policied,
    run_hetero_session_prover, run_hetero_session_verifier, run_session_prover,
    run_session_verifier, ProverMachine, ProverStats, ProverStep, SessionReport, VerifyOutcome,
};
pub use session::{
    HeteroSessionProver, HeteroSessionVerifier, SessionError, SessionProver, SessionVerifier,
    HETERO_PRG_STREAM_BASE,
};
pub use workspace::ProverWorkspace;
// Budget types cross the crate's public API (`ProverWorkspace::with_budget`,
// `SessionError::BudgetExceeded`), so re-export them for downstream users
// that don't depend on `zaatar-mem` directly.
pub use zaatar_mem::{BudgetError, MemBudget};
// Same for the scheduler types (`ProverWorkspace::with_policy`,
// `prove_batch_with_policy`, the server's per-tenant policy stamp).
pub use zaatar_sched::{ExecPolicy, HostProfile, Proving, Scheduler, WorkloadShape};
