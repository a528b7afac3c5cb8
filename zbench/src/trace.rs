//! The traced run, separate from the timed one: per-layer metrics and
//! the Fig. 5-style ledger, all taken from outside the measured crates.
//!
//! 1. *Threaded reference*: a few sessions exactly as the timed run
//!    drives them — the wall the ledger is reconciled against.
//! 2. *Sequential driver*: the same session over the same public types
//!    the runtime drivers use, on one thread, each call wrapped in a
//!    span. Run traced and untraced; the difference is the overhead.
//! 3. *Kernel replay*: each layer's public kernel invoked standalone at
//!    the shapes the session used, attached as child spans of the call
//!    it explains.
//! 4. *Micro-kernels*: the §5.1 operations (`e`, `d`, `h`, `f`, `f_div`,
//!    `c`) and the link, at the workload's field and sizes.
//!
//! Work counts are `zaatar_obs::snapshot()` deltas of counters the
//! crates already keep, used as counts only.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use zaatar_core::commit::{decommit_packed_into, CommitmentKey};
use zaatar_core::pcp::{BatchQuerySet, PcpParams, PcpResponses};
use zaatar_core::runtime::{msg, parse_instance_index};
use zaatar_core::{
    ExecPolicy, HeteroSessionProver, HeteroSessionVerifier, MemBudget, ProverWorkspace, Proving, SessionProver,
    SessionVerifier, ZaatarProof,
};
use zaatar_crypto::{ChaChaPrg, ElGamal, KeyPair};
use zaatar_field::batch_inverse;
use zaatar_mem::ChunkedVec;
use zaatar_obs::Snapshot;
use zaatar_poly::{EvalDomain, Radix2Domain};
use zaatar_server::{ServerConfig, SessionServer};
use zaatar_transport::{loopback_transport_pair, Frame, LoopbackTransport, TcpTransport, Transport};

use crate::circuit::{BenchField, Circuit, Instance, Pcp};
use crate::report::Metric;
use crate::session::{session_prg_seed, Measured, Prepared};
use crate::span::{Category, Ledger, Span, SpanId, SpanLog};
use crate::stats;
use crate::workload::{Harness, Spec};
use crate::{Options, RunResult};

/// Ceilings the traced run enforces on its own instrument.
const MAX_UNATTRIBUTED_FRAC: f64 = 0.15;
const MAX_OVERHEAD_FRAC: f64 = 0.10;

/// Counter and timer-count differences between two registry snapshots.
struct ObsDelta {
    before: Snapshot,
    after: Snapshot,
}

impl ObsDelta {
    fn around<R>(f: impl FnOnce() -> R) -> (R, ObsDelta) {
        let before = zaatar_obs::snapshot();
        let out = f();
        (out, ObsDelta { before, after: zaatar_obs::snapshot() })
    }

    fn counter(&self, name: &str) -> u64 {
        let read = |s: &Snapshot| s.counters.get(name).copied().unwrap_or(0);
        read(&self.after).saturating_sub(read(&self.before))
    }

    fn timer_count(&self, name: &str) -> u64 {
        let read = |s: &Snapshot| s.timers.get(name).map_or(0, |t| t.count);
        read(&self.after).saturating_sub(read(&self.before))
    }
}

/// Median seconds of `reps` runs of `f`, and the last run's output.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut samples = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        out = Some(black_box(f()));
        samples.push(t.elapsed().as_secs_f64());
    }
    (out.expect("at least one repetition"), stats::median(&samples))
}

// ---------------------------------------------------------------------
// The sequential driver.
// ---------------------------------------------------------------------

/// The verifier end of a driven session: the single-circuit type where
/// the batch has one circuit, the `Hetero*` type otherwise — the same
/// choice `run_session_verifier` / `run_hetero_session_verifier` make.
enum VerifierEnd<'p, F: BenchField> {
    One(Box<SessionVerifier<'p, F, Radix2Domain<F>>>),
    Many(HeteroSessionVerifier<'p, F, Radix2Domain<F>>),
}

enum ProverEnd<'p, F: BenchField> {
    One(SessionProver<'p, F, Radix2Domain<F>>),
    Many(HeteroSessionProver<'p, F, Radix2Domain<F>>),
}

/// Spans and sizes of one driven session.
struct Driven {
    root: SpanId,
    wall_s: f64,
    prove_batch: Option<SpanId>,
    verifier_new: SpanId,
    setup_encode: SpanId,
    receive_setup: SpanId,
    instance_message: Vec<SpanId>,
    verify_instance: Vec<SpanId>,
    setup_bytes: usize,
    instance_bytes: usize,
}

/// Sends `frame` from one end of the in-memory link and receives it at
/// the other, as one `transport` span: encode, CRC, copy, decode.
fn wire(
    log: &mut SpanLog,
    parent: SpanId,
    session: u32,
    from: &mut LoopbackTransport,
    to: &mut LoopbackTransport,
    frame: Frame,
) -> Result<Frame, String> {
    let (received, _) = log.record(Some(parent), session, "transport", "frame", || {
        from.send(&frame)?;
        to.recv(Instant::now() + Duration::from_secs(5))
    });
    received.map_err(|e| format!("driver link: {e}"))
}

/// Drives one session on the calling thread through the public session
/// types, in the order the runtime drivers call them.
fn drive<F: BenchField>(prep: &Prepared<F>, log: &mut SpanLog, session: u32, prg_seed: u64) -> Result<Driven, String> {
    let batch = &prep.batch;
    let pcps = batch.pcps();
    let beta = batch.beta();
    let hetero = batch.is_hetero();
    let started = Instant::now();
    let root = log.open(None, session, "zbench", "session");
    let at = Some(root);

    let (built, prove_batch) = match &prep.fleet_proofs {
        Some(_) => (None, None),
        None => {
            let (proofs, id) = log.record(at, session, "core.runtime", "prove_batch", || prep.construct());
            (Some(proofs?), Some(id))
        }
    };
    let proofs: &[ZaatarProof<F>] =
        built.as_deref().or(prep.fleet_proofs.as_deref()).expect("proofs built or prepared");

    let mut prg = ChaChaPrg::from_u64_seed(prg_seed);
    let (mut verifier, verifier_new) = log.record(at, session, "core.session", "verifier_new", || {
        if hetero {
            VerifierEnd::Many(HeteroSessionVerifier::new(&pcps, &batch.circuit_ids, &prg))
        } else {
            VerifierEnd::One(Box::new(SessionVerifier::new(pcps[0], &mut prg)))
        }
    });
    let (setup, setup_encode) = log.record(at, session, "core.session", "setup_encode", || match &mut verifier {
        VerifierEnd::One(v) => v.setup_message(),
        VerifierEnd::Many(v) => v.setup_message(),
    });
    let setup = setup.map_err(|e| format!("setup encode: {e}"))?;
    let setup_bytes = setup.len();

    let (mut v_link, mut p_link) = loopback_transport_pair();
    let setup_type = if hetero { msg::HSETUP } else { msg::SETUP };
    let frame = wire(log, root, session, &mut v_link, &mut p_link, Frame::new(setup_type, 0, setup))?;
    let mut prover = if hetero {
        ProverEnd::Many(HeteroSessionProver::new(&pcps, &batch.circuit_ids))
    } else {
        ProverEnd::One(SessionProver::new(pcps[0]))
    };
    let (received, receive_setup) = log.record(at, session, "core.session", "receive_setup", || match &mut prover {
        ProverEnd::One(p) => p.receive_setup(&frame.payload),
        ProverEnd::Many(p) => p.receive_setup(&frame.payload),
    });
    received.map_err(|e| format!("receive_setup: {e}"))?;
    drop(frame);
    wire(log, root, session, &mut p_link, &mut v_link, Frame::new(msg::SETUP_ACK, 0, Vec::new()))?;

    let mut ws = ProverWorkspace::with_budget(prep.budget).with_policy(prep.policy);
    let mut instance_message = Vec::with_capacity(beta);
    let mut verify_instance = Vec::with_capacity(beta);
    let mut instance_bytes = 0;
    for i in 0..beta {
        let req = Frame::new(msg::INSTANCE_REQ, (i + 1) as u32, (i as u32).to_le_bytes().to_vec());
        let req = wire(log, root, session, &mut v_link, &mut p_link, req)?;
        let idx = parse_instance_index(&req.payload, beta)
            .map_err(|code| format!("driver sent a bad index (error code {code})"))?;
        let (bytes, id) = log.record(at, session, "core.session", "instance_message", || match &prover {
            ProverEnd::One(p) => p.instance_message_policied(&proofs[idx], &mut ws),
            ProverEnd::Many(p) => p.instance_message_policied(idx, &proofs[idx], &mut ws),
        });
        instance_message.push(id);
        let bytes = bytes.map_err(|e| format!("instance_message {idx}: {e}"))?;
        instance_bytes = bytes.len();
        let resp = wire(log, root, session, &mut p_link, &mut v_link, Frame::new(msg::INSTANCE_RESP, req.seq, bytes))?;
        let io = &batch.instances[i].io;
        let (verdict, id) = log.record(at, session, "core.session", "verify_instance", || match &mut verifier {
            VerifierEnd::One(v) => v.verify_instance(&resp.payload, io),
            VerifierEnd::Many(v) => v.verify_instance(i, &resp.payload, io),
        });
        verify_instance.push(id);
        if !verdict.map_err(|e| format!("verify_instance {i}: {e}"))? {
            return Err(format!("driven session rejected honest instance {i}"));
        }
    }
    wire(log, root, session, &mut v_link, &mut p_link, Frame::new(msg::DONE, u32::MAX, Vec::new()))?;
    log.close(root);
    Ok(Driven {
        root,
        wall_s: started.elapsed().as_secs_f64(),
        prove_batch,
        verifier_new,
        setup_encode,
        receive_setup,
        instance_message,
        verify_instance,
        setup_bytes,
        instance_bytes,
    })
}

// ---------------------------------------------------------------------
// Kernel replay.
// ---------------------------------------------------------------------

/// Seconds each public kernel took, standalone, at one circuit's shapes.
#[derive(Clone, Copy, Debug, Default)]
struct Kernels {
    keygen_z: f64,
    keygen_h: f64,
    generate_queries: f64,
    pack_queries: f64,
    /// One `Qap::evals_at`; query generation calls it ρ times.
    evals_at: f64,
    consistency_z: f64,
    consistency_h: f64,
    witness_stage: f64,
    quotient_stage: f64,
    commit_z: f64,
    commit_h: f64,
    answer_z: f64,
    answer_h: f64,
    verify_z: f64,
    verify_h: f64,
    check: f64,
    /// The domain's quotient kernels on values of the circuit's size.
    quotient_mono: f64,
    quotient_streamed: f64,
    /// `ElGamal::inner_product_{scratch,chunked}` over the z-oracle.
    msm_z: f64,
    msm_chunked_z: f64,
}

fn chunk_len_for(policy: &ExecPolicy, domain: usize) -> usize {
    match policy.proving {
        Proving::Streamed { chunk_len } => chunk_len,
        // The scheduler's unbudgeted default: eight chunks per domain.
        Proving::Monolithic => (domain / 8).max(16),
    }
}

/// Invokes each layer's kernel at exactly the shapes one session of
/// `circuit` uses, under the workload's policy and budget, and checks
/// that the replayed proof verifies — so the shapes are the real ones.
fn replay<F: BenchField>(
    circuit: &Circuit<F>,
    instance: &Instance<F>,
    policy: ExecPolicy,
    budget: MemBudget,
    seed: u64,
) -> Result<Kernels, String> {
    let pcp: &Pcp<F> = &circuit.pcp;
    let qap = pcp.qap();
    let n = qap.degree();
    let (nz, nh) = (circuit.z_len(), circuit.h_len());
    let heavy = if n >= 4096 { 1 } else { 3 };
    let light = 3;
    let streamed = matches!(policy.proving, Proving::Streamed { .. });
    let chunk_len = chunk_len_for(&policy, n);
    let mut prg = ChaChaPrg::from_u64_seed(seed ^ 0x7e91a);
    let mut ws = ProverWorkspace::<F>::with_budget(budget).with_policy(policy);
    let refused = |e| format!("replay refused by the memory budget: {e:?}");
    let mut k = Kernels::default();

    // Verifier set-up.
    let (key_z, s) = timed(heavy, || CommitmentKey::<F>::generate(nz, &mut prg));
    k.keygen_z = s;
    let (key_h, s) = timed(heavy, || CommitmentKey::<F>::generate(nh, &mut prg));
    k.keygen_h = s;
    let (queries, s) = timed(heavy, || pcp.generate_queries(&mut prg));
    k.generate_queries = s;
    let (packed, s) = timed(heavy, || BatchQuerySet::new(queries.clone()));
    k.pack_queries = s;
    let tau: F = prg.field_element();
    k.evals_at = timed(light, || qap.evals_at(tau)).1;
    let ((t_z, alphas_z), s) = timed(light, || key_z.consistency_query(&queries.z_queries(), &mut prg));
    k.consistency_z = s;
    let ((t_h, alphas_h), s) = timed(light, || key_h.consistency_query(&queries.h_queries(), &mut prg));
    k.consistency_h = s;

    // Construct: the Witness and Quotient stages the policy selects.
    let (mut witness_s, mut quotient_s) = (Vec::new(), Vec::new());
    let mut h = None;
    for _ in 0..light {
        let t = Instant::now();
        if streamed {
            let staged = qap.witness_stage_streamed(&instance.witness, chunk_len, &mut ws).map_err(refused)?;
            witness_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            h = qap.quotient_stage_streamed(staged, &mut ws).map_err(refused)?;
            quotient_s.push(t.elapsed().as_secs_f64());
        } else {
            let staged = qap.witness_stage(&instance.witness, &mut ws);
            witness_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            h = qap.quotient_stage(staged, &mut ws);
            quotient_s.push(t.elapsed().as_secs_f64());
        }
    }
    k.witness_stage = stats::median(&witness_s);
    k.quotient_stage = stats::median(&quotient_s);
    let proof = ZaatarProof {
        z: instance.witness.z.clone(),
        h: h.ok_or("replay: an honest witness failed the divisibility gate")?,
    };

    // Commit and answer.
    let commit = |enc_r: &[zaatar_crypto::Ciphertext], u: &[F], ws: &mut ProverWorkspace<F>| {
        if streamed {
            CommitmentKey::<F>::commit_chunked(enc_r, u, chunk_len, ws)
        } else {
            CommitmentKey::<F>::commit_with(enc_r, u, ws)
        }
    };
    let (cz, s) = timed(light, || commit(&key_z.enc_r, &proof.z, &mut ws));
    k.commit_z = s;
    let (ch, s) = timed(light, || commit(&key_h.enc_r, &proof.h, &mut ws));
    k.commit_h = s;
    let (dz, s) = timed(light, || {
        let buf = ws.scratch().take(packed.z_matrix().num_rows(), F::ZERO);
        let d = decommit_packed_into(&proof.z, packed.z_matrix(), &t_z, 1, buf);
        let kept = (d.answers.clone(), d.t_answer);
        ws.scratch().put(d.answers);
        kept
    });
    k.answer_z = s;
    let (dh, s) = timed(light, || {
        let buf = ws.scratch().take(packed.h_matrix().num_rows(), F::ZERO);
        let d = decommit_packed_into(&proof.h, packed.h_matrix(), &t_h, 1, buf);
        let kept = (d.answers.clone(), d.t_answer);
        ws.scratch().put(d.answers);
        kept
    });
    k.answer_h = s;

    // Verify.
    let (ok_z, s) = timed(light, || key_z.verify(&cz, &dz.0, dz.1, &alphas_z));
    k.verify_z = s;
    let (ok_h, s) = timed(light, || key_h.verify(&ch, &dh.0, dh.1, &alphas_h));
    k.verify_h = s;
    let responses = PcpResponses { z_answers: dz.0, h_answers: dh.0 };
    let (ok_pcp, s) = timed(light, || pcp.check(&queries, &responses, &instance.io));
    k.check = s;
    if !(ok_z && ok_h && ok_pcp) {
        return Err(format!("replayed proof did not verify (commit z {ok_z}, commit h {ok_h}, pcp {ok_pcp})"));
    }

    // The poly and crypto kernels below the stages, on both paths.
    let a: Vec<F> = prg.field_vec(n);
    let b: Vec<F> = prg.field_vec(n);
    let c: Vec<F> = a.iter().zip(&b).map(|(x, y)| *x * *y).collect();
    let domain = qap.domain();
    let mut free = ProverWorkspace::<F>::new();
    k.quotient_mono = timed(light, || domain.quotient_zero_pinned_scratch(&a, &b, &c, free.scratch())).1;
    let chunked = |vals: &[F], ws: &mut ProverWorkspace<F>| {
        let mut v = ChunkedVec::try_take(ws.scratch(), n, chunk_len, F::ZERO).expect("unbudgeted lease");
        for (j, x) in vals.iter().enumerate() {
            *v.get_mut(j) = *x;
        }
        v
    };
    let mut streamed_s = Vec::new();
    for _ in 0..light {
        let (ca, cb, cc) = (chunked(&a, &mut free), chunked(&b, &mut free), chunked(&c, &mut free));
        let t = Instant::now();
        black_box(domain.quotient_zero_pinned_streamed(ca, cb, cc, free.scratch()).expect("unbudgeted lease"));
        streamed_s.push(t.elapsed().as_secs_f64());
    }
    k.quotient_streamed = stats::median(&streamed_s);
    k.msm_z = timed(light, || ElGamal::<F>::inner_product_scratch(&key_z.enc_r, &proof.z, free.group_scratch())).1;
    k.msm_chunked_z =
        timed(light, || ElGamal::<F>::inner_product_chunked(&key_z.enc_r, &proof.z, chunk_len, free.group_scratch())).1;
    Ok(k)
}

/// Lays `items` end to end as children of `parent`, from its start.
fn attach_seq(log: &mut SpanLog, parent: SpanId, items: &[(&'static str, &'static str, f64)]) -> Vec<SpanId> {
    let (session, mut at) = (log.get(parent).session, log.get(parent).start_ns);
    items
        .iter()
        .map(|&(layer, name, seconds)| {
            let end = at + (seconds * 1e9) as u64;
            let id = log.add(Some(parent), session, layer, name, at, end);
            at = end;
            id
        })
        .collect()
}

/// Attaches the replayed kernels to the calls of one driven session.
fn explain<F: BenchField>(
    log: &mut SpanLog,
    prep: &Prepared<F>,
    driven: &Driven,
    kernels: &[Kernels],
    prg_s_per_elem: f64,
) {
    let batch = &prep.batch;
    let rho = PcpParams::default().rho as f64;
    let streamed = matches!(prep.policy.proving, Proving::Streamed { .. });
    let (witness_name, quotient_name) = if streamed {
        ("witness_stage_streamed", "quotient_stage_streamed")
    } else {
        ("witness_stage", "quotient_stage")
    };
    let (commit_name, answer_name) =
        if streamed { ("commit_chunked", "decommit_packed") } else { ("commit_with", "decommit_packed") };

    // Verifier set-up and the prover's query re-derivation, per circuit.
    let mut setup_items = Vec::new();
    let mut receive_items = Vec::new();
    for k in kernels {
        setup_items.extend([
            ("core.commit", "keygen", k.keygen_z),
            ("core.commit", "keygen", k.keygen_h),
            ("core.pcp", "generate_queries", k.generate_queries),
            ("core.commit", "consistency_query", k.consistency_z),
            ("core.commit", "consistency_query", k.consistency_h),
        ]);
        receive_items.extend([
            ("core.pcp", "generate_queries", k.generate_queries),
            ("core.pcp", "pack_queries", k.pack_queries),
        ]);
    }
    let mut query_spans = Vec::new();
    for (parent, items) in [(driven.verifier_new, &setup_items), (driven.receive_setup, &receive_items)] {
        let ids = attach_seq(log, parent, items);
        query_spans
            .extend(ids.into_iter().zip(items.iter()).filter(|(_, it)| it.1 == "generate_queries").map(|(id, _)| id));
    }
    // Inside query generation: ρ evaluations of the QAP and the PRG draws.
    for (i, id) in query_spans.into_iter().enumerate() {
        let c = i % kernels.len();
        let circuit = &batch.circuits[c];
        let p = PcpParams::default();
        let drawn = p.rho * p.rho_lin * 2 * (circuit.z_len() + circuit.h_len());
        attach_seq(
            log,
            id,
            &[
                ("core.qap", "evals_at", rho * kernels[c].evals_at),
                ("crypto", "prg_field_vec", drawn as f64 * prg_s_per_elem),
            ],
        );
    }

    // Construct: one lane per worker, instances dealt round-robin.
    if let Some(parent) = driven.prove_batch {
        let lanes = prep.policy.workers.clamp(1, batch.beta());
        let (session, start) = (log.get(parent).session, log.get(parent).start_ns);
        let mut lane_at = vec![start; lanes];
        for i in 0..batch.beta() {
            let k = &kernels[batch.circuit_ids[i] as usize];
            let at = &mut lane_at[i % lanes];
            for (name, seconds) in [(witness_name, k.witness_stage), (quotient_name, k.quotient_stage)] {
                let end = *at + (seconds * 1e9) as u64;
                log.add(Some(parent), session, "core.qap", name, *at, end);
                *at = end;
            }
        }
    }
    for i in 0..batch.beta() {
        let k = &kernels[batch.circuit_ids[i] as usize];
        attach_seq(
            log,
            driven.instance_message[i],
            &[
                ("core.commit", commit_name, k.commit_z),
                ("core.commit", commit_name, k.commit_h),
                ("core.pcp", answer_name, k.answer_z),
                ("core.pcp", answer_name, k.answer_h),
            ],
        );
        attach_seq(
            log,
            driven.verify_instance[i],
            &[
                ("core.commit", "verify", k.verify_z),
                ("core.commit", "verify", k.verify_h),
                ("core.pcp", "check", k.check),
            ],
        );
    }
}

/// Ledger column of a span; `None` inherits the parent's.
fn categorize(span: &Span) -> Option<Category> {
    match span.name {
        "prove_batch" => Some(Category::Construct),
        "verifier_new" | "setup_encode" | "receive_setup" => Some(Category::Setup),
        "frame" => Some(Category::Wire),
        "commit_with" | "commit_chunked" => Some(Category::Commit),
        "decommit_packed" => Some(Category::Answer),
        "verify_instance" => Some(Category::Verify),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Micro-kernels and the link.
// ---------------------------------------------------------------------

/// The §5.1 operations at field `F`, seconds (or nanoseconds) each.
struct Micro {
    mul_ns: f64,
    inv_ns: f64,
    batch_inverse_ns_per_elem: f64,
    ntt_forward_s: f64,
    ntt_inverse_s: f64,
    encrypt_s_per_elem: f64,
    decrypt_s: f64,
    prg_s_per_elem: f64,
    fixed_base_build_s: f64,
}

fn micro<F: BenchField>(domain: usize, seed: u64) -> Micro {
    let mut prg = ChaChaPrg::from_u64_seed(seed ^ 0x51c0);
    let x: F = prg.field_element();
    const MULS: usize = 1_000_000;
    let mul_s = timed(3, || {
        let mut acc = black_box(x);
        for _ in 0..MULS {
            acc *= x;
        }
        acc
    })
    .1;
    const INVS: usize = 2_000;
    let inv_s = timed(3, || {
        let mut acc = black_box(x);
        for _ in 0..INVS {
            acc = acc.inverse().expect("nonzero") + F::ONE;
        }
        acc
    })
    .1;
    let xs: Vec<F> = prg.field_vec(4096);
    let batch_s = timed(5, || {
        let mut v = xs.clone();
        batch_inverse(&mut v);
        v
    })
    .1;
    let coeffs: Vec<F> = prg.field_vec(domain.next_power_of_two());
    let ntt_forward_s = timed(5, || {
        let mut v = coeffs.clone();
        zaatar_poly::fft::ntt(&mut v);
        v
    })
    .1;
    let ntt_inverse_s = timed(5, || {
        let mut v = coeffs.clone();
        zaatar_poly::fft::intt(&mut v);
        v
    })
    .1;
    let (prg_vec, prg_s) = timed(3, || prg.field_vec::<F>(65_536));
    let kp = KeyPair::<F>::generate(&mut prg);
    const ENCS: usize = 128;
    let (cts, enc_s) = timed(3, || ElGamal::<F>::encrypt_vec(kp.public(), &prg_vec[..ENCS], &mut prg));
    let decrypt_s = timed(9, || ElGamal::<F>::decrypt_to_group(&kp, &cts[0])).1;
    let group = F::group();
    let fixed_base_build_s = timed(3, || group.fixed_base_table(kp.public())).1;
    Micro {
        mul_ns: mul_s * 1e9 / MULS as f64,
        inv_ns: inv_s * 1e9 / INVS as f64,
        batch_inverse_ns_per_elem: batch_s * 1e9 / xs.len() as f64,
        ntt_forward_s,
        ntt_inverse_s,
        encrypt_s_per_elem: enc_s / ENCS as f64,
        decrypt_s,
        prg_s_per_elem: prg_s / prg_vec.len() as f64,
        fixed_base_build_s,
    }
}

/// Echo round trips of a 4-byte and a SETUP-sized frame over a connected
/// transport pair, peer on its own thread: `(small_s, setup_s)`.
fn echo<T: Transport + Send>(mut near: T, mut far: T, setup_bytes: usize) -> Result<(f64, f64), String> {
    let patience = Duration::from_secs(30);
    std::thread::scope(|s| {
        let peer = s.spawn(move || loop {
            match far.recv(Instant::now() + patience) {
                Ok(frame) if frame.msg_type == msg::DONE => return,
                Ok(frame) => {
                    if far.send(&frame).is_err() {
                        return;
                    }
                }
                Err(_) => return,
            }
        });
        let mut trip = |bytes: usize, reps: usize| -> Result<f64, String> {
            let frame = Frame::new(msg::INSTANCE_REQ, 1, vec![0xa5; bytes]);
            let mut samples = Vec::new();
            for _ in 0..reps {
                let t = Instant::now();
                near.send(&frame).map_err(|e| format!("echo send: {e}"))?;
                let back = near.recv(Instant::now() + patience).map_err(|e| format!("echo recv: {e}"))?;
                samples.push(t.elapsed().as_secs_f64());
                if back.payload.len() != bytes {
                    return Err("echo returned a different frame".into());
                }
            }
            Ok(stats::median(&samples))
        };
        let out = trip(4, 200).and_then(|small| trip(setup_bytes, 5).map(|setup| (small, setup)));
        let _ = near.send(&Frame::new(msg::DONE, u32::MAX, Vec::new()));
        drop(near);
        peer.join().expect("echo thread panicked");
        out
    })
}

fn link_round_trips(harness: Harness, setup_bytes: usize) -> Result<(f64, f64), String> {
    match harness {
        Harness::Fleet { .. } => {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
            let near = TcpTransport::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let far = TcpTransport::accept(&listener).map_err(|e| format!("accept: {e}"))?;
            echo(near, far, setup_bytes)
        }
        Harness::Direct | Harness::Budgeted => {
            let (near, far) = loopback_transport_pair();
            echo(near, far, setup_bytes)
        }
    }
}

/// `admit` and an idle `poll()` sweep over two live sessions, seconds.
fn server_micro<F: BenchField>(prep: &Prepared<F>, proofs: &[ZaatarProof<F>]) -> (f64, f64) {
    let pcps = prep.batch.pcps();
    let mut admits = Vec::new();
    let mut sweeps = Vec::new();
    for _ in 0..5 {
        let config = ServerConfig { tenant_budget: prep.budget, ..ServerConfig::default() };
        let mut server = SessionServer::new_hetero(&pcps, &prep.batch.circuit_ids, proofs, config);
        let mut clients = Vec::new();
        for _ in 0..2 {
            let (client, served) = loopback_transport_pair();
            let t = Instant::now();
            black_box(server.admit(served, "probe"));
            admits.push(t.elapsed().as_secs_f64());
            clients.push(client);
        }
        for _ in 0..40 {
            let t = Instant::now();
            black_box(server.poll());
            sweeps.push(t.elapsed().as_secs_f64());
        }
    }
    (stats::median(&admits), stats::median(&sweeps))
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

fn median_phase(measured: &Measured, pick: fn(&crate::timed::RolePhases) -> Option<u64>) -> f64 {
    let xs: Vec<f64> =
        measured.samples.iter().filter_map(|s| pick(&s.exchange.phases)).map(|ns| ns as f64 * 1e-9).collect();
    stats::median(&xs)
}

fn print_ledger(ledger: &Ledger) {
    println!("  ledger of one driven session ({:.6} s wall):", ledger.wall_ns * 1e-9);
    for (label, ns) in ledger.rows() {
        println!("    {label:<13} {:>12.6} s  {:>5.1} %", ns * 1e-9, 100.0 * ns / ledger.wall_ns.max(1.0));
    }
}

pub fn traced_run<F: BenchField>(spec: &Spec, opts: &Options, process_start: Instant) -> Result<RunResult, String> {
    let prep = Prepared::<F>::build(spec, opts.seed)?;
    prep.warm_up(opts.seed)?;
    let first_pass_s = process_start.elapsed().as_secs_f64();
    let batch = &prep.batch;
    let beta = batch.beta();
    let is_fleet = matches!(spec.harness, Harness::Fleet { .. });
    let has_server = spec.harness != Harness::Direct;

    // 1. Threaded reference sessions, as the timed run drives them.
    let ref_seconds = opts.seconds / 4.0;
    let ref_sessions = opts.min_sessions().min(2);
    let (solo, threaded_obs) = ObsDelta::around(|| prep.measure(opts.seed, ref_seconds, ref_sessions, Some(1)));
    let solo = solo?;
    let contended = if is_fleet { Some(prep.measure(opts.seed, ref_seconds, ref_sessions, None)?) } else { None };
    let loaded = contended.as_ref().unwrap_or(&solo);
    let walls = |m: &Measured| m.samples.iter().map(|s| s.wall_s).collect::<Vec<f64>>();
    let threaded_wall_s = stats::median(&walls(&solo));
    let failed: usize = [Some(&solo), contended.as_ref()]
        .into_iter()
        .flatten()
        .flat_map(|m| m.samples.iter())
        .map(|s| s.failed_instances(beta))
        .sum();
    let attempted = (solo.samples.len() + contended.as_ref().map_or(0, |m| m.samples.len())) * beta;
    let peak_rss = crate::host::peak_rss_bytes();

    // 2. The sequential driver, untraced and traced in turn. The overhead
    // is the gap between the two minima; a gap over the ceiling earns
    // more pairs before it is believed, because a burst of host noise
    // does not survive more samples and a real cost does.
    let pairs = if threaded_wall_s > 1.0 { 2 } else { 4 };
    let mut log = SpanLog::new();
    let mut traced = Vec::new();
    let mut untraced_wall = Vec::new();
    let mut session_obs = None;
    let mut overhead_frac = f64::INFINITY;
    while traced.len() < pairs || (overhead_frac > MAX_OVERHEAD_FRAC && traced.len() < 3 * pairs) {
        let k = traced.len();
        let prg_seed = session_prg_seed(opts.seed, 0, k);
        let plain = drive(&prep, &mut SpanLog::disabled(), 0, prg_seed)?;
        untraced_wall.push(plain.wall_s);
        let (driven, obs) = ObsDelta::around(|| drive(&prep, &mut log, k as u32 + 1, prg_seed));
        traced.push(driven?);
        session_obs = Some(obs);
        let traced_min = traced.iter().map(|d| d.wall_s).fold(f64::INFINITY, f64::min);
        overhead_frac = (traced_min - stats::min(&untraced_wall)) / stats::min(&untraced_wall);
    }
    let session_obs = session_obs.expect("at least one driven session");
    let commits = session_obs.timer_count("commit.commit");
    if commits != 2 * beta as u64 {
        return Err(format!(
            "shape check: a session of {beta} instances made {commits} commitments, expected {}",
            2 * beta
        ));
    }
    let traced_wall: Vec<f64> = traced.iter().map(|d| d.wall_s).collect();
    println!("  driven sessions: traced {traced_wall:?} s, untraced {untraced_wall:?} s");
    // Read before the replay below leases from pools no budget governs.
    let workspace_high_water = zaatar_obs::snapshot().gauges.get("mem.scratch.high_water").copied().unwrap_or(0);
    let ((constructed, prove_batch_s), construct_obs) = ObsDelta::around(|| timed(1, || prep.construct()));
    let constructed = constructed?;

    // 3. Kernel replay at the session's shapes, per circuit.
    let first_of =
        |c: usize| (0..beta).find(|&i| batch.circuit_ids[i] as usize == c).expect("every circuit has an instance");
    let kernels: Vec<Kernels> = batch
        .circuits
        .iter()
        .enumerate()
        .map(|(c, circuit)| replay(circuit, &batch.instances[first_of(c)], prep.policy, prep.budget, opts.seed))
        .collect::<Result<_, _>>()?;

    // 4. Micro-kernels at the largest circuit's field and domain.
    let lead = &batch.circuits[0];
    let lead_k = &kernels[0];
    let m = micro::<F>(lead.pcp.qap().degree(), opts.seed);
    let setup_bytes = traced[0].setup_bytes;
    let (roundtrip_small_s, roundtrip_setup_s) = link_round_trips(spec.harness, setup_bytes)?;
    let encode_s = timed(5, || Frame::new(msg::SETUP, 0, vec![0x5a; setup_bytes]).encode()).1;
    let timer_overhead_ns = {
        let mut probe = SpanLog::new();
        const PROBES: usize = 100_000;
        let t = Instant::now();
        for _ in 0..PROBES {
            probe.record(None, 0, "obs", "probe", || ());
        }
        t.elapsed().as_secs_f64() * 1e9 / PROBES as f64
    };

    // Explain each traced session with the replayed kernels, then ledger.
    let mut ledgers = Vec::new();
    for driven in &traced {
        explain(&mut log, &prep, driven, &kernels, m.prg_s_per_elem);
        ledgers.push(log.ledger(driven.root, &categorize));
    }
    let row = |pick: fn(&Ledger) -> f64| stats::median(&ledgers.iter().map(pick).collect::<Vec<f64>>()) * 1e-9;
    let ledger = *ledgers.last().expect("at least one traced session");
    print_ledger(&ledger);
    if (ledger.total_ns() - ledger.wall_ns).abs() > 1e-3 * ledger.wall_ns {
        return Err("ledger does not re-add to the session wall".into());
    }
    let unattributed_frac = stats::median(&ledgers.iter().map(|l| l.unattributed_ns / l.wall_ns).collect::<Vec<f64>>());
    let driven_wall_s = stats::median(&traced_wall);
    let residual_frac = (threaded_wall_s - driven_wall_s * (1.0 - unattributed_frac)) / threaded_wall_s;

    let out_dir = &opts.out_dir;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{out_dir}: {e}"))?;
    let path = format!("{out_dir}/{}.trace.jsonl", spec.name);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    log.write_jsonl(&mut file).and_then(|()| file.flush()).map_err(|e| format!("{path}: {e}"))?;
    println!("  {} spans of {} traced session(s) written to {path}", log.spans().len(), traced.len());

    let (admit_s, poll_sweep_s) = if has_server { server_micro(&prep, &constructed) } else { (0.0, 0.0) };

    // Readings.
    let per_circuit = |f: fn(&Circuit<F>) -> f64| batch.circuits.iter().map(f).sum::<f64>();
    let per_instance = |f: fn(&Instance<F>) -> f64| batch.instances.iter().map(f).sum::<f64>() / beta as f64;
    let session_sum = |f: fn(&Kernels) -> f64| kernels.iter().map(f).sum::<f64>();
    let instance_mean = |f: fn(&Kernels) -> f64| {
        (0..beta).map(|i| f(&kernels[batch.circuit_ids[i] as usize])).sum::<f64>() / beta as f64
    };
    let p = PcpParams::default();
    let elem = std::mem::size_of::<F>();
    let query_bytes: usize = batch
        .circuits
        .iter()
        .map(|c| p.rho * ((3 * p.rho_lin + 3) * c.z_len() + (3 * p.rho_lin + 1) * c.h_len()) * elem)
        .sum();
    let span_median = |ids: Vec<SpanId>| {
        stats::median(&ids.iter().map(|&id| log.get(id).duration_ns() as f64 * 1e-9).collect::<Vec<f64>>())
    };
    let each = |f: fn(&Driven) -> Vec<SpanId>| span_median(traced.iter().flat_map(f).collect());
    let ntt_calls = construct_obs.timer_count("poly.ntt.forward") + construct_obs.timer_count("poly.ntt.inverse");
    let (hits, misses) = (session_obs.counter("mem.scratch.hit"), session_obs.counter("mem.scratch.miss"));
    let totals = zaatar_obs::snapshot();
    let total = |name: &str| totals.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ref_session_count = solo.samples.len() as f64;
    let tail = stats::tail_or_max(&walls(loaded));
    let chunk_len = match prep.policy.proving {
        Proving::Streamed { chunk_len } => chunk_len,
        Proving::Monolithic => 0,
    };
    let mut counts = solo.counts;
    if let Some(c) = &contended {
        counts.merge(&c.counts);
    }

    let s = |name, value: f64, note: &str| Metric::new(name, "s", value, note);
    let ns = |name, value: f64, note: &str| Metric::new(name, "ns", value, note);
    let count = |name, value: f64, note: &str| Metric::new(name, "count", value, note);
    let bytes = |name, value: f64, note: &str| Metric::new(name, "B", value, note);
    let frac = |name, value: f64, note: &str| Metric::new(name, "ratio", value, note);
    let metrics = vec![
        ns("field.mul_ns", m.mul_ns, "f: dependent multiplications"),
        ns("field.inv_ns", m.inv_ns, "f_div: single inversions"),
        ns("field.batch_inverse_ns_per_elem", m.batch_inverse_ns_per_elem, "Montgomery's trick over 4096"),
        s("poly.ntt_forward_s", m.ntt_forward_s, "at the lead circuit's domain"),
        s("poly.ntt_inverse_s", m.ntt_inverse_s, "at the lead circuit's domain"),
        s("poly.quotient_s", lead_k.quotient_mono, "quotient_zero_pinned_scratch"),
        s("poly.quotient_streamed_s", lead_k.quotient_streamed, "quotient_zero_pinned_streamed"),
        count("poly.ntt_calls_per_instance", ntt_calls as f64 / beta as f64, "poly.ntt.* timer counts, one construct"),
        count("poly.plan_cache_miss", total("poly.ntt.twiddle_cache_miss"), "plans built this process"),
        s("crypto.encrypt_s_per_elem", m.encrypt_s_per_elem, "e: encrypt_vec"),
        s("crypto.decrypt_s", m.decrypt_s, "d: decrypt_to_group"),
        s("crypto.msm_s_per_elem", lead_k.msm_z / lead.z_len() as f64, "h: inner_product_scratch over z"),
        s("crypto.msm_chunked_s_per_elem", lead_k.msm_chunked_z / lead.z_len() as f64, "inner_product_chunked over z"),
        s("crypto.prg_s_per_elem", m.prg_s_per_elem, "c: field_vec"),
        s("crypto.fixed_base_build_s", m.fixed_base_build_s, "fixed_base_table"),
        count(
            "crypto.msm_buckets",
            session_obs.counter("commit.msm.buckets") as f64 / beta as f64,
            "bucket ops per instance",
        ),
        frac(
            "crypto.fixed_base_hit_rate",
            ratio(total("commit.fixed_base_hit"), total("commit.fixed_base_hit") + total("commit.fixed_base_miss")),
            "interned generator table",
        ),
        s("cc.compile_s", per_circuit(|c| c.times.compile_s), "all circuits"),
        s("cc.transform_s", per_circuit(|c| c.times.transform_s), "ginger_to_quad, all circuits"),
        s("cc.solve_s_per_instance", per_instance(|i| i.times.solve_s), "solve + extend + witness"),
        count("cc.constraints", per_circuit(|c| c.pcp.qap().num_constraints() as f64), "quadratic form, all circuits"),
        count("cc.k2_terms", per_circuit(|c| c.ginger_stats.k2_distinct as f64), "distinct degree-2 terms"),
        s("apps.local_s", per_instance(|i| i.times.local_s), "native reference"),
        s("apps.gen_inputs_s", per_instance(|i| i.times.gen_inputs_s), "seeded inputs"),
        s("core.qap.build_s", per_circuit(|c| c.times.qap_build_s), "Qap::new, all circuits"),
        s("core.qap.witness_stage_s", instance_mean(|k| k.witness_stage), "per instance"),
        s("core.qap.quotient_stage_s", instance_mean(|k| k.quotient_stage), "per instance"),
        s("core.qap.evals_at_s", lead_k.evals_at, "one evaluation, lead circuit"),
        s("core.pcp.generate_queries_s", session_sum(|k| k.generate_queries), "per session, each side pays it"),
        s("core.pcp.answer_s", instance_mean(|k| k.answer_z + k.answer_h), "per instance"),
        s("core.pcp.check_s", instance_mean(|k| k.check), "per instance"),
        bytes("core.pcp.query_bytes", query_bytes as f64, "queries x |u| x element bytes"),
        s("core.commit.keygen_s", session_sum(|k| k.keygen_z + k.keygen_h), "per session"),
        s("core.commit.commit_s", instance_mean(|k| k.commit_z + k.commit_h), "per instance"),
        s("core.commit.consistency_query_s", session_sum(|k| k.consistency_z + k.consistency_h), "per session"),
        s("core.commit.verify_s", instance_mean(|k| k.verify_z + k.verify_h), "per instance"),
        s("core.session.verifier_new_s", each(|d| vec![d.verifier_new]), "driven sessions"),
        s("core.session.setup_encode_s", each(|d| vec![d.setup_encode]), "driven sessions"),
        s("core.session.receive_setup_s", each(|d| vec![d.receive_setup]), "driven sessions"),
        s("core.session.instance_message_s", each(|d| d.instance_message.clone()), "per instance"),
        s("core.session.verify_instance_s", each(|d| d.verify_instance.clone()), "per instance"),
        bytes("core.session.setup_bytes", setup_bytes as f64, "SETUP/HSETUP payload"),
        bytes("core.session.instance_bytes", traced[0].instance_bytes as f64, "INSTANCE_RESP payload"),
        s("core.runtime.prove_batch_s", prove_batch_s, "one construct of the batch, outside a session"),
        frac("core.runtime.residual_frac", residual_frac, "threaded wall not explained by driven calls"),
        s("transport.roundtrip_small_s", roundtrip_small_s, "4 B echo on the workload's link"),
        s("transport.roundtrip_setup_s", roundtrip_setup_s, "SETUP-sized echo"),
        s("transport.encode_s_per_mb", encode_s / (setup_bytes as f64 / 1e6), "Frame::encode, CRC included"),
        bytes(
            "transport.bytes_sent",
            threaded_obs.counter("transport.bytes_sent") as f64 / ref_session_count,
            "both ends, per threaded session",
        ),
        count(
            "transport.frames_sent",
            threaded_obs.counter("transport.frames_sent") as f64 / ref_session_count,
            "both ends, per threaded session",
        ),
        count("transport.retransmits", threaded_obs.counter("transport.retransmits") as f64, "threaded sessions"),
        s("server.admit_s", admit_s, "0 without a server"),
        s("server.poll_sweep_s", poll_sweep_s, "idle sweep, 2 live sessions"),
        s("server.solo_session_s", if has_server { threaded_wall_s } else { 0.0 }, "one tenant"),
        frac(
            "server.contention_ratio",
            if has_server { ratio(stats::median(&walls(loaded)), threaded_wall_s) } else { 0.0 },
            "loaded / solo session wall",
        ),
        count("server.sessions_rejected", counts.rejected as f64, ""),
        count("server.sessions_expired", counts.expired as f64, ""),
        count("server.live_high_water", counts.live_high_water as f64, ""),
        frac("mem.scratch_hit_rate", ratio(hits as f64, (hits + misses) as f64), "one driven session"),
        bytes(
            "mem.workspace_high_water_bytes",
            workspace_high_water as f64,
            "largest pool, set-up through driven sessions",
        ),
        count("mem.budget_refusals", counts.budget_refusals as f64, ""),
        bytes("mem.peak_rss_bytes", peak_rss as f64, "VmHWM after the threaded reference sessions"),
        s("sched.policy_s", prep.policy_s, "0 where the policy is pinned"),
        count("sched.workers", prep.policy.workers as f64, ""),
        count("sched.streamed", f64::from(u8::from(chunk_len > 0)), "1 = streamed proving"),
        count("sched.chunk_len", chunk_len as f64, "0 when monolithic"),
        ns("obs.timer_overhead_ns", timer_overhead_ns, "one recorded span"),
        frac("trace.overhead_frac", overhead_frac, "traced vs untraced driven session, minima"),
        frac("trace.unattributed_frac", unattributed_frac, "driven wall no categorised span covers"),
        s("session.wall_s", threaded_wall_s, "threaded reference, one client"),
        s(
            "session.tail_s",
            tail.value,
            &format!("p{:.1} of {} loaded sessions", tail.percentile, loaded.samples.len()),
        ),
        Metric::new("session.tail_pct", "%", tail.percentile, "highest percentile with 10 samples beyond, else 100"),
        frac("session.failed_frac", ratio(failed as f64, attempted as f64), ""),
        s("session.verifier_setup_s", median_phase(&solo, |p| p.verifier_setup_ns), "threaded reference"),
        s("session.setup_exchange_s", median_phase(&solo, |p| p.setup_exchange_ns), "threaded reference"),
        s("setup.first_pass_s", first_pass_s, "cold set-up, tables and plans built"),
        s("ledger.wall_s", driven_wall_s, "driven session"),
        s("ledger.setup_s", row(|l| l.setup_ns), ""),
        s("ledger.construct_s", row(|l| l.construct_ns), ""),
        s("ledger.commit_s", row(|l| l.commit_ns), ""),
        s("ledger.answer_s", row(|l| l.answer_ns), ""),
        s("ledger.verify_s", row(|l| l.verify_ns), ""),
        s("ledger.wire_s", row(|l| l.wire_ns), ""),
        s("ledger.unattributed_s", row(|l| l.unattributed_ns), ""),
    ];

    if unattributed_frac > MAX_UNATTRIBUTED_FRAC {
        return Err(format!("trace.unattributed_frac {unattributed_frac:.3} exceeds {MAX_UNATTRIBUTED_FRAC}"));
    }
    if overhead_frac > MAX_OVERHEAD_FRAC {
        return Err(format!("trace.overhead_frac {overhead_frac:.3} exceeds {MAX_OVERHEAD_FRAC}"));
    }
    Ok(RunResult { attempted, failed, metrics })
}
