//! The analytic cost model of Fig. 3, parameterized by measured
//! microbenchmarks (§5.1), and the wire-cost formula of \[53, Apdx A.3\].
//!
//! The paper evaluates Ginger *through this model* ("we use estimates,
//! rather than empirics, because the computations would be too expensive
//! under Ginger") and validates Zaatar's empirics against it (reported
//! as 5–15% above the model's predictions). This module reproduces the
//! same methodology: [`measure_micro_params`] runs the §5.1
//! microbenchmarks on the host, and [`CostModel`] evaluates every row of
//! Fig. 3 for both systems; [`zaatar_network_costs`] counts a batch's wire bytes.

use std::time::Instant;

use zaatar_core::pcp::{PcpParams, ZaatarPcp};
use zaatar_crypto::{ChaChaPrg, HasGroup};
use zaatar_field::PrimeField;
use zaatar_poly::domain::EvalDomain;

/// Per-operation costs in seconds (the §5.1 microbenchmark table).
#[derive(Copy, Clone, Debug)]
pub struct MicroParams {
    /// Encrypting a field element (`e`).
    pub e: f64,
    /// Decrypting (`d`).
    pub d: f64,
    /// Ciphertext add plus multiply (`h`).
    pub h: f64,
    /// Field multiplication with reduction (`f`).
    pub f: f64,
    /// Field multiplication without reduction (`f_lazy`).
    pub f_lazy: f64,
    /// Field division (`f_div`).
    pub f_div: f64,
    /// Pseudorandomly generating a field element (`c`).
    pub c: f64,
}

impl MicroParams {
    /// The paper's measured values for the 128-bit field on a 2.53 GHz
    /// Xeon E5540 (§5.1).
    pub fn paper_128() -> Self {
        MicroParams {
            e: 65e-6,
            d: 170e-6,
            h: 91e-6,
            f: 210e-9,
            f_lazy: 68e-9,
            f_div: 2e-6,
            c: 160e-9,
        }
    }

    /// The paper's measured values for the 220-bit field (§5.1).
    pub fn paper_220() -> Self {
        MicroParams {
            e: 88e-6,
            d: 170e-6,
            h: 130e-6,
            f: 320e-9,
            f_lazy: 90e-9,
            f_div: 3e-6,
            c: 260e-9,
        }
    }
}

/// Protocol-level parameters for the model: repetition counts plus the
/// query-count formulas of Fig. 3.
#[derive(Copy, Clone, Debug)]
#[derive(Default)]
pub struct ProtocolParams {
    /// PCP repetitions and linearity iterations.
    pub pcp: PcpParams,
}


impl ProtocolParams {
    /// Ginger's high-order query count `ℓ = 3ρ_lin + 2` (Fig. 3).
    pub fn ell_ginger(&self) -> f64 {
        3.0 * self.pcp.rho_lin as f64 + 2.0
    }

    /// Zaatar's total query count `ℓ' = 6ρ_lin + 4` (Fig. 3).
    pub fn ell_zaatar(&self) -> f64 {
        6.0 * self.pcp.rho_lin as f64 + 4.0
    }

    /// `ρ`.
    pub fn rho(&self) -> f64 {
        self.pcp.rho as f64
    }

    /// `ρ_lin`.
    pub fn rho_lin(&self) -> f64 {
        self.pcp.rho_lin as f64
    }
}

/// Static description of one computation's encoding (the inputs to every
/// Fig. 3 row).
#[derive(Copy, Clone, Debug)]
pub struct ComputationSpec {
    /// Local (native) running time `T`, seconds.
    pub t_local: f64,
    /// `|Z_ginger|`: unbound variables in the Ginger encoding.
    pub z_ginger: f64,
    /// `|C_ginger|`: Ginger constraints.
    pub c_ginger: f64,
    /// `K`: additive terms across Ginger constraints.
    pub k: f64,
    /// `K₂`: degree-2 terms replaced by a product variable — every
    /// distinct term under §4's rule, `QuadTransform::k2()` (`K₂′ ≤ K₂`)
    /// for the system `ginger_to_quad` emits.
    pub k2: f64,
    /// `|x|`.
    pub n_inputs: f64,
    /// `|y|`.
    pub n_outputs: f64,
}

impl ComputationSpec {
    /// `|Z_zaatar| = |Z_ginger| + K₂` (§4).
    pub fn z_zaatar(&self) -> f64 {
        self.z_ginger + self.k2
    }

    /// `|C_zaatar| = |C_ginger| + K₂` (§4).
    pub fn c_zaatar(&self) -> f64 {
        self.c_ginger + self.k2
    }

    /// `|u_ginger| = |Z_ginger| + |Z_ginger|²` (Fig. 3).
    pub fn u_ginger(&self) -> f64 {
        self.z_ginger + self.z_ginger * self.z_ginger
    }

    /// `|u_zaatar| = |Z_zaatar| + |C_zaatar|` (Fig. 3).
    pub fn u_zaatar(&self) -> f64 {
        self.z_zaatar() + self.c_zaatar()
    }
}

/// Evaluates the Fig. 3 cost rows for both systems.
#[derive(Copy, Clone, Debug)]
pub struct CostModel {
    /// Microbenchmark parameters.
    pub micro: MicroParams,
    /// Protocol parameters.
    pub proto: ProtocolParams,
}

impl CostModel {
    /// A model from measured (or paper) microbenchmarks with the paper's
    /// protocol parameters.
    pub fn new(micro: MicroParams) -> Self {
        CostModel {
            micro,
            proto: ProtocolParams::default(),
        }
    }

    // ---- Prover, Fig. 3 "P's per-instance CPU costs" ----

    /// Zaatar: construct proof vector — `T + 3f·|C_z|·log₂|C_z|`.
    pub fn zaatar_prover_construct(&self, s: &ComputationSpec) -> f64 {
        let cz = s.c_zaatar().max(2.0);
        s.t_local + 3.0 * self.micro.f * cz * cz.log2()
    }

    /// Zaatar: issue responses — `(h + (ρ·ℓ' + 1)·f)·|u_z|`.
    ///
    /// Per Fig. 3's note, the per-query field work is the lazy (no-mod)
    /// multiplication.
    pub fn zaatar_prover_respond(&self, s: &ComputationSpec) -> f64 {
        (self.commit_h_per_element()
            + (self.proto.rho() * self.proto.ell_zaatar() + 1.0) * self.micro.f_lazy)
            * s.u_zaatar()
    }

    /// Zaatar prover end-to-end.
    pub fn zaatar_prover_total(&self, s: &ComputationSpec) -> f64 {
        self.zaatar_prover_construct(s) + self.zaatar_prover_respond(s)
    }

    /// Ginger: construct proof vector — `T + f·|Z_g|²`.
    pub fn ginger_prover_construct(&self, s: &ComputationSpec) -> f64 {
        s.t_local + self.micro.f_lazy * s.z_ginger * s.z_ginger
    }

    /// Ginger: issue responses — `(h + (ρ·ℓ + 1)·f)·|u_g|`.
    pub fn ginger_prover_respond(&self, s: &ComputationSpec) -> f64 {
        (self.commit_h_per_element()
            + (self.proto.rho() * self.proto.ell_ginger() + 1.0) * self.micro.f_lazy)
            * s.u_ginger()
    }

    /// Ginger prover end-to-end.
    pub fn ginger_prover_total(&self, s: &ComputationSpec) -> f64 {
        self.ginger_prover_construct(s) + self.ginger_prover_respond(s)
    }

    /// The amortized per-element homomorphic cost: the commitment touches
    /// each proof element once (`h`), but only elements with non-zero
    /// query coefficients cost an exponentiation; Fig. 3 charges `h` per
    /// element.
    fn commit_h_per_element(&self) -> f64 {
        self.micro.h
    }

    // ---- Verifier, Fig. 3 "V's per-instance CPU costs" ----

    /// Zaatar: computation-specific query setup, **not** amortized —
    /// `ρ·(c + (f_div + 5f)·|C_z| + f·K + 3f·K₂)`.
    pub fn zaatar_v_specific_setup(&self, s: &ComputationSpec) -> f64 {
        self.proto.rho()
            * (self.micro.c
                + (self.micro.f_div + 5.0 * self.micro.f) * s.c_zaatar()
                + self.micro.f * s.k
                + 3.0 * self.micro.f * s.k2)
    }

    /// Zaatar: computation-oblivious query setup, not amortized —
    /// `(e + 2c + ρ·(2ρ_lin·c + ℓ'·f))·|u_z|`.
    pub fn zaatar_v_oblivious_setup(&self, s: &ComputationSpec) -> f64 {
        (self.micro.e
            + 2.0 * self.micro.c
            + self.proto.rho()
                * (2.0 * self.proto.rho_lin() * self.micro.c
                    + self.proto.ell_zaatar() * self.micro.f))
            * s.u_zaatar()
    }

    /// Zaatar: per-instance response processing —
    /// `d + ρ·(ℓ' + 3|x| + 3|y|)·f`.
    pub fn zaatar_v_per_instance(&self, s: &ComputationSpec) -> f64 {
        self.micro.d
            + self.proto.rho()
                * (self.proto.ell_zaatar() + 3.0 * s.n_inputs + 3.0 * s.n_outputs)
                * self.micro.f
    }

    /// Ginger: computation-specific query setup, not amortized —
    /// `ρ·(c·|C_g| + f·K)`.
    pub fn ginger_v_specific_setup(&self, s: &ComputationSpec) -> f64 {
        self.proto.rho() * (self.micro.c * s.c_ginger + self.micro.f * s.k)
    }

    /// Ginger: computation-oblivious query setup, not amortized —
    /// `(e + 2c + ρ·(2ρ_lin·c + (ℓ+1)·f))·|u_g|`.
    pub fn ginger_v_oblivious_setup(&self, s: &ComputationSpec) -> f64 {
        (self.micro.e
            + 2.0 * self.micro.c
            + self.proto.rho()
                * (2.0 * self.proto.rho_lin() * self.micro.c
                    + (self.proto.ell_ginger() + 1.0) * self.micro.f))
            * s.u_ginger()
    }

    /// Ginger: per-instance response processing —
    /// `d + ρ·(2ℓ + |x| + |y|)·f`.
    pub fn ginger_v_per_instance(&self, s: &ComputationSpec) -> f64 {
        self.micro.d
            + self.proto.rho()
                * (2.0 * self.proto.ell_ginger() + s.n_inputs + s.n_outputs)
                * self.micro.f
    }

    // ---- Derived quantities ----

    /// Zaatar verifier's amortized per-instance cost at batch size β.
    pub fn zaatar_v_amortized(&self, s: &ComputationSpec, beta: f64) -> f64 {
        (self.zaatar_v_specific_setup(s) + self.zaatar_v_oblivious_setup(s)) / beta
            + self.zaatar_v_per_instance(s)
    }

    /// The break-even batch size (§2.2): the smallest β at which the
    /// verifier's amortized cost drops below local execution. `None` if
    /// even β → ∞ never breaks even (per-instance cost ≥ `T`).
    pub fn break_even(&self, s: &ComputationSpec, zaatar: bool) -> Option<f64> {
        let (setup, per) = if zaatar {
            (
                self.zaatar_v_specific_setup(s) + self.zaatar_v_oblivious_setup(s),
                self.zaatar_v_per_instance(s),
            )
        } else {
            (
                self.ginger_v_specific_setup(s) + self.ginger_v_oblivious_setup(s),
                self.ginger_v_per_instance(s),
            )
        };
        if s.t_local <= per {
            return None;
        }
        Some((setup / (s.t_local - per)).ceil().max(1.0))
    }
}

/// Bytes on the wire in each direction for one batch.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkCosts {
    /// Verifier → prover bytes (the setup message), whole batch.
    pub v_to_p: u64,
    /// Prover → verifier bytes (the instance messages), whole batch.
    pub p_to_v: u64,
}

impl NetworkCosts {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.v_to_p + self.p_to_v
    }
}

/// Computes batch network costs for the Zaatar argument, u32 length
/// prefixes included, exactly as the session's codec encodes them.
///
/// * `seeded = true`: the PCP queries travel as a 32-byte seed
///   (\[53, Apdx A.3\]); only `Enc(r)` and the two `t` vectors are sent in
///   full — the session's setup message, exactly.
/// * `seeded = false`: every query vector is shipped explicitly.
pub fn zaatar_network_costs<F: PrimeField + HasGroup, D: EvalDomain<F>>(
    pcp: &ZaatarPcp<F, D>,
    beta: u64,
    seeded: bool,
) -> NetworkCosts {
    const PREFIX: u64 = 4;
    let field_bytes = 8 * F::NUM_WORDS as u64;
    // An ElGamal ciphertext is two group elements.
    let cipher_bytes = 2 * F::group().elem_bytes() as u64;
    let n_z = pcp.qap().var_map().num_unbound() as u64;
    let n_h = pcp.qap().degree() as u64 + 1;
    let params = pcp.params();
    let queries_z = (params.rho * (3 * params.rho_lin + 3)) as u64;
    let queries_h = (params.rho * (3 * params.rho_lin + 1)) as u64;

    // V → P: Enc(r) for both oracles, the queries (seed or full), and the
    // consistency queries t_z, t_h (always explicit), four prefixed vectors.
    let enc_r = (n_z + n_h) * cipher_bytes;
    let query_payload = if seeded {
        32
    } else {
        queries_z * n_z * field_bytes + queries_h * n_h * field_bytes
    };
    let t_vectors = (n_z + n_h) * field_bytes;
    let v_to_p = 4 * PREFIX + enc_r + query_payload + t_vectors;

    // P → V, per instance: two commitments, the two length-prefixed
    // answer vectors and the two t answers.
    let per_instance =
        2 * cipher_bytes + 2 * PREFIX + (queries_z + queries_h + 2) * field_bytes;
    NetworkCosts {
        v_to_p,
        p_to_v: beta * per_instance,
    }
}

/// Runs the §5.1 microbenchmarks on the host for field `F` (1000
/// iterations per operation, as in the paper).
pub fn measure_micro_params<F>() -> MicroParams
where
    F: PrimeField + HasGroup,
{
    const ITERS: usize = 1000;
    let mut prg = ChaChaPrg::from_u64_seed(0x5151);
    let kp = zaatar_crypto::KeyPair::<F>::generate(&mut prg);
    let xs: Vec<F> = prg.field_vec(ITERS + 1);

    // f: field multiplication (with reduction).
    let start = Instant::now();
    let mut acc = F::ONE;
    for x in &xs[..ITERS] {
        acc *= *x;
    }
    let f = start.elapsed().as_secs_f64() / ITERS as f64;
    std::hint::black_box(acc);

    // f_lazy: one term of the deferred-reduction inner product the
    // prover answers queries with (the no-"mod p" multiplication of
    // §5.1's footnote; the sum's single reduction is amortized in).
    // A 1000-term pass is a few µs, so one untimed pass pages the
    // kernel in and 16 timed ones lift it clear of the clock's tick.
    const PASSES: usize = 16;
    let lazy_pass = || F::dot(std::hint::black_box(&xs[..ITERS]), &xs[1..]);
    std::hint::black_box(lazy_pass());
    let start = Instant::now();
    for _ in 0..PASSES {
        std::hint::black_box(lazy_pass());
    }
    let f_lazy = start.elapsed().as_secs_f64() / (PASSES * ITERS) as f64;

    // f_div: field inversion-based division.
    let div_iters = ITERS / 10;
    let start = Instant::now();
    let mut acc = F::ONE + F::ONE;
    for x in &xs[..div_iters] {
        if !x.is_zero() {
            acc = *x / acc;
        }
    }
    let f_div = start.elapsed().as_secs_f64() / div_iters as f64;
    std::hint::black_box(acc);

    // c: pseudorandom field element.
    let start = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(prg.field_element::<F>());
    }
    let c = start.elapsed().as_secs_f64() / ITERS as f64;

    // e / d / h: ElGamal operations (fewer iterations — they are ~1000×
    // slower than field ops).
    let crypto_iters = 20;
    let start = Instant::now();
    let mut cts = Vec::with_capacity(crypto_iters);
    for x in &xs[..crypto_iters] {
        cts.push(zaatar_crypto::ElGamal::<F>::encrypt(kp.public(), *x, &mut prg));
    }
    let e = start.elapsed().as_secs_f64() / crypto_iters as f64;

    let start = Instant::now();
    for ct in &cts {
        std::hint::black_box(zaatar_crypto::ElGamal::<F>::decrypt_to_group(&kp, ct));
    }
    let d = start.elapsed().as_secs_f64() / crypto_iters as f64;

    let start = Instant::now();
    let mut acc_ct = cts[0].clone();
    for (ct, x) in cts.iter().zip(&xs) {
        let scaled = zaatar_crypto::ElGamal::<F>::scale(ct, *x);
        acc_ct = zaatar_crypto::ElGamal::<F>::add(&acc_ct, &scaled);
    }
    let h = start.elapsed().as_secs_f64() / crypto_iters as f64;
    std::hint::black_box(acc_ct);

    MicroParams {
        e,
        d,
        h,
        f,
        f_lazy,
        f_div,
        c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_cc::{ginger_to_quad, Builder};
    use zaatar_core::qap::Qap;
    use zaatar_field::F61;
    use zaatar_poly::Radix2Domain;

    fn toy_spec() -> ComputationSpec {
        ComputationSpec {
            t_local: 1e-3,
            z_ginger: 10_000.0,
            c_ginger: 10_000.0,
            k: 40_000.0,
            k2: 12_000.0,
            n_inputs: 100.0,
            n_outputs: 10.0,
        }
    }

    #[test]
    fn derived_sizes_follow_section4() {
        let s = toy_spec();
        assert_eq!(s.z_zaatar(), 22_000.0);
        assert_eq!(s.c_zaatar(), 22_000.0);
        assert_eq!(s.u_zaatar(), 44_000.0);
        assert_eq!(s.u_ginger(), 10_000.0 + 1e8);
    }

    #[test]
    fn zaatar_prover_beats_ginger_prover() {
        // The headline claim: orders of magnitude.
        let model = CostModel::new(MicroParams::paper_128());
        let s = toy_spec();
        let z = model.zaatar_prover_total(&s);
        let g = model.ginger_prover_total(&s);
        assert!(
            g / z > 100.0,
            "expected orders-of-magnitude gap, got {g:.3}/{z:.3}"
        );
    }

    #[test]
    fn zaatar_breaks_even_much_earlier() {
        let model = CostModel::new(MicroParams::paper_128());
        let s = toy_spec();
        let bz = model.break_even(&s, true).expect("zaatar breaks even");
        let bg = model.break_even(&s, false).expect("ginger breaks even");
        assert!(bg / bz > 100.0, "bz={bz} bg={bg}");
    }

    #[test]
    fn break_even_none_when_processing_dominates() {
        let model = CostModel::new(MicroParams::paper_128());
        let mut s = toy_spec();
        // Make local execution essentially free.
        s.t_local = 1e-9;
        assert!(model.break_even(&s, true).is_none());
    }

    #[test]
    fn amortization_decreases_with_beta() {
        let model = CostModel::new(MicroParams::paper_128());
        let s = toy_spec();
        let v1 = model.zaatar_v_amortized(&s, 1.0);
        let v100 = model.zaatar_v_amortized(&s, 100.0);
        let v_inf = model.zaatar_v_per_instance(&s);
        assert!(v1 > v100);
        assert!(v100 > v_inf);
    }

    #[test]
    fn degenerate_k2_flips_the_comparison() {
        // §4: when K₂ approaches its max |Z|(|Z|+1)/2, Zaatar's proof is
        // no shorter than Ginger's.
        let z = 100.0f64;
        let mut s = toy_spec();
        s.z_ginger = z;
        s.c_ginger = z;
        s.k2 = z * (z + 1.0) / 2.0;
        assert!(s.u_zaatar() >= s.u_ginger());
        // Bound from §4: |u_z| ≤ |u_g|·(1 + 2/(|Z|+1)).
        assert!(s.u_zaatar() <= s.u_ginger() * (1.0 + 2.0 / (z + 1.0)));
    }

    #[test]
    fn measured_micro_params_are_sane() {
        let m = measure_micro_params::<F61>();
        assert!(m.f > 0.0 && m.f < 1e-3);
        assert!(m.e > m.f, "encryption must dwarf a field mul");
        assert!(m.d > 0.0 && m.h > 0.0 && m.c > 0.0 && m.f_div > 0.0);
        assert!(m.f_lazy <= m.f);
    }

    #[test]
    fn paper_params_match_table() {
        let p = MicroParams::paper_128();
        assert_eq!(p.e, 65e-6);
        assert_eq!(p.f, 210e-9);
        let p = MicroParams::paper_220();
        assert_eq!(p.c, 260e-9);
    }

    fn small_pcp() -> ZaatarPcp<F61, Radix2Domain<F61>> {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.square(&x);
        b.bind_output(&y);
        let (sys, _) = b.finish();
        let t = ginger_to_quad(&sys);
        ZaatarPcp::new(Qap::new(&t.system), PcpParams::light())
    }

    #[test]
    fn seeding_slashes_verifier_to_prover_bytes() {
        let pcp = small_pcp();
        let full = zaatar_network_costs(&pcp, 10, false);
        let seeded = zaatar_network_costs(&pcp, 10, true);
        assert!(seeded.v_to_p < full.v_to_p / 2, "{seeded:?} vs {full:?}");
        // P → V traffic is unchanged.
        assert_eq!(seeded.p_to_v, full.p_to_v);
    }

    #[test]
    fn prover_traffic_scales_with_batch() {
        let pcp = small_pcp();
        let b1 = zaatar_network_costs(&pcp, 1, true);
        let b10 = zaatar_network_costs(&pcp, 10, true);
        assert_eq!(b10.p_to_v, 10 * b1.p_to_v);
        assert_eq!(b10.v_to_p, b1.v_to_p, "setup traffic is batch-independent");
        assert_eq!(b10.total(), b10.v_to_p + b10.p_to_v);
    }
}
