//! Soundness-parameter analysis (App. A.2).
//!
//! Lemma A.3's proof establishes that the PCP's per-repetition soundness
//! error is bounded by
//!
//! ```text
//! κ > max{ (1 − 3δ + 6δ²)^ρ_lin , 6δ + 2·|C|/|F| }
//! ```
//!
//! for any `0 < δ < δ*`, where `δ*` is the lesser root of
//! `6δ² − 3δ + 2/9 = 0`. The first term bounds the probability that a
//! far-from-linear oracle survives all `ρ_lin` linearity tests; the
//! second covers self-correction and the divisibility test's random-τ
//! error. Its field term counts the points of the domain `τ` is tested
//! against: the paper's domain has `|C|` points, ours is padded to the
//! evaluation-domain size `n = Qap::degree()` (`|C| ≤ n < 2|C|`), so
//! every function below takes `n`, not the constraint count.
//! The paper picks `δ = 0.0294`, `ρ_lin = 20`, giving
//! `κ = 0.177`, then `ρ = 8` repetitions for `κ^ρ < 9.6×10⁻⁷`; the full
//! argument adds a commitment error of `9µ·|F|^(−1/3)`.

use crate::pcp::PcpParams;

/// The linearity-test survival bound `(1 − 3δ + 6δ²)^ρ_lin`.
pub fn linearity_term(delta: f64, rho_lin: usize) -> f64 {
    (1.0 - 3.0 * delta + 6.0 * delta * delta).powi(rho_lin as i32)
}

/// The self-correction/divisibility term `6δ + 2·n/|F|`, where `n` is
/// the evaluation-domain size (`Qap::degree()`; App. A.2 writes `|C|`).
pub fn correction_term(delta: f64, domain_size: f64, field_bits: u32) -> f64 {
    6.0 * delta + 2.0 * domain_size / 2f64.powi(field_bits as i32)
}

/// Per-repetition soundness error bound `κ(δ)` for a given
/// evaluation-domain size and field size.
pub fn kappa(delta: f64, rho_lin: usize, domain_size: f64, field_bits: u32) -> f64 {
    linearity_term(delta, rho_lin).max(correction_term(delta, domain_size, field_bits))
}

/// `δ*`: the lesser root of `6δ² − 3δ + 2/9 = 0` (≈ 0.0904); the
/// analysis requires `δ < δ*`.
pub fn delta_star() -> f64 {
    let (a, b, c): (f64, f64, f64) = (6.0, -3.0, 2.0 / 9.0);
    let disc = (b * b - 4.0 * a * c).sqrt();
    (-b - disc) / (2.0 * a)
}

/// Minimizes `κ(δ)` over `δ ∈ (0, δ*)` by ternary search (the optimum
/// balances the decreasing linearity term against the increasing
/// correction term — "we choose δ to minimize break-even batch sizes").
pub fn optimize_delta(rho_lin: usize, domain_size: f64, field_bits: u32) -> (f64, f64) {
    let (mut lo, mut hi) = (1e-6, delta_star() - 1e-9);
    for _ in 0..200 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if kappa(m1, rho_lin, domain_size, field_bits)
            < kappa(m2, rho_lin, domain_size, field_bits)
        {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    let delta = (lo + hi) / 2.0;
    (delta, kappa(delta, rho_lin, domain_size, field_bits))
}

/// The PCP soundness error `κ^ρ` for the given parameters.
pub fn pcp_error(params: PcpParams, domain_size: f64, field_bits: u32) -> f64 {
    let (_, k) = optimize_delta(params.rho_lin, domain_size, field_bits);
    k.powi(params.rho as i32)
}

/// The commitment's contribution to the argument's soundness error:
/// `9µ·|F|^(−1/3)` for `µ` PCP queries (\[53, Apdx A.2\]).
pub fn commitment_error(num_queries: usize, field_bits: u32) -> f64 {
    9.0 * num_queries as f64 * 2f64.powf(-(field_bits as f64) / 3.0)
}

/// Total argument soundness error: `κ^ρ + 9µ·|F|^(−1/3)`.
pub fn argument_error(params: PcpParams, domain_size: f64, field_bits: u32) -> f64 {
    pcp_error(params, domain_size, field_bits)
        + commitment_error(params.total_queries(), field_bits)
}

/// The PCP soundness error bound of the **light test profile**
/// ([`PcpParams::light`]: `ρ = 2`, `ρ_lin = 3`).
///
/// At `ρ_lin = 3` the optimizer balances `(1 − 3δ + 6δ²)³` against `6δ`
/// just under `δ* ≈ 0.0904`, where the per-repetition bound `κ` only
/// reaches ≈ 0.5 — far from the paper's 0.177 at `ρ_lin = 20` — so two
/// repetitions give `κ² ≈ 0.25`. The light profile is a *test* profile:
/// it exercises every protocol path (including rejection of malicious
/// provers, which fail checks with overwhelming probability regardless
/// of `κ`) but offers no production-grade soundness.
pub fn light_profile_error(domain_size: f64, field_bits: u32) -> f64 {
    pcp_error(PcpParams::light(), domain_size, field_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `|F| = 2¹⁹²` as in App. A.2's discussion.
    const BITS: u32 = 192;

    #[test]
    fn delta_star_matches_quadratic() {
        let d = delta_star();
        let residual = 6.0 * d * d - 3.0 * d + 2.0 / 9.0;
        assert!(residual.abs() < 1e-12, "residual {residual}");
        assert!((0.09..0.091).contains(&d), "δ* = {d}");
    }

    #[test]
    fn paper_point_gives_kappa_0177() {
        // The paper: δ = 0.0294 and ρ_lin = 20 → κ = 0.177 suffices.
        let k = kappa(0.0294, 20, 1e6, BITS);
        assert!((0.176..0.178).contains(&k), "κ = {k}");
        // At that δ the two terms are nearly balanced.
        let lin = linearity_term(0.0294, 20);
        let cor = correction_term(0.0294, 1e6, BITS);
        assert!((lin - cor).abs() < 0.005, "lin={lin} cor={cor}");
    }

    #[test]
    fn optimizer_recovers_paper_delta() {
        let (d, k) = optimize_delta(20, 1e6, BITS);
        assert!((0.028..0.031).contains(&d), "δ = {d}");
        assert!(k <= 0.178, "κ = {k}");
    }

    #[test]
    fn paper_soundness_error_bound() {
        // ρ = 8 ⇒ κ^ρ < 9.6×10⁻⁷.
        let err = pcp_error(PcpParams::default(), 1e6, BITS);
        assert!(err < 9.6e-7, "error {err}");
        assert!(err > 1e-8, "suspiciously small: {err}");
    }

    #[test]
    fn error_shrinks_with_more_repetitions() {
        let mut last = 1.0;
        for rho in [1usize, 2, 4, 8, 16] {
            let err = pcp_error(
                PcpParams { rho, rho_lin: 20 },
                1e6,
                BITS,
            );
            assert!(err < last, "ρ={rho}: {err} !< {last}");
            last = err;
        }
    }

    #[test]
    fn error_shrinks_with_more_linearity_tests() {
        let e5 = pcp_error(PcpParams { rho: 4, rho_lin: 5 }, 1e6, BITS);
        let e20 = pcp_error(PcpParams { rho: 4, rho_lin: 20 }, 1e6, BITS);
        assert!(e20 < e5);
    }

    #[test]
    fn commitment_error_is_negligible_at_paper_params() {
        // µ = ρ·ℓ' = 8·124 queries, |F| = 2¹⁹².
        let err = commitment_error(PcpParams::default().total_queries(), BITS);
        assert!(err < 1e-15, "commitment error {err}");
        // But at a 61-bit test field it is NOT negligible — which is why
        // production uses large fields.
        let err61 = commitment_error(PcpParams::default().total_queries(), 61);
        assert!(err61 > 1e-3);
    }

    #[test]
    fn constraint_count_term_is_negligible_for_large_fields() {
        // 2|C|/|F| matters only for astronomically large |C|.
        let small = kappa(0.0294, 20, 1e6, BITS);
        let large = kappa(0.0294, 20, 1e12, BITS);
        assert!((small - large).abs() < 1e-12);
    }

    #[test]
    fn total_argument_error() {
        let err = argument_error(PcpParams::default(), 1e6, BITS);
        assert!(err < 1e-6, "total {err}");
    }

    #[test]
    fn light_profile_error_is_weak_but_bounded() {
        // ρ_lin = 3 caps the per-repetition bound near κ ≈ 0.5, so the
        // light profile's two repetitions land around κ² ≈ 0.25 —
        // documented as test-only soundness.
        let (delta, k) = optimize_delta(PcpParams::light().rho_lin, 1e6, BITS);
        assert!(delta < delta_star());
        assert!((0.45..0.56).contains(&k), "light κ = {k}");
        let err = light_profile_error(1e6, BITS);
        assert!((0.20..0.32).contains(&err), "light κ² = {err}");
        // Sanity: strictly worse than the paper profile.
        assert!(err > pcp_error(PcpParams::default(), 1e6, BITS) * 1e4);
    }
}
