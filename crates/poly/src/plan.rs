//! Cached NTT execution plans: the kernel layer under every transform in
//! this crate.
//!
//! A [`NttPlan`] precomputes, once per `(field, log_size)` pair, everything
//! the in-place transform needs at run time: the bit-reversal permutation,
//! flat forward/inverse twiddle tables, and `n⁻¹`. Plans are interned in a
//! process-wide [`zaatar_mem::Interner`] ([`plan_for`]) keyed by field type
//! and size, so the prover's repeated transforms over one domain pay the
//! table construction cost exactly once; after first use, lookups are a
//! read-lock + map probe.
//!
//! The transform itself runs fused radix-4 butterfly passes (two classic
//! radix-2 stages per memory sweep — same multiplication count, half the
//! loads/stores) with a single radix-2 stage first when `log n` is odd.
//! A transform runs on the calling thread; parallelism lives one level
//! up, across the instances of a batch.
//!
//! Twiddle layout: `tw[m + k] = w_{2m}ᵏ` for every stage half-size `m`
//! (a power of two `< n`) and `0 ≤ k < m`, packing all stages into one
//! length-`n` vector. A fused pass at half-size `m` reads its first-stage
//! twiddles from `tw[m..2m]` and its second-stage twiddles from
//! `tw[2m..4m]` — both contiguous.

use std::any::{Any, TypeId};
use std::sync::Arc;

use zaatar_field::PrimeField;
use zaatar_mem::Interner;

/// A reusable execution plan for size-`2^log_n` NTTs over `F`.
///
/// Obtain shared plans with [`plan_for`] (cached) or build a private one
/// with [`NttPlan::build`] (used by the differential tests to compare the
/// cached path against cold-path computation).
pub struct NttPlan<F> {
    log_n: u32,
    n: usize,
    /// `bitrev[i]` = `i` with its low `log_n` bits reversed.
    bitrev: Vec<u32>,
    /// Forward twiddles, flat layout `tw[m + k] = w_{2m}ᵏ`.
    fwd: Vec<F>,
    /// Inverse twiddles (same layout, over `w⁻¹`).
    inv: Vec<F>,
    /// `n⁻¹`, applied after the inverse transform.
    n_inv: F,
}

impl<F> core::fmt::Debug for NttPlan<F> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("NttPlan")
            .field("log_n", &self.log_n)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<F: PrimeField> NttPlan<F> {
    /// Builds a plan from scratch, bypassing the registry.
    ///
    /// # Panics
    ///
    /// Panics if `log_n` exceeds the field's 2-adicity.
    pub fn build(log_n: u32) -> Self {
        assert!(log_n <= F::TWO_ADICITY, "NTT length exceeds field 2-adicity");
        let n = 1usize << log_n;
        let root = F::root_of_unity_of_order(log_n).expect("2-adicity checked above");
        let root_inv = root.inverse().expect("roots of unity are nonzero");
        let mut bitrev = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let r = if log_n == 0 { 0 } else { i.reverse_bits() >> (64 - log_n) };
            bitrev.push(r as u32);
        }
        NttPlan {
            log_n,
            n,
            bitrev,
            fwd: twiddle_table(n, root),
            inv: twiddle_table(n, root_inv),
            n_inv: F::from_u64(n as u64)
                .inverse()
                .expect("domain size nonzero in field"),
        }
    }

    /// The transform size `n = 2^log_n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is for the trivial size-1 transform.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// `log₂ n`.
    pub fn log_n(&self) -> u32 {
        self.log_n
    }

    /// In-place forward NTT: coefficients → evaluations at `{ωʲ}` in
    /// natural order.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.len()`.
    pub fn forward(&self, a: &mut [F]) {
        self.transform(a, &self.fwd);
    }

    /// In-place inverse NTT: evaluations at `{ωʲ}` (natural order) →
    /// coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.len()`.
    pub fn inverse(&self, a: &mut [F]) {
        self.transform(a, &self.inv);
        let n_inv = self.n_inv;
        for x in a.iter_mut() {
            *x *= n_inv;
        }
    }

    fn transform(&self, a: &mut [F], tw: &[F]) {
        assert_eq!(a.len(), self.n, "input length must match the plan size");
        if self.n <= 1 {
            return;
        }
        self.permute(a);
        let mut m = 1usize;
        if self.log_n % 2 == 1 {
            // Odd log n: one radix-2 stage (half-size 1, twiddle 1 — no
            // multiplications), then fused radix-4 passes cover the rest.
            radix2_stage(a);
            m = 2;
        }
        while m < self.n {
            radix4_pass(a, tw, m);
            m <<= 2;
        }
    }

    fn permute(&self, a: &mut [F]) {
        for i in 0..self.n {
            let j = self.bitrev[i] as usize;
            if i < j {
                a.swap(i, j);
            }
        }
    }
}

/// `tw[m + k] = root_{2m}ᵏ` for every power-of-two half-size `m < n`.
fn twiddle_table<F: PrimeField>(n: usize, root: F) -> Vec<F> {
    let mut tw = vec![F::ONE; n.max(1)];
    let mut m = 1;
    while m < n {
        let w = root.pow((n / (2 * m)) as u64);
        let mut acc = F::ONE;
        for slot in &mut tw[m..2 * m] {
            *slot = acc;
            acc *= w;
        }
        m <<= 1;
    }
    tw
}

/// The half-size-1 radix-2 stage: `(u, v) → (u + v, u − v)` on adjacent
/// pairs. All twiddles are 1, so the pass is multiplication-free.
fn radix2_stage<F: PrimeField>(a: &mut [F]) {
    for pair in a.chunks_exact_mut(2) {
        let u = pair[0];
        let v = pair[1];
        pair[0] = u + v;
        pair[1] = u - v;
    }
}

/// One fused radix-4 pass at half-size `m`: equivalent to the radix-2
/// stages at `m` and `2m`, but each span-`4m` block is swept once:
///
/// ```text
/// stage 1 (half m):  u0,u1 = c0[j] ± c1[j]·w_{2m}ʲ
///                    u2,u3 = c2[j] ± c3[j]·w_{2m}ʲ
/// stage 2 (half 2m): c0[j],c2[j] = u0 ± u2·w_{4m}ʲ
///                    c1[j],c3[j] = u1 ± u3·w_{4m}^{j+m}
/// ```
fn radix4_pass<F: PrimeField>(a: &mut [F], tw: &[F], m: usize) {
    // First-stage twiddles w_{2m}ʲ and second-stage twiddles w_{4m}ʲ,
    // contiguous in the flat table.
    let w1 = &tw[m..2 * m];
    let w2 = &tw[2 * m..4 * m];
    for block in a.chunks_exact_mut(4 * m) {
        let (h0, h1) = block.split_at_mut(2 * m);
        let (c0, c1) = h0.split_at_mut(m);
        let (c2, c3) = h1.split_at_mut(m);
        for j in 0..m {
            let t1 = c1[j] * w1[j];
            let t3 = c3[j] * w1[j];
            let u0 = c0[j] + t1;
            let u1 = c0[j] - t1;
            let u2 = c2[j] + t3;
            let u3 = c2[j] - t3;
            let v2 = u2 * w2[j];
            let v3 = u3 * w2[j + m];
            c0[j] = u0 + v2;
            c2[j] = u0 - v2;
            c1[j] = u1 + v3;
            c3[j] = u1 - v3;
        }
    }
}

/// The process-wide plan registry, keyed by `(field type, log_n)`.
/// Rust has no generic statics, so the interned value is type-erased:
/// each entry holds the `Arc<NttPlan<F>>` for its key's field behind
/// `dyn Any`, recovered by [`plan_for`]'s downcast. The interner builds
/// under its write lock, so a cold size races at most once per key.
static REGISTRY: Interner<(TypeId, u32), Box<dyn Any + Send + Sync>> = Interner::new();

/// Returns the shared plan for size-`2^log_n` transforms over `F`,
/// building and caching it on first use.
///
/// Emits `poly.ntt.twiddle_cache_hit` / `poly.ntt.twiddle_cache_miss`
/// counters so cache behavior shows up in [`zaatar_obs`] snapshots.
///
/// # Panics
///
/// Panics if `log_n` exceeds the field's 2-adicity.
pub fn plan_for<F: PrimeField>(log_n: u32) -> Arc<NttPlan<F>> {
    assert!(log_n <= F::TWO_ADICITY, "NTT length exceeds field 2-adicity");
    let (entry, hit) = REGISTRY.intern_with((TypeId::of::<F>(), log_n), || {
        Box::new(Arc::new(NttPlan::<F>::build(log_n))) as Box<dyn Any + Send + Sync>
    });
    zaatar_obs::counter(if hit {
        "poly.ntt.twiddle_cache_hit"
    } else {
        "poly.ntt.twiddle_cache_miss"
    })
    .inc();
    Arc::clone(
        entry
            .downcast_ref::<Arc<NttPlan<F>>>()
            .expect("interned entry matches its key's field type"),
    )
}

/// [`plan_for`] keyed by transform length instead of its log.
///
/// # Panics
///
/// Panics if `n` is not a power of two or exceeds the field's 2-adic
/// subgroup capacity.
pub fn plan_for_len<F: PrimeField>(n: usize) -> Arc<NttPlan<F>> {
    assert!(n.is_power_of_two(), "NTT length must be a power of two");
    plan_for(n.trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Field, F128, F61};

    fn naive_dft<F: PrimeField>(coeffs: &[F]) -> Vec<F> {
        let n = coeffs.len();
        let root = F::root_of_unity_of_order(n.trailing_zeros()).unwrap();
        (0..n)
            .map(|j| {
                let x = root.pow(j as u64);
                coeffs
                    .iter()
                    .rev()
                    .fold(F::ZERO, |acc, c| acc * x + *c)
            })
            .collect()
    }

    fn test_vec(n: usize) -> Vec<F61> {
        (0..n as u64)
            .map(|i| F61::from_u64(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xabcd))
            .collect()
    }

    #[test]
    fn forward_matches_naive_for_all_small_logs() {
        for log_n in 0..=10u32 {
            let plan = NttPlan::<F61>::build(log_n);
            let coeffs = test_vec(1 << log_n);
            let mut a = coeffs.clone();
            plan.forward(&mut a);
            assert_eq!(a, naive_dft(&coeffs), "log_n={log_n}");
        }
    }

    #[test]
    fn inverse_round_trips() {
        for log_n in 0..=9u32 {
            let plan = NttPlan::<F128>::build(log_n);
            let coeffs: Vec<F128> =
                (0..1u64 << log_n).map(|i| F128::from_u64(i * i + 5)).collect();
            let mut a = coeffs.clone();
            plan.forward(&mut a);
            plan.inverse(&mut a);
            assert_eq!(a, coeffs, "log_n={log_n}");
        }
    }

    #[test]
    fn registry_returns_same_plan() {
        let a = plan_for::<F61>(5);
        let b = plan_for::<F61>(5);
        assert!(Arc::ptr_eq(&a, &b));
        let c = plan_for_len::<F61>(32);
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn registry_separates_fields_and_sizes() {
        let a = plan_for::<F61>(4);
        let b = plan_for::<F61>(6);
        assert_ne!(a.len(), b.len());
        // Same log over a different field builds its own table.
        let c = plan_for::<F128>(4);
        assert_eq!(a.len(), c.len());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_length_panics() {
        let _ = plan_for_len::<F61>(12);
    }

    #[test]
    #[should_panic(expected = "2-adicity")]
    fn oversized_log_panics() {
        let _ = plan_for::<F61>(33);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn wrong_input_length_panics() {
        let plan = NttPlan::<F61>::build(3);
        let mut a = vec![F61::ONE; 4];
        plan.forward(&mut a);
    }
}
