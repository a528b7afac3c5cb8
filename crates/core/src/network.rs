//! Network-cost accounting and seed-derived queries (\[53, Apdx A.3\]).
//!
//! Shipping every PCP query explicitly would cost `Θ(µ·|u|)` field
//! elements per batch; instead the verifier sends a short random seed
//! from which both parties regenerate the PCP queries with the ChaCha
//! PRG, plus — explicitly — only the consistency queries `t` (these
//! depend on the verifier's secret `r` and `α` and cannot be derived
//! from a public seed). The prover returns, per instance, two
//! commitments and one field element per query.

use zaatar_crypto::ChaChaPrg;
use zaatar_field::PrimeField;
use zaatar_poly::domain::EvalDomain;

use crate::pcp::{QuerySet, ZaatarPcp};

/// Bytes on the wire in each direction for one batch.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetworkCosts {
    /// Verifier → prover bytes (setup + queries), whole batch.
    pub v_to_p: u64,
    /// Prover → verifier bytes, whole batch.
    pub p_to_v: u64,
}

impl NetworkCosts {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.v_to_p + self.p_to_v
    }
}

/// Computes batch network costs for the Zaatar argument.
///
/// * `seeded = true`: the PCP queries travel as a 32-byte seed
///   (\[53, Apdx A.3\]); only `Enc(r)` and the two `t` vectors are sent in
///   full.
/// * `seeded = false`: every query vector is shipped explicitly.
pub fn zaatar_network_costs<F: PrimeField, D: EvalDomain<F>>(
    pcp: &ZaatarPcp<F, D>,
    beta: u64,
    group_modulus_bits: u32,
    seeded: bool,
) -> NetworkCosts {
    let field_bytes = 8 * F::NUM_WORDS as u64;
    // An ElGamal ciphertext is two group elements.
    let cipher_bytes = 2 * u64::from(group_modulus_bits.div_ceil(8));
    let n_z = pcp.qap().var_map().num_unbound() as u64;
    let n_h = pcp.qap().degree() as u64 + 1;
    let params = pcp.params();
    let queries_z = (params.rho * (3 * params.rho_lin + 3)) as u64;
    let queries_h = (params.rho * (3 * params.rho_lin + 1)) as u64;

    // V → P: Enc(r) for both oracles, the queries (seed or full), and
    // the consistency queries t_z, t_h (always explicit).
    let enc_r = (n_z + n_h) * cipher_bytes;
    let query_payload = if seeded {
        32
    } else {
        queries_z * n_z * field_bytes + queries_h * n_h * field_bytes
    };
    let t_vectors = (n_z + n_h) * field_bytes;
    let v_to_p = enc_r + query_payload + t_vectors;

    // P → V, per instance: two commitments plus one answer per query
    // plus the two t answers.
    let per_instance = 2 * cipher_bytes + (queries_z + queries_h + 2) * field_bytes;
    NetworkCosts {
        v_to_p,
        p_to_v: beta * per_instance,
    }
}

/// Regenerates the verifier's PCP query set from a public seed — the
/// prover-side half of the seed-derivation optimization. Both parties
/// calling this with the same seed obtain identical queries.
pub fn queries_from_seed<F: PrimeField, D: EvalDomain<F>>(
    pcp: &ZaatarPcp<F, D>,
    seed: [u8; 32],
) -> QuerySet<F> {
    zaatar_obs::counter("network.seed_derivations").inc();
    let mut prg = ChaChaPrg::from_seed(seed);
    pcp.generate_queries(&mut prg)
}

/// The per-batch query-generation seed, drawn by the verifier.
pub fn fresh_seed(prg: &mut ChaChaPrg) -> [u8; 32] {
    zaatar_obs::counter("network.seeds_drawn").inc();
    let mut seed = [0u8; 32];
    prg.fill_bytes(&mut seed);
    seed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcp::PcpParams;
    use crate::qap::Qap;
    use zaatar_cc::{ginger_to_quad, Builder};
    use zaatar_field::F61;

    fn small_pcp() -> ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>> {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.square(&x);
        b.bind_output(&y);
        let (sys, _) = b.finish();
        let t = ginger_to_quad(&sys);
        ZaatarPcp::new(Qap::new(&t.system), PcpParams::light())
    }

    #[test]
    fn seeded_queries_match_between_parties() {
        let pcp = small_pcp();
        let mut prg = ChaChaPrg::from_u64_seed(77);
        let seed = fresh_seed(&mut prg);
        let verifier_side = queries_from_seed(&pcp, seed);
        let prover_side = queries_from_seed(&pcp, seed);
        // Identical query vectors in both orderings.
        let vq = verifier_side.z_queries();
        let pq = prover_side.z_queries();
        assert_eq!(vq.len(), pq.len());
        for (a, b) in vq.iter().zip(pq.iter()) {
            assert_eq!(a, b);
        }
        let vh = verifier_side.h_queries();
        let ph = prover_side.h_queries();
        for (a, b) in vh.iter().zip(ph.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let pcp = small_pcp();
        let q1 = queries_from_seed(&pcp, [1u8; 32]);
        let q2 = queries_from_seed(&pcp, [2u8; 32]);
        assert_ne!(q1.z_queries()[0], q2.z_queries()[0]);
    }

    #[test]
    fn seeding_slashes_verifier_to_prover_bytes() {
        let pcp = small_pcp();
        let full = zaatar_network_costs(&pcp, 10, 256, false);
        let seeded = zaatar_network_costs(&pcp, 10, 256, true);
        assert!(seeded.v_to_p < full.v_to_p / 2, "{seeded:?} vs {full:?}");
        // P → V traffic is unchanged.
        assert_eq!(seeded.p_to_v, full.p_to_v);
    }

    #[test]
    fn prover_traffic_scales_with_batch() {
        let pcp = small_pcp();
        let b1 = zaatar_network_costs(&pcp, 1, 256, true);
        let b10 = zaatar_network_costs(&pcp, 10, 256, true);
        assert_eq!(b10.p_to_v, 10 * b1.p_to_v);
        assert_eq!(b10.v_to_p, b1.v_to_p, "setup traffic is batch-independent");
        assert_eq!(b10.total(), b10.v_to_p + b10.p_to_v);
    }
}
