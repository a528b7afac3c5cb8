//! Ginger's linear commitment primitive: Commit + Multidecommit (§2.2).
//!
//! The verifier encrypts a random vector `r` and sends `Enc(r)`; the
//! prover homomorphically evaluates its linear function on the
//! ciphertexts and returns `e = Enc(π(r))`. In §2.2 this binds the
//! prover to a fixed `π` *before* it sees any queries; the session does
//! not keep that order yet. Its one setup frame, `HSETUP`, carries each
//! circuit's `Enc(r)`, query seed and `t` together, so the prover knows
//! every query before it commits (ROADMAP item 1 restores the order). At decommit time the
//! verifier sends the PCP queries `q₁…q_µ` **plus** a consistency query
//! `t = r + α₁q₁ + … + α_µq_µ` with secret random `{αᵢ}`; a prover whose
//! answers are inconsistent with the committed function passes the check
//!
//! ```text
//! Dec(e) == g^(π(t) − Σ αᵢ·π(qᵢ))
//! ```
//!
//! only with small probability (\[53, Apdx A.2\]). Exponent arithmetic
//! coincides with field arithmetic because the group order equals the
//! field modulus (see `zaatar_crypto::group`).

use std::ops::Range;

use zaatar_crypto::{ChaChaPrg, Ciphertext, ElGamal, HasGroup, KeyPair};
use zaatar_field::Field;
use zaatar_sched::{effective_workers, parallel_map, shard_batch};

use crate::matvec::QueryMatrix;

/// The verifier's commitment key for one linear oracle of a fixed
/// length: the ElGamal keypair, the secret vector `r`, and the
/// encrypted vector to ship to the prover.
pub struct CommitmentKey<F: HasGroup> {
    kp: KeyPair<F>,
    r: Vec<F>,
    /// `Enc(r)`, sent to the prover once per batch.
    pub enc_r: Vec<Ciphertext>,
}

impl<F: HasGroup> CommitmentKey<F> {
    /// Generates a key for oracles of length `len`, encrypting `r`
    /// across the host's workers (`ZAATAR_WORKERS` honoured).
    pub fn generate(len: usize, prg: &mut ChaChaPrg) -> Self {
        Self::generate_sharded(len, prg, effective_workers(usize::MAX))
    }

    /// [`Self::generate`] over `shards` contiguous ranges of `r`. Every
    /// PRG draw — the secret key, `r`, then one `k` per element — is
    /// made here, serially, in the order a one-thread keygen makes them;
    /// the shards only evaluate the pure `(rᵢ, kᵢ) → Enc(rᵢ)`
    /// ([`ElGamal::encrypt_with`]). So the key, the ciphertexts and the
    /// PRG's position afterwards are the same at every shard count.
    fn generate_sharded(len: usize, prg: &mut ChaChaPrg, shards: usize) -> Self {
        let _span = zaatar_obs::time("commit.keygen");
        let kp = KeyPair::generate(prg);
        let r: Vec<F> = prg.field_vec(len);
        let ks: Vec<F> = prg.field_vec(len);
        let pk_table = F::group().fixed_base_table_for(kp.public(), len);
        let ranges: Vec<_> = shard_batch(len, shards).into_iter().filter(|s| !s.is_empty()).collect();
        let enc_r = parallel_map(ranges, shards, |s| {
            ElGamal::<F>::encrypt_with(&pk_table, &r[s.clone()], &ks[s])
        })
        .into_iter()
        .flatten()
        .collect();
        CommitmentKey { kp, r, enc_r }
    }

    /// Oracle length this key supports.
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// True if the key is for zero-length oracles.
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }

    /// **Prover side**: [`Self::commit_chunked`] with one covering chunk
    /// and a throwaway workspace.
    pub fn commit(enc_r: &[Ciphertext], u: &[F]) -> Ciphertext {
        Self::commit_chunked(enc_r, u, usize::MAX, &mut crate::ProverWorkspace::new())
    }

    /// [`Self::commit_chunked`] with one covering chunk. Kept because
    /// `zbench` calls it; the session layer passes the policy's chunk
    /// length to [`Self::commit_chunked`] itself.
    pub fn commit_with(
        enc_r: &[Ciphertext],
        u: &[F],
        ws: &mut crate::ProverWorkspace<F>,
    ) -> Ciphertext {
        Self::commit_chunked(enc_r, u, usize::MAX, ws)
    }

    /// **Prover side**: computes the commitment
    /// `Enc(π(r)) = ∏ Enc(rᵢ)^(uᵢ)` for proof vector `u` (the prover
    /// sees only `enc_r`), feeding the Pippenger bucket MSM `chunk_len`
    /// scalars at a time with the bucket accumulators leased from `ws`:
    /// each chunk runs its own bucket pass sized to the chunk and the
    /// partial residues fold in the group, so peak bucket storage tracks
    /// the chunk, not the oracle length. The group fold is exact (a
    /// product of partial products is the one-shot product), so the
    /// ciphertext is identical at every chunk length; any length ≥
    /// `u.len()` is one covering chunk. A zero-length oracle commits to
    /// the identity ciphertext `Enc(0)` — pinned behavior, not a panic.
    ///
    /// When the workspace's policy has two or more workers, the two
    /// ciphertext components — independent MSMs over the same scalars —
    /// run concurrently ([`ElGamal::inner_product_split`]), each on its
    /// own bucket buffer leased from `ws` before the split.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `chunk_len == 0`.
    pub fn commit_chunked(
        enc_r: &[Ciphertext],
        u: &[F],
        chunk_len: usize,
        ws: &mut crate::ProverWorkspace<F>,
    ) -> Ciphertext {
        let _span = zaatar_obs::time("commit.commit");
        let workers = effective_workers(ws.policy().workers);
        ElGamal::<F>::inner_product_split(enc_r, u, chunk_len, workers, ws.group_scratch())
    }

    /// **Verifier side**: builds the consistency query
    /// `t = r + Σ αᵢ·qᵢ` for the given PCP queries, returning `(t, α)`
    /// (the `α` stay secret with the verifier). `t` is computed across
    /// the host's workers (`ZAATAR_WORKERS` honoured).
    pub fn consistency_query(&self, queries: &[&[F]], prg: &mut ChaChaPrg) -> (Vec<F>, Vec<F>) {
        self.consistency_query_sharded(queries, prg, effective_workers(usize::MAX))
    }

    /// [`Self::consistency_query`] over `shards` column ranges: each
    /// shard folds its stripe of every query into its stripe of `t`.
    /// Columns are independent sums, so `t` is the same at every count.
    fn consistency_query_sharded(
        &self,
        queries: &[&[F]],
        prg: &mut ChaChaPrg,
        shards: usize,
    ) -> (Vec<F>, Vec<F>) {
        let _span = zaatar_obs::time("commit.consistency_query");
        let alphas: Vec<F> = prg.field_vec(queries.len());
        debug_assert!(queries.iter().all(|q| q.len() == self.r.len()), "query length mismatch");
        let mut t = self.r.clone();
        let mut stripes = Vec::new();
        let mut rest = t.as_mut_slice();
        for cols in shard_batch(self.r.len(), shards).into_iter().filter(|s| !s.is_empty()) {
            let (stripe, tail) = rest.split_at_mut(cols.len());
            rest = tail;
            stripes.push((cols, stripe));
        }
        parallel_map(stripes, shards, |(cols, stripe): (Range<usize>, &mut [F])| {
            let rows: Vec<&[F]> = queries.iter().map(|q| &q[cols.clone()]).collect();
            F::add_scaled_rows(stripe, &alphas, &rows);
        });
        (t, alphas)
    }

    /// **Verifier side**: checks the prover's decommitment: `answers` to
    /// the PCP queries, `t_answer = π(t)`, against the commitment
    /// ciphertext.
    pub fn verify(
        &self,
        commitment: &Ciphertext,
        answers: &[F],
        t_answer: F,
        alphas: &[F],
    ) -> bool {
        let _span = zaatar_obs::time("commit.verify");
        // `answers` comes off the wire; a count mismatch is an invalid
        // decommitment, not a programming error.
        if answers.len() != alphas.len() {
            return false;
        }
        let expected = t_answer - F::dot(answers, alphas);
        ElGamal::<F>::decrypt_to_group(&self.kp, commitment) == ElGamal::<F>::encode(expected)
    }
}

/// A prover's decommitment for one oracle: PCP answers plus the
/// consistency answer.
#[derive(Clone, Debug)]
pub struct Decommitment<F> {
    /// Answers to the PCP queries, in order.
    pub answers: Vec<F>,
    /// `π(t)`.
    pub t_answer: F,
}

/// **Prover side**: answers PCP queries and the consistency query for
/// proof vector `u` — the serial reference path (one dense dot product
/// per query). Production callers decommit through
/// [`decommit_packed_into`]'s blocked kernel.
pub fn decommit<F: Field>(u: &[F], queries: &[&[F]], t: &[F]) -> Decommitment<F> {
    Decommitment {
        answers: queries.iter().map(|q| F::dot(q, u)).collect(),
        t_answer: F::dot(t, u),
    }
}

/// **Prover side**: [`decommit`] over a pre-packed [`QueryMatrix`] — one
/// blocked pass over `u` answers every query, sharded across up to
/// `workers` threads. Output is identical to [`decommit`] on the same
/// queries (exact field arithmetic commutes with re-association).
///
/// `answers` is a caller-supplied buffer (the Answer stage leases it
/// from a [`crate::ProverWorkspace`] and returns it after encoding; pass
/// `Vec::new()` for a one-off). It is cleared and refilled: its capacity
/// — not its contents — is what carries over between instances.
pub fn decommit_packed_into<F: Field>(
    u: &[F],
    queries: &QueryMatrix<F>,
    t: &[F],
    workers: usize,
    mut answers: Vec<F>,
) -> Decommitment<F> {
    let _span = zaatar_obs::time("pcp.answer.matvec");
    queries.matvec_into(u, workers, &mut answers);
    Decommitment {
        answers,
        t_answer: F::dot(t, u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Field, F61};

    fn setup(n: usize, nq: usize, seed: u64) -> (CommitmentKey<F61>, Vec<F61>, Vec<Vec<F61>>, ChaChaPrg) {
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let key = CommitmentKey::<F61>::generate(n, &mut prg);
        let u: Vec<F61> = prg.field_vec(n);
        let queries: Vec<Vec<F61>> = (0..nq).map(|_| prg.field_vec(n)).collect();
        (key, u, queries, prg)
    }

    #[test]
    fn keygen_is_identical_at_every_shard_count() {
        // 40 elements: past the public-key table's break-even, ragged
        // against 3 shards. Equal serialized Enc(r), equal r, and an
        // equal *next* PRG draw — so the query seed and every α a
        // session draws after keygen are unmoved. Fails if a shard ever
        // draws its own k.
        let g = F61::group();
        let keygen = |shards: usize| {
            let mut prg = ChaChaPrg::from_u64_seed(0x5a4d);
            let key = CommitmentKey::<F61>::generate_sharded(40, &mut prg, shards);
            let enc_r: Vec<u8> = key
                .enc_r
                .iter()
                .flat_map(|ct| [g.elem_to_bytes(&ct.c1), g.elem_to_bytes(&ct.c2)].concat())
                .collect();
            (enc_r, key.r, prg.field_element::<F61>())
        };
        let serial = keygen(1);
        assert_eq!(serial.0.len(), 40 * 2 * g.elem_bytes());
        for shards in [2usize, 3, 4] {
            assert_eq!(keygen(shards), serial, "shards={shards}");
        }
        // The public entry is the same function at the host's count.
        let mut prg = ChaChaPrg::from_u64_seed(0x5a4d);
        let public = CommitmentKey::<F61>::generate(40, &mut prg);
        assert_eq!((public.r, prg.field_element::<F61>()), (serial.1, serial.2));
    }

    #[test]
    fn consistency_query_is_identical_at_every_shard_count() {
        // 37 columns, ragged against 2–4 shards: the same `t`, the same
        // αs and the same next draw.
        let (key, _, queries, prg) = setup(37, 9, 0xc0de);
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let query = |shards: usize| {
            let mut prg = prg.clone();
            let (t, alphas) = key.consistency_query_sharded(&qrefs, &mut prg, shards);
            (t, alphas, prg.field_element::<F61>())
        };
        let serial = query(1);
        for shards in [2usize, 3, 4] {
            assert_eq!(query(shards), serial, "shards={shards}");
        }
        let mut public = prg.clone();
        let (t, alphas) = key.consistency_query(&qrefs, &mut public);
        assert_eq!((t, alphas, public.field_element::<F61>()), serial);
    }

    #[test]
    fn honest_decommit_verifies() {
        let (key, u, queries, mut prg) = setup(8, 5, 1);
        let commitment = CommitmentKey::commit(&key.enc_r, &u);
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
        let d = decommit(&u, &qrefs, &t);
        assert!(key.verify(&commitment, &d.answers, d.t_answer, &alphas));
    }

    #[test]
    fn lying_about_one_answer_fails() {
        let (key, u, queries, mut prg) = setup(8, 5, 2);
        let commitment = CommitmentKey::commit(&key.enc_r, &u);
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
        let mut d = decommit(&u, &qrefs, &t);
        d.answers[2] += F61::ONE;
        assert!(!key.verify(&commitment, &d.answers, d.t_answer, &alphas));
    }

    #[test]
    fn answering_with_different_function_fails() {
        // Commit with u, answer with u'.
        let (key, u, queries, mut prg) = setup(6, 4, 3);
        let commitment = CommitmentKey::commit(&key.enc_r, &u);
        let mut u2 = u.clone();
        u2[0] += F61::ONE;
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
        let d = decommit(&u2, &qrefs, &t);
        assert!(!key.verify(&commitment, &d.answers, d.t_answer, &alphas));
    }

    #[test]
    fn tampered_t_answer_fails() {
        let (key, u, queries, mut prg) = setup(6, 4, 4);
        let commitment = CommitmentKey::commit(&key.enc_r, &u);
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
        let mut d = decommit(&u, &qrefs, &t);
        d.t_answer += F61::ONE;
        assert!(!key.verify(&commitment, &d.answers, d.t_answer, &alphas));
    }

    #[test]
    fn zero_vector_commits() {
        let (key, _, queries, mut prg) = setup(5, 3, 5);
        let u = vec![F61::ZERO; 5];
        let commitment = CommitmentKey::commit(&key.enc_r, &u);
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
        let d = decommit(&u, &qrefs, &t);
        assert!(key.verify(&commitment, &d.answers, d.t_answer, &alphas));
        assert!(d.answers.iter().all(|a| a.is_zero()));
    }

    #[test]
    fn packed_decommit_matches_serial_and_verifies() {
        let (key, u, queries, mut prg) = setup(9, 6, 7);
        let commitment = CommitmentKey::commit(&key.enc_r, &u);
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
        let matrix = QueryMatrix::pack(&qrefs);
        let serial = decommit(&u, &qrefs, &t);
        for workers in [1usize, 4] {
            let packed = decommit_packed_into(&u, &matrix, &t, workers, Vec::new());
            assert_eq!(packed.answers, serial.answers, "workers={workers}");
            assert_eq!(packed.t_answer, serial.t_answer);
            assert!(key.verify(&commitment, &packed.answers, packed.t_answer, &alphas));
        }
    }

    #[test]
    fn zero_length_oracle_commits_to_identity() {
        // enc_r = [] is a degenerate but legal oracle: the commitment is
        // the identity ciphertext Enc(0), never a panic, and the empty
        // decommitment verifies end-to-end.
        let (key, _, _, mut prg) = setup(0, 0, 8);
        assert!(key.is_empty());
        let u: Vec<F61> = Vec::new();
        let commitment = CommitmentKey::commit(&key.enc_r, &u);
        assert_eq!(commitment, zaatar_crypto::ElGamal::<F61>::zero());
        let (t, alphas) = key.consistency_query(&[], &mut prg);
        let d = decommit(&u, &[], &t);
        assert!(key.verify(&commitment, &d.answers, d.t_answer, &alphas));
    }

    #[test]
    fn commit_with_workspace_matches_fresh() {
        let (key, u, _, _) = setup(9, 0, 9);
        let mut ws: crate::ProverWorkspace<F61> = crate::ProverWorkspace::new();
        let fresh = CommitmentKey::commit(&key.enc_r, &u);
        // Run twice so the second pass reuses a (dirty) pooled bucket
        // buffer.
        for round in 0..2 {
            let pooled = CommitmentKey::commit_with(&key.enc_r, &u, &mut ws);
            assert_eq!(pooled, fresh, "round={round}");
        }
    }

    #[test]
    fn one_key_serves_many_instances() {
        // Batching: the same enc_r and queries, different proof vectors.
        let (key, _, queries, mut prg) = setup(7, 4, 6);
        let qrefs: Vec<&[F61]> = queries.iter().map(|q| q.as_slice()).collect();
        let (t, alphas) = key.consistency_query(&qrefs, &mut prg);
        for seed in 0..3u64 {
            let mut p2 = ChaChaPrg::from_u64_seed(100 + seed);
            let u: Vec<F61> = p2.field_vec(7);
            let commitment = CommitmentKey::commit(&key.enc_r, &u);
            let d = decommit(&u, &qrefs, &t);
            assert!(key.verify(&commitment, &d.answers, d.t_answer, &alphas));
        }
    }
}
