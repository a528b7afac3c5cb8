//! Exponential ElGamal over a Schnorr group.
//!
//! Ginger's linear commitment (§2.2) needs homomorphic — *not* fully
//! homomorphic — encryption: the verifier encrypts a random vector `r`,
//! and the prover computes `Enc(π(r))` for its linear function `π` using
//! only ciphertext multiplications and scalar exponentiations. Messages
//! live "in the exponent" (`Enc(m) = (gᵏ, gᵐ·hᵏ)`), so decryption yields
//! `gᵐ` rather than `m` — sufficient, because the verifier only ever
//! checks `gᵐ` against an exponent it can compute itself.

use crate::chacha::ChaChaPrg;
use crate::group::{FixedBaseTable, GroupElem, HasGroup, MsmAccumulator, SchnorrGroup};
use zaatar_mem::Scratch;
use zaatar_sched::parallel_map;

/// An ElGamal ciphertext `(gᵏ, gᵐ·hᵏ)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    /// `gᵏ`.
    pub c1: GroupElem,
    /// `gᵐ·hᵏ`.
    pub c2: GroupElem,
}

/// An ElGamal keypair: secret exponent `s` (a field element) and public
/// key `h = gˢ`.
#[derive(Clone, Debug)]
pub struct KeyPair<F> {
    sk: F,
    pk: GroupElem,
}

impl<F: HasGroup> KeyPair<F> {
    /// Generates a keypair from the supplied PRG.
    pub fn generate(prg: &mut ChaChaPrg) -> Self {
        let sk: F = prg.field_element();
        let pk = F::group().gen_pow(&sk.exponent_words());
        KeyPair { sk, pk }
    }

    /// The public key `h = gˢ`.
    pub fn public(&self) -> &GroupElem {
        &self.pk
    }
}

/// The exponential ElGamal scheme bound to the group paired with field
/// `F` ([`HasGroup`]).
pub struct ElGamal<F> {
    _marker: core::marker::PhantomData<F>,
}

impl<F: HasGroup> ElGamal<F> {
    fn group() -> &'static SchnorrGroup {
        F::group()
    }

    /// Encrypts the field element `m` under `pk` with randomness from
    /// `prg`: `(gᵏ, gᵐ·hᵏ)`. The two generator powers go through the
    /// interned fixed-base table; `hᵏ` pays square-and-multiply since
    /// `pk` is a one-off base here (see [`Self::encrypt_vec`]).
    pub fn encrypt(pk: &GroupElem, m: F, prg: &mut ChaChaPrg) -> Ciphertext {
        Self::encrypt_vec(pk, &[m], prg).pop().expect("one ciphertext per message")
    }

    /// The ciphertexts `(gᵏ, gᵐ·hᵏ)` of the given `(m, k)` pairs under
    /// the public key `pk_table` was built for
    /// ([`SchnorrGroup::fixed_base_table_for`]) — a pure function: no
    /// PRG, no shared state beyond one lookup of the interned generator
    /// table per call, so a caller that has drawn every `k` may evaluate
    /// disjoint ranges of one vector on different threads and
    /// concatenate.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn encrypt_with(pk_table: &FixedBaseTable, ms: &[F], ks: &[F]) -> Vec<Ciphertext> {
        assert_eq!(ms.len(), ks.len(), "length mismatch");
        let g = Self::group();
        let gen_table = g.generator_table();
        ms.iter()
            .zip(ks)
            .map(|(m, k)| {
                let k = k.exponent_words();
                // gᵐ·hᵏ accumulates both tables' windows in one product.
                let mut c2 = None;
                g.mul_pow_fixed(&mut c2, gen_table, &m.exponent_words());
                g.mul_pow_fixed(&mut c2, pk_table, &k);
                Ciphertext {
                    c1: g.pow_fixed(gen_table, &k),
                    c2: c2.unwrap_or_else(|| g.identity()),
                }
            })
            .collect()
    }

    /// Encrypts a whole vector (the commitment's `Enc(r)` step): draws
    /// one `k` per element from `prg`, in order, then
    /// [`Self::encrypt_with`]. Vectors long enough to amortize it get a
    /// fixed-base window table for the public key; ciphertexts are the
    /// same group elements either way, so they match [`Self::encrypt`]
    /// element-for-element on the same PRG state.
    pub fn encrypt_vec(pk: &GroupElem, ms: &[F], prg: &mut ChaChaPrg) -> Vec<Ciphertext> {
        let ks: Vec<F> = prg.field_vec(ms.len());
        Self::encrypt_with(&Self::group().fixed_base_table_for(pk, ms.len()), ms, &ks)
    }

    /// Decrypts to the *group encoding* `gᵐ` of the message.
    pub fn decrypt_to_group(kp: &KeyPair<F>, ct: &Ciphertext) -> GroupElem {
        let g = Self::group();
        // gᵐ = c2 · c1^(−s).
        let c1_neg_s = g.pow_neg(&ct.c1, &kp.sk.exponent_words());
        g.mul(&ct.c2, &c1_neg_s)
    }

    /// The group encoding `gᵐ` of a known message (for comparisons
    /// against decryptions).
    pub fn encode(m: F) -> GroupElem {
        Self::group().gen_pow(&m.exponent_words())
    }

    /// Homomorphic addition of plaintexts: `Enc(m₁)·Enc(m₂) = Enc(m₁+m₂)`.
    pub fn add(a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        let g = Self::group();
        Ciphertext {
            c1: g.mul(&a.c1, &b.c1),
            c2: g.mul(&a.c2, &b.c2),
        }
    }

    /// Homomorphic scalar multiplication: `Enc(m)^c = Enc(m·c)`.
    pub fn scale(a: &Ciphertext, c: F) -> Ciphertext {
        let g = Self::group();
        let e = c.exponent_words();
        Ciphertext {
            c1: g.pow(&a.c1, &e),
            c2: g.pow(&a.c2, &e),
        }
    }

    /// Homomorphic inner product: `∏ Enc(rᵢ)^(uᵢ) = Enc(⟨r, u⟩)` — the
    /// prover's entire commitment computation (§2.2, "apply its function
    /// to an encrypted vector"): [`Self::inner_product_chunked`] with one
    /// covering chunk and a throwaway pool.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn inner_product(cts: &[Ciphertext], scalars: &[F]) -> Ciphertext {
        Self::inner_product_chunked(cts, scalars, usize::MAX, &mut Scratch::new())
    }

    /// [`Self::inner_product_chunked`] with one covering chunk.
    pub fn inner_product_scratch(
        cts: &[Ciphertext],
        scalars: &[F],
        scratch: &mut Scratch<u64>,
    ) -> Ciphertext {
        Self::inner_product_chunked(cts, scalars, usize::MAX, scratch)
    }

    /// [`Self::inner_product_split`] on the calling thread alone.
    pub fn inner_product_chunked(
        cts: &[Ciphertext],
        scalars: &[F],
        chunk_len: usize,
        scratch: &mut Scratch<u64>,
    ) -> Ciphertext {
        Self::inner_product_split(cts, scalars, chunk_len, 1, scratch)
    }

    /// The commitment engine: consumes the scalar vector `chunk_len`
    /// entries at a time (any length ≥ the vector's is one covering
    /// chunk). Each chunk's surviving (nonzero-scalar) pairs run through
    /// the Pippenger bucket MSM once per ciphertext component, and the
    /// per-chunk products fold together via [`MsmAccumulator`]. The
    /// group product over ordered chunks equals the one-shot product, so
    /// the ciphertext is **equal** (byte-identical once serialized) at
    /// every chunk length — while peak transient memory is bounded by
    /// the chunk: the gathered slices and the bucket buffers are
    /// chunk-sized. A zero-length oracle commits to the identity
    /// ciphertext ([`Self::zero`]), never a panic.
    ///
    /// The two components are independent MSMs over the same scalars:
    /// with `workers ≥ 2` each chunk's `c2` product runs on a second
    /// thread ([`parallel_map`]) while the caller's computes `c1` — the
    /// same group elements, in half the wall time. Bucket buffers are
    /// leased from `scratch` *before* the threads split and returned
    /// after they join (one per concurrent component), so the pool's
    /// owner sees every byte.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `chunk_len == 0`.
    pub fn inner_product_split(
        cts: &[Ciphertext],
        scalars: &[F],
        chunk_len: usize,
        workers: usize,
        scratch: &mut Scratch<u64>,
    ) -> Ciphertext {
        assert!(chunk_len > 0, "chunk_len must be positive");
        assert_eq!(cts.len(), scalars.len(), "length mismatch");
        let g = Self::group();
        let mut acc1 = MsmAccumulator::new();
        let mut acc2 = MsmAccumulator::new();
        let reserve = chunk_len.min(cts.len());
        let mut c1s: Vec<&[u64]> = Vec::with_capacity(reserve);
        let mut c2s: Vec<&[u64]> = Vec::with_capacity(reserve);
        let mut exps: Vec<u64> = Vec::with_capacity(reserve * F::NUM_WORDS);
        for (ct_chunk, s_chunk) in cts.chunks(chunk_len).zip(scalars.chunks(chunk_len)) {
            c1s.clear();
            c2s.clear();
            exps.clear();
            for (ct, s) in ct_chunk.iter().zip(s_chunk.iter()) {
                if s.is_zero() {
                    continue;
                }
                c1s.push(ct.c1.words());
                c2s.push(ct.c2.words());
                exps.extend(s.exponent_words());
            }
            if c1s.is_empty() {
                continue;
            }
            let bucket_len = g.msm_bucket_len(c1s.len());
            // Two lanes of one component each, or one lane running both
            // in turn; a lane owns one bucket buffer.
            let lanes = workers.clamp(1, 2);
            let mut buckets: Vec<_> = (0..lanes).map(|_| scratch.take(bucket_len, 0u64)).collect();
            let mut components = [(&mut acc1, &c1s), (&mut acc2, &c2s)];
            let jobs = components.chunks_mut(2 / lanes).zip(&mut buckets).collect();
            parallel_map(jobs, lanes, |(components, buckets)| {
                for (acc, bases) in components {
                    g.msm_words_accumulate(acc, bases, &exps, buckets);
                }
            });
            for lane_buckets in buckets {
                scratch.put(lane_buckets);
            }
        }
        Ciphertext {
            c1: g.msm_accumulator_finish(acc1),
            c2: g.msm_accumulator_finish(acc2),
        }
    }

    /// Reference per-element inner product (square-and-multiply per
    /// scalar) — the differential oracle the MSM path is tested and
    /// benchmarked against. Same skip-zero-scalars semantics as
    /// [`Self::inner_product`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn inner_product_naive(cts: &[Ciphertext], scalars: &[F]) -> Ciphertext {
        assert_eq!(cts.len(), scalars.len(), "length mismatch");
        let g = Self::group();
        let mut acc = Ciphertext {
            c1: g.identity(),
            c2: g.identity(),
        };
        for (ct, s) in cts.iter().zip(scalars.iter()) {
            if s.is_zero() {
                continue;
            }
            let term = Self::scale(ct, *s);
            acc = Self::add(&acc, &term);
        }
        acc
    }

    /// The trivial encryption of zero (identity ciphertext).
    pub fn zero() -> Ciphertext {
        let g = Self::group();
        Ciphertext {
            c1: g.identity(),
            c2: g.identity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Field, F61};

    type Eg = ElGamal<F61>;

    fn setup() -> (KeyPair<F61>, ChaChaPrg) {
        let mut prg = ChaChaPrg::from_u64_seed(0xe16a);
        let kp = KeyPair::generate(&mut prg);
        (kp, prg)
    }

    #[test]
    fn decrypt_recovers_encoding() {
        let (kp, mut prg) = setup();
        for v in [0u64, 1, 42, 0xffff_ffff] {
            let m = F61::from_u64(v);
            let ct = Eg::encrypt(kp.public(), m, &mut prg);
            assert_eq!(Eg::decrypt_to_group(&kp, &ct), Eg::encode(m), "v={v}");
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let (kp, mut prg) = setup();
        let m = F61::from_u64(9);
        let a = Eg::encrypt(kp.public(), m, &mut prg);
        let b = Eg::encrypt(kp.public(), m, &mut prg);
        assert_ne!(a, b, "two encryptions of the same message must differ");
        assert_eq!(Eg::decrypt_to_group(&kp, &a), Eg::decrypt_to_group(&kp, &b));
    }

    #[test]
    fn additive_homomorphism() {
        let (kp, mut prg) = setup();
        let (m1, m2) = (F61::from_u64(100), F61::from_u64(23));
        let c1 = Eg::encrypt(kp.public(), m1, &mut prg);
        let c2 = Eg::encrypt(kp.public(), m2, &mut prg);
        let sum = Eg::add(&c1, &c2);
        assert_eq!(Eg::decrypt_to_group(&kp, &sum), Eg::encode(m1 + m2));
    }

    #[test]
    fn scalar_homomorphism() {
        let (kp, mut prg) = setup();
        let m = F61::from_u64(7);
        let c = F61::from_u64(6);
        let ct = Eg::encrypt(kp.public(), m, &mut prg);
        let scaled = Eg::scale(&ct, c);
        assert_eq!(Eg::decrypt_to_group(&kp, &scaled), Eg::encode(m * c));
    }

    #[test]
    fn scalar_homomorphism_wraps_with_field() {
        // Scaling by a "negative" field element must wrap exactly like
        // field arithmetic — this is where a mismatched group order would
        // break.
        let (kp, mut prg) = setup();
        let m = F61::from_u64(5);
        let c = -F61::from_u64(2);
        let ct = Eg::encrypt(kp.public(), m, &mut prg);
        let scaled = Eg::scale(&ct, c);
        assert_eq!(Eg::decrypt_to_group(&kp, &scaled), Eg::encode(m * c));
    }

    #[test]
    fn inner_product_homomorphism() {
        let (kp, mut prg) = setup();
        let r: Vec<F61> = (1..=6u64).map(|i| F61::from_u64(i * 1000 + 3)).collect();
        let u: Vec<F61> = (1..=6u64).map(|i| F61::from_u64(i * 7)).collect();
        let cts = Eg::encrypt_vec(kp.public(), &r, &mut prg);
        let ct = Eg::inner_product(&cts, &u);
        let expect: F61 = r.iter().zip(u.iter()).map(|(a, b)| *a * *b).sum();
        assert_eq!(Eg::decrypt_to_group(&kp, &ct), Eg::encode(expect));
    }

    #[test]
    fn inner_product_skips_zero_scalars() {
        let (kp, mut prg) = setup();
        let r = vec![F61::from_u64(11), F61::from_u64(22)];
        let u = vec![F61::ZERO, F61::from_u64(3)];
        let cts = Eg::encrypt_vec(kp.public(), &r, &mut prg);
        let ct = Eg::inner_product(&cts, &u);
        assert_eq!(Eg::decrypt_to_group(&kp, &ct), Eg::encode(F61::from_u64(66)));
    }

    #[test]
    fn chunked_inner_product_matches_naive_at_every_chunking() {
        // The commitment engine must yield the *same ciphertext* (not
        // just the same plaintext) as the per-element reference, for
        // every chunking: chunk 1, ragged tails, chunks that are
        // entirely zero-scalar, covering, and oversized up to
        // `usize::MAX` (which must not reserve what it names).
        let (kp, mut prg) = setup();
        let r: Vec<F61> = (1..=17u64).map(|i| F61::from_u64(i * 31 + 5)).collect();
        let mut u: Vec<F61> = (1..=17u64).map(|i| F61::from_u64(i * 13)).collect();
        u[3] = F61::ZERO;
        u[8] = F61::ZERO;
        u[9] = F61::ZERO;
        let cts = Eg::encrypt_vec(kp.public(), &r, &mut prg);
        let mut scratch = Scratch::new();
        let reference = Eg::inner_product_naive(&cts, &u);
        for chunk_len in [1usize, 3, 8, 17, 64, 1 << 40, usize::MAX] {
            let chunked = Eg::inner_product_chunked(&cts, &u, chunk_len, &mut scratch);
            assert_eq!(chunked, reference, "chunk_len={chunk_len}");
        }
        assert_eq!(Eg::inner_product_scratch(&cts, &u, &mut scratch), reference);
        // Empty input commits to the identity.
        assert_eq!(
            Eg::inner_product_chunked(&[], &[], 4, &mut scratch),
            Eg::zero()
        );
        assert_eq!(Eg::inner_product(&[], &[]), Eg::zero());
    }

    #[test]
    fn zero_ciphertext_decrypts_to_identity() {
        let (kp, _) = setup();
        assert_eq!(
            Eg::decrypt_to_group(&kp, &Eg::zero()),
            Eg::encode(F61::ZERO)
        );
    }

    #[test]
    fn encrypt_vec_matches_scalar_encrypt() {
        // The batch path must produce byte-identical ciphertexts to
        // per-element encryption on the same PRG state — below the
        // public-key table's break-even batch (25 on this group), where
        // hᵏ is square-and-multiply, exactly at it and above it.
        let (kp, _) = setup();
        let g = F61::group();
        assert_eq!(g.fixed_base_table_for(kp.public(), 24).num_windows(), 0);
        assert_eq!(g.fixed_base_table_for(kp.public(), 25).num_windows(), 8);
        for len in [0u64, 1, 5, 24, 25, 40] {
            let ms: Vec<F61> = (0..len).map(|i| F61::from_u64(i * i + 1)).collect();
            let mut p1 = ChaChaPrg::from_u64_seed(0x77);
            let mut p2 = ChaChaPrg::from_u64_seed(0x77);
            let batched = Eg::encrypt_vec(kp.public(), &ms, &mut p1);
            let serial: Vec<_> =
                ms.iter().map(|m| Eg::encrypt(kp.public(), *m, &mut p2)).collect();
            assert_eq!(batched, serial, "len={len}");
            assert_eq!(p1.next_u64(), p2.next_u64(), "len={len}: PRG positions diverged");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn inner_product_length_mismatch_panics() {
        let (kp, mut prg) = setup();
        let cts = Eg::encrypt_vec(kp.public(), &[F61::ONE], &mut prg);
        let _ = Eg::inner_product(&cts, &[]);
    }
}
