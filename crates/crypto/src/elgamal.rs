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

/// Minimum vector length at which [`ElGamal::encrypt_vec`] builds a
/// per-public-key fixed-base table. Building costs ~15 multiplications
/// per 4-bit window while each use saves ~1.5 bits-worth of them, so the
/// table pays for itself within a handful of encryptions.
const FIXED_BASE_MIN_BATCH: usize = 4;

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
        Self::encrypt_inner(pk, None, m, prg)
    }

    fn encrypt_inner(
        pk: &GroupElem,
        pk_table: Option<&FixedBaseTable>,
        m: F,
        prg: &mut ChaChaPrg,
    ) -> Ciphertext {
        let g = Self::group();
        let k: F = prg.field_element();
        let c1 = g.gen_pow(&k.exponent_words());
        let gm = g.gen_pow(&m.exponent_words());
        let hk = match pk_table {
            Some(table) => g.pow_fixed(table, &k.exponent_words()),
            None => g.pow(pk, &k.exponent_words()),
        };
        Ciphertext {
            c1,
            c2: g.mul(&gm, &hk),
        }
    }

    /// Encrypts a whole vector (the commitment's `Enc(r)` step). For
    /// batches of [`FIXED_BASE_MIN_BATCH`] or more the public key gets
    /// its own fixed-base window table, amortized across the vector.
    /// Randomness consumption is identical either way, so ciphertexts
    /// match [`Self::encrypt`] element-for-element on the same PRG state.
    pub fn encrypt_vec(pk: &GroupElem, ms: &[F], prg: &mut ChaChaPrg) -> Vec<Ciphertext> {
        if ms.len() >= FIXED_BASE_MIN_BATCH {
            let table = Self::group().fixed_base_table(pk);
            ms.iter()
                .map(|m| Self::encrypt_inner(pk, Some(&table), *m, prg))
                .collect()
        } else {
            ms.iter().map(|m| Self::encrypt(pk, *m, prg)).collect()
        }
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

    /// The commitment engine: consumes the scalar vector `chunk_len`
    /// entries at a time (any length ≥ the vector's is one covering
    /// chunk). Each chunk's surviving (nonzero-scalar) pairs run through
    /// the Pippenger bucket MSM once per ciphertext component, leasing
    /// the bucket accumulators from `scratch`, and the per-chunk products
    /// fold together via [`MsmAccumulator`]. The group product over
    /// ordered chunks equals the one-shot product, so the ciphertext is
    /// **equal** (byte-identical once serialized) at every chunk length
    /// — while peak transient memory is bounded by the chunk: the
    /// gathered word-slice vectors and the bucket buffer are chunk-sized.
    /// A zero-length oracle commits to the identity ciphertext
    /// ([`Self::zero`]), never a panic.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `chunk_len == 0`.
    pub fn inner_product_chunked(
        cts: &[Ciphertext],
        scalars: &[F],
        chunk_len: usize,
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
        let mut exps: Vec<Vec<u64>> = Vec::with_capacity(reserve);
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
                exps.push(s.exponent_words());
            }
            let exp_refs: Vec<&[u64]> = exps.iter().map(|e| e.as_slice()).collect();
            g.msm_words_accumulate(&mut acc1, &c1s, &exp_refs, scratch);
            g.msm_words_accumulate(&mut acc2, &c2s, &exp_refs, scratch);
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
        // The fixed-base batch path must produce byte-identical
        // ciphertexts to per-element encryption on the same PRG state.
        let (kp, _) = setup();
        let ms: Vec<F61> = (0..9u64).map(|i| F61::from_u64(i * i + 1)).collect();
        let mut p1 = ChaChaPrg::from_u64_seed(0x77);
        let mut p2 = ChaChaPrg::from_u64_seed(0x77);
        let batched = Eg::encrypt_vec(kp.public(), &ms, &mut p1);
        let serial: Vec<_> = ms.iter().map(|m| Eg::encrypt(kp.public(), *m, &mut p2)).collect();
        assert_eq!(batched, serial);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn inner_product_length_mismatch_panics() {
        let (kp, mut prg) = setup();
        let cts = Eg::encrypt_vec(kp.public(), &[F61::ONE], &mut prg);
        let _ = Eg::inner_product(&cts, &[]);
    }
}
