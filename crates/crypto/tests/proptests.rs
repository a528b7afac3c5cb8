//! Property-style tests for the multiprecision and group substrates,
//! driven by the workspace's shared deterministic generator
//! (`zaatar_field::testutil::SplitMix64` — the build must work offline,
//! so no external proptest dependency).

use zaatar_crypto::mp::{add_assign, geq, sub_assign, MontCtx};
use zaatar_crypto::{ChaChaPrg, ElGamal, HasGroup, KeyPair};
use zaatar_field::testutil::SplitMix64;
use zaatar_field::{Field, PrimeField, F128, F61};

/// The Mersenne prime 2^127 − 1 gives an exact u128 reference.
const P: u128 = (1 << 127) - 1;

fn u128_below(gen: &mut SplitMix64, bound: u128) -> u128 {
    let raw = (u128::from(gen.next_u64()) << 64) | u128::from(gen.next_u64());
    raw % bound
}

fn words(x: u128) -> Vec<u64> {
    vec![x as u64, (x >> 64) as u64]
}

/// Reference multiplication mod 2^127 − 1 via 256-bit folding.
fn mulmod(a: u128, b: u128) -> u128 {
    let (a0, a1) = (a & u64::MAX as u128, a >> 64);
    let (b0, b1) = (b & u64::MAX as u128, b >> 64);
    let ll = a0 * b0;
    let m1 = a0 * b1;
    let m2 = a1 * b0;
    let hh = a1 * b1;
    let s1 = ll.wrapping_add(m1 << 64);
    let c1 = u128::from(s1 < ll);
    let lo = s1.wrapping_add(m2 << 64);
    let c2 = u128::from(lo < s1);
    let hi = hh + (m1 >> 64) + (m2 >> 64) + c1 + c2;
    // value = hi·2^128 + lo; 2^127 ≡ 1 → 2^128 ≡ 2.
    ((lo & P) + (lo >> 127) + 2 * (hi % P)) % P
}

/// Montgomery multiplication matches the u128 reference.
#[test]
fn mont_mul_matches_reference() {
    let ctx = MontCtx::new(words(P));
    let mut g = SplitMix64::new(1);
    for _ in 0..64 {
        let a = u128_below(&mut g, P);
        let b = u128_below(&mut g, P);
        let (mut got, mut bm) = (words(a), words(b));
        ctx.to_mont(&mut got);
        ctx.to_mont(&mut bm);
        ctx.mont_mul_assign(&mut got, &bm);
        ctx.from_mont(&mut got);
        assert_eq!(got, words(mulmod(a, b)));
    }
}

/// Fermat's little theorem via modexp.
#[test]
fn fermat_holds() {
    let ctx = MontCtx::new(words(P));
    let exp = words(P - 1);
    let mut g = SplitMix64::new(2);
    for _ in 0..16 {
        let a = 1 + u128_below(&mut g, P - 1);
        assert_eq!(ctx.pow(&words(a), &exp), words(1));
    }
}

/// Exponent laws in the Schnorr group: g^(a+b) = g^a·g^b and
/// (g^a)^b = g^(a·b), with field arithmetic on exponents.
#[test]
fn group_exponent_laws() {
    let g = F61::group();
    let mut gen = SplitMix64::new(3);
    for _ in 0..32 {
        let (fa, fb): (F61, F61) = (gen.field(), gen.field());
        let ga = g.gen_pow(&fa.exponent_words());
        let gb = g.gen_pow(&fb.exponent_words());
        assert_eq!(g.mul(&ga, &gb), g.gen_pow(&(fa + fb).exponent_words()));
        assert_eq!(
            g.pow(&ga, &fb.exponent_words()),
            g.gen_pow(&(fa * fb).exponent_words())
        );
    }
}

/// Fixed-base windowed exponentiation agrees with naive
/// square-and-multiply on random exponents, for both the generator's
/// interned table and a freshly built table over a random base.
#[test]
fn fixed_base_matches_naive_on_random_exponents() {
    let g = F61::group();
    let gen_table = g.generator_table();
    let mut gen = SplitMix64::new(7);
    for _ in 0..48 {
        let e = gen.field::<F61>().to_canonical_words();
        assert_eq!(g.pow_fixed(gen_table, &e), g.pow(&g.generator(), &e));
    }
    let base = g.gen_pow(&[gen.next_u64()]);
    let table = g.fixed_base_table(&base);
    for _ in 0..24 {
        let e = gen.field::<F61>().to_canonical_words();
        assert_eq!(g.pow_fixed(&table, &e), g.pow(&base, &e));
    }
}

/// Fixed-base edge exponents: 0, 1, and order − 1 (the empty-window,
/// single-window, and every-window-saturated cases).
#[test]
fn fixed_base_edge_exponents() {
    let g = F61::group();
    let mut gen = SplitMix64::new(8);
    for _ in 0..4 {
        let base = g.gen_pow(&[gen.next_u64() | 1]);
        let table = g.fixed_base_table(&base);
        assert_eq!(g.pow_fixed(&table, &[0]), g.identity());
        assert_eq!(g.pow_fixed(&table, &[1]), base);
        let mut order_m1 = g.order().to_vec();
        order_m1[0] -= 1; // The order is an odd prime: no borrow.
        assert_eq!(g.pow_fixed(&table, &order_m1), g.pow(&base, &order_m1));
        // order − 1 is −1 in the exponent group, so multiplying by the
        // base lands back on the identity.
        assert_eq!(g.mul(&g.pow_fixed(&table, &order_m1), &base), g.identity());
    }
}

/// Exponents wider than the table's coverage take the fallback path
/// and still agree with the generic routine.
#[test]
fn fixed_base_oversized_exponents_fall_back() {
    let g = F61::group();
    let table = g.generator_table();
    let mut gen = SplitMix64::new(9);
    for extra in 1..4usize {
        let e: Vec<u64> = (0..(table.capacity_bits() / 64 + extra))
            .map(|_| gen.next_u64() | 1)
            .collect();
        assert_eq!(g.pow_fixed(table, &e), g.pow(&g.generator(), &e));
    }
}

/// ElGamal: Dec(Enc(m)) = g^m and the homomorphisms hold for random
/// messages and scalars.
#[test]
fn elgamal_homomorphisms() {
    let mut gen = SplitMix64::new(4);
    for _ in 0..24 {
        let mut prg = ChaChaPrg::from_u64_seed(gen.next_u64());
        let kp = KeyPair::<F61>::generate(&mut prg);
        let m1: F61 = gen.field();
        let m2: F61 = gen.field();
        let c: F61 = gen.field();
        let ct1 = ElGamal::<F61>::encrypt(kp.public(), m1, &mut prg);
        let ct2 = ElGamal::<F61>::encrypt(kp.public(), m2, &mut prg);
        assert_eq!(
            ElGamal::<F61>::decrypt_to_group(&kp, &ct1),
            ElGamal::<F61>::encode(m1)
        );
        let sum = ElGamal::<F61>::add(&ct1, &ct2);
        assert_eq!(
            ElGamal::<F61>::decrypt_to_group(&kp, &sum),
            ElGamal::<F61>::encode(m1 + m2)
        );
        let scaled = ElGamal::<F61>::scale(&ct1, c);
        assert_eq!(
            ElGamal::<F61>::decrypt_to_group(&kp, &scaled),
            ElGamal::<F61>::encode(m1 * c)
        );
    }
}

/// ElGamal vector encryption (the fixed-base batch path) round-trips
/// element-wise and preserves the inner-product homomorphism the
/// commitment protocol relies on.
#[test]
fn elgamal_vector_round_trip_and_inner_product() {
    let mut gen = SplitMix64::new(10);
    for trial in 0..8 {
        let mut prg = ChaChaPrg::from_u64_seed(gen.next_u64());
        let kp = KeyPair::<F61>::generate(&mut prg);
        // Lengths straddle the fixed-base batching threshold.
        let n = 1 + (trial % 8);
        let r: Vec<F61> = gen.field_vec(n);
        let u: Vec<F61> = gen.field_vec(n);
        let cts = ElGamal::<F61>::encrypt_vec(kp.public(), &r, &mut prg);
        for (ct, m) in cts.iter().zip(&r) {
            assert_eq!(
                ElGamal::<F61>::decrypt_to_group(&kp, ct),
                ElGamal::<F61>::encode(*m)
            );
        }
        let ip = ElGamal::<F61>::inner_product(&cts, &u);
        let expect: F61 = r.iter().zip(&u).map(|(a, b)| *a * *b).sum();
        assert_eq!(
            ElGamal::<F61>::decrypt_to_group(&kp, &ip),
            ElGamal::<F61>::encode(expect)
        );
    }
}

/// `a·b mod m` by binary double-and-add over the plain add/sub helpers
/// — a reference that shares nothing with the Montgomery kernel.
fn mulmod_double_and_add(a: &[u64], b: &[u64], m: &[u64]) -> Vec<u64> {
    let mut acc = vec![0u64; m.len()];
    let add_mod = |acc: &mut Vec<u64>, x: &[u64]| {
        if add_assign(acc, x) == 1 || geq(acc, m) {
            sub_assign(acc, m);
        }
    };
    for i in (0..64 * b.len()).rev() {
        let doubled = acc.clone();
        add_mod(&mut acc, &doubled);
        if (b[i / 64] >> (i % 64)) & 1 == 1 {
            add_mod(&mut acc, a);
        }
    }
    acc
}

/// The in-place kernel — `mont_mul_assign`, and `mont_sqr_assign` which
/// feeds it one operand twice — agrees with double-and-add modular
/// multiplication on every input. Runs at the 2-word test prime, the
/// test group's 4-word width and the full 16-word (1024-bit) width the
/// kernel specialises, across seeds, random residues and edge values
/// (0, 1, m − 1, saturated low words).
#[test]
fn mont_mul_assign_matches_double_and_add_across_widths() {
    // Any odd modulus is a valid Montgomery modulus, so deterministic
    // pseudorandom odd moduli exercise the wide paths as well as primes
    // would.
    let mut mgen = SplitMix64::new(0x5a5a);
    let mut odd_modulus = |n: usize| {
        let mut m: Vec<u64> = (0..n).map(|_| mgen.next_u64()).collect();
        m[0] |= 1; // odd
        m[n - 1] |= 1 << 63; // full width
        m
    };
    let widths: Vec<(&str, Vec<u64>)> = vec![
        ("test-prime-127", words(P)),
        ("mid-256", odd_modulus(4)),
        ("wide-1024", odd_modulus(16)),
    ];
    for (name, modulus) in widths {
        let ctx = MontCtx::new(modulus.clone());
        let n = modulus.len();
        let mut edge_max = modulus.clone();
        edge_max[0] -= 1; // m − 1 (m is odd: no borrow)
        let mut one = vec![0u64; n];
        one[0] = 1;
        let mut cases: Vec<Vec<u64>> = vec![vec![0u64; n], one, edge_max];
        for seed in [11u64, 12, 13] {
            let mut g = SplitMix64::new(seed);
            for _ in 0..8 {
                // Top word quartered keeps the draw below every modulus
                // here (top bit set, or 2^127 − 1).
                let mut a: Vec<u64> = (0..n).map(|_| g.next_u64()).collect();
                a[n - 1] >>= 2;
                cases.push(a);
            }
        }
        // Saturated low words, small top word: maximal carry traffic.
        let mut sat = vec![u64::MAX; n];
        sat[n - 1] = 1;
        cases.push(sat);
        for (i, a) in cases.iter().enumerate() {
            let b = &cases[(i + 5) % cases.len()];
            let (mut am, mut bm) = (a.clone(), b.clone());
            ctx.to_mont(&mut am);
            ctx.to_mont(&mut bm);
            let mut product = am.clone();
            ctx.mont_mul_assign(&mut product, &bm);
            ctx.from_mont(&mut product);
            assert_eq!(product, mulmod_double_and_add(a, b, &modulus), "width={name} case={i}");
            ctx.mont_sqr_assign(&mut am);
            ctx.from_mont(&mut am);
            assert_eq!(am, mulmod_double_and_add(a, a, &modulus), "width={name} square {i}");
        }
    }
}

/// The pure `(m, k) → ciphertext` function equals `ElGamal::encrypt`
/// element-for-element on the same `k`s — on the 256-bit test group and
/// the 1024-bit production group, below and above the public-key
/// table's break-even batch — and evaluating disjoint ranges and
/// concatenating (what a sharded keygen does) changes nothing.
#[test]
fn encrypt_with_matches_scalar_encrypt_on_both_groups() {
    fn check<F: HasGroup>(seed: u64) {
        let mut gen = SplitMix64::new(seed);
        let mut prg = ChaChaPrg::from_u64_seed(gen.next_u64());
        let kp = KeyPair::<F>::generate(&mut prg);
        for n in [0usize, 1, 7, 29] {
            let ms: Vec<F> = gen.field_vec(n);
            // The `k`s `encrypt` is about to draw, in its order.
            let ks: Vec<F> = prg.clone().field_vec(n);
            let table = F::group().fixed_base_table_for(kp.public(), n);
            assert_eq!(table.num_windows() > 0, n == 29, "break-even sits between 7 and 29");
            let pure = ElGamal::<F>::encrypt_with(&table, &ms, &ks);
            let serial: Vec<_> =
                ms.iter().map(|m| ElGamal::<F>::encrypt(kp.public(), *m, &mut prg)).collect();
            assert_eq!(pure, serial, "n={n}");
            let cut = n / 3;
            let mut sharded = ElGamal::<F>::encrypt_with(&table, &ms[..cut], &ks[..cut]);
            sharded.extend(ElGamal::<F>::encrypt_with(&table, &ms[cut..], &ks[cut..]));
            assert_eq!(sharded, pure, "n={n}");
        }
    }
    check::<F61>(0x7001);
    check::<F128>(0x7002);
}

/// The bucket MSM agrees with the per-element reference inner product
/// at both group widths (256-bit F61-paired, 1024-bit F128-paired),
/// across seeds and the window-boundary lengths {0, 1, 2, 255, 256,
/// 257}, with adversarial shapes mixed in: zero scalars, duplicate
/// bases, and max-word (above-the-order) exponents.
#[test]
fn msm_matches_reference_across_widths_and_lengths() {
    fn check<F: HasGroup>(seed: u64, lens: &[usize]) {
        let g = F::group();
        let mut gen = SplitMix64::new(seed);
        for &n in lens {
            let mut bases: Vec<zaatar_crypto::GroupElem> = Vec::with_capacity(n);
            let mut scalars: Vec<Vec<u64>> = Vec::with_capacity(n);
            for i in 0..n {
                // Small exponents keep base construction cheap; every
                // fourth base duplicates its predecessor.
                if i % 4 == 3 {
                    bases.push(bases[i - 1].clone());
                } else {
                    bases.push(g.gen_pow(&[gen.next_u64() >> 32]));
                }
                scalars.push(match i % 5 {
                    // Zero scalars (both narrow and full-width zeros).
                    0 => vec![0],
                    1 => vec![0, 0],
                    // Max-word exponent: above the subgroup order.
                    2 => vec![u64::MAX, u64::MAX],
                    _ => vec![gen.next_u64(), gen.next_u64() >> 8],
                });
            }
            let refs: Vec<&[u64]> = scalars.iter().map(|s| s.as_slice()).collect();
            let got = g.msm(&bases, &refs);
            let mut expect = g.identity();
            for (b, s) in bases.iter().zip(refs.iter()) {
                expect = g.mul(&expect, &g.pow(b, s));
            }
            assert_eq!(got, expect, "seed={seed} n={n}");
        }
    }
    // Narrow group: every window-boundary length, several seeds.
    for seed in [21u64, 22, 23] {
        check::<F61>(seed, &[0, 1, 2, 255, 256, 257]);
    }
    // Wide (1024-bit) group: the same boundaries, one seed (the naive
    // reference is ~100× costlier per element here).
    check::<zaatar_field::F128>(31, &[0, 1, 2, 255, 256, 257]);
}

/// The MSM-backed `inner_product` agrees with the retained naive path
/// on the ciphertexts the commitment actually feeds it, including zero
/// scalars and both sides of the window-width schedule.
#[test]
fn elgamal_inner_product_matches_naive() {
    let mut gen = SplitMix64::new(0x1234);
    for &n in &[0usize, 1, 2, 17, 64] {
        let mut prg = ChaChaPrg::from_u64_seed(gen.next_u64());
        let kp = KeyPair::<F61>::generate(&mut prg);
        let r: Vec<F61> = gen.field_vec(n);
        let mut u: Vec<F61> = gen.field_vec(n);
        for i in (0..n).step_by(3) {
            u[i] = F61::ZERO;
        }
        let cts = ElGamal::<F61>::encrypt_vec(kp.public(), &r, &mut prg);
        assert_eq!(
            ElGamal::<F61>::inner_product(&cts, &u),
            ElGamal::<F61>::inner_product_naive(&cts, &u),
            "n={n}"
        );
    }
}

/// Group element serialization round-trips.
#[test]
fn group_serialization_round_trips() {
    let g = F61::group();
    let mut gen = SplitMix64::new(5);
    for _ in 0..64 {
        let x = g.gen_pow(&[gen.next_u64()]);
        let bytes = g.elem_to_bytes(&x);
        assert_eq!(bytes.len(), g.elem_bytes());
        assert_eq!(g.elem_from_bytes(&bytes), Some(x));
    }
    // The zero residue is not a group element, on either group width;
    // the identity (the residue 1) is.
    for g in [F61::group(), F128::group()] {
        assert_eq!(g.elem_from_bytes(&vec![0; g.elem_bytes()]), None);
        let one = g.elem_to_bytes(&g.identity());
        assert_eq!(g.elem_from_bytes(&one), Some(g.identity()));
    }
}

/// ChaCha stream determinism.
#[test]
fn chacha_determinism() {
    let mut gen = SplitMix64::new(6);
    for _ in 0..32 {
        let seed = gen.next_u64();
        let n = 1 + (gen.next_u64() as usize % 63);
        let mut a = ChaChaPrg::from_u64_seed(seed);
        let mut b = ChaChaPrg::from_u64_seed(seed);
        let xs: Vec<u64> = (0..n).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..n).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }
}
