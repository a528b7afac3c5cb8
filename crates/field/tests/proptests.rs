//! Property-style tests of the field axioms across all three shipped
//! fields, driven by a small in-tree deterministic generator (the build
//! must work offline, so no external proptest dependency).

use zaatar_field::{Field, PrimeField, F128, F220, F61};

/// Deterministic splitmix64 generator standing in for proptest.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn field<F: Field>(&mut self) -> F {
        F::random_from(|| self.next_u64())
    }
}

const CASES: usize = 256;

/// The oracle of the deferred-reduction kernel: one full Montgomery
/// multiply and one modular add per term.
fn naive_dot<F: Field>(a: &[F], b: &[F]) -> F {
    assert_eq!(a.len(), b.len());
    let mut s = F::ZERO;
    for (x, y) in a.iter().zip(b) {
        s += *x * *y;
    }
    s
}

/// [`naive_dot`]'s transpose: `out[j] += Σᵢ coeffs[i]·rows[i][j]`.
fn naive_add_scaled_rows<F: Field>(out: &mut [F], coeffs: &[F], rows: &[&[F]]) {
    assert_eq!(coeffs.len(), rows.len());
    for (c, row) in coeffs.iter().zip(rows) {
        for (slot, x) in out.iter_mut().zip(row.iter()) {
            *slot += *c * *x;
        }
    }
}

/// Term counts around the prover's 256-column reduction interval, plus
/// one past 2¹⁶ — enough all-`p − 1` products to carry into the
/// accumulator's spare limb on `F61` and `F128`.
const DOT_LENGTHS: [usize; 6] = [0, 1, 255, 256, 257, (1 << 16) + 1];

macro_rules! field_axioms {
    ($modname:ident, $F:ty) => {
        mod $modname {
            use super::*;

            #[test]
            fn add_and_mul_commute() {
                let mut g = Gen::new(1);
                for _ in 0..CASES {
                    let (a, b): ($F, $F) = (g.field(), g.field());
                    assert_eq!(a + b, b + a);
                    assert_eq!(a * b, b * a);
                }
            }

            #[test]
            fn add_and_mul_associate() {
                let mut g = Gen::new(2);
                for _ in 0..CASES {
                    let (a, b, c): ($F, $F, $F) = (g.field(), g.field(), g.field());
                    assert_eq!((a + b) + c, a + (b + c));
                    assert_eq!((a * b) * c, a * (b * c));
                }
            }

            #[test]
            fn mul_distributes() {
                let mut g = Gen::new(3);
                for _ in 0..CASES {
                    let (a, b, c): ($F, $F, $F) = (g.field(), g.field(), g.field());
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }

            #[test]
            fn sub_is_add_neg() {
                let mut g = Gen::new(4);
                for _ in 0..CASES {
                    let (a, b): ($F, $F) = (g.field(), g.field());
                    assert_eq!(a - b, a + (-b));
                }
            }

            #[test]
            fn double_and_square() {
                let mut g = Gen::new(5);
                for _ in 0..CASES {
                    let a: $F = g.field();
                    assert_eq!(a.double(), a + a);
                    assert_eq!(a.square(), a * a);
                }
            }

            #[test]
            fn inverse_cancels() {
                let mut g = Gen::new(6);
                for _ in 0..CASES {
                    let a: $F = g.field();
                    if let Some(inv) = a.inverse() {
                        assert_eq!(a * inv, <$F>::ONE);
                    } else {
                        assert!(a.is_zero());
                    }
                }
            }

            #[test]
            fn pow_adds_exponents() {
                let mut g = Gen::new(7);
                for _ in 0..CASES {
                    let a: $F = g.field();
                    let e1 = g.range_u64(0, 64);
                    let e2 = g.range_u64(0, 64);
                    assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
                }
            }

            #[test]
            fn serialization_round_trips() {
                let mut g = Gen::new(8);
                for _ in 0..CASES {
                    let a: $F = g.field();
                    let bytes = a.to_bytes_le();
                    assert_eq!(<$F>::from_bytes_le(&bytes), Some(a));
                    let words = a.to_canonical_words();
                    assert_eq!(<$F>::from_canonical_words(&words), Some(a));
                }
            }

            /// Montgomery form round-trips exactly at the representation
            /// edges — 0, 1, p−1 — and for random limb patterns: the NTT
            /// kernels lean on `to/from_canonical_words` agreeing with
            /// the arithmetic everywhere, not just in the bulk.
            #[test]
            fn montgomery_round_trips_at_edges() {
                let p_minus_1 = {
                    let mut w = <$F>::modulus_words();
                    w[0] -= 1; // modulus is odd, no borrow
                    w
                };
                // 0 and 1 in canonical words.
                let zero = <$F>::from_canonical_words(&vec![0; p_minus_1.len()])
                    .expect("zero is canonical");
                assert!(zero.is_zero());
                assert_eq!(zero, <$F>::ZERO);
                let mut one_words = vec![0; p_minus_1.len()];
                one_words[0] = 1;
                let one = <$F>::from_canonical_words(&one_words).expect("one is canonical");
                assert_eq!(one, <$F>::ONE);
                // p−1 ≡ −1: round-trips and behaves like −1 arithmetically.
                let top = <$F>::from_canonical_words(&p_minus_1).expect("p-1 is canonical");
                assert_eq!(top.to_canonical_words(), p_minus_1);
                assert_eq!(top, -<$F>::ONE);
                assert_eq!(top + <$F>::ONE, <$F>::ZERO);
                assert_eq!(top * top, <$F>::ONE);
                // The modulus itself is not canonical.
                assert_eq!(<$F>::from_canonical_words(&<$F>::modulus_words()), None);
                // Random limb patterns: reject or round-trip, never mangle.
                let mut g = Gen::new(11);
                for _ in 0..CASES {
                    let words: Vec<u64> =
                        (0..p_minus_1.len()).map(|_| g.next_u64()).collect();
                    if let Some(x) = <$F>::from_canonical_words(&words) {
                        assert_eq!(x.to_canonical_words(), words);
                    }
                }
                // Elements from the arithmetic side round-trip too.
                for _ in 0..CASES {
                    let a: $F = g.field();
                    let words = a.to_canonical_words();
                    assert_eq!(<$F>::from_canonical_words(&words), Some(a));
                }
            }

            /// `dot` defers the reduction, the naive loop reduces every
            /// term; both must name the same element — on random
            /// operands at every length, and on slices that start one
            /// element into their allocation.
            #[test]
            fn dot_matches_naive_loop() {
                let mut g = Gen::new(13);
                for len in DOT_LENGTHS.into_iter().chain([2, 3, 17, 1000]) {
                    let a: Vec<$F> = (0..len + 1).map(|_| g.field()).collect();
                    let b: Vec<$F> = (0..len + 1).map(|_| g.field()).collect();
                    assert_eq!(
                        <$F>::dot(&a[..len], &b[..len]),
                        naive_dot(&a[..len], &b[..len])
                    );
                    assert_eq!(<$F>::dot(&a[1..], &b[..len]), naive_dot(&a[1..], &b[..len]));
                    assert_eq!(<$F>::dot(&a[..len], &b[1..]), naive_dot(&a[..len], &b[1..]));
                }
            }

            /// All-`p − 1` operands make every product, and so the wide
            /// sum, as large as it can be: `(p − 1)² = 1`, so `n` terms
            /// must reduce to `n`.
            #[test]
            fn dot_of_largest_operands() {
                let top = -<$F>::ONE;
                for len in DOT_LENGTHS {
                    let v = vec![top; len];
                    let sum = <$F>::dot(&v, &v);
                    assert_eq!(sum, <$F>::from_u64(len as u64), "len={len}");
                    assert_eq!(sum, naive_dot(&v, &v), "len={len}");
                }
            }

            /// The transposed kernel against its naive loop: random rows
            /// and coefficients, column counts that leave a ragged last
            /// block, `out` starting non-zero and one element into its
            /// allocation, and row counts through the same term counts
            /// as `dot` with all-`p − 1` operands.
            #[test]
            fn add_scaled_rows_matches_naive_loop() {
                let mut g = Gen::new(14);
                for (n_rows, cols) in [(0, 5), (1, 1), (3, 0), (7, 8), (40, 29), (257, 33)] {
                    let rows: Vec<Vec<$F>> = (0..n_rows)
                        .map(|_| (0..cols).map(|_| g.field()).collect())
                        .collect();
                    let refs: Vec<&[$F]> = rows.iter().map(|r| r.as_slice()).collect();
                    let coeffs: Vec<$F> = (0..n_rows).map(|_| g.field()).collect();
                    let mut out: Vec<$F> = (0..cols + 1).map(|_| g.field()).collect();
                    let mut expect = out.clone();
                    <$F>::add_scaled_rows(&mut out[1..], &coeffs, &refs);
                    naive_add_scaled_rows(&mut expect[1..], &coeffs, &refs);
                    assert_eq!(out, expect, "{n_rows}x{cols}");
                }
                let top = -<$F>::ONE;
                let row = vec![top; 11];
                for n_rows in DOT_LENGTHS {
                    let refs = vec![row.as_slice(); n_rows];
                    let coeffs = vec![top; n_rows];
                    let mut out = vec![top; row.len()];
                    <$F>::add_scaled_rows(&mut out, &coeffs, &refs);
                    let mut expect = vec![top; row.len()];
                    naive_add_scaled_rows(&mut expect, &coeffs, &refs);
                    assert_eq!(out, expect, "rows={n_rows}");
                    assert_eq!(out[0], <$F>::from_u64(n_rows as u64) - <$F>::ONE);
                }
            }

            /// `batch_inverse` must match per-element inversion with
            /// zeros scattered anywhere in the batch (Montgomery's trick
            /// multiplies prefixes, so an unskipped zero would poison
            /// every later element).
            #[test]
            fn batch_inverse_with_zeros() {
                use zaatar_field::batch_inverse;
                let mut g = Gen::new(12);
                // Adversarial fixed shapes: zeros at both ends, runs of
                // zeros, alternating, singleton and all-zero batches.
                let n = 17;
                let mut shapes: Vec<Vec<bool>> = vec![
                    vec![false; n],
                    vec![true; n],
                    (0..n).map(|i| i == 0).collect(),
                    (0..n).map(|i| i == n - 1).collect(),
                    (0..n).map(|i| i % 2 == 0).collect(),
                    (0..n).map(|i| i < n / 2).collect(),
                    vec![true],
                    vec![false],
                ];
                // Plus random masks over random lengths.
                for _ in 0..32 {
                    let len = g.range_u64(0, 40) as usize;
                    shapes.push((0..len).map(|_| g.next_u64() % 3 == 0).collect());
                }
                for mask in shapes {
                    let vals: Vec<$F> = mask
                        .iter()
                        .map(|z| {
                            if *z {
                                <$F>::ZERO
                            } else {
                                // random_from may return 0; force nonzero
                                // so the mask fully controls zero layout.
                                let x: $F = g.field();
                                if x.is_zero() {
                                    <$F>::ONE
                                } else {
                                    x
                                }
                            }
                        })
                        .collect();
                    let mut batched = vals.clone();
                    batch_inverse(&mut batched);
                    for (i, (orig, inv)) in vals.iter().zip(batched.iter()).enumerate() {
                        if orig.is_zero() {
                            assert!(inv.is_zero(), "zero slot {i} must stay zero");
                        } else {
                            assert_eq!(
                                *inv,
                                orig.inverse().expect("nonzero"),
                                "slot {i} disagrees with scalar inversion"
                            );
                        }
                    }
                }
            }
        }
    };
}

field_axioms!(f61, F61);
field_axioms!(f128, F128);
field_axioms!(f220, F220);

mod f61_reference {
    use super::*;

    const P61: u128 = 0x1ffffff900000001;

    /// The generic Montgomery pipeline agrees with plain u128 arithmetic
    /// on the single-limb field for all of (+, −, ×).
    #[test]
    fn agrees_with_u128() {
        let mut g = Gen::new(9);
        for _ in 0..CASES {
            let a = u128::from(g.next_u64()) % P61;
            let b = u128::from(g.next_u64()) % P61;
            let (fa, fb) = (F61::from_u128(a), F61::from_u128(b));
            assert_eq!(fa + fb, F61::from_u128((a + b) % P61));
            assert_eq!(fa - fb, F61::from_u128((a + P61 - b) % P61));
            assert_eq!(fa * fb, F61::from_u128(a * b % P61));
        }
    }

    #[test]
    fn from_u64_reduces() {
        let mut g = Gen::new(10);
        for _ in 0..CASES {
            let x = g.next_u64();
            assert_eq!(F61::from_u64(x), F61::from_u128(u128::from(x) % P61));
        }
        // Boundary values.
        for x in [0, 1, u64::MAX, P61 as u64, P61 as u64 - 1] {
            assert_eq!(F61::from_u64(x), F61::from_u128(u128::from(x) % P61));
        }
    }
}
