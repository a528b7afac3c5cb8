//! Schnorr groups: prime-order subgroups of `Z_p*` matched to each PCP
//! field.
//!
//! The linear commitment's consistency check compares field-side linear
//! combinations with exponent-side homomorphic combinations, so the
//! subgroup order **must equal the field modulus** — otherwise exponent
//! arithmetic (mod the group order) and field arithmetic (mod `p_F`)
//! disagree and the check breaks. Each group below was generated as
//! `p = 2·k·q + 1` with `q` the corresponding field modulus (1024-bit `p`
//! for the production fields, matching the paper's "ElGamal with 1024-bit
//! keys", §5.1; 256-bit for the test field) and a generator
//! `g = h^((p−1)/q)` of order exactly `q`.

use std::sync::OnceLock;

use zaatar_field::{PrimeField, F128, F220, F61};
use zaatar_mem::{Interner, Scratch};

use crate::mp::{geq, is_zero, MontCtx, MAX_WIDTH};

/// An element of a [`SchnorrGroup`], stored inline in Montgomery form at
/// the group's width — a value, not an allocation, so the kernels keep
/// their running products on the stack. Elements are only meaningful
/// relative to the group that produced them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupElem {
    /// Only the first `width` words are meaningful; the rest stay zero,
    /// so the derived equality is equality of residues.
    mont: [u64; MAX_WIDTH],
    width: usize,
}

impl GroupElem {
    /// Raw Montgomery words (used for serialization and hashing).
    pub fn words(&self) -> &[u64] {
        &self.mont[..self.width]
    }

    fn words_mut(&mut self) -> &mut [u64] {
        &mut self.mont[..self.width]
    }

    fn from_words(words: &[u64]) -> Self {
        let mut mont = [0u64; MAX_WIDTH];
        mont[..words.len()].copy_from_slice(words);
        GroupElem { mont, width: words.len() }
    }
}

impl SchnorrGroup {
    /// Serializes an element to canonical little-endian bytes
    /// (`8 × width` bytes).
    pub fn elem_to_bytes(&self, e: &GroupElem) -> Vec<u8> {
        let mut canonical = e.clone();
        self.ctx.from_mont(canonical.words_mut());
        let mut bytes = Vec::with_capacity(self.elem_bytes());
        for w in canonical.words() {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    /// Deserializes an element from canonical little-endian bytes;
    /// `None` on wrong length, an unreduced value, or the zero residue —
    /// zero is not in `Z_p*`, and the MSM buckets use it as their empty
    /// sentinel. (Subgroup membership is not checked: that would cost a
    /// full exponentiation per element.)
    pub fn elem_from_bytes(&self, bytes: &[u8]) -> Option<GroupElem> {
        if bytes.len() != self.elem_bytes() {
            return None;
        }
        let mut e = GroupElem { mont: [0u64; MAX_WIDTH], width: self.ctx.width() };
        for (w, c) in e.words_mut().iter_mut().zip(bytes.chunks_exact(8)) {
            *w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        }
        if is_zero(e.words()) || geq(e.words(), self.ctx.modulus()) {
            return None;
        }
        self.ctx.to_mont(e.words_mut());
        Some(e)
    }

    /// Serialized element size in bytes.
    pub fn elem_bytes(&self) -> usize {
        8 * self.ctx.width()
    }
}

/// A prime-order subgroup of `Z_p*` with order equal to a PCP field
/// modulus.
#[derive(Clone, Debug)]
pub struct SchnorrGroup {
    ctx: MontCtx,
    generator: GroupElem,
    order: Vec<u64>,
}

impl SchnorrGroup {
    /// Builds a group from its modulus, generator, and subgroup order
    /// (all canonical little-endian words).
    ///
    /// # Panics
    ///
    /// Panics if the generator is not of the claimed order (checked via
    /// `g^q == 1` and `g != 1`).
    pub fn new(modulus: Vec<u64>, generator: Vec<u64>, order: Vec<u64>) -> Self {
        let ctx = MontCtx::new(modulus);
        let mut generator = GroupElem::from_words(&generator);
        ctx.to_mont(generator.words_mut());
        let group = SchnorrGroup { generator, order, ctx };
        assert!(
            group.generator != group.identity(),
            "generator must not be the identity"
        );
        assert!(
            group.pow(&group.generator, &group.order) == group.identity(),
            "generator order does not divide the subgroup order"
        );
        group
    }

    /// The group generator `g`.
    pub fn generator(&self) -> GroupElem {
        self.generator.clone()
    }

    /// The identity element.
    pub fn identity(&self) -> GroupElem {
        GroupElem::from_words(self.ctx.one())
    }

    /// The subgroup order (equal to the paired field's modulus).
    pub fn order(&self) -> &[u64] {
        &self.order
    }

    /// The modulus, as canonical little-endian words.
    pub fn modulus_words(&self) -> Vec<u64> {
        self.ctx.modulus().to_vec()
    }

    /// Modulus bit width (e.g. 1024 for production groups).
    pub fn modulus_bits(&self) -> u32 {
        let m = self.ctx.modulus();
        let top = *m.last().expect("non-empty modulus");
        (m.len() as u32) * 64 - top.leading_zeros()
    }

    /// Group operation: `a · b mod p`.
    pub fn mul(&self, a: &GroupElem, b: &GroupElem) -> GroupElem {
        let mut out = a.clone();
        self.ctx.mont_mul_assign(out.words_mut(), b.words());
        out
    }

    /// `acc ← acc · x` for raw Montgomery words `x`, where `None` is the
    /// identity not yet materialised — so empty leading windows, empty
    /// buckets and zero digits cost no multiplication.
    fn fold(&self, acc: &mut Option<GroupElem>, x: &[u64]) {
        match acc {
            Some(a) => self.ctx.mont_mul_assign(a.words_mut(), x),
            None => *acc = Some(GroupElem::from_words(x)),
        }
    }

    /// Exponentiation by a multi-word exponent (canonical words,
    /// typically a field element's canonical representation).
    pub fn pow(&self, base: &GroupElem, exp: &[u64]) -> GroupElem {
        let mut out = base.clone();
        self.ctx.mont_pow(out.words_mut(), exp);
        out
    }

    /// `g^exp` for the group generator, served by the interned
    /// fixed-base window table (built once per process per group).
    /// Loops should look [`Self::generator_table`] up once and call
    /// [`Self::pow_fixed`] themselves.
    pub fn gen_pow(&self, exp: &[u64]) -> GroupElem {
        self.pow_fixed(self.generator_table(), exp)
    }

    /// Inverts an element of the prime-order subgroup via
    /// `a⁻¹ = a^(q−1)`.
    pub fn invert(&self, a: &GroupElem) -> GroupElem {
        let mut exp = self.order.to_vec();
        // q is odd (it is a prime field modulus), so no borrow.
        exp[0] -= 1;
        self.pow(a, &exp)
    }

    /// Exponentiates by the *negation* of `exp` in the exponent group:
    /// `a^(q − exp)`. Requires `exp < q` and `exp != 0` handled by caller
    /// semantics (`exp == 0` yields `a^q = 1`, which is correct).
    pub fn pow_neg(&self, base: &GroupElem, exp: &[u64]) -> GroupElem {
        if is_zero(exp) {
            return self.identity();
        }
        let mut neg = self.order.to_vec();
        let borrow = crate::mp::sub_assign(&mut neg, exp);
        assert_eq!(borrow, 0, "exponent must be below the group order");
        self.pow(base, &neg)
    }
}

/// Widest window the MSM will pick; bounds bucket scratch at
/// `(2^12 − 1) · width` words (≈ 512 KiB at the 1024-bit width).
const MSM_MAX_WINDOW_BITS: usize = 12;

/// Window width (in bits) for a bucket MSM over `n` bases.
///
/// Per window of width `c`, the bucket method pays `n` accumulation
/// multiplications plus `~2·2^c` for the suffix-product drain, repeated
/// over `⌈bits/c⌉` windows — so the optimum grows with `log₂ n`. The
/// `−3` offset puts the drain cost at roughly an eighth of the
/// accumulation cost, which minimizes the total over the oracle sizes
/// the commitment actually sees (hundreds of bases); the differential
/// suite pins correctness at the boundaries either side.
pub fn msm_window_bits(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    let log = (usize::BITS - 1 - n.leading_zeros()) as usize;
    log.saturating_sub(3).clamp(1, MSM_MAX_WINDOW_BITS)
}

/// Bits `[bit, bit + c)` of a little-endian multi-word integer (reads
/// across one word boundary; out-of-range bits are zero).
fn window_digit(s: &[u64], bit: usize, c: usize) -> usize {
    let word = bit / 64;
    if word >= s.len() {
        return 0;
    }
    let shift = bit % 64;
    let mut d = s[word] >> shift;
    let have = 64 - shift;
    if have < c && word + 1 < s.len() {
        d |= s[word + 1] << have;
    }
    (d & ((1u64 << c) - 1)) as usize
}

impl SchnorrGroup {
    /// Multi-scalar multiplication `∏ basesᵢ^(scalarsᵢ)` by the
    /// Pippenger bucket method — the commitment engine's inner loop
    /// (`Enc(π(r)) = ∏ Enc(rᵢ)^(uᵢ)`, §2.2, runs this once per
    /// ciphertext component).
    ///
    /// Scalars are canonical little-endian words (any widths, including
    /// values above the subgroup order — the result is the plain
    /// integer-exponent product either way). Bases must be actual group
    /// elements (never the zero residue, which the buckets use as their
    /// empty sentinel). Window width comes from the input length via
    /// [`msm_window_bits`].
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn msm(&self, bases: &[GroupElem], scalars: &[&[u64]]) -> GroupElem {
        self.msm_scratch(bases, scalars, &mut Scratch::new())
    }

    /// [`Self::msm`] leasing its bucket accumulators from a
    /// caller-owned [`Scratch`] pool.
    pub fn msm_scratch(
        &self,
        bases: &[GroupElem],
        scalars: &[&[u64]],
        scratch: &mut Scratch<u64>,
    ) -> GroupElem {
        assert_eq!(bases.len(), scalars.len(), "length mismatch");
        let refs: Vec<&[u64]> = bases.iter().map(GroupElem::words).collect();
        // The kernel reads scalars at one stride: pad to the widest.
        let stride = scalars.iter().map(|s| s.len()).max().unwrap_or(0).max(1);
        let mut flat = vec![0u64; stride * scalars.len()];
        for (slot, s) in flat.chunks_exact_mut(stride).zip(scalars) {
            slot[..s.len()].copy_from_slice(s);
        }
        let mut buckets = scratch.take(self.msm_bucket_len(bases.len()), 0u64);
        let product = self.msm_words(&refs, &flat, &mut buckets);
        scratch.put(buckets);
        product
    }

    /// Bucket words [`Self::msm_words`] needs for `n` bases: `2^c − 1`
    /// slots of `width` words at the window width `n` selects.
    pub(crate) fn msm_bucket_len(&self, n: usize) -> usize {
        ((1usize << msm_window_bits(n)) - 1) * self.ctx.width()
    }

    /// The MSM kernel over raw Montgomery word slices (how the ElGamal
    /// layer feeds ciphertext components without gathering them into
    /// owned `GroupElem` vectors) and one flat scalar buffer, scalar `i`
    /// at words `[i·stride, (i+1)·stride)`.
    ///
    /// `buckets` is a caller-leased buffer of at least
    /// [`Self::msm_bucket_len`] words (any contents), used as `2^c − 1`
    /// slots of `width` words with the all-zero block as the "empty"
    /// sentinel (zero is not a group element, so no valid accumulation
    /// can collide with it); every bucket operation multiplies straight
    /// into its slot, and the running products live on the stack — no
    /// allocation anywhere below this call. Windows run
    /// most-significant first: between windows the accumulator is
    /// squared `c` times, then each window's buckets drain via running
    /// suffix products (`∏ bucket[d]^d` in `2·(2^c − 1)`
    /// multiplications, skipping empty prefixes).
    pub(crate) fn msm_words(
        &self,
        bases: &[&[u64]],
        scalars: &[u64],
        buckets: &mut [u64],
    ) -> GroupElem {
        let n = bases.len();
        if n == 0 || scalars.is_empty() {
            return self.identity();
        }
        assert_eq!(scalars.len() % n, 0, "length mismatch");
        let stride = scalars.len() / n;
        let max_bits = scalars.chunks_exact(stride).map(bit_len).max().unwrap_or(0);
        if max_bits == 0 {
            return self.identity();
        }
        let width = self.ctx.width();
        let c = msm_window_bits(n);
        let num_windows = max_bits.div_ceil(c);
        let num_buckets = (1usize << c) - 1;
        let buckets = &mut buckets[..num_buckets * width];
        let mut acc: Option<GroupElem> = None;
        let mut bucket_ops = 0u64;
        let mut doublings = 0u64;
        for w in (0..num_windows).rev() {
            // Shift the accumulator past this window (identity needs no
            // shifting, so the leading empty windows are free).
            if let Some(a) = acc.as_mut() {
                for _ in 0..c {
                    self.ctx.mont_sqr_assign(a.words_mut());
                }
                doublings += c as u64;
            }
            buckets.fill(0);
            for (base, scalar) in bases.iter().zip(scalars.chunks_exact(stride)) {
                let d = window_digit(scalar, w * c, c);
                if d == 0 {
                    continue;
                }
                let slot = &mut buckets[(d - 1) * width..d * width];
                if is_zero(slot) {
                    slot.copy_from_slice(base);
                } else {
                    self.ctx.mont_mul_assign(slot, base);
                }
                bucket_ops += 1;
            }
            // Drain: running = ∏_{e ≥ d} bucket[e], summed into
            // window = ∏ bucket[d]^d.
            let mut running: Option<GroupElem> = None;
            let mut window: Option<GroupElem> = None;
            for slot in buckets.chunks_exact(width).rev() {
                if !is_zero(slot) {
                    self.fold(&mut running, slot);
                }
                if let Some(r) = &running {
                    self.fold(&mut window, r.words());
                }
            }
            if let Some(win) = &window {
                self.fold(&mut acc, win.words());
            }
        }
        zaatar_obs::counter("commit.msm.windows").add(num_windows as u64);
        zaatar_obs::counter("commit.msm.buckets").add(bucket_ops);
        zaatar_obs::counter("commit.msm.doublings").add(doublings);
        acc.unwrap_or_else(|| self.identity())
    }
}

/// A running MSM product for incremental (chunked) commitment
/// accumulation: each accumulate call runs the Pippenger kernel over one
/// chunk of `(base, scalar)` pairs and folds the chunk's product into
/// the accumulator with a single group multiplication. The group is
/// abelian, so the product over ordered chunks equals the one-shot MSM
/// over the concatenated inputs — the same residue, hence byte-identical
/// serialized commitments — while the leased bucket buffer is sized by
/// the *chunk* length ([`msm_window_bits`]), not the full vector. This
/// is how the commit stage feeds the kernel scalars chunk-at-a-time
/// under a memory budget.
#[derive(Default)]
pub struct MsmAccumulator {
    acc: Option<GroupElem>,
}

impl MsmAccumulator {
    /// An empty accumulator (finishes to the identity).
    pub fn new() -> Self {
        MsmAccumulator { acc: None }
    }
}

impl SchnorrGroup {
    /// Folds one chunk's MSM into `acc` (the [`Self::msm_words`]
    /// interface, bucket buffer included).
    pub(crate) fn msm_words_accumulate(
        &self,
        acc: &mut MsmAccumulator,
        bases: &[&[u64]],
        scalars: &[u64],
        buckets: &mut [u64],
    ) {
        let part = self.msm_words(bases, scalars, buckets);
        self.fold(&mut acc.acc, part.words());
    }

    /// Closes an accumulator into its group element (identity if nothing
    /// was accumulated).
    pub fn msm_accumulator_finish(&self, acc: MsmAccumulator) -> GroupElem {
        acc.acc.unwrap_or_else(|| self.identity())
    }
}

/// Window width for fixed-base exponentiation. Eight bits divides the
/// 64-bit word size, so windows never straddle word boundaries.
const WINDOW_BITS: usize = 8;

/// Non-zero digits per window (`2^WINDOW_BITS − 1`).
const DIGITS_PER_WINDOW: usize = (1 << WINDOW_BITS) - 1;

/// A precomputed table for fixed-base windowed exponentiation: for every
/// 8-bit window `w` and digit `d ∈ 1…255` it stores
/// `base^(d · 2^(8w))`, so `base^e` becomes one table lookup and one
/// group multiplication per non-zero window of `e` — no squarings at
/// all. The table covers every exponent below the subgroup order
/// (rounded up to a whole window); larger exponents fall back to
/// square-and-multiply on the stored base.
///
/// Amortization: building the table costs `255 · ⌈bits/8⌉`
/// multiplications, one-time per base, while each subsequent
/// exponentiation drops from `~1.5 · bits` multiplications
/// (square-and-multiply) to at most `⌈bits/8⌉` — break-even after
/// `255·⌈bits/8⌉ / (1.5·bits − ⌈bits/8⌉)` ≈ 24 uses at every shipped
/// order ([`SchnorrGroup::fixed_base_table_for`]). At the 1024-bit width
/// a table is `⌈bits/8⌉ · 255 · 128 B`: 522 KB for F128's group, 914 KB
/// for F220's.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    /// One flat buffer: the `width` words at entry index
    /// `w · 255 + (d − 1)` are `base^(d · 2^(8w))`, Montgomery form.
    entries: Vec<u64>,
    /// The base itself, for the oversized-exponent fallback.
    base: GroupElem,
    num_windows: usize,
}

impl FixedBaseTable {
    /// Number of 8-bit windows the table covers (0 for a table built
    /// below the break-even batch, which serves every exponent by the
    /// fallback).
    pub fn num_windows(&self) -> usize {
        self.num_windows
    }

    /// Largest exponent bit index (exclusive) the table can serve
    /// without falling back.
    pub fn capacity_bits(&self) -> usize {
        self.num_windows * WINDOW_BITS
    }
}

/// Bit length of a little-endian multi-word integer (0 for zero).
fn bit_len(words: &[u64]) -> usize {
    words
        .iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 64 - w.leading_zeros() as usize)
        .unwrap_or(0)
}

impl SchnorrGroup {
    /// Windows a table needs to cover any exponent below the subgroup
    /// order (its bit length rounded up to whole windows).
    fn fixed_base_windows(&self) -> usize {
        bit_len(&self.order).max(1).div_ceil(WINDOW_BITS)
    }

    /// Builds a fixed-base window table for `base`, sized to cover any
    /// exponent below the subgroup order. Use for bases that will be
    /// raised to many exponents (the generator, an ElGamal public key
    /// during vector encryption).
    pub fn fixed_base_table(&self, base: &GroupElem) -> FixedBaseTable {
        let _span = zaatar_obs::time("commit.fixed_base_build");
        let width = self.ctx.width();
        let num_windows = self.fixed_base_windows();
        let mut entries = Vec::with_capacity(num_windows * DIGITS_PER_WINDOW * width);
        // `cur` walks base^(2^(8w)); each window's entries are
        // cur, cur², …, cur²⁵⁵, each the previous entry times cur.
        let mut cur = base.clone();
        for _ in 0..num_windows {
            entries.extend_from_slice(cur.words());
            for _ in 2..=DIGITS_PER_WINDOW {
                let at = entries.len();
                entries.extend_from_within(at - width..);
                self.ctx.mont_mul_assign(&mut entries[at..], cur.words());
            }
            // The last entry is cur²⁵⁵, so the next window's base
            // cur²⁵⁶ is one more multiplication.
            let last = entries.len() - width;
            self.ctx.mont_mul_assign(cur.words_mut(), &entries[last..]);
        }
        FixedBaseTable { entries, base: base.clone(), num_windows }
    }

    /// [`Self::fixed_base_table`] when `base` will be raised to at least
    /// the break-even number of exponents
    /// (`255·W / (1.5·bits − W)` for `W` windows over a `bits`-bit
    /// order), and otherwise a window-less table that costs nothing to
    /// build and serves [`Self::pow_fixed`] by square-and-multiply — so
    /// a short vector never pays for a table it cannot amortize.
    pub fn fixed_base_table_for(&self, base: &GroupElem, uses: usize) -> FixedBaseTable {
        let windows = self.fixed_base_windows();
        let saved_per_use = 3 * bit_len(&self.order).max(1) / 2 - windows;
        if uses >= (DIGITS_PER_WINDOW * windows).div_ceil(saved_per_use.max(1)) {
            self.fixed_base_table(base)
        } else {
            FixedBaseTable { entries: Vec::new(), base: base.clone(), num_windows: 0 }
        }
    }

    /// `acc ← acc · base^exp` via `table` (`None` is the identity, as in
    /// [`Self::fold`]): one lookup + multiplication per non-zero 8-bit
    /// window, straight into `acc`. Exponents wider than the table's
    /// capacity (raw word slices above the subgroup order, or any
    /// exponent on a window-less table) fall back to
    /// square-and-multiply and stay correct.
    pub(crate) fn mul_pow_fixed(
        &self,
        acc: &mut Option<GroupElem>,
        table: &FixedBaseTable,
        exp: &[u64],
    ) {
        if bit_len(exp) > table.capacity_bits() {
            return self.fold(acc, self.pow(&table.base, exp).words());
        }
        let width = self.ctx.width();
        for (w, window) in table.entries.chunks_exact(DIGITS_PER_WINDOW * width).enumerate() {
            let bit = w * WINDOW_BITS;
            let Some(word) = exp.get(bit / 64) else { break };
            let digit = (word >> (bit % 64)) as usize & DIGITS_PER_WINDOW;
            if digit != 0 {
                self.fold(acc, &window[(digit - 1) * width..digit * width]);
            }
        }
    }

    /// `base^exp` via a precomputed [`FixedBaseTable`] for that base.
    pub fn pow_fixed(&self, table: &FixedBaseTable, exp: &[u64]) -> GroupElem {
        let mut acc = None;
        self.mul_pow_fixed(&mut acc, table, exp);
        acc.unwrap_or_else(|| self.identity())
    }

    /// The interned fixed-base table for this group's generator.
    ///
    /// Tables are interned in a global [`zaatar_mem::Interner`] keyed
    /// by `(modulus, generator)` — shared machinery with the
    /// `zaatar_poly::plan` registry — so the (at most a handful of)
    /// process-wide groups each pay the build cost once. Registry hits
    /// are counted as `commit.fixed_base_hit`; a lookup builds a key,
    /// hashes it and takes the registry's read lock, so vector
    /// operations look the table up once, not once per element.
    pub fn generator_table(&self) -> &'static FixedBaseTable {
        static REGISTRY: Interner<Vec<u64>, FixedBaseTable> = Interner::new();
        // Key on modulus ++ generator so hypothetical same-modulus
        // groups with different generators cannot collide.
        let mut key = self.ctx.modulus().to_vec();
        key.extend_from_slice(self.generator.words());
        let (table, hit) =
            REGISTRY.intern_with(key, || self.fixed_base_table(&self.generator));
        zaatar_obs::counter(if hit {
            "commit.fixed_base_hit"
        } else {
            "commit.fixed_base_miss"
        })
        .inc();
        table
    }
}

/// Associates a PCP field with its matching Schnorr group.
///
/// Implemented for all three shipped fields; the group is constructed
/// once per process and cached.
pub trait HasGroup: PrimeField {
    /// The Schnorr group whose subgroup order equals this field's modulus.
    fn group() -> &'static SchnorrGroup;

    /// Convenience: this field element's canonical words, usable directly
    /// as a group exponent.
    fn exponent_words(&self) -> Vec<u64> {
        self.to_canonical_words()
    }
}

/// 1024-bit group paired with `F128` (`p = 2·k·q₁₂₈ + 1`).
const F128_GROUP_MODULUS: [u64; 16] = [
    0xd86b8480fe01262b,
    0x2aeaf6c97d5f5e61,
    0x75caa18caac75c93,
    0xfba0ea13191953fc,
    0xd2bc6ecc2c09fbc3,
    0x94ba93ecba9e1554,
    0x6a74859ef7485c95,
    0x5e597c3c68852913,
    0xa07f0a335b78044e,
    0x145ecfacda9a821d,
    0x7dec3bf2a7c84bd8,
    0x2445de0e708de965,
    0x1d3d501fe99be6e6,
    0x8d2e063b1b1c3795,
    0x1202b324eab82fdb,
    0x8e802683c80bad2a,
];

const F128_GROUP_GEN: [u64; 16] = [
    0x91a29d75620f698e,
    0xc202b8a322b29b44,
    0xa4a472e993b579a5,
    0xb38af0c1db755bd9,
    0x5d5d746a11de2761,
    0xb2f009b10280dbef,
    0xe8a3ce0ade3f6245,
    0xfaec3ca476bd77d0,
    0x4ff26a75c7afae8f,
    0xe6e98cf8f8948686,
    0xfec525429531dec8,
    0x399c2d5869786ae7,
    0x7618d72f65f0136d,
    0x28ee3f64f394cc91,
    0x4c84d3c194ec9154,
    0x0f056540c6338b47,
];

/// 1024-bit group paired with `F220`.
const F220_GROUP_MODULUS: [u64; 16] = [
    0x3475e8bb2d69f6fd,
    0xe15ceaa6d21ea082,
    0x15b30634157d7228,
    0x2cddb017566bfb41,
    0xb8b737a50309df51,
    0xd3c7743c8dd48812,
    0x773b3a6651cf7b6d,
    0x9c4f709d437e6617,
    0xa881c4230fa0c6c1,
    0x5930211c9215e137,
    0x83bb3222b9430ff5,
    0xf82ecbf61cfe810d,
    0x6de8d7e2350af079,
    0xebff38f8e0495daf,
    0x420b41fdca84d024,
    0xb25a537464a5f999,
];

const F220_GROUP_GEN: [u64; 16] = [
    0x7b39927e73b5c6c0,
    0x52d7610e6fbc106d,
    0xe13f1f91243357d3,
    0x2da116336cf081ff,
    0xa8f77fc162f67b7c,
    0x4ef48fd449d41e57,
    0x640def1f69a21e2d,
    0x7b5d56b90b59cedb,
    0xf12dc6da880fa213,
    0x58fccd385fd1c2d4,
    0x16d56d726eb1a204,
    0x146811369cd5bddf,
    0x302fd5cc7b88ec36,
    0xbd0c495f0a3ca173,
    0x8216d96bef33ce69,
    0xa4daac68115c9d22,
];

/// 256-bit group paired with the `F61` test field (small keys keep unit
/// tests fast; production fields use 1024-bit groups).
const F61_GROUP_MODULUS: [u64; 4] = [
    0x614a33842324c141,
    0x54c9fcd5a424ff8c,
    0xba9fefa303bd7bbf,
    0xfa8c5cb35d9b7de4,
];

const F61_GROUP_GEN: [u64; 4] = [
    0x1b5da75de9436749,
    0x1637e6faeb4032f8,
    0x229b8b7cf94fb931,
    0x0736eda29b0c6661,
];

impl HasGroup for F128 {
    fn group() -> &'static SchnorrGroup {
        static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
        GROUP.get_or_init(|| {
            SchnorrGroup::new(
                F128_GROUP_MODULUS.to_vec(),
                F128_GROUP_GEN.to_vec(),
                F128::modulus_words(),
            )
        })
    }
}

impl HasGroup for F220 {
    fn group() -> &'static SchnorrGroup {
        static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
        GROUP.get_or_init(|| {
            SchnorrGroup::new(
                F220_GROUP_MODULUS.to_vec(),
                F220_GROUP_GEN.to_vec(),
                F220::modulus_words(),
            )
        })
    }
}

impl HasGroup for F61 {
    fn group() -> &'static SchnorrGroup {
        static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
        GROUP.get_or_init(|| {
            SchnorrGroup::new(
                F61_GROUP_MODULUS.to_vec(),
                F61_GROUP_GEN.to_vec(),
                F61::modulus_words(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::Field;

    #[test]
    fn generator_orders_check_out() {
        // Constructing each group runs the order assertions.
        assert_eq!(F61::group().modulus_bits(), 256);
        assert_eq!(F128::group().modulus_bits(), 1024);
        assert_eq!(F220::group().modulus_bits(), 1024);
    }

    #[test]
    fn exponent_arithmetic_matches_field() {
        // g^a · g^b == g^(a+b) with field addition — the property the
        // commitment protocol depends on.
        let g = F61::group();
        let a = F61::from_u64(0x1234_5678_9abc);
        let b = F61::from_u64(0xdead_beef_0042);
        let ga = g.gen_pow(&a.exponent_words());
        let gb = g.gen_pow(&b.exponent_words());
        let gsum = g.gen_pow(&(a + b).exponent_words());
        assert_eq!(g.mul(&ga, &gb), gsum);
    }

    #[test]
    fn exponent_wraparound_matches_field() {
        // Field addition that wraps mod q must agree with group exponents.
        let g = F61::group();
        let a = -F61::from_u64(3); // q − 3
        let b = F61::from_u64(10);
        let lhs = g.mul(&g.gen_pow(&a.exponent_words()), &g.gen_pow(&b.exponent_words()));
        assert_eq!(lhs, g.gen_pow(&F61::from_u64(7).exponent_words()));
    }

    #[test]
    fn pow_in_exponent_matches_field_mul() {
        let g = F61::group();
        let a = F61::from_u64(123456789);
        let c = F61::from_u64(987654321);
        let ga = g.gen_pow(&a.exponent_words());
        assert_eq!(
            g.pow(&ga, &c.exponent_words()),
            g.gen_pow(&(a * c).exponent_words())
        );
    }

    #[test]
    fn inversion_cancels() {
        let g = F61::group();
        let x = g.gen_pow(&[42]);
        let xi = g.invert(&x);
        assert_eq!(g.mul(&x, &xi), g.identity());
    }

    #[test]
    fn pow_neg_is_inverse_power() {
        let g = F61::group();
        let e = F61::from_u64(777);
        let direct = g.gen_pow(&e.exponent_words());
        let neg = g.pow_neg(&g.generator(), &e.exponent_words());
        assert_eq!(g.mul(&direct, &neg), g.identity());
        assert_eq!(g.pow_neg(&g.generator(), &[0, 0]), g.identity());
    }

    #[test]
    fn identity_behaviour() {
        let g = F61::group();
        let x = g.gen_pow(&[7]);
        assert_eq!(g.mul(&x, &g.identity()), x);
        assert_eq!(g.gen_pow(&[0]), g.identity());
    }

    #[test]
    fn fixed_base_matches_square_and_multiply() {
        let g = F61::group();
        let table = g.fixed_base_table(&g.generator());
        let mut gen = zaatar_field::testutil::SplitMix64::new(0xf1bb);
        for _ in 0..32 {
            let e = gen.field::<F61>().to_canonical_words();
            assert_eq!(g.pow_fixed(&table, &e), g.pow(&g.generator(), &e));
        }
    }

    #[test]
    fn fixed_base_edge_exponents() {
        let g = F61::group();
        let table = g.fixed_base_table(&g.generator());
        // 0, 1, and order − 1 stress the empty-window, single-window,
        // and all-windows paths.
        assert_eq!(g.pow_fixed(&table, &[0]), g.identity());
        assert_eq!(g.pow_fixed(&table, &[1]), g.generator());
        let mut qm1 = g.order().to_vec();
        qm1[0] -= 1;
        assert_eq!(g.pow_fixed(&table, &qm1), g.pow(&g.generator(), &qm1));
    }

    #[test]
    fn fixed_base_oversized_exponent_falls_back() {
        let g = F61::group();
        let table = g.fixed_base_table(&g.generator());
        // Wider than the table's capacity: must agree with the generic
        // path via the stored-base fallback.
        let e = vec![0x1234_5678_9abc_def0u64, 0xffff_0000_ffff_0000, 7];
        assert!(8 * 8 * e.len() > table.capacity_bits());
        assert_eq!(g.pow_fixed(&table, &e), g.pow(&g.generator(), &e));
    }

    #[test]
    fn fixed_base_non_generator_base() {
        let g = F61::group();
        let base = g.gen_pow(&[0xdead_beef]);
        let table = g.fixed_base_table(&base);
        let e = F61::from_u64(0x1357_9bdf).to_canonical_words();
        assert_eq!(g.pow_fixed(&table, &e), g.pow(&base, &e));
    }

    #[test]
    fn generator_table_is_interned() {
        let g = F61::group();
        let a = g.generator_table() as *const FixedBaseTable;
        let b = g.generator_table() as *const FixedBaseTable;
        assert_eq!(a, b, "interned table must be a process-wide singleton");
    }

    /// Reference MSM: fold `pow` + `mul` one base at a time.
    fn naive_msm(g: &SchnorrGroup, bases: &[GroupElem], scalars: &[&[u64]]) -> GroupElem {
        let mut acc = g.identity();
        for (b, s) in bases.iter().zip(scalars.iter()) {
            acc = g.mul(&acc, &g.pow(b, s));
        }
        acc
    }

    #[test]
    fn msm_matches_naive_random() {
        let g = F61::group();
        let mut gen = zaatar_field::testutil::SplitMix64::new(0x5151);
        for n in [1usize, 2, 3, 7, 8, 33] {
            let bases: Vec<GroupElem> =
                (0..n).map(|_| g.gen_pow(&gen.field::<F61>().to_canonical_words())).collect();
            let scalars: Vec<Vec<u64>> =
                (0..n).map(|_| gen.field::<F61>().to_canonical_words()).collect();
            let refs: Vec<&[u64]> = scalars.iter().map(|s| s.as_slice()).collect();
            assert_eq!(g.msm(&bases, &refs), naive_msm(g, &bases, &refs), "n={n}");
        }
    }

    #[test]
    fn msm_edge_shapes() {
        let g = F61::group();
        // Empty input → identity.
        assert_eq!(g.msm(&[], &[]), g.identity());
        // All-zero scalars → identity.
        let b = g.gen_pow(&[9]);
        assert_eq!(g.msm(&[b.clone(), b.clone()], &[&[0u64][..], &[0, 0][..]]), g.identity());
        // Single element equals plain pow.
        let e = [0xdead_beef_u64];
        assert_eq!(g.msm(std::slice::from_ref(&b), &[&e[..]]), g.pow(&b, &e));
        // Duplicate bases accumulate exponents: b^3 · b^5 = b^8.
        assert_eq!(
            g.msm(&[b.clone(), b.clone()], &[&[3u64][..], &[5u64][..]]),
            g.pow(&b, &[8])
        );
        // Mixed zero / nonzero scalars.
        let c = g.gen_pow(&[11]);
        assert_eq!(
            g.msm(&[b.clone(), c.clone()], &[&[0u64][..], &[4u64][..]]),
            g.pow(&c, &[4])
        );
    }

    #[test]
    fn msm_max_word_exponents() {
        // Exponents with every bit set (above the subgroup order) must
        // agree with plain square-and-multiply on the same words.
        let g = F61::group();
        let b1 = g.gen_pow(&[3]);
        let b2 = g.gen_pow(&[0x1234_5678]);
        let full = [u64::MAX, u64::MAX];
        let scalars = [&full[..], &full[..]];
        assert_eq!(
            g.msm(&[b1.clone(), b2.clone()], &scalars),
            naive_msm(g, &[b1, b2], &scalars)
        );
    }

    #[test]
    fn msm_scratch_reuse_is_stable() {
        // Two MSMs through the same pool (second reuses the leased bucket
        // buffer, possibly dirty) must both match the fresh-scratch path.
        let g = F61::group();
        let mut gen = zaatar_field::testutil::SplitMix64::new(0xabcd);
        let mut scratch = Scratch::new();
        for round in 0..4 {
            let n = 5 + round;
            let bases: Vec<GroupElem> =
                (0..n).map(|_| g.gen_pow(&gen.field::<F61>().to_canonical_words())).collect();
            let scalars: Vec<Vec<u64>> =
                (0..n).map(|_| gen.field::<F61>().to_canonical_words()).collect();
            let refs: Vec<&[u64]> = scalars.iter().map(|s| s.as_slice()).collect();
            assert_eq!(
                g.msm_scratch(&bases, &refs, &mut scratch),
                g.msm(&bases, &refs),
                "round={round}"
            );
        }
    }

    #[test]
    fn msm_window_bits_schedule() {
        // Small inputs stay at the 1-bit floor; growth is logarithmic;
        // the cap bounds bucket scratch.
        assert_eq!(msm_window_bits(0), 1);
        assert_eq!(msm_window_bits(1), 1);
        assert_eq!(msm_window_bits(16), 1);
        assert_eq!(msm_window_bits(32), 2);
        assert_eq!(msm_window_bits(256), 5);
        assert_eq!(msm_window_bits(512), 6);
        assert_eq!(msm_window_bits(usize::MAX), MSM_MAX_WINDOW_BITS);
    }

    #[test]
    fn window_digit_straddles_words() {
        // Bits 62..67 of [w0, w1]: low 2 bits from w0's top, high 3 from w1.
        let s = [0xc000_0000_0000_0000u64, 0b101];
        assert_eq!(window_digit(&s, 62, 5), 0b10111);
        // Fully out of range → 0.
        assert_eq!(window_digit(&s, 128, 5), 0);
        // Window extending past the last word is zero-padded.
        assert_eq!(window_digit(&s, 126, 5), 0);
    }
}
