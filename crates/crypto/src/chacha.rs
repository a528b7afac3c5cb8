//! The ChaCha20 stream cipher, used as the protocol's pseudorandom
//! generator (§5.1: "for a pseudorandom generator, we use the ChaCha
//! stream cipher").
//!
//! The verifier derives all its PCP queries from a short random seed via
//! this PRG; the same seed can be shipped to the prover so both sides
//! regenerate queries instead of shipping full query vectors over the
//! network (\[53, Apdx A.3\]).
//!
//! ChaCha is counter-mode, so the stream can be entered at any word;
//! [`ChaChaPrg::fill_field`] uses that to draw one vector across the
//! host's workers with the values of sequential draws.

use zaatar_field::{Field, PrimeField};
use zaatar_sched::{effective_workers, parallel_map, shard_batch};

/// Keystream words (`u32`) per ChaCha20 block.
const BLOCK_WORDS: u64 = 16;

/// Vectors shorter than this are drawn on the calling thread. Measured
/// on a 2-vCPU x86-64 guest (release, best of five, two workers against
/// a `field_element` loop): a second thread costs ≈ 45 µs, so sharding
/// 1,024 draws took 1.58× (F128) and 1.15× (F220) the sequential time,
/// 2,048 took 1.05× / 0.76×, and 4,096 took 0.73× / 0.67×.
const MIN_SHARDED_DRAWS: usize = 2048;

/// The ChaCha quarter round.
#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 block into `out`.
fn chacha20_block(key: &[u32; 8], counter: u64, nonce: u64, out: &mut [u32; 16]) {
    // "expand 32-byte k" constants.
    let mut state: [u32; 16] = [
        0x6170_7865,
        0x3320_646e,
        0x7962_2d32,
        0x6b20_6574,
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        nonce as u32,
        (nonce >> 32) as u32,
    ];
    let initial = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (o, (s, i)) in out.iter_mut().zip(state.iter().zip(initial.iter())) {
        *o = s.wrapping_add(*i);
    }
}

/// A deterministic PRG over the ChaCha20 keystream.
///
/// # Examples
///
/// ```
/// use zaatar_crypto::ChaChaPrg;
/// use zaatar_field::F128;
///
/// let mut prg = ChaChaPrg::from_seed([7u8; 32]);
/// let a: F128 = prg.field_element();
/// let b: F128 = prg.field_element();
/// assert_ne!(a, b);
///
/// // Same seed → same stream.
/// let mut prg2 = ChaChaPrg::from_seed([7u8; 32]);
/// assert_eq!(a, prg2.field_element::<F128>());
/// ```
#[derive(Clone, Debug)]
pub struct ChaChaPrg {
    key: [u32; 8],
    counter: u64,
    nonce: u64,
    buffer: [u32; 16],
    pos: usize,
}

impl ChaChaPrg {
    /// Creates a PRG from a 32-byte seed (the ChaCha key) with nonce 0.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaChaPrg {
            key,
            counter: 0,
            nonce: 0,
            buffer: [0u32; 16],
            pos: 16,
        }
    }

    /// Creates a PRG from a 64-bit seed (convenience for tests and
    /// benches).
    pub fn from_u64_seed(seed: u64) -> Self {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        Self::from_seed(bytes)
    }

    /// A fresh, domain-separated stream sharing this PRG's key (used to
    /// derive independent query streams from one seed).
    pub fn fork(&self, stream: u64) -> Self {
        ChaChaPrg {
            key: self.key,
            counter: 0,
            nonce: stream.wrapping_add(1),
            buffer: [0u32; 16],
            pos: 16,
        }
    }

    /// Next 32 bits of keystream.
    pub fn next_u32(&mut self) -> u32 {
        if self.pos == 16 {
            chacha20_block(&self.key, self.counter, self.nonce, &mut self.buffer);
            self.counter += 1;
            self.pos = 0;
        }
        let w = self.buffer[self.pos];
        self.pos += 1;
        w
    }

    /// Next 64 bits of keystream.
    pub fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    /// Samples a uniform field element (rejection sampling).
    pub fn field_element<F: Field>(&mut self) -> F {
        F::random_from(|| self.next_u64())
    }

    /// Samples a vector of `n` uniform field elements ([`Self::fill_field`]).
    pub fn field_vec<F: PrimeField>(&mut self, n: usize) -> Vec<F> {
        let mut out = vec![F::ZERO; n];
        self.fill_field(&mut out);
        out
    }

    /// Fills `out` with uniform field elements across the host's workers
    /// (`ZAATAR_WORKERS` honoured; fewer than 2,048 draws stay on the
    /// calling thread): the values, and the stream position afterwards,
    /// are those of `out.len()` calls to [`Self::field_element`].
    pub fn fill_field<F: PrimeField>(&mut self, out: &mut [F]) {
        let shards = if out.len() < MIN_SHARDED_DRAWS { 1 } else { effective_workers(usize::MAX) };
        self.fill_field_sharded(out, shards);
    }

    /// [`Self::fill_field`] over `shards` contiguous runs of `out`. A
    /// candidate takes `2·NUM_WORDS` keystream words, so run *k*, starting
    /// at element `s`, is drawn from `s·2·NUM_WORDS` words past the
    /// current position. That prediction fails only after a rejected
    /// candidate (probability `< 2⁻⁹²` per draw on F128): runs are
    /// accepted in order while each starts where the previous one ended,
    /// and everything after the first that does not is redrawn
    /// sequentially from the true position.
    fn fill_field_sharded<F: PrimeField>(&mut self, out: &mut [F], shards: usize) {
        let words_per_draw = 2 * F::NUM_WORDS as u64;
        let start = self.word_position();
        let ranges: Vec<_> = shard_batch(out.len(), shards).into_iter().filter(|s| !s.is_empty()).collect();
        let mut runs = Vec::with_capacity(ranges.len());
        let mut rest = &mut *out;
        for range in &ranges {
            let (run, tail) = rest.split_at_mut(range.len());
            runs.push((range.start, run));
            rest = tail;
        }
        let ends = parallel_map(runs, shards, |(first, run): (usize, &mut [F])| {
            let mut prg = self.at_word(start + first as u64 * words_per_draw);
            for x in run {
                *x = prg.field_element();
            }
            prg
        });
        let mut drawn = 0;
        for (range, end) in ranges.iter().zip(ends) {
            if start + range.start as u64 * words_per_draw != self.word_position() {
                break;
            }
            *self = end;
            drawn = range.end;
        }
        for x in &mut out[drawn..] {
            *x = self.field_element();
        }
    }

    /// Keystream words consumed so far.
    fn word_position(&self) -> u64 {
        self.counter * BLOCK_WORDS + self.pos as u64 - BLOCK_WORDS
    }

    /// This stream entered at keystream word `word`: only the block
    /// holding `word` is computed, and only if `word` is not its first.
    fn at_word(&self, word: u64) -> Self {
        let mut prg = ChaChaPrg {
            key: self.key,
            counter: word / BLOCK_WORDS,
            nonce: self.nonce,
            buffer: [0u32; 16],
            pos: 16,
        };
        let skip = (word % BLOCK_WORDS) as usize;
        if skip > 0 {
            chacha20_block(&prg.key, prg.counter, prg.nonce, &mut prg.buffer);
            prg.counter += 1;
            prg.pos = skip;
        }
        prg
    }

    /// Fills a byte slice with keystream.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(4) {
            let w = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zaatar_field::{Fp, FpParams, F128, F220, F61};

    /// `p = 12289 = 3·2¹² + 1`: a 14-bit modulus, so a quarter of all
    /// candidates are rejected and the redraw path runs on every vector.
    #[derive(Copy, Clone, Debug, Default, Eq, PartialEq, Hash)]
    struct P12289;

    impl FpParams<1> for P12289 {
        const MODULUS: [u64; 1] = [12289];
        const R: [u64; 1] = [0x1620];
        const R2: [u64; 1] = [0x19ce];
        const INV: u64 = 0x2faf_01af_f700_2fff;
        const NUM_BITS: u32 = 14;
        const TWO_ADICITY: u32 = 12;
        const GENERATOR: u64 = 11;
        const ROOT_OF_UNITY: [u64; 1] = [1331];
    }

    type F12289 = Fp<P12289, 1>;

    #[test]
    fn test_field_constants_are_consistent() {
        let x = F12289::from_u64(5000);
        assert_eq!((x * x).to_canonical_words(), vec![5000 * 5000 % 12289]);
        assert_eq!(x * x.inverse().expect("nonzero"), F12289::ONE);
        assert_eq!(F12289::from_u64(12288) + F12289::ONE, F12289::ZERO);
    }

    /// Every shard count against the sequential reference: the values,
    /// then the draw after them (the stream position). The stream is
    /// entered mid-block, after an odd number of words.
    fn check_sharded_fill_matches_sequential<F: PrimeField>() {
        for len in [0, 1, 15, 16, 17, 10_000] {
            for shards in 1..=4 {
                for skip in [0, 3] {
                    let mut reference = ChaChaPrg::from_u64_seed(len as u64 ^ 0x5eed);
                    for _ in 0..skip {
                        reference.next_u32();
                    }
                    let mut sharded = reference.clone();
                    let expect: Vec<F> = (0..len).map(|_| reference.field_element()).collect();
                    let mut got = vec![F::ZERO; len];
                    sharded.fill_field_sharded(&mut got, shards);
                    assert!(got == expect, "len={len} shards={shards} skip={skip}: values differ");
                    assert_eq!(
                        sharded.field_element::<F>(),
                        reference.field_element::<F>(),
                        "len={len} shards={shards} skip={skip}: stream position differs"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_fill_matches_sequential_draws() {
        check_sharded_fill_matches_sequential::<F61>();
        check_sharded_fill_matches_sequential::<F128>();
        check_sharded_fill_matches_sequential::<F220>();
    }

    #[test]
    fn sharded_fill_redraws_after_rejections() {
        check_sharded_fill_matches_sequential::<F12289>();
    }

    /// RFC 8439 §2.3.2 test vector for the ChaCha20 block function.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u32; 8] = [
            0x03020100, 0x07060504, 0x0b0a0908, 0x0f0e0d0c, 0x13121110, 0x17161514, 0x1b1a1918,
            0x1f1e1d1c,
        ];
        // Nonce 000000090000004a00000000 and counter 1, packed into our
        // (counter:u64, nonce:u64) layout: counter word0 = 1, word1 =
        // 0x09000000; nonce words = 0x4a000000, 0.
        let counter = 1u64 | ((0x0900_0000u64) << 32);
        let nonce = 0x4a00_0000u64;
        let mut out = [0u32; 16];
        chacha20_block(&key, counter, nonce, &mut out);
        let expect: [u32; 16] = [
            0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3, 0xc7f4d1c7, 0x0368c033, 0x9aaa2204,
            0x4e6cd4c3, 0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9, 0xd19c12b5, 0xb94e16de,
            0xe883d0cb, 0x4e3c50a2,
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn determinism_and_divergence() {
        let mut a = ChaChaPrg::from_u64_seed(1);
        let mut b = ChaChaPrg::from_u64_seed(1);
        let mut c = ChaChaPrg::from_u64_seed(2);
        let xs: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn forks_are_independent_streams() {
        let base = ChaChaPrg::from_u64_seed(99);
        let mut f1 = base.fork(0);
        let mut f2 = base.fork(1);
        let a: Vec<u64> = (0..50).map(|_| f1.next_u64()).collect();
        let b: Vec<u64> = (0..50).map(|_| f2.next_u64()).collect();
        assert_ne!(a, b);
        // Re-forking reproduces the same stream.
        let mut f1b = base.fork(0);
        assert_eq!(f1b.next_u64(), a[0]);
    }

    #[test]
    fn field_elements_are_reduced() {
        let mut prg = ChaChaPrg::from_u64_seed(5);
        for _ in 0..200 {
            let x: F61 = prg.field_element();
            let words = x.to_canonical_words();
            assert!(words[0] < 0x1ffffff900000001);
        }
    }

    #[test]
    fn fill_bytes_partial_chunks() {
        let mut prg = ChaChaPrg::from_u64_seed(3);
        let mut buf = [0u8; 7];
        prg.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
