//! Wire encoding for protocol messages.
//!
//! A minimal length-prefixed binary format for everything that crosses
//! the verifier/prover boundary — proof-independent enough to be a
//! transport layer. `zaatar-bench`'s wire-cost formula is held to the
//! sizes this codec produces.

use zaatar_crypto::{Ciphertext, HasGroup};
use zaatar_field::PrimeField;

use crate::commit::Decommitment;

/// Encoding/decoding errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes.
    Truncated,
    /// A field element or group element failed validation.
    Invalid,
    /// Trailing bytes after a complete message.
    TrailingBytes,
    /// A length prefix disagrees with the count the protocol structure
    /// dictates (e.g. a setup message advertising the wrong number of
    /// commitment-key ciphertexts for the agreed computation).
    CountMismatch {
        /// Count implied by the PCP structure.
        expected: u32,
        /// Count announced on the wire.
        got: u32,
    },
    /// A length does not fit the wire format's u32 prefix. Writing the
    /// length as `len as u32` would silently truncate it and produce a
    /// frame the peer misparses; the encoder refuses instead.
    TooLong {
        /// The length that overflowed the prefix.
        len: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::Invalid => write!(f, "invalid element encoding"),
            WireError::TrailingBytes => write!(f, "trailing bytes"),
            WireError::CountMismatch { expected, got } => {
                write!(f, "length prefix {got} where the protocol dictates {expected}")
            }
            WireError::TooLong { len } => {
                write!(f, "length {len} exceeds the u32 wire prefix")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Finishes, returning the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a u32 length/count.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length prefix, checked: a count that does not fit the
    /// u32 prefix is an error, never a silent truncation.
    pub fn put_len(&mut self, len: usize) -> Result<(), WireError> {
        let v = u32::try_from(len).map_err(|_| WireError::TooLong { len })?;
        self.put_u32(v);
        Ok(())
    }

    /// Writes raw bytes (fixed-width; the reader must know the length).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one field element (canonical bytes, fixed width).
    pub fn put_field<F: PrimeField>(&mut self, x: F) {
        self.buf.extend_from_slice(&x.to_bytes_le());
    }

    /// Writes a length-prefixed field vector (checked length prefix).
    pub fn put_field_vec<F: PrimeField>(&mut self, xs: &[F]) -> Result<(), WireError> {
        self.put_len(xs.len())?;
        for x in xs {
            self.put_field(*x);
        }
        Ok(())
    }

    /// Writes a ciphertext (two group elements, fixed width).
    pub fn put_ciphertext<F: HasGroup>(&mut self, ct: &Ciphertext) {
        let g = F::group();
        self.buf.extend_from_slice(&g.elem_to_bytes(&ct.c1));
        self.buf.extend_from_slice(&g.elem_to_bytes(&ct.c2));
    }
}

/// A byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Asserts the message was fully consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads one field element.
    pub fn get_field<F: PrimeField>(&mut self) -> Result<F, WireError> {
        let b = self.take(8 * F::NUM_WORDS)?;
        F::from_bytes_le(b).ok_or(WireError::Invalid)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads a length-prefixed field vector.
    ///
    /// The announced count is checked against the bytes actually left
    /// in the message *before* any allocation, so a malicious length
    /// prefix (`0xFFFFFFFF` on a 100-byte message) costs nothing.
    pub fn get_field_vec<F: PrimeField>(&mut self) -> Result<Vec<F>, WireError> {
        let n = self.get_u32()? as usize;
        let elem_bytes = 8 * F::NUM_WORDS;
        if n > self.remaining() / elem_bytes.max(1) {
            return Err(WireError::Truncated);
        }
        (0..n).map(|_| self.get_field()).collect()
    }

    /// Reads a ciphertext.
    pub fn get_ciphertext<F: HasGroup>(&mut self) -> Result<Ciphertext, WireError> {
        let g = F::group();
        let c1 = g
            .elem_from_bytes(self.take(g.elem_bytes())?)
            .ok_or(WireError::Invalid)?;
        let c2 = g
            .elem_from_bytes(self.take(g.elem_bytes())?)
            .ok_or(WireError::Invalid)?;
        Ok(Ciphertext { c1, c2 })
    }
}

/// Encodes the prover's per-instance message (step 2 + step 4):
/// commitments plus both decommitments.
pub fn encode_prover_message<F: HasGroup + PrimeField>(
    commitments: &(Ciphertext, Ciphertext),
    dz: &Decommitment<F>,
    dh: &Decommitment<F>,
) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::new();
    w.put_ciphertext::<F>(&commitments.0);
    w.put_ciphertext::<F>(&commitments.1);
    w.put_field_vec(&dz.answers)?;
    w.put_field(dz.t_answer);
    w.put_field_vec(&dh.answers)?;
    w.put_field(dh.t_answer);
    Ok(w.finish())
}

/// Decodes the prover's per-instance message.
#[allow(clippy::type_complexity)]
pub fn decode_prover_message<F: HasGroup + PrimeField>(
    bytes: &[u8],
) -> Result<((Ciphertext, Ciphertext), Decommitment<F>, Decommitment<F>), WireError> {
    let mut r = Reader::new(bytes);
    let c1 = r.get_ciphertext::<F>()?;
    let c2 = r.get_ciphertext::<F>()?;
    let za = r.get_field_vec()?;
    let zt = r.get_field()?;
    let ha = r.get_field_vec()?;
    let ht = r.get_field()?;
    r.finish()?;
    Ok((
        (c1, c2),
        Decommitment {
            answers: za,
            t_answer: zt,
        },
        Decommitment {
            answers: ha,
            t_answer: ht,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcp::{PcpParams, ZaatarPcp, ZaatarProof};
    use crate::qap::Qap;
    use crate::session::{SessionProver, SessionVerifier};
    use crate::workspace::ProverWorkspace;
    use zaatar_cc::{ginger_to_quad, Builder};
    use zaatar_crypto::ChaChaPrg;
    use zaatar_field::{Field, F61};

    fn fixture() -> (
        ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
        ZaatarProof<F61>,
        Vec<F61>,
    ) {
        let mut b = Builder::<F61>::new();
        let x = b.alloc_input();
        let y = b.alloc_input();
        let p = b.mul(&x, &y);
        let lt = b.less_than(&x, &y, 8);
        b.bind_output(&p.add(&lt));
        let (sys, solver) = b.finish();
        let t = ginger_to_quad(&sys);
        let asg = solver.solve(&[F61::from_u64(3), F61::from_u64(9)]).unwrap();
        let ext = t.extend_assignment(&asg);
        let qap = Qap::new(&t.system);
        let w = qap.witness(&ext);
        let io = qap
            .var_map()
            .inputs()
            .iter()
            .chain(qap.var_map().outputs())
            .map(|v| ext.get(*v))
            .collect();
        let pcp = ZaatarPcp::new(qap, PcpParams::light());
        let proof = pcp.prove(&w).unwrap();
        (pcp, proof, io)
    }

    /// One instance's P → V message as a session produces it, plus the
    /// verifier that can judge it.
    fn session_message<'p>(
        pcp: &'p ZaatarPcp<F61, zaatar_poly::Radix2Domain<F61>>,
        proof: &ZaatarProof<F61>,
        seed: u64,
    ) -> (SessionVerifier<'p, F61, zaatar_poly::Radix2Domain<F61>>, Vec<u8>) {
        let mut prg = ChaChaPrg::from_u64_seed(seed);
        let mut verifier = SessionVerifier::new(pcp, &mut prg);
        let mut prover = SessionProver::new(pcp);
        prover.receive_setup(&verifier.setup_message().unwrap()).unwrap();
        let message = prover
            .instance_message_policied(proof, &mut ProverWorkspace::new())
            .unwrap();
        (verifier, message)
    }

    #[test]
    fn prover_message_round_trips_and_verifies() {
        let (pcp, proof, io) = fixture();
        let (mut verifier, bytes) = session_message(&pcp, &proof, 5);
        // Deserialize, serialize, verify.
        let (c, dz, dh) = decode_prover_message::<F61>(&bytes).unwrap();
        assert_eq!(encode_prover_message(&c, &dz, &dh).unwrap(), bytes);
        assert!(verifier.verify_instance(&bytes, &io).unwrap());
    }

    #[test]
    fn prover_message_decode_rejects_corruption() {
        let (pcp, proof, _) = fixture();
        let bytes = session_message(&pcp, &proof, 5).1;
        let elem = F61::group().elem_bytes();
        // Truncation.
        let cut = &bytes[..bytes.len() - 1];
        assert!(matches!(decode_prover_message::<F61>(cut), Err(WireError::Truncated)));
        // The zero residue is not a group element: an all-zero first
        // commitment component must not reach the verifier's arithmetic.
        let mut zeroed = bytes.clone();
        zeroed[..elem].fill(0);
        assert!(matches!(decode_prover_message::<F61>(&zeroed), Err(WireError::Invalid)));
        // Unreduced field element: the first z-answer (after the four
        // commitment components and the length prefix) set to all-ones
        // exceeds the 61-bit modulus.
        let mut unreduced = bytes.clone();
        unreduced[4 * elem + 4..][..8].fill(0xff);
        assert!(matches!(decode_prover_message::<F61>(&unreduced), Err(WireError::Invalid)));
        // Trailing garbage.
        let mut long = bytes;
        long.push(0);
        assert!(matches!(decode_prover_message::<F61>(&long), Err(WireError::TrailingBytes)));
    }

    #[test]
    fn empty_and_singleton_vectors_round_trip() {
        // Length prefixes at the small boundary: 0 and 1 elements.
        for xs in [vec![], vec![F61::from_u64(42)]] {
            let mut w = Writer::new();
            w.put_field_vec(&xs).unwrap();
            let bytes = w.finish();
            assert_eq!(bytes.len(), 4 + 8 * xs.len());
            let mut r = Reader::new(&bytes);
            let back: Vec<F61> = r.get_field_vec().unwrap();
            r.finish().unwrap();
            assert_eq!(back, xs);
        }
    }

    #[test]
    fn length_prefix_near_u32_max_boundary() {
        // The largest representable count still encodes...
        let mut w = Writer::new();
        w.put_len(u32::MAX as usize).unwrap();
        assert_eq!(w.finish(), u32::MAX.to_le_bytes());
        // ...and one past it is a typed error, not a silent wrap to 0.
        let mut w = Writer::new();
        let over = u32::MAX as usize + 1;
        assert_eq!(w.put_len(over), Err(WireError::TooLong { len: over }));
        assert!(w.is_empty(), "failed put_len must write nothing");
        assert_eq!(
            w.put_len(usize::MAX),
            Err(WireError::TooLong { len: usize::MAX })
        );
    }

    #[test]
    fn zero_length_prefix_is_not_a_wraparound() {
        // A reader seeing prefix 0 gets an empty vector — the state a
        // 2³²-element vector would have silently produced before the
        // checked prefix. The encoder now refuses that input, so prefix
        // 0 always means "empty".
        let mut w = Writer::new();
        w.put_field_vec::<F61>(&[]).unwrap();
        w.put_field(F61::from_u64(7));
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(r.get_field_vec::<F61>().unwrap().is_empty());
        assert_eq!(r.get_field::<F61>().unwrap(), F61::from_u64(7));
        r.finish().unwrap();
    }
}
