//! Fault-tolerant message transport for the Zaatar argument protocol.
//!
//! Zaatar's verifier and prover exchange a handful of messages per
//! batch: one setup (commitment keys + consistency queries) and one
//! request/response per instance. The original codebase moved these as
//! in-memory byte vectors; this crate gives them a real channel with a
//! real failure model, std-only and dependency-free:
//!
//! * [`frame`] — length-prefixed frames with a magic/version/type
//!   header and CRC-32, plus a resynchronising decoder;
//! * [`link`] — the raw byte-pipe abstraction: [`TcpLink`] over
//!   `std::net` and an in-memory [`LoopbackLink`];
//! * [`fault`] — [`FaultyLink`], a deterministic ChaCha-seeded fault
//!   injector (drop, corrupt, truncate, duplicate, reorder, delay);
//! * [`framed`] — the [`Transport`] trait and [`FramedTransport`],
//!   composing framing over any link;
//! * [`retry`] — [`RetryPolicy`] and [`exchange`]: deadlines,
//!   exponential backoff with seeded jitter, bounded retransmits.
//!
//! The layering mirrors the classic end-to-end argument: the framing
//! layer turns corruption into loss, and the retry layer turns loss
//! into latency — so the session runtime above (in `zaatar-core`) only
//! ever sees whole, intact messages or a typed timeout.

#![forbid(unsafe_code)]

pub mod error;
pub mod fault;
pub mod frame;
pub mod framed;
pub mod link;
pub mod retry;

pub use error::TransportError;
pub use fault::{FaultConfig, FaultKind, FaultStats, FaultyLink};
pub use frame::{crc32, Frame, FrameDecoder, DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION};
pub use framed::{
    faulty_loopback_pair, loopback_transport_pair, FaultyTransport, FramedTransport,
    LoopbackTransport, TcpTransport, Transport, TransportStats,
};
pub use link::{loopback_pair, BoxedLink, Link, LoopbackLink, TcpLink};
pub use retry::{exchange, exchange_within, DeadlineBudget, ExchangeOutcome, RetryPolicy};
