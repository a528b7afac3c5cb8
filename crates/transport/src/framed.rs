//! The [`Transport`] trait and its framing-over-a-[`Link`]
//! implementation.

use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Instant;

use crate::error::TransportError;
use crate::fault::{FaultConfig, FaultyLink};
use crate::frame::{Frame, FrameDecoder, DEFAULT_MAX_PAYLOAD};
use crate::link::{loopback_pair, BoxedLink, Link, LoopbackLink, TcpLink};

/// Traffic and corruption counters for one transport endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Raw bytes handed to the link (headers included).
    pub bytes_sent: u64,
    /// Raw bytes received from the link (garbage included).
    pub bytes_received: u64,
    /// Valid frames sent.
    pub frames_sent: u64,
    /// Valid frames received.
    pub frames_received: u64,
    /// Resync events: corrupted, truncated, or oversized input the
    /// decoder had to skip past.
    pub corrupt_events: u64,
}

/// A reliable-enough message channel: sends and receives whole
/// [`Frame`]s, silently discarding corrupted input. Retransmission on
/// loss is the caller's job (see [`crate::RetryPolicy`]).
pub trait Transport {
    /// Sends one frame.
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;

    /// Receives the next valid frame, blocking until `deadline`.
    fn recv(&mut self, deadline: Instant) -> Result<Frame, TransportError>;

    /// Traffic counters so far.
    fn stats(&self) -> TransportStats;
}

/// Frames messages over any [`Link`].
pub struct FramedTransport<L: Link> {
    link: L,
    decoder: FrameDecoder,
    stats: TransportStats,
}

impl<L: Link> FramedTransport<L> {
    /// Wraps `link` with the default 16 MiB payload cap.
    pub fn new(link: L) -> Self {
        FramedTransport {
            link,
            decoder: FrameDecoder::new(DEFAULT_MAX_PAYLOAD),
            stats: TransportStats::default(),
        }
    }

    /// The underlying link, e.g. to inspect [`FaultyLink`] stats.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Mutable access to the underlying link, e.g. to schedule targeted
    /// faults after construction.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// Folds the decoder's resync count into the local stats and the
    /// global metrics (which only take the delta, since the decoder
    /// reports a running total).
    fn bump_corrupt_events(&mut self) {
        let total = self.decoder.corrupt_events();
        let delta = total - self.stats.corrupt_events;
        if delta > 0 {
            zaatar_obs::counter("transport.corrupt_events").add(delta);
        }
        self.stats.corrupt_events = total;
    }

    /// Nonblocking receive: returns the next complete frame if one can
    /// be assembled from buffered plus immediately-available bytes, or
    /// `Ok(None)` if the link has nothing ready. A `WouldBlock` that
    /// lands mid-frame leaves the partial bytes buffered in the decoder
    /// — the next poll resumes where this one stopped, with no resync
    /// and no corrupt event.
    pub fn poll_recv(&mut self) -> Result<Option<Frame>, TransportError> {
        loop {
            if let Some(frame) = self.decoder.next_frame() {
                self.stats.frames_received += 1;
                zaatar_obs::counter("transport.frames_received").inc();
                self.bump_corrupt_events();
                return Ok(Some(frame));
            }
            self.bump_corrupt_events();
            match self.link.try_recv_bytes()? {
                Some(chunk) => {
                    self.stats.bytes_received += chunk.len() as u64;
                    zaatar_obs::counter("transport.bytes_received").add(chunk.len() as u64);
                    self.decoder.push(&chunk);
                }
                None => return Ok(None),
            }
        }
    }
}

impl<L: Link + Send + 'static> FramedTransport<L> {
    /// Erases the link type, preserving decoder state (buffered partial
    /// frames included) and stats, so heterogeneous connections can sit
    /// in one session table.
    pub fn boxed(self) -> FramedTransport<BoxedLink> {
        FramedTransport {
            link: Box::new(self.link),
            decoder: self.decoder,
            stats: self.stats,
        }
    }
}

impl<L: Link> Transport for FramedTransport<L> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        let bytes = frame.encode();
        self.stats.bytes_sent += bytes.len() as u64;
        self.stats.frames_sent += 1;
        zaatar_obs::counter("transport.frames_sent").inc();
        zaatar_obs::counter("transport.bytes_sent").add(bytes.len() as u64);
        self.link.send_bytes(&bytes)
    }

    fn recv(&mut self, deadline: Instant) -> Result<Frame, TransportError> {
        loop {
            if let Some(frame) = self.decoder.next_frame() {
                self.stats.frames_received += 1;
                zaatar_obs::counter("transport.frames_received").inc();
                self.bump_corrupt_events();
                return Ok(frame);
            }
            self.bump_corrupt_events();
            let chunk = self.link.recv_bytes(deadline)?;
            self.stats.bytes_received += chunk.len() as u64;
            zaatar_obs::counter("transport.bytes_received").add(chunk.len() as u64);
            self.decoder.push(&chunk);
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

/// Framed transport over TCP.
pub type TcpTransport = FramedTransport<TcpLink>;

/// Framed transport over the in-memory loopback.
pub type LoopbackTransport = FramedTransport<LoopbackLink>;

/// Framed transport over a fault-injecting link.
pub type FaultyTransport<L> = FramedTransport<FaultyLink<L>>;

impl TcpTransport {
    /// Connects to a listening peer.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(TransportError::from)?;
        Ok(FramedTransport::new(TcpLink::new(stream)?))
    }

    /// Accepts one connection from `listener`.
    pub fn accept(listener: &TcpListener) -> Result<Self, TransportError> {
        let (stream, _) = listener.accept().map_err(TransportError::from)?;
        Ok(FramedTransport::new(TcpLink::new(stream)?))
    }
}

/// A connected pair of in-memory framed transports.
pub fn loopback_transport_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a, b) = loopback_pair();
    (FramedTransport::new(a), FramedTransport::new(b))
}

/// A connected in-memory pair whose two directions inject faults from
/// `seed` and `seed + 1` respectively. Targeted faults can be added via
/// [`FramedTransport::link_mut`].
pub fn faulty_loopback_pair(
    seed: u64,
    config: FaultConfig,
) -> (FaultyTransport<LoopbackLink>, FaultyTransport<LoopbackLink>) {
    let (a, b) = loopback_pair();
    (
        FramedTransport::new(FaultyLink::new(a, seed, config.clone())),
        FramedTransport::new(FaultyLink::new(b, seed.wrapping_add(1), config)),
    )
}
