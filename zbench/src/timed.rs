//! Role-level timing from outside the program: a [`Transport`]
//! decorator on the *verifier's* end of a session that stamps every
//! frame (one `Instant` read per send, one per receive, no payload
//! copies), and the pure function that turns the stamped sequence into
//! the session's phases. Nothing inside the measured crates is traced.

use std::time::Instant;

use zaatar_core::runtime::msg;
use zaatar_transport::{Frame, Transport, TransportError, TransportStats};

/// Which way a stamped frame travelled, seen from the verifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Handed to the transport (stamped on entry to `send`).
    Sent,
    /// Handed back by the transport (stamped on return from `recv`).
    Received,
}

/// One stamped frame: direction, header fields, and nanoseconds since
/// the session's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameEvent {
    pub dir: Dir,
    pub msg_type: u8,
    pub seq: u32,
    pub at_ns: u64,
}

/// Wraps the verifier's transport, recording a [`FrameEvent`] per
/// frame. With [`TimedTransport::tampering`] it also flips one payload
/// byte of the first instance response it hands back — the warm-up's
/// negative control, injected above the CRC so only the protocol's own
/// checks can catch it.
pub struct TimedTransport<T> {
    inner: T,
    origin: Instant,
    events: Vec<FrameEvent>,
    tamper_pending: bool,
}

impl<T: Transport> TimedTransport<T> {
    /// Stamps frames of `inner` relative to `origin` (the instant the
    /// session began, so the first send closes the verifier's set-up).
    pub fn new(inner: T, origin: Instant) -> Self {
        TimedTransport { inner, origin, events: Vec::with_capacity(64), tamper_pending: false }
    }

    /// Arms the one-byte tamper of the first `INSTANCE_RESP`.
    pub fn tampering(mut self) -> Self {
        self.tamper_pending = true;
        self
    }

    /// The stamped frames so far, in order.
    pub fn events(&self) -> &[FrameEvent] {
        &self.events
    }

    fn stamp(&mut self, dir: Dir, frame: &Frame) {
        self.events.push(FrameEvent {
            dir,
            msg_type: frame.msg_type,
            seq: frame.seq,
            at_ns: self.origin.elapsed().as_nanos() as u64,
        });
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.stamp(Dir::Sent, frame);
        self.inner.send(frame)
    }

    fn recv(&mut self, deadline: Instant) -> Result<Frame, TransportError> {
        let mut frame = self.inner.recv(deadline)?;
        self.stamp(Dir::Received, &frame);
        if self.tamper_pending && frame.msg_type == msg::INSTANCE_RESP {
            let middle = frame.payload.len() / 2;
            if let Some(byte) = frame.payload.get_mut(middle) {
                *byte ^= 0x01;
                self.tamper_pending = false;
            }
        }
        Ok(frame)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A session's phases as the verifier's transport saw them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RolePhases {
    /// Session origin → first SETUP/HSETUP handed to the transport.
    pub verifier_setup_ns: Option<u64>,
    /// First SETUP/HSETUP sent → SETUP_ACK received.
    pub setup_exchange_ns: Option<u64>,
    /// Per instance: first INSTANCE_REQ sent → its reply received.
    pub serve_ns: Vec<u64>,
    /// Per instance: reply received → next frame sent.
    pub verify_ns: Vec<u64>,
    /// Sends that repeated a request already in flight.
    pub retransmits: u64,
}

/// Attributes a stamped frame sequence to phases. A retransmitted
/// request (same type and seq as the one in flight) extends its phase
/// instead of opening a new one, and a reply whose seq matches nothing
/// in flight (a duplicate the channel conjured) is ignored — so a lossy
/// link can stretch a phase but never double-count an instance.
pub fn attribute(events: &[FrameEvent]) -> RolePhases {
    let mut phases = RolePhases::default();
    let mut setup_sent: Option<u64> = None;
    let mut in_flight: Option<(u32, u64)> = None;
    let mut reply_at: Option<u64> = None;
    for ev in events {
        match (ev.dir, ev.msg_type) {
            (Dir::Sent, msg::SETUP | msg::HSETUP) => match setup_sent {
                None => {
                    setup_sent = Some(ev.at_ns);
                    phases.verifier_setup_ns = Some(ev.at_ns);
                }
                Some(_) => phases.retransmits += 1,
            },
            (Dir::Received, msg::SETUP_ACK) => {
                if let (Some(sent), None) = (setup_sent, phases.setup_exchange_ns) {
                    phases.setup_exchange_ns = Some(ev.at_ns - sent);
                }
            }
            (Dir::Sent, msg::INSTANCE_REQ) => {
                if in_flight.is_some_and(|(seq, _)| seq == ev.seq) {
                    phases.retransmits += 1;
                    continue;
                }
                if let Some(at) = reply_at.take() {
                    phases.verify_ns.push(ev.at_ns - at);
                }
                in_flight = Some((ev.seq, ev.at_ns));
            }
            (Dir::Received, msg::INSTANCE_RESP | msg::ERROR) => {
                if let Some((seq, sent)) = in_flight {
                    if seq == ev.seq {
                        phases.serve_ns.push(ev.at_ns - sent);
                        in_flight = None;
                        reply_at = Some(ev.at_ns);
                    }
                }
            }
            (Dir::Sent, _) => {
                if let Some(at) = reply_at.take() {
                    phases.verify_ns.push(ev.at_ns - at);
                }
            }
            (Dir::Received, _) => {}
        }
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(dir: Dir, msg_type: u8, seq: u32, at_ns: u64) -> FrameEvent {
        FrameEvent { dir, msg_type, seq, at_ns }
    }

    #[test]
    fn clean_session_attributes_every_phase() {
        let events = [
            ev(Dir::Sent, msg::SETUP, 0, 100),
            ev(Dir::Received, msg::SETUP_ACK, 0, 400),
            ev(Dir::Sent, msg::INSTANCE_REQ, 1, 410),
            ev(Dir::Received, msg::INSTANCE_RESP, 1, 700),
            ev(Dir::Sent, msg::INSTANCE_REQ, 2, 730),
            ev(Dir::Received, msg::INSTANCE_RESP, 2, 900),
            ev(Dir::Sent, msg::DONE, u32::MAX, 950),
        ];
        let p = attribute(&events);
        assert_eq!(p.verifier_setup_ns, Some(100));
        assert_eq!(p.setup_exchange_ns, Some(300));
        assert_eq!(p.serve_ns, vec![290, 170]);
        assert_eq!(p.verify_ns, vec![30, 50]);
        assert_eq!(p.retransmits, 0);
    }

    #[test]
    fn retransmitted_request_does_not_double_count_an_instance() {
        let events = [
            ev(Dir::Sent, msg::HSETUP, 0, 100),
            ev(Dir::Sent, msg::HSETUP, 0, 250),
            ev(Dir::Received, msg::SETUP_ACK, 0, 400),
            ev(Dir::Sent, msg::INSTANCE_REQ, 1, 410),
            ev(Dir::Sent, msg::INSTANCE_REQ, 1, 500),
            ev(Dir::Received, msg::INSTANCE_RESP, 1, 700),
            ev(Dir::Sent, msg::INSTANCE_REQ, 2, 730),
            // The retransmission's duplicate reply arrives late: stale seq.
            ev(Dir::Received, msg::INSTANCE_RESP, 1, 740),
            ev(Dir::Received, msg::INSTANCE_RESP, 2, 900),
            ev(Dir::Sent, msg::DONE, u32::MAX, 950),
        ];
        let p = attribute(&events);
        assert_eq!(p.verifier_setup_ns, Some(100), "set-up ends at the first send");
        assert_eq!(p.setup_exchange_ns, Some(300));
        assert_eq!(p.serve_ns, vec![290, 170], "two instances, the first from its first send");
        assert_eq!(p.verify_ns, vec![30, 50]);
        assert_eq!(p.retransmits, 2);
    }

    #[test]
    fn error_reply_closes_the_instance_and_truncated_sessions_stay_partial() {
        let events = [
            ev(Dir::Sent, msg::SETUP, 0, 10),
            ev(Dir::Received, msg::SETUP_ACK, 0, 20),
            ev(Dir::Sent, msg::INSTANCE_REQ, 1, 30),
            ev(Dir::Received, msg::ERROR, 1, 45),
            ev(Dir::Sent, msg::INSTANCE_REQ, 2, 50),
        ];
        let p = attribute(&events);
        assert_eq!(p.serve_ns, vec![15]);
        assert_eq!(p.verify_ns, vec![5]);
        let refused = attribute(&[ev(Dir::Sent, msg::SETUP, 0, 10), ev(Dir::Received, msg::ERROR, 0, 12)]);
        assert_eq!(refused.setup_exchange_ns, None);
        assert!(refused.serve_ns.is_empty());
    }

    /// A scripted transport: replies come from a queue, sends are kept.
    struct Script {
        replies: Vec<Frame>,
        sent: Vec<Frame>,
    }

    impl Transport for Script {
        fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
            self.sent.push(frame.clone());
            Ok(())
        }
        fn recv(&mut self, _deadline: Instant) -> Result<Frame, TransportError> {
            if self.replies.is_empty() {
                return Err(TransportError::TimedOut);
            }
            Ok(self.replies.remove(0))
        }
        fn stats(&self) -> TransportStats {
            TransportStats::default()
        }
    }

    #[test]
    fn decorator_stamps_in_order_and_tampers_exactly_one_response() {
        let payload = vec![0u8; 9];
        let script = Script {
            replies: vec![
                Frame::new(msg::SETUP_ACK, 0, Vec::new()),
                Frame::new(msg::INSTANCE_RESP, 1, payload.clone()),
                Frame::new(msg::INSTANCE_RESP, 2, payload.clone()),
            ],
            sent: Vec::new(),
        };
        let mut t = TimedTransport::new(script, Instant::now()).tampering();
        let far = Instant::now() + std::time::Duration::from_secs(1);
        t.send(&Frame::new(msg::SETUP, 0, vec![1, 2, 3])).unwrap();
        assert_eq!(t.recv(far).unwrap().msg_type, msg::SETUP_ACK);
        t.send(&Frame::new(msg::INSTANCE_REQ, 1, vec![0; 4])).unwrap();
        let first = t.recv(far).unwrap();
        t.send(&Frame::new(msg::INSTANCE_REQ, 2, vec![0; 4])).unwrap();
        let second = t.recv(far).unwrap();
        assert_eq!(first.payload.iter().filter(|&&b| b != 0).count(), 1, "one flipped byte");
        assert_eq!(second.payload, payload, "only the first response is tampered");
        let kinds: Vec<(Dir, u8)> = t.events().iter().map(|e| (e.dir, e.msg_type)).collect();
        assert_eq!(
            kinds,
            vec![
                (Dir::Sent, msg::SETUP),
                (Dir::Received, msg::SETUP_ACK),
                (Dir::Sent, msg::INSTANCE_REQ),
                (Dir::Received, msg::INSTANCE_RESP),
                (Dir::Sent, msg::INSTANCE_REQ),
                (Dir::Received, msg::INSTANCE_RESP),
            ]
        );
        assert!(t.events().windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(attribute(t.events()).serve_ns.len(), 2);
    }
}
