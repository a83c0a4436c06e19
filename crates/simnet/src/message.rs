//! Message envelopes exchanged between processors.

use crate::ids::{ProcessId, Round};
use bytes::Bytes;

/// A message delivered to a processor at the start of a pulse.
///
/// Payloads are opaque bytes; protocol crates define their own encodings.
/// `Bytes` keeps broadcast fan-out cheap: a payload of at most
/// [`bytes::INLINE_CAP`] bytes travels inside the envelope (no allocation
/// at all), a longer one is one allocation shared by all recipients.
///
/// The envelope is 32 bytes. `Default` is the empty message from process 0
/// in round 0 — what the inbox store fills its buffer with before a
/// round's messages are placed; it allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Message {
    /// The sender. In the synchronous point-to-point model the receiver
    /// always knows which link a message arrived on, so sender identity is
    /// *not* forgeable — this matches the paper's oral-message assumptions.
    pub from: ProcessId,
    /// The round in which the message was sent (delivered the round after).
    pub sent_in: Round,
    /// Opaque protocol payload.
    pub payload: Bytes,
}

impl Message {
    /// Creates a message envelope.
    pub fn new(from: ProcessId, sent_in: Round, payload: impl Into<Bytes>) -> Message {
        Message {
            from,
            sent_in,
            payload: payload.into(),
        }
    }

    /// Payload as a byte slice.
    pub fn bytes(&self) -> &[u8] {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Message::new(ProcessId(2), Round(5), vec![1, 2, 3]);
        assert_eq!(m.from, ProcessId(2));
        assert_eq!(m.sent_in, Round(5));
        assert_eq!(m.bytes(), &[1, 2, 3]);
    }

    #[test]
    fn clone_shares_payload_cheaply() {
        let m = Message::new(ProcessId(0), Round(0), vec![9u8; 1024]);
        let m2 = m.clone();
        assert_eq!(m.payload, m2.payload);
        assert_eq!(m.payload.as_ptr(), m2.payload.as_ptr());
    }

    #[test]
    fn the_envelope_is_thirty_two_bytes() {
        // The inbox store's memory (32 B per pending message) and the routed
        // buffer's 40-byte entries rest on this layout.
        assert_eq!(std::mem::size_of::<Message>(), 32);
        assert_eq!(std::mem::size_of::<(ProcessId, Message)>(), 40);
        assert_eq!(Message::default(), Message::new(ProcessId(0), Round(0), []));
    }
}
