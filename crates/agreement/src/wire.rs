//! Tiny length-prefixed binary codec for protocol messages.
//!
//! Byzantine processes send arbitrary bytes, so every decoder here is
//! total: malformed input yields `None`, never a panic. Protocols treat
//! undecodable messages as absent (the oral-messages model's "no message"
//! default).

/// Longest byte string [`Writer::put_bytes`] or [`put_section`] can frame:
/// its length prefix is a `u16`.
pub const FRAME_LIMIT: usize = u16::MAX as usize;

/// Appending encoder: every `put_*` writes at the end of the caller's
/// buffer, so a message is built where it is sent from.
#[derive(Debug)]
pub struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Writer<'a> {
    /// A writer appending to `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer { buf }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a big-endian u16.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a big-endian u64.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Appends a u16-length-prefixed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `u16::MAX` — protocol payloads are tiny.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        let len = u16::try_from(bytes.len()).expect("payload fits u16 length");
        self.put_u16(len);
        self.buf.extend_from_slice(bytes);
        self
    }
}

/// Appends `head`, a `u16` length and whatever `body` appends after them:
/// the byte string [`Writer::put_bytes`] would frame, written in place
/// rather than copied in. The length is patched once `body` is done. If
/// `body` appends nothing, the head and the length are taken back and
/// `buf` is as it was: an empty body is no section.
///
/// # Panics
///
/// Panics if `body` appends more than [`FRAME_LIMIT`] bytes.
pub fn put_section(buf: &mut Vec<u8>, head: &[u8], body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    buf.extend_from_slice(head);
    buf.extend_from_slice(&[0, 0]);
    let at = buf.len();
    body(buf);
    if buf.len() == at {
        buf.truncate(start);
        return;
    }
    let len = u16::try_from(buf.len() - at).expect("payload fits u16 length");
    buf[at - 2..at].copy_from_slice(&len.to_be_bytes());
}

/// Cursor-based decoder; every getter is failure-safe.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Whether the cursor consumed everything.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a big-endian u16.
    pub fn get_u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_be_bytes([s[0], s[1]]))
    }

    /// Reads a big-endian u32.
    pub fn get_u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a big-endian u64.
    pub fn get_u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a u16-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.get_u16()? as usize;
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut buf = Vec::new();
        // 70 000 = 0x0001_1170: two u16 halves read back as one u32.
        let mut w = Writer::new(&mut buf);
        w.put_u8(7).put_u16(300).put_u16(1).put_u16(0x1170);
        w.put_u64(u64::MAX);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u16(), Some(300));
        assert_eq!(r.get_u32(), Some(70_000));
        assert_eq!(r.get_u64(), Some(u64::MAX));
        assert!(r.is_exhausted());
    }

    #[test]
    fn round_trip_bytes() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).put_bytes(b"hello").put_bytes(b"");
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_bytes(), Some(b"hello".as_slice()));
        assert_eq!(r.get_bytes(), Some(b"".as_slice()));
    }

    #[test]
    fn truncated_input_yields_none() {
        let mut buf = Vec::new();
        Writer::new(&mut buf).put_u64(42);
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.get_u64(), None);
    }

    #[test]
    fn bogus_length_prefix_yields_none() {
        let mut r = Reader::new(&[0xff, 0xff, 1, 2, 3]);
        assert_eq!(r.get_bytes(), None);
    }

    #[test]
    fn a_section_is_put_bytes_written_in_place() {
        let mut buf = vec![9];
        put_section(&mut buf, &[0xA1], |b| b.extend_from_slice(b"hello"));
        let mut expected = vec![9, 0xA1];
        Writer::new(&mut expected).put_bytes(b"hello");
        assert_eq!(buf, expected);
        // An empty body takes its head back.
        put_section(&mut buf, &[0, 3], |_| {});
        assert_eq!(buf, expected);
        // Sections nest: the outer length counts the inner head.
        let mut nested = Vec::new();
        put_section(&mut nested, &[7], |b| {
            put_section(b, &[0, 1], |b| b.push(5))
        });
        assert_eq!(nested, [7, 0, 5, 0, 1, 0, 1, 5]);
        put_section(&mut nested, &[7], |b| put_section(b, &[0, 1], |_| {}));
        assert_eq!(nested.len(), 8, "an empty inner section empties the outer");
    }

    #[test]
    #[should_panic(expected = "payload fits u16 length")]
    fn a_section_past_the_frame_limit_is_refused() {
        put_section(&mut Vec::new(), &[], |b| b.extend([0; FRAME_LIMIT + 1]));
    }

    #[test]
    fn empty_reader() {
        let mut r = Reader::new(&[]);
        assert_eq!(r.get_u8(), None);
        assert!(r.is_exhausted());
    }
}
