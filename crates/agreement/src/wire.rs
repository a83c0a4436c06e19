//! Tiny length-prefixed binary codec for protocol messages.
//!
//! Byzantine processes send arbitrary bytes, so every decoder here is
//! total: malformed input yields `None`, never a panic. Protocols treat
//! undecodable messages as absent (the oral-messages model's "no message"
//! default).

use bytes::Bytes;

/// Longest byte string [`Writer::put_bytes`] can frame: its length prefix
/// is a `u16`.
pub const FRAME_LIMIT: usize = u16::MAX as usize;

/// Append-only encoder.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates an empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
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

    /// Finishes, returning the encoded buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Whether `a` and `b` are known to hold the same content without reading
/// a long payload: clones of one shared [`Bytes`] (same address and
/// length), or two payloads short enough to live inline, compared byte for
/// byte. Re-framing code uses this to wrap a broadcast payload once for all
/// its destinations.
///
/// The inline case is not a shortcut but a requirement: clones of a payload
/// of at most [`bytes::INLINE_CAP`] bytes are copies at different
/// addresses, so identity alone would call two clones of a short — or
/// empty — part different and a whole multi-kilobyte frame would be rebuilt
/// per destination. Equal content ⇒ equal frame is all a re-framer needs,
/// and the compare is at most `INLINE_CAP` bytes.
pub fn same_buffer(a: &Bytes, b: &Bytes) -> bool {
    a.len() == b.len()
        && (a.as_ptr() == b.as_ptr() || (a.len() <= bytes::INLINE_CAP && a[..] == b[..]))
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
        let mut w = Writer::new();
        // 70 000 = 0x0001_1170: two u16 halves read back as one u32.
        w.put_u8(7).put_u16(300).put_u16(1).put_u16(0x1170);
        w.put_u64(u64::MAX);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u16(), Some(300));
        assert_eq!(r.get_u32(), Some(70_000));
        assert_eq!(r.get_u64(), Some(u64::MAX));
        assert!(r.is_exhausted());
    }

    #[test]
    fn round_trip_bytes() {
        let mut w = Writer::new();
        w.put_bytes(b"hello").put_bytes(b"");
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_bytes(), Some(b"hello".as_slice()));
        assert_eq!(r.get_bytes(), Some(b"".as_slice()));
    }

    #[test]
    fn truncated_input_yields_none() {
        let mut w = Writer::new();
        w.put_u64(42);
        let buf = w.finish();
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.get_u64(), None);
    }

    #[test]
    fn bogus_length_prefix_yields_none() {
        let mut r = Reader::new(&[0xff, 0xff, 1, 2, 3]);
        assert_eq!(r.get_bytes(), None);
    }

    #[test]
    fn same_buffer_is_identity_not_equality() {
        let long = vec![1u8; bytes::INLINE_CAP + 1];
        let a = Bytes::from(long.clone());
        assert!(same_buffer(&a, &a.clone()));
        assert!(!same_buffer(&a, &Bytes::from(long)), "equal, two buffers");
        assert!(!same_buffer(&a, &Bytes::from(vec![1u8; 64])));
    }

    #[test]
    fn same_buffer_compares_inline_payloads_by_content() {
        // A short payload lives in its handle: clones share no address, so
        // content is all there is to go by.
        let empty = Bytes::new();
        assert!(same_buffer(&empty.clone(), &empty.clone()));
        let a = Bytes::from(vec![1u8, 2, 3]);
        assert!(same_buffer(&a, &a.clone()));
        assert!(same_buffer(&a, &Bytes::from(vec![1u8, 2, 3])));
        assert!(!same_buffer(&a, &Bytes::from(vec![1u8, 2, 4])));
        assert!(!same_buffer(&a, &Bytes::from(vec![1u8, 2])));
        let cap = Bytes::from([9u8; bytes::INLINE_CAP]);
        assert!(same_buffer(&cap, &Bytes::from([9u8; bytes::INLINE_CAP])));
    }

    #[test]
    fn empty_reader() {
        let mut r = Reader::new(&[]);
        assert_eq!(r.get_u8(), None);
        assert!(r.is_exhausted());
    }
}
