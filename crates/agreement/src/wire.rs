//! Tiny binary codec for protocol messages: fixed-width big-endian
//! scalars, `u16`-length-prefixed byte strings, and unsigned LEB128
//! varints (seven bits a byte, low group first, the high bit set on every
//! byte but the last), which is how a frame states small numbers — a clock
//! value, an instance, a part's length — in one byte below 128.
//!
//! Byzantine processes send arbitrary bytes, so every decoder here is
//! total: malformed input yields `None`, never a panic. Protocols treat
//! undecodable messages as absent (the oral-messages model's "no message"
//! default).

/// The bound on a part ([`put_section`]) and on a frame: 65 535 bytes.
/// [`Writer::put_bytes`] can frame no longer a string, its prefix being a
/// `u16`.
pub const FRAME_LIMIT: usize = u16::MAX as usize;

/// The longest LEB128 encoding of a `u64`: ten bytes.
const VARINT_MAX_LEN: usize = 10;

/// The length of `v`'s LEB128 encoding ([`Writer::put_varint`]).
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// `v` as an unsigned LEB128 varint, seven bits a byte, low group first:
/// the first [`varint_len`]`(v)` bytes of the array.
pub fn varint(mut v: u64) -> [u8; VARINT_MAX_LEN] {
    let mut bytes = [0; VARINT_MAX_LEN];
    for byte in &mut bytes {
        *byte = v as u8 & 0x7F;
        v >>= 7;
        if v == 0 {
            break;
        }
        *byte |= 0x80;
    }
    bytes
}

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

    /// Appends `v` as an unsigned LEB128 varint: one byte below 128, at
    /// most ten.
    pub fn put_varint(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&varint(v)[..varint_len(v)]);
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

/// Appends a section: `head` and the length of whatever `body` appends,
/// each an LEB128 varint, then the body, written in place rather than
/// copied in. One byte is held for the length and patched once `body` is
/// done; a body of 128 bytes or more moves over for the longer length. If
/// `body` appends nothing, the head is taken back and `buf` is as it was:
/// an empty body is no section.
///
/// # Panics
///
/// Panics if `body` appends more than [`FRAME_LIMIT`] bytes.
pub fn put_section(buf: &mut Vec<u8>, head: u64, body: impl FnOnce(&mut Vec<u8>)) {
    let start = buf.len();
    Writer::new(buf).put_varint(head).put_u8(0);
    let at = buf.len();
    body(buf);
    let len = buf.len() - at;
    if len == 0 {
        buf.truncate(start);
        return;
    }
    assert!(
        len <= FRAME_LIMIT,
        "a section of {len} bytes exceeds the {FRAME_LIMIT}-byte frame limit"
    );
    if len < 0x80 {
        buf[at - 1] = len as u8;
        return;
    }
    // Append the length, turn it to the front, and drop the held byte.
    Writer::new(buf).put_varint(len as u64);
    let k = buf.len() - at - len;
    buf[at - 1..].rotate_right(k);
    buf.remove(at - 1 + k);
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

    /// Reads an unsigned LEB128 varint; `None` if it runs past the end or
    /// past 64 bits. The cursor stays put on failure.
    pub fn get_varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let bytes = self.buf.get(self.pos..)?.iter().take(VARINT_MAX_LEN);
        for (i, &byte) in bytes.enumerate() {
            let group = u64::from(byte & 0x7F);
            if i == VARINT_MAX_LEN - 1 && group > 1 {
                return None;
            }
            v |= group << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Some(v);
            }
        }
        None
    }

    /// Reads a section ([`put_section`]): its head and its body.
    pub fn get_section(&mut self) -> Option<(u64, &'a [u8])> {
        let mut r = *self;
        let head = r.get_varint()?;
        let len = usize::try_from(r.get_varint()?).ok()?;
        let body = r.take(len)?;
        *self = r;
        Some((head, body))
    }

    /// Everything not yet read, consuming it.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        rest
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
    fn varints_take_seven_bits_a_byte() {
        let cases: [(u64, &[u8]); 6] = [
            (0, &[0]),
            (127, &[0x7F]),
            (128, &[0x80, 1]),
            (300, &[0xAC, 2]),
            (65_535, &[0xFF, 0xFF, 3]),
            (
                u64::MAX,
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1],
            ),
        ];
        for (v, bytes) in cases {
            let mut buf = Vec::new();
            Writer::new(&mut buf).put_varint(v);
            assert_eq!(buf, bytes, "{v}");
            assert_eq!(varint_len(v), bytes.len());
            let mut r = Reader::new(&buf);
            assert_eq!(r.get_varint(), Some(v));
            assert!(r.is_exhausted());
            // Cut short, it is no varint, and the cursor stays put.
            let mut r = Reader::new(&buf[..buf.len() - 1]);
            assert_eq!(r.get_varint(), None);
            assert_eq!(r.rest(), &buf[..buf.len() - 1]);
        }
        // Past 64 bits: a tenth byte above 1, or an eleventh byte.
        let mut r = Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2]);
        assert_eq!(r.get_varint(), None);
        assert_eq!(Reader::new(&[0x80; 11]).get_varint(), None);
    }

    #[test]
    fn a_section_is_its_head_and_length_written_in_place() {
        let mut buf = vec![9];
        put_section(&mut buf, 0xA1, |b| b.extend_from_slice(b"hello"));
        assert_eq!(buf, [&[9, 0xA1, 1, 5][..], b"hello"].concat());
        assert_eq!(
            Reader::new(&buf[1..]).get_section(),
            Some((0xA1, &b"hello"[..]))
        );
        let expected = buf.clone();
        // An empty body takes its head back.
        put_section(&mut buf, 300, |_| {});
        assert_eq!(buf, expected);
        // Sections nest: the outer length counts the inner head.
        let mut nested = Vec::new();
        put_section(&mut nested, 7, |b| put_section(b, 1, |b| b.push(5)));
        assert_eq!(nested, [7, 3, 1, 1, 5]);
        put_section(&mut nested, 7, |b| put_section(b, 1, |_| {}));
        assert_eq!(nested.len(), 5, "an empty inner section empties the outer");
        // A body of 128 bytes or more takes a longer length, and keeps its
        // bytes.
        for len in [127, 128, 300, FRAME_LIMIT] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut buf = vec![9];
            put_section(&mut buf, 2, |b| b.extend_from_slice(&body));
            let mut r = Reader::new(&buf[1..]);
            assert_eq!(r.get_section(), Some((2, &body[..])), "len {len}");
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn a_damaged_section_reads_as_none_and_leaves_the_cursor() {
        let mut buf = Vec::new();
        put_section(&mut buf, 3, |b| b.extend_from_slice(b"abc"));
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert_eq!(r.get_section(), None, "cut at {cut}");
            assert_eq!(r.rest(), &buf[..cut]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 65535-byte frame limit")]
    fn a_section_past_the_frame_limit_is_refused() {
        put_section(&mut Vec::new(), 0, |b| b.extend([0; FRAME_LIMIT + 1]));
    }

    #[test]
    fn empty_reader() {
        let mut r = Reader::new(&[]);
        assert_eq!(r.get_u8(), None);
        assert!(r.is_exhausted());
    }
}
