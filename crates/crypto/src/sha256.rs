//! From-scratch SHA-256 (FIPS 180-4).
//!
//! Implemented directly from the specification so the workspace carries no
//! external cryptography dependency. Verified against the FIPS test vectors
//! in the unit tests below.
//!
//! # Two compressions, one function
//!
//! Everything a play hashes (commitments and their openings, nonce and MAC
//! HMACs) comes down to the 64-round compression of one 64-byte block. It
//! has two implementations, and a hasher picks one per block by asking the
//! CPU:
//!
//! * on x86-64 with the SHA extensions (and the SSSE3 / SSE4.1 they come
//!   with), `compress_sha_ni` runs two rounds per `sha256rnds2` and four
//!   schedule words per `sha256msg1` / `sha256msg2`. It is compiled with
//!   those features enabled, and is entered only after
//!   `is_x86_feature_detected!` has found all of them;
//! * everywhere else, `compress_scalar` runs the rounds as FIPS 180-4
//!   writes them.
//!
//! The scalar compression is kept for two reasons: it is the portable
//! fallback (another architecture, an older x86-64), and it is the oracle
//! the fast one is property-tested against. Both compute the same
//! function, so no digest, nonce or byte on the wire depends on the host.
//! There is no flag, feature or environment switch: CPU detection is the
//! only one. The intrinsics come from `core::arch`; the crate still has no
//! dependency.
//!
//! ```
//! use ga_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     ga_crypto::to_hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use crate::Digest;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Feed data with [`update`](Self::update), then call
/// [`finalize`](Self::finalize). For one-shot hashing use
/// [`Sha256::digest`].
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes (the padding encodes it in bits).
    length: u64,
    /// Compress with the scalar rounds even where SHA-NI is present: the
    /// reference side of the differential tests.
    #[cfg(test)]
    scalar_only: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length: 0,
            #[cfg(test)]
            scalar_only: false,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot hash of several segments, unambiguously length-prefixed.
    ///
    /// Unlike hashing the concatenation, `digest_parts(&[a, b])` differs from
    /// `digest_parts(&[ab, empty])`, which protects protocol transcripts
    /// against splice attacks.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(&(p.len() as u64).to_be_bytes());
            h.update(p);
        }
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut input = data;
        // Top up a partially filled buffer first.
        if self.buffered > 0 {
            let need = 64 - self.buffered;
            let take = need.min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffered = 0;
            }
        }
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("chunks of 64 bytes"));
        }
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered += rest.len();
    }

    /// Applies FIPS 180-4 padding and returns the digest, consuming the
    /// hasher.
    ///
    /// The padding is written into the last block in one go: the 0x80
    /// terminator after the buffered bytes, zeros, and the 64-bit message
    /// length in bits in the last eight bytes. When the terminator leaves
    /// no room for the length (56 or more bytes buffered), the length goes
    /// into one more, otherwise zero, block.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.length.wrapping_mul(8);
        let mut block = self.buffer;
        block[self.buffered] = 0x80;
        block[self.buffered + 1..].fill(0);
        if self.buffered >= 56 {
            self.compress(&block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Compresses one block into the state, with the CPU's SHA extensions
    /// where it has them and the scalar rounds otherwise.
    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(test)]
        if self.scalar_only {
            return compress_scalar(&mut self.state, block);
        }
        #[cfg(target_arch = "x86_64")]
        if sha_ni() {
            // SAFETY: compress_sha_ni enables sha, sse2, ssse3 and sse4.1,
            // and sha_ni() has just detected all four on this CPU.
            #[allow(unsafe_code)]
            return unsafe { compress_sha_ni(&mut self.state, block) };
        }
        compress_scalar(&mut self.state, block);
    }
}

/// Whether this CPU has every feature [`compress_sha_ni`] is compiled
/// with. `is_x86_feature_detected!` caches what it finds, so a call is a
/// few loads and bit tests.
#[cfg(target_arch = "x86_64")]
fn sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// The 64 rounds of FIPS 180-4 §6.2.2 over one block, word by word: the
/// portable compression, and the reference [`compress_sha_ni`] is tested
/// against.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

/// The same 64 rounds with the SHA extensions.
///
/// The state travels as the two vectors `sha256rnds2` works on, `abef`
/// and `cdgh` (named from lane 3 down). A group of four rounds adds four
/// round constants to four schedule words; one `sha256rnds2` runs two
/// rounds on the low two sums, a second runs two on the high two.
/// Schedule words 16..63 come four at a time from the four vectors before
/// them: `sha256msg1` adds σ0, `alignr` brings in `W[t−7]`, `sha256msg2`
/// adds σ1. Words go into vectors with `_mm_set_epi32` and come out with
/// `_mm_extract_epi32`, so nothing is read or written through a pointer.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    let s = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
    let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
    let (abef_in, cdgh_in) = (abef, cdgh);

    let w: [i32; 16] = std::array::from_fn(|i| {
        i32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ])
    });
    // Four schedule vectors, lane 0 first; group `i` lives in `msg[i % 4]`.
    let mut msg = [
        _mm_set_epi32(w[3], w[2], w[1], w[0]),
        _mm_set_epi32(w[7], w[6], w[5], w[4]),
        _mm_set_epi32(w[11], w[10], w[9], w[8]),
        _mm_set_epi32(w[15], w[14], w[13], w[12]),
    ];
    for i in 0..16 {
        if i >= 4 {
            let (w0, w1, w2, w3) = (
                msg[i % 4],
                msg[(i + 1) % 4],
                msg[(i + 2) % 4],
                msg[(i + 3) % 4],
            );
            let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
            msg[i % 4] = _mm_sha256msg2_epu32(partial, w3);
        }
        let k = [K[4 * i], K[4 * i + 1], K[4 * i + 2], K[4 * i + 3]].map(|c| c as i32);
        let wk = _mm_add_epi32(msg[i % 4], _mm_set_epi32(k[3], k[2], k[1], k[0]));
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|word| word as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;
    use proptest::prelude::*;
    use std::io::Write;

    /// A hasher that compresses with the scalar rounds only.
    fn scalar() -> Sha256 {
        Sha256 {
            scalar_only: true,
            ..Sha256::new()
        }
    }

    /// `data` hashed by a scalar-only hasher and by a dispatched one.
    fn both_paths(data: &[u8]) -> [Digest; 2] {
        [scalar(), Sha256::new()].map(|mut h| {
            h.update(data);
            h.finalize()
        })
    }

    /// Asserts that both paths hash `data` to `hex`.
    fn assert_vector(data: &[u8], hex: &str) {
        let [scalar, dispatched] = both_paths(data).map(|d| to_hex(&d));
        assert_eq!(scalar, hex, "scalar path");
        assert_eq!(dispatched, hex, "dispatched path");
    }

    /// Whether the dispatched compression is the SHA-NI one on this host.
    /// When it is not, says so on stderr (written past the test harness's
    /// output capture), so a differential test never passes unnoticed
    /// with only one side run.
    fn sha_ni_or_skip(test: &str) -> bool {
        #[cfg(target_arch = "x86_64")]
        if sha_ni() {
            return true;
        }
        let _ = writeln!(
            std::io::stderr(),
            "{test}: SHA-NI half SKIPPED, this CPU has no SHA extensions"
        );
        false
    }

    impl Sha256 {
        /// The padding as first written: the terminator and each zero fed
        /// through `update` one byte at a time. The reference the one-write
        /// `finalize` is tested against.
        fn finalize_bytewise(mut self) -> Digest {
            let bit_len = self.length.wrapping_mul(8);
            self.update(&[0x80]);
            while self.buffered != 56 {
                self.update(&[0]);
            }
            self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
            let block = self.buffer;
            self.compress(&block);
            let mut out = [0u8; 32];
            for (i, word) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
            }
            out
        }
    }

    // FIPS 180-4 / NIST CAVS reference vectors, each through both paths.
    #[test]
    fn empty_string_vector() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn one_write_padding_equals_bytewise_padding_at_every_length_to_130() {
        sha_ni_or_skip("one_write_padding_equals_bytewise_padding_at_every_length_to_130");
        for len in 0..=130usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let mut reference = scalar();
            reference.update(&data);
            let expected = reference.finalize_bytewise();
            assert_eq!(both_paths(&data), [expected; 2], "len={len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The dispatched compression against the scalar one on arbitrary
        /// states and blocks; run by the test below where the dispatch is
        /// SHA-NI.
        fn dispatched_compression_equals_scalar(state in any::<[u32; 8]>(),
                                                block in any::<[u8; 64]>()) {
            let mut dispatched = Sha256 { state, ..Sha256::new() };
            dispatched.compress(&block);
            let mut reference = state;
            compress_scalar(&mut reference, &block);
            prop_assert_eq!(dispatched.state, reference);
        }
    }

    #[test]
    fn sha_ni_compression_equals_scalar_on_random_states_and_blocks() {
        if sha_ni_or_skip("sha_ni_compression_equals_scalar_on_random_states_and_blocks") {
            dispatched_compression_equals_scalar();
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 55, 56, 63, 64, 65 bytes stress the padding logic.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; len];
            let one_shot = Sha256::digest(&data);
            // Split feeding must agree with one-shot.
            let mut h = Sha256::new();
            let mid = len / 3;
            h.update(&data[..mid]);
            h.update(&data[mid..]);
            assert_eq!(h.finalize(), one_shot, "len={len}");
        }
    }

    #[test]
    fn incremental_equals_one_shot_bytewise() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn digest_parts_is_not_concatenation() {
        let a = Sha256::digest_parts(&[b"ab", b"c"]);
        let b = Sha256::digest_parts(&[b"a", b"bc"]);
        let c = Sha256::digest_parts(&[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn digest_parts_deterministic() {
        assert_eq!(
            Sha256::digest_parts(&[b"x", b"y"]),
            Sha256::digest_parts(&[b"x", b"y"])
        );
    }
}
