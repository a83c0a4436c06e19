//! HMAC-SHA256 (RFC 2104 / FIPS 198-1), built on the from-scratch
//! [`sha256`](crate::sha256) implementation.
//!
//! Used by [`mac`](crate::mac) to authenticate protocol messages in the
//! authenticated Byzantine agreement variant, and by
//! [`prg`](crate::prg) as the expansion function of the committed PRG.
//! Both hold a key for many messages, so they keep an [`HmacKey`]: the
//! two padded key blocks are absorbed once, and a tag over a message
//! shorter than 56 bytes costs two compressions instead of four.
//!
//! ```
//! use ga_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"key", b"message");
//! assert_eq!(tag, hmac_sha256(b"key", b"message"));
//! assert_ne!(tag, hmac_sha256(b"other key", b"message"));
//! ```

use crate::sha256::Sha256;
use crate::Digest;

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// An HMAC-SHA256 key with its inner and outer padded blocks already
/// absorbed: each [`mac`](Self::mac) resumes from the two hash states.
#[derive(Debug, Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Absorbs `key` XOR ipad and `key` XOR opad. Keys longer than the
    /// 64-byte block are pre-hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let absorb = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: absorb(IPAD),
            outer: absorb(OPAD),
        }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> Digest {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)` under a key used once.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// Constant-time digest comparison.
///
/// Inside the simulation timing attacks are not modelled, but verification
/// code should still never branch byte-by-byte on secret data.
pub fn eq_digest(a: &Digest, b: &Digest) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    // RFC 4231 test vectors for HMAC-SHA-256.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_vectors_hold_through_one_key_used_twice() {
        let case4_key: Vec<u8> = (0x01..=0x19).collect();
        let cases: [(&[u8], &[u8], &str); 6] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &case4_key,
                &[0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm.",
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ];
        for (i, (key, message, hex)) in cases.into_iter().enumerate() {
            let key = HmacKey::new(key);
            // A tag leaves the key as it was: the second one is the same.
            for _ in 0..2 {
                assert_eq!(to_hex(&key.mac(message)), hex, "case {i}");
            }
        }
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn different_messages_different_tags() {
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn eq_digest_agrees_with_eq() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(eq_digest(&a, &b));
        b[31] ^= 1;
        assert!(!eq_digest(&a, &b));
    }
}
