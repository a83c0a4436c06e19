//! Message authentication for the authenticated Byzantine agreement variant.
//!
//! The paper's footnote 2 assumes "authentication utilizes a Byzantine
//! agreement that needs only a majority" — i.e. with authenticated messages
//! the honest-processor threshold drops from n > 3f to n > 2f. Inside the
//! simulation we realize authentication with pairwise-less *keyed MACs*: a
//! [`KeyRing`] (the trusted setup a PKI would provide) hands each processor a
//! [`Authenticator`] that can sign for its own identity and verify every
//! other identity's tags.
//!
//! A Byzantine processor in the simulator never learns another processor's
//! key, so it cannot forge third-party signatures — exactly the model
//! assumption Dolev–Strong-style protocols need.
//!
//! ```
//! use ga_crypto::mac::{KeyRing, SignatureChain};
//!
//! let ring = KeyRing::generate(4, 99);
//! let alice = ring.authenticator(0);
//! let bob = ring.authenticator(1);
//! let chain = SignatureChain::originate(&alice, b"value=1").extend(&bob);
//! assert!(chain.valid(&ring.authenticator(2)));
//! // The same links under another value are not Alice's and Bob's signatures.
//! let forged = SignatureChain::from_parts(b"value=2".to_vec(), chain.links().to_vec());
//! assert!(!forged.valid(&bob));
//! ```

use std::sync::Arc;

use crate::hmac::{eq_digest, HmacKey};
use crate::prg::Prg;
use crate::Digest;

/// A signature tag over a message, bound to a signer identity.
pub type Tag = Digest;

/// Trusted key-setup: per-identity secret keys, all derived from one seed.
///
/// In a deployment this is a PKI; in the simulation the `KeyRing` is created
/// by the harness and each processor only ever holds its own
/// [`Authenticator`]. Verification uses the ring's *public* view (tag
/// recomputation), mirroring signature verification.
///
/// Each key is held as an [`HmacKey`], its padded blocks absorbed once, so
/// a sign or a verify costs two compressions for a short input; the ring
/// is shared, so cloning it (and handing out authenticators) copies a
/// pointer.
#[derive(Debug, Clone)]
pub struct KeyRing {
    keys: Arc<[HmacKey]>,
}

impl KeyRing {
    /// Derives `n` independent identity keys from `seed`.
    pub fn generate(n: usize, seed: u64) -> KeyRing {
        let mut prg = Prg::from_seed_material(b"ga-keyring", seed);
        let keys = (0..n).map(|_| HmacKey::new(&prg.next_block())).collect();
        KeyRing { keys }
    }

    /// Number of identities in the ring.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The signing/verifying handle for identity `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn authenticator(&self, id: usize) -> Authenticator {
        assert!(id < self.keys.len(), "identity {id} out of range");
        Authenticator {
            ring: self.clone(),
            id,
        }
    }
}

/// A per-identity handle: signs as `id`, verifies any identity.
///
/// The full ring is embedded so verification works; a Byzantine *model*
/// adversary is denied access to other identities' `sign` calls by the
/// simulator (it only ever gets its own `Authenticator` and the public
/// `verify`), which is what "unforgeable signatures" means inside the model.
#[derive(Debug, Clone)]
pub struct Authenticator {
    ring: KeyRing,
    id: usize,
}

impl Authenticator {
    /// The identity this authenticator signs for.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Signs `message` as this identity.
    fn sign(&self, message: &[u8]) -> Tag {
        self.ring.keys[self.id].mac(message)
    }

    /// Verifies that `tag` is `signer`'s signature over `message`.
    ///
    /// Returns `false` (rather than erroring) for out-of-range signers so
    /// protocol code can treat garbage identities as forgeries.
    pub fn verify(&self, signer: usize, message: &[u8], tag: &Tag) -> bool {
        match self.ring.keys.get(signer) {
            Some(key) => eq_digest(&key.mac(message), tag),
            None => false,
        }
    }
}

/// A signature chain for Dolev–Strong style relayed messages:
/// `v : p1 : p2 : ... : pk` where each processor signs the value plus all
/// previous signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureChain {
    value: Vec<u8>,
    /// `(signer, tag)` pairs in signing order.
    links: Vec<(usize, Tag)>,
}

impl SignatureChain {
    /// Reassembles a chain from wire data (value + ordered links).
    ///
    /// The result is *untrusted* until [`valid`](Self::valid) passes.
    pub fn from_parts(value: Vec<u8>, links: Vec<(usize, Tag)>) -> SignatureChain {
        SignatureChain { value, links }
    }

    /// The ordered `(signer, tag)` links, for serialization.
    pub fn links(&self) -> &[(usize, Tag)] {
        &self.links
    }

    /// Starts a chain: the originator signs the bare value.
    pub fn originate(auth: &Authenticator, value: &[u8]) -> SignatureChain {
        let mut chain = SignatureChain {
            value: value.to_vec(),
            links: Vec::new(),
        };
        let tag = auth.sign(&chain.signing_input());
        chain.links.push((auth.id(), tag));
        chain
    }

    /// Appends this processor's signature to the chain.
    pub fn extend(&self, auth: &Authenticator) -> SignatureChain {
        let mut chain = self.clone();
        let tag = auth.sign(&chain.signing_input());
        chain.links.push((auth.id(), tag));
        chain
    }

    /// The value being relayed.
    pub fn value(&self) -> &[u8] {
        &self.value
    }

    /// The ordered list of signer identities.
    pub fn signers(&self) -> impl Iterator<Item = usize> + '_ {
        self.links.iter().map(|(s, _)| *s)
    }

    /// Number of signatures on the chain.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the chain carries no signatures (never true for well-formed
    /// chains produced by [`originate`](Self::originate)).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Validates the whole chain: every tag verifies and signers are
    /// distinct. `verifier` may be any processor's authenticator.
    pub fn valid(&self, verifier: &Authenticator) -> bool {
        if self.links.is_empty() {
            return false;
        }
        let mut seen = std::collections::HashSet::new();
        let mut probe = SignatureChain {
            value: self.value.clone(),
            links: Vec::new(),
        };
        for &(signer, tag) in &self.links {
            if !seen.insert(signer) {
                return false; // duplicate signer
            }
            if !verifier.verify(signer, &probe.signing_input(), &tag) {
                return false;
            }
            probe.links.push((signer, tag));
        }
        true
    }

    /// Byte string each new signer authenticates: value plus prior links.
    fn signing_input(&self) -> Vec<u8> {
        let mut input = Vec::with_capacity(self.value.len() + self.links.len() * 40 + 16);
        input.extend_from_slice(&(self.value.len() as u64).to_be_bytes());
        input.extend_from_slice(&self.value);
        for (signer, tag) in &self.links {
            input.extend_from_slice(&(*signer as u64).to_be_bytes());
            input.extend_from_slice(tag);
        }
        input
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> KeyRing {
        KeyRing::generate(5, 7)
    }

    #[test]
    fn sign_verify_round_trip() {
        let r = ring();
        let a = r.authenticator(2);
        let tag = a.sign(b"msg");
        assert!(r.authenticator(4).verify(2, b"msg", &tag));
    }

    #[test]
    fn tampered_message_rejected() {
        let r = ring();
        let tag = r.authenticator(0).sign(b"msg");
        assert!(!r.authenticator(1).verify(0, b"msG", &tag));
    }

    #[test]
    fn wrong_signer_rejected() {
        let r = ring();
        let tag = r.authenticator(0).sign(b"msg");
        assert!(!r.authenticator(1).verify(3, b"msg", &tag));
    }

    #[test]
    fn out_of_range_signer_is_forgery() {
        let r = ring();
        let tag = r.authenticator(0).sign(b"msg");
        assert!(!r.authenticator(1).verify(99, b"msg", &tag));
    }

    #[test]
    fn distinct_rings_do_not_cross_verify() {
        let r1 = KeyRing::generate(3, 1);
        let r2 = KeyRing::generate(3, 2);
        let tag = r1.authenticator(0).sign(b"msg");
        assert!(!r2.authenticator(1).verify(0, b"msg", &tag));
    }

    #[test]
    fn chain_originate_and_extend_valid() {
        let r = ring();
        let chain = SignatureChain::originate(&r.authenticator(0), b"v=1");
        let chain = chain.extend(&r.authenticator(1));
        let chain = chain.extend(&r.authenticator(2));
        assert!(chain.valid(&r.authenticator(4)));
        assert_eq!(chain.signers().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn chain_with_duplicate_signer_invalid() {
        let r = ring();
        let chain = SignatureChain::originate(&r.authenticator(0), b"v=1");
        let chain = chain.extend(&r.authenticator(1));
        let chain = chain.extend(&r.authenticator(1));
        assert!(!chain.valid(&r.authenticator(2)));
    }

    #[test]
    fn chain_value_tamper_invalid() {
        let r = ring();
        let chain = SignatureChain::originate(&r.authenticator(0), b"v=1");
        let mut bad = chain.extend(&r.authenticator(1));
        bad.value = b"v=2".to_vec();
        assert!(!bad.valid(&r.authenticator(2)));
    }

    #[test]
    fn empty_chain_invalid() {
        let r = ring();
        let chain = SignatureChain {
            value: b"v".to_vec(),
            links: vec![],
        };
        assert!(!chain.valid(&r.authenticator(0)));
    }

    #[test]
    fn chain_signature_order_matters() {
        let r = ring();
        let c01 = SignatureChain::originate(&r.authenticator(0), b"v").extend(&r.authenticator(1));
        let c10 = SignatureChain::originate(&r.authenticator(1), b"v").extend(&r.authenticator(0));
        assert_ne!(c01, c10);
        assert!(c01.valid(&r.authenticator(2)));
        assert!(c10.valid(&r.authenticator(2)));
    }
}
