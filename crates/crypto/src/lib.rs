//! # ga-crypto — cryptographic substrate for the game authority
//!
//! The game authority of Dolev, Schiller, Spirakis and Tsigas (PODC'07 /
//! TCS'10) relies on three cryptographic building blocks:
//!
//! * a **commitment scheme** (Blum, SIGACT News 1983) so that the choices of
//!   all honest agents are *private and simultaneous* — agents commit before
//!   anyone reveals (paper §3.2 requirement 2, §3.3);
//! * a **committed pseudo-random generator** so the judicial service can
//!   validate that a *mixed* strategy was sampled honestly — agents commit to
//!   a seed, and every revealed action must equal the PRG output for that
//!   seed (paper §5.3);
//! * **message authentication** for the authenticated Byzantine agreement
//!   variant that needs only an honest majority (paper footnote 2).
//!
//! Everything here is implemented from scratch on top of a from-scratch
//! [SHA-256](sha256::Sha256) so the workspace needs no external crypto
//! dependency. The goal is *model-level* soundness (binding/hiding inside the
//! simulation, unforgeability against simulated adversaries), not resistance
//! to real-world attackers; a production deployment would swap in audited
//! implementations behind the same interfaces.
//!
//! ## Quickstart
//!
//! ```
//! use ga_crypto::commitment::Commitment;
//!
//! # fn main() -> Result<(), ga_crypto::CryptoError> {
//! // Agent commits to an action without revealing it...
//! let (commit, opening) = Commitment::commit(b"heads", [7u8; 32]);
//! // ...everyone receives `commit`, then the agent reveals:
//! commit.verify(b"heads", &opening)?;
//! assert!(commit.verify(b"tails", &opening).is_err());
//! # Ok(())
//! # }
//! ```

// One exception, allowed where it stands: the call of the SHA-NI
// compression in `sha256.rs`, behind the CPU check.
#![deny(unsafe_code)]

pub mod audit_log;
pub mod commitment;
pub mod hmac;
pub mod mac;
pub mod prg;
pub mod sha256;

use std::error::Error;
use std::fmt;

/// Errors produced by the cryptographic substrate.
///
/// Every failure mode the judicial service can act on is a distinct variant,
/// so audit code can punish precisely (wrong opening vs. forged tag vs.
/// seed/action mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// A commitment opening did not match the committed digest.
    BadOpening,
    /// A MAC tag failed verification.
    BadTag,
    /// A revealed PRG seed does not reproduce the claimed outputs.
    SeedMismatch,
    /// An audit-log entry does not extend the chain correctly.
    BrokenChain {
        /// Index of the first entry whose chaining hash is inconsistent.
        index: usize,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::BadOpening => write!(f, "commitment opening does not match digest"),
            CryptoError::BadTag => write!(f, "message authentication tag is invalid"),
            CryptoError::SeedMismatch => {
                write!(f, "revealed seed does not reproduce committed outputs")
            }
            CryptoError::BrokenChain { index } => {
                write!(f, "audit log chain broken at entry {index}")
            }
        }
    }
}

impl Error for CryptoError {}

/// A 256-bit digest, the common currency of this crate.
pub type Digest = [u8; 32];

/// Encodes bytes as lowercase hex, used by `Debug`/`Display` impls and tests.
///
/// ```
/// assert_eq!(ga_crypto::to_hex(&[0xde, 0xad]), "dead");
/// ```
pub fn to_hex(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_handles_empty() {
        assert_eq!(to_hex(&[]), "");
    }

    #[test]
    fn error_display_is_lowercase_without_period() {
        let msgs = [
            CryptoError::BadOpening.to_string(),
            CryptoError::BadTag.to_string(),
            CryptoError::SeedMismatch.to_string(),
            CryptoError::BrokenChain { index: 3 }.to_string(),
        ];
        for m in msgs {
            assert!(!m.ends_with('.'), "{m}");
            assert!(m.chars().next().unwrap().is_lowercase(), "{m}");
        }
    }
}
