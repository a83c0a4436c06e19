//! Authenticated Byzantine broadcast (Dolev–Strong signature chains).
//!
//! With message authentication the fault threshold collapses: broadcast
//! works for *any* number of Byzantine processors, and multivalued
//! consensus needs only an honest majority — the paper's footnote 2
//! ("authentication utilizes a Byzantine agreement that needs only a
//! majority").
//!
//! Protocol: the source signs its value and sends it. A processor that
//! accepts, at step `t`, a valid chain with `t` distinct signatures
//! starting with the source, adds the value to its accepted set and — if
//! `t ≤ f` — relays the chain extended with its own signature. After step
//! `f+1`, a processor decides the unique accepted value, or the default if
//! it accepted zero or several (the source equivocated).
//!
//! A round's payload is the chains the processor sends that round, each
//! self-delimiting, back to back: one chain, except when a source that
//! equivocated has this processor accept — and so relay — two values in
//! one round.

use std::collections::BTreeSet;

use ga_crypto::mac::{Authenticator, SignatureChain, Tag};

use crate::consensus::Broadcast;
use crate::traits::BaInstance;
use crate::wire::{Reader, Writer};
use crate::{Value, DEFAULT_VALUE};

/// One authenticated broadcast instance at one processor.
pub struct DolevStrongBroadcast {
    me: usize,
    f: usize,
    source: usize,
    auth: Authenticator,
    input: Value,
    accepted: BTreeSet<Value>,
    /// Values we have already relayed (relay each at most once).
    relayed: BTreeSet<Value>,
    decided: Option<Value>,
}

impl std::fmt::Debug for DolevStrongBroadcast {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DolevStrongBroadcast")
            .field("me", &self.me)
            .field("source", &self.source)
            .field("decided", &self.decided)
            .finish_non_exhaustive()
    }
}

impl DolevStrongBroadcast {
    /// Creates the instance for processor `me`; `auth` must be `me`'s
    /// authenticator from the shared key ring.
    ///
    /// # Panics
    ///
    /// Panics if ids are out of range or `auth` is not `me`'s.
    pub fn new(me: usize, n: usize, f: usize, source: usize, auth: Authenticator) -> Self {
        assert!(me < n && source < n, "ids in range");
        assert_eq!(auth.id(), me, "authenticator must belong to this processor");
        DolevStrongBroadcast {
            me,
            f,
            source,
            auth,
            input: DEFAULT_VALUE,
            accepted: BTreeSet::new(),
            relayed: BTreeSet::new(),
            decided: None,
        }
    }

    /// Appends `chain` to `out`: the value, the signer count, the signers
    /// and their tags in chain order.
    fn encode_chain(chain: &SignatureChain, out: &mut Vec<u8>) {
        let mut w = Writer::new(out);
        w.put_bytes(chain.value());
        w.put_u16(chain.len() as u16);
        for signer in chain.signers() {
            w.put_u16(signer as u16);
        }
        for (_, tag) in chain.links() {
            w.put_bytes(tag);
        }
    }

    /// Reads one chain off `r`.
    fn decode_chain(r: &mut Reader<'_>) -> Option<SignatureChain> {
        let value = r.get_bytes()?.to_vec();
        let count = r.get_u16()? as usize;
        if count == 0 || count > 1024 {
            return None;
        }
        let mut signers = Vec::with_capacity(count);
        for _ in 0..count {
            signers.push(r.get_u16()? as usize);
        }
        let mut links = Vec::with_capacity(count);
        for signer in signers {
            let tag: Tag = r.get_bytes()?.try_into().ok()?;
            links.push((signer, tag));
        }
        Some(SignatureChain::from_parts(value, links))
    }

    fn value_of(chain: &SignatureChain) -> Option<Value> {
        chain.value().try_into().ok().map(u64::from_be_bytes)
    }

    /// Takes every chain of every inbox payload, in order, up to the first
    /// that does not decode.
    fn accept_all(&mut self, step: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
        for &(_, payload) in inbox {
            let mut r = Reader::new(payload);
            while !r.is_exhausted() {
                let Some(chain) = Self::decode_chain(&mut r) else {
                    break;
                };
                self.accept_and_relay(step, &chain, out);
            }
        }
    }

    fn accept_and_relay(&mut self, step: u64, chain: &SignatureChain, out: &mut Vec<u8>) {
        // Validity conditions per Dolev–Strong.
        if !chain.valid(&self.auth) {
            return;
        }
        let signers: Vec<usize> = chain.signers().collect();
        if signers.first() != Some(&self.source) {
            return;
        }
        if (chain.len() as u64) < step {
            return; // stale chain, too few signatures for this step
        }
        if signers.contains(&self.me) {
            return;
        }
        let Some(value) = Self::value_of(chain) else {
            return;
        };
        let newly = self.accepted.insert(value);
        // Track at most two values — enough to detect equivocation.
        if newly && self.accepted.len() <= 2 && step <= self.f as u64 && self.relayed.insert(value)
        {
            Self::encode_chain(&chain.extend(&self.auth), out);
        }
    }
}

/// A chain is never told in one value: a consensus of these sends its
/// rounds plain.
impl Broadcast for DolevStrongBroadcast {}

impl BaInstance for DolevStrongBroadcast {
    fn begin(&mut self, input: Value) {
        self.input = input;
        self.accepted.clear();
        self.relayed.clear();
        self.decided = None;
    }

    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
        let f = self.f as u64;
        match rel_round {
            // Step 0: only the source signs and sends; everyone else stays
            // silent and ignores its round-0 inbox (stale cross-period
            // chains must not be accepted — the self-stabilizing wrap
            // relies on it, and the `chain.len() < step` staleness guard
            // is vacuous at step 0).
            0 => {
                if self.me != self.source {
                    return;
                }
                let chain = SignatureChain::originate(&self.auth, &self.input.to_be_bytes());
                self.accepted.insert(self.input);
                Self::encode_chain(&chain, out);
            }
            t if t <= f + 1 => {
                self.accept_all(t, inbox, out);
                if t == f + 1 {
                    self.decided = Some(if self.accepted.len() == 1 {
                        *self.accepted.iter().next().expect("len checked")
                    } else {
                        DEFAULT_VALUE
                    });
                }
            }
            _ => {}
        }
    }

    fn rounds(&self) -> u64 {
        self.f as u64 + 2
    }

    fn decided(&self) -> Option<Value> {
        self.decided
    }

    fn name(&self) -> &'static str {
        "dolev-strong"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{no_tamper as honest, run_pure};
    use ga_crypto::mac::KeyRing;

    fn ring(n: usize) -> KeyRing {
        KeyRing::generate(n, 2024)
    }

    /// The encoding of `chain`, on its own.
    fn chain_bytes(chain: &SignatureChain) -> Vec<u8> {
        let mut out = Vec::new();
        DolevStrongBroadcast::encode_chain(chain, &mut out);
        out
    }

    /// The chains a payload carries, up to the first that does not decode.
    fn chains(payload: &[u8]) -> Vec<SignatureChain> {
        let mut r = Reader::new(payload);
        std::iter::from_fn(|| DolevStrongBroadcast::decode_chain(&mut r)).collect()
    }

    #[test]
    fn broadcast_honest_source() {
        let n = 4;
        let r = ring(n);
        let instances: Vec<DolevStrongBroadcast> = (0..n)
            .map(|me| DolevStrongBroadcast::new(me, n, 1, 0, r.authenticator(me)))
            .collect();
        let decided = run_pure(instances, &[77, 0, 0, 0], honest);
        assert!(decided.iter().all(|d| *d == Some(77)));
    }

    #[test]
    fn equivocating_source_yields_common_default() {
        // Source signs two different values and sends one to each half.
        // Honest relays expose the equivocation: everyone accepts both
        // values and falls to the default.
        let n = 4;
        let r = ring(n);
        let auth0 = r.authenticator(0);
        let instances: Vec<DolevStrongBroadcast> = (0..n)
            .map(|me| DolevStrongBroadcast::new(me, n, 1, 0, r.authenticator(me)))
            .collect();
        let decided = run_pure(
            instances,
            &[7, 0, 0, 0],
            |from: usize, round: u64, to: usize, _p: &[u8]| {
                if from == 0 && round == 0 {
                    let v: u64 = if to.is_multiple_of(2) { 7 } else { 8 };
                    let chain = SignatureChain::originate(&auth0, &v.to_be_bytes());
                    Some(chain_bytes(&chain))
                } else {
                    None
                }
            },
        );
        let honest_decisions: Vec<_> = (1..4).map(|i| decided[i]).collect();
        assert!(honest_decisions.iter().all(|d| *d == honest_decisions[0]));
        assert_eq!(honest_decisions[0], Some(DEFAULT_VALUE));
    }

    #[test]
    fn forged_chain_rejected() {
        // A Byzantine relay tampers with the value; MAC verification drops
        // the chain, so validity holds for the honest source's value.
        let n = 4;
        let r = ring(n);
        let instances: Vec<DolevStrongBroadcast> = (0..n)
            .map(|me| DolevStrongBroadcast::new(me, n, 1, 0, r.authenticator(me)))
            .collect();
        let decided = run_pure(
            instances,
            &[50, 0, 0, 0],
            |from: usize, round: u64, _to: usize, p: &[u8]| {
                if from == 3 && round > 0 {
                    // Flip a byte mid-payload.
                    let mut bad = p.to_vec();
                    if bad.len() > 4 {
                        bad[4] ^= 0xff;
                    }
                    Some(bad)
                } else {
                    None
                }
            },
        );
        for (me, d) in decided.iter().enumerate().take(3) {
            assert_eq!(*d, Some(50), "honest p{me}");
        }
    }

    #[test]
    fn non_source_is_silent_and_deaf_at_round_zero() {
        // Regression: a validly-signed stale chain landing at round 0
        // (e.g. re-sent across an SSBA period wrap) must be ignored — the
        // `chain.len() < step` staleness guard is vacuous at step 0.
        let r = ring(4);
        let stale_chain = SignatureChain::originate(&r.authenticator(0), &7u64.to_be_bytes());
        let encoded = chain_bytes(&stale_chain);
        let mut inst = DolevStrongBroadcast::new(1, 4, 1, 0, r.authenticator(1));
        inst.begin(0);
        let inbox: Vec<(usize, &[u8])> = vec![(3, encoded.as_slice())];
        let mut out = Vec::new();
        inst.step(0, &inbox, &mut out);
        assert!(out.is_empty(), "non-source stays silent at round 0");
        for rel in 1..inst.rounds() {
            inst.step(rel, &[], &mut out);
        }
        assert_eq!(
            inst.decided(),
            Some(DEFAULT_VALUE),
            "stale round-0 chain was not accepted"
        );
    }

    #[test]
    fn chain_codec_round_trip() {
        let r = ring(3);
        let chain = SignatureChain::originate(&r.authenticator(0), &42u64.to_be_bytes());
        let chain = chain.extend(&r.authenticator(1));
        let decoded = chains(&chain_bytes(&chain));
        assert_eq!(decoded.len(), 1);
        assert!(decoded[0].valid(&r.authenticator(2)));
        assert_eq!(DolevStrongBroadcast::value_of(&decoded[0]), Some(42));
    }

    #[test]
    fn two_values_accepted_in_one_round_are_relayed_in_one_payload() {
        // The source signs two values and sends both chains, back to back,
        // to everyone. Each honest processor accepts both at step 1 and
        // relays both — two chains, one payload — so all fall to the
        // default together.
        let n = 4;
        let r = ring(n);
        let auth0 = r.authenticator(0);
        let both: Vec<u8> = [7u64, 8]
            .iter()
            .flat_map(|v| chain_bytes(&SignatureChain::originate(&auth0, &v.to_be_bytes())))
            .collect();
        let instances: Vec<DolevStrongBroadcast> = (0..n)
            .map(|me| DolevStrongBroadcast::new(me, n, 1, 0, r.authenticator(me)))
            .collect();
        let mut relays = Vec::new();
        let decided = run_pure(
            instances,
            &[7, 0, 0, 0],
            |from: usize, round: u64, _to: usize, p: &[u8]| {
                if from == 0 && round == 0 {
                    return Some(both.clone());
                }
                if round == 1 {
                    relays.push(chains(p));
                }
                None
            },
        );
        assert_eq!(relays.len(), 3 * 3, "three relayers, three destinations");
        for relayed in &relays {
            let values: Vec<_> = relayed.iter().map(DolevStrongBroadcast::value_of).collect();
            assert_eq!(values, [Some(7), Some(8)]);
            assert!(relayed.iter().all(|chain| chain.len() == 2), "signed on");
        }
        assert!(decided[1..].iter().all(|d| *d == Some(DEFAULT_VALUE)));
    }

    #[test]
    fn restart_clears_accepted_values() {
        let n = 4;
        let r = ring(n);
        let make = || -> Vec<DolevStrongBroadcast> {
            (0..n)
                .map(|me| DolevStrongBroadcast::new(me, n, 1, 0, r.authenticator(me)))
                .collect()
        };
        let first = run_pure(make(), &[5, 0, 0, 0], honest);
        assert!(first.iter().all(|d| *d == Some(5)));
        let second = run_pure(make(), &[6, 0, 0, 0], honest);
        assert!(second.iter().all(|d| *d == Some(6)));
    }
}
