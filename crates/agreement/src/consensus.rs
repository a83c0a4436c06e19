//! Interactive consistency and multivalued consensus.
//!
//! [`VectorConsensus`] runs `n` parallel broadcast instances — one per
//! source — multiplexed over the same rounds, producing the classic
//! *interactive consistency* vector; the consensus decision is the strict
//! majority of the agreed vector (default when none). This is the shape the
//! judicial service uses: "the Byzantine agreement protocol is used in
//! order to ensure that all agents agree on the set of commitments" (§3.3)
//! — each agent broadcasts its commitment digest, everyone agrees on the
//! whole vector.

use bytes::Bytes;
use ga_crypto::mac::Authenticator;

use crate::dolev_strong::DolevStrongBroadcast;
use crate::om::{full_relay_len, OmBroadcast};
use crate::traits::{BaInstance, Send};
use crate::wire::{same_buffer, Reader, Writer, FRAME_LIMIT};
use crate::{Value, DEFAULT_VALUE};

/// Majority consensus over `n` parallel per-source broadcasts.
///
/// Generic over the broadcast protocol `B`; see [`OmConsensus`] and
/// [`DolevStrongConsensus`] for ready-made instantiations.
pub struct VectorConsensus<B> {
    me: usize,
    n: usize,
    instances: Vec<B>,
    decided: Option<Value>,
}

impl<B: BaInstance> std::fmt::Debug for VectorConsensus<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorConsensus")
            .field("me", &self.me)
            .field("n", &self.n)
            .field("decided", &self.decided)
            .finish_non_exhaustive()
    }
}

impl<B: BaInstance> VectorConsensus<B> {
    /// Builds from one broadcast instance per source (`instances[s]` must
    /// be the instance whose source is `s`, from `me`'s perspective).
    ///
    /// # Panics
    ///
    /// Panics if `instances` is empty or `me` is out of range.
    fn from_instances(me: usize, instances: Vec<B>) -> VectorConsensus<B> {
        assert!(!instances.is_empty(), "need at least one source");
        assert!(me < instances.len(), "me out of range");
        VectorConsensus {
            me,
            n: instances.len(),
            instances,
            decided: None,
        }
    }

    /// The agreed per-source vector (fully populated after the final
    /// round).
    pub fn vector(&self) -> Vec<Option<Value>> {
        self.instances.iter().map(|i| i.decided()).collect()
    }
}

impl<B: BaInstance> BaInstance for VectorConsensus<B> {
    fn begin(&mut self, input: Value) {
        for (src, inst) in self.instances.iter_mut().enumerate() {
            // Only my own broadcast carries my input; for others I am a
            // relay/receiver and the input is irrelevant.
            inst.begin(if src == self.me { input } else { DEFAULT_VALUE });
        }
        self.decided = None;
    }

    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], send: &mut Send<'_>) {
        // Demultiplex: each wire message is a sequence of
        // (instance u16, inner payload) parts.
        let mut per_instance: Vec<Vec<(usize, &[u8])>> = vec![Vec::new(); self.n];
        for &(sender, payload) in inbox {
            let mut r = Reader::new(payload);
            while !r.is_exhausted() {
                let Some(idx) = r.get_u16() else { break };
                let Some(inner) = r.get_bytes() else { break };
                if let Some(bucket) = per_instance.get_mut(idx as usize) {
                    bucket.push((sender, inner));
                }
            }
        }

        // Step every instance, capturing sends; then re-multiplex per
        // destination into a single wire message.
        let mut outgoing: Vec<Vec<(u16, Bytes)>> = vec![Vec::new(); self.n];
        for (idx, inst) in self.instances.iter_mut().enumerate() {
            let mut capture = |to: usize, payload: Bytes| {
                if let Some(bucket) = outgoing.get_mut(to) {
                    bucket.push((idx as u16, payload));
                }
            };
            inst.step(rel_round, &per_instance[idx], &mut capture);
        }
        // A broadcast round hands every destination clones of the same
        // parts; such destinations share one wire buffer. Parts that are
        // not the very same buffers get a buffer of their own.
        let mut last: Option<(&[(u16, Bytes)], Bytes)> = None;
        for (to, parts) in outgoing.iter().enumerate() {
            if parts.is_empty() {
                continue;
            }
            let wire = match &last {
                Some((prev, wire)) if same_parts(prev, parts) => wire.clone(),
                _ => mux(parts),
            };
            send(to, wire.clone());
            last = Some((parts, wire));
        }

        if rel_round == self.rounds() - 1 {
            let votes = self.instances.iter().filter_map(|inst| inst.decided());
            self.decided = Some(majority(votes, self.n));
        }
    }

    fn rounds(&self) -> u64 {
        self.instances[0].rounds()
    }

    fn decided(&self) -> Option<Value> {
        self.decided
    }

    fn name(&self) -> &'static str {
        "vector-consensus"
    }
}

/// Encodes `parts` as one wire message: `(instance u16, inner payload)*`.
fn mux(parts: &[(u16, Bytes)]) -> Bytes {
    let len = parts.iter().map(|(_, inner)| 4 + inner.len()).sum();
    let mut w = Writer::with_capacity(len);
    for (idx, inner) in parts {
        w.put_u16(*idx);
        w.put_bytes(inner);
    }
    w.finish().into()
}

/// Whether two destinations were sent the very same buffers by the same
/// instances, in the same order.
fn same_parts(a: &[(u16, Bytes)], b: &[(u16, Bytes)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((ia, pa), (ib, pb))| ia == ib && same_buffer(pa, pb))
}

/// Strict-majority vote over `values` with population size `n`; falls back
/// to [`DEFAULT_VALUE`]. The same vote an EIG tree resolves its nodes by.
pub use crate::eig::strict_majority as majority;

/// Oral-messages interactive consistency: `n > 3f`, `f+2` rounds,
/// exponential messages.
pub type OmConsensus = VectorConsensus<OmBroadcast>;

impl OmConsensus {
    /// Creates the OM-backed consensus instance for processor `me`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3f`, or if one source's relay payload at
    /// `(n, f)` can outgrow the `u16` length prefix its part is framed
    /// with.
    pub fn new(me: usize, n: usize, f: usize) -> OmConsensus {
        assert!(n > 3 * f, "oral messages require n > 3f");
        assert!(
            full_relay_len(n, f).is_some_and(|len| len <= FRAME_LIMIT),
            "OM consensus at n={n}, f={f}: one source's relay payload exceeds \
             the {FRAME_LIMIT}-byte frame limit"
        );
        let instances = (0..n).map(|src| OmBroadcast::new(me, n, f, src)).collect();
        VectorConsensus::from_instances(me, instances)
    }

    /// The longest wire message an honest processor can be made to send in
    /// one consensus at `(n, f)`; `None` on overflow. Callers that frame
    /// the message behind a `u16` length compare it to [`FRAME_LIMIT`] up
    /// front instead of panicking mid-run.
    ///
    /// Round 0 carries the processor's own 10-byte announcement; round
    /// `t ≥ 1` carries `n - 1` relays (nobody relays its own broadcast) of
    /// at most [`full_relay_len`] bytes, each behind a 4-byte part header.
    /// A relay is that long only when its source equivocated, so the
    /// envelope is reached when every source does; with honest sources a
    /// relay's values are one value and the frame is
    /// `(n - 1)(4 + 1 + ⌈K/8⌉ + 8)` bytes, 180 against 4140 at `(10, 3)`.
    pub fn max_frame_len(n: usize, f: usize) -> Option<usize> {
        let mut longest = 4 + 10;
        for t in 1..=f {
            let relays = n
                .checked_sub(1)?
                .checked_mul(full_relay_len(n, t)?.checked_add(4)?)?;
            longest = longest.max(relays);
        }
        Some(longest)
    }
}

/// Authenticated interactive consistency: honest majority (`f < n/2`),
/// `f+2` rounds, polynomial messages.
pub type DolevStrongConsensus = VectorConsensus<DolevStrongBroadcast>;

impl DolevStrongConsensus {
    /// Creates the authenticated consensus instance; `auth` must be `me`'s
    /// authenticator from the shared key ring.
    pub fn new(me: usize, n: usize, f: usize, auth: Authenticator) -> DolevStrongConsensus {
        let instances = (0..n)
            .map(|src| DolevStrongBroadcast::new(me, n, f, src, auth.clone()))
            .collect();
        VectorConsensus::from_instances(me, instances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::LevelPayload;
    use crate::executor::{no_tamper as honest, run_pure, Tamper};
    use ga_crypto::mac::KeyRing;

    #[test]
    fn om_consensus_all_honest_majority_wins() {
        let n = 4;
        let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, 1)).collect();
        let decided = run_pure(instances, &[5, 5, 5, 9], honest);
        assert!(decided.iter().all(|d| *d == Some(5)));
    }

    #[test]
    fn om_consensus_with_silent_byzantine_agrees() {
        let n = 4;
        let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, 1)).collect();
        let decided = run_pure(
            instances,
            &[5, 5, 5, 5],
            |from: usize, _: u64, _: usize, _: &[u8]| (from == 1).then(Vec::new),
        );
        for me in [0usize, 2, 3] {
            assert_eq!(decided[me], Some(5), "honest p{me}");
        }
    }

    #[test]
    fn om_consensus_validity_unanimous_inputs() {
        let n = 7;
        let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, 2)).collect();
        let decided = run_pure(
            instances,
            &[7, 7, 7, 7, 7, 0, 0],
            |from: usize, _: u64, to: usize, _: &[u8]| {
                (from >= 5).then(|| vec![from as u8, to as u8, 0xff])
            },
        );
        for (me, d) in decided.iter().enumerate().take(5) {
            assert_eq!(*d, Some(7), "honest p{me}");
        }
    }

    #[test]
    fn ds_consensus_majority_with_f_near_half() {
        // n=5, f=2 (< n/2): three honest 4s must win.
        let n = 5;
        let r = KeyRing::generate(n, 7);
        let instances: Vec<DolevStrongConsensus> = (0..n)
            .map(|me| DolevStrongConsensus::new(me, n, 2, r.authenticator(me)))
            .collect();
        let decided = run_pure(
            instances,
            &[4, 4, 4, 9, 9],
            |from: usize, _: u64, _: usize, _: &[u8]| (from >= 3).then(|| vec![0u8; 3]),
        );
        for (me, d) in decided.iter().enumerate().take(3) {
            assert_eq!(*d, Some(4), "honest p{me}");
        }
    }

    #[test]
    fn vector_is_exposed_for_interactive_consistency() {
        let n = 4;
        let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, 1)).collect();
        let mut instances = instances;
        // Run manually to inspect the vector at the end.
        for (i, inst) in instances.iter_mut().enumerate() {
            inst.begin([10, 20, 30, 40][i]);
        }
        let rounds = instances[0].rounds();
        let mut pending: Vec<Vec<(usize, Bytes)>> = vec![Vec::new(); n];
        for round in 0..rounds {
            let inboxes = std::mem::replace(&mut pending, vec![Vec::new(); n]);
            for (i, inst) in instances.iter_mut().enumerate() {
                let inbox: Vec<(usize, &[u8])> =
                    inboxes[i].iter().map(|(s, p)| (*s, p.as_slice())).collect();
                let mut outgoing = Vec::new();
                {
                    let mut send = |to: usize, p: Bytes| outgoing.push((to, p));
                    inst.step(round, &inbox, &mut send);
                }
                for (to, p) in outgoing {
                    pending[to].push((i, p));
                }
            }
        }
        for inst in &instances {
            assert_eq!(
                inst.vector(),
                vec![Some(10), Some(20), Some(30), Some(40)],
                "interactive consistency vector"
            );
            // No strict majority among {10,20,30,40} → default.
            assert_eq!(inst.decided(), Some(DEFAULT_VALUE));
        }
    }

    /// Steps processor 0's consensus through round `rel` with an empty
    /// inbox and returns what it sent.
    fn sends<B: BaInstance>(c: &mut VectorConsensus<B>, rel: u64) -> Vec<(usize, Bytes)> {
        let mut sent = Vec::new();
        c.step(rel, &[], &mut |to, p| sent.push((to, p)));
        sent
    }

    #[test]
    fn broadcast_round_shares_one_wire_buffer() {
        let mut c = OmConsensus::new(0, 4, 1);
        c.begin(9);
        for rel in 0..2 {
            let sent = sends(&mut c, rel);
            assert_eq!(
                sent.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
                [1, 2, 3]
            );
            assert!(
                sent.iter().all(|(_, p)| same_buffer(p, &sent[0].1)),
                "round {rel}: one frame for all destinations"
            );
            // The announcement frame (4 + 10 bytes) fits inline, where
            // clones are equal copies; the relay frame — three parts, none
            // for the processor's own broadcast — is past the inline cap,
            // where "same" can only mean the very same allocation.
            if rel == 0 {
                assert_eq!(sent[0].1.len(), 4 + 10);
                continue;
            }
            assert_eq!(sent[0].1.len(), 3 * (4 + 2));
            assert!(sent[0].1.len() > bytes::INLINE_CAP);
            assert!(sent.iter().all(|(_, p)| p.as_ptr() == sent[0].1.as_ptr()));
        }
    }

    #[test]
    fn an_empty_or_short_part_does_not_split_a_broadcast_frame() {
        /// Broadcasts clones of one payload to processors 1..4.
        struct Fixed(Bytes);
        impl BaInstance for Fixed {
            fn begin(&mut self, _: Value) {}
            fn step(&mut self, _: u64, _: &[(usize, &[u8])], send: &mut Send<'_>) {
                crate::traits::broadcast_others(4, 0, self.0.clone(), send);
            }
            fn rounds(&self) -> u64 {
                1
            }
            fn decided(&self) -> Option<Value> {
                None
            }
        }
        // Clones of an empty or short part are inline copies at different
        // addresses; they must still count as the same part, or the whole
        // frame is rebuilt for every destination. (Every OM relay of
        // round 1 is such a part: 10 bytes.)
        let parts = [
            Bytes::from(vec![1u8; 20]),
            Bytes::new(),
            Bytes::from(vec![2u8, 3]),
            Bytes::from(vec![4u8; bytes::INLINE_CAP + 1]),
        ];
        let instances = parts.iter().cloned().map(Fixed).collect();
        let mut c = VectorConsensus::from_instances(0, instances);
        let sent = sends(&mut c, 0);
        assert_eq!(sent.len(), 3);
        assert_eq!(
            sent[0].1,
            mux(&[0u16, 1, 2, 3].map(|i| (i, parts[i as usize].clone())))
        );
        assert!(sent[0].1.len() > bytes::INLINE_CAP);
        assert!(
            sent.iter().all(|(_, p)| p.as_ptr() == sent[0].1.as_ptr()),
            "one frame, shared by all three destinations"
        );
    }

    #[test]
    fn per_destination_content_is_never_merged() {
        /// Sends each destination `len` copies of its own byte (`split`)
        /// or of the same byte (`!split`), always from a fresh buffer.
        struct PerDestination {
            split: bool,
            len: usize,
        }
        impl PerDestination {
            fn byte(&self, to: usize) -> u8 {
                if self.split {
                    to as u8
                } else {
                    7
                }
            }
        }
        impl BaInstance for PerDestination {
            fn begin(&mut self, _: Value) {}
            fn step(&mut self, _: u64, _: &[(usize, &[u8])], send: &mut Send<'_>) {
                for to in 1..4usize {
                    send(to, vec![self.byte(to); self.len].into());
                }
            }
            fn rounds(&self) -> u64 {
                1
            }
            fn decided(&self) -> Option<Value> {
                None
            }
        }
        let long = bytes::INLINE_CAP + 1;
        for (split, len) in [(true, 1), (true, long), (false, long), (false, 1)] {
            let instances = (0..4).map(|_| PerDestination { split, len }).collect();
            let mut c = VectorConsensus::from_instances(0, instances);
            let sent = sends(&mut c, 0);
            assert_eq!(sent.len(), 3);
            for (to, wire) in &sent {
                // Four parts `(idx, [byte; len])`, all naming this
                // destination.
                let byte = c.instances[0].byte(*to);
                let expected: Vec<u8> = (0..4u8)
                    .flat_map(|idx| [0, idx, 0, len as u8].into_iter().chain(vec![byte; len]))
                    .collect();
                assert_eq!(wire, &expected, "to={to} split={split} len={len}");
            }
            // Different content is never merged, and neither is equal
            // content in distinct shared buffers: past the inline cap the
            // dedupe goes by buffer identity alone. Equal *inline* parts
            // have no identity to go by — they compare by content, and
            // three destinations owed the same bytes get one frame.
            let merged = !split && len <= bytes::INLINE_CAP;
            assert_eq!(
                same_buffer(&sent[0].1, &sent[1].1),
                merged,
                "split={split} len={len}"
            );
            assert_eq!(
                same_buffer(&sent[1].1, &sent[2].1),
                merged,
                "split={split} len={len}"
            );
        }
    }

    /// The longest frame of one consensus on equal inputs under `tamper`.
    fn longest_frame(n: usize, f: usize, mut tamper: impl Tamper) -> usize {
        let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, f)).collect();
        let mut longest = 0;
        run_pure(
            instances,
            &vec![5; n],
            |from: usize, round: u64, to: usize, p: &[u8]| {
                let sent = tamper.tamper(from, round, to, p);
                longest = longest.max(sent.as_deref().unwrap_or(p).len());
                sent
            },
        );
        longest
    }

    #[test]
    fn max_frame_len_is_the_longest_message_of_a_run() {
        // Every source tells every destination another value, so from
        // level 3 on no two values of a relay part agree and every part
        // is plain and full.
        for (n, f) in [(4, 1), (7, 2), (10, 3)] {
            let equivocate = |from: usize, round: u64, to: usize, _: &[u8]| {
                (round == 0).then(|| {
                    let mut lie = LevelPayload::new(1, 1);
                    lie.push(Some((100 * from + to) as Value));
                    mux(&[(from as u16, lie.finish().into())]).to_vec()
                })
            };
            assert_eq!(
                OmConsensus::max_frame_len(n, f),
                Some(longest_frame(n, f, equivocate)),
                "n={n} f={f}"
            );
        }
        assert_eq!(OmConsensus::max_frame_len(usize::MAX, 3), None);
    }

    #[test]
    fn an_honest_frame_carries_one_value_a_part() {
        // n - 1 parts of header, level byte, K = (n-2)…(n-f) presence
        // bits and the one value every node of that source's tree holds:
        // 180 bytes at (10, 3), where the envelope is 4140.
        for ((n, f), slots) in [((4, 1), 1usize), ((7, 2), 5), ((10, 3), 8 * 7)] {
            assert_eq!(
                longest_frame(n, f, honest),
                (n - 1) * (4 + 1 + slots.div_ceil(8) + 8),
                "n={n} f={f}"
            );
        }
    }

    #[test]
    fn max_frame_len_envelope_is_pinned() {
        // (n - 1)(4 + 1 + ⌈K/8⌉ + 8K) with K = (n-2)…(n-f): a u16 length
        // (65 535) carries f = 3 up to n = 22, and no f = 4 at its smallest n.
        let envelope = [
            ((10, 3), 4140),
            ((13, 3), 10_788),
            ((17, 3), 27_392),
            ((22, 3), 64_953),
            ((23, 3), 75_196),
            ((13, 4), 96_588),
        ];
        for ((n, f), len) in envelope {
            assert_eq!(OmConsensus::max_frame_len(n, f), Some(len), "n={n} f={f}");
        }
    }

    #[test]
    #[should_panic(
        expected = "n=16, f=5: one source's relay payload exceeds the 65535-byte frame limit"
    )]
    fn om_consensus_refuses_a_relay_its_framing_cannot_carry() {
        OmConsensus::new(0, 16, 5);
    }

    #[test]
    fn majority_helper() {
        assert_eq!(majority([1, 1, 1, 2], 4), 1);
        assert_eq!(majority([1, 1, 2, 2], 4), DEFAULT_VALUE);
        assert_eq!(majority(std::iter::empty(), 4), DEFAULT_VALUE);
        assert_eq!(majority([5, 5, 5], 4), 5);
    }
}
