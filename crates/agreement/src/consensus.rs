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
//!
//! # Frame
//!
//! A consensus round sends one frame, the same to every other processor
//! (the [broadcast contract](crate::traits#the-broadcast-contract)): a part
//! for each instance that speaks this round, in ascending instance order,
//!
//! ```text
//! frame  part*
//! part   LEB128 instance · LEB128 length · the instance's payload
//! ```
//!
//! Below 128 instances and for a payload below 128 bytes, which is every
//! part of an honest run up to `(13, 3)`, the header is two bytes. The step
//! writes a part's header with the length left open, the instance appends
//! its payload behind it, and the length is patched ([`put_section`]): the
//! frame is written once, in the caller's buffer, behind whatever the
//! caller has put there (the authority's clock claim and tag). An instance
//! that appends nothing has no part, and a round in which no instance
//! speaks has no frame.
//!
//! On receipt, one pass over the inbox reads every part header. A part
//! naming an instance `≥ n` is dropped; a header or length that runs past
//! the end of its message drops that message whole, the parts before it
//! included, so a truncated frame says nothing. Every instance is then
//! stepped on its own parts, in message order, then part order within a
//! message — all of them: two parts from one sender for one instance both
//! arrive, and it is the instance's accept rule, not the demux, that
//! judges a Byzantine sender's bytes.

use ga_crypto::mac::Authenticator;

use crate::dolev_strong::DolevStrongBroadcast;
use crate::om::{full_relay_len, OmBroadcast};
use crate::traits::BaInstance;
use crate::wire::{put_section, varint_len, Reader, FRAME_LIMIT};
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

    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
        let parts = demux(self.n, inbox);
        let mail: Vec<(usize, &[u8])> = parts.iter().map(|&(_, part)| part).collect();
        let mut from = 0;
        for (idx, inst) in self.instances.iter_mut().enumerate() {
            let mine = parts[from..].iter().take_while(|&&(i, _)| i == idx);
            let to = from + mine.count();
            put_section(out, idx as u64, |out| {
                inst.step(rel_round, &mail[from..to], out);
            });
            from = to;
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

/// Every part of `inbox` addressed to one of `n` instances, as
/// `(instance, (sender, payload))`, grouped by instance in ascending order
/// and, within an instance, in message order then part order (see the
/// module docs' frame). A damaged message gives no part.
fn demux<'a>(n: usize, inbox: &[(usize, &'a [u8])]) -> Vec<(usize, (usize, &'a [u8]))> {
    // Room for an honest round: a frame from each other processor, a part
    // per instance in each. A flood of messages grows the list, not this.
    let mut parts = Vec::with_capacity(inbox.len().min(n) * n);
    for &(sender, message) in inbox {
        let before = parts.len();
        let mut r = Reader::new(message);
        while !r.is_exhausted() {
            let Some((idx, payload)) = r.get_section() else {
                parts.truncate(before);
                break;
            };
            if idx < n as u64 {
                parts.push((idx as usize, (sender, payload)));
            }
        }
    }
    // Stable: one instance's parts keep their arrival order.
    parts.sort_by_key(|&(idx, _)| idx);
    parts
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
    /// `(n, f)` can outgrow the [`FRAME_LIMIT`] on a part.
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
    /// one consensus at `(n, f)`; `None` on overflow. Callers that bound a
    /// frame by [`FRAME_LIMIT`] compare it up front instead of panicking
    /// mid-run.
    ///
    /// Round 0 carries the processor's own 10-byte announcement; round
    /// `t ≥ 1` carries `n - 1` relays (nobody relays its own broadcast) of
    /// at most [`full_relay_len`] bytes, each behind its part header: the
    /// instance and the length as varints. A relay is that long only when
    /// its source equivocated, so the envelope is reached when every source
    /// does; with honest sources a relay's values are one value and the
    /// frame is `(n - 1)(2 + 1 + ⌈K/8⌉ + 8)` bytes, 162 against 4131 at
    /// `(10, 3)`.
    pub fn max_frame_len(n: usize, f: usize) -> Option<usize> {
        let instance = varint_len(n.checked_sub(1)? as u64);
        let part = |len: usize| len.checked_add(instance + varint_len(len as u64));
        let mut longest = part(10)?;
        for t in 1..=f {
            let relays = (n - 1).checked_mul(part(full_relay_len(n, t)?)?)?;
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
    use crate::wire::Writer;
    use ga_crypto::mac::KeyRing;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The demultiplexer the one-pass [`demux`] replaced, kept as its
    /// oracle: one bucket per instance, filled message by message, part by
    /// part, from a message read to its end first — a damaged one gives
    /// nothing.
    fn per_instance<'a>(n: usize, inbox: &[(usize, &'a [u8])]) -> Vec<Vec<(usize, &'a [u8])>> {
        let mut buckets = vec![Vec::new(); n];
        'messages: for &(sender, payload) in inbox {
            let mut r = Reader::new(payload);
            let mut parts = Vec::new();
            while !r.is_exhausted() {
                let (Some(idx), Some(len)) = (r.get_varint(), r.get_varint()) else {
                    continue 'messages;
                };
                let rest = r.rest();
                let Some(inner) = rest.get(..len as usize) else {
                    continue 'messages;
                };
                r = Reader::new(&rest[inner.len()..]);
                parts.push((idx, inner));
            }
            for (idx, inner) in parts {
                if let Some(bucket) = buckets.get_mut(idx as usize) {
                    bucket.push((sender, inner));
                }
            }
        }
        buckets
    }

    /// The multiplexer the in-place frame replaced, kept as its oracle:
    /// `(instance, length, payload)` for each of `parts`, in order, the
    /// first two as varints.
    fn mux(parts: &[(u16, Vec<u8>)]) -> Vec<u8> {
        let mut frame = Vec::new();
        for (idx, payload) in parts {
            Writer::new(&mut frame)
                .put_varint(u64::from(*idx))
                .put_varint(payload.len() as u64);
            frame.extend_from_slice(payload);
        }
        frame
    }

    /// What [`demux`] hands each of `n` instances, bucket by bucket.
    fn demuxed<'a>(n: usize, inbox: &[(usize, &'a [u8])]) -> Vec<Vec<(usize, &'a [u8])>> {
        let mut buckets = vec![Vec::new(); n];
        for (idx, part) in demux(n, inbox) {
            buckets[idx].push(part);
        }
        buckets
    }

    /// Appends a fixed payload every round, whatever it hears; or nothing,
    /// if the payload is empty.
    struct Fixed(Vec<u8>);

    impl BaInstance for Fixed {
        fn begin(&mut self, _: Value) {}
        fn step(&mut self, _: u64, _: &[(usize, &[u8])], out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn rounds(&self) -> u64 {
            1
        }
        fn decided(&self) -> Option<Value> {
            None
        }
    }

    /// The frame `c` appends at round `rel` on an empty inbox.
    fn frame<B: BaInstance>(c: &mut VectorConsensus<B>, rel: u64) -> Vec<u8> {
        let mut out = Vec::new();
        c.step(rel, &[], &mut out);
        out
    }

    /// A random inbox of up to `messages` messages for `n` instances, each
    /// a run of parts — indices in and past range, in and out of order,
    /// repeated; payloads empty, short or long enough for a two-byte
    /// length — then, now and then, a damaged tail: a header or a payload
    /// cut short, a length past the end, or a stray byte. Some messages are
    /// empty.
    fn random_inbox(n: usize, messages: usize, rng: &mut StdRng) -> Vec<(usize, Vec<u8>)> {
        (0..rng.gen_range(0..=messages))
            .map(|_| {
                let sender = rng.gen_range(0..n + 2);
                let mut message = Vec::new();
                for _ in 0..rng.gen_range(0..=2 * n) {
                    let idx = if rng.gen_bool(0.9) {
                        rng.gen_range(0..n as u64)
                    } else {
                        rng.gen_range(n as u64..=u64::MAX)
                    };
                    let len = [0, 1, rng.gen_range(0..200)][rng.gen_range(0..3usize)];
                    let payload: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    Writer::new(&mut message)
                        .put_varint(idx)
                        .put_varint(len as u64);
                    message.extend(payload);
                }
                match rng.gen_range(0..6) {
                    0 => message.push(rng.gen()),
                    1 => message.extend([0, 1]),
                    2 => message.extend([0, 9, 1, 2]),
                    3 if !message.is_empty() => {
                        let cut = rng.gen_range(0..message.len());
                        message.truncate(cut);
                    }
                    _ => {}
                }
                (sender, message)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass demux against the bucket demux on arbitrary
        /// inboxes: every instance gets the same `(sender, part)`
        /// sequence — message order, then part order — repeated indices,
        /// out-of-range indices, damaged messages (which give nothing) and
        /// empty messages included.
        #[test]
        fn demux_gives_every_instance_what_the_buckets_give(
            n in 1usize..=13,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inbox = random_inbox(n, 3 * n, &mut rng);
            let inbox: Vec<(usize, &[u8])> = inbox.iter().map(|(s, m)| (*s, &m[..])).collect();
            prop_assert_eq!(demuxed(n, &inbox), per_instance(n, &inbox));
        }

        /// A round's frame is the reference mux of what its instances
        /// appended, byte for byte — an instance that appended nothing has
        /// no part — and lands behind whatever the buffer already held.
        #[test]
        fn a_round_frame_is_the_mux_of_its_parts(n in 1usize..=13, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let payloads: Vec<Vec<u8>> = (0..n)
                .map(|_| {
                    let len = [0, rng.gen_range(1..20), rng.gen_range(0..300)][rng.gen_range(0..3usize)];
                    (0..len).map(|_| rng.gen()).collect()
                })
                .collect();
            let parts: Vec<(u16, Vec<u8>)> = (0..n as u16)
                .zip(payloads.iter().cloned())
                .filter(|(_, p)| !p.is_empty())
                .collect();
            let instances = payloads.into_iter().map(Fixed).collect();
            let mut c = VectorConsensus::from_instances(0, instances);
            let mut out = vec![0xA1, 0, 0];
            c.step(0, &[], &mut out);
            prop_assert_eq!(&out[..3], &[0xA1, 0, 0]);
            prop_assert_eq!(&out[3..], &mux(&parts)[..]);
        }
    }

    #[test]
    fn a_frame_cut_short_gives_only_the_parts_it_holds_whole() {
        // Every frame of honest consensuses at (4, 1) and (7, 2), and of
        // one at (10, 3) whose sources all equivocate (parts of 456 bytes,
        // two-byte lengths), cut at every byte: a cut between parts leaves
        // a shorter frame of whole parts, and any other cut drops the
        // message whole.
        let liar = |from: usize, round: u64, to: usize, _: &[u8]| {
            (round == 0).then(|| {
                let mut lie = Vec::new();
                let mut announcement = LevelPayload::new(&mut lie, 1, 1);
                announcement.push(Some((100 * from + to) as Value));
                announcement.finish();
                mux(&[(from as u16, lie)])
            })
        };
        for (n, f, liars) in [(4, 1, false), (7, 2, false), (10, 3, true)] {
            let mut frames = Vec::new();
            let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, f)).collect();
            run_pure(
                instances,
                &vec![5; n],
                |from: usize, round: u64, to: usize, p: &[u8]| {
                    let sent = if liars {
                        liar(from, round, to, p)
                    } else {
                        None
                    };
                    frames.push(sent.clone().unwrap_or_else(|| p.to_vec()));
                    sent
                },
            );
            for frame in &frames {
                let whole = demux(n, &[(1, &frame[..])]);
                // Where each part ends; an honest frame's parts ascend, so
                // the first k of them are the first k `demux` gives.
                let mut ends = vec![0];
                let mut r = Reader::new(frame);
                while r.get_section().is_some() {
                    ends.push(frame.len() - { r }.rest().len());
                }
                assert_eq!(ends.last(), Some(&frame.len()));
                for cut in 0..=frame.len() {
                    let held = ends.iter().position(|&end| end == cut).unwrap_or(0);
                    assert_eq!(
                        demux(n, &[(1, &frame[..cut])]),
                        whole[..held],
                        "n={n} f={f}, cut at {cut} of {}",
                        frame.len()
                    );
                }
            }
        }
    }

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
        let mut instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, 1)).collect();
        // Run manually to inspect the vector at the end.
        for (i, inst) in instances.iter_mut().enumerate() {
            inst.begin([10, 20, 30, 40][i]);
        }
        let rounds = instances[0].rounds();
        let mut pending: Vec<Vec<(usize, Vec<u8>)>> = vec![Vec::new(); n];
        for round in 0..rounds {
            let inboxes = std::mem::replace(&mut pending, vec![Vec::new(); n]);
            for (i, inst) in instances.iter_mut().enumerate() {
                let inbox: Vec<(usize, &[u8])> =
                    inboxes[i].iter().map(|(s, p)| (*s, p.as_slice())).collect();
                let mut out = Vec::new();
                inst.step(round, &inbox, &mut out);
                for (to, mailbox) in pending.iter_mut().enumerate() {
                    if to != i && !out.is_empty() {
                        mailbox.push((i, out.clone()));
                    }
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

    #[test]
    fn broadcast_round_shares_one_wire_buffer() {
        // Processor 0's consensus on an empty inbox: round 0 is its own
        // announcement; round 1 relays, with nothing heard, an empty level
        // of each of the three other sources' trees. Each round is one
        // frame, the reference mux of what the instances appended.
        let mut c = OmConsensus::new(0, 4, 1);
        c.begin(9);
        let parts = |c: &OmConsensus, rel: u64| -> Vec<(u16, Vec<u8>)> {
            let mut parts = Vec::new();
            for (idx, inst) in c.instances.iter().enumerate() {
                let mut payload = Vec::new();
                inst.clone().step(rel, &[], &mut payload);
                if !payload.is_empty() {
                    parts.push((idx as u16, payload));
                }
            }
            parts
        };
        for (rel, len) in [(0, 2 + 10), (1, 3 * (2 + 2))] {
            let expected = mux(&parts(&c, rel));
            let frame = frame(&mut c, rel);
            assert_eq!(frame.len(), len, "round {rel}");
            assert_eq!(frame, expected, "round {rel}");
        }
        assert!(
            frame(&mut c, 2).is_empty(),
            "the resolve round sends nothing"
        );
    }

    #[test]
    fn an_empty_or_short_part_does_not_split_a_broadcast_frame() {
        // Whatever the parts' lengths, one frame; a part with nothing in it
        // is no part, and a round with no part is no frame.
        let parts = [
            vec![1u8; 20],
            vec![],
            vec![2u8, 3],
            vec![4u8; bytes::INLINE_CAP + 1],
        ];
        let instances = parts.iter().cloned().map(Fixed).collect();
        let mut c = VectorConsensus::from_instances(0, instances);
        let told: Vec<(u16, Vec<u8>)> = [0u16, 2, 3]
            .map(|i| (i, parts[usize::from(i)].clone()))
            .to_vec();
        assert_eq!(frame(&mut c, 0), mux(&told));
        let silent = (0..4).map(|_| Fixed(vec![])).collect();
        assert!(frame(&mut VectorConsensus::from_instances(0, silent), 0).is_empty());
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
                    let mut lie = Vec::new();
                    let mut announcement = LevelPayload::new(&mut lie, 1, 1);
                    announcement.push(Some((100 * from + to) as Value));
                    announcement.finish();
                    mux(&[(from as u16, lie)])
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
        // n - 1 parts of a two-byte header, level byte, K = (n-2)…(n-f)
        // presence bits and the one value every node of that source's tree
        // holds: 162 bytes at (10, 3), where the envelope is 4131.
        for ((n, f), slots) in [((4, 1), 1usize), ((7, 2), 5), ((10, 3), 8 * 7)] {
            assert_eq!(
                longest_frame(n, f, honest),
                (n - 1) * (2 + 1 + slots.div_ceil(8) + 8),
                "n={n} f={f}"
            );
        }
    }

    #[test]
    fn max_frame_len_envelope_is_pinned() {
        // (n - 1)(3 + 1 + ⌈K/8⌉ + 8K) with K = (n-2)…(n-f), the header a
        // one-byte instance and a two-byte length: the 65 535-byte frame
        // limit carries f = 3 up to n = 22, and no f = 4 at its smallest n.
        let envelope = [
            ((10, 3), 4131),
            ((13, 3), 10_776),
            ((17, 3), 27_376),
            ((22, 3), 64_932),
            ((23, 3), 75_174),
            ((13, 4), 96_576),
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
