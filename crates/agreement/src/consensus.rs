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
//! On receipt, one pass over the inbox reads every part header of every
//! plain frame. A part naming an instance `≥ n` is dropped; a header or
//! length that runs past the end of its message drops that message whole,
//! the parts before it included, so a truncated frame says nothing. Every
//! instance is then stepped on its own parts, in message order, then part
//! order within a message — all of them: two parts from one sender for one
//! instance both arrive, and it is the instance's accept rule, not the
//! demux, that judges a Byzantine sender's bytes.
//!
//! # Short frame
//!
//! An OM round in which every part a processor sends tells every node it
//! speaks for one value — round 0's own announcement, and every relay
//! round unless a source equivocated or a part was lost — carries nothing
//! its instances, lengths, level bytes and presence bits add: both ends
//! know which instances the sender speaks for at which level, and how many
//! nodes each part tells. Such a round goes as one **short frame**:
//!
//! ```text
//! short  u8 0x80 | L · one LEB128 value per instance the sender speaks for
//! ```
//!
//! `L` is the level of its parts, and the values go in instance order: the
//! sender's own instance at `L = 1`, every other source's at `L ≥ 2`. No
//! plain frame starts with bit 7 set, at any `n`: its first part names the
//! lowest instance that speaks, which in a relay round is instance 0 or 1,
//! and round 0 is always short. Any other round goes plain, as above.
//!
//! The step writes the plain frame, and if every instance reported that
//! its part tells every node one value ([`Broadcast::step_part`], which
//! OM has from the level payload's encoder), rewrites it in place as the
//! short frame: no second walk of any tree. On receipt a message whose
//! first byte has bit 7 set is a short frame, taken whole or not at all:
//! it is refused if `L` is not the level this round stores, if it holds
//! more or fewer values than the sender speaks for at `L`, if a varint
//! runs past the end, or if bytes trail the last value. An accepted frame
//! writes, instance by instance, what the plain parts it stands for write
//! ([`Broadcast::take_whole`]), so a Byzantine sender gets nothing from it
//! that it could not send in plain. A round's short frames are taken
//! before its plain parts. Values are varints here alone: plain and
//! uniform level payloads keep 8-byte values, so the longest frame
//! ([`OmConsensus::max_frame_len`]) is what it was. Dolev–Strong rounds
//! always go plain.

use ga_crypto::mac::Authenticator;

use crate::dolev_strong::DolevStrongBroadcast;
use crate::om::{full_relay_len, OmBroadcast};
use crate::traits::BaInstance;
use crate::wire::{put_section, varint, varint_len, Reader, FRAME_LIMIT};
use crate::{Value, DEFAULT_VALUE};

/// Bit 7 of a short frame's first byte; the low seven bits are its level
/// (see the module docs).
const SHORT_FRAME: u8 = 0x80;

/// One source's broadcast as a [`VectorConsensus`] runs it. Beyond
/// [`BaInstance`], a protocol whose rounds can go as short frames (module
/// docs) says when a part it appended can stand in one, and takes a short
/// frame's entry without its bytes. The defaults are a protocol whose
/// rounds always go plain.
pub trait Broadcast: BaInstance {
    /// Whether a consensus of this protocol sends and reads short frames.
    const SHORT_FRAMES: bool = false;

    /// [`BaInstance::step`], returning `Some(v)` if it appended a part
    /// that tells every node it speaks for `v` — what a short frame's entry
    /// stands for — and `None` otherwise. Such a part is a level payload,
    /// and ends in `v`'s eight big-endian bytes.
    fn step_part(
        &mut self,
        rel_round: u64,
        inbox: &[(usize, &[u8])],
        out: &mut Vec<u8>,
    ) -> Option<Value> {
        self.step(rel_round, inbox, out);
        None
    }

    /// Takes a short frame's entry: writes what the level-`level` part
    /// from `sender` that tells every node it speaks for `value` writes.
    fn take_whole(&mut self, level: usize, sender: usize, value: Value) {
        let _ = (level, sender, value);
    }
}

/// Whether a level-`level` round of `sender` has a part for `source`'s
/// instance: its own at level 1, every other one's after.
fn speaks(level: u64, source: usize, sender: usize) -> bool {
    (level == 1) == (source == sender)
}

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

impl<B: Broadcast> VectorConsensus<B> {
    /// Takes the short frame `frame` from `sender` at relative round
    /// `rel_round` (module docs): every value it tells, or none.
    fn take_short(&mut self, rel_round: u64, sender: usize, frame: &[u8]) {
        let level = u64::from(frame[0] & !SHORT_FRAME);
        if level != rel_round || level == 0 || level >= self.rounds() || sender >= self.n {
            return;
        }
        let sources = (0..self.n).filter(|&source| speaks(level, source, sender));
        let values = Reader::new(&frame[1..]);
        let mut r = values;
        if sources.clone().any(|_| r.get_varint().is_none()) || !r.is_exhausted() {
            return;
        }
        let mut r = values;
        for source in sources {
            let value = r.get_varint().expect("read once already");
            self.instances[source].take_whole(level as usize, sender, value);
        }
    }
}

impl<B: Broadcast> BaInstance for VectorConsensus<B> {
    fn begin(&mut self, input: Value) {
        for (src, inst) in self.instances.iter_mut().enumerate() {
            // Only my own broadcast carries my input; for others I am a
            // relay/receiver and the input is irrelevant.
            inst.begin(if src == self.me { input } else { DEFAULT_VALUE });
        }
        self.decided = None;
    }

    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
        let short = |message: &[u8]| {
            B::SHORT_FRAMES && message.first().is_some_and(|&b| b & SHORT_FRAME != 0)
        };
        for &(sender, message) in inbox.iter().filter(|&&(_, m)| short(m)) {
            self.take_short(rel_round, sender, message);
        }
        let parts = demux(self.n, inbox, short);
        let mail: Vec<(usize, &[u8])> = parts.iter().map(|&(_, part)| part).collect();
        let start = out.len();
        // Whether the frame can go short: every instance that spoke told
        // every node one value, and those that spoke are the ones a short
        // frame of this level names.
        let level = rel_round + 1;
        let mut whole = B::SHORT_FRAMES;
        let mut from = 0;
        for (idx, inst) in self.instances.iter_mut().enumerate() {
            let mine = parts[from..].iter().take_while(|&&(i, _)| i == idx);
            let to = from + mine.count();
            let (at, mut told) = (out.len(), None);
            put_section(out, idx as u64, |out| {
                told = inst.step_part(rel_round, &mail[from..to], out);
            });
            let spoke = out.len() > at;
            whole &= spoke == speaks(level, idx, self.me) && told.is_some() == spoke;
            from = to;
        }
        if whole && out.len() > start {
            shorten(out, start, level);
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

/// Every part of the plain frames of `inbox` (those `short` does not
/// claim) addressed to one of `n` instances, as `(instance, (sender,
/// payload))`, grouped by instance in ascending order and, within an
/// instance, in message order then part order (see the module docs' frame).
/// A damaged message gives no part.
fn demux<'a>(
    n: usize,
    inbox: &[(usize, &'a [u8])],
    short: impl Fn(&[u8]) -> bool,
) -> Vec<(usize, (usize, &'a [u8]))> {
    let mut parts = Vec::new();
    for &(sender, message) in inbox.iter().filter(|&&(_, m)| !short(m)) {
        // Room for a plain round: a frame from each other processor, a
        // part per instance in each. A flood of messages grows the list,
        // not this; a round of short frames allocates nothing.
        if parts.capacity() == 0 {
            parts.reserve(inbox.len().min(n) * n);
        }
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

/// Rewrites the plain frame `out[start..]`, whose parts each tell every
/// node one value — the part's last eight bytes — as the short frame of
/// `level` (module docs), in place: a part is at least twelve bytes and
/// its varint at most ten, and the level byte takes the room of the first
/// part's header.
fn shorten(out: &mut Vec<u8>, start: usize, level: u64) {
    let (mut read, mut write) = (start, start);
    while read < out.len() {
        let mut r = Reader::new(&out[read..]);
        let (_, part) = r.get_section().expect("a part this step wrote");
        let value = part[part.len() - 8..].try_into().map(Value::from_be_bytes);
        let value = value.expect("a part ends in its value");
        read = out.len() - r.rest().len();
        if write == start {
            out[write] = SHORT_FRAME | level as u8;
            write += 1;
        }
        let len = varint_len(value);
        out[write..write + len].copy_from_slice(&varint(value)[..len]);
        write += len;
    }
    out.truncate(write);
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
    /// instance and the length as varints. A short frame (module docs) is
    /// always shorter than the plain one it stands for. A relay is that
    /// long only when its source equivocated, so from `f = 2` the envelope
    /// is reached when every source does (at `f = 1` a relay part tells one
    /// node, so a round of them all told goes short, and the bound holds
    /// unreached). With honest sources every round is short: the level byte
    /// and `n - 1` varint values, 10 bytes at `(10, 3)` when every value is
    /// below 128, against an envelope of 4131.
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
    use crate::eig::reference::{all_nodes, decode_reference};
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
        for (idx, part) in demux(n, inbox, |_| false) {
            buckets[idx].push(part);
        }
        buckets
    }

    /// Appends a fixed payload every round, whatever it hears; or nothing,
    /// if the payload is empty.
    struct Fixed(Vec<u8>);

    impl Broadcast for Fixed {}

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

    /// Appends, if it speaks, a one-node level payload telling 7 — a part
    /// a short frame can stand for — at the level round `rel` sends.
    struct Whole(bool);

    impl Broadcast for Whole {
        const SHORT_FRAMES: bool = true;

        fn step_part(
            &mut self,
            rel: u64,
            _: &[(usize, &[u8])],
            out: &mut Vec<u8>,
        ) -> Option<Value> {
            if !self.0 {
                return None;
            }
            let mut payload = LevelPayload::new(out, rel as usize + 1, 1);
            payload.push(Some(7));
            payload.finish()
        }
    }

    impl BaInstance for Whole {
        fn begin(&mut self, _: Value) {}
        fn step(&mut self, rel: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
            self.step_part(rel, inbox, out);
        }
        fn rounds(&self) -> u64 {
            3
        }
        fn decided(&self) -> Option<Value> {
            None
        }
    }

    /// The frame `c` appends at round `rel` on an empty inbox.
    fn frame<B: Broadcast>(c: &mut VectorConsensus<B>, rel: u64) -> Vec<u8> {
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

    /// Source `from`'s round-0 frame telling destination `to` a value of
    /// its own, in plain: the tamper of a source that equivocates.
    fn equivocate(from: usize, round: u64, to: usize, _: &[u8]) -> Option<Vec<u8>> {
        (round == 0).then(|| {
            let mut lie = Vec::new();
            let mut announcement = LevelPayload::new(&mut lie, 1, 1);
            announcement.push(Some((100 * from + to) as Value));
            announcement.finish();
            mux(&[(from as u16, lie)])
        })
    }

    /// The short frame of `level` telling `values`, one varint each.
    fn short_frame(level: usize, values: &[Value]) -> Vec<u8> {
        let mut frame = vec![SHORT_FRAME | level as u8];
        for &value in values {
            Writer::new(&mut frame).put_varint(value);
        }
        frame
    }

    /// The level payload from `sender` that tells every one of its nodes in
    /// `source`'s `(n, f)` tree `value`: every presence bit set, the value
    /// once (uniform past one node).
    fn whole_part(
        n: usize,
        f: usize,
        source: usize,
        level: usize,
        sender: usize,
        value: Value,
    ) -> Vec<u8> {
        let slots = all_nodes(n, f, source as u16)
            .iter()
            .filter(|p| p.len() == level && usize::from(p[level - 1]) == sender)
            .count();
        let mut part = Vec::new();
        let mut payload = LevelPayload::new(&mut part, level, slots);
        (0..slots).for_each(|_| payload.push(Some(value)));
        payload.finish();
        part
    }

    /// Writes into a tree, by path.
    type Writes = Vec<(Vec<u16>, Value)>;

    /// What `frame`, from `sender` in relative round `rel` of an `(n, f)`
    /// consensus, writes, read the long way round: field by field, each
    /// value expanded into the plain part it stands for, that part decoded
    /// by `decode_reference`. The writes by source, or `None` if the frame
    /// is refused (or is no short frame).
    fn short_reference(
        n: usize,
        f: usize,
        rel: u64,
        sender: usize,
        frame: &[u8],
    ) -> Option<Vec<Writes>> {
        let mut r = Reader::new(frame);
        let first = r.get_u8()?;
        let level = usize::from(first & 0x7F);
        if first & 0x80 == 0 || level as u64 != rel || !(1..=f + 1).contains(&level) || sender >= n
        {
            return None;
        }
        let sources: Vec<usize> = if level == 1 {
            vec![sender]
        } else {
            (0..n).filter(|&source| source != sender).collect()
        };
        let values: Vec<Value> = sources
            .iter()
            .map(|_| r.get_varint())
            .collect::<Option<_>>()?;
        if !r.is_exhausted() {
            return None;
        }
        let mut writes = vec![Vec::new(); n];
        for (source, value) in sources.into_iter().zip(values) {
            let nodes = all_nodes(n, f, source as u16);
            let part = whole_part(n, f, source, level, sender, value);
            writes[source] = decode_reference(&nodes, level, sender, &part);
        }
        Some(writes)
    }

    /// What a consensus does with `message` from `sender` at round `rel`
    /// before it reads plain parts: takes it as a short frame, if it is one.
    fn take(c: &mut OmConsensus, rel: u64, sender: usize, message: &[u8]) {
        if message.first().is_some_and(|&b| b & SHORT_FRAME != 0) {
            c.take_short(rel, sender, message);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A short frame writes, instance by instance, exactly what the
        /// plain parts it stands for write (`decode_reference` on each),
        /// into trees whose receiving column is empty, told whole, tabled
        /// in full or in part: the frame as sent, and the frame cut short,
        /// with a byte or a value more, a value fewer, its
        /// level off by one or out of range, its last varint running past
        /// the end, a value spelled with a padded varint, or noise behind
        /// the level byte — each taken whole or not at all.
        #[test]
        fn a_short_frame_writes_what_its_plain_parts_write(n in 4usize..=13, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.gen_range(1..=((n - 1) / 3).min(3));
            let me = rng.gen_range(0..n);
            let level = rng.gen_range(1..=f + 1);
            let nodes: Vec<Vec<Vec<u16>>> = (0..n).map(|s| all_nodes(n, f, s as u16)).collect();
            // Mostly another processor; now and then this one, or an id
            // past the last.
            let sender = match rng.gen_range(0..10) {
                0 => me,
                1 => n,
                _ => (me + rng.gen_range(1..n)) % n,
            };
            let mut base = OmConsensus::new(me, n, f);
            base.begin(0);
            for (source, inst) in base.instances.iter_mut().enumerate() {
                let nodes = &nodes[source];
                let tree = inst.tree_mut();
                let column = nodes.iter().filter(|p| p.len() == level && usize::from(p[level - 1]) == sender);
                match rng.gen_range(0..4) {
                    0 => {}
                    1 if sender < n => {
                        let whole = whole_part(n, f, source, level, sender, rng.gen_range(0..3));
                        tree.absorb(level, sender, &whole);
                    }
                    2 => column.for_each(|p| tree.store(p, rng.gen_range(0..3))),
                    _ => column.for_each(|p| if rng.gen() { tree.store(p, rng.gen_range(0..3)) }),
                }
                for path in nodes {
                    if rng.gen_bool(0.1) {
                        tree.store(path, rng.gen_range(0..3));
                    }
                }
            }

            let speaks = if level == 1 { 1 } else { n - 1 };
            let value = |rng: &mut StdRng| [rng.gen_range(0..3), rng.gen_range(0..300), rng.gen()][rng.gen_range(0..3usize)];
            let values: Vec<Value> = (0..speaks).map(|_| value(&mut rng)).collect();
            let sent = short_frame(level, &values);
            let mut mutants: Vec<(&str, Vec<u8>)> = vec![
                ("as sent", sent.clone()),
                ("a trailing byte", [&sent[..], &[0]].concat()),
                ("a value more", short_frame(level, &[&values[..], &[9]].concat())),
                ("a value fewer", short_frame(level, &values[1..])),
                ("noise", [&sent[..1], &(0..rng.gen_range(0..3 * n)).map(|_| rng.gen()).collect::<Vec<u8>>()].concat()),
            ];
            for cut in [0, 1, sent.len() - 1, rng.gen_range(0..sent.len())] {
                mutants.push(("cut", sent[..cut].to_vec()));
            }
            for other in [0, level - 1, level + 1, 0x7F] {
                mutants.push(("another level", short_frame(other, &values)));
            }
            let mut past_the_end = sent.clone();
            *past_the_end.last_mut().unwrap() |= 0x80;
            mutants.push(("a varint past the end", past_the_end));
            // The first value with its last byte carrying on into a zero
            // group: the same number, one byte longer.
            if super::varint_len(values[0]) < 10 {
                let mut padded = vec![sent[0]];
                let len = super::varint_len(values[0]);
                padded.extend_from_slice(&super::varint(values[0])[..len]);
                *padded.last_mut().unwrap() |= 0x80;
                padded.push(0);
                padded.extend_from_slice(&sent[1 + len..]);
                mutants.push(("a padded varint", padded));
            }

            for (what, bytes) in &mutants {
                let mut ours = VectorConsensus::from_instances(me, base.instances.clone());
                take(&mut ours, level as u64, sender, bytes);
                let mut oracle = VectorConsensus::from_instances(me, base.instances.clone());
                let writes = short_reference(n, f, level as u64, sender, bytes);
                if *what == "as sent" || *what == "a padded varint" {
                    prop_assert_eq!(writes.is_some(), sender < n, "{} is taken", what);
                }
                for (source, writes) in writes.unwrap_or_default().into_iter().enumerate() {
                    for (path, value) in writes {
                        oracle.instances[source].tree_mut().store(&path, value);
                    }
                }
                // A write is never an overwrite, so the node count
                // accounts for every level; the values are compared where
                // the frame writes.
                for (source, nodes) in nodes.iter().enumerate() {
                    let ours = ours.instances[source].tree_mut();
                    let oracle = oracle.instances[source].tree_mut();
                    prop_assert_eq!(ours.len(), oracle.len(), "{} at source {}", what, source);
                    for path in nodes.iter().filter(|p| p.len() == level) {
                        prop_assert_eq!(ours.get(path), oracle.get(path), "{} at {:?}", what, path);
                    }
                }
            }
        }
    }

    #[test]
    fn no_plain_frame_starts_like_a_short_one() {
        // A plain frame's first part names the lowest instance that
        // speaks. In a relay round every instance but the sender's own
        // relays, so that is instance 0 or 1, one byte below 0x80 at any
        // n; round 0 tells one node one value, so it is always short. On
        // the encoder: at every n up to 140 at f = 1 — past 128, where an
        // instance takes two bytes — and at every f ≤ 3 up to n = 22,
        // processors 0 and n - 1 send round 0 short and, one announcement
        // missing, round 1 plain, starting with 0 or 1, as n - 1 parts.
        let small = (1..=22usize).flat_map(|n| (0..=((n - 1) / 3).min(3)).map(move |f| (n, f)));
        let sizes = (23..=140).map(|n| (n, 1)).chain(small);
        for (n, f) in sizes {
            for me in [0, n - 1] {
                let mut c = OmConsensus::new(me, n, f);
                c.begin(3);
                assert_eq!(frame(&mut c, 0), [SHORT_FRAME | 1, 3], "n={n} f={f}");
                if f == 0 {
                    continue;
                }
                let lost = (me + 1) % n;
                let announcement = short_frame(1, &[3]);
                let inbox: Vec<(usize, &[u8])> = (0..n)
                    .filter(|&s| s != me && s != lost)
                    .map(|s| (s, &announcement[..]))
                    .collect();
                let mut out = Vec::new();
                c.step(1, &inbox, &mut out);
                assert_eq!(out[0], u8::from(me == 0), "n={n} f={f} me={me}");
                let parts = demux(n, &[(lost, &out[..])], |_| false);
                assert_eq!(parts.len(), n - 1, "n={n} f={f} me={me}");
            }
        }
    }

    #[test]
    fn a_round_of_other_speakers_than_its_level_names_goes_plain() {
        // Processor 0 of 3 in relay round 1: a level-2 short frame stands
        // for instances 1 and 2. Whole parts from exactly those go short;
        // from instance 1 alone, or from all three, plain.
        for (speakers, short) in [
            ([false, true, true], true),
            ([false, true, false], false),
            ([true, true, true], false),
        ] {
            let mut c = VectorConsensus::from_instances(0, speakers.map(Whole).into());
            let sent = frame(&mut c, 1);
            assert_eq!(sent[0] & SHORT_FRAME != 0, short, "{speakers:?}");
        }
    }

    #[test]
    fn a_round_with_one_absent_or_one_differing_value_goes_plain() {
        /// `c`'s frame at round `rel` on `inbox`.
        fn sent(c: &mut OmConsensus, rel: u64, inbox: &[(usize, Vec<u8>)]) -> Vec<u8> {
            let inbox: Vec<(usize, &[u8])> = inbox.iter().map(|(s, m)| (*s, &m[..])).collect();
            let mut out = Vec::new();
            c.step(rel, &inbox, &mut out);
            out
        }
        let announcements = |n: usize, lost: usize| -> Vec<(usize, Vec<u8>)> {
            (1..n)
                .filter(|&s| s != lost)
                .map(|s| (s, short_frame(1, &[5])))
                .collect()
        };
        // (4, 1), processor 0: with every announcement heard, round 1 is
        // short; with source 1's lost, its part tells no node, and the
        // round goes plain, every part spelled as it would be anyway.
        let mut c = OmConsensus::new(0, 4, 1);
        c.begin(5);
        assert_eq!(frame(&mut c, 0), short_frame(1, &[5]));
        assert_eq!(
            sent(&mut c, 1, &announcements(4, 0)),
            short_frame(2, &[5; 3])
        );
        c.begin(5);
        frame(&mut c, 0);
        let told = [&[2u8, 1][..], &5u64.to_be_bytes()].concat();
        assert_eq!(
            sent(&mut c, 1, &announcements(4, 1)),
            mux(&[(1, vec![2, 0]), (2, told.clone()), (3, told)])
        );
        // (7, 2), processor 0: at level 2 relayer 2 says source 1 told it
        // `differ`, every other relay says 5. At 5, round 2 is short; at 6,
        // source 1's level-3 part tells nodes (1, q, 0), q = 2…6, the
        // values 6, 5, 5, 5, 5 — plain — and the round goes plain, every
        // other part uniform.
        for differ in [5, 6] {
            let mut c = OmConsensus::new(0, 7, 2);
            c.begin(5);
            frame(&mut c, 0);
            assert_eq!(
                sent(&mut c, 1, &announcements(7, 0)),
                short_frame(2, &[5; 6])
            );
            let relays: Vec<(usize, Vec<u8>)> = (1..7)
                .map(|q| {
                    let values: Vec<Value> = (0..7)
                        .filter(|&s| s != q)
                        .map(|s| if (q, s) == (2, 1) { differ } else { 5 })
                        .collect();
                    (q, short_frame(2, &values))
                })
                .collect();
            let round2 = sent(&mut c, 2, &relays);
            if differ == 5 {
                assert_eq!(round2, short_frame(3, &[5; 6]));
                continue;
            }
            let five = 5u64.to_be_bytes();
            let plain = [
                &[3u8, 0b1_1111][..],
                &6u64.to_be_bytes(),
                &five,
                &five,
                &five,
                &five,
            ]
            .concat();
            let uniform = [&[3u8 | 0x80, 0b1_1111][..], &five].concat();
            let parts: Vec<(u16, Vec<u8>)> = (1..7u16)
                .map(|s| {
                    (
                        s,
                        if s == 1 {
                            plain.clone()
                        } else {
                            uniform.clone()
                        },
                    )
                })
                .collect();
            assert_eq!(round2, mux(&parts));
        }
    }

    #[test]
    fn a_frame_cut_short_gives_only_the_parts_it_holds_whole() {
        // Every plain frame of consensuses at (4, 1) and (7, 2) whose
        // source 1 is silent (so no relay round is short), and of one at
        // (10, 3) whose sources all equivocate (parts of 456 bytes,
        // two-byte lengths), cut at every byte: a cut between parts leaves
        // a shorter frame of whole parts, and any other cut drops the
        // message whole.
        let silent =
            |from: usize, round: u64, _: usize, _: &[u8]| (from == 1 && round == 0).then(Vec::new);
        for (n, f, liars) in [(4, 1, false), (7, 2, false), (10, 3, true)] {
            let mut frames = Vec::new();
            let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, f)).collect();
            run_pure(
                instances,
                &vec![5; n],
                |from: usize, round: u64, to: usize, p: &[u8]| {
                    let sent = if liars {
                        equivocate(from, round, to, p)
                    } else {
                        silent(from, round, to, p)
                    };
                    frames.push(sent.clone().unwrap_or_else(|| p.to_vec()));
                    sent
                },
            );
            frames.retain(|frame| frame.first().is_some_and(|&b| b & SHORT_FRAME == 0));
            // At least the first relay round of every processor that heard
            // source 1's silence (or a lie), to each of its peers.
            assert!(frames.len() >= (n - 1) * (n - 1), "n={n} f={f}");
            for frame in &frames {
                let whole = demux(n, &[(1, &frame[..])], |_| false);
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
                        demux(n, &[(1, &frame[..cut])], |_| false),
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
        // announcement, which tells its one node one value and so goes as
        // the short frame `0x81 · 9`; round 1 relays, with nothing heard,
        // an empty level of each of the three other sources' trees, plain.
        // Each round is one frame, the second the reference mux of what
        // the instances appended.
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
        assert_eq!(parts(&c, 0).len(), 1, "round 0 has one part");
        assert_eq!(frame(&mut c, 0), [SHORT_FRAME | 1, 9]);
        let expected = mux(&parts(&c, 1));
        let frame1 = frame(&mut c, 1);
        assert_eq!(frame1.len(), 3 * (2 + 2));
        assert_eq!(frame1, expected);
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
        for (n, f) in [(7, 2), (10, 3)] {
            assert_eq!(
                OmConsensus::max_frame_len(n, f),
                Some(longest_frame(n, f, equivocate)),
                "n={n} f={f}"
            );
        }
        // At f = 1 a relay part tells one node, so a relay round whose
        // every part tells it goes short and the bound, three full parts
        // of 2 + 10 bytes, is not reached. The longest frame a run reaches
        // has one source silent: relay round 1 goes plain, an empty part
        // of 2 + 2 bytes beside two told ones (4 + 12 + 12), whether or
        // not another source equivocates.
        assert_eq!(OmConsensus::max_frame_len(4, 1), Some(36));
        let silent_and_equivocate = |from: usize, round: u64, to: usize, p: &[u8]| match from {
            0 if round == 0 => Some(Vec::new()),
            _ => equivocate(from, round, to, p),
        };
        assert_eq!(longest_frame(4, 1, silent_and_equivocate), 28);
        assert!(
            OmConsensus::max_frame_len(4, 1) >= Some(longest_frame(4, 1, silent_and_equivocate))
        );
        assert_eq!(OmConsensus::max_frame_len(usize::MAX, 3), None);
    }

    #[test]
    fn an_honest_frame_carries_one_value_a_part() {
        // Every round is short: the level byte and, in a relay round, the
        // n - 1 values of the other sources' trees, each 5 in one byte:
        // 10 bytes at (10, 3), where the envelope is 4131.
        for (n, f) in [(4, 1), (7, 2), (10, 3)] {
            assert_eq!(longest_frame(n, f, honest), 1 + (n - 1), "n={n} f={f}");
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
