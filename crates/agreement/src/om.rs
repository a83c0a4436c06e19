//! Oral-messages Byzantine broadcast and consensus (Lamport–Shostak–Pease).
//!
//! [`OmBroadcast`] is the classic OM(f) algorithm over an [`EigTree`]:
//! a designated source broadcasts, everyone relays for `f` further rounds,
//! then resolves by recursive majority. Guarantees, for `n > 3f`:
//!
//! * **Agreement** — all honest processors decide the same value;
//! * **Validity** — if the source is honest, they decide its value;
//! * **Termination** — after exactly `f+2` steps (send + `f` relays +
//!   resolve).
//!
//! [`OmConsensus`](crate::consensus::OmConsensus) runs `n` broadcasts in parallel (every processor is the
//! source of its own input) and decides the majority of the agreed vector —
//! interactive consistency, the form the judicial service uses to agree on
//! per-agent commitments.

use crate::eig::EigTree;
use crate::traits::{broadcast_others, BaInstance, Send};
use crate::wire::Writer;
use crate::{Value, DEFAULT_VALUE};

/// One OM(f) broadcast instance at one processor.
#[derive(Debug, Clone)]
pub struct OmBroadcast {
    me: usize,
    n: usize,
    f: usize,
    source: usize,
    input: Value,
    tree: EigTree,
    /// Entries decoded from one payload before the rest is ignored.
    max_entries: u32,
    decided: Option<Value>,
}

/// Steps one OM(`f`) broadcast — and so one consensus over `n` of them —
/// takes: the source's send, `f` relays, the resolve.
pub const fn rounds(f: usize) -> u64 {
    f as u64 + 2
}

/// Bytes of the relay payload a processor sends for another source's
/// broadcast at relative round `t ≥ 1` once every level-`t` node reached
/// it: the 4-byte count, then `(n-2)(n-3)…(n-t)` entries (the `t - 1` ids
/// after the source are distinct and none is the source or `me`) of
/// `11 + 2t` bytes. No payload of that round is longer. `None` on overflow.
pub fn full_relay_len(n: usize, t: usize) -> Option<usize> {
    let mut entries = 1usize;
    for k in 2..=t {
        entries = entries.checked_mul(n.checked_sub(k)?)?;
    }
    entries
        .checked_mul(t.checked_mul(2)?.checked_add(11)?)?
        .checked_add(4)
}

impl OmBroadcast {
    /// Creates the instance for processor `me` with broadcast source
    /// `source`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3f` and ids are in range (and fit the wire's
    /// `u16`), or if the EIG tree for `(n, f)` is too large to build.
    pub fn new(me: usize, n: usize, f: usize, source: usize) -> OmBroadcast {
        assert!(n > 3 * f, "oral messages require n > 3f");
        assert!(me < n && source < n, "ids in range");
        assert!(n <= 1 << 16, "processor ids must fit the wire's u16");
        // Cap: a Byzantine sender cannot make a receiver loop over more
        // entries than a few full trees hold.
        let max_entries = u32::try_from(f + 1)
            .ok()
            .and_then(|depth| u32::try_from(n).ok()?.checked_pow(depth))
            .and_then(|nodes| nodes.checked_mul(4)?.checked_add(16))
            .unwrap_or_else(|| panic!("OM broadcast at n={n}, f={f}: 4·n^(f+1) overflows u32"));
        OmBroadcast {
            me,
            n,
            f,
            source,
            input: DEFAULT_VALUE,
            tree: EigTree::new(n, f, source as u16),
            max_entries,
            decided: None,
        }
    }

    /// Builds the relay payload for `level`; the tree mirrors every relayed
    /// node `α·me` as it goes.
    fn relay_level(&mut self, level: usize) -> Vec<u8> {
        // Nobody relays its own broadcast; anyone else's relay is at most
        // `full_relay_len` bytes, and exactly that in an honest run.
        let capacity = match full_relay_len(self.n, level) {
            Some(len) if self.me != self.source => len,
            _ => 4,
        };
        let mut w = Writer::with_capacity(capacity);
        w.put_u32(0); // the entry count, known after the scan
        let mut count = 0u32;
        self.tree.relay(level, self.me as u16, |path, value| {
            w.put_u8(path.len() as u8);
            for &id in path {
                w.put_u16(id);
            }
            w.put_u64(value);
            count += 1;
        });
        let mut payload = w.finish();
        payload[..4].copy_from_slice(&count.to_be_bytes());
        payload
    }

    /// Stores the level-`level` entries of one relay `payload` from
    /// `sender`: a `u32` count, then per entry a `u8` path length, that
    /// many big-endian `u16` ids and a big-endian `u64` value.
    ///
    /// At most `min(count, max_entries)` entries are read, and reading
    /// stops at the first one the payload ends inside. An entry of another
    /// length is stepped over. One of this round's length enters the tree
    /// iff
    ///
    /// * its first id is the source,
    /// * every later id is below `n`,
    /// * its last id is `sender` (a processor relays `α·itself`), and
    /// * its slot's node bit is set (the ids are distinct);
    ///
    /// and then only if the node is still empty (first write wins).
    fn decode_and_store(&mut self, sender: usize, payload: &[u8], level: usize) {
        let Some((count, mut rest)) = payload.split_first_chunk::<4>() else {
            return;
        };
        'entries: for _ in 0..u32::from_be_bytes(*count).min(self.max_entries) {
            let Some(&len) = rest.first() else { return };
            let Some((entry, tail)) = rest.split_at_checked(9 + 2 * usize::from(len)) else {
                return;
            };
            rest = tail;
            if usize::from(len) != level {
                continue;
            }
            let (ids, value) = entry[1..].split_at(2 * level);
            let mut ids = ids
                .chunks_exact(2)
                .map(|id| usize::from(u16::from_be_bytes([id[0], id[1]])));
            if ids.next() != Some(self.source) {
                continue;
            }
            // The path after the source, read as a base-`n` number; with
            // no such ids, the source is also the last hop.
            let (mut slot, mut last) = (0usize, self.source);
            for id in ids {
                if id >= self.n {
                    continue 'entries;
                }
                slot = slot * self.n + id;
                last = id;
            }
            if last == sender {
                let value = u64::from_be_bytes(value.try_into().expect("8 bytes after the ids"));
                self.tree.store_slot(level, slot, value);
            }
        }
    }
}

impl BaInstance for OmBroadcast {
    fn begin(&mut self, input: Value) {
        self.input = input;
        self.tree.reset();
        self.decided = None;
    }

    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], send: &mut Send<'_>) {
        let f = self.f as u64;
        match rel_round {
            // Step 0: the source announces; everyone else is silent and
            // ignores its round-0 inbox (stale cross-period traffic must
            // not enter the tree — the self-stabilizing wrap relies on it).
            0 => {
                if self.me != self.source {
                    return;
                }
                self.tree.store(&[self.source as u16], self.input);
                let mut w = Writer::new();
                w.put_u32(1);
                w.put_u8(1);
                w.put_u16(self.source as u16);
                w.put_u64(self.input);
                broadcast_others(self.n, self.me, w.finish(), send);
            }
            // Steps 1..=f: store level-t nodes, relay as level-(t+1).
            t if t <= f => {
                for &(sender, payload) in inbox {
                    self.decode_and_store(sender, payload, t as usize);
                }
                let relay = self.relay_level(t as usize);
                broadcast_others(self.n, self.me, relay, send);
            }
            // Step f+1: store the leaves and resolve.
            t if t == f + 1 => {
                for &(sender, payload) in inbox {
                    self.decode_and_store(sender, payload, t as usize);
                }
                self.decided = Some(self.tree.resolve());
            }
            _ => {}
        }
    }

    fn rounds(&self) -> u64 {
        rounds(self.f)
    }

    fn decided(&self) -> Option<Value> {
        self.decided
    }

    fn name(&self) -> &'static str {
        "om-broadcast"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::reference::{all_nodes, RefTree};
    use crate::eig::MAX_DEPTH;
    use crate::executor::{no_tamper as honest, run_pure};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The decoder [`OmBroadcast::decode_and_store`] replaced — field by
    /// field through a [`Reader`](crate::wire::Reader), then into the tree
    /// by path: the oracle of the decode property test.
    fn decode_and_store_reference(
        inst: &mut OmBroadcast,
        sender: usize,
        payload: &[u8],
        expect_len: usize,
    ) {
        let mut r = crate::wire::Reader::new(payload);
        let Some(count) = r.get_u32() else { return };
        let mut path = [0u16; MAX_DEPTH];
        for _ in 0..count.min(inst.max_entries) {
            let Some(len) = r.get_u8() else { return };
            let len = usize::from(len);
            for i in 0..len {
                let Some(id) = r.get_u16() else { return };
                if let Some(slot) = path.get_mut(i) {
                    *slot = id;
                }
            }
            let Some(value) = r.get_u64() else { return };
            if len == expect_len
                && path[..len]
                    .last()
                    .is_some_and(|&q| usize::from(q) == sender)
            {
                inst.tree.store(&path[..len], value);
            }
        }
    }

    /// A relay payload as the wire carries it: `count`, then every
    /// `(path, value)` entry.
    fn payload(count: u32, entries: &[(Vec<u16>, Value)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(count);
        for (path, value) in entries {
            w.put_u8(path.len() as u8);
            for &id in path {
                w.put_u16(id);
            }
            w.put_u64(*value);
        }
        w.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The flat table against the `HashMap` tree it replaced, over
        /// random partial trees with few distinct values (so ties and
        /// missing nodes occur): same nodes, same decision, and the same
        /// relay payload byte for byte at every level for every relayer.
        #[test]
        fn flat_tree_matches_the_reference(n in 4usize..=13, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.gen_range(1..=(n - 1) / 3);
            let source = rng.gen_range(0..n as u16);
            let nodes = all_nodes(n, f, source);
            let density = [0.3, 0.7, 0.97][rng.gen_range(0..3usize)];

            let mut flat = EigTree::new(n, f, source);
            let mut reference = RefTree::default();
            // Two passes: the second re-stores some nodes with another
            // value, which first-write-wins must ignore.
            for pass in 0..2 {
                for path in &nodes {
                    if rng.gen_bool(if pass == 0 { density } else { 0.2 }) {
                        let value = rng.gen_range(0..3u64);
                        flat.store(path, value);
                        reference.store(path.clone(), value);
                    }
                }
            }

            let not_nodes: [Vec<u16>; 5] = [
                vec![],
                vec![source, source],
                vec![(source + 1) % n as u16],
                vec![source, n as u16],
                (0..f as u16 + 2).map(|i| (source + i) % n as u16).collect(),
            ];
            let same_nodes = |flat: &EigTree, reference: &RefTree| {
                flat.len() == reference.len()
                    && nodes.iter().chain(&not_nodes).all(|p| flat.get(p) == reference.get(p))
            };
            prop_assert!(same_nodes(&flat, &reference));
            prop_assert_eq!(flat.resolve(), reference.resolve(&[source], n, f));

            for me in 0..n {
                for level in 1..=f {
                    let mut ours = OmBroadcast::new(me, n, f, source as usize);
                    ours.tree = flat.clone();
                    let mut theirs = reference.clone();
                    prop_assert_eq!(
                        ours.relay_level(level),
                        theirs.relay_payload(level, me as u16),
                        "me={} level={}", me, level
                    );
                    prop_assert!(same_nodes(&ours.tree, &theirs), "mirrored nodes, me={}", me);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stride decoder against the `Reader` one it replaced, on one
        /// honest relay payload damaged in every way the accept conditions
        /// name: same node count, same value at every node.
        #[test]
        fn decode_matches_the_reference_on_mutated_payloads(
            n in 4usize..=13,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.gen_range(0..=(n - 1) / 3);
            let source = rng.gen_range(0..n);
            let level = rng.gen_range(1..=f + 1);
            // Level 1 comes from the source; deeper levels mostly from a
            // relayer, sometimes (wrongly) from the source again.
            let sender = if level == 1 || rng.gen_bool(0.1) {
                source
            } else {
                (source + rng.gen_range(1..n)) % n
            };
            let nodes = all_nodes(n, f, source as u16);
            let honest: Vec<(Vec<u16>, Value)> = nodes
                .iter()
                .filter(|path| path.len() == level && path[level - 1] == sender as u16)
                .map(|path| (path.clone(), rng.gen_range(1..4u64)))
                .collect();
            let all = honest.len() as u32;
            let stride = 9 + 2 * level;

            let whole = payload(all, &honest);
            let mut mutants: Vec<(&str, Vec<u8>)> = vec![
                ("honest", whole.clone()),
                ("count too large", payload(all + rng.gen_range(1..5u32), &honest)),
                ("count u32::MAX", payload(u32::MAX, &honest)),
                ("count too small", payload(rng.gen_range(0..=all / 2), &honest)),
            ];
            // Cut inside the count, and — in a random entry — before its
            // length byte, after it, inside its first and its last id,
            // and inside its value.
            mutants.push(("cut in count", whole[..rng.gen_range(0..4)].to_vec()));
            if !honest.is_empty() {
                let at = 4 + rng.gen_range(0..honest.len()) * stride;
                for (what, cut) in [
                    ("cut before len", at),
                    ("cut after len", at + 1),
                    ("cut in first id", at + 2),
                    ("cut in last id", at + 2 * level),
                    ("cut in value", at + 1 + 2 * level + rng.gen_range(0..8usize)),
                ] {
                    mutants.push((what, whole[..cut].to_vec()));
                }
            }
            // One entry replaced (`true`), or one inserted between two
            // others.
            let mut edits: Vec<(&str, Vec<u16>, Value, bool)> = Vec::new();
            for len in [0, level - 1, level + 1, MAX_DEPTH + 1, rng.gen_range(0..40)] {
                if len != level {
                    let ids = (0..len).map(|_| rng.gen_range(0..n as u16 + 2)).collect();
                    edits.push(("entry of another length", ids, 9, false));
                }
            }
            if let Some((path, value)) = honest.first() {
                let mut bad = path.clone();
                bad[rng.gen_range(0..level)] = [n as u16, n as u16 + 1, u16::MAX][rng.gen_range(0..3usize)];
                edits.push(("id out of range", bad, 9, true));

                let mut bad = path.clone();
                bad[0] = [sender as u16, (source as u16 + 1) % n as u16][rng.gen_range(0..2usize)];
                edits.push(("wrong first id", bad, 9, true));

                let mut bad = path.clone();
                bad[level - 1] = loop {
                    let id = rng.gen_range(0..n as u16);
                    if !path.contains(&id) {
                        break id;
                    }
                };
                edits.push(("wrong last hop", bad, 9, true));

                if level >= 2 {
                    let mut bad = path.clone();
                    bad[rng.gen_range(0..level - 1)] = sender as u16;
                    edits.push(("repeated id", bad, 9, true));

                    let mut bad = path.clone();
                    bad[rng.gen_range(1..level)] = source as u16;
                    edits.push(("source past position 0", bad, 9, true));
                }
                edits.push(("duplicate with another value", path.clone(), value + 1, false));
            }
            for (what, path, value, replace) in edits {
                let mut entries = honest.clone();
                let at = rng.gen_range(0..=entries.len().saturating_sub(1));
                if replace {
                    entries[at] = (path, value);
                } else {
                    entries.insert(at, (path, value));
                }
                mutants.push((what, payload(entries.len() as u32, &entries)));
            }
            // Past the entry cap nothing is read, however well-formed.
            let mut ours = OmBroadcast::new(rng.gen_range(0..n), n, f, source);
            let cap = ours.max_entries as usize;
            if cap <= 5000 {
                let mut entries = vec![(vec![], 9); cap];
                entries.extend(honest.iter().cloned());
                mutants.push(("past the cap", payload(entries.len() as u32, &entries)));
            }

            let mut oracle = ours.clone();
            for (what, bytes) in &mutants {
                ours.begin(0);
                oracle.begin(0);
                ours.decode_and_store(sender, bytes, level);
                decode_and_store_reference(&mut oracle, sender, bytes, level);
                prop_assert_eq!(ours.tree.len(), oracle.tree.len(), "{}", what);
                for path in &nodes {
                    prop_assert_eq!(
                        ours.tree.get(path), oracle.tree.get(path), "{} at {:?}", what, path
                    );
                }
                match *what {
                    "honest" | "count too large" | "count u32::MAX" => {
                        prop_assert_eq!(ours.tree.len(), honest.len(), "{}", what)
                    }
                    "past the cap" => prop_assert!(ours.tree.is_empty()),
                    _ => {}
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "n=2000, f=5: 4·n^(f+1) overflows u32")]
    fn rejects_an_entry_cap_that_overflows() {
        OmBroadcast::new(0, 2000, 5, 0);
    }

    #[test]
    fn wrong_sender_or_length_never_enters_the_tree() {
        let entry = |path: &[u16]| {
            let mut w = Writer::new();
            w.put_u32(1).put_u8(path.len() as u8);
            for &id in path {
                w.put_u16(id);
            }
            w.put_u64(7);
            w.finish()
        };
        let mut inst = OmBroadcast::new(1, 4, 1, 0);
        inst.decode_and_store(3, &entry(&[0, 2]), 2); // last hop is not the sender
        inst.decode_and_store(2, &entry(&[0, 2]), 1); // not this round's length
        inst.decode_and_store(2, &entry(&[]), 2); // empty path
        assert!(inst.tree.is_empty());
        inst.decode_and_store(2, &entry(&[0, 2]), 2);
        assert_eq!(inst.tree.get(&[0, 2]), Some(7));
    }

    #[test]
    fn broadcast_all_honest_delivers_source_value() {
        let n = 4;
        let instances: Vec<OmBroadcast> = (0..n).map(|me| OmBroadcast::new(me, n, 1, 2)).collect();
        let inputs = vec![0, 0, 99, 0];
        let decided = run_pure(instances, &inputs, honest);
        assert!(decided.iter().all(|d| *d == Some(99)));
    }

    #[test]
    fn broadcast_byzantine_relay_still_agrees_on_source_value() {
        // n=4, f=1, source 0 honest, process 3 garbles every relay.
        let n = 4;
        let instances: Vec<OmBroadcast> = (0..n).map(|me| OmBroadcast::new(me, n, 1, 0)).collect();
        let inputs = vec![42, 0, 0, 0];
        let decided = run_pure(
            instances,
            &inputs,
            |from: usize, _r: u64, _to: usize, _p: &[u8]| (from == 3).then(|| vec![0xde, 0xad]),
        );
        for (me, d) in decided.iter().enumerate().take(3) {
            assert_eq!(*d, Some(42), "honest p{me}");
        }
    }

    #[test]
    fn broadcast_byzantine_source_still_agreement() {
        // Source 0 equivocates: tells evens 7, odds 8. Honest must *agree*
        // (any common value).
        let n = 4;
        let instances: Vec<OmBroadcast> = (0..n).map(|me| OmBroadcast::new(me, n, 1, 0)).collect();
        let inputs = vec![7, 0, 0, 0];
        let decided = run_pure(
            instances,
            &inputs,
            |from: usize, round: u64, to: usize, p: &[u8]| {
                if from == 0 && round == 0 {
                    let mut w = Writer::new();
                    w.put_u32(1);
                    w.put_u8(1);
                    w.put_u16(0);
                    w.put_u64(if to.is_multiple_of(2) { 7 } else { 8 });
                    Some(w.finish())
                } else if from == 0 {
                    Some(p.to_vec())
                } else {
                    None
                }
            },
        );
        let honest_decisions: Vec<_> = (1..4).map(|i| decided[i]).collect();
        assert!(honest_decisions.iter().all(|d| *d == honest_decisions[0]));
    }

    #[test]
    #[should_panic(expected = "n > 3f")]
    fn rejects_insufficient_n() {
        OmBroadcast::new(0, 3, 1, 0);
    }

    #[test]
    fn non_source_is_silent_and_deaf_at_round_zero() {
        // Regression: round 0 must neither send nor decode for non-source
        // processes — stale cross-period traffic arriving at a restarted
        // instance's round 0 must not enter the EIG tree.
        let mut inst = OmBroadcast::new(1, 4, 1, 0);
        inst.begin(0);
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u8(1);
        w.put_u16(0);
        w.put_u64(99); // forged "source said 99"
        let stale = w.finish();
        let inbox: Vec<(usize, &[u8])> = vec![(3, stale.as_slice())];
        let sent = std::cell::Cell::new(0usize);
        let mut send = |_to: usize, _p: bytes::Bytes| sent.set(sent.get() + 1);
        inst.step(0, &inbox, &mut send);
        assert_eq!(sent.get(), 0, "non-source stays silent at round 0");
        // Run the remaining rounds with no traffic at all: the forged
        // round-0 message must not have seeded the tree with 99.
        for r in 1..inst.rounds() {
            inst.step(r, &[], &mut send);
        }
        assert_eq!(inst.decided(), Some(DEFAULT_VALUE));
    }

    #[test]
    fn restart_discards_state() {
        let n = 4;
        let instances: Vec<OmBroadcast> = (0..n).map(|me| OmBroadcast::new(me, n, 1, 0)).collect();
        let first = run_pure(instances.clone(), &[11, 0, 0, 0], honest);
        assert!(first.iter().all(|d| *d == Some(11)));
        // Re-begin with a different input: prior tree must not leak.
        let second = run_pure(instances, &[23, 0, 0, 0], honest);
        assert!(second.iter().all(|d| *d == Some(23)));
    }
}
