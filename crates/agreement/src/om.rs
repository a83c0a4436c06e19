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
use crate::wire::{Reader, Writer};
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

/// Longest path (`f + 1` ids) an instance handles; decoding parses into a
/// stack array of this size. With `n > 3f`, a tree this deep is far beyond
/// what [`EigTree::new`] can index.
const MAX_DEPTH: usize = 16;

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
        assert!(f < MAX_DEPTH, "OM paths are at most {MAX_DEPTH} ids deep");
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
        let mut w = Writer::new();
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

    fn decode_and_store(&mut self, sender: usize, payload: &[u8], expect_len: usize) {
        let mut r = Reader::new(payload);
        let Some(count) = r.get_u32() else { return };
        let mut path = [0u16; MAX_DEPTH];
        for _ in 0..count.min(self.max_entries) {
            let Some(len) = r.get_u8() else { return };
            let len = usize::from(len);
            for i in 0..len {
                let Some(id) = r.get_u16() else { return };
                if let Some(slot) = path.get_mut(i) {
                    *slot = id;
                }
            }
            let Some(value) = r.get_u64() else { return };
            // A relayed path has this round's length and ends at the
            // processor it arrived from; the tree checks the rest (declared
            // source, ids in range and distinct).
            if len == expect_len
                && path[..len]
                    .last()
                    .is_some_and(|&q| usize::from(q) == sender)
            {
                self.tree.store(&path[..len], value);
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
        self.f as u64 + 2
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
    use crate::eig::reference::RefTree;
    use crate::executor::{no_tamper as honest, run_pure};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Every node of an `(n, f, source)` tree, level by level.
    fn all_nodes(n: usize, f: usize, source: u16) -> Vec<Vec<u16>> {
        let mut nodes = vec![vec![source]];
        let mut level_begin = 0;
        for _ in 0..f {
            let level_end = nodes.len();
            for i in level_begin..level_end {
                let parent = nodes[i].clone();
                for q in (0..n as u16).filter(|q| !parent.contains(q)) {
                    nodes.push([parent.as_slice(), &[q]].concat());
                }
            }
            level_begin = level_end;
        }
        nodes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The flat table against the `HashMap` tree it replaced, over
        /// random partial trees with few distinct values (so ties and
        /// missing nodes occur): same nodes, same decision, and the same
        /// relay payload byte for byte at every level for every relayer.
        #[test]
        fn flat_tree_matches_the_reference(n in 4usize..=10, seed in any::<u64>()) {
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
