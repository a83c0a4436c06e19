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
//!
//! # Wire
//!
//! Every message of a broadcast is one [level payload](crate::eig#level-payload)
//! — level byte, presence bits, values in slot order, or one value if they
//! all agree; the format and its accept rule are stated there, once. At
//! step 0 the source sends the level-1 payload of its input (10 bytes); at
//! step `t` in `1..=f` every other processor stores the level-`t` payloads
//! it received and sends the level-`t + 1` payload of what it now holds:
//! the level byte, the presence bits and 8 bytes if the source told
//! everyone one thing, up to [`full_relay_len`] bytes if it did not. The
//! source relays nothing of its own broadcast, so it sends nothing after
//! step 0.
//!
//! Each step reports whether its payload tells every one of its nodes one
//! value ([`Broadcast::step_part`]): the announcement always does, and a
//! relay does unless the source equivocated or a payload was lost. When
//! every instance of a consensus round does, the round goes as one short
//! frame, a varint value per instance
//! ([`consensus`](crate::consensus#short-frame)), and each receiving
//! instance takes its value as the payload it stands for
//! ([`Broadcast::take_whole`]).

use crate::consensus::Broadcast;
use crate::eig::{EigTree, LevelPayload};
use crate::traits::BaInstance;
use crate::{Value, DEFAULT_VALUE};

/// One OM(f) broadcast instance at one processor.
#[derive(Debug, Clone)]
pub struct OmBroadcast {
    me: usize,
    f: usize,
    source: usize,
    input: Value,
    tree: EigTree,
    decided: Option<Value>,
}

/// Steps one OM(`f`) broadcast — and so one consensus over `n` of them —
/// takes: the source's send, `f` relays, the resolve.
pub const fn rounds(f: usize) -> u64 {
    f as u64 + 2
}

/// Bytes of the longest relay payload a processor sends for another
/// source's broadcast at relative round `t ≥ 1`: the level byte, a presence
/// bit for each of the `K = (n-2)(n-3)…(n-t)` level-`t + 1` nodes ending in
/// the sender (the `t - 1` ids between the source and it are distinct and
/// neither), and `K` values — every level-`t` node reached it and, past
/// `K = 1`, no two agree, which takes a source that equivocates. No payload
/// of that round is longer; with an honest source the `K` values are one.
/// `None` on overflow.
pub fn full_relay_len(n: usize, t: usize) -> Option<usize> {
    let mut slots = 1usize;
    for k in 2..=t {
        slots = slots.checked_mul(n.checked_sub(k)?)?;
    }
    slots
        .checked_mul(8)?
        .checked_add(slots.div_ceil(8))?
        .checked_add(1)
}

impl OmBroadcast {
    /// Creates the instance for processor `me` with broadcast source
    /// `source`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3f` and ids are in range (and fit the tree's
    /// `u16`), or if the EIG tree for `(n, f)` is too large to build.
    pub fn new(me: usize, n: usize, f: usize, source: usize) -> OmBroadcast {
        assert!(n > 3 * f, "oral messages require n > 3f");
        assert!(me < n && source < n, "ids in range");
        assert!(n <= 1 << 16, "processor ids must fit the tree's u16");
        OmBroadcast {
            me,
            f,
            source,
            input: DEFAULT_VALUE,
            tree: EigTree::new(n, f, source as u16),
            decided: None,
        }
    }

    /// The instance's tree, for the consensus tests.
    #[cfg(test)]
    pub(crate) fn tree_mut(&mut self) -> &mut EigTree {
        &mut self.tree
    }

    /// Stores the level-`level` payload of every inbox message.
    fn absorb_all(&mut self, level: u64, inbox: &[(usize, &[u8])]) {
        for &(sender, payload) in inbox {
            self.tree.absorb(level as usize, sender, payload);
        }
    }
}

impl Broadcast for OmBroadcast {
    const SHORT_FRAMES: bool = true;

    fn step_part(
        &mut self,
        rel_round: u64,
        inbox: &[(usize, &[u8])],
        out: &mut Vec<u8>,
    ) -> Option<Value> {
        let f = self.f as u64;
        match rel_round {
            // Step 0: the source announces; everyone else is silent and
            // ignores its round-0 inbox (stale cross-period traffic must
            // not enter the tree — the self-stabilizing wrap relies on it).
            0 => {
                if self.me != self.source {
                    return None;
                }
                self.tree.store(&[self.source as u16], self.input);
                let mut announcement = LevelPayload::new(out, 1, 1);
                announcement.push(Some(self.input));
                announcement.finish()
            }
            // Steps 1..=f: store level-t nodes, relay as level-(t+1).
            // Nobody relays its own broadcast.
            t if t <= f => {
                self.absorb_all(t, inbox);
                if self.me == self.source {
                    return None;
                }
                self.tree.relay(t as usize, self.me as u16, out)
            }
            // Step f+1: store the leaves and resolve.
            t if t == f + 1 => {
                self.absorb_all(t, inbox);
                self.decided = Some(self.tree.resolve());
                None
            }
            _ => None,
        }
    }

    fn take_whole(&mut self, level: usize, sender: usize, value: Value) {
        self.tree.absorb_whole(level, sender, value);
    }
}

impl BaInstance for OmBroadcast {
    fn begin(&mut self, input: Value) {
        self.input = input;
        self.tree.reset();
        self.decided = None;
    }

    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
        self.step_part(rel_round, inbox, out);
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
    use crate::eig::reference::{all_nodes, decode_reference, relayed, RefTree};
    use crate::executor::{no_tamper as honest, run_pure};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The level payload telling `values` of consecutive slots.
    fn payload(level: usize, values: &[Option<Value>]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut p = LevelPayload::new(&mut out, level, values.len());
        values.iter().for_each(|&v| p.push(v));
        p.finish();
        out
    }

    /// A payload forged field by field, well-formed or not: the first byte,
    /// a presence bit per entry of `told`, then `values`.
    fn forge(tag: u8, told: &[bool], values: &[Value]) -> Vec<u8> {
        let mut bytes = vec![0; 1 + told.len().div_ceil(8)];
        bytes[0] = tag;
        for (i, _) in told.iter().enumerate().filter(|&(_, &t)| t) {
            bytes[1 + i / 8] |= 1 << (i % 8);
        }
        bytes.extend(values.iter().flat_map(|v| v.to_be_bytes()));
        bytes
    }

    /// Proves `announcement` is what a source sends at round 0, so a test
    /// that forges one tests what it says it does: from `source` at round 1
    /// it populates exactly the root, with `value`; from anyone else, or
    /// at round 0, nothing.
    fn assert_announces(announcement: &[u8], n: usize, source: usize, value: Value) {
        let (me, other) = ((source + 1) % n, (source + 2) % n);
        let fresh = || {
            let mut inst = OmBroadcast::new(me, n, 1, source);
            inst.begin(0);
            inst
        };
        let mut inst = fresh();
        inst.absorb_all(1, &[(source, announcement)]);
        assert_eq!(inst.tree.len(), 1);
        assert_eq!(inst.tree.get(&[source as u16]), Some(value));
        let mut inst = fresh();
        inst.absorb_all(1, &[(other, announcement)]);
        assert!(inst.tree.is_empty(), "only the source announces");
        let mut inst = fresh();
        let mut out = Vec::new();
        inst.step(0, &[(source, announcement)], &mut out);
        assert!(inst.tree.is_empty(), "round 0 is deaf");
        assert!(out.is_empty(), "and silent");
    }

    /// A random `(n, f, source)` and a partial tree over it.
    fn random_tree(n: usize, rng: &mut StdRng, density: f64) -> (usize, u16, EigTree) {
        let f = rng.gen_range(0..=(n - 1) / 3);
        let source = rng.gen_range(0..n as u16);
        let mut tree = EigTree::new(n, f, source);
        for path in all_nodes(n, f, source) {
            if rng.gen_bool(density) {
                tree.store(&path, rng.gen_range(1..4));
            }
        }
        (f, source, tree)
    }

    /// A random level of the tree whose every path is in `nodes` — the
    /// last, where a part tells most nodes, half the time — a sender for
    /// it — level 1 comes from the source; deeper levels mostly from a
    /// relayer, sometimes (wrongly) from the source again — and how many
    /// nodes of that level end in the sender.
    fn random_part(nodes: &[Vec<u16>], n: usize, rng: &mut StdRng) -> (usize, usize, usize) {
        let source = usize::from(nodes[0][0]);
        let depth = nodes[nodes.len() - 1].len();
        let level = if rng.gen() {
            depth
        } else {
            rng.gen_range(1..=depth)
        };
        let sender = if level == 1 || rng.gen_bool(0.1) {
            source
        } else {
            (source + rng.gen_range(1..n)) % n
        };
        (level, sender, column_len(nodes, level, sender))
    }

    /// How many level-`level` paths of `nodes` end in `sender`.
    fn column_len(nodes: &[Vec<u16>], level: usize, sender: usize) -> usize {
        nodes
            .iter()
            .filter(|p| p.len() == level && usize::from(p[level - 1]) == sender)
            .count()
    }

    /// Paths that name no node of an `(n, f, source)` tree.
    fn not_nodes(n: usize, f: usize, source: u16) -> [Vec<u16>; 5] {
        [
            vec![],
            vec![source, source],
            vec![(source + 1) % n as u16],
            vec![source, n as u16],
            (0..f as u16 + 2).map(|i| (source + i) % n as u16).collect(),
        ]
    }

    /// One write into a tree, as the column oracle and the reset test
    /// replay it: a payload `(level, sender, bytes)`, a store, a relay
    /// `(level, me)`.
    #[derive(Debug, Clone)]
    enum Step {
        Absorb(usize, usize, Vec<u8>),
        Store(Vec<u16>, Value),
        Relay(usize, u16),
    }

    /// A payload for the `slots` nodes of one column: the whole column
    /// told `common`, as an honest relayer tells it, half the time; else
    /// the whole column told another value, part of it told, two values,
    /// nothing, a damaged copy, or noise.
    fn column_payload(level: usize, slots: usize, common: Value, rng: &mut StdRng) -> Vec<u8> {
        let other = common ^ 1;
        let whole = |value| payload(level, &vec![Some(value); slots]);
        // Each node told with probability `p`, one of `values`.
        let part = |rng: &mut StdRng, p: f64, values: [Value; 2]| {
            let told: Vec<_> = (0..slots)
                .map(|_| rng.gen_bool(p).then(|| values[rng.gen_range(0..2usize)]))
                .collect();
            payload(level, &told)
        };
        match rng.gen_range(0..10) {
            0..=4 => whole(common),
            5 => whole(other),
            6 => part(rng, 0.7, [common; 2]),
            7 => part(rng, 0.8, [common, other]),
            8 => payload(level, &vec![None; slots]),
            _ if rng.gen() => (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect(),
            _ => {
                let mut bytes = whole(common);
                let i = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..3) {
                    0 => bytes[i] ^= 1 << rng.gen_range(0..8u8),
                    1 => bytes.truncate(i),
                    _ => bytes.extend([0; 8]),
                }
                bytes
            }
        }
    }

    /// Forty-odd random writes into a tree over `nodes`: rounds (one
    /// level's payload from every sender, most of them the whole column
    /// told one value, as an honest run delivers them, or one of two
    /// values, as honest relays of an equivocating source do), single
    /// payloads — now and then the same sender's again — stores, and
    /// relays by any processor.
    fn random_script(nodes: &[Vec<u16>], n: usize, f: usize, rng: &mut StdRng) -> Vec<Step> {
        let source = usize::from(nodes[0][0]);
        // Small, so `DEFAULT_VALUE` is told as often as not.
        let common = rng.gen_range(0..3);
        let mut script = Vec::new();
        let mut last = (1, source);
        while script.len() < 40 {
            let level = rng.gen_range(1..=f + 1);
            match rng.gen_range(0..8) {
                0 | 1 => {
                    // Half the rounds follow a source that told two
                    // values: each column says one, not every column the
                    // same. Half lose or damage no part.
                    let split = rng.gen_bool(0.5);
                    let noise = if rng.gen() { 0.0 } else { 0.3 };
                    for sender in (0..n).filter(|&q| (level == 1) == (q == source)) {
                        let slots = column_len(nodes, level, sender);
                        let value = common ^ u64::from(split && rng.gen());
                        let bytes = if !rng.gen_bool(noise) {
                            payload(level, &vec![Some(value); slots])
                        } else if rng.gen() {
                            continue;
                        } else {
                            column_payload(level, slots, common, rng)
                        };
                        script.push(Step::Absorb(level, sender, bytes));
                    }
                }
                2 | 3 => {
                    let (level, sender) = if rng.gen_bool(0.3) {
                        last
                    } else if rng.gen_bool(0.9) {
                        let (level, sender, _) = random_part(nodes, n, rng);
                        (level, sender)
                    } else {
                        (level, rng.gen_range(0..=n))
                    };
                    let slots = column_len(nodes, level, sender);
                    let bytes = column_payload(level, slots, common, rng);
                    script.push(Step::Absorb(level, sender, bytes));
                    last = (level, sender);
                }
                4 => {
                    let path = nodes[rng.gen_range(0..nodes.len())].clone();
                    script.push(Step::Store(path, common ^ rng.gen_range(0..2u64)));
                }
                _ => script.push(Step::Relay(
                    rng.gen_range(1..=f),
                    rng.gen_range(0..n as u16),
                )),
            }
        }
        script
    }

    /// Takes `step` into `tree`; returns what a relay sent.
    fn apply(tree: &mut EigTree, step: &Step) -> Vec<u8> {
        match step {
            Step::Absorb(level, sender, bytes) => tree.absorb(*level, *sender, bytes),
            Step::Store(path, value) => tree.store(path, *value),
            Step::Relay(level, me) => return relayed(tree, *level, *me),
        }
        vec![]
    }

    /// [`apply`] for the reference tree over `nodes`.
    fn apply_reference(tree: &mut RefTree, nodes: &[Vec<u16>], step: &Step) -> Vec<u8> {
        match step {
            Step::Absorb(level, sender, bytes) => {
                for (path, value) in decode_reference(nodes, *level, *sender, bytes) {
                    tree.store(path, value);
                }
            }
            Step::Store(path, value) if nodes.contains(path) => tree.store(path.clone(), *value),
            Step::Store(..) => {}
            Step::Relay(level, me) => return tree.relay_payload(*level, *me, nodes),
        }
        vec![]
    }

    /// Everything a tree answers: its node count, the value at each of
    /// `paths`, its decision, and the payload of every relay it could
    /// make next, level by level, processor by processor.
    type Seen = (usize, Vec<Option<Value>>, Value, Vec<Vec<u8>>);

    fn seen(tree: &EigTree, paths: &[Vec<u16>], n: usize, f: usize) -> Seen {
        let relays = (1..=f)
            .flat_map(|level| (0..n as u16).map(move |me| relayed(&mut tree.clone(), level, me)))
            .collect();
        let values = paths.iter().map(|p| tree.get(p)).collect();
        (tree.len(), values, tree.resolve(), relays)
    }

    /// [`seen`] for the reference tree over `nodes`.
    fn seen_reference(
        tree: &RefTree,
        nodes: &[Vec<u16>],
        paths: &[Vec<u16>],
        n: usize,
        f: usize,
    ) -> Seen {
        let relays = (1..=f)
            .flat_map(|level| {
                (0..n as u16).map(move |me| tree.clone().relay_payload(level, me, nodes))
            })
            .collect();
        let values = paths.iter().map(|p| tree.get(p)).collect();
        (tree.len(), values, tree.resolve(&nodes[0], n, f), relays)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The flat table against the `HashMap` tree it replaced, over
        /// random partial trees with one to three distinct values (so
        /// ties, missing nodes and both payload forms occur): same nodes,
        /// same decision, and the same relay payload byte for byte at
        /// every level for every relayer — which, absorbed by a fresh
        /// tree, populates exactly the relayed children.
        #[test]
        fn flat_tree_matches_the_reference(n in 4usize..=13, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.gen_range(1..=(n - 1) / 3);
            let source = rng.gen_range(0..n as u16);
            let nodes = all_nodes(n, f, source);
            let density = [0.3, 0.7, 0.97][rng.gen_range(0..3usize)];
            let distinct = rng.gen_range(1..=3u64);

            let mut flat = EigTree::new(n, f, source);
            let mut reference = RefTree::default();
            // Two passes: the second re-stores some nodes with another
            // value, which first-write-wins must ignore.
            for pass in 0..2 {
                for path in &nodes {
                    if rng.gen_bool(if pass == 0 { density } else { 0.2 }) {
                        let value = rng.gen_range(0..distinct);
                        flat.store(path, value);
                        reference.store(path.clone(), value);
                    }
                }
            }

            let not_nodes = not_nodes(n, f, source);
            let same_nodes = |flat: &EigTree, reference: &RefTree| {
                flat.len() == reference.len()
                    && nodes.iter().chain(&not_nodes).all(|p| flat.get(p) == reference.get(p))
            };
            prop_assert!(same_nodes(&flat, &reference));
            prop_assert_eq!(flat.resolve(), reference.resolve(&[source], n, f));

            for me in 0..n as u16 {
                for level in 1..=f {
                    let mut ours = flat.clone();
                    let mut theirs = reference.clone();
                    let relay = relayed(&mut ours, level, me);
                    prop_assert_eq!(
                        &relay,
                        &theirs.relay_payload(level, me, &nodes),
                        "me={} level={}", me, level
                    );
                    prop_assert!(same_nodes(&ours, &theirs), "mirrored nodes, me={}", me);
                    prop_assert!(full_relay_len(n, level).is_some_and(|len| relay.len() <= len));

                    // Round trip: a receiver ends up with `α·me` for every
                    // populated `α` off `me`'s path, and nothing else.
                    let mut receiver = EigTree::new(n, f, source);
                    receiver.absorb(level + 1, usize::from(me), &relay);
                    let mut relayed = 0;
                    for path in nodes.iter().filter(|p| p.len() == level + 1) {
                        let expected = (path[level] == me).then(|| flat.get(&path[..level])).flatten();
                        prop_assert_eq!(receiver.get(path), expected, "{:?} from {}", path, me);
                        relayed += usize::from(expected.is_some());
                    }
                    prop_assert_eq!(receiver.len(), relayed);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// [`EigTree::absorb`] against the `Reader` decoder, on one honest
        /// payload damaged in every way the accept rule names, into a
        /// partly populated tree: same node count, same value at every
        /// node.
        #[test]
        fn decode_matches_the_reference_on_mutated_payloads(
            n in 4usize..=13,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (f, source, base) = random_tree(n, &mut rng, 0.2);
            let nodes = all_nodes(n, f, source);
            let (level, sender, slots) = random_part(&nodes, n, &mut rng);
            // One to three distinct values, so `whole` is of either form.
            let distinct = rng.gen_range(1..=3u64);
            let told: Vec<Option<Value>> = (0..slots)
                .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(4..4 + distinct)))
                .collect();
            let whole = payload(level, &told);
            let uniform = whole[0] & 0x80 != 0;

            let mut mutants: Vec<(&str, Vec<u8>)> = vec![
                ("honest", whole.clone()),
                ("empty", vec![]),
                ("cut", whole[..rng.gen_range(0..whole.len())].to_vec()),
                ("one value short", whole[..whole.len().saturating_sub(8)].to_vec()),
                ("one trailing byte", [whole.as_slice(), &[0]].concat()),
                ("one trailing value", [whole.as_slice(), &[0; 8]].concat()),
                ("noise", (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect()),
            ];
            for tag in [0, level - 1, level + 1, 255] {
                let mut bad = whole.clone();
                bad[0] = tag as u8;
                mutants.push(("wrong level byte", bad.clone()));
                bad[0] |= 0x80;
                mutants.push(("flag on the wrong level", bad));
            }
            // The other form's first byte on this form's length.
            let mut bad = whole.clone();
            bad[0] ^= 0x80;
            mutants.push(("flag bit flipped", bad));
            // The flag over no value or one, and over two or more with
            // no value, two, or one for each.
            let flag = level as u8 | 0x80;
            let first = |k: usize| -> Vec<bool> { (0..slots).map(|i| i < k).collect() };
            for few in [0, 1] {
                mutants.push(("flag with told < 2", forge(flag, &first(few), &[9])));
            }
            let many = rng.gen_range(2..=slots.max(2));
            for values in [vec![], vec![9, 9], vec![9; many]] {
                let bad = forge(flag, &first(many), &values);
                mutants.push(("flag with 0, 2 or told values", bad));
            }
            if slots > 0 {
                // Another presence bit with the old values, and with one
                // value more or less so the length fits again. Under the
                // flag the old one value fits any two or more bits.
                let i = rng.gen_range(0..slots);
                let mut flipped = told.clone();
                flipped[i] = flipped[i].xor(Some(9));
                let mut bad = whole.clone();
                bad[1 + i / 8] ^= 1 << (i % 8);
                let what = if uniform {
                    "presence bit flipped under the flag"
                } else {
                    "presence bit flipped"
                };
                mutants.push((what, bad));
                mutants.push(("another node told", payload(level, &flipped)));
            }
            if slots % 8 != 0 {
                // A padding bit, alone and with a value to account for it.
                let mut bad = whole.clone();
                bad[slots.div_ceil(8)] |= 1 << rng.gen_range(slots % 8..8);
                mutants.push(("padding bit set", bad.clone()));
                bad.extend([0; 8]);
                mutants.push(("padding bit set, with a value", bad));
            }
            // A payload for one slot more or fewer.
            for other in [slots + 1, slots.saturating_sub(1), slots + 8] {
                let told = vec![Some(9); other];
                mutants.push(("another slot count", payload(level, &told)));
            }

            for (what, bytes) in &mutants {
                let (mut ours, mut oracle) = (base.clone(), base.clone());
                ours.absorb(level, sender, bytes);
                for (path, value) in decode_reference(&nodes, level, sender, bytes) {
                    oracle.store(&path, value);
                }
                prop_assert_eq!(ours.len(), oracle.len(), "{}", what);
                for path in &nodes {
                    prop_assert_eq!(ours.get(path), oracle.get(path), "{} at {:?}", what, path);
                }
                let mut fresh = EigTree::new(n, f, source);
                fresh.absorb(level, sender, bytes);
                match *what {
                    "honest" => prop_assert_eq!(fresh.len(), told.iter().flatten().count()),
                    // Well-formed, or (eight slots told as seven) may be.
                    "another node told"
                    | "another slot count"
                    | "presence bit flipped under the flag" => {}
                    _ => prop_assert!(fresh.is_empty(), "{} is refused", what),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The uniform form gives a liar nothing. Whatever the presence
        /// bits and the value, into whatever partial tree: telling two or
        /// more nodes, `L | 0x80 · bits · v` leaves the tree that the plain
        /// `L · bits · v…v` leaves — a spelling no encoder writes and the
        /// decoder must keep accepting; telling fewer, it is refused.
        #[test]
        fn a_uniform_payload_is_the_plain_one_with_its_value_repeated(
            n in 4usize..=13,
            seed in any::<u64>(),
            value in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (f, source, base) = random_tree(n, &mut rng, 0.3);
            let nodes = all_nodes(n, f, source);
            let (level, sender, slots) = random_part(&nodes, n, &mut rng);
            let density = [0.1, 0.5, 1.0][rng.gen_range(0..3usize)];
            let bits: Vec<bool> = (0..slots).map(|_| rng.gen_bool(density)).collect();
            let told = bits.iter().filter(|&&b| b).count();
            let uniform = forge(level as u8 | 0x80, &bits, &[value]);
            let plain = forge(level as u8, &bits, &vec![value; told]);

            let (mut ours, mut expanded) = (base.clone(), base.clone());
            ours.absorb(level, sender, &uniform);
            if told >= 2 {
                expanded.absorb(level, sender, &plain);
            }
            prop_assert_eq!(ours.len(), expanded.len());
            for path in &nodes {
                prop_assert_eq!(ours.get(path), expanded.get(path), "at {:?}", path);
            }
            // Not vacuous: the plain spelling is accepted, whole.
            let mut fresh = EigTree::new(n, f, source);
            fresh.absorb(level, sender, &plain);
            prop_assert_eq!(fresh.len(), told);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the bytes, [`EigTree::absorb`] writes only empty nodes
        /// of this level that end in the sender.
        #[test]
        fn absorb_writes_only_empty_nodes_ending_in_the_sender(
            n in 4usize..=13,
            seed in any::<u64>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..96),
            shape in 0usize..3,
        ) {
            let mut bytes = bytes;
            let mut rng = StdRng::seed_from_u64(seed);
            let (f, source, before) = random_tree(n, &mut rng, 0.3);
            let level = rng.gen_range(1..=f + 1);
            let sender = rng.gen_range(0..n + 2);
            let nodes = all_nodes(n, f, source);
            let ends_in_sender =
                |p: &Vec<u16>| p.len() == level && usize::from(p[level - 1]) == sender;
            // Raw bytes rarely pass the accept rule: also try them behind
            // the right level byte, and cut or padded to the length their
            // presence bits promise, padding bits cleared.
            if shape >= 1 && !bytes.is_empty() {
                bytes[0] = level as u8;
            }
            let mut told: Vec<&Vec<u16>> = nodes.iter().filter(|p| ends_in_sender(p)).collect();
            told.sort();
            let presence = told.len().div_ceil(8);
            let well_formed = shape == 2 && bytes.len() > presence;
            if well_formed {
                if !told.len().is_multiple_of(8) {
                    bytes[presence] &= (1 << (told.len() % 8)) - 1;
                }
                let set: usize = bytes[1..=presence].iter().map(|b| b.count_ones() as usize).sum();
                bytes.resize(1 + presence + 8 * set, 7);
            }

            let mut after = before.clone();
            after.absorb(level, sender, &bytes);
            let mut populated = 0;
            for path in &nodes {
                populated += usize::from(after.get(path).is_some());
                if after.get(path) != before.get(path) {
                    prop_assert_eq!(before.get(path), None, "{:?} overwritten", path);
                    prop_assert!(ends_in_sender(path), "{:?} from {} at {}", path, sender, level);
                }
            }
            // Nothing outside the node set either.
            prop_assert_eq!(after.len(), populated);
            // Not vacuous: every empty node a well-formed payload tells of
            // is written.
            if well_formed {
                let written = told
                    .iter()
                    .enumerate()
                    .filter(|&(i, p)| bytes[1 + i / 8] >> (i % 8) & 1 == 1 && before.get(p).is_none())
                    .count();
                prop_assert_eq!(after.len(), before.len() + written);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The column summary against the `HashMap` tree, write by write:
        /// whole columns told one value (the `One` state, and every fast
        /// path built on it), columns told in part, in two values or
        /// damaged (the table), second payloads from one sender, stores
        /// and relays. After every write both trees hold the same nodes,
        /// resolve alike and would relay the same bytes.
        #[test]
        fn columns_match_the_reference_write_by_write(n in 4usize..=13, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.gen_range(1..=(n - 1) / 3);
            let source = rng.gen_range(0..n as u16);
            let nodes = all_nodes(n, f, source);
            let paths = [&nodes[..], &not_nodes(n, f, source)].concat();
            let mut flat = EigTree::new(n, f, source);
            let mut reference = RefTree::default();
            for step in random_script(&nodes, n, f, &mut rng) {
                let sent = apply(&mut flat, &step);
                prop_assert_eq!(sent, apply_reference(&mut reference, &nodes, &step), "{:?}", step);
                prop_assert_eq!(
                    seen(&flat, &paths, n, f),
                    seen_reference(&reference, &nodes, &paths, n, f),
                    "after {:?}", step
                );
            }
        }

        /// `reset` forgets everything. After any script — garbage, relays,
        /// stores and table columns included — a reset tree takes a second
        /// script exactly as a new tree does.
        #[test]
        fn a_reset_tree_is_a_new_tree(n in 4usize..=13, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.gen_range(1..=(n - 1) / 3);
            let source = rng.gen_range(0..n as u16);
            let nodes = all_nodes(n, f, source);
            let paths = [&nodes[..], &not_nodes(n, f, source)].concat();
            let mut used = EigTree::new(n, f, source);
            for step in random_script(&nodes, n, f, &mut rng) {
                apply(&mut used, &step);
            }
            used.reset();
            let mut fresh = EigTree::new(n, f, source);
            prop_assert_eq!(seen(&used, &paths, n, f), seen(&fresh, &paths, n, f));
            for step in random_script(&nodes, n, f, &mut rng) {
                prop_assert_eq!(apply(&mut used, &step), apply(&mut fresh, &step), "{:?}", step);
                prop_assert_eq!(
                    seen(&used, &paths, n, f),
                    seen(&fresh, &paths, n, f),
                    "after {:?}", step
                );
            }
        }
    }

    #[test]
    fn wrong_sender_or_length_never_enters_the_tree() {
        // n=7, f=2, source 0: the level-3 nodes ending in 3 are [0,q,3]
        // for q in {1, 2, 4, 5, 6} — five slots, three padding bits.
        let told = [Some(7), None, Some(8), Some(9), None];
        let whole = payload(3, &told);
        assert_eq!(whole.len(), 1 + 1 + 3 * 8);
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = whole.clone();
            edit(&mut bytes);
            bytes
        };
        let refused: [(&str, usize, usize, Vec<u8>); 17] = [
            ("level byte of the round before", 3, 3, with(&|b| b[0] = 2)),
            ("level byte of the round after", 3, 3, with(&|b| b[0] = 4)),
            ("this payload a round late", 2, 3, whole.clone()),
            ("short bitmap", 3, 3, vec![3]),
            ("one value short", 3, 3, with(&|b| b.truncate(b.len() - 8))),
            ("one trailing byte", 3, 3, with(&|b| b.push(0))),
            ("a set padding bit", 3, 3, with(&|b| b[1] |= 1 << 5)),
            (
                "a set padding bit with its value",
                3,
                3,
                with(&|b| {
                    b[1] |= 1 << 5;
                    b.extend([0; 8]);
                }),
            ),
            // Bit 7 of the level byte promises one value for two or more
            // nodes: not three values, not none or two, not one node's.
            ("the flag on a plain payload", 3, 3, with(&|b| b[0] |= 0x80)),
            ("the flag and no value", 3, 3, vec![3 | 0x80, 0b01101]),
            (
                "the flag and two values",
                3,
                3,
                forge(3 | 0x80, &[true, false, true, true, false], &[7, 7]),
            ),
            (
                "the flag over one node",
                3,
                3,
                forge(3 | 0x80, &[false, false, true, false, false], &[7]),
            ),
            (
                "the flag over no node",
                3,
                3,
                forge(3 | 0x80, &[false; 5], &[7]),
            ),
            (
                "the flag on another level",
                3,
                3,
                forge(2 | 0x80, &[true, false, true, true, false], &[7]),
            ),
            ("sender = source at level 3", 3, 0, whole.clone()),
            ("sender = n", 3, 7, whole.clone()),
            ("sender far out of range", 3, usize::MAX, whole.clone()),
        ];
        let mut tree = EigTree::new(7, 2, 0);
        for (what, level, sender, bytes) in &refused {
            tree.absorb(*level, *sender, bytes);
            assert!(tree.is_empty(), "{what}");
        }
        // An announcement comes from the source, and is all it sends.
        tree.absorb(1, 3, &payload(1, &[Some(7)]));
        tree.absorb(2, 0, &payload(2, &[Some(7)]));
        tree.absorb(2, 0, &[2]);
        assert!(tree.is_empty());

        tree.absorb(3, 3, &whole);
        assert_eq!(tree.len(), 3);
        assert_eq!(tree.get(&[0, 1, 3]), Some(7));
        assert_eq!(tree.get(&[0, 2, 3]), None);
        assert_eq!(tree.get(&[0, 4, 3]), Some(8));
        assert_eq!(tree.get(&[0, 5, 3]), Some(9));
        // First write wins, node by node.
        tree.absorb(3, 3, &payload(3, &[Some(1), Some(2), None, None, None]));
        assert_eq!(tree.get(&[0, 1, 3]), Some(7));
        assert_eq!(tree.get(&[0, 2, 3]), Some(2));
        assert_eq!(tree.len(), 4);
        // One value for every set bit, first write still winning.
        tree.absorb(
            3,
            3,
            &forge(3 | 0x80, &[true, false, false, true, true], &[6]),
        );
        assert_eq!(tree.get(&[0, 1, 3]), Some(7));
        assert_eq!(tree.get(&[0, 5, 3]), Some(9));
        assert_eq!(tree.get(&[0, 6, 3]), Some(6));
        assert_eq!(tree.len(), 5);
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
        let lie = |to: usize| if to.is_multiple_of(2) { 7 } else { 8 };
        for to in 1..n {
            assert_announces(&payload(1, &[Some(lie(to))]), n, 0, lie(to));
        }
        let instances: Vec<OmBroadcast> = (0..n).map(|me| OmBroadcast::new(me, n, 1, 0)).collect();
        let inputs = vec![7, 0, 0, 0];
        let decided = run_pure(
            instances,
            &inputs,
            |from: usize, round: u64, to: usize, p: &[u8]| {
                if from == 0 && round == 0 {
                    Some(payload(1, &[Some(lie(to))]))
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
        // Forged "source said 99": a round later it would be believed.
        let stale = payload(1, &[Some(99)]);
        assert_announces(&stale, 4, 0, 99);
        let inbox: Vec<(usize, &[u8])> = vec![(0, stale.as_slice()), (3, stale.as_slice())];
        let mut out = Vec::new();
        inst.step(0, &inbox, &mut out);
        assert!(out.is_empty(), "non-source stays silent at round 0");
        assert!(inst.tree.is_empty(), "and deaf");
        // Run the remaining rounds with no traffic at all: the forged
        // round-0 message must not have seeded the tree with 99.
        for r in 1..inst.rounds() {
            inst.step(r, &[], &mut out);
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
