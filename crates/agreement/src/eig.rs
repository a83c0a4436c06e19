//! Exponential information gathering (EIG) tree.
//!
//! The data structure behind the oral-messages algorithm: node `α` (a
//! sequence of distinct processor ids starting with the source) stores "the
//! value that the last processor of `α` claimed, relayed along `α`". After
//! `f+1` rounds the tree is resolved bottom-up by recursive majority.
//!
//! # Slot layout
//!
//! A tree belongs to one `(n, f, source)`, so a node's position is a pure
//! function of its path and the tree is a flat table, one block per level.
//! Level `L` (paths of `L` ids) has `n^(L-1)` slots; node
//! `(source, q2, …, qL)` lives in slot
//!
//! ```text
//! q2·n^(L-2) + q3·n^(L-3) + … + qL
//! ```
//!
//! of that block — the path after the source read as an `(L-1)`-digit
//! base-`n` number. Each slot is a value plus a presence bit. Slots whose
//! digits repeat an id (or the source) name no node and stay empty; they
//! are the price of index addressing, about half of the last level at
//! `n = 10, f = 3` (504 nodes in 1000 slots).
//!
//! Two facts make the table a drop-in for a map keyed by path:
//!
//! * the children of slot `s` at level `L` are slots `s·n + q` at level
//!   `L+1`, so storing `α·me` and recursing into `α·q` are index
//!   arithmetic;
//! * all paths of a level share their length and first id, and every digit
//!   is below `n`, so comparing slot numbers *is* comparing paths
//!   lexicographically. A relay that scans a level's slots in ascending
//!   order therefore emits its entries in exactly the order sorting the
//!   paths would — the order the wire format has always carried.

use crate::{Value, DEFAULT_VALUE};

/// The EIG tree of one broadcast instance at one processor.
#[derive(Debug, Clone)]
pub struct EigTree {
    n: usize,
    f: usize,
    source: u16,
    /// `level_start[L-1]` is the first slot of level `L`; the last entry
    /// is the total slot count.
    level_start: Vec<usize>,
    values: Vec<Value>,
    /// One presence bit per slot.
    present: Vec<u64>,
    len: usize,
}

impl EigTree {
    /// An empty tree for broadcasts by `source` among `n` processors,
    /// `f + 1` levels deep.
    ///
    /// # Panics
    ///
    /// Panics unless `source < n` and `n > f` (a leaf is a path of `f + 1`
    /// distinct ids), or if the `1 + n + … + n^f` slots overflow `usize` or
    /// cannot be allocated.
    pub fn new(n: usize, f: usize, source: u16) -> EigTree {
        assert!(usize::from(source) < n, "source in range");
        assert!(n > f, "an EIG tree of depth f+1 needs n > f");
        let level_start = level_starts(n, f)
            .unwrap_or_else(|| panic!("EIG tree for n={n}, f={f} is too large to index"));
        let total = level_start[f + 1];
        let mut values = Vec::new();
        let mut present = Vec::new();
        if values.try_reserve_exact(total).is_err()
            || present.try_reserve_exact(total.div_ceil(64)).is_err()
        {
            panic!("EIG tree for n={n}, f={f}: cannot allocate {total} slots");
        }
        values.resize(total, DEFAULT_VALUE);
        present.resize(total.div_ceil(64), 0);
        EigTree {
            n,
            f,
            source,
            level_start,
            values,
            present,
            len: 0,
        }
    }

    /// The table index of node `path`, or `None` if `path` is not a node
    /// of this tree: empty, deeper than `f + 1`, not starting at the
    /// source, naming an id `≥ n`, or repeating an id.
    fn index(&self, path: &[u16]) -> Option<usize> {
        if path.is_empty() || path.len() > self.f + 1 || path[0] != self.source {
            return None;
        }
        let mut slot = 0usize;
        for (i, &q) in path.iter().enumerate().skip(1) {
            if usize::from(q) >= self.n || path[..i].contains(&q) {
                return None;
            }
            slot = slot * self.n + usize::from(q);
        }
        Some(self.level_start[path.len() - 1] + slot)
    }

    fn at(&self, index: usize) -> Option<Value> {
        ((self.present[index / 64] >> (index % 64)) & 1 == 1).then(|| self.values[index])
    }

    /// First write wins.
    fn put(&mut self, index: usize, value: Value) {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        if self.present[word] & bit == 0 {
            self.present[word] |= bit;
            self.values[index] = value;
            self.len += 1;
        }
    }

    /// Stores `value` at node `path` (first write wins; Byzantine senders
    /// cannot overwrite an already-relayed value). A `path` that is not a
    /// node of this tree — wrong source, id out of range, repeated id, too
    /// deep — is ignored.
    pub fn store(&mut self, path: &[u16], value: Value) {
        if let Some(index) = self.index(path) {
            self.put(index, value);
        }
    }

    /// The stored value at `path`, if any.
    pub fn get(&self, path: &[u16]) -> Option<Value> {
        self.at(self.index(path)?)
    }

    /// Number of populated nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is populated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears the tree for reuse.
    pub fn reset(&mut self) {
        self.present.fill(0);
        self.len = 0;
    }

    /// One relay step by processor `me`: for every populated level-`level`
    /// node `α` not containing `me`, in lexicographic path order, stores
    /// `α·me` in the next level — in EIG terms, "me told myself" what it
    /// tells everyone else, so the local resolve sees its own vote — and
    /// hands `(α·me, value)` to `emit`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ level ≤ f` and `me < n`.
    pub fn relay(&mut self, level: usize, me: u16, mut emit: impl FnMut(&[u16], Value)) {
        assert!((1..=self.f).contains(&level), "relayed levels are 1..=f");
        assert!(usize::from(me) < self.n, "me in range");
        let (from, to) = (self.level_start[level - 1], self.level_start[level]);
        let mut path = vec![self.source; level + 1];
        path[level] = me;
        for slot in 0..to - from {
            let Some(value) = self.at(from + slot) else {
                continue;
            };
            let mut digits = slot;
            for id in path[1..level].iter_mut().rev() {
                *id = (digits % self.n) as u16;
                digits /= self.n;
            }
            if path[..level].contains(&me) {
                continue;
            }
            self.put(to + slot * self.n + usize::from(me), value);
            emit(&path, value);
        }
    }

    /// Resolves the tree: the decision of the broadcast.
    ///
    /// `resolve(α)` is the stored value at leaves (level `f+1`), else the
    /// strict majority of `resolve(α·q)` over all `q ∉ α`; missing values
    /// and tied majorities resolve to [`DEFAULT_VALUE`].
    pub fn resolve(&self) -> Value {
        let mut on_path = vec![false; self.n];
        on_path[usize::from(self.source)] = true;
        // Children's values of every node on the current root-to-node
        // chain, stacked.
        let mut votes = Vec::with_capacity(self.f * self.n);
        self.resolve_node(1, 0, &mut on_path, &mut votes)
    }

    fn resolve_node(
        &self,
        level: usize,
        slot: usize,
        on_path: &mut [bool],
        votes: &mut Vec<Value>,
    ) -> Value {
        if level == self.f + 1 {
            return self
                .at(self.level_start[level - 1] + slot)
                .unwrap_or(DEFAULT_VALUE);
        }
        let base = votes.len();
        for q in 0..self.n {
            if on_path[q] {
                continue;
            }
            on_path[q] = true;
            let v = self.resolve_node(level + 1, slot * self.n + q, on_path, votes);
            on_path[q] = false;
            votes.push(v);
        }
        let winner = strict_majority(&votes[base..]);
        votes.truncate(base);
        winner
    }
}

/// First slot of each level `1..=f+1`, then the total `1 + n + … + n^f`;
/// `None` if that overflows.
fn level_starts(n: usize, f: usize) -> Option<Vec<usize>> {
    let mut starts = Vec::with_capacity(f + 2);
    let mut total = 0usize;
    for level in 0..=f {
        starts.push(total);
        total = total.checked_add(n.checked_pow(u32::try_from(level).ok()?)?)?;
    }
    starts.push(total);
    Some(starts)
}

/// The value held by more than half of `votes`, else [`DEFAULT_VALUE`]
/// (Boyer–Moore candidate, then a confirming count).
fn strict_majority(votes: &[Value]) -> Value {
    let (mut candidate, mut lead) = (DEFAULT_VALUE, 0usize);
    for &v in votes {
        if lead == 0 {
            candidate = v;
            lead = 1;
        } else if v == candidate {
            lead += 1;
        } else {
            lead -= 1;
        }
    }
    let count = votes.iter().filter(|&&v| v == candidate).count();
    if 2 * count > votes.len() {
        candidate
    } else {
        DEFAULT_VALUE
    }
}

/// The `HashMap`-of-paths tree the flat table replaced, kept as the
/// oracle the property test in [`om`](crate::om) compares against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use crate::wire::Writer;
    use crate::{Value, DEFAULT_VALUE};

    type Path = Vec<u16>;

    #[derive(Debug, Clone, Default)]
    pub(crate) struct RefTree {
        nodes: HashMap<Path, Value>,
    }

    impl RefTree {
        pub(crate) fn store(&mut self, path: Path, value: Value) {
            self.nodes.entry(path).or_insert(value);
        }

        pub(crate) fn get(&self, path: &[u16]) -> Option<Value> {
            self.nodes.get(path).copied()
        }

        pub(crate) fn len(&self) -> usize {
            self.nodes.len()
        }

        pub(crate) fn resolve(&self, path: &[u16], n: usize, f: usize) -> Value {
            if path.len() == f + 1 {
                return self.get(path).unwrap_or(DEFAULT_VALUE);
            }
            let mut counts: HashMap<Value, usize> = HashMap::new();
            let mut children = 0usize;
            for q in (0..n as u16).filter(|q| !path.contains(q)) {
                children += 1;
                let child = [path, &[q]].concat();
                *counts.entry(self.resolve(&child, n, f)).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .find(|&(_, c)| 2 * c > children)
                .map_or(DEFAULT_VALUE, |(v, _)| v)
        }

        /// The relay payload for `level` as `me` used to build it: collect
        /// the level, append `me`, sort, mirror, encode.
        pub(crate) fn relay_payload(&mut self, level: usize, me: u16) -> Vec<u8> {
            let mut entries: Vec<(Path, Value)> = self
                .nodes
                .iter()
                .filter(|(p, _)| p.len() == level && !p.contains(&me))
                .map(|(p, &v)| ([p.as_slice(), &[me]].concat(), v))
                .collect();
            entries.sort();
            let mut w = Writer::new();
            w.put_u32(entries.len() as u32);
            for (path, value) in entries {
                w.put_u8(path.len() as u8);
                for &id in &path {
                    w.put_u16(id);
                }
                w.put_u64(value);
                self.store(path, value);
            }
            w.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_first_write_wins() {
        let mut t = EigTree::new(4, 1, 0);
        t.store(&[0], 5);
        t.store(&[0], 9);
        assert_eq!(t.get(&[0]), Some(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn resolve_unanimous_tree() {
        // n=4, f=1, source 0: level-1 node [0]=7, level-2 children all 7.
        let mut t = EigTree::new(4, 1, 0);
        t.store(&[0], 7);
        for q in 1..4u16 {
            t.store(&[0, q], 7);
        }
        assert_eq!(t.resolve(), 7);
    }

    #[test]
    fn resolve_majority_over_one_liar() {
        // Child [0,3] lies (says 9); majority of {7, 7, 9} is 7.
        let mut t = EigTree::new(4, 1, 0);
        t.store(&[0], 7);
        t.store(&[0, 1], 7);
        t.store(&[0, 2], 7);
        t.store(&[0, 3], 9);
        assert_eq!(t.resolve(), 7);
    }

    #[test]
    fn resolve_missing_everything_defaults() {
        let t = EigTree::new(4, 1, 0);
        assert_eq!(t.resolve(), DEFAULT_VALUE);
    }

    #[test]
    fn resolve_no_majority_defaults() {
        // n=5, f=1: children of [0] are [0,1..4]; two say 3, two say 4 — no
        // strict majority among 4 children.
        let mut t = EigTree::new(5, 1, 0);
        t.store(&[0], 3);
        t.store(&[0, 1], 3);
        t.store(&[0, 2], 3);
        t.store(&[0, 3], 4);
        t.store(&[0, 4], 4);
        assert_eq!(t.resolve(), DEFAULT_VALUE);
    }

    #[test]
    fn level_iterates_only_that_depth() {
        // A relay of level L reads level L only and writes level L+1 only.
        let mut t = EigTree::new(7, 2, 0);
        t.store(&[0], 1);
        t.store(&[0, 1], 2);
        t.store(&[0, 2], 3);
        t.store(&[0, 1, 2], 4);
        let mut seen = Vec::new();
        t.relay(2, 3, |path, v| seen.push((path.to_vec(), v)));
        assert_eq!(seen, [(vec![0, 1, 3], 2), (vec![0, 2, 3], 3)]);
        assert_eq!(t.get(&[0, 1, 3]), Some(2), "mirrored into level 3");
        assert_eq!(t.get(&[0, 3]), None, "level 1 was not relayed");
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn relay_skips_paths_containing_me() {
        let mut t = EigTree::new(7, 2, 0);
        t.store(&[0, 1], 2);
        t.store(&[0, 3], 5);
        let mut seen = Vec::new();
        t.relay(2, 3, |path, v| seen.push((path.to_vec(), v)));
        assert_eq!(seen, [(vec![0, 1, 3], 2)]);
        // The source relays nothing of its own broadcast.
        let mut count = 0;
        t.relay(2, 0, |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn store_ignores_paths_that_are_not_nodes() {
        let mut t = EigTree::new(4, 1, 0);
        t.store(&[], 1); // empty path
        t.store(&[1, 2], 1); // wrong source
        t.store(&[0, 0], 1); // duplicate ids
        t.store(&[0, 9], 1); // id out of range
        t.store(&[0, 1, 2], 1); // deeper than f+1
        assert!(t.is_empty());
        assert_eq!(t.get(&[0, 9]), None);
        t.store(&[0, 2], 1);
        assert_eq!(t.get(&[0, 2]), Some(1));
    }

    #[test]
    #[should_panic(expected = "n=70000, f=4 is too large")]
    fn oversize_tree_is_refused_at_construction() {
        EigTree::new(70_000, 4, 0);
    }

    #[test]
    fn strict_majority_needs_more_than_half() {
        assert_eq!(strict_majority(&[1, 2, 1, 3, 1]), 1);
        assert_eq!(strict_majority(&[1, 1, 2, 2]), DEFAULT_VALUE);
        assert_eq!(strict_majority(&[4, 5, 6]), DEFAULT_VALUE);
        assert_eq!(strict_majority(&[]), DEFAULT_VALUE);
    }

    #[test]
    fn reset_clears() {
        let mut t = EigTree::new(4, 1, 0);
        t.store(&[0], 7);
        t.reset();
        assert!(t.is_empty());
        assert_eq!(t.get(&[0]), None);
    }
}
