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
//! base-`n` number. Each slot is a value plus a presence bit (allocated the
//! first time a column needs them; see [Columns](#columns)). Slots whose
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
//!   lexicographically: ascending slot order is the one order both ends
//!   of a relay know without being told.
//!
//! # Node bitmap
//!
//! Which slots name a node depends on `(n, f, source)` alone, so the tree
//! computes it once, at construction: one bit per slot, the same shape as
//! the presence bits, set iff the slot's digits are distinct and none is
//! the source. The constructor is the only place that looks at a path's
//! ids for that (a child is a node iff its parent is and its last id is
//! not on the parent's path); everything else reads the bit:
//!
//! * `store` / `get` fold the path into its slot and accept it iff the bit
//!   is set;
//! * `relay` by `me` and `absorb` from `me` are about the nodes `α·me`
//!   and must skip every `α` that contains `me`. `α·me` is slot `s·n + me`
//!   one level below `α`'s slot `s`, and its bit is set iff `α` is a node
//!   and `me` is neither in `α` nor the source — the bit of `α·me` answers
//!   the question;
//! * `resolve` takes the children of slot `s` to be the set bits among the
//!   contiguous slots `s·n .. s·n + n`.
//!
//! A tree carries `⌈(1 + n + … + n^f) / 64⌉` words of it: 18 at
//! `n = 10, f = 3`, beside 1111 eight-byte values once it has a table.
//!
//! # Level payload
//!
//! Round `r` of EIG sends level `r` of the tree, so the tree is the
//! message. What processor `q` tells the others about one source's
//! broadcast in one round is the level-`L` nodes whose path ends in `q`:
//! the root if `q` is the source announcing (`L = 1`), else `α·q` for
//! every level-`L - 1` node `α` that `q` relays. Both ends know which
//! nodes those are — the set node bits among the slots `s·n + q`, in
//! ascending order — and how many: `K = 1` for `L ≤ 2`,
//! `(n-2)(n-3)…(n-L+1)` after (the ids between the source and `q` are
//! distinct and neither), and none at all if `q` is the source and
//! `L ≥ 2`, or is not and `L = 1`. So a payload carries no path:
//!
//! ```text
//! plain    u8 L        · ⌈K/8⌉ presence bytes · one big-endian u64 per set bit
//! uniform  u8 L | 0x80 · ⌈K/8⌉ presence bytes · one big-endian u64
//! ```
//!
//! Presence bit `i` (bit `i % 8` of byte `i / 8`, least significant first)
//! says whether the sender holds a value for the `i`-th of those nodes;
//! the values follow in the same order. Every node of a tree holds what
//! its source said, so unless the source told two processors two things
//! the told values are all one value, and the uniform form says it once:
//! it stands for the plain payload with that value at every set bit.
//! [`LevelPayload`] is the encoder — [`EigTree::relay`] fills one from the
//! tree — and sends the uniform form exactly when it tells two or more
//! values and they are all equal, the plain form otherwise (so a level
//! with `K = 1` is always plain). `EigTree::absorb` is the decoder, which
//! runs the scan `relay` runs. A payload is **accepted** iff
//!
//! * its first byte, bit 7 aside, is the level the receiving round stores
//!   (a payload that arrives a round late is stale traffic, which the
//!   self-stabilizing wrap needs refused),
//! * its length is exactly `1 + ⌈K/8⌉ + 8·V`, where, with `told` the
//!   popcount of the presence bytes, `V = told` if bit 7 is clear, and
//!   `V = 1` with `told ≥ 2` required if it is set, and
//! * the padding bits past `K` in the last presence byte are zero;
//!
//! anything else is ignored whole. An accepted payload writes only nodes
//! of that level ending in its sender, and only empty ones (first write
//! wins): a Byzantine sender can lie about values and presence, never
//! about paths — there is no id on the wire to check. The uniform form
//! gives a liar nothing: whatever it is accepted as, the plain payload
//! with the value repeated is accepted as too (the decoder takes that
//! longer spelling for good, though the encoder never writes it). What a
//! lying *source* can do is make honest relays of its tree tell different
//! values and so fall back to the plain form — the cost every payload had
//! before the uniform form existed, and the most any payload costs.
//!
//! A payload that tells every one of its `K` nodes one value — every
//! presence bit set, one value — carries nothing but that value. The
//! encoder says so ([`LevelPayload::finish`] returns the value), and a
//! consensus round in which every payload is such goes as one short frame
//! of varint values ([`consensus`](crate::consensus#short-frame)), whose
//! entries a tree takes without bytes (`absorb_whole`: exactly what the
//! payload it stands for writes). The 8-byte values above stay: the plain
//! form sets the longest frame, and a varint can take ten bytes.
//!
//! # Columns
//!
//! A **column** `(L, q)` is the set of `K` level-`L` nodes whose path ends
//! in `q`: exactly what one level payload from `q` writes, and what `relay`
//! by `q` mirrors. The tree keeps one state per column in front of the
//! slot table:
//!
//! * `Empty` — no node of the column holds a value;
//! * `One(v)` — every node of the column holds `v`;
//! * `Table` — the column's nodes live in the slots and presence bits.
//!
//! Every column starts `Empty`, and [`EigTree::reset`] makes every one
//! `Empty` again. A column leaves `Empty` at its first write and does not
//! go back before a reset:
//!
//! * to `One(v)` when an accepted payload tells every node of it `v` (the
//!   uniform form with every presence bit set, or plain with `K = 1`), when
//!   a store writes its only node, or when `relay` by `q` finds every
//!   level-`L - 1` column but `q`'s (and, past the root, the source's)
//!   `One(v)` for one `v`. Then every parent holds `v`, and the relay sends
//!   the bytes the scan would: `K` presence bits set and `v`, uniform past
//!   `K = 1`;
//! * to `Table` at any other write. The first such column allocates the
//!   tree's table, so a tree that no source equivocated to never has one.
//!
//! First write still wins, node by node. A `One` column is full, so every
//! later write to it is a no-op, which is why `absorb` and `relay` skip it
//! without a scan. A `Table` column keeps the slot rule. No node's value
//! changes once present, whatever state its column is in. `resolve`
//! returns `v` without a scan when every leaf column is `One(v)` for one
//! `v`: every leaf holds `v`, and so does every majority above them.
//! Otherwise the scans run as before, reading each node through its
//! column. With every source honest every column is `One`, and a round
//! costs a tree `n` column states instead of `n^(L-1)` slots.

use crate::{Value, DEFAULT_VALUE};

/// Longest path (`f + 1` ids) a tree holds: the constructor's odometer is
/// a stack array of it, and a level fits the seven bits the payload's first
/// byte has for it. With `n > f`, a tree this deep is far beyond what
/// [`EigTree::new`] can index.
pub(crate) const MAX_DEPTH: usize = 16;

/// Bit 7 of a level payload's first byte: the payload is uniform — it
/// carries one value, which stands at every set presence bit (see the
/// module docs).
const UNIFORM: u8 = 0x80;

/// The EIG tree of one broadcast instance at one processor.
#[derive(Debug, Clone)]
pub struct EigTree {
    n: usize,
    f: usize,
    source: u16,
    /// `level_start[L-1]` is the first slot of level `L`; the last entry
    /// is the total slot count.
    level_start: Vec<usize>,
    /// Column `(L, q)` is entry `(L-1)·n + q` (see the module docs).
    columns: Vec<Column>,
    /// One value per slot, read only in `Table` columns; empty until the
    /// first column becomes one.
    values: Vec<Value>,
    /// One presence bit per slot, allocated with `values`.
    present: Vec<u64>,
    /// One bit per slot: whether the slot names a node (see the module
    /// docs). Fixed at construction.
    node: Vec<u64>,
    len: usize,
}

/// What a tree holds of one column: the level-`L` nodes whose path ends in
/// `q` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    /// No node of the column holds a value.
    Empty,
    /// Every node of the column holds this value.
    One(Value),
    /// The column's nodes live in the value table and its presence bits.
    Table,
}

/// The word and mask of bit `index` of a bitmap.
fn locate(index: usize) -> (usize, u64) {
    (index / 64, 1 << (index % 64))
}

fn bit(words: &[u64], index: usize) -> bool {
    let (word, mask) = locate(index);
    words[word] & mask != 0
}

impl EigTree {
    /// An empty tree for broadcasts by `source` among `n` processors,
    /// `f + 1` levels deep.
    ///
    /// # Panics
    ///
    /// Panics unless `source < n` and `n > f` (a leaf is a path of `f + 1`
    /// distinct ids), or if the `1 + n + … + n^f` slots overflow `usize` or
    /// their node bitmap cannot be allocated.
    pub fn new(n: usize, f: usize, source: u16) -> EigTree {
        assert!(usize::from(source) < n, "source in range");
        assert!(n > f, "an EIG tree of depth f+1 needs n > f");
        let level_start = level_starts(n, f)
            .unwrap_or_else(|| panic!("EIG tree for n={n}, f={f} is too large to index"));
        assert!(f < MAX_DEPTH, "EIG paths are at most {MAX_DEPTH} ids deep");
        let total = level_start[f + 1];
        let words = total.div_ceil(64);
        let mut node = Vec::new();
        if node.try_reserve_exact(words).is_err() {
            panic!("EIG tree for n={n}, f={f}: cannot allocate the node bitmap of {total} slots");
        }
        node.resize(words, 0);
        mark_nodes(&mut node, n, source, &level_start);
        EigTree {
            n,
            f,
            source,
            level_start,
            columns: vec![Column::Empty; (f + 1) * n],
            values: Vec::new(),
            present: Vec::new(),
            node,
            len: 0,
        }
    }

    /// The level and the slot within it of node `path`, or `None` if
    /// `path` is not a node of this tree: empty, deeper than `f + 1`, not
    /// starting at the source, naming an id `≥ n`, or repeating an id.
    fn index(&self, path: &[u16]) -> Option<(usize, usize)> {
        if path.is_empty() || path.len() > self.f + 1 || path[0] != self.source {
            return None;
        }
        let mut slot = 0usize;
        for &q in &path[1..] {
            if usize::from(q) >= self.n {
                return None;
            }
            slot = slot * self.n + usize::from(q);
        }
        let level = path.len();
        bit(&self.node, self.level_start[level - 1] + slot).then_some((level, slot))
    }

    /// The entry of column `(level, last)` in `columns`.
    fn column(&self, level: usize, last: usize) -> usize {
        (level - 1) * self.n + last
    }

    /// The id the path of level-`level` slot `slot` ends in.
    fn last(&self, level: usize, slot: usize) -> usize {
        if level == 1 {
            usize::from(self.source)
        } else {
            slot % self.n
        }
    }

    /// The value of the node in level-`level` slot `slot`.
    fn at(&self, level: usize, slot: usize) -> Option<Value> {
        match self.columns[self.column(level, self.last(level, slot))] {
            Column::Empty => None,
            Column::One(value) => Some(value),
            Column::Table => {
                let index = self.level_start[level - 1] + slot;
                bit(&self.present, index).then(|| self.values[index])
            }
        }
    }

    /// Stores `value` in the node in level-`level` slot `slot`; first
    /// write wins.
    fn put(&mut self, level: usize, slot: usize, value: Value) {
        let last = self.last(level, slot);
        let column = self.column(level, last);
        match self.columns[column] {
            Column::One(_) => return,
            Column::Empty if self.fan_in(level, last) == 1 => return self.fill(column, value, 1),
            Column::Empty => self.tabulate(column),
            Column::Table => {}
        }
        let index = self.level_start[level - 1] + slot;
        let (word, mask) = locate(index);
        if self.present[word] & mask == 0 {
            self.present[word] |= mask;
            self.values[index] = value;
            self.len += 1;
        }
    }

    /// Gives every one of the `nodes` nodes of empty column `column` the
    /// value `value`.
    fn fill(&mut self, column: usize, value: Value, nodes: usize) {
        debug_assert_eq!(self.columns[column], Column::Empty);
        self.columns[column] = Column::One(value);
        self.len += nodes;
    }

    /// Moves empty column `column` to the table, allocating the table the
    /// first time.
    fn tabulate(&mut self, column: usize) {
        if self.values.is_empty() {
            let total = self.level_start[self.f + 1];
            self.values = vec![DEFAULT_VALUE; total];
            self.present = vec![0; total.div_ceil(64)];
        }
        self.columns[column] = Column::Table;
    }

    /// The value every level-`level` column but `skip`'s is `One` of, if
    /// there is one: then every level-`level` node off `skip`'s column
    /// holds it.
    fn agreed(&self, level: usize, skip: Option<usize>) -> Option<Value> {
        let mut agreed = None;
        for q in 0..self.n {
            // Level 1 is the source's column alone, and no other level
            // has one.
            if Some(q) == skip || (level == 1) != (q == usize::from(self.source)) {
                continue;
            }
            match self.columns[self.column(level, q)] {
                Column::One(value) if agreed.is_none_or(|v| v == value) => agreed = Some(value),
                _ => return None,
            }
        }
        agreed
    }

    /// Stores `value` at node `path` (first write wins; Byzantine senders
    /// cannot overwrite an already-relayed value). A `path` that is not a
    /// node of this tree — wrong source, id out of range, repeated id, too
    /// deep — is ignored.
    pub fn store(&mut self, path: &[u16], value: Value) {
        if let Some((level, slot)) = self.index(path) {
            self.put(level, slot, value);
        }
    }

    /// The stored value at `path`, if any.
    pub fn get(&self, path: &[u16]) -> Option<Value> {
        let (level, slot) = self.index(path)?;
        self.at(level, slot)
    }

    /// Number of populated nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is populated.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Clears the tree for reuse: whatever it held, it is then the tree
    /// [`new`](Self::new) builds (the table, if allocated, stays so).
    pub fn reset(&mut self) {
        self.columns.fill(Column::Empty);
        // Not on a tree without a table: a zero fill of the empty vector
        // still costs ≈ 0.1 µs, most of a (4, 1) activation's tree work.
        if !self.present.is_empty() {
            self.present.fill(0);
        }
        self.len = 0;
    }

    /// How many level-`level` nodes end in `who` — the `K` of the module
    /// docs' level payload.
    fn fan_in(&self, level: usize, who: usize) -> usize {
        if (level == 1) != (who == usize::from(self.source)) {
            return 0;
        }
        // The ids between the source and `who` are distinct and neither.
        (2..level).map(|k| self.n - k).product()
    }

    /// One relay step by processor `me`: for every level-`level` node `α`
    /// not containing `me`, in slot order, stores a populated `α`'s value
    /// at `α·me` in the next level — in EIG terms, "me told myself" what it
    /// tells everyone else, so the local resolve sees its own vote — and
    /// appends to `out` the level-`level + 1` payload that tells the
    /// others. Returns what [`LevelPayload::finish`] returns: the value, if
    /// the payload tells every one of its nodes that one value.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ level ≤ f` and `me < n`.
    pub fn relay(&mut self, level: usize, me: u16, out: &mut Vec<u8>) -> Option<Value> {
        assert!((1..=self.f).contains(&level), "relayed levels are 1..=f");
        let me = usize::from(me);
        assert!(me < self.n, "me in range");
        let slots = self.fan_in(level + 1, me);
        let mut payload = LevelPayload::new(out, level + 1, slots);
        let mine = self.column(level + 1, me);
        // Every parent holds one value and no child holds any yet: the scan
        // would tell, and mirror, that value at every child.
        if slots > 0 && self.columns[mine] == Column::Empty {
            if let Some(value) = self.agreed(level, Some(me)) {
                (0..slots).for_each(|_| payload.push(Some(value)));
                self.fill(mine, value, slots);
                return payload.finish();
            }
        }
        let (from, to) = (self.level_start[level - 1], self.level_start[level]);
        for slot in 0..to - from {
            let child = slot * self.n + me;
            if bit(&self.node, to + child) {
                let value = self.at(level, slot);
                if let Some(value) = value {
                    self.put(level + 1, child, value);
                }
                payload.push(value);
            }
        }
        payload.finish()
    }

    /// Stores what `payload`, received from `sender`, says about the
    /// level-`level` nodes ending in `sender`; the mirror image of
    /// [`relay`](Self::relay), down to the scan. A payload the module
    /// docs' accept rule refuses — or a `sender ≥ n` — changes nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ level ≤ f + 1`.
    pub(crate) fn absorb(&mut self, level: usize, sender: usize, payload: &[u8]) {
        assert!((1..=self.f + 1).contains(&level), "levels are 1..=f+1");
        let Some((&tag, body)) = payload.split_first() else {
            return;
        };
        if sender >= self.n || usize::from(tag & !UNIFORM) != level {
            return;
        }
        let uniform = tag & UNIFORM != 0;
        let slots = self.fan_in(level, sender);
        let Some((presence, values)) = body.split_at_checked(slots.div_ceil(8)) else {
            return;
        };
        let (values, []) = values.as_chunks::<8>() else {
            return;
        };
        let told: usize = presence.iter().map(|b| b.count_ones() as usize).sum();
        let said = if uniform { 1 } else { told };
        let padded = !slots.is_multiple_of(8) && presence[slots / 8] >> (slots % 8) != 0;
        if values.len() != said || (uniform && told < 2) || padded || slots == 0 {
            return;
        }
        let column = self.column(level, sender);
        match self.columns[column] {
            // Every node already holds a value: first write wins.
            Column::One(_) => return,
            // One value for the whole column.
            Column::Empty if told == slots && (uniform || slots == 1) => {
                return self.fill(column, Value::from_be_bytes(values[0]), slots);
            }
            _ => {}
        }
        // Plain, every set bit reads the next value; uniform, the first.
        let stride = usize::from(!uniform);
        let mut next = 0;
        self.scan_column(level, sender, |i| {
            if presence[i / 8] >> (i % 8) & 1 == 0 {
                return None;
            }
            let value = Value::from_be_bytes(values[next]);
            next += stride;
            Some(value)
        });
    }

    /// Stores what the level-`level` payload from `sender` that tells every
    /// one of its nodes `value` stores — the payload of a short frame's
    /// entry (`consensus`, "Short frame"), taken without its bytes. A
    /// `sender ≥ n`, or one with no node at this level, changes nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ level ≤ f + 1`.
    pub(crate) fn absorb_whole(&mut self, level: usize, sender: usize, value: Value) {
        assert!((1..=self.f + 1).contains(&level), "levels are 1..=f+1");
        let slots = if sender < self.n {
            self.fan_in(level, sender)
        } else {
            0
        };
        if slots == 0 {
            return;
        }
        let column = self.column(level, sender);
        match self.columns[column] {
            // Every node already holds a value: first write wins.
            Column::One(_) => {}
            Column::Empty => self.fill(column, value, slots),
            Column::Table => self.scan_column(level, sender, |_| Some(value)),
        }
    }

    /// Stores `told(i)`, if any, at the `i`-th node of column
    /// `(level, sender)`, in slot order: the scan `absorb` runs, whatever
    /// the column's state.
    fn scan_column(
        &mut self,
        level: usize,
        sender: usize,
        mut told: impl FnMut(usize) -> Option<Value>,
    ) {
        // The root has no parent level to scan: it is the one child slot.
        let (parents, last) = match level {
            1 => (1, 0),
            _ => (
                self.level_start[level - 1] - self.level_start[level - 2],
                sender,
            ),
        };
        let to = self.level_start[level - 1];
        let mut seen = 0;
        for slot in 0..parents {
            let child = slot * self.n + last;
            if bit(&self.node, to + child) {
                if let Some(value) = told(seen) {
                    self.put(level, child, value);
                }
                seen += 1;
            }
        }
        debug_assert_eq!(
            seen,
            self.fan_in(level, sender),
            "the scan meets every node fan_in counted"
        );
    }

    /// Resolves the tree: the decision of the broadcast.
    ///
    /// `resolve(α)` is the stored value at leaves (level `f+1`), else the
    /// strict majority of `resolve(α·q)` over all `q ∉ α`; missing values
    /// and tied majorities resolve to [`DEFAULT_VALUE`].
    pub fn resolve(&self) -> Value {
        let (n, f) = (self.n, self.f);
        // Every leaf holds one value: so does every majority above them.
        if let Some(value) = self.agreed(f + 1, None) {
            return value;
        }
        let leaves = self.level_start[f];
        let leaf = |index: usize| self.at(f + 1, index - leaves).unwrap_or(DEFAULT_VALUE);
        if f == 0 {
            return leaf(0);
        }
        // Bottom-up, one level at a time: `resolved[i]` for every slot `i`
        // above the leaves that names a node.
        let mut resolved = vec![DEFAULT_VALUE; self.level_start[f]];
        for level in (1..=f).rev() {
            let (from, to) = (self.level_start[level - 1], self.level_start[level]);
            for slot in 0..to - from {
                if !bit(&self.node, from + slot) {
                    continue;
                }
                let first = to + slot * n;
                let votes = (first..first + n)
                    .filter(|&child| bit(&self.node, child))
                    .map(|child| {
                        if level == f {
                            leaf(child)
                        } else {
                            resolved[child]
                        }
                    });
                // A level-`level` node has one child per id off its path.
                resolved[from + slot] = strict_majority(votes, n - level);
            }
        }
        resolved[0]
    }
}

/// Encoder of one level payload (see the module docs), written at the end
/// of a caller's buffer: the level, then for each of `slots` nodes, in slot
/// order, whether the sender holds a value and, if so, the value — said
/// once if two or more are told and they all agree.
#[derive(Debug)]
pub struct LevelPayload<'a> {
    buf: &'a mut Vec<u8>,
    /// Where the payload starts in `buf`: its first byte.
    start: usize,
    slots: usize,
    pushed: usize,
    told: usize,
    /// The first value told.
    first: Value,
    /// Whether every value told so far is `first`, which is then the only
    /// one in `buf`.
    uniform: bool,
}

impl<'a> LevelPayload<'a> {
    /// Starts the payload of `level` for `slots` nodes at the end of `buf`,
    /// with room for one value.
    ///
    /// # Panics
    ///
    /// Panics unless `level` fits the low seven bits of the payload's
    /// first byte; bit 7 marks the uniform form.
    pub fn new(buf: &'a mut Vec<u8>, level: usize, slots: usize) -> LevelPayload<'a> {
        let level = u8::try_from(level)
            .ok()
            .filter(|level| level & UNIFORM == 0)
            .expect("an EIG level fits seven bits");
        let start = buf.len();
        let presence = slots.div_ceil(8);
        buf.reserve(1 + presence + 8);
        buf.push(level);
        buf.resize(start + 1 + presence, 0);
        LevelPayload {
            buf,
            start,
            slots,
            pushed: 0,
            told: 0,
            first: DEFAULT_VALUE,
            uniform: true,
        }
    }

    /// The next node's value, or `None` if the sender holds none.
    ///
    /// # Panics
    ///
    /// Panics on a push past the last slot.
    pub fn push(&mut self, value: Option<Value>) {
        assert!(self.pushed < self.slots, "one push per slot");
        if let Some(value) = value {
            self.buf[self.start + 1 + self.pushed / 8] |= 1 << (self.pushed % 8);
            if self.told == 0 {
                self.first = value;
                self.buf.extend_from_slice(&value.to_be_bytes());
            } else if !self.uniform || value != self.first {
                if self.uniform {
                    // The first value that differs: spell out the ones
                    // before it.
                    self.uniform = false;
                    for _ in 1..self.told {
                        self.buf.extend_from_slice(&self.first.to_be_bytes());
                    }
                }
                self.buf.extend_from_slice(&value.to_be_bytes());
            }
            self.told += 1;
        }
        self.pushed += 1;
    }

    /// Completes the payload: uniform if two or more values were told and
    /// all were equal, plain otherwise. Returns the value if every slot
    /// was told it — every presence bit set, one value — the payload a
    /// short frame's entry stands for (`consensus`, "Short frame").
    ///
    /// # Panics
    ///
    /// Panics unless every slot was pushed.
    pub fn finish(self) -> Option<Value> {
        assert_eq!(self.pushed, self.slots, "one push per slot");
        if self.uniform && self.told >= 2 {
            self.buf[self.start] |= UNIFORM;
        }
        (self.uniform && self.told == self.slots && self.slots > 0).then_some(self.first)
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

/// Steps `digits`, a big-endian base-`n` odometer, to the next slot.
fn advance(digits: &mut [u16], n: usize) {
    for digit in digits.iter_mut().rev() {
        if usize::from(*digit) + 1 < n {
            *digit += 1;
            return;
        }
        *digit = 0;
    }
}

/// Sets the bit of every slot that names a node, level by level: the root
/// is one, and a child is one iff its parent is and its last id is neither
/// the source nor on the parent's path — so every node's `n` child slots
/// are set and those few cleared again. One odometer pass per level.
fn mark_nodes(node: &mut [u64], n: usize, source: u16, level_start: &[usize]) {
    node[0] |= 1;
    let mut digits = [0u16; MAX_DEPTH];
    for level in 1..level_start.len() - 1 {
        let digits = &mut digits[..level - 1];
        digits.fill(0);
        let (from, to) = (level_start[level - 1], level_start[level]);
        for slot in 0..to - from {
            if bit(node, from + slot) {
                let first = to + slot * n;
                for child in first..first + n {
                    let (word, mask) = locate(child);
                    node[word] |= mask;
                }
                for &q in digits.iter().chain([&source]) {
                    let (word, mask) = locate(first + usize::from(q));
                    node[word] &= !mask;
                }
            }
            advance(digits, n);
        }
    }
}

/// The value more than half of a `population` voted for, else
/// [`DEFAULT_VALUE`]; `votes` holds at most one vote per member, absent
/// members count against every value. Boyer–Moore candidate, then a
/// confirming count — skipped when the lead says every member voted alike.
pub fn strict_majority(
    votes: impl IntoIterator<Item = Value, IntoIter: Clone>,
    population: usize,
) -> Value {
    let votes = votes.into_iter();
    let (mut candidate, mut lead) = (DEFAULT_VALUE, 0usize);
    for v in votes.clone() {
        if lead == 0 {
            candidate = v;
            lead = 1;
        } else if v == candidate {
            lead += 1;
        } else {
            lead -= 1;
        }
    }
    if lead == population {
        return candidate;
    }
    let count = votes.filter(|&v| v == candidate).count();
    if 2 * count > population {
        candidate
    } else {
        DEFAULT_VALUE
    }
}

/// The `HashMap`-of-paths tree the flat table replaced, kept as the
/// oracle the property test in [`om`](crate::om) compares against.
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::{HashMap, HashSet};

    use super::EigTree;
    use crate::wire::{Reader, Writer};
    use crate::{Value, DEFAULT_VALUE};

    type Path = Vec<u16>;

    /// What [`EigTree::relay`] appends, on its own.
    pub(crate) fn relayed(tree: &mut EigTree, level: usize, me: u16) -> Vec<u8> {
        let mut out = Vec::new();
        tree.relay(level, me, &mut out);
        out
    }

    /// [`EigTree::absorb`] the long way round — field by field through a
    /// [`Reader`], a uniform payload's one value copied out to every node
    /// it tells, the receiving nodes listed from `nodes` (every path of
    /// the tree): the writes, by path, that the payload asks for, none if
    /// it is refused. The oracle of the decode property tests in `om`,
    /// and of the short frame's in `consensus`.
    pub(crate) fn decode_reference(
        nodes: &[Vec<u16>],
        level: usize,
        sender: usize,
        payload: &[u8],
    ) -> Vec<(Vec<u16>, Value)> {
        let mut children: Vec<&Vec<u16>> = nodes
            .iter()
            .filter(|p| p.len() == level && usize::from(p[level - 1]) == sender)
            .collect();
        children.sort();
        let mut r = Reader::new(payload);
        let Some(tag) = r.get_u8() else { return vec![] };
        let uniform = tag >= 0x80;
        if usize::from(tag % 0x80) != level {
            return vec![];
        }
        let mut present = Vec::new();
        for _ in 0..children.len().div_ceil(8) {
            let Some(byte) = r.get_u8() else {
                return vec![];
            };
            present.extend((0..8).map(|i| byte >> i & 1 == 1));
        }
        if present[children.len()..].contains(&true) {
            return vec![];
        }
        let told = present.iter().filter(|&&p| p).count();
        if uniform && told < 2 {
            return vec![];
        }
        let mut values = Vec::new();
        for _ in 0..if uniform { 1 } else { told } {
            let Some(value) = r.get_u64() else {
                return vec![];
            };
            values.push(value);
        }
        if !r.is_exhausted() {
            return vec![];
        }
        if uniform {
            values = vec![values[0]; told];
        }
        let told = children.into_iter().zip(present).filter(|&(_, p)| p);
        told.map(|(path, _)| path.clone()).zip(values).collect()
    }

    /// Every node of an `(n, f, source)` tree, level by level.
    pub(crate) fn all_nodes(n: usize, f: usize, source: u16) -> Vec<Path> {
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

        /// The relay payload for `level` by `me`, built the long way
        /// round: list the next level's nodes ending in `me`, sort them,
        /// look each parent up by path; a bit per node, then the values —
        /// or, if there are two or more and no two differ, the flag on the
        /// level byte and the first value alone.
        /// Mirrors every relayed node like [`EigTree::relay`](super::EigTree::relay).
        /// `nodes` is every path of the tree ([`all_nodes`]).
        pub(crate) fn relay_payload(&mut self, level: usize, me: u16, nodes: &[Path]) -> Vec<u8> {
            let mut children: Vec<Path> = nodes
                .iter()
                .filter(|p| p.len() == level + 1 && p[level] == me)
                .cloned()
                .collect();
            children.sort();
            let mut presence = vec![0u8; children.len().div_ceil(8)];
            let mut told = Vec::new();
            for (i, child) in children.into_iter().enumerate() {
                if let Some(value) = self.get(&child[..level]) {
                    presence[i / 8] |= 1 << (i % 8);
                    told.push(value);
                    self.store(child, value);
                }
            }
            let distinct: HashSet<Value> = told.iter().copied().collect();
            let mut tag = level as u8 + 1;
            if told.len() >= 2 && distinct.len() == 1 {
                tag += 0x80;
                told.truncate(1);
            }
            let mut values = Vec::new();
            let mut w = Writer::new(&mut values);
            for value in told {
                w.put_u64(value);
            }
            [vec![tag], presence, values].concat()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::relayed;
    use super::*;

    /// The vote-count form the tests below were written against.
    fn strict_majority(votes: &[Value]) -> Value {
        super::strict_majority(votes.iter().copied(), votes.len())
    }

    /// The level-`level` payload telling `told`, on its own.
    fn encode(level: usize, told: &[Option<Value>]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut p = LevelPayload::new(&mut out, level, told.len());
        told.iter().for_each(|&v| p.push(v));
        p.finish();
        out
    }

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
    fn resolve_votes_only_among_node_children() {
        // Children of [0] are [0,1], [0,2], [0,3]: 7, missing, 7 — two of
        // three. Slot [0,0] names no node; counted as a fourth, defaulted
        // vote it would turn the strict majority into a tie.
        let mut t = EigTree::new(4, 1, 0);
        t.store(&[0, 1], 7);
        t.store(&[0, 3], 7);
        assert_eq!(t.resolve(), 7);
    }

    #[test]
    fn level_iterates_only_that_depth() {
        // A relay of level L reads level L only and writes level L+1 only.
        let mut t = EigTree::new(7, 2, 0);
        t.store(&[0], 1);
        t.store(&[0, 1], 2);
        t.store(&[0, 2], 3);
        t.store(&[0, 1, 2], 4);
        // Level-3 nodes ending in 3: [0,1,3], [0,2,3], [0,4,3], [0,5,3],
        // [0,6,3]; the first two have a populated parent.
        let mut expected = vec![3, 0b00011];
        expected.extend([2u64.to_be_bytes(), 3u64.to_be_bytes()].concat());
        assert_eq!(relayed(&mut t, 2, 3), expected);
        assert_eq!(t.get(&[0, 1, 3]), Some(2), "mirrored into level 3");
        assert_eq!(t.get(&[0, 2, 3]), Some(3), "mirrored into level 3");
        assert_eq!(t.get(&[0, 3]), None, "level 1 was not relayed");
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn relay_skips_paths_containing_me() {
        let mut t = EigTree::new(7, 2, 0);
        t.store(&[0, 1], 2);
        t.store(&[0, 3], 5);
        // [0,3] is populated, but [0,3,3] is no node: one bit of five.
        let mut expected = vec![3, 0b00001];
        expected.extend(2u64.to_be_bytes());
        assert_eq!(relayed(&mut t, 2, 3), expected);
        assert_eq!(t.len(), 3);
        // The source has nothing of its own broadcast to relay: no node
        // ends in it past the root.
        assert_eq!(relayed(&mut t, 2, 0), [3]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn node_bitmap_is_exactly_the_set_of_paths() {
        use std::collections::HashSet;
        for n in 1..=10usize {
            for f in 0..n.min(4) {
                for source in 0..n as u16 {
                    let tree = EigTree::new(n, f, source);
                    let nodes: HashSet<Vec<u16>> =
                        reference::all_nodes(n, f, source).into_iter().collect();
                    let mut bits = 0;
                    for level in 1..=f + 1 {
                        let from = tree.level_start[level - 1];
                        for slot in 0..tree.level_start[level] - from {
                            // The slot's digits, most significant first.
                            let mut path = vec![source; level];
                            let mut digits = slot;
                            for id in path[1..].iter_mut().rev() {
                                *id = (digits % n) as u16;
                                digits /= n;
                            }
                            let is_node = bit(&tree.node, from + slot);
                            assert_eq!(
                                is_node,
                                nodes.contains(&path),
                                "n={n} f={f} source={source} {path:?}"
                            );
                            bits += usize::from(is_node);
                        }
                    }
                    assert_eq!(bits, nodes.len(), "n={n} f={f} source={source}");
                }
            }
        }
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
    fn level_payload_is_level_bits_values() {
        let told: Vec<Option<Value>> = (0..10u64)
            .map(|i| [0, 3, 9].contains(&i).then_some(0x0100 + i))
            .collect();
        // Ten slots: bits 0 and 3 of the first presence byte, bit 1 of the
        // second, six padding bits left zero.
        let mut expected = vec![4, 0b0000_1001, 0b10];
        for v in [0x0100u64, 0x0103, 0x0109] {
            expected.extend(v.to_be_bytes());
        }
        assert_eq!(encode(4, &told), expected);
        assert_eq!(encode(2, &[]), [2]);
        // Behind whatever the buffer already holds, which it leaves be.
        let mut out = vec![0xAB; 3];
        let mut p = LevelPayload::new(&mut out, 4, 10);
        told.iter().for_each(|&v| p.push(v));
        p.finish();
        assert_eq!(out, [&[0xAB; 3][..], &expected].concat());
    }

    #[test]
    fn level_payload_says_an_agreed_value_once() {
        let seven = 7u64.to_be_bytes();
        // Two or more told, all equal: the flag, the bits, one value.
        assert_eq!(
            encode(3, &[Some(7), None, Some(7), Some(7)]),
            [&[3 | 0x80, 0b1101][..], &seven].concat()
        );
        // One told, or none: nothing to save, plain.
        assert_eq!(
            encode(3, &[None, Some(7)]),
            [&[3, 0b10][..], &seven].concat()
        );
        assert_eq!(encode(3, &[None, None]), [3, 0]);
        // A value that differs, however late, spells every one out.
        assert_eq!(
            encode(3, &[Some(7), Some(7), None, Some(8)]),
            [&[3, 0b1011][..], &seven, &seven, &8u64.to_be_bytes()].concat()
        );
        // The flag goes on the payload's own first byte, not the buffer's.
        let mut out = vec![0];
        let mut p = LevelPayload::new(&mut out, 3, 2);
        p.push(Some(7));
        p.push(Some(7));
        p.finish();
        assert_eq!(out, [&[0, 3 | 0x80, 0b11][..], &seven].concat());
    }

    #[test]
    #[should_panic(expected = "an EIG level fits seven bits")]
    fn level_payload_refuses_a_level_that_reaches_the_flag_bit() {
        LevelPayload::new(&mut Vec::new(), 128, 1);
    }

    #[test]
    #[should_panic(expected = "one push per slot")]
    fn level_payload_refuses_a_missing_slot() {
        let mut out = Vec::new();
        let mut p = LevelPayload::new(&mut out, 2, 2);
        p.push(None);
        p.finish();
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
