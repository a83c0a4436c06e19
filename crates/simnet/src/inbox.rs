//! Flat inbox storage with active-set bookkeeping.
//!
//! [`Inboxes`] holds one pulse's pending messages for all n processes in
//! **one** buffer: `flat`, a `Vec<Message>` grouped by destination, plus one
//! [`Span`] per process naming its group. A process's inbox is the slice
//! `flat[start..start + len]`, so
//! [`Context::inbox`](crate::process::Context::inbox) stays a plain slice,
//! and a process nobody wrote to has the zero span.
//!
//! * **Two-pass fill.** The step's merge knows every routed message before
//!   it stores the first, so the fill is a stable counting sort:
//!   [`count`](Inboxes::count) each destination, [`layout`](Inboxes::layout)
//!   the groups (first-touch order) and size `flat` once, then
//!   [`place`](Inboxes::place) each message at its group's cursor. Placing
//!   in the merge's ascending sender order makes every slot read in exactly
//!   that order. A fill starts from a cleared store.
//! * **Touched-slot tracking.** Every slot that gains a message (or is
//!   visited by a fault injector) is recorded in a *touched* list. Layout
//!   and the per-round clear only visit touched slots, and the quiescence
//!   scheduler derives the round's active set from the touched list — idle
//!   processes cost zero scan time, and nothing here is O(n) per round.
//! * **[`edit`](Inboxes::edit)** is how a fault injector rewrites slots: the
//!   slot's messages move out into a scratch `Vec`, the closure drops,
//!   rewrites or appends, and the result is appended at the end of `flat`
//!   with the span repointed there. The vacated range stays behind as
//!   default-valued holes until the next clear.
//!
//! [`clear`](Inboxes::clear) zeroes the touched spans and empties `flat`
//! in one sequential drop, keeping its capacity: steady-state traffic
//! allocates nothing. Memory is `flat` — the high-water *pending* count
//! (plus what edits appended) times 32 bytes — and `spans`, 8 n bytes.
//!
//! [`pending`](Inboxes::pending) and [`quiescent`](Inboxes::quiescent)
//! run off the same bookkeeping in O(touched) — the telemetry sampler's
//! per-round cost tracks the active set, not the process count.

use crate::message::Message;

/// Where one process's pending messages sit in [`Inboxes::flat`].
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    /// Messages in the slot. Doubles as the fill's counter: `count` tallies
    /// into it, `layout` resets it, `place` grows it back.
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// What overflowing a span field panics with. The limit is on one pulse's
/// pending messages, not on n.
const SPAN_LIMIT: &str = "at most u32::MAX messages pending in one pulse";

/// Converts a position in `flat` to a span field.
fn span_index(i: usize) -> u32 {
    u32::try_from(i).expect(SPAN_LIMIT)
}

/// One pulse's worth of per-process inboxes (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Inboxes {
    /// Every pending message, grouped by destination.
    flat: Vec<Message>,
    /// `spans[i]` = process `i`'s group in `flat`; zero for untouched slots.
    spans: Vec<Span>,
    /// Indices touched since the last [`clear`](Inboxes::clear), in first-
    /// touch order (unsorted).
    touched: Vec<usize>,
    /// `flagged[i]` ⇔ `i` is in `touched`. Invariant: every non-empty
    /// slot is flagged.
    flagged: Vec<bool>,
    /// The slot being rewritten inside [`edit`](Inboxes::edit); kept for its
    /// capacity.
    scratch: Vec<Message>,
}

impl Inboxes {
    /// `n` empty inboxes. Each side table is one up-front reservation:
    /// `touched` can hold every slot index without regrowing, so a dense
    /// round (all n inboxes touched) never pays incremental
    /// realloc-and-copy cycles on the hot path.
    pub(crate) fn new(n: usize) -> Inboxes {
        Inboxes {
            flat: Vec::new(),
            spans: vec![Span::default(); n],
            touched: Vec::with_capacity(n),
            flagged: vec![false; n],
            scratch: Vec::new(),
        }
    }

    /// Number of slots (= processes).
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// Marks slot `i` touched.
    #[inline]
    fn touch(&mut self, i: usize) {
        if !self.flagged[i] {
            self.flagged[i] = true;
            self.touched.push(i);
        }
    }

    /// Fill, pass one: announces one message for slot `to`.
    #[inline]
    pub(crate) fn count(&mut self, to: usize) {
        self.touch(to);
        self.spans[to].len += 1;
    }

    /// Between the passes: gives every counted slot its range of `flat`
    /// (first-touch order) and sizes `flat` to hold them all. O(touched).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` messages are pending.
    pub(crate) fn layout(&mut self) {
        assert!(self.flat.is_empty(), "a fill starts from a cleared store");
        let mut total = 0u32;
        for &i in &self.touched {
            let span = &mut self.spans[i];
            span.start = total;
            total = total.checked_add(span.len).expect(SPAN_LIMIT);
            span.len = 0;
        }
        self.flat.resize_with(total as usize, Message::default);
    }

    /// Fill, pass two: stores a counted message at the end of slot `to`.
    /// Inlined into the merge loop: behind a call, every message is spilled
    /// to the stack and reloaded around it.
    #[inline]
    pub(crate) fn place(&mut self, to: usize, message: Message) {
        let span = &mut self.spans[to];
        self.flat[span.start as usize + span.len as usize] = message;
        span.len += 1;
    }

    /// Read access to slot `i`'s pending messages.
    pub(crate) fn slot(&self, i: usize) -> &[Message] {
        &self.flat[self.spans[i].range()]
    }

    /// Lets a fault injector rewrite the slots of `owners`, in the order
    /// given: `f(owner, messages)` may drop, rewrite, append or empty. Every
    /// owner is marked touched even if `f` leaves it empty (a scrambled or
    /// garbage-fed inbox must re-enter the active set).
    ///
    /// # Panics
    ///
    /// Panics if `flat` would outgrow `u32::MAX` messages.
    pub(crate) fn edit(
        &mut self,
        owners: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize, &mut Vec<Message>),
    ) {
        for owner in owners {
            self.touch(owner);
            let old = self.spans[owner].range();
            self.scratch
                .extend(self.flat[old].iter_mut().map(std::mem::take));
            f(owner, &mut self.scratch);
            self.spans[owner] = Span {
                start: span_index(self.flat.len()),
                len: span_index(self.scratch.len()),
            };
            self.flat.append(&mut self.scratch);
        }
    }

    /// The touched slot indices since the last clear, in first-touch order.
    pub(crate) fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// Touched slot indices in ascending order — the deterministic visit
    /// order a transient fault uses so its event stream stays coordinate-
    /// ordered.
    pub(crate) fn touched_sorted(&self) -> Vec<usize> {
        let mut ids = self.touched.clone();
        ids.sort_unstable();
        ids
    }

    /// Empties every touched slot and `flat`, keeping its capacity.
    /// O(touched + pending) — untouched slots are never visited.
    pub(crate) fn clear(&mut self) {
        for &i in &self.touched {
            self.flagged[i] = false;
            self.spans[i] = Span::default();
        }
        self.touched.clear();
        self.flat.clear();
    }

    /// Total messages pending across all slots. O(touched).
    pub(crate) fn pending(&self) -> u64 {
        self.touched
            .iter()
            .map(|&i| u64::from(self.spans[i].len))
            .sum()
    }

    /// Number of slots with no pending messages. O(touched).
    pub(crate) fn quiescent(&self) -> usize {
        let nonempty = self
            .touched
            .iter()
            .filter(|&&i| self.spans[i].len > 0)
            .count();
        self.spans.len() - nonempty
    }

    /// Fills a cleared store with `routed`, in order — the step's merge in
    /// miniature (test fixtures).
    #[cfg(test)]
    pub(crate) fn fill(&mut self, routed: Vec<(usize, Message)>) {
        for (to, _) in &routed {
            self.count(*to);
        }
        self.layout();
        for (to, message) in routed {
            self.place(to, message);
        }
    }

    /// Builds from explicit slot contents (test fixtures).
    #[cfg(test)]
    pub(crate) fn from_slots(slots: Vec<Vec<Message>>) -> Inboxes {
        let mut inboxes = Inboxes::new(slots.len());
        inboxes.fill(
            slots
                .into_iter()
                .enumerate()
                .flat_map(|(i, slot)| slot.into_iter().map(move |m| (i, m)))
                .collect(),
        );
        inboxes
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::ids::{ProcessId, Round};

    fn msg(from: usize) -> Message {
        Message::new(ProcessId(from), Round(0), vec![1, 2])
    }

    #[test]
    fn push_tracks_touched_and_pending() {
        let mut inboxes = Inboxes::new(8);
        assert_eq!(inboxes.pending(), 0);
        assert_eq!(inboxes.quiescent(), 8);
        inboxes.fill(vec![(3, msg(0)), (5, msg(0)), (3, msg(1))]);
        assert_eq!(inboxes.touched_sorted(), vec![3, 5]);
        assert_eq!(inboxes.pending(), 3);
        assert_eq!(inboxes.quiescent(), 6);
        assert_eq!(inboxes.slot(3), [msg(0), msg(1)], "placement order kept");
        assert_eq!(inboxes.slot(0).len(), 0);
    }

    #[test]
    fn clear_empties_every_slot_and_the_next_fill_reuses_the_buffer() {
        let mut inboxes = Inboxes::new(8);
        inboxes.fill(vec![(2, msg(0)), (2, msg(1)), (4, msg(0))]);
        inboxes.edit([7], |_, inbox| inbox.push(msg(3)));
        let (ptr, cap) = (inboxes.flat.as_ptr(), inboxes.flat.capacity());
        inboxes.clear();
        assert_eq!(inboxes.pending(), 0);
        assert_eq!(inboxes.quiescent(), 8);
        assert!(inboxes.touched().is_empty());
        assert!((0..8).all(|i| inboxes.slot(i).is_empty()));
        // Other slots, as many messages: the same buffer, not a new one.
        inboxes.fill(vec![(6, msg(0)), (1, msg(0)), (6, msg(2)), (0, msg(1))]);
        assert_eq!(inboxes.flat.as_ptr(), ptr);
        assert_eq!(inboxes.flat.capacity(), cap);
        assert_eq!(inboxes.slot(6), [msg(0), msg(2)]);
        assert!(inboxes.slot(2).is_empty() && inboxes.slot(7).is_empty());
    }

    #[test]
    fn slot_mut_touches_even_when_left_empty() {
        let mut inboxes = Inboxes::new(4);
        inboxes.edit([1], |_, _| {});
        assert_eq!(inboxes.touched_sorted(), vec![1]);
        assert_eq!(inboxes.pending(), 0);
        assert_eq!(inboxes.quiescent(), 4, "touched but empty is quiescent");
    }

    #[test]
    fn emptied_slot_counts_as_quiescent_but_stays_touched() {
        let mut inboxes = Inboxes::new(4);
        inboxes.fill(vec![(0, msg(1))]);
        inboxes.edit([0], |_, inbox| inbox.clear());
        assert_eq!(inboxes.touched_sorted(), vec![0]);
        assert_eq!(inboxes.pending(), 0);
        assert_eq!(inboxes.quiescent(), 4);
    }

    #[test]
    fn from_slots_flags_nonempty() {
        let inboxes = Inboxes::from_slots(vec![vec![msg(1)], vec![], vec![msg(0)]]);
        assert_eq!(inboxes.touched_sorted(), vec![0, 2]);
        assert_eq!(inboxes.pending(), 2);
    }

    #[test]
    #[should_panic(expected = "a fill starts from a cleared store")]
    fn a_fill_over_pending_messages_is_refused() {
        let mut inboxes = Inboxes::from_slots(vec![vec![msg(1)], vec![]]);
        inboxes.fill(vec![(1, msg(0))]);
    }

    /// The store written plainly — one `Vec` per process and a touched set —
    /// as the oracle for the flat one.
    struct Plain {
        slots: Vec<Vec<Message>>,
        touched: BTreeSet<usize>,
    }

    impl Plain {
        fn fill(&mut self, routed: &[(usize, Message)]) {
            for (to, message) in routed {
                self.touched.insert(*to);
                self.slots[*to].push(message.clone());
            }
        }

        fn edit(&mut self, owners: &[usize], mut f: impl FnMut(usize, &mut Vec<Message>)) {
            for &owner in owners {
                self.touched.insert(owner);
                f(owner, &mut self.slots[owner]);
            }
        }

        fn clear(&mut self) {
            self.slots.iter_mut().for_each(Vec::clear);
            self.touched.clear();
        }
    }

    /// What an injector might do to one slot: drop some, rewrite some,
    /// append some, or empty it — a pure function of `(salt, owner)`.
    fn rewrite(salt: u64, n: usize, owner: usize, inbox: &mut Vec<Message>) {
        let mut rng = StdRng::seed_from_u64(salt ^ (owner as u64) << 32);
        match rng.gen_range(0..5) {
            0 => inbox.clear(),
            1 => inbox.retain(|_| rng.gen_bool(0.5)),
            2 => {
                for m in inbox.iter_mut() {
                    m.payload = vec![rng.gen::<u8>(); rng.gen_range(0..20)].into();
                }
            }
            3 => {
                for _ in 0..rng.gen_range(1..4) {
                    let from = ProcessId(rng.gen_range(0..n));
                    inbox.push(Message::new(from, Round(salt), vec![rng.gen::<u8>()]));
                }
            }
            _ => {
                inbox.retain(|_| rng.gen_bool(0.7));
                inbox.insert(0, Message::new(ProcessId(owner), Round(1), vec![7u8; 16]));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flat_store_matches_the_plain_one(
            n in 1usize..=16,
            seed in any::<u64>(),
            steps in 1usize..48,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut flat = Inboxes::new(n);
            let mut plain = Plain { slots: vec![Vec::new(); n], touched: BTreeSet::new() };
            // A fill starts from a cleared store: only offered right after
            // a clear (or at the start).
            let mut cleared = true;
            for step in 0..steps {
                let op = rng.gen_range(0..if cleared { 3 } else { 2 });
                match op {
                    0 => {
                        flat.clear();
                        plain.clear();
                    }
                    1 => {
                        let owners: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
                        let salt = rng.gen::<u64>();
                        flat.edit(owners.iter().copied(), |owner, inbox| {
                            rewrite(salt, n, owner, inbox);
                        });
                        plain.edit(&owners, |owner, inbox| rewrite(salt, n, owner, inbox));
                    }
                    _ => {
                        let routed: Vec<(usize, Message)> = (0..rng.gen_range(0..40))
                            .map(|k| {
                                let payload = vec![k as u8; rng.gen_range(0..18)];
                                let from = ProcessId(rng.gen_range(0..n));
                                (rng.gen_range(0..n), Message::new(from, Round(step as u64), payload))
                            })
                            .collect();
                        plain.fill(&routed);
                        flat.fill(routed);
                    }
                }
                cleared = op == 0;
                for i in 0..n {
                    prop_assert_eq!(flat.slot(i), &plain.slots[i][..], "step {} slot {}", step, i);
                }
                let touched: Vec<usize> = plain.touched.iter().copied().collect();
                prop_assert_eq!(flat.touched_sorted(), touched, "step {}", step);
                prop_assert_eq!(flat.touched().len(), plain.touched.len(), "no duplicates");
                let pending: usize = plain.slots.iter().map(Vec::len).sum();
                prop_assert_eq!(flat.pending(), pending as u64, "step {}", step);
                let quiescent = plain.slots.iter().filter(|s| s.is_empty()).count();
                prop_assert_eq!(flat.quiescent(), quiescent, "step {}", step);
            }
        }
    }
}
