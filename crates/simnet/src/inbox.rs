//! Arena-backed inbox storage with active-set bookkeeping.
//!
//! [`Inboxes`] replaces the scheduler's old `Vec<Vec<Message>>` double
//! buffers. Each process still owns a contiguous `Vec<Message>` slot (so
//! [`Context::inbox`](crate::process::Context::inbox) stays a plain
//! slice), but two things make idle processes free at large n:
//!
//! * **Touched-slot tracking.** Every slot that gains a message (or is
//!   visited by a fault injector) is recorded in a *touched* list. The
//!   per-round clear only visits touched slots, and the quiescence
//!   scheduler derives the round's active set from the touched list —
//!   idle processes cost zero scan time.
//! * **A recycled buffer pool.** Cleared slots hand their allocation back
//!   to a shared pool; newly touched slots take one from it. Steady-state
//!   message traffic therefore allocates nothing even when the set of
//!   active processes drifts across the system, and memory is bounded by
//!   the high-water *active* count, not by n.
//!
//! [`pending`](Inboxes::pending) and [`quiescent`](Inboxes::quiescent)
//! run off the same bookkeeping in O(touched) — the telemetry sampler's
//! per-round cost tracks the active set, not the process count.

use crate::message::Message;

/// One pulse's worth of per-process inboxes (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct Inboxes {
    /// `slots[i]` = messages pending for process `i`. Untouched slots are
    /// empty `Vec`s with no allocation.
    slots: Vec<Vec<Message>>,
    /// Indices touched since the last [`clear`](Inboxes::clear), in first-
    /// touch order (unsorted).
    touched: Vec<usize>,
    /// `flagged[i]` ⇔ `i` is in `touched`. Invariant: every non-empty
    /// slot is flagged.
    flagged: Vec<bool>,
    /// Cleared slot buffers awaiting reuse.
    pool: Vec<Vec<Message>>,
}

impl Inboxes {
    /// `n` empty inboxes; no per-slot allocations. Each side table is one
    /// up-front reservation: `touched` can hold every slot index without
    /// regrowing, so a dense round (all n inboxes touched) never pays
    /// incremental realloc-and-copy cycles on the hot push path.
    pub(crate) fn new(n: usize) -> Inboxes {
        Inboxes {
            slots: vec![Vec::new(); n],
            touched: Vec::with_capacity(n),
            flagged: vec![false; n],
            pool: Vec::new(),
        }
    }

    /// Number of slots (= processes).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Marks slot `i` touched, wiring it a pooled buffer if it has none.
    #[inline]
    fn touch(&mut self, i: usize) {
        if !self.flagged[i] {
            self.flagged[i] = true;
            self.touched.push(i);
            if self.slots[i].capacity() == 0 {
                if let Some(buf) = self.pool.pop() {
                    self.slots[i] = buf;
                }
            }
        }
    }

    /// Appends a message to slot `to`. Inlined (with `touch`) into the
    /// merge loop: behind a call, every message is spilled to the stack and
    /// reloaded around it — 4 ms of a 30 ms merge at complete(1024).
    #[inline]
    pub(crate) fn push(&mut self, to: usize, message: Message) {
        self.touch(to);
        self.slots[to].push(message);
    }

    /// Read access to slot `i`'s pending messages.
    pub(crate) fn slot(&self, i: usize) -> &[Message] {
        &self.slots[i]
    }

    /// Mutable access to slot `i` for fault injectors; marks it touched
    /// (a scrambled or garbage-fed inbox must re-enter the active set).
    pub(crate) fn slot_mut(&mut self, i: usize) -> &mut Vec<Message> {
        self.touch(i);
        &mut self.slots[i]
    }

    /// The touched slot indices since the last clear, in first-touch order.
    pub(crate) fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// Touched slot indices in ascending order — the deterministic visit
    /// order fault injectors use so their event streams stay coordinate-
    /// ordered.
    pub(crate) fn touched_sorted(&self) -> Vec<usize> {
        let mut ids = self.touched.clone();
        ids.sort_unstable();
        ids
    }

    /// Empties every touched slot, recycling buffers through the pool.
    /// O(touched) — untouched slots are never visited.
    pub(crate) fn clear(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        for &i in &touched {
            self.flagged[i] = false;
            let mut buf = std::mem::take(&mut self.slots[i]);
            if buf.capacity() > 0 {
                buf.clear();
                self.pool.push(buf);
            }
        }
        touched.clear();
        self.touched = touched;
    }

    /// Total messages pending across all slots. O(touched).
    pub(crate) fn pending(&self) -> u64 {
        self.touched
            .iter()
            .map(|&i| self.slots[i].len() as u64)
            .sum()
    }

    /// Number of slots with no pending messages. O(touched).
    pub(crate) fn quiescent(&self) -> usize {
        let nonempty = self
            .touched
            .iter()
            .filter(|&&i| !self.slots[i].is_empty())
            .count();
        self.slots.len() - nonempty
    }

    /// Builds from explicit slot contents (test fixtures).
    #[cfg(test)]
    pub(crate) fn from_slots(slots: Vec<Vec<Message>>) -> Inboxes {
        let mut inboxes = Inboxes::new(slots.len());
        for (i, slot) in slots.into_iter().enumerate() {
            if !slot.is_empty() {
                inboxes.touch(i);
                inboxes.slots[i] = slot;
            }
        }
        inboxes
    }
}

#[cfg(test)]
mod tests {
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
        inboxes.push(3, msg(0));
        inboxes.push(3, msg(1));
        inboxes.push(5, msg(0));
        assert_eq!(inboxes.touched_sorted(), vec![3, 5]);
        assert_eq!(inboxes.pending(), 3);
        assert_eq!(inboxes.quiescent(), 6);
        assert_eq!(inboxes.slot(3).len(), 2);
        assert_eq!(inboxes.slot(0).len(), 0);
    }

    #[test]
    fn clear_recycles_buffers_through_the_pool() {
        let mut inboxes = Inboxes::new(8);
        inboxes.push(2, msg(0));
        let cap_before = inboxes.slots[2].capacity();
        assert!(cap_before > 0);
        inboxes.clear();
        assert_eq!(inboxes.pending(), 0);
        assert_eq!(inboxes.quiescent(), 8);
        assert!(inboxes.touched().is_empty());
        // A different slot touched next round adopts the recycled buffer.
        inboxes.push(6, msg(0));
        assert!(inboxes.slots[6].capacity() >= cap_before);
        assert_eq!(inboxes.slots[2].capacity(), 0, "slot 2 gave its buffer up");
    }

    #[test]
    fn slot_mut_touches_even_when_left_empty() {
        let mut inboxes = Inboxes::new(4);
        inboxes.slot_mut(1);
        assert_eq!(inboxes.touched_sorted(), vec![1]);
        assert_eq!(inboxes.pending(), 0);
        assert_eq!(inboxes.quiescent(), 4, "touched but empty is quiescent");
    }

    #[test]
    fn emptied_slot_counts_as_quiescent_but_stays_touched() {
        let mut inboxes = Inboxes::new(4);
        inboxes.push(0, msg(1));
        inboxes.slot_mut(0).clear();
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
}
