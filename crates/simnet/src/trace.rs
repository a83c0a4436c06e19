//! Execution tracing: message and round accounting.
//!
//! Experiment E6 (authority overhead) reports rounds and message counts per
//! play; the [`Trace`] collects them without protocols having to
//! instrument themselves.

use crate::ids::{ProcessId, Round};

/// Counters accumulated over a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Total messages delivered.
    pub messages_delivered: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Messages dropped because the destination was not a neighbor.
    pub messages_dropped_no_link: u64,
    /// Messages dropped by the loss model.
    pub messages_dropped_lossy: u64,
    /// In-flight messages destroyed by transient-fault injection or a
    /// scheduled corruption family.
    ///
    /// **This counter overlaps [`messages_delivered`], it does not add to
    /// it.** A fault wipes messages out of the *pending* inboxes — i.e.
    /// messages that were already routed during an earlier pulse's merge
    /// phase and counted delivered (including in the per-process
    /// [`delivered_to`](Trace::delivered_to) tallies and
    /// [`bytes_delivered`]) but that no recipient will ever read. Summing
    /// it with `messages_delivered` double-counts; subtracting it gives
    /// the messages that actually reached a process step. It is likewise
    /// excluded from [`lossy_drop_rate`](Trace::lossy_drop_rate) (a
    /// loss-model-only rate).
    ///
    /// [`messages_delivered`]: Trace::messages_delivered
    /// [`bytes_delivered`]: Trace::bytes_delivered
    pub messages_dropped_fault: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Per-process delivered-message counts.
    per_process: Vec<u64>,
}

impl Trace {
    /// Creates counters for `n` processes.
    pub fn new(n: usize) -> Trace {
        Trace {
            per_process: vec![0; n],
            ..Trace::default()
        }
    }

    /// Adds a round's routed totals (summed per shard at route time, while
    /// each payload is in hand).
    pub(crate) fn record_routed(&mut self, messages: u64, bytes: u64) {
        self.messages_delivered += messages;
        self.bytes_delivered += bytes;
    }

    /// Counts one routed message towards its destination's tally (the
    /// merge's share of the accounting: it has `to`, not the payload).
    pub(crate) fn record_delivered_to(&mut self, to: ProcessId) {
        if let Some(c) = self.per_process.get_mut(to.index()) {
            *c += 1;
        }
    }

    /// One delivery, all at once — how the reference router and the unit
    /// tests count.
    #[cfg(test)]
    pub(crate) fn record_delivery(&mut self, to: ProcessId, bytes: u64) {
        self.record_routed(1, bytes);
        self.record_delivered_to(to);
    }

    pub(crate) fn record_round(&mut self, _round: Round) {
        self.rounds += 1;
    }

    /// Messages delivered to a specific process over the whole run.
    pub fn delivered_to(&self, id: ProcessId) -> u64 {
        self.per_process.get(id.index()).copied().unwrap_or(0)
    }

    /// Fraction of on-link messages the loss model dropped, in `[0, 1]`
    /// (0 if nothing was routed). Scenario run records report this as the
    /// observed drop rate under [`Delivery::Lossy`](crate::sim::Delivery).
    pub fn lossy_drop_rate(&self) -> f64 {
        let on_link = self.messages_delivered + self.messages_dropped_lossy;
        if on_link == 0 {
            0.0
        } else {
            self.messages_dropped_lossy as f64 / on_link as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut t = Trace::new(3);
        t.record_delivery(ProcessId(1), 10);
        t.record_delivery(ProcessId(1), 5);
        t.record_delivery(ProcessId(2), 1);
        t.record_round(Round(0));
        assert_eq!(t.messages_delivered, 3);
        assert_eq!(t.bytes_delivered, 16);
        assert_eq!(t.delivered_to(ProcessId(1)), 2);
        assert_eq!(t.delivered_to(ProcessId(0)), 0);
    }

    #[test]
    fn drop_rate_is_the_lossy_share_of_on_link_messages() {
        let mut t = Trace::new(2);
        t.record_delivery(ProcessId(0), 1);
        t.record_delivery(ProcessId(1), 1);
        t.record_delivery(ProcessId(1), 1);
        t.messages_dropped_lossy = 1;
        t.messages_dropped_no_link = 5;
        t.messages_dropped_fault = 2;
        // 1 lossy drop out of 4 on-link messages; no-link and fault drops
        // do not dilute the loss-model rate.
        assert!((t.lossy_drop_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn drop_rate_zero_when_nothing_routed() {
        assert_eq!(Trace::new(1).lossy_drop_rate(), 0.0);
    }
}
