//! Round-triggered event schedules: churn and fault injection as data.
//!
//! The scenario engine describes *when* a run's environment changes —
//! a processor is punitively disconnected, a partition heals, a transient
//! fault (a [`CorruptionFamily`], once or recurring) scrambles the
//! configuration, the loss model degrades — as a
//! [`Schedule`] attached to the [`Simulation`](crate::sim::Simulation).
//! Each entry fires at the *start* of its round, before any process takes
//! its step, so the round's deliveries already reflect the new topology
//! and delivery model. Schedules are plain data (no closures), which keeps
//! specs `Clone + Send + Sync` and lets sweep workers share one spec
//! across threads.

use crate::fault::CorruptionFamily;
use crate::ids::{ProcessId, Round};
use crate::sim::Delivery;
use crate::topology::Topology;

/// One environment change, applied at the start of a scheduled round.
#[derive(Debug, Clone)]
pub enum ScheduledAction {
    /// Remove every link of the processor (churn: departure, or the
    /// executive's punitive disconnection).
    Disconnect(ProcessId),
    /// Re-add links from the processor to each listed peer (churn:
    /// recovery). Peers that are already linked, out of range, or equal to
    /// the processor itself are skipped.
    Reconnect(ProcessId, Vec<ProcessId>),
    /// Remove the single edge `(a, b)` (partition churn at edge
    /// granularity — [`Topology::cut_link`]). Absent, reflexive or
    /// out-of-range edges are skipped.
    CutLink {
        /// One endpoint of the edge.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// Re-add the single edge `(a, b)` (a partition healing —
    /// [`Topology::heal_link`]). Already-present, reflexive or
    /// out-of-range edges are skipped.
    HealLink {
        /// One endpoint of the edge.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// Apply a seed-derived corruption family: scramble a strategy-chosen
    /// set of process states, degrade in-flight messages and add garbage
    /// ones, with every RNG draw keyed by `(seed, id, round)` coordinates —
    /// see [`CorruptionFamily`].
    ///
    /// The [`Recurrence`] makes sustained adversity (the "unsupportive
    /// environment" of Dolev & Herman) schedulable without materializing
    /// one entry per burst: a recurring corruption re-arms itself lazily
    /// at fire time, and because every family draw is keyed by the firing
    /// round, each re-fire gets fresh deterministic randomness.
    Corrupt(CorruptionFamily, Recurrence),
    /// Switch the delivery model (e.g. a lossy interval mid-run).
    SetDelivery(Delivery),
}

/// How often a [`ScheduledAction::Corrupt`] entry fires.
///
/// Recurrence is applied *lazily*: the schedule holds at most one pending
/// entry per recurring corruption, and popping it re-arms the next firing
/// (no entry explosion when sweeping long windows). The next firing is
/// anchored at the round the entry actually fired — for a schedule
/// attached mid-run past its start round, the burst train continues from
/// "now" instead of replaying a catch-up burst per missed period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recurrence {
    /// Fire exactly once at the scheduled round.
    Once,
    /// After each firing, fire again `period` rounds later, as long as
    /// that next firing round is `<= until`. A zero `period` degenerates
    /// to [`Once`](Recurrence::Once).
    Every {
        /// Rounds between consecutive firings.
        period: u64,
        /// Last round (inclusive) at which a re-fire may be scheduled.
        until: u64,
    },
}

impl Recurrence {
    /// The rounds an entry scheduled at `start` fires at under this
    /// recurrence, assuming every round from `start` on is executed (the
    /// normal case: schedule attached before the run). Scenario probes use
    /// this to turn one recurring entry into its burst-round list.
    pub fn firing_rounds(&self, start: u64) -> Vec<u64> {
        match *self {
            Recurrence::Once => vec![start],
            Recurrence::Every { period, until } => {
                let mut rounds = vec![start];
                if period > 0 {
                    let mut next = start.saturating_add(period);
                    while next <= until {
                        rounds.push(next);
                        next = next.saturating_add(period);
                    }
                }
                rounds
            }
        }
    }
}

impl ScheduledAction {
    /// Stable lowercase kind label, used by the telemetry event plane
    /// ([`Event::ScheduleFired`](crate::telemetry::Event::ScheduleFired)).
    pub fn kind(&self) -> &'static str {
        match self {
            ScheduledAction::Disconnect(_) => "disconnect",
            ScheduledAction::Reconnect(..) => "reconnect",
            ScheduledAction::CutLink { .. } => "cut_link",
            ScheduledAction::HealLink { .. } => "heal_link",
            ScheduledAction::Corrupt(..) => "corrupt",
            ScheduledAction::SetDelivery(_) => "set_delivery",
        }
    }
}

/// An ordered list of `(round, action)` entries.
///
/// Entries may be added in any order; they are kept sorted by round, with
/// insertion order preserved within a round. The simulation consumes the
/// schedule with a monotone cursor, so the per-round cost of an attached
/// schedule is O(1) when nothing fires.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Sorted by round (stable w.r.t. insertion) whenever `dirty` is
    /// false; an unsorted tail may exist while `dirty` is true.
    entries: Vec<(u64, ScheduledAction)>,
    /// Index of the first entry not yet fired.
    cursor: usize,
    /// Whether the pending suffix `entries[cursor..]` may be out of round
    /// order. Set by an out-of-order [`push`](Schedule::push), cleared by
    /// the deferred stable sort in [`ensure_sorted`](Schedule::ensure_sorted).
    dirty: bool,
}

impl Schedule {
    /// An empty schedule (fires nothing).
    pub fn new() -> Schedule {
        Schedule::default()
    }

    /// Adds `action` to fire at the start of `round` (builder-style).
    #[must_use]
    pub fn at(mut self, round: u64, action: ScheduledAction) -> Schedule {
        self.push(round, action);
        self
    }

    /// Schedules a healable bisection of `topology` (builder-style): every
    /// edge crossing the lower-half/upper-half id split (`0..n/2` vs
    /// `n/2..n`) is [cut](ScheduledAction::CutLink) at the start of
    /// `round` and [healed](ScheduledAction::HealLink) at the start of
    /// `heal_round` — the canonical partition-tolerance event: the network
    /// splits into two silent halves, then rejoins.
    ///
    /// The crossing edges are computed against `topology` as passed;
    /// edges cut or added by *earlier* scheduled events are not tracked
    /// (the cut/heal entries are plain data, so absent edges are skipped
    /// at fire time like every other churn action).
    #[must_use]
    pub fn bisect(mut self, topology: &Topology, round: u64, heal_round: u64) -> Schedule {
        let half = topology.len() / 2;
        let crossing: Vec<(ProcessId, ProcessId)> = (0..half)
            .flat_map(|a| {
                topology
                    .neighbors(ProcessId(a))
                    .iter()
                    .filter(move |&&b| b >= half)
                    .map(move |&b| (ProcessId(a), ProcessId(b)))
            })
            .collect();
        // Push all entries of the earlier round first so the appends stay
        // in round order and the deferred sort in ensure_sorted has
        // nothing to do. (Pushes are O(1) appends either way.)
        let mut batch = |r: u64, heal: bool| {
            for &(a, b) in &crossing {
                let action = if heal {
                    ScheduledAction::HealLink { a, b }
                } else {
                    ScheduledAction::CutLink { a, b }
                };
                self.push(r, action);
            }
        };
        if round <= heal_round {
            batch(round, false);
            batch(heal_round, true);
        } else {
            batch(heal_round, true);
            batch(round, false);
        }
        self
    }

    /// Adds `action` to fire at the start of `round`.
    ///
    /// Safe to call on a partially consumed schedule (a recurring
    /// corruption re-arms itself mid-run this way): the entry is inserted at or after the consumption cursor, so
    /// already-fired entries are never displaced into firing again, and an
    /// entry pushed for a round that has already passed fires exactly once,
    /// at the start of the next pulse — the same late-entry rule the
    /// simulation applies to skipped rounds when consuming the schedule.
    pub fn push(&mut self, round: u64, action: ScheduledAction) {
        // Append in O(1) and defer ordering: a stable sort of the pending
        // suffix runs before the next read (ensure_sorted), so in-order
        // pushes — the common case for builders, bisections and recurring
        // re-arms — never pay the O(E) memmove a sorted insert would, and
        // schedule construction is O(E) instead of O(E²) overall. The
        // consumed prefix is never re-sorted, so already-fired entries are
        // never displaced into firing again; a past-round entry sorts to
        // the front of the pending suffix and fires at the next pulse.
        if let Some(&(last, _)) = self.entries.last() {
            if round < last {
                self.dirty = true;
            }
        }
        self.entries.push((round, action));
    }

    /// Restores the pending-suffix round order after out-of-order pushes.
    /// The sort is stable, so same-round entries keep insertion order.
    fn ensure_sorted(&mut self) {
        if self.dirty {
            self.entries[self.cursor..].sort_by_key(|(r, _)| *r);
            self.dirty = false;
        }
    }

    /// Number of entries (fired and pending).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries that have not fired yet.
    pub fn pending(&self) -> usize {
        self.entries.len() - self.cursor
    }

    /// Pops the next action due at `round`, advancing the cursor.
    /// Entries scheduled for earlier rounds that were never reached (e.g.
    /// the schedule was attached mid-run) fire immediately.
    ///
    /// Popping a recurring [`Corrupt`](ScheduledAction::Corrupt) entry
    /// re-arms its next firing (see [`Recurrence`]): the follow-up is
    /// anchored at the round that actually fired, `period` rounds out, and
    /// only while that lands at or before `until`. The re-armed entry is
    /// always in the future, so a single `next_due` drain loop never spins.
    pub(crate) fn next_due(&mut self, round: Round) -> Option<ScheduledAction> {
        self.ensure_sorted();
        let (due, action) = self.entries.get(self.cursor)?;
        if *due > round.value() {
            return None;
        }
        let due = *due;
        self.cursor += 1;
        let action = action.clone();
        if let ScheduledAction::Corrupt(family, Recurrence::Every { period, until }) = &action {
            let next = round.value().max(due).saturating_add(*period);
            if *period > 0 && next <= *until {
                self.push(
                    next,
                    ScheduledAction::Corrupt(
                        family.clone(),
                        Recurrence::Every {
                            period: *period,
                            until: *until,
                        },
                    ),
                );
            }
        }
        Some(action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds_of(s: &mut Schedule) -> Vec<u64> {
        s.ensure_sorted();
        s.entries.iter().map(|(r, _)| *r).collect()
    }

    #[test]
    fn entries_sorted_by_round_insertion_stable() {
        let mut s = Schedule::new()
            .at(5, ScheduledAction::Disconnect(ProcessId(1)))
            .at(2, ScheduledAction::Disconnect(ProcessId(2)))
            .at(5, ScheduledAction::Disconnect(ProcessId(3)))
            .at(9, ScheduledAction::SetDelivery(Delivery::Reliable));
        assert_eq!(rounds_of(&mut s), vec![2, 5, 5, 9]);
        // Same-round entries keep insertion order.
        let ids: Vec<usize> = s
            .entries
            .iter()
            .filter_map(|(_, a)| match a {
                ScheduledAction::Disconnect(id) => Some(id.index()),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn cursor_drains_in_round_order() {
        let mut s = Schedule::new()
            .at(1, ScheduledAction::Disconnect(ProcessId(0)))
            .at(1, ScheduledAction::Disconnect(ProcessId(1)))
            .at(3, ScheduledAction::Disconnect(ProcessId(2)));
        assert!(s.next_due(Round(0)).is_none());
        assert!(matches!(
            s.next_due(Round(1)),
            Some(ScheduledAction::Disconnect(ProcessId(0)))
        ));
        assert!(matches!(
            s.next_due(Round(1)),
            Some(ScheduledAction::Disconnect(ProcessId(1)))
        ));
        assert!(s.next_due(Round(1)).is_none());
        assert_eq!(s.pending(), 1);
        // A skipped round still fires later entries when reached.
        assert!(matches!(
            s.next_due(Round(7)),
            Some(ScheduledAction::Disconnect(ProcessId(2)))
        ));
        assert!(s.next_due(Round(7)).is_none());
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn bisect_cuts_and_heals_every_crossing_edge() {
        let topology = Topology::complete(6);
        let s = Schedule::new().bisect(&topology, 2, 7);
        // K6 split 3|3: nine crossing edges, each cut once and healed once.
        assert_eq!(s.len(), 18);
        let cuts: Vec<(u64, usize, usize)> = s
            .entries
            .iter()
            .filter_map(|(r, a)| match a {
                ScheduledAction::CutLink { a, b } => Some((*r, a.index(), b.index())),
                _ => None,
            })
            .collect();
        let heals: Vec<(u64, usize, usize)> = s
            .entries
            .iter()
            .filter_map(|(r, a)| match a {
                ScheduledAction::HealLink { a, b } => Some((*r, a.index(), b.index())),
                _ => None,
            })
            .collect();
        assert_eq!(cuts.len(), 9);
        assert_eq!(heals.len(), 9);
        assert!(cuts.iter().all(|&(r, a, b)| r == 2 && a < 3 && b >= 3));
        assert!(heals.iter().all(|&(r, a, b)| r == 7 && a < 3 && b >= 3));
        // The same edges are healed that were cut.
        let mut cut_edges: Vec<(usize, usize)> = cuts.iter().map(|&(_, a, b)| (a, b)).collect();
        let mut healed_edges: Vec<(usize, usize)> = heals.iter().map(|&(_, a, b)| (a, b)).collect();
        cut_edges.sort_unstable();
        healed_edges.sort_unstable();
        assert_eq!(cut_edges, healed_edges);
    }

    #[test]
    fn bisect_on_a_ring_cuts_the_two_bridges() {
        // ring(6) halves {0,1,2} | {3,4,5}: only edges (2,3) and (0,5)
        // cross, so the bisection is exactly those two cuts (plus heals).
        let topology = Topology::ring(6);
        let s = Schedule::new().bisect(&topology, 1, 4);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn midrun_push_of_a_past_round_fires_once_and_never_refires_history() {
        let mut s = Schedule::new()
            .at(1, ScheduledAction::Disconnect(ProcessId(0)))
            .at(8, ScheduledAction::Disconnect(ProcessId(8)));
        // Drain through round 5: only the round-1 entry has fired.
        assert!(matches!(
            s.next_due(Round(5)),
            Some(ScheduledAction::Disconnect(ProcessId(0)))
        ));
        assert!(s.next_due(Round(5)).is_none());

        // A push for the long-gone round 2 lands after the cursor, not in
        // the consumed prefix (which would re-fire the round-1 entry).
        s.push(2, ScheduledAction::Disconnect(ProcessId(2)));
        assert_eq!(s.pending(), 2);
        assert!(
            matches!(
                s.next_due(Round(6)),
                Some(ScheduledAction::Disconnect(ProcessId(2)))
            ),
            "late entry fires at the next pulse"
        );
        assert!(
            s.next_due(Round(6)).is_none(),
            "exactly once, and nothing fired re-fires"
        );
        assert!(matches!(
            s.next_due(Round(8)),
            Some(ScheduledAction::Disconnect(ProcessId(8)))
        ));
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn midrun_push_of_a_future_round_stays_sorted() {
        let mut s = Schedule::new()
            .at(1, ScheduledAction::Disconnect(ProcessId(0)))
            .at(9, ScheduledAction::Disconnect(ProcessId(9)));
        assert!(s.next_due(Round(1)).is_some());
        s.push(4, ScheduledAction::Disconnect(ProcessId(4)));
        assert_eq!(rounds_of(&mut s), vec![1, 4, 9]);
        assert!(s.next_due(Round(3)).is_none());
        assert!(matches!(
            s.next_due(Round(4)),
            Some(ScheduledAction::Disconnect(ProcessId(4)))
        ));
    }

    #[test]
    fn empty_schedule_reports_empty() {
        let mut s = Schedule::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(s.next_due(Round(0)).is_none());
    }

    #[test]
    fn interleaved_out_of_order_pushes_sort_before_reads() {
        // The O(E²) pattern the lazy sort exists for: alternating pushes
        // to two distant rounds. Appends are O(1); the deferred stable
        // sort restores round order (insertion-stable within a round).
        let mut s = Schedule::new();
        for i in 0..4usize {
            s.push(10, ScheduledAction::Disconnect(ProcessId(i)));
            s.push(3, ScheduledAction::Disconnect(ProcessId(100 + i)));
        }
        assert_eq!(rounds_of(&mut s), vec![3, 3, 3, 3, 10, 10, 10, 10]);
        let ids: Vec<usize> = s
            .entries
            .iter()
            .filter_map(|(_, a)| match a {
                ScheduledAction::Disconnect(id) => Some(id.index()),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![100, 101, 102, 103, 0, 1, 2, 3]);
    }

    fn corrupt(recurrence: Recurrence) -> ScheduledAction {
        ScheduledAction::Corrupt(CorruptionFamily::random_k(1, 7), recurrence)
    }

    fn fires(s: &mut Schedule, horizon: u64) -> Vec<u64> {
        let mut fired = Vec::new();
        for round in 0..=horizon {
            while s.next_due(Round(round)).is_some() {
                fired.push(round);
            }
        }
        fired
    }

    #[test]
    fn recurring_corrupt_refires_every_period_until_bound() {
        let mut s = Schedule::new().at(
            4,
            corrupt(Recurrence::Every {
                period: 5,
                until: 15,
            }),
        );
        // 4, 9, 14 fire; the follow-up at 19 exceeds `until` and is never
        // armed. The schedule holds at most one pending burst at a time.
        assert_eq!(fires(&mut s, 40), vec![4, 9, 14]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn recurrence_until_is_inclusive_and_zero_period_fires_once() {
        let mut s = Schedule::new().at(
            2,
            corrupt(Recurrence::Every {
                period: 4,
                until: 6,
            }),
        );
        assert_eq!(fires(&mut s, 20), vec![2, 6], "until bound is inclusive");

        let mut once = Schedule::new().at(
            3,
            corrupt(Recurrence::Every {
                period: 0,
                until: u64::MAX,
            }),
        );
        assert_eq!(
            fires(&mut once, 20),
            vec![3],
            "zero period degenerates to Once instead of spinning"
        );
    }

    #[test]
    fn recurring_corrupt_at_round_zero_fires_from_the_first_pulse() {
        let mut s = Schedule::new().at(
            0,
            corrupt(Recurrence::Every {
                period: 3,
                until: 7,
            }),
        );
        assert_eq!(fires(&mut s, 12), vec![0, 3, 6]);
    }

    #[test]
    fn late_recurring_entry_anchors_at_actual_fire_round() {
        // Attached mid-run: the round-2 start was missed, so the burst
        // fires at the next pulse (round 10) and the train continues from
        // there — no catch-up burst per missed period.
        let mut s = Schedule::new();
        s.push(
            2,
            corrupt(Recurrence::Every {
                period: 4,
                until: 17,
            }),
        );
        let mut fired = Vec::new();
        for round in 10..=30 {
            while s.next_due(Round(round)).is_some() {
                fired.push(round);
            }
        }
        assert_eq!(fired, vec![10, 14], "anchored at 10; 18 exceeds until");
    }

    #[test]
    fn firing_rounds_mirror_the_lazy_rearm() {
        let r = Recurrence::Every {
            period: 5,
            until: 15,
        };
        assert_eq!(r.firing_rounds(4), vec![4, 9, 14]);
        assert_eq!(Recurrence::Once.firing_rounds(7), vec![7]);
        assert_eq!(
            Recurrence::Every {
                period: 0,
                until: 99
            }
            .firing_rounds(3),
            vec![3],
            "zero period degenerates to Once"
        );
        // Cross-check against what the schedule actually fires.
        let mut s = Schedule::new().at(4, corrupt(r));
        assert_eq!(fires(&mut s, 40), r.firing_rounds(4));
    }

    #[test]
    fn once_corrupt_never_rearms() {
        let mut s = Schedule::new().at(5, corrupt(Recurrence::Once));
        assert_eq!(fires(&mut s, 30), vec![5]);
        assert_eq!(s.len(), 1, "no hidden entries were ever created");
    }
}
