//! Transient-fault injection.
//!
//! Self-stabilization is proved "assuming an arbitrary starting state of the
//! automaton" (§1.1/§4.1). One descriptor, [`CorruptionFamily`], produces
//! such arbitrary configurations inside a running
//! [`Simulation`](crate::sim::Simulation): it scrambles a strategy-chosen
//! set of process states (via `Process::scramble`) and drops, corrupts or
//! fabricates in-flight messages. Targets are *selected* by strategy (fixed
//! ids, random-k, worst-case-by-degree, all — mirroring the scenario
//! engine's adversary placement), and every RNG draw derives from
//! `(seed, id, round)` coordinates, so a fault fired mid-run, once through
//! [`Simulation::corrupt`](crate::sim::Simulation::corrupt) or recurring
//! through [`ScheduledAction::Corrupt`](crate::schedule::ScheduledAction),
//! reproduces byte-for-byte at any workers × shards × pool size.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;

use crate::ids::{ProcessId, Round};
use crate::inbox::Inboxes;
use crate::message::Message;
#[cfg(test)]
use crate::process::Process;
use crate::rng::{labeled_rng_u64, labeled_rng_u64_pair};
use crate::store::ProcessAccess;
use crate::telemetry::{DropReason, Event, EventSink};
use crate::topology::Topology;

/// Numeric RNG domain for [`CorruptionFamily`] target selection (one draw
/// per firing, keyed by round).
const CORRUPT_SELECT_DOMAIN: u64 = 0xC022_5E1E_C022_5E1E;

/// Numeric RNG domain for per-victim state scrambling, keyed by
/// `(round, process id)` — a victim's scramble stream is independent of
/// which other processes are also targeted.
const CORRUPT_STATE_DOMAIN: u64 = 0xC022_57A7_C022_57A7;

/// Numeric RNG domain for per-inbox channel degradation and garbage, keyed
/// by `(round, inbox owner)` — an inbox's drop/corrupt pattern and its
/// garbage are independent of every other inbox.
const CORRUPT_CHANNEL_DOMAIN: u64 = 0xC022_C4A9_C022_C4A9;

/// The inboxes holding messages, ascending: the owners a fault without
/// garbage visits.
fn nonempty_ascending(inboxes: &Inboxes) -> Vec<usize> {
    let mut owners = inboxes.touched_sorted();
    owners.retain(|&owner| !inboxes.slot(owner).is_empty());
    owners
}

/// Drops then bit-flips the messages of one inbox, emitting fault-reason
/// [`Dropped`](Event::Dropped) events in visit order.
#[allow(clippy::too_many_arguments)]
fn degrade_inbox(
    inbox: &mut Vec<Message>,
    rng: &mut StdRng,
    owner: usize,
    round: Round,
    drop_p: f64,
    corrupt_p: f64,
    dropped: &mut u64,
    events: &mut Option<&mut EventSink>,
) {
    inbox.retain(|m| {
        if rng.gen_bool(drop_p) {
            *dropped += 1;
            if let Some(sink) = events.as_deref_mut() {
                sink.push(Event::Dropped {
                    round: round.value(),
                    from: m.from,
                    to: ProcessId(owner),
                    reason: DropReason::Fault,
                });
            }
            false
        } else {
            true
        }
    });
    for m in inbox.iter_mut() {
        if rng.gen_bool(corrupt_p) {
            let mut bytes = m.payload.to_vec();
            if bytes.is_empty() {
                bytes = vec![0u8; 4];
            }
            let idx = rng.gen_range(0..bytes.len());
            bytes[idx] ^= 1u8 << rng.gen_range(0..8u32);
            m.payload = bytes.into();
        }
    }
}

/// How a [`CorruptionFamily`] picks the processes whose state it
/// scrambles — the scheduled-corruption mirror of the scenario engine's
/// adversary placement strategies.
#[derive(Debug, Clone)]
pub enum CorruptionTargets {
    /// Exactly these processes (out-of-range ids are skipped).
    Fixed(Vec<ProcessId>),
    /// `k` processes chosen uniformly, re-drawn per `(seed, salt, round)`.
    RandomK(usize),
    /// The `k` best-connected processes (ties broken toward the lower id):
    /// the worst case, where corruption lands where it spreads fastest.
    WorstCaseByDegree(usize),
    /// Every process — the classic total transient fault.
    All,
}

/// A seed-derived transient fault, designed to live in a [`Schedule`]
/// (via [`ScheduledAction::Corrupt`](crate::schedule::ScheduledAction)) so
/// corruption is spec data like churn.
///
/// Every draw is a pure function of `(seed ^ salt, round, id)`
/// coordinates: target selection is keyed by round, each victim's scramble
/// stream by its process id, and each inbox's channel degradation and
/// garbage by its owner id. Nothing depends on visit order, so a
/// corruption firing inside a sharded run leaves traces byte-identical at
/// any workers × shards × pool size.
///
/// [`Schedule`]: crate::schedule::Schedule
#[derive(Debug, Clone)]
pub struct CorruptionFamily {
    /// Which process states to scramble.
    pub targets: CorruptionTargets,
    /// Corrupt each in-flight message with this probability.
    pub corrupt_messages_p: f64,
    /// Drop each in-flight message with this probability.
    pub drop_messages_p: f64,
    /// Push this many random garbage messages into every inbox, after the
    /// drop/corrupt pass.
    pub garbage_messages: usize,
    /// Extra entropy so repeated corruption events differ.
    pub salt: u64,
}

impl CorruptionFamily {
    /// State-only corruption of the given processes.
    pub fn state_only(ids: impl IntoIterator<Item = usize>, salt: u64) -> CorruptionFamily {
        CorruptionFamily {
            targets: CorruptionTargets::Fixed(ids.into_iter().map(ProcessId).collect()),
            corrupt_messages_p: 0.0,
            drop_messages_p: 0.0,
            garbage_messages: 0,
            salt,
        }
    }

    /// State-only corruption of `k` uniformly chosen processes.
    pub fn random_k(k: usize, salt: u64) -> CorruptionFamily {
        CorruptionFamily {
            targets: CorruptionTargets::RandomK(k),
            ..CorruptionFamily::state_only([], salt)
        }
    }

    /// The single-knob family used by intensity sweeps: scramble `k`
    /// uniformly chosen processes and degrade every channel with
    /// per-message corrupt *and* drop probability `intensity`.
    pub fn intensity(k: usize, intensity: f64, salt: u64) -> CorruptionFamily {
        CorruptionFamily {
            corrupt_messages_p: intensity,
            drop_messages_p: intensity,
            ..CorruptionFamily::random_k(k, salt)
        }
    }

    /// The classic total fault: scramble *every* process state and wipe all
    /// channel contents into garbage — the adversarial "arbitrary
    /// configuration" of the self-stabilization literature.
    pub fn total(salt: u64) -> CorruptionFamily {
        CorruptionFamily {
            targets: CorruptionTargets::All,
            corrupt_messages_p: 1.0,
            drop_messages_p: 0.25,
            garbage_messages: 2,
            salt,
        }
    }

    /// Resolves the concrete target set this family scrambles when firing
    /// at `round` under `seed`, against the live `topology` (degrees and
    /// process count are read at fire time, after any earlier churn).
    /// Returns ids ascending, deduplicated.
    pub fn resolve_targets(&self, topology: &Topology, seed: u64, round: Round) -> Vec<ProcessId> {
        let n = topology.len();
        let mut ids: Vec<ProcessId> = match &self.targets {
            CorruptionTargets::Fixed(ids) => {
                ids.iter().copied().filter(|id| id.index() < n).collect()
            }
            CorruptionTargets::All => (0..n).map(ProcessId).collect(),
            CorruptionTargets::RandomK(k) => {
                let mut all: Vec<ProcessId> = (0..n).map(ProcessId).collect();
                let mut rng =
                    labeled_rng_u64(seed ^ self.salt, CORRUPT_SELECT_DOMAIN, round.value());
                all.shuffle(&mut rng);
                all.truncate((*k).min(n));
                all
            }
            CorruptionTargets::WorstCaseByDegree(k) => topology.top_k_by_degree(*k),
        };
        ids.sort_unstable_by_key(|id| id.index());
        ids.dedup_by_key(|id| id.index());
        ids
    }

    /// Applies the corruption; returns the number of in-flight messages
    /// dropped (the caller accounts them in the trace). When `events` is
    /// attached, a [`Scrambled`](Event::Scrambled) event is emitted per
    /// victim (ascending id) and a fault-reason [`Dropped`](Event::Dropped)
    /// event per destroyed message (ascending inbox owner) — coordinate
    /// order, so the stream is identical at any workers × shards × pool
    /// size.
    pub(crate) fn apply(
        &self,
        seed: u64,
        round: Round,
        topology: &Topology,
        processes: &mut impl ProcessAccess,
        inboxes: &mut Inboxes,
        mut events: Option<&mut EventSink>,
    ) -> u64 {
        for id in self.resolve_targets(topology, seed, round) {
            let mut rng = labeled_rng_u64_pair(
                seed ^ self.salt,
                CORRUPT_STATE_DOMAIN,
                round.value(),
                id.index() as u64,
            );
            if let Some(p) = processes.get_mut(id.index()) {
                p.scramble(&mut rng);
                if let Some(sink) = events.as_deref_mut() {
                    sink.push(Event::Scrambled {
                        round: round.value(),
                        id,
                    });
                }
            }
        }

        let corrupt_p = self.corrupt_messages_p.clamp(0.0, 1.0);
        let drop_p = self.drop_messages_p.clamp(0.0, 1.0);
        let n = inboxes.len();
        // Garbage lands in every inbox. Without it, per-owner keyed streams
        // make skipping the untouched (empty) inboxes draw-for-draw
        // identical to visiting all n: an empty inbox consumes no draws and
        // emits no events, and a channel-only fault doesn't wake every idle
        // process of a sparse run.
        let owners: Vec<usize> = if self.garbage_messages > 0 {
            (0..n).collect()
        } else if corrupt_p > 0.0 || drop_p > 0.0 {
            nonempty_ascending(inboxes)
        } else {
            Vec::new()
        };
        let mut dropped = 0u64;
        inboxes.edit(owners, |owner, inbox| {
            let mut rng = labeled_rng_u64_pair(
                seed ^ self.salt,
                CORRUPT_CHANNEL_DOMAIN,
                round.value(),
                owner as u64,
            );
            degrade_inbox(
                inbox,
                &mut rng,
                owner,
                round,
                drop_p,
                corrupt_p,
                &mut dropped,
                &mut events,
            );
            for _ in 0..self.garbage_messages {
                let mut payload = vec![0u8; rng.gen_range(0..24)];
                rng.fill_bytes(&mut payload);
                let from = ProcessId(rng.gen_range(0..n));
                inbox.push(Message::new(from, round, payload));
            }
        });
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Context;
    use rand::rngs::StdRng;

    struct Scrambleable {
        value: u64,
        scrambled: bool,
    }

    impl Process for Scrambleable {
        fn on_pulse(&mut self, _ctx: &mut Context<'_>) {}
        fn scramble(&mut self, rng: &mut StdRng) {
            self.value = rng.next_u64();
            self.scrambled = true;
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// `n` processes that only record being scrambled.
    fn unscrambled(n: usize) -> Vec<Box<dyn Process>> {
        (0..n)
            .map(|_| {
                Box::new(Scrambleable {
                    value: 7,
                    scrambled: false,
                }) as Box<dyn Process>
            })
            .collect()
    }

    fn fixture() -> (Vec<Box<dyn Process>>, Inboxes) {
        let processes = unscrambled(3);
        let inboxes = Inboxes::from_slots(vec![
            vec![Message::new(ProcessId(1), Round(0), vec![1, 2, 3])],
            vec![],
            vec![Message::new(ProcessId(0), Round(0), vec![4])],
        ]);
        (processes, inboxes)
    }

    fn scrambled(ps: &[Box<dyn Process>]) -> Vec<bool> {
        ps.iter()
            .map(|p| p.as_any().downcast_ref::<Scrambleable>().unwrap().scrambled)
            .collect()
    }

    fn value_of(ps: &[Box<dyn Process>], i: usize) -> u64 {
        ps[i].as_any().downcast_ref::<Scrambleable>().unwrap().value
    }

    fn family(targets: CorruptionTargets) -> CorruptionFamily {
        CorruptionFamily {
            targets,
            ..CorruptionFamily::state_only([], 5)
        }
    }

    #[test]
    fn state_only_scrambles_targets() {
        let (mut ps, mut inboxes) = fixture();
        let topo = Topology::complete(3);
        CorruptionFamily::state_only([0, 2], 1).apply(
            9,
            Round(0),
            &topo,
            &mut ps,
            &mut inboxes,
            None,
        );
        assert_eq!(scrambled(&ps), vec![true, false, true]);
        // Channels untouched.
        assert_eq!(inboxes.slot(0).len(), 1);
        assert_eq!(inboxes.slot(0)[0].bytes(), &[1, 2, 3]);
    }

    #[test]
    fn total_fault_touches_everything() {
        let (mut ps, mut inboxes) = fixture();
        let topo = Topology::complete(3);
        CorruptionFamily::total(2).apply(9, Round(0), &topo, &mut ps, &mut inboxes, None);
        assert_eq!(scrambled(&ps), vec![true, true, true]);
        // Garbage injected into every inbox.
        assert!((0..3).all(|i| !inboxes.slot(i).is_empty()));
    }

    #[test]
    fn corruption_changes_payload() {
        let (mut ps, mut inboxes) = fixture();
        let topo = Topology::complete(3);
        let f = CorruptionFamily {
            corrupt_messages_p: 1.0,
            ..family(CorruptionTargets::Fixed(Vec::new()))
        };
        f.apply(9, Round(0), &topo, &mut ps, &mut inboxes, None);
        assert_ne!(inboxes.slot(0)[0].bytes(), &[1, 2, 3]);
        assert_ne!(inboxes.slot(2)[0].bytes(), &[4]);
        assert_eq!(scrambled(&ps), vec![false, false, false]);
    }

    #[test]
    fn different_salts_differ() {
        let (mut ps1, mut in1) = fixture();
        let (mut ps2, mut in2) = fixture();
        let topo = Topology::complete(3);
        CorruptionFamily::total(1).apply(9, Round(0), &topo, &mut ps1, &mut in1, None);
        CorruptionFamily::total(2).apply(9, Round(0), &topo, &mut ps2, &mut in2, None);
        assert_ne!(value_of(&ps1, 0), value_of(&ps2, 0));
    }

    #[test]
    fn fixed_targets_skip_out_of_range() {
        let topo = Topology::complete(3);
        let f = family(CorruptionTargets::Fixed(vec![
            ProcessId(2),
            ProcessId(0),
            ProcessId(9),
            ProcessId(0),
        ]));
        assert_eq!(
            f.resolve_targets(&topo, 1, Round(0)),
            vec![ProcessId(0), ProcessId(2)],
            "in-range, ascending, deduplicated"
        );
    }

    #[test]
    fn random_k_is_a_pure_function_of_seed_and_round() {
        let topo = Topology::complete(8);
        let f = family(CorruptionTargets::RandomK(3));
        let a = f.resolve_targets(&topo, 9, Round(4));
        assert_eq!(a.len(), 3);
        assert_eq!(a, f.resolve_targets(&topo, 9, Round(4)));
        assert_ne!(
            a,
            f.resolve_targets(&topo, 9, Round(5)),
            "round re-draws the selection"
        );
    }

    #[test]
    fn worst_case_targets_highest_degree_first() {
        // Star-ish graph: 0 linked to everyone, others only to 0.
        let mut topo = Topology::ring(5);
        for b in 1..5 {
            let _ = topo.heal_link(ProcessId(0), ProcessId(b));
        }
        let f = family(CorruptionTargets::WorstCaseByDegree(1));
        assert_eq!(f.resolve_targets(&topo, 1, Round(0)), vec![ProcessId(0)]);
    }

    #[test]
    fn corruption_family_scrambles_only_targets() {
        let (mut ps, mut inboxes) = fixture();
        let topo = Topology::complete(3);
        family(CorruptionTargets::Fixed(vec![ProcessId(1)])).apply(
            9,
            Round(2),
            &topo,
            &mut ps,
            &mut inboxes,
            None,
        );
        assert_eq!(scrambled(&ps), vec![false, true, false]);
        // Channels untouched at zero intensity.
        assert_eq!(inboxes.slot(0)[0].bytes(), &[1, 2, 3]);
    }

    #[test]
    fn victim_streams_are_independent_of_the_target_set() {
        // Process 2's scramble draw is keyed by its own coordinates, so
        // corrupting {0, 1, 2} or {2} alone yields the same state for 2 —
        // the visit-order independence sharded determinism relies on.
        let topo = Topology::complete(3);
        let (mut ps1, mut in1) = fixture();
        let (mut ps2, mut in2) = fixture();
        family(CorruptionTargets::All).apply(9, Round(3), &topo, &mut ps1, &mut in1, None);
        family(CorruptionTargets::Fixed(vec![ProcessId(2)])).apply(
            9,
            Round(3),
            &topo,
            &mut ps2,
            &mut in2,
            None,
        );
        assert_eq!(value_of(&ps1, 2), value_of(&ps2, 2));
        assert_ne!(
            value_of(&ps1, 0),
            value_of(&ps1, 1),
            "distinct per-victim streams"
        );
    }

    #[test]
    fn intensity_family_degrades_channels() {
        let (mut ps, mut inboxes) = fixture();
        let topo = Topology::complete(3);
        let dropped = CorruptionFamily::intensity(0, 1.0, 0).apply(
            9,
            Round(0),
            &topo,
            &mut ps,
            &mut inboxes,
            None,
        );
        assert_eq!(dropped, 2, "both in-flight messages dropped");
        assert_eq!(inboxes.pending(), 0);
        assert_eq!(scrambled(&ps), vec![false, false, false]);
    }

    /// A seeded mix of empty, short and long inboxes over `n` processes.
    fn random_slots(n: usize, seed: u64) -> Vec<Vec<Message>> {
        let mut rng = labeled_rng_u64(seed, 1, 2);
        (0..n)
            .map(|_| {
                (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        let payload = vec![rng.gen::<u8>(); rng.gen_range(0..20)];
                        Message::new(ProcessId(rng.gen_range(0..n)), Round(3), payload)
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_same_slots(inboxes: &Inboxes, plain: &[Vec<Message>], touched: &[usize]) {
        for (i, slot) in plain.iter().enumerate() {
            assert_eq!(inboxes.slot(i), &slot[..], "inbox of p{i}");
        }
        assert_eq!(inboxes.touched_sorted(), touched);
    }

    /// Applies `f`'s channel half to a seeded store and to one `Vec` per
    /// process written with the same per-owner keyed streams: the store
    /// must end up with the same contents, drop count and events.
    fn assert_rewrites_like_plain_vecs(f: &CorruptionFamily, n: usize, seed: u64, round: Round) {
        let topo = Topology::ring(n);
        let (drop_p, corrupt_p, garbage) =
            (f.drop_messages_p, f.corrupt_messages_p, f.garbage_messages);
        let mut plain = random_slots(n, seed);
        let mut inboxes = Inboxes::from_slots(plain.clone());
        let mut sink = EventSink::with_capacity(1 << 12);
        let dropped = f.apply(
            seed,
            round,
            &topo,
            &mut unscrambled(n),
            &mut inboxes,
            Some(&mut sink),
        );

        let mut expected_sink = EventSink::with_capacity(1 << 12);
        let mut events = Some(&mut expected_sink);
        let mut expected_dropped = 0;
        // Garbage lands in every inbox; drop/corrupt alone visit only the
        // ones holding messages.
        let touched: Vec<usize> = (0..n)
            .filter(|&i| garbage > 0 || !plain[i].is_empty())
            .collect();
        for (owner, inbox) in plain.iter_mut().enumerate() {
            let mut rng = labeled_rng_u64_pair(
                seed ^ f.salt,
                CORRUPT_CHANNEL_DOMAIN,
                round.value(),
                owner as u64,
            );
            degrade_inbox(
                inbox,
                &mut rng,
                owner,
                round,
                drop_p,
                corrupt_p,
                &mut expected_dropped,
                &mut events,
            );
            for _ in 0..garbage {
                let mut payload = vec![0u8; rng.gen_range(0..24)];
                rng.fill_bytes(&mut payload);
                let from = ProcessId(rng.gen_range(0..n));
                inbox.push(Message::new(from, round, payload));
            }
        }
        assert_same_slots(&inboxes, &plain, &touched);
        assert_eq!(dropped, expected_dropped);
        assert!(dropped > 0 || drop_p == 0.0, "the fault did something");
        assert_eq!(sink.drain(), expected_sink.drain());
    }

    #[test]
    fn transient_fault_rewrites_the_store_like_plain_vecs() {
        // The inputs of the retired sequential injector, now carried by the
        // family's channel half: the total fault (nobody to scramble),
        // garbage alone, a corrupt/drop mix and drop-everything.
        let channels_only = CorruptionFamily::state_only([], 0);
        let faults = [
            CorruptionFamily {
                targets: CorruptionTargets::Fixed(Vec::new()),
                ..CorruptionFamily::total(4)
            },
            CorruptionFamily {
                garbage_messages: 1,
                ..channels_only.clone()
            },
            CorruptionFamily {
                corrupt_messages_p: 0.5,
                drop_messages_p: 0.4,
                salt: 6,
                ..channels_only.clone()
            },
            CorruptionFamily {
                drop_messages_p: 1.0,
                ..channels_only
            },
        ];
        for f in &faults {
            assert_rewrites_like_plain_vecs(f, 9, 11, Round(3));
        }
    }

    #[test]
    fn corruption_family_rewrites_the_store_like_plain_vecs() {
        for (corrupt_p, drop_p) in [(0.5, 0.4), (1.0, 0.0), (0.0, 1.0)] {
            let f = CorruptionFamily {
                corrupt_messages_p: corrupt_p,
                drop_messages_p: drop_p,
                ..CorruptionFamily::state_only([], 3)
            };
            assert_rewrites_like_plain_vecs(&f, 9, 12, Round(5));
        }
    }
}
