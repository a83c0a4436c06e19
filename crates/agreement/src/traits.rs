//! The restartable [`BaInstance`] state machine and its simulator adapter.
//!
//! Theorem 1 composes clock synchronization with a BA protocol by
//! *re-invoking* the protocol whenever the synchronized clock wraps to 1.
//! To support that, protocols are not one-shot: they implement `begin` to
//! hard-reset all internal state (this is exactly what makes the composed
//! system self-stabilizing — stale BA state from before a transient fault is
//! discarded at the next wrap).
//!
//! # The broadcast contract
//!
//! Every honest message of every protocol here goes to all other
//! processors alike: the source's announcement, each EIG relay (Aspnes'
//! notes, PAPERS.md 2001.04235) and each Dolev–Strong chain. So a round's
//! output is one payload, not a list of sends:
//! [`BaInstance::step`] appends to a caller's buffer the bytes this
//! processor sends every other processor this round, and appends nothing
//! to stay silent. Layers above append theirs around it into the same
//! buffer — the consensus its part header, the activation its body tag
//! behind the pulse's clock claim — so a processor builds each round's
//! frame once, and whoever owns the network hands that one frame to every
//! other id in ascending order ([`BaProcess`], the executor, a pulse's
//! broadcast).
//!
//! Byzantine senders are not `BaInstance`s. What they send differs per
//! destination, or is not a protocol message at all, and it is produced
//! where the network is: the executor's per-destination
//! [`Tamper`](crate::executor::Tamper), the `ga-simnet` adversaries, the
//! authority's deviant `Behavior`s. The honest state machine has no reason to
//! know which destination a byte goes to.

use bytes::Bytes;
use ga_simnet::prelude::*;

use crate::Value;

/// A synchronous-round Byzantine agreement state machine.
///
/// The driver calls [`step`](BaInstance::step) with consecutive relative
/// rounds `0, 1, …, rounds()-1`; at each step the instance sees the
/// messages delivered this round (sent at the previous one) and may
/// broadcast. After the final step, [`decided`](BaInstance::decided) is
/// `Some`.
///
/// `Send` is a supertrait so a boxed instance can live inside a simulator
/// [`Process`], which the scheduler's sharded compute phase may step on a
/// worker thread.
pub trait BaInstance: Send {
    /// Hard-resets state and installs this processor's input value.
    fn begin(&mut self, input: Value);

    /// Executes relative round `rel_round`.
    ///
    /// `inbox` holds `(sender, payload)` pairs. Implementations must treat
    /// undecodable payloads as absent — senders may be Byzantine.
    ///
    /// Appends to `out` the one payload this processor sends every other
    /// processor this round (see the module docs' broadcast contract), and
    /// nothing to stay silent. `out` may already hold a caller's header:
    /// only append to it.
    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>);

    /// Total number of rounds this instance needs.
    fn rounds(&self) -> u64;

    /// The decision, available once all rounds have run.
    fn decided(&self) -> Option<Value>;

    /// Diagnostic label.
    fn name(&self) -> &'static str {
        "ba"
    }
}

/// Sends `frame` to every processor id below `n` but the sender's, in
/// ascending order; an empty frame is silence and sends nothing. The frame
/// becomes one [`Bytes`] that every destination shares.
fn send_to_others(ctx: &mut Context<'_>, n: usize, frame: Vec<u8>) {
    if frame.is_empty() {
        return;
    }
    let me = ctx.id().index();
    let frame = Bytes::from(frame);
    for to in (0..n).filter(|&to| to != me) {
        ctx.send(ProcessId(to), frame.clone());
    }
}

/// Runs one [`BaInstance`] as a `ga-simnet` process, starting at simulation
/// round 0.
pub struct BaProcess {
    instance: Box<dyn BaInstance>,
    started: bool,
    input: Value,
}

impl std::fmt::Debug for BaProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaProcess")
            .field("protocol", &self.instance.name())
            .field("decided", &self.instance.decided())
            .finish()
    }
}

impl BaProcess {
    /// Wraps `instance` with the given input value.
    pub fn new(instance: Box<dyn BaInstance>, input: Value) -> BaProcess {
        BaProcess {
            instance,
            started: false,
            input,
        }
    }

    /// The wrapped instance's decision.
    pub fn decided(&self) -> Option<Value> {
        self.instance.decided()
    }
}

impl Process for BaProcess {
    /// A transient fault leaves the executor mid-protocol with an
    /// arbitrary input: the wrapped instance is restarted (via its
    /// hard-reset `begin`) on a random value, so any prior decision is
    /// discarded — observable as `decided()` reverting to `None`.
    fn scramble(&mut self, rng: &mut rand::rngs::StdRng) {
        use rand::Rng;
        self.input = rng.gen();
        self.instance.begin(self.input);
        self.started = true;
    }

    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        if !self.started {
            self.instance.begin(self.input);
            self.started = true;
        }
        let rel = ctx.round().value();
        if rel >= self.instance.rounds() {
            return;
        }
        let inbox: Vec<(usize, &[u8])> = ctx
            .inbox()
            .iter()
            .map(|m| (m.from.index(), m.bytes()))
            .collect();
        let mut frame = Vec::new();
        self.instance.step(rel, &inbox, &mut frame);
        drop(inbox);
        send_to_others(ctx, ctx.n(), frame);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "ba-process"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake 2-round instance that decides the sum of inputs it saw.
    struct Echo {
        value: Value,
        seen: u64,
        decided: Option<Value>,
    }

    impl Echo {
        fn new() -> Echo {
            Echo {
                value: 0,
                seen: 0,
                decided: None,
            }
        }
    }

    impl BaInstance for Echo {
        fn begin(&mut self, input: Value) {
            self.value = input;
            self.seen = 0;
            self.decided = None;
        }
        fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
            match rel_round {
                0 => out.extend_from_slice(&self.value.to_be_bytes()),
                1 => {
                    self.seen = self.value
                        + inbox
                            .iter()
                            .filter_map(|(_, p)| (*p).try_into().ok().map(u64::from_be_bytes))
                            .sum::<u64>();
                    self.decided = Some(self.seen);
                }
                _ => {}
            }
        }
        fn rounds(&self) -> u64 {
            2
        }
        fn decided(&self) -> Option<Value> {
            self.decided
        }
    }

    #[test]
    fn ba_process_drives_instance_over_simnet() {
        let n = 4;
        let mut sim = Simulation::builder(Topology::complete(n)).build_with(|id| {
            Box::new(BaProcess::new(Box::new(Echo::new()), id.index() as u64 + 1))
                as Box<dyn Process>
        });
        sim.run(2);
        for i in 0..n {
            let p = sim.process_as::<BaProcess>(ProcessId(i)).unwrap();
            assert_eq!(p.decided(), Some(10), "1+2+3+4 everywhere");
        }
    }

    #[test]
    fn scramble_discards_the_decision_and_changes_input() {
        let mut p = BaProcess::new(Box::new(Echo::new()), 7);
        p.instance.begin(7);
        p.started = true;
        p.instance.step(0, &[], &mut Vec::new());
        p.instance.step(1, &[], &mut Vec::new());
        assert!(p.decided().is_some());

        let mut rng = ga_simnet::rng::process_rng(1, ProcessId(0), Round(3));
        Process::scramble(&mut p, &mut rng);
        assert_eq!(p.decided(), None, "stale decision discarded");
        assert_ne!(p.input, 7, "input perturbed");
    }

    /// The sender, buffer address and length of one delivered message.
    type Heard = (usize, usize, usize);

    /// Records the address, length and sender of every message it is
    /// delivered; process 2 broadcasts one long payload at pulse 0.
    #[derive(Default)]
    struct Listener {
        heard: Vec<Heard>,
    }

    impl Process for Listener {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            let heard = ctx.inbox().iter().map(|m| {
                let bytes = m.bytes();
                (m.from.index(), bytes.as_ptr() as usize, bytes.len())
            });
            self.heard.extend(heard);
            if ctx.id() == ProcessId(2) && ctx.round() == Round(0) {
                send_to_others(ctx, 4, vec![1; bytes::INLINE_CAP + 1]);
                send_to_others(ctx, 4, Vec::new());
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Runs four [`Listener`]s for two pulses; returns what each heard and
    /// how many messages the network delivered.
    fn broadcast_from_2() -> (Vec<Vec<Heard>>, u64) {
        let mut sim = Simulation::builder(Topology::complete(4))
            .build_with(|_| Box::new(Listener::default()) as Box<dyn Process>);
        sim.run(2);
        let heard = (0..4)
            .map(|i| {
                sim.process_as::<Listener>(ProcessId(i))
                    .unwrap()
                    .heard
                    .clone()
            })
            .collect();
        (heard, sim.trace().messages_delivered)
    }

    #[test]
    fn broadcast_others_skips_self() {
        let (heard, delivered) = broadcast_from_2();
        assert!(heard[2].is_empty(), "nothing to self");
        for i in [0, 1, 3] {
            // One message each — the empty frame sent nothing — from 2.
            assert_eq!(heard[i].len(), 1, "p{i}");
            assert_eq!(heard[i][0].0, 2, "p{i}");
        }
        assert_eq!(delivered, 3);
    }

    #[test]
    fn broadcast_others_shares_one_buffer() {
        let (heard, _) = broadcast_from_2();
        let first = heard[0][0];
        for i in [0, 1, 3] {
            // The very buffer every other destination holds.
            assert_eq!(heard[i], [first], "p{i}");
        }
        assert_eq!((first.0, first.2), (2, bytes::INLINE_CAP + 1));
    }
}
