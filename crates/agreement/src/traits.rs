//! The restartable [`BaInstance`] state machine and its simulator adapter.
//!
//! Theorem 1 composes clock synchronization with a BA protocol by
//! *re-invoking* the protocol whenever the synchronized clock wraps to 1.
//! To support that, protocols are not one-shot: they implement `begin` to
//! hard-reset all internal state (this is exactly what makes the composed
//! system self-stabilizing — stale BA state from before a transient fault is
//! discarded at the next wrap).

use bytes::Bytes;
use ga_simnet::prelude::*;

use crate::Value;

/// A send callback: `(destination process, payload)`.
///
/// Payloads are refcounted [`Bytes`]: a broadcast hands every destination a
/// clone of one shared buffer, so fan-out costs no per-recipient copies all
/// the way down to the simulator's inboxes.
pub type Send<'a> = dyn FnMut(usize, Bytes) + 'a;

/// A synchronous-round Byzantine agreement state machine.
///
/// The driver calls [`step`](BaInstance::step) with consecutive relative
/// rounds `0, 1, …, rounds()-1`; at each step the instance sees the
/// messages delivered this round (sent at the previous one) and may send.
/// After the final step, [`decided`](BaInstance::decided) is `Some`.
///
/// `Send` is a supertrait so a boxed instance can live inside a simulator
/// [`Process`], which the scheduler's sharded compute phase may step on a
/// worker thread.
pub trait BaInstance: std::marker::Send {
    /// Hard-resets state and installs this processor's input value.
    fn begin(&mut self, input: Value);

    /// Executes relative round `rel_round`.
    ///
    /// `inbox` holds `(sender, payload)` pairs. Implementations must treat
    /// undecodable payloads as absent — senders may be Byzantine.
    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], send: &mut Send<'_>);

    /// Total number of rounds this instance needs.
    fn rounds(&self) -> u64;

    /// The decision, available once all rounds have run.
    fn decided(&self) -> Option<Value>;

    /// Diagnostic label.
    fn name(&self) -> &'static str {
        "ba"
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
        // Collect sends first: ctx and the inbox borrow ctx disjointly only
        // if we buffer.
        let mut outgoing: Vec<(usize, Bytes)> = Vec::new();
        {
            let mut send = |to: usize, payload: Bytes| outgoing.push((to, payload));
            self.instance.step(rel, &inbox, &mut send);
        }
        drop(inbox);
        for (to, payload) in outgoing {
            ctx.send(ProcessId(to), payload);
        }
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

/// Broadcast helper for instances: send `payload` to every process except
/// `me` (the instance also processes its own contribution locally).
///
/// The payload is converted to [`Bytes`] once; all `n - 1` destinations
/// share the single refcounted buffer.
pub fn broadcast_others(n: usize, me: usize, payload: impl Into<Bytes>, send: &mut Send<'_>) {
    let payload = payload.into();
    for to in 0..n {
        if to != me {
            send(to, payload.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake 2-round instance that decides the sum of inputs it saw.
    struct Echo {
        me: usize,
        n: usize,
        value: Value,
        seen: u64,
        decided: Option<Value>,
    }

    impl BaInstance for Echo {
        fn begin(&mut self, input: Value) {
            self.value = input;
            self.seen = 0;
            self.decided = None;
        }
        fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], send: &mut Send<'_>) {
            match rel_round {
                0 => broadcast_others(self.n, self.me, self.value.to_be_bytes(), send),
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
            Box::new(BaProcess::new(
                Box::new(Echo {
                    me: id.index(),
                    n,
                    value: 0,
                    seen: 0,
                    decided: None,
                }),
                id.index() as u64 + 1,
            )) as Box<dyn Process>
        });
        sim.run(2);
        for i in 0..n {
            let p = sim.process_as::<BaProcess>(ProcessId(i)).unwrap();
            assert_eq!(p.decided(), Some(10), "1+2+3+4 everywhere");
        }
    }

    #[test]
    fn scramble_discards_the_decision_and_changes_input() {
        let mut p = BaProcess::new(
            Box::new(Echo {
                me: 0,
                n: 4,
                value: 0,
                seen: 0,
                decided: None,
            }),
            7,
        );
        p.instance.begin(7);
        p.started = true;
        p.instance.step(0, &[], &mut |_, _| {});
        p.instance.step(1, &[], &mut |_, _| {});
        assert!(p.decided().is_some());

        let mut rng = ga_simnet::rng::process_rng(1, ProcessId(0), Round(3));
        Process::scramble(&mut p, &mut rng);
        assert_eq!(p.decided(), None, "stale decision discarded");
        assert_ne!(p.input, 7, "input perturbed");
    }

    #[test]
    fn broadcast_others_skips_self() {
        let mut got = Vec::new();
        let mut send = |to: usize, _p: Bytes| got.push(to);
        broadcast_others(4, 2, b"x", &mut send);
        assert_eq!(got, vec![0, 1, 3]);
    }

    #[test]
    fn broadcast_others_shares_one_buffer() {
        let mut ptrs = Vec::new();
        let mut send = |_to: usize, p: Bytes| ptrs.push(p.as_ptr());
        broadcast_others(4, 0, vec![1u8; bytes::INLINE_CAP + 1], &mut send);
        assert_eq!(ptrs.len(), 3);
        assert!(ptrs.iter().all(|&p| p == ptrs[0]), "one allocation, shared");
    }
}
