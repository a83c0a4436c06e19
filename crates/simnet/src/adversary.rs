//! Byzantine adversaries.
//!
//! "A processor is Byzantine if it does not follow its program" (§4.1). We
//! model this by *replacing* a processor's program with an [`Adversary`]
//! strategy wrapped in [`ByzantineProcess`]. The adversary sees everything a
//! normal process sees (its inbox, the round, its neighborhood) and may send
//! arbitrary — including *equivocating*, per-neighbor-different — messages.
//!
//! The included strategies cover the standard attack repertoire used by the
//! test-suite and the experiments:
//!
//! * [`Silent`] — crash/omission: never sends anything.
//! * [`RandomNoise`] — fuzzes the protocol with random byte strings.
//! * [`Equivocator`] — sends different payloads to different neighbors,
//!   the canonical Byzantine-agreement attack.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::Rng;
use rand::RngCore;

use crate::ids::ProcessId;
use crate::process::{Context, Process};

/// A Byzantine strategy: given the pulse context, produce arbitrary
/// messages.
pub trait Adversary: Send {
    /// Emits this round's (possibly equivocating) messages via `ctx`.
    fn act(&mut self, ctx: &mut Context<'_>);

    /// Perturbs any internal state under a transient fault (mirroring
    /// [`Process::scramble`]); default no-op, correct for the stateless
    /// strategies whose behaviour is a pure function of the pulse context.
    fn scramble(&mut self, rng: &mut StdRng) {
        let _ = rng;
    }

    /// Diagnostic label.
    fn name(&self) -> &'static str {
        "byzantine"
    }
}

/// Wraps an [`Adversary`] as a [`Process`] so it can live in a simulation
/// alongside honest processes.
pub struct ByzantineProcess {
    strategy: Box<dyn Adversary>,
}

impl std::fmt::Debug for ByzantineProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzantineProcess")
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl ByzantineProcess {
    /// Creates a Byzantine process driven by `strategy`.
    pub fn new(strategy: Box<dyn Adversary>) -> ByzantineProcess {
        ByzantineProcess { strategy }
    }
}

impl Process for ByzantineProcess {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        self.strategy.act(ctx);
    }

    fn scramble(&mut self, rng: &mut StdRng) {
        self.strategy.scramble(rng);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        self.strategy.name()
    }
}

/// Crash-faulty: sends nothing, ever.
#[derive(Debug, Clone, Copy, Default)]
pub struct Silent;

impl Adversary for Silent {
    fn act(&mut self, _ctx: &mut Context<'_>) {}

    fn name(&self) -> &'static str {
        "silent"
    }
}

/// Sends random byte strings of random lengths to every neighbor.
#[derive(Debug, Clone, Copy)]
pub struct RandomNoise {
    /// Maximum payload length (exclusive).
    pub max_len: usize,
}

impl Default for RandomNoise {
    fn default() -> Self {
        RandomNoise { max_len: 32 }
    }
}

impl Adversary for RandomNoise {
    fn act(&mut self, ctx: &mut Context<'_>) {
        let neighbors: Vec<usize> = ctx.neighbors().to_vec();
        for nb in neighbors {
            let len = ctx.rng().gen_range(0..self.max_len.max(1));
            let mut payload = vec![0u8; len];
            ctx.rng().fill_bytes(&mut payload);
            ctx.send(ProcessId(nb), payload);
        }
    }

    fn name(&self) -> &'static str {
        "random-noise"
    }
}

/// The canonical Byzantine attack: tell different neighbors different
/// things. Each neighbor with even index receives `payload_a`, odd receives
/// `payload_b`.
#[derive(Debug, Clone)]
pub struct Equivocator {
    /// Payload for even-indexed neighbors.
    pub payload_a: Bytes,
    /// Payload for odd-indexed neighbors.
    pub payload_b: Bytes,
}

impl Adversary for Equivocator {
    fn act(&mut self, ctx: &mut Context<'_>) {
        let neighbors: Vec<usize> = ctx.neighbors().to_vec();
        for nb in neighbors {
            let payload = if nb % 2 == 0 {
                self.payload_a.clone()
            } else {
                self.payload_b.clone()
            };
            ctx.send(ProcessId(nb), payload);
        }
    }

    fn name(&self) -> &'static str {
        "equivocator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Round;
    use crate::message::Message;
    use crate::rng::process_rng;
    use crate::sim::{RoundEnv, ShardScratch};
    use crate::topology::Topology;

    /// What process 4 of a complete(5) system sends when `adv` acts for it.
    fn run_one(adv: &mut dyn Adversary, round: u64, inbox: &[Message]) -> Vec<(ProcessId, Bytes)> {
        let topology = Topology::complete(5);
        let env = RoundEnv::reliable(&topology, 1, Round(round));
        let mut out = ShardScratch::default();
        let mut ctx = Context::new(&env, &mut out, ProcessId(4), inbox);
        adv.act(&mut ctx);
        ctx.sent()
            .iter()
            .map(|(to, m)| (*to, m.payload.clone()))
            .collect()
    }

    #[test]
    fn silent_sends_nothing() {
        assert!(run_one(&mut Silent, 0, &[]).is_empty());
    }

    #[test]
    fn random_noise_sends_to_every_neighbor() {
        let out = run_one(&mut RandomNoise::default(), 0, &[]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn equivocator_partitions_neighbors() {
        let mut adv = Equivocator {
            payload_a: vec![0xA].into(),
            payload_b: vec![0xB].into(),
        };
        let out = run_one(&mut adv, 0, &[]);
        for (to, payload) in out {
            let expect = if to.index() % 2 == 0 {
                vec![0xAu8]
            } else {
                vec![0xB]
            };
            assert_eq!(payload, expect);
        }
    }

    /// Silent until a transient fault reaches it, then broadcasts.
    struct Scrambled(bool);

    impl Adversary for Scrambled {
        fn act(&mut self, ctx: &mut Context<'_>) {
            if self.0 {
                ctx.broadcast(vec![1u8]);
            }
        }

        fn scramble(&mut self, _rng: &mut StdRng) {
            self.0 = true;
        }
    }

    #[test]
    fn byzantine_process_scramble_reaches_the_strategy() {
        let mut p = ByzantineProcess::new(Box::new(Scrambled(false)));
        let mut rng = process_rng(7, ProcessId(4), Round(0));
        Process::scramble(&mut p, &mut rng);
        let topology = Topology::complete(3);
        let env = RoundEnv::reliable(&topology, 0, Round(0));
        let mut out = ShardScratch::default();
        let mut ctx = Context::new(&env, &mut out, ProcessId(2), &[]);
        p.on_pulse(&mut ctx);
        assert_eq!(ctx.sent().len(), 2, "the scrambled strategy broadcasts");
    }

    #[test]
    fn byzantine_process_delegates() {
        let mut p = ByzantineProcess::new(Box::new(Silent));
        assert_eq!(p.name(), "silent");
        let topology = Topology::complete(2);
        let env = RoundEnv::reliable(&topology, 0, Round(0));
        let mut out = ShardScratch::default();
        let mut ctx = Context::new(&env, &mut out, ProcessId(1), &[]);
        p.on_pulse(&mut ctx);
        assert!(ctx.sent().is_empty());
    }
}
