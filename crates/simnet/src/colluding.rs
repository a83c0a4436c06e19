//! Colluding Byzantine adversaries.
//!
//! Independent Byzantine processes are weaker than the model allows: the
//! classical adversary controls *all* faulty processors centrally. The
//! [`Cabal`] gives a set of [`Colluder`] processes a shared blackboard so
//! they can coordinate their lies — e.g. all echo the same fabricated
//! value each round, which is the strongest oral-messages attack shape
//! (consistent cross-processor lies survive majority filtering longer than
//! independent noise).

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rand::RngCore;

use crate::process::{Context, Process};
use crate::rng::labeled_rng_u64;

/// Numeric RNG domain for cabal lie fabrication (see [`labeled_rng_u64`]).
const CABAL_DOMAIN: u64 = 0xCABA_1CAB_A1CA_BA1C;

/// The cabal's shared state: one agreed lie per round.
#[derive(Debug, Default)]
struct Blackboard {
    /// The round the current lie was fabricated for.
    round: u64,
    /// The lie payload for that round (shared by all members and all of
    /// their recipients — one allocation per round for the whole cabal).
    lie: Bytes,
}

/// Shared coordination handle for a set of colluders.
///
/// Construction is explicit about randomness: [`Cabal::seeded`] takes the
/// key the round lies derive from. Deriving it from the run seed (plus a
/// per-cabal discriminator when one run hosts several cabals) keeps runs
/// a pure function of their seed, cabals mutually independent, and lie
/// fabrication independent of which member — on which scheduler thread —
/// asks first. No keyless constructor exists because no hidden key source
/// can deliver all three at once.
#[derive(Debug, Clone)]
pub struct Cabal {
    board: Arc<Mutex<Blackboard>>,
    key: u64,
}

impl Cabal {
    /// Creates a cabal whose per-round lies are derived from `key`: two
    /// cabals with different keys fabricate independent lies, and equal
    /// keys reproduce equal lies (run purity).
    pub fn seeded(key: u64) -> Cabal {
        Cabal {
            board: Arc::default(),
            key,
        }
    }

    /// Spawns a member process. All members of one cabal broadcast the
    /// same per-round lie.
    pub fn member(&self) -> Colluder {
        Colluder {
            cabal: self.clone(),
        }
    }

    /// The agreed lie for `round`.
    ///
    /// The lie is a pure function of `(key, round)` — *not* of whichever
    /// member happens to ask first — so colluders split across sharded
    /// scheduler threads (see
    /// [`Simulation::step`](crate::sim::Simulation::step)) agree on
    /// it without any ordering between them. The blackboard only caches
    /// the round's allocation so the whole cabal shares one buffer.
    fn lie_for(&self, round: u64) -> Bytes {
        let mut board = self.board.lock();
        if board.round != round || board.lie.is_empty() {
            let mut rng = labeled_rng_u64(self.key, CABAL_DOMAIN, round);
            let mut lie = vec![0u8; 9];
            rng.fill_bytes(&mut lie);
            board.round = round;
            board.lie = lie.into();
        }
        board.lie.clone()
    }
}

/// A cabal member: broadcasts the cabal's coordinated per-round lie.
#[derive(Debug, Clone)]
pub struct Colluder {
    cabal: Cabal,
}

impl Process for Colluder {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        let lie = self.cabal.lie_for(ctx.round().value());
        ctx.broadcast(lie);
    }

    /// Deliberate no-op: a colluder carries no per-process state to
    /// corrupt. Its lie is a pure function of `(cabal key, round)` and the
    /// shared blackboard is only an allocation cache, re-derived on the
    /// next pulse — scrambling here could not change any observable
    /// behaviour.
    fn scramble(&mut self, _rng: &mut rand::rngs::StdRng) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "colluder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcessId;
    use crate::sim::Simulation;
    use crate::topology::Topology;

    /// Records every payload received.
    struct Recorder {
        seen: Vec<Vec<u8>>,
    }

    impl Process for Recorder {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            for m in ctx.inbox() {
                self.seen.push(m.bytes().to_vec());
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn cabal_members_tell_identical_lies() {
        let cabal = Cabal::seeded(3);
        let mut sim = Simulation::builder(Topology::complete(4)).build_with(|id| {
            if id.index() >= 2 {
                Box::new(cabal.member()) as Box<dyn Process>
            } else {
                Box::new(Recorder { seen: Vec::new() })
            }
        });
        sim.run(3);
        let r0 = sim.process_as::<Recorder>(ProcessId(0)).unwrap();
        // Per round, the two colluders delivered the same payload.
        assert!(!r0.seen.is_empty());
        for pair in r0.seen.chunks(2) {
            if pair.len() == 2 {
                assert_eq!(pair[0], pair[1], "coordinated lie");
            }
        }
    }

    #[test]
    fn lies_change_between_rounds() {
        let cabal = Cabal::seeded(4);
        let mut sim = Simulation::builder(Topology::complete(3)).build_with(|id| {
            if id.index() == 2 {
                Box::new(cabal.member()) as Box<dyn Process>
            } else {
                Box::new(Recorder { seen: Vec::new() })
            }
        });
        sim.run(4);
        let r0 = sim.process_as::<Recorder>(ProcessId(0)).unwrap();
        assert!(r0.seen.len() >= 3);
        assert_ne!(r0.seen[0], r0.seen[1], "fresh lie per round");
    }

    #[test]
    fn equal_keys_reproduce_equal_lies() {
        let observed = || {
            let cabal = Cabal::seeded(9);
            let mut sim =
                Simulation::builder(Topology::complete(2)).build_with(|id| match id.index() {
                    0 => Box::new(Recorder { seen: Vec::new() }) as Box<dyn Process>,
                    _ => Box::new(cabal.member()),
                });
            sim.run(3);
            sim.process_as::<Recorder>(ProcessId(0))
                .unwrap()
                .seen
                .clone()
        };
        assert_eq!(observed(), observed(), "lies are a pure fn of (key, round)");
    }

    #[test]
    fn separate_cabals_do_not_share_lies() {
        let a = Cabal::seeded(1);
        let b = Cabal::seeded(2);
        let mut sim =
            Simulation::builder(Topology::complete(3)).build_with(|id| match id.index() {
                0 => Box::new(Recorder { seen: Vec::new() }) as Box<dyn Process>,
                1 => Box::new(a.member()),
                _ => Box::new(b.member()),
            });
        sim.run(2);
        let r0 = sim.process_as::<Recorder>(ProcessId(0)).unwrap();
        assert_eq!(r0.seen.len(), 2);
        assert_ne!(
            r0.seen[0], r0.seen[1],
            "independent cabals lie independently"
        );
    }
}
