//! The common pulse generator: the clock rule run over the network.
//!
//! §3.3: "we use a Byzantine common pulse generator (similar to the one of
//! \[11\]) to synchronize the different services … the Byzantine common
//! pulse generator allows the system to repeat a sequence of activating the
//! different instantiations of the Byzantine agreement protocol." Every
//! process that keeps a clock — [`ClockProcess`], SSBA, the distributed
//! authority — calls [`pulse`] once per round and keys its schedule off
//! the value it returns.
//!
//! # Frame
//!
//! On each pulse a processor sends each peer one frame: its clock claim,
//! then the body of whatever its clock has scheduled, if anything.
//!
//! ```text
//! frame  claim · body?
//! claim  LEB128 u64: the sender's clock value, one byte below 128
//! body   tag u8 · the rest of the frame, no length
//! ```
//!
//! The tag names who reads the body: an agreement activation
//! ([`Activation`](crate::ssba::Activation)), or the authority's commit or
//! reveal. A frame whose claim is cut short says nothing, body included.

use bytes::Bytes;
use ga_agreement::wire::{varint, varint_len, Reader};
use ga_simnet::prelude::*;
use rand::Rng;

use crate::clock::ClockRule;

/// The pulse generator alone as a `ga-simnet` process: [`pulse`] every
/// round, nothing scheduled off it (the `stabilize` suite sweeps it).
///
/// State is scrambleable for transient-fault experiments.
#[derive(Debug, Clone)]
pub struct ClockProcess {
    rule: ClockRule,
    n: usize,
}

impl ClockProcess {
    /// Creates the process for one processor.
    pub fn new(n: usize, f: usize, modulus: u64, initial: u64) -> ClockProcess {
        ClockProcess {
            rule: ClockRule::new(n, f, modulus, initial),
            n,
        }
    }

    /// Current clock value.
    pub fn value(&self) -> u64 {
        self.rule.value()
    }

    /// A frame that is a clock claim and nothing else. At most ten bytes,
    /// so it travels inline: a pulse's broadcast allocates nothing.
    pub fn encode(value: u64) -> Bytes {
        Bytes::copy_from_slice(&varint(value)[..varint_len(value)])
    }

    /// Splits a frame into its clock claim and its body (empty if it has
    /// none); `None` when the claim is cut short.
    pub fn decode(frame: &[u8]) -> Option<(u64, &[u8])> {
        let mut r = Reader::new(frame);
        let claim = r.get_varint()?;
        Some((claim, r.rest()))
    }
}

/// One pulse of the common pulse generator, in one pass over the inbox:
/// steps `rule` on the first clock claim of every sender below `n` (one
/// claim per sender — a Byzantine flood must not multiply votes) and
/// returns the new clock value, with the body of every such sender's frame
/// that has one, as `(sender, body)` in inbox order. The caller sends the
/// value's claim, then its own body, in one frame.
pub fn pulse<'a>(
    rule: &mut ClockRule,
    n: usize,
    ctx: &mut Context<'a>,
) -> (u64, Vec<(usize, &'a [u8])>) {
    let mut claims: Vec<Option<u64>> = vec![None; n];
    let mut bodies = Vec::new();
    for m in ctx.inbox() {
        let idx = m.from.index();
        if idx >= n {
            continue;
        }
        let Some((claim, body)) = ClockProcess::decode(m.bytes()) else {
            continue;
        };
        claims[idx].get_or_insert(claim);
        if !body.is_empty() {
            bodies.push((idx, body));
        }
    }
    let received: Vec<u64> = claims.into_iter().flatten().collect();
    (rule.step(&received, ctx.rng()), bodies)
}

impl Process for ClockProcess {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        let (value, _) = pulse(&mut self.rule, self.n, ctx);
        ctx.broadcast(ClockProcess::encode(value));
    }

    fn scramble(&mut self, rng: &mut rand::rngs::StdRng) {
        self.rule.set_arbitrary(rng.gen());
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "clock-sync"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trip() {
        for v in [0, 17, 127, 128, 300, u64::MAX] {
            let p = ClockProcess::encode(v);
            assert_eq!(ClockProcess::decode(&p), Some((v, &[][..])));
        }
        assert_eq!(ClockProcess::encode(17), [17], "one byte below 128");
        // A claim cut short is no claim; a body rides behind a whole one.
        assert_eq!(ClockProcess::decode(&[]), None);
        assert_eq!(ClockProcess::decode(&[0x80]), None);
        assert_eq!(
            ClockProcess::decode(&[0xAC, 2, 0xBA, 1]),
            Some((300, &[0xBA, 1][..]))
        );
    }

    #[test]
    fn a_frame_yields_a_claim_iff_its_varint_is_complete() {
        // Frames of every claim length (1 to 10 bytes) with and without a
        // body, cut at every byte; then random bytes.
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF4A3E);
        for bits in 0..64 {
            let value = rng.gen::<u64>() >> bits;
            let claim = ClockProcess::encode(value);
            let mut body = vec![0u8; rng.gen_range(0..40)];
            rng.fill_bytes(&mut body);
            let frame = [&claim[..], &body].concat();
            for cut in 0..=frame.len() {
                let read = ClockProcess::decode(&frame[..cut]);
                let expected = (cut >= claim.len()).then(|| (value, &frame[claim.len()..cut]));
                assert_eq!(read, expected, "{value} cut at {cut}");
            }
        }
        for _ in 0..10_000 {
            let mut bytes = vec![0u8; rng.gen_range(0..16)];
            rng.fill_bytes(&mut bytes);
            let claimed = bytes.iter().take(10).any(|b| b & 0x80 == 0);
            assert!(
                ClockProcess::decode(&bytes).is_some() <= claimed,
                "{bytes:?}"
            );
        }
    }

    /// Process 0 runs [`pulse`] with n = 4; the others send it their
    /// `script` at pulse 0.
    struct Peer {
        rule: ClockRule,
        script: Vec<Vec<u8>>,
    }

    impl Process for Peer {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            if ctx.id() == ProcessId(0) {
                pulse(&mut self.rule, 4, ctx);
            }
            for payload in self.script.drain(..) {
                ctx.send(ProcessId(0), payload);
            }
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Process 0's clock (n = 4, f = 1; its own value is 5 or 0, never 7)
    /// after hearing `scripts[i - 1]` from process `i` of a complete graph
    /// on `scripts.len() + 1` nodes: 8 iff three claims of 7 were counted.
    fn listen(scripts: &[Vec<Vec<u8>>]) -> u64 {
        let mut sim = Simulation::builder(Topology::complete(scripts.len() + 1))
            .seed(1)
            .build_with(|id| {
                Box::new(Peer {
                    rule: ClockRule::new(4, 1, 10, 5),
                    script: id
                        .index()
                        .checked_sub(1)
                        .map_or(vec![], |i| scripts[i].clone()),
                })
            });
        sim.run(2); // pulse 0 sends the scripts, pulse 1 delivers them
        sim.process_as::<Peer>(ProcessId(0)).unwrap().rule.value()
    }

    fn claim(v: u64) -> Vec<u8> {
        ClockProcess::encode(v).to_vec()
    }

    #[test]
    fn pulse_counts_a_flood_from_one_sender_once() {
        // A multiplied vote would reach the n − f = 3 quorum and adopt 8.
        let flood = [vec![claim(7), claim(7), claim(7)], vec![claim(7)], vec![]];
        assert_ne!(listen(&flood), 8, "two senders are no quorum");
        let three = [vec![claim(7)], vec![claim(7)], vec![claim(7)]];
        assert_eq!(listen(&three), 8);
    }

    #[test]
    fn pulse_takes_the_first_well_formed_claim_per_sender() {
        // A message whose claim is cut short does not shadow the claim
        // behind it; a second claim from the same sender is ignored.
        let scripts = [
            vec![vec![0x80], claim(7), claim(3)],
            vec![vec![], claim(7)],
            vec![claim(7)],
        ];
        assert_eq!(listen(&scripts), 8);
    }

    #[test]
    fn pulse_ignores_senders_at_or_above_n() {
        // Five nodes, n = 4: processor 4's claim is the third 7 and must
        // not make the quorum; processor 3's is counted.
        let from_4 = [vec![claim(7)], vec![claim(7)], vec![], vec![claim(7)]];
        assert_ne!(listen(&from_4), 8, "a sender at n is no voter");
        let from_3 = [vec![claim(7)], vec![claim(7)], vec![claim(7)], vec![]];
        assert_eq!(listen(&from_3), 8);
    }

    #[test]
    fn synchronized_start_stays_synchronized() {
        let n = 4;
        let mut sim = Simulation::builder(Topology::complete(n))
            .seed(1)
            .build_with(|_| Box::new(ClockProcess::new(n, 1, 8, 0)) as Box<dyn Process>);
        // Pulse 0 has empty inboxes: no quorum visible, clocks may reset to
        // 0 or keep 0 — both are 0, so from pulse 1 on the quorum branch
        // drives everything.
        sim.run(10);
        let values: Vec<u64> = (0..n)
            .map(|i| {
                sim.process_as::<ClockProcess>(ProcessId(i))
                    .unwrap()
                    .value()
            })
            .collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]), "{values:?}");
    }

    #[test]
    fn clock_advances_once_per_pulse_when_synchronized() {
        let n = 4;
        let mut sim = Simulation::builder(Topology::complete(n))
            .seed(2)
            .build_with(|_| Box::new(ClockProcess::new(n, 1, 100, 0)) as Box<dyn Process>);
        sim.run(5);
        let v5 = sim
            .process_as::<ClockProcess>(ProcessId(0))
            .unwrap()
            .value();
        sim.run(3);
        let v8 = sim
            .process_as::<ClockProcess>(ProcessId(0))
            .unwrap()
            .value();
        assert_eq!(v8, v5 + 3, "one tick per pulse in the synchronized regime");
    }

    #[test]
    fn scramble_changes_value() {
        use rand::SeedableRng;
        let mut p = ClockProcess::new(4, 1, 1 << 30, 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        p.scramble(&mut rng);
        // With modulus 2^30 a random value is almost surely nonzero.
        assert_ne!(p.value(), 0);
    }
}
