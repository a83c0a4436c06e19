//! SSBA — the self-stabilizing Byzantine agreement composition
//! (Theorem 1).
//!
//! "The self-stabilizing Byzantine agreement algorithm is a composition of
//! two distributed algorithms. We use the self-stabilizing Byzantine clock
//! synchronization algorithm of \[11\]. Whenever the clock value reaches the
//! value 1, the self-stabilizing Byzantine agreement algorithm invokes the
//! Byzantine agreement protocol (BAP) … We take the clock size M to be
//! large enough to allow exactly one Byzantine agreement." (§4)
//!
//! [`Activation`] is the composition itself — a clock-scheduled, freshly
//! invoked agreement — and [`SsbaProcess`] is exactly the quoted loop over
//! it: one activation, started at clock value 1. The two lemmas become
//! executable properties:
//!
//! * **Convergence (Lemma 2)** — from an arbitrary configuration (scrambled
//!   clocks, misaligned BA epochs, garbage in flight), within finitely many
//!   pulses all clocks agree; the next wrap to 1 then starts a *clean* BA.
//! * **Closure (Lemma 3)** — once synchronized, every period of `M` pulses
//!   contains exactly one complete agreement, forever.

use ga_agreement::traits::BaInstance;
use ga_agreement::wire::Writer;
use ga_agreement::Value;
use ga_simnet::prelude::*;
use rand::Rng;

use crate::clock::ClockRule;
use crate::process::pulse;
use crate::tags;

/// The rest of a frame body of channel `tag` (None for any other body).
fn unframe(tag: u8, body: &[u8]) -> Option<&[u8]> {
    match body.split_first() {
        Some((&t, rest)) if t == tag => Some(rest),
        _ => None,
    }
}

/// One clock-scheduled activation of a Byzantine agreement protocol: the
/// instance, the channel tag its traffic travels under and how far the
/// agreement in flight has got.
///
/// The caller owns the stepping rule — at which clock values to
/// [`start`](Activation::start) and [`advance`](Activation::advance): SSBA
/// advances an agreement in flight whatever the clock says, the authority
/// only inside the activation's clock window. The activation owns the
/// round order, the tag demux and the framing.
///
/// A round's output is the instance's broadcast (the [broadcast
/// contract](ga_agreement::traits#the-broadcast-contract)) as the body of
/// the pulse's frame ([`process`](crate::process#frame)), appended to the
/// caller's buffer behind the clock claim:
///
/// ```text
/// u8 tag · what the instance appended, to the end of the frame
/// ```
///
/// An instance that appends nothing leaves the buffer as it was, so a
/// silent round's frame is the claim alone. The caller sends the buffer to
/// every peer. On receipt, only bodies of this tag reach the instance,
/// without it.
pub struct Activation<B> {
    instance: B,
    tag: u8,
    /// `Some(r)` while an agreement is in flight and has executed relative
    /// round `r`.
    progress: Option<u64>,
}

impl<B: BaInstance> Activation<B> {
    /// An idle activation of `instance` on channel `tag`.
    pub fn new(instance: B, tag: u8) -> Activation<B> {
        Activation {
            instance,
            tag,
            progress: None,
        }
    }

    /// The protocol instance (its decision, its backend-specific views).
    pub fn instance(&self) -> &B {
        &self.instance
    }

    /// Executes relative round `rel` on this channel's share of `bodies`
    /// (`(sender, body)`, as [`pulse`] returns them) and appends the round's
    /// body, if any, to `out`.
    fn step(&mut self, rel: u64, bodies: &[(usize, &[u8])], out: &mut Vec<u8>) {
        let tag = self.tag;
        let view: Vec<(usize, &[u8])> = bodies
            .iter()
            .filter_map(|&(from, body)| Some((from, unframe(tag, body)?)))
            .collect();
        out.push(tag);
        let at = out.len();
        self.instance.step(rel, &view, out);
        if out.len() == at {
            out.pop();
        }
        self.progress = Some(rel);
    }

    /// Freshly invokes the protocol on `input`, runs its round 0 and
    /// appends that round's body to `out`.
    pub fn start(&mut self, input: Value, bodies: &[(usize, &[u8])], out: &mut Vec<u8>) {
        self.instance.begin(input);
        self.step(0, bodies, out);
    }

    /// Runs the next round of the agreement in flight, if any, appending
    /// its body to `out`; the last round ends the activation and returns
    /// the decision.
    pub fn advance(&mut self, bodies: &[(usize, &[u8])], out: &mut Vec<u8>) -> Option<Value> {
        let rel = self.progress? + 1;
        if rel >= self.instance.rounds() {
            self.progress = None;
            return None;
        }
        self.step(rel, bodies, out);
        if rel + 1 < self.instance.rounds() {
            return None;
        }
        self.progress = None;
        self.instance.decided()
    }

    /// Abandons the agreement in flight.
    pub fn reset(&mut self) {
        self.progress = None;
    }

    /// Transient fault: an arbitrary epoch alignment.
    pub fn scramble(&mut self, rng: &mut rand::rngs::StdRng) {
        self.progress = rng
            .gen_bool(0.5)
            .then(|| rng.gen_range(0..self.instance.rounds()));
    }
}

/// The composed clock + BA process of Theorem 1, over the BA protocol `B`.
pub struct SsbaProcess<B> {
    clock: ClockRule,
    n: usize,
    ba: Activation<B>,
    /// The input contributed to every agreement activation.
    input: Value,
    /// Log of completed agreement decisions, in order.
    agreements: Vec<Value>,
}

impl<B> std::fmt::Debug for SsbaProcess<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsbaProcess")
            .field("clock", &self.clock.value())
            .field("progress", &self.ba.progress)
            .field("agreements", &self.agreements.len())
            .finish_non_exhaustive()
    }
}

impl<B: BaInstance> SsbaProcess<B> {
    /// Composes a clock of modulus `modulus` with a BA `instance`.
    ///
    /// # Panics
    ///
    /// Panics unless `modulus ≥ instance.rounds() + 1` — the paper's "large
    /// enough to allow exactly one Byzantine agreement" — and `n > 3f`
    /// (inherited from the clock rule).
    pub fn new(n: usize, f: usize, modulus: u64, instance: B, input: Value) -> SsbaProcess<B> {
        assert!(
            modulus > instance.rounds(),
            "clock modulus must fit one full agreement (need ≥ {})",
            instance.rounds() + 1
        );
        SsbaProcess {
            clock: ClockRule::new(n, f, modulus, 0),
            n,
            ba: Activation::new(instance, tags::BA),
            input,
            agreements: Vec::new(),
        }
    }

    /// Current clock value.
    pub fn clock_value(&self) -> u64 {
        self.clock.value()
    }

    /// Completed agreement decisions so far.
    pub fn agreements(&self) -> &[Value] {
        &self.agreements
    }
}

impl<B: BaInstance + 'static> Process for SsbaProcess<B> {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        let (clock_value, bodies) = pulse(&mut self.clock, self.n, ctx);

        // The wrap to 1 invokes the protocol afresh, so a scrambled epoch
        // from a transient fault cannot outlive one wrap; an agreement in
        // flight advances whatever the clock says.
        let mut frame = Vec::new();
        Writer::new(&mut frame).put_varint(clock_value);
        if clock_value == 1 {
            self.ba.start(self.input, &bodies, &mut frame);
        } else if let Some(decision) = self.ba.advance(&bodies, &mut frame) {
            self.agreements.push(decision);
        }
        ctx.broadcast(frame);
    }

    fn scramble(&mut self, rng: &mut rand::rngs::StdRng) {
        // The full transient fault of §4: arbitrary clock, arbitrary
        // in-progress agreement state, arbitrary BA epoch alignment.
        self.clock.set_arbitrary(rng.gen());
        self.ba.instance.begin(rng.gen());
        self.ba.scramble(rng);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "ssba"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ClockProcess;
    use ga_agreement::consensus::OmConsensus;
    use ga_agreement::om;

    /// `inner` as a body of channel `tag`, as an activation sends it.
    fn frame(tag: u8, inner: &[u8]) -> Vec<u8> {
        [&[tag][..], inner].concat()
    }

    fn build(n: usize, f: usize, seed: u64) -> Simulation {
        let rounds = om::rounds(f);
        let modulus = rounds + 2;
        Simulation::builder(Topology::complete(n))
            .seed(seed)
            .build_with(|id| {
                Box::new(SsbaProcess::new(
                    n,
                    f,
                    modulus,
                    OmConsensus::new(id.index(), n, f),
                    10 + id.index() as u64, // distinct inputs
                )) as Box<dyn Process>
            })
    }

    fn agreement_logs(sim: &Simulation, n: usize) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                sim.process_as::<SsbaProcess<OmConsensus>>(ProcessId(i))
                    .unwrap()
                    .agreements()
                    .to_vec()
            })
            .collect()
    }

    #[test]
    fn synchronized_start_produces_periodic_agreements() {
        let n = 4;
        let mut sim = build(n, 1, 5);
        sim.run(60);
        let logs = agreement_logs(&sim, n);
        assert!(logs[0].len() >= 2, "several periods elapsed: {:?}", logs[0]);
        // All processes hold identical agreement logs (agreement property,
        // repeatedly).
        assert!(logs.windows(2).all(|w| w[0] == w[1]), "{logs:?}");
    }

    #[test]
    fn recovers_after_total_transient_fault() {
        let n = 4;
        let mut sim = build(n, 1, 6);
        sim.run(20);
        sim.corrupt(&CorruptionFamily::total(99));
        // Convergence: give the clock time to re-synchronize, then closure:
        // compare agreement logs appended after recovery.
        sim.run(400);
        let before: Vec<usize> = agreement_logs(&sim, n).iter().map(Vec::len).collect();
        sim.run(60);
        let logs = agreement_logs(&sim, n);
        for i in 0..n {
            assert!(
                logs[i].len() > before[i],
                "agreements resumed after the fault"
            );
        }
        // The post-recovery suffix must again be identical everywhere.
        let min_len = logs.iter().map(Vec::len).min().unwrap();
        let tails: Vec<&[Value]> = logs
            .iter()
            .map(|l| &l[l.len() - min_len.min(2)..])
            .collect();
        assert!(tails.windows(2).all(|w| w[0] == w[1]), "{tails:?}");
    }

    #[test]
    #[should_panic(expected = "clock modulus must fit")]
    fn modulus_too_small_rejected() {
        SsbaProcess::new(4, 1, 2, OmConsensus::new(0, 4, 1), 0);
    }

    #[test]
    fn tag_untag_round_trip() {
        let tagged = frame(tags::BA, b"inner");
        assert_eq!(tagged, [&[tags::BA][..], b"inner"].concat());
        assert_eq!(unframe(tags::BA, &tagged), Some(b"inner".as_slice()));
        assert_eq!(unframe(tags::BA, b"junk"), None);
        assert_eq!(unframe(0xA1, &tagged), None, "another channel's frame");
        // A clock claim is not a BA body.
        assert_eq!(unframe(tags::BA, &ClockProcess::encode(5)), None);
        assert_eq!(unframe(tags::BA, &[]), None);
    }

    /// A 3-round instance: broadcasts `[round]` every round but the
    /// `silent` one, decides its input after the last, and logs the rounds
    /// and mail it was given since `begin`.
    #[derive(Default)]
    struct Probe {
        input: Value,
        rounds: Vec<u64>,
        mail: Vec<(usize, Vec<u8>)>,
        silent: Option<u64>,
    }

    impl BaInstance for Probe {
        fn begin(&mut self, input: Value) {
            (self.input, self.rounds, self.mail) = (input, vec![], vec![]);
        }
        fn step(&mut self, rel: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
            self.rounds.push(rel);
            self.mail
                .extend(inbox.iter().map(|(s, p)| (*s, p.to_vec())));
            if self.silent != Some(rel) {
                out.push(rel as u8);
            }
        }
        fn rounds(&self) -> u64 {
            3
        }
        fn decided(&self) -> Option<Value> {
            (self.rounds.len() == 3).then_some(self.input)
        }
    }

    #[test]
    fn activation_runs_rounds_in_order_and_decides_once_on_the_last() {
        let mut a = Activation::new(Probe::default(), 0xA1);
        let mut out = Vec::new();
        assert_eq!(a.advance(&[], &mut out), None);
        assert!(out.is_empty(), "an idle activation sends nothing");
        assert!(a.instance().rounds.is_empty(), "and steps nothing");

        a.start(7, &[], &mut out);
        assert_eq!(a.advance(&[], &mut out), None, "round 1 of 3");
        assert_eq!(a.advance(&[], &mut out), Some(7), "the last round");
        assert_eq!(a.advance(&[], &mut out), None, "exactly once");
        assert_eq!(a.instance().rounds, [0, 1, 2]);
        assert_eq!(
            out,
            [frame(0xA1, &[0]), frame(0xA1, &[1]), frame(0xA1, &[2])].concat(),
            "one frame a round, no more"
        );

        // A fresh start abandons whatever was in flight; so does a reset.
        a.start(8, &[], &mut out);
        a.advance(&[], &mut out);
        a.start(9, &[], &mut out);
        assert_eq!(a.instance().rounds, [0], "begun afresh");
        a.reset();
        assert_eq!(a.advance(&[], &mut out), None, "idle after reset");
    }

    #[test]
    fn activation_frames_and_demuxes_its_own_tag_only() {
        let mut a = Activation::new(Probe::default(), 0xA2);
        let (mine, other) = (frame(0xA2, b"mine"), frame(0xA3, b"other"));
        let inbox = [(1, &mine[..]), (2, &other[..]), (3, &[0xA1][..]), (2, &[])];
        let mut out = Vec::new();
        a.start(0, &inbox, &mut out);
        assert_eq!(a.instance().mail, [(1, b"mine".to_vec())]);
        assert_eq!(unframe(0xA2, &out), Some(&[0u8][..]));
    }

    #[test]
    fn activation_broadcast_shares_one_frame() {
        // Each round's broadcast is one frame, behind whatever the buffer
        // held; a round in which the instance appends nothing leaves it be.
        let probe = Probe {
            silent: Some(1),
            ..Probe::default()
        };
        let mut a = Activation::new(probe, tags::BA);
        let mut out = vec![0xEE];
        a.start(0, &[], &mut out);
        assert_eq!(out, [&[0xEE][..], &frame(tags::BA, &[0])].concat());
        let before = out.clone();
        a.advance(&[], &mut out);
        assert_eq!(out, before, "a silent round has no frame");
        assert_eq!(a.instance().rounds, [0, 1], "but it ran");
    }
}
