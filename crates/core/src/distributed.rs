//! The distributed game authority over `ga-simnet`.
//!
//! §3.3, executed literally: "Upon a pulse, all agents start a new play of
//! the game that is carried out by a sequence of several activations of the
//! Byzantine agreement protocol."
//!
//! Each play occupies one period of the self-stabilizing clock
//! (`ga-clocksync`); the clock value schedules the phases. With R = rounds
//! of one OM-consensus activation, the modulus is M = 3R + 4
//! ([`schedule_len`](AuthorityProcess::schedule_len)), and
//! [`phase_of`](AuthorityProcess::phase_of) is the one place that maps a
//! clock value to its [`Phase`] (`tests/schedule_table.rs` holds this table
//! to it):
//!
//! | clock value         | [`Phase`]  | what the processor does                                |
//! |---------------------|------------|--------------------------------------------------------|
//! | `0`                 | `Wrap`     | claim only; the next pulse starts a fresh play         |
//! | `1` … `R`           | `Claims`   | claim only                                             |
//! | `R + 1`             | `Commit`   | broadcast commitments (Blum)                           |
//! | `R + 2` … `2R + 1`  | `Claims`   | claim only                                             |
//! | `2R + 2`            | `Reveal`   | broadcast reveals                                      |
//! | `2R + 3` … `3R + 2` | `Agree(k)` | **BA 3** round k — agree on the foul set (bitmask)     |
//! | `3R + 3`            | `Exec`     | executive: punish the agreed fouls, record the outcome |
//!
//! The agreement is an [`Activation`] — Theorem 1's composition, the same
//! one `SsbaProcess` runs — stepped only inside its clock window. Because
//! every phase is *derived from the clock value*, a transient fault that
//! scrambles play state (misaligned epochs, stale commitments, arbitrary
//! clock) heals at the first clock wrap after the honest clocks agree —
//! the same argument as Theorem 1, now for the whole middleware loop. The
//! honest clocks need not come to agree: `f` Byzantine "pinners" can hold
//! them apart for ever (ROADMAP item 15; its fix states how many pulses
//! agreement takes).
//!
//! A play runs only an agreement whose decision some state reads: the
//! executive folds BA 3's vector into the foul mask. The two agreements
//! that once filled the claim-only windows, on the previous outcome's
//! digest and on the commitment set's, were read by nothing and are gone;
//! one comes back only with a consumer (ROADMAP item 20(c)). The windows
//! keep their pulses, so a play is still 3R + 4 pulses long and every
//! schedule counted in pulses keeps its plays (ROADMAP item 20(b) drops
//! them).
//!
//! # Wire
//!
//! On every pulse a processor sends each peer exactly one frame: its clock
//! claim, then the body of the phase its clock has scheduled, if that phase
//! says anything ([`ga_clocksync::process`](ga_clocksync::process#frame)).
//! The phases' windows are disjoint, so a frame has at most one body.
//!
//! | body                                   | sent at                                  |
//! |----------------------------------------|------------------------------------------|
//! | none                                   | the wrap, a claim-only pulse, a resolve round, the executive |
//! | `0xA3` · parts                         | a round of BA 3 (`OmConsensus`, "Frame") |
//! | `0xA3` · `0x80 \| L` · LEB128 value*    | a round of BA 3 whose every part tells one value ("Short frame") |
//! | `0xC0` · digest\[32\]                  | the commit phase                         |
//! | `0xD0` · LEB128 action · nonce\[32\]   | the reveal phase                         |
//!
//! A body runs to the end of its frame and has no length. A commit or
//! reveal body of any other length, a truncated one included, is dropped
//! whole; so is an agreement body whose last part or value is cut short.
//! The two split deviants below send the peers in their mask a variant of
//! the frame in place of it, still one frame each.
//!
//! # The OM assumption
//!
//! The authority runs OM and nothing else, with `f ≤ 3`. Its one activation
//! is OM interactive consistency: BA 3 needs the per-source vector, because
//! conviction counts votes. The price is a bound on `f`, stated here as an
//! assumption of the authority. A frame, and each part inside it, is held
//! to [`FRAME_LIMIT`], 65 535 bytes. The largest frame a processor can be
//! made to send carries a whole OM-consensus message of the last relay
//! round when every source equivocated — `n − 1` relays of
//! `K = (n−2)(n−3)…(n−f)` values that differ, eight bytes and a presence
//! bit each — which grows like `n^f`: 4.1 KB at `n = 10, f = 3`, 10.8 KB at
//! `(13, 3)`, 64.9 KB at `(22, 3)`, 75 KB at `(23, 3)`, 97 KB at `(13, 4)`.
//! Those are the equivocation case, and it sets the bound because a
//! Byzantine source chooses it. A relay of an honest source's broadcast
//! tells its one value, so a round of a run without an equivocator goes as
//! one short frame, a varint value per source: `n` bytes, 10 at `(10, 3)`
//! (with the claim and the tag, 12). So the authority assumes `f ≤ 2` at any `n ≤ 64` and `f = 3`
//! up to `n = 22`; there is no `f ≥ 4`. A cluster outside that is refused
//! at construction ([`OmConsensus::max_frame_len`]) rather than panicking
//! in the middle of its first play. ROADMAP item 7 (a protocol per
//! activation, to run past `f = 3`) is closed on this assumption: no
//! workload needs `f ≥ 4`, and Dolev–Strong, the polynomial backend the
//! agreement crate keeps, is measured beside OM (E6, the benchmark) but run
//! by no authority.
//!
//! # Agents and executive
//!
//! A processor's agent is the centralized engine's `Agent`: the commit
//! and reveal phases send every peer what `Agent::submit` returns. Three
//! deviants act beyond that: a framer accuses its target in its BA 3
//! proposal, a selective revealer sends some processors its reveal
//! pulse's frame without the reveal, and a split committer sends some
//! processors a commitment to a second opening. Mixed strategies are
//! refused until the seed audit runs here (ROADMAP item 3(b)). Punishment is an [`Executive`] under
//! [`Punishment::Disconnect`], driven by the agreed foul mask, with no
//! outcome log (one record per play). It masks a convicted agent's game
//! inputs alone (the audit, the agreed mask, the outcome's null action 0,
//! its processor's commitment); that processor still votes on the clock
//! and sends and relays OM, like any of the `f` Byzantine processors.

use std::sync::Arc;

use bytes::Bytes;

use ga_agreement::consensus::OmConsensus;
use ga_agreement::om;
use ga_agreement::wire::{varint_len, Reader, Writer, FRAME_LIMIT};
use ga_clocksync::clock::ClockRule;
use ga_clocksync::process::pulse;
use ga_clocksync::ssba::Activation;
use ga_crypto::commitment::{Commitment, Opening};
use ga_crypto::prg::Prg;
use ga_game_theory::game::Game;
use ga_game_theory::profile::PureProfile;
use ga_simnet::prelude::*;
use rand::Rng;

use crate::agent::{Agent, Behavior, BehaviorKind};
use crate::executive::{Executive, Punishment};
use crate::judicial::{action_bytes, audit_play, Submission, Verdict};

/// Body tags of the authority's frames (see the module's wire table).
mod tag {
    /// The foul agreement, BA 3.
    pub(super) const BA: u8 = 0xA3;
    pub(super) const COMMIT: u8 = 0xC0;
    pub(super) const REVEAL: u8 = 0xD0;
}

/// One play's transient state.
#[derive(Debug, Clone)]
struct PlayState {
    /// This processor's own reveal, held from the commit phase.
    my_reveal: Option<(usize, Opening)>,
    /// Each agent's harvested commitment, indexed by agent.
    commitments: Vec<Option<Commitment>>,
    /// Each agent's harvested in-range reveal, indexed by agent.
    reveals: Vec<Option<(usize, Opening)>>,
    /// Agents whose harvested reveal named an action outside their
    /// action space. Quarantined foul evidence: such a reveal never
    /// enters `reveals` (and thus never the outcome) and is proposed as
    /// a foul in this processor's BA 3 input, so conviction flows
    /// through the agreed quorum like every other foul.
    invalid: u64,
}

impl PlayState {
    /// The state before an `n`-agent play's commit phase.
    fn new(n: usize) -> PlayState {
        PlayState {
            my_reveal: None,
            commitments: vec![None; n],
            reveals: vec![None; n],
            invalid: 0,
        }
    }

    /// Back to [`new`](Self::new), in place.
    fn reset(&mut self) {
        self.my_reveal = None;
        self.commitments.fill(None);
        self.reveals.fill(None);
        self.invalid = 0;
    }
}

/// The complete outcome of one finished play, as recorded by a processor.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayRecord {
    /// The outcome profile (null action 0 for disconnected agents).
    pub outcome: PureProfile,
    /// The agreed foul bitmask for this play.
    pub fouls: u64,
}

/// The size contracts of an `n`-agent authority tolerating `f` faults.
fn assert_size_supported(n: usize, f: usize) {
    assert!(n > 3 * f, "distributed authority requires n > 3f");
    assert!(n <= 64, "foul bitmask supports up to 64 agents");
    // The largest frame: the largest claim, a tag and the agreement's
    // largest message.
    let claim = varint_len(AuthorityProcess::schedule_len(om::rounds(f)) - 1);
    assert!(
        OmConsensus::max_frame_len(n, f).is_some_and(|len| claim + 1 + len <= FRAME_LIMIT),
        "distributed authority at n={n}, f={f}: the largest agreement message \
         exceeds the {FRAME_LIMIT}-byte frame limit"
    );
}

/// Refuses a behaviour `n` distributed agents cannot run: a mixed strategy
/// (the per-play audit would convict it) or a framer of a non-agent.
fn assert_supported(behavior: &Behavior, n: usize) {
    assert!(
        behavior.claimed_strategy().is_none(),
        "distributed authority: {behavior:?} claims a mixed strategy; mixed \
         agents need the distributed seed audit of ROADMAP item 3(b)"
    );
    if let BehaviorKind::Framer { target } = *behavior.kind() {
        assert!(target < n, "framer target {target} ≥ n={n}");
    }
}

/// What a clock value schedules in a play (the module's schedule table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Clock value 0: the claim alone.
    Wrap,
    /// A claim-only pulse of the two idle windows.
    Claims,
    /// Broadcast this play's commitment.
    Commit,
    /// Broadcast this play's reveal.
    Reveal,
    /// Relative round `k` of BA 3.
    Agree(u64),
    /// The executive convicts the agreed fouls and records the play.
    Exec,
}

/// One processor of the distributed authority.
pub struct AuthorityProcess {
    game: Arc<dyn Game + Send + Sync>,
    me: usize,
    n: usize,
    f: usize,
    agent: Agent,
    clock: ClockRule,
    /// The play's one agreement, on the foul set.
    ba: Activation<OmConsensus>,
    play: PlayState,
    /// Executive view: who is disconnected.
    executive: Executive,
    /// Completed plays; the last one's outcome is the previous outcome.
    records: Vec<PlayRecord>,
    /// The frame a pulse builds, kept for its capacity: scratch, cleared
    /// every pulse, not state.
    frame: Vec<u8>,
}

impl std::fmt::Debug for AuthorityProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthorityProcess")
            .field("me", &self.me)
            .field("behavior", self.agent.behavior())
            .field("clock", &self.clock.value())
            .field("plays", &self.records.len())
            .finish_non_exhaustive()
    }
}

impl AuthorityProcess {
    /// Creates the processor `me` of an `n`-agent authority tolerating `f`
    /// Byzantine agents, whose agent plays `game` as `behavior`.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3f` (OM backend + clock rule), `n ≤ 64` (the
    /// foul bitmask), the largest agreement message at `(n, f)` fits the
    /// 65 535-byte [frame limit](self#the-om-assumption), the game has `n`
    /// agents, and `behavior` is pure and frames only agents below `n`.
    pub fn new(
        game: Arc<dyn Game + Send + Sync>,
        me: usize,
        n: usize,
        f: usize,
        behavior: Behavior,
        seed: u64,
    ) -> AuthorityProcess {
        assert_size_supported(n, f);
        assert_eq!(game.num_agents(), n, "game arity must match n");
        assert_supported(&behavior, n);
        let nonces = Prg::from_seed_material(b"ga-dist-nonce", seed ^ (me as u64) << 16);
        let modulus = Self::schedule_len(om::rounds(f));
        AuthorityProcess {
            game,
            me,
            n,
            f,
            agent: Agent::new(me, behavior, nonces, None),
            clock: ClockRule::new(n, f, modulus, 0),
            ba: Activation::new(OmConsensus::new(me, n, f), tag::BA),
            play: PlayState::new(n),
            executive: Executive::new(n, Punishment::Disconnect),
            records: Vec::new(),
            frame: Vec::new(),
        }
    }

    /// The clock modulus for a given BA round count: `3R + 4`.
    pub fn schedule_len(ba_rounds: u64) -> u64 {
        3 * ba_rounds + 4
    }

    /// The phase clock value `v` schedules when an agreement takes
    /// `ba_rounds` rounds: the module's schedule table. With
    /// [`schedule_len`](Self::schedule_len), the only place the play's
    /// layout is written.
    pub fn phase_of(ba_rounds: u64, v: u64) -> Phase {
        let r = ba_rounds;
        let agree = 2 * r + 3;
        match v {
            0 => Phase::Wrap,
            v if v == r + 1 => Phase::Commit,
            v if v == 2 * r + 2 => Phase::Reveal,
            v if v == 3 * r + 3 => Phase::Exec,
            v if (agree..agree + r).contains(&v) => Phase::Agree(v - agree),
            _ => Phase::Claims,
        }
    }

    /// Completed play records.
    pub fn records(&self) -> &[PlayRecord] {
        &self.records
    }

    /// The executive's local disconnection flags, one per agent.
    pub fn punished(&self) -> &[bool] {
        self.executive.disconnected()
    }

    /// Current clock value (diagnostics).
    pub fn clock_value(&self) -> u64 {
        self.clock.value()
    }

    /// Local audit producing the foul bitmask this processor proposes:
    /// the judicial service's pure-strategy audit of what was harvested,
    /// plus the quarantined out-of-range reveals.
    fn local_foul_mask(&self) -> u64 {
        let submissions: Vec<Submission> = (0..self.n)
            .map(|agent| Submission {
                commitment: self.play.commitments[agent],
                reveal: self.play.reveals[agent],
                claimed_strategy: None,
            })
            .collect();
        let verdicts = audit_play(
            self.game.as_ref(),
            self.records.last().map(|r| &r.outcome),
            &submissions,
            self.executive.disconnected(),
        );
        let mut mask = 0u64;
        for (agent, verdict) in verdicts.into_iter().enumerate() {
            let fouled = match verdict {
                Verdict::AlreadyPunished => false, // already out; no fresh foul
                Verdict::Honest => self.play.invalid & (1 << agent) != 0,
                _ => true,
            };
            if fouled {
                mask |= 1 << agent;
            }
        }
        mask
    }

    /// The foul mask this processor proposes to BA 3: its audit, with a
    /// framer's false accusation on top.
    fn foul_proposal(&self) -> u64 {
        match self.agent.behavior().kind() {
            BehaviorKind::Framer { target } => self.local_foul_mask() | 1 << target,
            _ => self.local_foul_mask(),
        }
    }

    /// Records a harvested commitment digest (the first one per agent
    /// wins; commitments are binding, not amendable).
    fn harvest_commit(&mut self, from: usize, digest: [u8; 32]) {
        if let Some(slot @ None) = self.play.commitments.get_mut(from) {
            *slot = Some(Commitment::from_digest(digest));
        }
    }

    /// Records a harvested reveal. An action outside the agent's action
    /// space is foul evidence, not input: it is quarantined into
    /// `PlayState::invalid` so it can never be laundered into the
    /// outcome as the null action.
    fn harvest_reveal(&mut self, from: usize, action: usize, opening: Opening) {
        if from >= self.n {
            return;
        }
        if action >= self.game.num_actions(from) {
            self.play.invalid |= 1 << from;
            return;
        }
        self.play.reveals[from].get_or_insert((action, opening));
    }

    /// Folds BA 3's interactive-consistency vector into the agreed foul
    /// mask. A bit convicts only when **more than `f`** of the agreed
    /// per-source proposals carry it — i.e. at least one honest auditor
    /// — so up to `f` Byzantine processors can never frame a correct
    /// agent on their own, and resilience degrades with the threshold
    /// exactly as §3.3 states it (at `f = 0` a single accusation
    /// convicts). Already-punished agents are skipped: they are out, no
    /// fresh foul (a persistent accuser must not re-stamp their bit into
    /// every later play record).
    fn agreed_foul_mask(&self) -> u64 {
        let vector = self.ba.instance().vector();
        let proposals: Vec<u64> = vector.into_iter().flatten().collect();
        let mut mask = 0u64;
        for agent in 0..self.n {
            if !self.executive.is_active(agent) {
                continue;
            }
            let votes = proposals.iter().filter(|&&p| p & (1 << agent) != 0).count();
            if votes > self.f {
                mask |= 1 << agent;
            }
        }
        mask
    }

    /// Harvests a commit or reveal body; any other body is an
    /// activation's. A body of the wrong length is dropped whole.
    fn harvest(&mut self, from: usize, body: &[u8]) {
        let mut rd = Reader::new(body);
        match rd.get_u8() {
            Some(tag::COMMIT) => {
                if let Ok(digest) = <[u8; 32]>::try_from(rd.rest()) {
                    self.harvest_commit(from, digest);
                }
            }
            Some(tag::REVEAL) => {
                if let (Some(action), Ok(nonce)) =
                    (rd.get_varint(), <[u8; 32]>::try_from(rd.rest()))
                {
                    self.harvest_reveal(from, action as usize, Opening::from_nonce(nonce));
                }
            }
            _ => {}
        }
    }

    /// Appends a commit body for `digest` to `frame`.
    fn put_commit(frame: &mut Vec<u8>, digest: &[u8; 32]) {
        frame.push(tag::COMMIT);
        frame.extend_from_slice(digest);
    }

    /// The commit phase: the agent submits this play, and its commitment
    /// (if any) is the body of `frame`. A split committer returns its mask
    /// and the frame the processors in it get instead: a commitment to a
    /// second opening.
    fn commit_phase(&mut self, frame: &mut Vec<u8>) -> Option<(u64, Vec<u8>)> {
        if !self.executive.is_active(self.me) {
            return None;
        }
        let prev = self.records.last().map(|r| &r.outcome);
        let (submission, _) = self.agent.submit(self.game.as_ref(), prev);
        self.play.my_reveal = submission.reveal;
        let c = submission.commitment?;
        self.play.commitments[self.me] = Some(c);
        let BehaviorKind::SplitCommit { split } = *self.agent.behavior().kind() else {
            Self::put_commit(frame, c.digest());
            return None;
        };
        // The second opening: the next action under the same nonce.
        let (action, opening) = submission.reveal.expect("a split committer reveals");
        let second = (action + 1) % self.game.num_actions(self.me);
        let (c2, _) = Commitment::commit(&action_bytes(second), *opening.nonce());
        let mut alt = frame.clone();
        Self::put_commit(&mut alt, c2.digest());
        Self::put_commit(frame, c.digest());
        Some((split, alt))
    }

    /// The reveal phase: the submission's reveal (if any) is the body of
    /// `frame`. A selective revealer returns its mask and the frame the
    /// processors in it get instead: the claim alone.
    fn reveal_phase(&mut self, frame: &mut Vec<u8>) -> Option<(u64, Vec<u8>)> {
        let (action, opening) = self.play.my_reveal?;
        // Same quarantine as harvested reveals: an out-of-range
        // self-reveal is foul evidence, never outcome input.
        self.harvest_reveal(self.me, action, opening);
        let claim = frame.len();
        frame.push(tag::REVEAL);
        Writer::new(frame).put_varint(action as u64);
        frame.extend_from_slice(opening.nonce());
        match *self.agent.behavior().kind() {
            BehaviorKind::SelectiveReveal { withhold_from } => {
                Some((withhold_from, frame[..claim].to_vec()))
            }
            _ => None,
        }
    }

    /// The executive phase: convict the agreed fouls, disconnect them,
    /// and record the play.
    ///
    /// Conviction flows **only** through the agreed mask — local
    /// evidence (`PlayState::invalid`) enters via this processor's BA 3
    /// proposal, never unilaterally, so a reveal delivered selectively
    /// to some processors can not split the executives' disconnection
    /// state. The quarantine still guarantees an invalid reveal is
    /// never adopted as an outcome action.
    fn conclude_play(&mut self) {
        let fouls = self.agreed_foul_mask();
        for agent in (0..self.n).filter(|agent| fouls & (1 << agent) != 0) {
            self.executive.convict(agent);
        }
        // Outcome: revealed actions of surviving agents whose reveals
        // audit clean; null action 0 otherwise.
        let actions: Vec<usize> = (0..self.n)
            .map(|agent| {
                if !self.executive.is_active(agent) {
                    return 0;
                }
                match self.play.reveals[agent] {
                    Some((a, _)) if a < self.game.num_actions(agent) => a,
                    _ => 0,
                }
            })
            .collect();
        let outcome = PureProfile::new(actions);
        self.records.push(PlayRecord { outcome, fouls });
    }
}

impl Process for AuthorityProcess {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        // The clock tick drives the schedule; the bodies of the same
        // frames feed it.
        let (v, bodies) = pulse(&mut self.clock, self.n, ctx);

        // Harvest commitments/reveals whenever they arrive (they are sent
        // in their phase, delivered one pulse later).
        for &(from, body) in &bodies {
            self.harvest(from, body);
        }

        if v == 1 {
            // Fresh play: reset per-play state.
            self.play.reset();
            self.ba.reset();
        }
        // This pulse's frame: the claim, then the body of its phase, if
        // that phase says anything.
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        Writer::new(&mut frame).put_varint(v);
        let split = match Self::phase_of(om::rounds(self.f), v) {
            Phase::Commit => self.commit_phase(&mut frame),
            Phase::Reveal => self.reveal_phase(&mut frame),
            Phase::Agree(0) => {
                self.ba.start(self.foul_proposal(), &bodies, &mut frame);
                None
            }
            Phase::Agree(_) => {
                self.ba.advance(&bodies, &mut frame);
                None
            }
            Phase::Exec => {
                self.conclude_play();
                None
            }
            Phase::Wrap | Phase::Claims => None,
        };

        let sent = Bytes::copy_from_slice(&frame);
        self.frame = frame;
        match split {
            None => ctx.broadcast(sent),
            // A split deviant: the peers in `mask` get `alt`.
            Some((mask, alt)) => {
                let alt = Bytes::from(alt);
                for &to in ctx.neighbors() {
                    let masked = to < 64 && mask >> to & 1 != 0;
                    ctx.send(ProcessId(to), if masked { &alt } else { &sent }.clone());
                }
            }
        }
    }

    fn scramble(&mut self, rng: &mut rand::rngs::StdRng) {
        self.clock.set_arbitrary(rng.gen());
        self.ba.scramble(rng);
        self.play.reset();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "authority"
    }
}

/// The construction half of a distributed authority, decoupled from
/// simulator wiring: which game is played, the fault threshold, and each
/// agent's [`Behavior`].
///
/// Spec-driven frontends (e.g. the scenario engine) own the topology,
/// delivery model, churn schedule and run seed themselves and call
/// [`process`](AuthorityCluster::process) from their own factory;
/// [`build_authority_sim`] remains the classic complete-graph wiring for
/// direct use.
#[derive(Clone)]
pub struct AuthorityCluster {
    game: Arc<dyn Game + Send + Sync>,
    f: usize,
    behaviors: Vec<Behavior>,
}

impl std::fmt::Debug for AuthorityCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuthorityCluster")
            .field("n", &self.behaviors.len())
            .field("f", &self.f)
            .field("behaviors", &self.behaviors)
            .finish_non_exhaustive()
    }
}

impl AuthorityCluster {
    /// An all-honest cluster playing `game` (one agent per game player)
    /// and tolerating `f` Byzantine agents.
    ///
    /// # Panics
    ///
    /// Same contracts as [`AuthorityProcess::new`]: `n > 3f`, `n ≤ 64`,
    /// agreement messages within the frame limit.
    pub fn new(game: Arc<dyn Game + Send + Sync>, f: usize) -> AuthorityCluster {
        let n = game.num_agents();
        assert_size_supported(n, f);
        AuthorityCluster {
            game,
            f,
            behaviors: vec![Behavior::honest_pure(0); n],
        }
    }

    /// Sets one agent's behaviour (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or [`AuthorityProcess::new`] would
    /// refuse `behavior`.
    #[must_use]
    pub fn mode(mut self, id: usize, behavior: Behavior) -> Self {
        assert_supported(&behavior, self.n());
        self.behaviors[id] = behavior;
        self
    }

    /// Replaces the whole behaviour vector.
    ///
    /// # Panics
    ///
    /// Panics unless `behaviors.len()` matches the game arity and
    /// [`AuthorityProcess::new`] accepts every behaviour.
    #[must_use]
    pub fn modes(mut self, behaviors: Vec<Behavior>) -> Self {
        assert_eq!(behaviors.len(), self.n(), "one behavior per agent");
        let n = self.n();
        behaviors.iter().for_each(|b| assert_supported(b, n));
        self.behaviors = behaviors;
        self
    }

    /// Number of agents.
    pub fn n(&self) -> usize {
        self.behaviors.len()
    }

    /// The fault threshold.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Pulses per play: the clock modulus `3R + 4` for this cluster's
    /// OM round count.
    pub fn play_len(&self) -> u64 {
        AuthorityProcess::schedule_len(om::rounds(self.f))
    }

    /// Constructs processor `id`, deriving its nonce stream from `seed`
    /// (pass the run seed so sweeps vary commitment nonces per run).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn process(&self, id: usize, seed: u64) -> Box<dyn Process> {
        Box::new(AuthorityProcess::new(
            self.game.clone(),
            id,
            self.n(),
            self.f,
            self.behaviors[id].clone(),
            seed,
        ))
    }
}

/// Whether the authority processors among `ids` hold equal play-record
/// sequences: what every pair of honest processors must keep, whatever
/// the deviants do. Slots that run no authority processor (a simnet-level
/// adversary) are skipped.
pub fn records_agree(sim: &Simulation, ids: impl IntoIterator<Item = usize>) -> bool {
    let mut records = ids
        .into_iter()
        .filter_map(|id| sim.process_as::<AuthorityProcess>(ProcessId(id)))
        .map(AuthorityProcess::records);
    let first = records.next();
    records.all(|r| Some(r) == first)
}

/// Builds `cluster` over a complete graph; returns the simulation for
/// inspection.
pub fn build_authority_sim(cluster: &AuthorityCluster, seed: u64) -> Simulation {
    Simulation::builder(Topology::complete(cluster.n()))
        .seed(seed)
        .build_with(|id| cluster.process(id.index(), seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_games::congestion;

    /// `n` honest agents, except `deviant` at `at`.
    fn one_deviant(n: usize, at: usize, deviant: Behavior) -> Vec<Behavior> {
        let mut behaviors = vec![Behavior::honest_pure(0); n];
        behaviors[at] = deviant;
        behaviors
    }

    fn run_plays(behaviors: Vec<Behavior>, pulses: u64, seed: u64) -> Simulation {
        let cluster = AuthorityCluster::new(congestion(4), 1).modes(behaviors);
        let mut sim = build_authority_sim(&cluster, seed);
        sim.run(pulses);
        sim
    }

    /// Pulses per play of the (4, 1) clusters `run_plays` builds.
    fn period() -> u64 {
        AuthorityCluster::new(congestion(4), 1).play_len()
    }

    fn records(sim: &Simulation, i: usize) -> &[PlayRecord] {
        sim.process_as::<AuthorityProcess>(ProcessId(i))
            .unwrap()
            .records()
    }

    #[test]
    fn honest_plays_complete_and_agree() {
        let n = 4;
        let modulus = period();
        let sim = run_plays(vec![Behavior::honest_pure(0); n], modulus * 4 + 2, 3);
        let r0 = records(&sim, 0);
        assert!(r0.len() >= 2, "plays completed: {}", r0.len());
        assert!(
            records_agree(&sim, 0..n),
            "identical play records everywhere"
        );
        assert!(r0.iter().all(|rec| rec.fouls == 0), "no honest fouls");
    }

    #[test]
    fn worst_responder_is_caught_and_disconnected() {
        let modulus = period();
        let sim = run_plays(
            one_deviant(4, 3, Behavior::worst_response()),
            modulus * 4 + 2,
            5,
        );
        // Play 0 has no previous outcome (no best-response obligation);
        // play 1 exposes the worst responder.
        let r0 = records(&sim, 0);
        assert!(r0.len() >= 2);
        assert!(
            r0.iter().any(|rec| rec.fouls & (1 << 3) != 0),
            "agent 3 flagged: {r0:?}"
        );
        for i in 0..3 {
            let p = sim.process_as::<AuthorityProcess>(ProcessId(i)).unwrap();
            assert!(p.punished()[3], "agent 3 disconnected at p{i}");
            assert!(!p.punished()[i], "honest agents stay");
        }
    }

    #[test]
    fn convicting_more_than_f_selfish_agents_keeps_the_clock() {
        // Two worst responders at (4, 1): both are convicted, yet their
        // processors follow the protocol, so they stay clock voters and
        // OM sources and relays. Dropping their claims would leave two
        // voters, below the n − f = 3 quorum, and stall the clock.
        let modulus = period();
        let mut behaviors = vec![Behavior::honest_pure(0); 4];
        behaviors[2] = Behavior::worst_response();
        behaviors[3] = Behavior::worst_response();
        let mut sim = run_plays(behaviors, modulus * 3, 1);
        for i in 0..4 {
            let p = sim.process_as::<AuthorityProcess>(ProcessId(i)).unwrap();
            assert_eq!(p.punished(), [false, false, true, true], "p{i}");
        }
        for period in 0..200 {
            let before: Vec<usize> = (0..4).map(|i| records(&sim, i).len()).collect();
            sim.run(modulus);
            for (i, &len) in before.iter().enumerate() {
                assert_eq!(records(&sim, i).len(), len + 1, "p{i}, period {period}");
            }
        }
        assert!(records_agree(&sim, 0..4), "identical play records");
    }

    /// An honest (4, 1) cluster after ten plays, when processor 0's
    /// executive flag for honest agent 1 is flipped: a transient fault in
    /// state that no agreement covers.
    fn flip_after_ten_plays(seed: u64) -> Simulation {
        let mut sim = run_plays(vec![Behavior::honest_pure(0); 4], 0, seed);
        sim.run_until(1_000, |sim| records(sim, 0).len() == 10)
            .expect("ten plays");
        let p0 = sim.process_as_mut::<AuthorityProcess>(ProcessId(0));
        p0.unwrap().executive.convict(1);
        sim
    }

    #[test]
    fn a_flipped_flag_and_a_crash_keep_the_clock() {
        // With processor 3 crashed as well, processors 0–2 are the only
        // voters, exactly the n − f = 3 quorum: processor 0 must keep
        // counting processor 1's claims whatever it thinks of agent 1.
        let modulus = period();
        for seed in 0..3 {
            let mut sim = flip_after_ten_plays(seed);
            sim.disconnect(ProcessId(3));
            sim.run(modulus * 200);
            for i in 0..3 {
                let plays = records(&sim, i).len() - 10;
                assert_eq!(plays, 200, "p{i}, seed {seed}: one play a period");
            }
        }
    }

    #[test]
    #[ignore = "divergence: ROADMAP item 2(c)"]
    fn a_flipped_flag_heals() {
        // The flag is local and never agreed, so processor 0 records the
        // null action for agent 1 in every later play.
        let modulus = period();
        let mut sim = flip_after_ten_plays(0);
        sim.run(modulus * 50);
        let tails: Vec<&[PlayRecord]> = (0..4)
            .map(|i| {
                let r = records(&sim, i);
                &r[r.len() - 2..]
            })
            .collect();
        assert!(tails.windows(2).all(|w| w[0] == w[1]), "{tails:?}");
    }

    #[test]
    fn equivocal_reveal_is_caught() {
        let modulus = period();
        let sim = run_plays(
            one_deviant(4, 1, Behavior::equivocator(0, 1)),
            modulus * 3 + 2,
            7,
        );
        let r0 = records(&sim, 0);
        assert!(!r0.is_empty());
        assert!(
            r0[0].fouls & (1 << 1) != 0,
            "bad opening flagged in the first play: {r0:?}"
        );
    }

    #[test]
    fn mute_agent_is_flagged_but_system_continues() {
        let modulus = period();
        let sim = run_plays(one_deviant(4, 3, Behavior::silent()), modulus * 4 + 2, 9);
        let r0 = records(&sim, 0);
        assert!(r0.len() >= 2, "plays continue");
        assert!(r0[0].fouls & (1 << 3) != 0, "mute agent flagged");
        // Later plays still complete among the survivors.
        assert!(r0.last().unwrap().fouls & 0b0111 == 0);
    }

    #[test]
    fn fault_threshold_gates_false_accusations() {
        // One Byzantine agent frames agent 0 in every foul agreement.
        // With f = 1, its lone vote is below the f+1 conviction quorum
        // and agent 0 survives; with f = 0 the same single accusation
        // convicts — resilience degrades with the threshold exactly as
        // the paper states it. (Regression: `f` used to be dead state,
        // so both configurations behaved identically.)
        for (f, framed) in [(1usize, false), (0usize, true)] {
            let behaviors = one_deviant(4, 3, Behavior::framer(0));
            let cluster = AuthorityCluster::new(congestion(4), f).modes(behaviors);
            let mut sim = build_authority_sim(&cluster, 13);
            sim.run(cluster.play_len() * 3 + 2);
            let r1 = records(&sim, 1);
            assert!(r1.len() >= 2, "plays complete at f={f}");
            assert_eq!(
                r1.iter().any(|rec| rec.fouls & 1 != 0),
                framed,
                "agent 0 framed iff f=0 (f={f}): {r1:?}"
            );
            let convictions = r1.iter().filter(|rec| rec.fouls & 1 != 0).count();
            assert!(
                convictions <= 1,
                "a persistent accuser must not re-stamp the foul into \
                 later records (f={f}): {r1:?}"
            );
            for i in 1..3 {
                let p = sim.process_as::<AuthorityProcess>(ProcessId(i)).unwrap();
                assert_eq!(p.punished()[0], framed, "p{i} punished agent 0 (f={f})");
            }
        }
    }

    #[test]
    fn out_of_range_reveal_is_quarantined_not_laundered() {
        // A reveal naming an action outside the agent's space must be
        // quarantined as foul evidence — never silently become the null
        // action in the outcome. (Regression: it used to sit in
        // `reveals` and be mapped to 0 with no foul whenever the foul
        // agreement had not decided.)
        let mut p = AuthorityProcess::new(congestion(4), 0, 4, 1, Behavior::honest_pure(0), 1);
        p.harvest_reveal(2, 9, Opening::from_nonce([0u8; 32]));
        assert_eq!(p.play.invalid, 1 << 2, "quarantined, not stored");
        assert!(p.play.reveals[2].is_none());
        assert!(
            p.local_foul_mask() & (1 << 2) != 0,
            "invalid reveal is proposed as a foul"
        );
        // Conviction flows only through the agreed quorum: with BA 3
        // undecided the executive must NOT punish unilaterally (a
        // selectively delivered reveal would otherwise split honest
        // executives' state) — but the quarantine still keeps the
        // invalid action out of the outcome.
        p.conclude_play();
        let rec = p.records().last().unwrap();
        assert_eq!(rec.outcome.action(2), 0, "never adopted as an outcome");
        assert!(!p.punished()[2], "no unilateral conviction");
        // An in-range reveal still lands in the outcome path.
        p.harvest_reveal(1, 1, Opening::from_nonce([1u8; 32]));
        assert_eq!(p.play.reveals[1].map(|(a, _)| a), Some(1));
    }

    /// An authority processor that keeps a copy of every message it hears.
    struct Tap {
        inner: AuthorityProcess,
        heard: Vec<Vec<u8>>,
    }

    impl Process for Tap {
        fn on_pulse(&mut self, ctx: &mut Context<'_>) {
            self.heard
                .extend(ctx.inbox().iter().map(|m| m.bytes().to_vec()));
            self.inner.on_pulse(ctx);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Every frame processor 0 of an all-honest `(n, f)` cluster hears in
    /// one play.
    fn one_play_of_frames(n: usize, f: usize) -> Vec<Vec<u8>> {
        let cluster = AuthorityCluster::new(congestion(n), f);
        let mut sim = Simulation::builder(Topology::complete(n))
            .seed(1)
            .build_with(|id| {
                let inner = AuthorityProcess::new(
                    congestion(n),
                    id.index(),
                    n,
                    f,
                    Behavior::honest_pure(0),
                    1,
                );
                Box::new(Tap {
                    inner,
                    heard: Vec::new(),
                })
            });
        sim.run(cluster.play_len() + 1);
        let tap = sim.process_as_mut::<Tap>(ProcessId(0)).unwrap();
        std::mem::take(&mut tap.heard)
    }

    /// What a fresh processor harvests from `body`, sent by processor 1.
    fn harvested(body: &[u8]) -> (Option<Commitment>, Option<usize>, u64) {
        let mut p = AuthorityProcess::new(congestion(4), 0, 4, 1, Behavior::honest_pure(0), 1);
        p.harvest(1, body);
        (
            p.play.commitments[1],
            p.play.reveals[1].map(|(a, _)| a),
            p.play.invalid,
        )
    }

    #[test]
    fn a_frame_cut_short_yields_its_claim_and_drops_its_body_whole() {
        // Every frame of an honest play at (4, 1) and (7, 2) — claims
        // alone, agreement rounds, commits and reveals — cut at every
        // byte: the claim is read iff its varint is whole, and a commit or
        // reveal is harvested iff its body is. (An agreement body's parts
        // are `consensus`'s test.) Then random bytes, a commit or reveal
        // tag in front of half of them: nothing panics, and a harvest
        // needs a body of exactly the right length.
        use ga_clocksync::process::ClockProcess;
        use rand::{RngCore, SeedableRng};
        let mut bodies = 0;
        for (n, f) in [(4, 1), (7, 2)] {
            let frames = one_play_of_frames(n, f);
            assert_eq!(
                frames.len() as u64,
                (n as u64 - 1) * (AuthorityCluster::new(congestion(n), f).play_len()),
                "one frame a peer a pulse"
            );
            for frame in &frames {
                let (claim, body) = ClockProcess::decode(frame).expect("an honest frame claims");
                let claim_len = frame.len() - body.len();
                let whole = harvested(body);
                if whole != harvested(&[]) {
                    bodies += 1;
                }
                for cut in 0..frame.len() {
                    let read = ClockProcess::decode(&frame[..cut]);
                    assert_eq!(read.map(|(c, _)| c), (cut >= claim_len).then_some(claim));
                    if let Some((_, body)) = read {
                        assert_eq!(harvested(body), harvested(&[]), "cut at {cut} of {frame:?}");
                    }
                }
            }
        }
        assert_eq!(bodies, 2 * (3 + 6), "a commit and a reveal from each peer");
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0D1);
        for _ in 0..4000 {
            let mut body = vec![0u8; rng.gen_range(0..40)];
            rng.fill_bytes(&mut body);
            if let Some(first) = body.first_mut().filter(|_| rng.gen_bool(0.5)) {
                *first = [tag::COMMIT, tag::REVEAL][rng.gen_range(0..2usize)];
            }
            let (commitment, reveal, invalid) = harvested(&body);
            assert!(commitment.is_none() || body.len() == 33, "{body:?}");
            assert!(
                reveal.is_none() && invalid == 0 || body.len() >= 34,
                "{body:?}"
            );
        }
    }

    /// The inline audit `local_foul_mask` ran before it was routed
    /// through `judicial::audit_play`, kept as the reference (the
    /// best-response test stated through `is_best_response`).
    fn ref_foul_mask(p: &AuthorityProcess) -> u64 {
        use ga_game_theory::best_response::is_best_response;
        let mut mask = 0u64;
        for agent in 0..p.n {
            if !p.executive.is_active(agent) {
                continue; // already out; no fresh foul
            }
            if p.play.invalid & (1 << agent) != 0 {
                mask |= 1 << agent; // revealed outside the action space
                continue;
            }
            let fouled = match (&p.play.commitments[agent], &p.play.reveals[agent]) {
                (Some(c), Some((action, opening))) => {
                    if c.verify(&action_bytes(*action), opening).is_err()
                        || *action >= p.game.num_actions(agent)
                    {
                        true
                    } else if let Some(prev) = p.records.last() {
                        let played = prev.outcome.with_action(agent, *action);
                        !is_best_response(p.game.as_ref(), agent, &played)
                    } else {
                        false
                    }
                }
                _ => true, // missing commitment or reveal
            };
            if fouled {
                mask |= 1 << agent;
            }
        }
        mask
    }

    #[test]
    fn local_foul_mask_equals_the_reference_audit_on_random_play_states() {
        use rand::SeedableRng;
        let n = 4;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xF001);
        let mut seen = std::collections::HashSet::new();
        for case in 0..2000 {
            let mut p = AuthorityProcess::new(congestion(n), 0, n, 1, Behavior::honest_pure(0), 1);
            if rng.gen_bool(0.7) {
                let outcome = PureProfile::new((0..n).map(|_| rng.gen_range(0..2)).collect());
                p.records.push(PlayRecord { outcome, fouls: 0 });
            }
            for agent in 0..n {
                if rng.gen_bool(0.2) {
                    p.executive.convict(agent);
                }
                if rng.gen_bool(0.3) {
                    p.play.invalid |= 1 << agent; // with or without a reveal below
                }
                // Action 2 is outside the space: committed and opened
                // faithfully, only the range audit catches it.
                let committed = rng.gen_range(0..3);
                let (c, o) = Commitment::commit(&action_bytes(committed), [rng.gen::<u8>(); 32]);
                if rng.gen_bool(0.8) {
                    p.play.commitments[agent] = Some(c);
                }
                if rng.gen_bool(0.8) {
                    // One time in five, a bad opening.
                    let revealed = (committed + usize::from(rng.gen_bool(0.2))) % 3;
                    p.play.reveals[agent] = Some((revealed, o));
                }
            }
            let mask = p.local_foul_mask();
            assert_eq!(mask, ref_foul_mask(&p), "case {case}: {:?}", p.play);
            seen.insert(mask);
        }
        assert_eq!(seen.len(), 16, "every foul mask occurred");
    }

    #[test]
    fn out_of_range_revealer_is_convicted_by_quorum() {
        // End to end: agent 3 commits to (and faithfully reveals) an
        // action outside its space, so the commitment verifies and only
        // the range audit can catch it. Every honest auditor proposes
        // the foul, the quorum convicts, and the outcome records the
        // null action — identically everywhere.
        let modulus = period();
        let sim = run_plays(one_deviant(4, 3, Behavior::illegal(2)), modulus * 3 + 2, 21);
        let r0 = records(&sim, 0);
        assert!(!r0.is_empty());
        assert_eq!(
            r0[0].fouls & (1 << 3),
            1 << 3,
            "convicted in play 0: {r0:?}"
        );
        assert_eq!(r0[0].outcome.action(3), 0, "never adopted as an outcome");
        assert!(records_agree(&sim, 0..3), "identical play records");
        for i in 0..3 {
            let p = sim.process_as::<AuthorityProcess>(ProcessId(i)).unwrap();
            assert!(p.punished()[3], "agent 3 disconnected at p{i}");
        }
    }

    #[test]
    #[should_panic(
        expected = "n=13, f=4: the largest agreement message exceeds the 65535-byte frame limit"
    )]
    fn process_refuses_a_size_whose_frames_cannot_be_carried() {
        AuthorityProcess::new(congestion(13), 0, 13, 4, Behavior::honest_pure(0), 1);
    }

    #[test]
    #[should_panic(
        expected = "n=13, f=4: the largest agreement message exceeds the 65535-byte frame limit"
    )]
    fn cluster_refuses_a_size_whose_frames_cannot_be_carried() {
        // Regression: this legal (n > 3f) cluster used to build, then
        // panic inside the frame encoder on its first level-4 relay.
        let _ = AuthorityCluster::new(congestion(13), 4);
    }

    #[test]
    #[should_panic(expected = "mixed agents need the distributed seed audit of ROADMAP item 3(b)")]
    fn cluster_refuses_a_mixed_strategy() {
        let _ =
            AuthorityCluster::new(congestion(4), 1).mode(2, Behavior::honest_mixed(vec![0.5, 0.5]));
    }

    #[test]
    #[should_panic(expected = "framer target 4 ≥ n=4")]
    fn cluster_refuses_a_framer_whose_target_is_not_an_agent() {
        let _ = AuthorityCluster::new(congestion(4), 1).mode(2, Behavior::framer(4));
    }

    #[test]
    fn three_faults_fit_the_frame_up_to_twenty_two_agents() {
        for (n, f, fits) in [(17, 3, true), (22, 3, true), (23, 3, false), (13, 4, false)] {
            let refused = std::panic::catch_unwind(|| assert_size_supported(n, f)).is_err();
            assert_eq!(!refused, fits, "n={n} f={f}");
        }
    }

    #[test]
    fn thirteen_agents_three_faults_complete_a_correct_play() {
        let n = 13;
        let cluster = AuthorityCluster::new(congestion(n), 3);
        let mut sim = build_authority_sim(&cluster, 17);
        sim.run(cluster.play_len() + 1);
        let r0 = records(&sim, 0);
        assert_eq!(r0.len(), 1, "one play completed");
        assert_eq!(r0[0].fouls, 0, "no honest fouls");
        assert!(records_agree(&sim, 0..n), "identical play records");
    }

    #[test]
    fn a_play_runs_one_agreement_and_its_idle_windows_carry_claims_alone() {
        // Every frame carries what its sender's claim schedules: the
        // commit body, the reveal body or BA 3's frame in their phases and
        // nothing past the claim elsewhere; BA 3's last round resolves and
        // sends nothing. An activation put back into a claim-only window,
        // or a second agreement tag, fails here. The bytes of each phase
        // are `tests/play_cost.rs`'s, against `scripts/play_cost.py`.
        for (n, f) in [(4, 1), (10, 3)] {
            let r = om::rounds(f);
            for frame in one_play_of_frames(n, f) {
                let (claim, body) = ga_clocksync::process::ClockProcess::decode(&frame)
                    .expect("an honest frame claims");
                let scheduled = match AuthorityProcess::phase_of(r, claim) {
                    Phase::Commit => Some(tag::COMMIT),
                    Phase::Reveal => Some(tag::REVEAL),
                    Phase::Agree(k) if k + 1 < r => Some(tag::BA),
                    _ => None,
                };
                assert_eq!(
                    body.first().copied(),
                    scheduled,
                    "(n={n}, f={f}): the body of a frame claiming {claim}"
                );
            }
        }
    }

    /// The clock trap's adversary (ROADMAP item 15). Stateless: it never
    /// reads its inbox, and every pulse it claims 0 to processor 0, whose
    /// clock the trap holds at 1, and 5 to every other processor.
    struct Pinner;

    impl ga_simnet::adversary::Adversary for Pinner {
        fn act(&mut self, ctx: &mut Context<'_>) {
            use ga_clocksync::process::ClockProcess;
            for &to in ctx.neighbors() {
                let claim = if to == 0 { 0 } else { 5 };
                ctx.send(ProcessId(to), ClockProcess::encode(claim));
            }
        }
    }

    /// The first of `build`'s seeds whose honest clocks read
    /// `[1, 0, …, 0]` after pulse 0. Pulse 0 hears nothing, so processor
    /// 0, started at 1, flips a coin between keeping 1 and 0; the trap
    /// starts where it kept 1.
    fn enter_trap(
        build: impl Fn(u64) -> Simulation,
        clocks: impl Fn(&Simulation) -> Vec<u64>,
    ) -> Simulation {
        (0..64)
            .map(|seed| {
                let mut sim = build(seed);
                sim.step();
                sim
            })
            .find(|sim| {
                let values = clocks(sim);
                values[0] == 1 && values[1..].iter().all(|&v| v == 0)
            })
            .expect("a coin keeps 1 within 64 seeds")
    }

    #[test]
    #[ignore = "trap: ROADMAP item 15"]
    fn pinners_cannot_hold_the_honest_clocks_apart() {
        // Processor 0 counts n − 1 zeros and adopts 0 + 1 = 1. Every other
        // honest processor counts n − f − 1 zeros, below the quorum, and
        // its coin picks between 0 and 0: a fixed point.
        use ga_clocksync::process::ClockProcess;
        use ga_simnet::adversary::ByzantineProcess;
        let mut held = Vec::new();
        for (n, f) in [(4, 1), (7, 2), (10, 3)] {
            let honest = n - f;
            let clocks = |sim: &Simulation| -> Vec<u64> {
                (0..honest)
                    .map(|i| {
                        let p = sim.process_as::<ClockProcess>(ProcessId(i));
                        p.unwrap().value()
                    })
                    .collect()
            };
            let build = |seed| {
                Simulation::builder(Topology::complete(n))
                    .seed(seed)
                    .build_with(|id| match id.index() {
                        i if i < honest => Box::new(ClockProcess::new(n, f, 13, u64::from(i == 0))),
                        _ => Box::new(ByzantineProcess::new(Box::new(Pinner))),
                    })
            };
            let mut sim = enter_trap(build, clocks);
            let synced = sim.run_until(10_000, |sim| clocks(sim).windows(2).all(|w| w[0] == w[1]));
            if synced.is_none() {
                held.push(((n, f), clocks(&sim)));
            }
        }
        assert!(held.is_empty(), "held apart for 10 000 pulses: {held:?}");
    }

    #[test]
    #[ignore = "trap: ROADMAP item 15"]
    fn a_pinned_authority_still_records_plays() {
        use ga_simnet::adversary::ByzantineProcess;
        let cluster = AuthorityCluster::new(congestion(4), 1);
        let clocks = |sim: &Simulation| -> Vec<u64> {
            (0..3)
                .map(|i| {
                    let p = sim.process_as::<AuthorityProcess>(ProcessId(i));
                    p.unwrap().clock_value()
                })
                .collect()
        };
        let build = |seed| {
            let mut sim = Simulation::builder(Topology::complete(4))
                .seed(seed)
                .build_with(|id| match id.index() {
                    3 => Box::new(ByzantineProcess::new(Box::new(Pinner))),
                    i => cluster.process(i, seed),
                });
            let p0 = sim.process_as_mut::<AuthorityProcess>(ProcessId(0));
            p0.unwrap().clock.set_arbitrary(1);
            sim
        };
        let mut sim = enter_trap(build, clocks);
        let played = sim.run_until(10_000, |sim| (0..3).any(|i| !records(sim, i).is_empty()));
        assert!(
            played.is_some(),
            "no play in 10 000 pulses; clocks {:?}",
            clocks(&sim)
        );
    }

    #[test]
    fn recovers_from_transient_fault() {
        let n = 4;
        let modulus = period();
        let mut sim = build_authority_sim(&AuthorityCluster::new(congestion(n), 1), 11);
        sim.run(modulus * 2);
        sim.corrupt(&CorruptionFamily::total(0xFA11));
        // Give the clock time to re-synchronize, then verify fresh plays
        // complete identically everywhere.
        sim.run(modulus * 60);
        let len_before: Vec<usize> = (0..n).map(|i| records(&sim, i).len()).collect();
        sim.run(modulus * 3);
        for (i, &before) in len_before.iter().enumerate() {
            assert!(records(&sim, i).len() > before, "plays resumed at p{i}");
        }
        // Post-recovery records agree on the last 2 entries.
        let tails: Vec<Vec<PlayRecord>> = (0..n)
            .map(|i| {
                let r = records(&sim, i);
                r[r.len().saturating_sub(2)..].to_vec()
            })
            .collect();
        assert!(tails.windows(2).all(|w| w[0] == w[1]), "{tails:?}");
    }
}
