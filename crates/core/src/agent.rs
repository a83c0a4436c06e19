//! Agent behaviours, and the one function that turns them into submissions.
//!
//! The paper's population is "honest but selfish" agents plus a Byzantine
//! minority. [`Behavior`] captures both: the honest strategies the
//! middleware certifies, and the attack repertoire the judicial service
//! must catch — each [`BehaviorKind`] maps onto the verdict that exposes
//! it.
//!
//! Both authorities build every commitment and reveal through
//! `Agent::submit`: the centralized engine keeps one `Agent` per
//! player, each distributed processor one for its own player.

use ga_crypto::commitment::Commitment;
use ga_crypto::prg::{CommittedPrg, Prg};
use ga_game_theory::best_response::{best_response, best_responses};
use ga_game_theory::game::Game;
use ga_game_theory::profile::PureProfile;

use crate::judicial::{action_bytes, audit_epoch, Submission, Verdict};

/// What an agent does each play.
#[derive(Debug, Clone, PartialEq)]
pub enum BehaviorKind {
    /// Honest pure strategist: best response to the previous outcome
    /// (`initial` before any outcome exists) — exactly §3.3's honest agent.
    HonestPure {
        /// Action for the first play.
        initial: usize,
    },
    /// Honest mixed strategist: samples the claimed strategy from a
    /// committed PRG (§5.3).
    HonestMixed {
        /// The mixed strategy, as action weights.
        strategy: Vec<f64>,
    },
    /// Fig. 1's manipulator: claims `claimed` but always plays
    /// `manipulation`. Caught by the support audit
    /// ([`Verdict::OutsideClaimedSupport`](crate::judicial::Verdict)).
    HiddenManipulator {
        /// The strategy it claims to play.
        claimed: Vec<f64>,
        /// The hidden strategy it actually plays.
        manipulation: usize,
    },
    /// The subtle manipulator: samples its committed PRG honestly but
    /// overrides the outcome with `preferred` whenever they differ. Caught
    /// by the end-of-epoch seed audit
    /// ([`Verdict::SeedMismatch`](crate::judicial::Verdict)).
    SubtleManipulator {
        /// The strategy it claims (and whose support it stays inside).
        claimed: Vec<f64>,
        /// The action it substitutes for honest samples.
        preferred: usize,
    },
    /// Commits to one action, reveals another
    /// ([`Verdict::BadOpening`](crate::judicial::Verdict)).
    Equivocator {
        /// The action it actually reveals.
        reveal: usize,
        /// The action it commits to.
        commit: usize,
    },
    /// Commits but never reveals
    /// ([`Verdict::MissingReveal`](crate::judicial::Verdict)).
    NoReveal {
        /// The action it commits to (and hides forever).
        action: usize,
    },
    /// Sends nothing at all
    /// ([`Verdict::MissingCommitment`](crate::judicial::Verdict)).
    Silent,
    /// Plays an out-of-range action
    /// ([`Verdict::IllegalAction`](crate::judicial::Verdict)).
    Illegal {
        /// The illegal action index.
        action: usize,
    },
    /// Follows the protocol but plays the smallest action that is *not* a
    /// best response to the previous outcome (action 0 before any outcome
    /// exists) — §3.2's foul
    /// ([`Verdict::NotBestResponse`](crate::judicial::Verdict)).
    WorstResponse,
    /// Plays like `HonestPure { initial: 0 }`, but its distributed foul-set
    /// proposal always accuses `target`; the conviction quorum of more than
    /// `f` votes keeps it harmless. The centralized engine has no vote to
    /// forge, so there it is honest.
    Framer {
        /// The agent it accuses.
        target: usize,
    },
    /// Plays like `HonestPure { initial: 0 }`, but its distributed reveal
    /// reaches only the processors outside `withhold_from`. The centralized
    /// engine has no channel to withhold on, so there it is honest.
    SelectiveReveal {
        /// The processors that never receive its reveal, as a bitmask.
        withhold_from: u64,
    },
    /// Plays like `HonestPure { initial: 0 }`, but its distributed commit
    /// phase sends the processors in `split` a commitment to a second
    /// opening (the next action under the same nonce); every processor
    /// receives the reveal of the first. Honest in the centralized engine,
    /// like `SelectiveReveal`.
    SplitCommit {
        /// The processors that receive the second commitment, as a
        /// bitmask.
        split: u64,
    },
}

/// An agent's behaviour, with constructors for every kind.
#[derive(Debug, Clone, PartialEq)]
pub struct Behavior {
    kind: BehaviorKind,
}

impl Behavior {
    fn of(kind: BehaviorKind) -> Behavior {
        Behavior { kind }
    }

    /// Honest pure strategist (best-responder).
    pub fn honest_pure(initial: usize) -> Behavior {
        Behavior::of(BehaviorKind::HonestPure { initial })
    }

    /// Honest mixed strategist with PRG-committed sampling.
    pub fn honest_mixed(strategy: Vec<f64>) -> Behavior {
        Behavior::of(BehaviorKind::HonestMixed { strategy })
    }

    /// Fig. 1 manipulator: claims `claimed`, always plays `manipulation`.
    pub fn hidden_manipulator(claimed: Vec<f64>, manipulation: usize) -> Behavior {
        Behavior::of(BehaviorKind::HiddenManipulator {
            claimed,
            manipulation,
        })
    }

    /// Seed-cheating manipulator staying inside the claimed support.
    pub fn subtle_manipulator(claimed: Vec<f64>, preferred: usize) -> Behavior {
        Behavior::of(BehaviorKind::SubtleManipulator { claimed, preferred })
    }

    /// Commit/reveal equivocator.
    pub fn equivocator(commit: usize, reveal: usize) -> Behavior {
        Behavior::of(BehaviorKind::Equivocator { reveal, commit })
    }

    /// Commits but never reveals.
    pub fn no_reveal(action: usize) -> Behavior {
        Behavior::of(BehaviorKind::NoReveal { action })
    }

    /// Completely silent.
    pub fn silent() -> Behavior {
        Behavior::of(BehaviorKind::Silent)
    }

    /// Plays an illegal action index.
    pub fn illegal(action: usize) -> Behavior {
        Behavior::of(BehaviorKind::Illegal { action })
    }

    /// Plays the smallest non-best response.
    pub fn worst_response() -> Behavior {
        Behavior::of(BehaviorKind::WorstResponse)
    }

    /// Plays honestly, accuses `target` in every foul agreement.
    pub fn framer(target: usize) -> Behavior {
        Behavior::of(BehaviorKind::Framer { target })
    }

    /// Plays honestly, withholds its reveal from the processors in
    /// `withhold_from`.
    pub fn selective_reveal(withhold_from: u64) -> Behavior {
        Behavior::of(BehaviorKind::SelectiveReveal { withhold_from })
    }

    /// Plays honestly, commits to a second opening toward the processors in
    /// `split`.
    pub fn split_commit(split: u64) -> Behavior {
        Behavior::of(BehaviorKind::SplitCommit { split })
    }

    /// The behaviour kind.
    pub fn kind(&self) -> &BehaviorKind {
        &self.kind
    }

    /// Whether this behaviour is one of the honest ones.
    pub fn is_honest(&self) -> bool {
        matches!(
            self.kind,
            BehaviorKind::HonestPure { .. } | BehaviorKind::HonestMixed { .. }
        )
    }

    /// The mixed strategy this behaviour *claims*, if it claims one.
    pub fn claimed_strategy(&self) -> Option<&[f64]> {
        match &self.kind {
            BehaviorKind::HonestMixed { strategy } => Some(strategy),
            BehaviorKind::HiddenManipulator { claimed, .. } => Some(claimed),
            BehaviorKind::SubtleManipulator { claimed, .. } => Some(claimed),
            _ => None,
        }
    }
}

/// Per play, the strategy an agent claimed and the action it played.
type Transcript = Vec<(Vec<f64>, usize)>;

const NO_SAMPLER: &str = "a mixed behaviour needs a committed PRG";

/// One agent's side of every play: its [`Behavior`] and the randomness it
/// commits with.
#[derive(Debug, Clone)]
pub(crate) struct Agent {
    me: usize,
    behavior: Behavior,
    /// Commitment nonces (never audited, unlike the sampler's draws).
    nonces: Prg,
    /// The committed PRG mixed strategies sample from, and the
    /// `(claimed, played)` transcript the epoch audit replays. Boxed: the
    /// PRG state is ~350 bytes, and a distributed processor holds `None`.
    sampler: Option<Box<(CommittedPrg, Transcript)>>,
}

impl Agent {
    /// Agent `me` playing `behavior`, committing with `nonces`, sampling
    /// mixed strategies from `sampler`.
    pub(crate) fn new(
        me: usize,
        behavior: Behavior,
        nonces: Prg,
        sampler: Option<CommittedPrg>,
    ) -> Agent {
        Agent {
            me,
            behavior,
            nonces,
            sampler: sampler.map(|prg| Box::new((prg, Vec::new()))),
        }
    }

    /// The behaviour this agent plays.
    pub(crate) fn behavior(&self) -> &Behavior {
        &self.behavior
    }

    /// This play's submission against the previous outcome `prev`, and
    /// the action it reveals (`None` when it reveals none).
    ///
    /// # Panics
    ///
    /// Panics if the behaviour claims a mixed strategy and the agent was
    /// built without a sampler.
    pub(crate) fn submit(
        &mut self,
        game: &dyn Game,
        prev: Option<&PureProfile>,
    ) -> (Submission, Option<usize>) {
        let me = self.me;
        let actions = game.num_actions(me);
        let best_or = |initial: usize| match prev {
            Some(prev) => best_response(game, me, prev),
            None => initial.min(actions - 1),
        };
        let honest = |action| (Some(action), Some(action), None);
        // A mixed kind plays `play(sample)` for a sample of its committed
        // PRG over `weights`, and records it against `claimed`.
        let sampler = self.sampler.as_mut();
        let mixed = |weights: &[f64], claimed: &[f64], play: &dyn Fn(usize) -> usize| {
            let (prg, transcript) = &mut **sampler.expect(NO_SAMPLER);
            let action = play(prg.sample(weights));
            transcript.push((claimed.to_vec(), action));
            (Some(action), Some(action), Some(claimed.to_vec()))
        };
        // (committed action, revealed action, claimed strategy)
        let (committed, revealed, claimed) = match &self.behavior.kind {
            BehaviorKind::HonestPure { initial } => honest(best_or(*initial)),
            BehaviorKind::Framer { .. }
            | BehaviorKind::SelectiveReveal { .. }
            | BehaviorKind::SplitCommit { .. } => honest(best_or(0)),
            BehaviorKind::WorstResponse => honest(prev.map_or(0, |prev| {
                let best = best_responses(game, me, prev);
                (0..actions).find(|a| !best.contains(a)).unwrap_or(0)
            })),
            BehaviorKind::HonestMixed { strategy } => mixed(strategy, strategy, &|sample| sample),
            // Burns a sample to look busy, plays the hidden strategy.
            BehaviorKind::HiddenManipulator {
                claimed,
                manipulation,
            } => mixed(&pad(claimed, actions), claimed, &|_| *manipulation),
            // Claims its sample was `preferred`: the seed replay at epoch
            // end says otherwise.
            BehaviorKind::SubtleManipulator { claimed, preferred } => {
                mixed(&pad(claimed, actions), claimed, &|_| {
                    (*preferred).min(actions - 1)
                })
            }
            BehaviorKind::Equivocator { reveal, commit } => (Some(*commit), Some(*reveal), None),
            BehaviorKind::NoReveal { action } => (Some(*action), None, None),
            BehaviorKind::Silent => (None, None, None),
            BehaviorKind::Illegal { action } => honest(*action),
        };
        let opened = committed
            .map(|action| Commitment::commit(&action_bytes(action), self.nonces.next_block()));
        let submission = Submission {
            commitment: opened.map(|(c, _)| c),
            reveal: revealed.zip(opened).map(|(action, (_, o))| (action, o)),
            claimed_strategy: claimed,
        };
        (submission, revealed)
    }

    /// §5.3's end-of-epoch audit against `seed_commitment`, published
    /// before play; `Honest` for a behaviour that claims no mixed strategy.
    pub(crate) fn audit_epoch(&self, seed_commitment: Commitment) -> Verdict {
        match &self.sampler {
            Some(sampler) if self.behavior.claimed_strategy().is_some() => {
                audit_epoch(seed_commitment, sampler.0.reveal(), &sampler.1)
            }
            _ => Verdict::Honest,
        }
    }
}

/// Pads a claimed strategy to the game's action count (missing weights are
/// zero) so sampling never indexes out of range.
fn pad(weights: &[f64], len: usize) -> Vec<f64> {
    let mut w = weights.to_vec();
    w.resize(len.max(weights.len()), 0.0);
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honesty_classification() {
        assert!(Behavior::honest_pure(0).is_honest());
        assert!(Behavior::honest_mixed(vec![0.5, 0.5]).is_honest());
        assert!(!Behavior::hidden_manipulator(vec![0.5, 0.5], 2).is_honest());
        assert!(!Behavior::silent().is_honest());
        assert!(!Behavior::equivocator(0, 1).is_honest());
        assert!(!Behavior::worst_response().is_honest());
        assert!(!Behavior::framer(0).is_honest());
        assert!(!Behavior::selective_reveal(0b10).is_honest());
        assert!(!Behavior::split_commit(0b10).is_honest());
    }

    #[test]
    fn claimed_strategies() {
        assert_eq!(
            Behavior::honest_mixed(vec![0.3, 0.7]).claimed_strategy(),
            Some([0.3, 0.7].as_slice())
        );
        assert_eq!(Behavior::honest_pure(0).claimed_strategy(), None);
        assert!(Behavior::subtle_manipulator(vec![0.5, 0.5], 0)
            .claimed_strategy()
            .is_some());
    }
}
