//! The reference game-authority engine.
//!
//! Runs the complete play protocol of §3.3 — commit, reveal, audit,
//! punish, publish — with real cryptography but abstracted transport (the
//! distributed transport lives in [`distributed`](crate::distributed)).
//! This is the engine behind the paper's *reduced price of malice* claims:
//! experiments E2 and E5 run it with and without manipulators and compare
//! the honest agents' costs.
//!
//! Per play:
//!
//! 1. every active agent picks an action (per its
//!    [`Behavior`], through `Agent::submit`) and
//!    publishes a commitment;
//! 2. after all commitments are in, agents reveal;
//! 3. the judicial service audits (legitimacy, opening, best response /
//!    claimed support);
//! 4. the executive service punishes the fouls and publishes the outcome
//!    into the hash-chained log;
//! 5. every `epoch_len` plays, mixed strategies undergo the §5.3 seed
//!    audit.
//!
//! A play is *void* (no outcome, zero costs) when some agent that should
//! have played failed to produce a legal revealed action — the honest
//! majority then plays the next round against the last valid outcome.

use ga_crypto::commitment::Commitment;
use ga_crypto::prg::{CommittedPrg, Prg};
use ga_game_theory::game::Game;
use ga_game_theory::profile::PureProfile;

use crate::agent::{Agent, Behavior};
use crate::executive::{Executive, Punishment};
use crate::judicial::{audit_play_with, Submission, Verdict};

/// Configuration of the reference engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AuthorityConfig {
    /// Punishment scheme the executive applies.
    pub punishment: Punishment,
    /// Mixed-strategy seed audits run every this many plays.
    pub epoch_len: u64,
    /// Master seed for all agent randomness (nonces, PRG seeds).
    pub seed: u64,
    /// Whether the judicial service audits at all — `false` models the
    /// unsupervised baseline the PoM experiments compare against.
    pub audits_enabled: bool,
    /// Whether mixed strategies get the per-play support check, or only
    /// the deferred end-of-epoch seed audit (§5.3's efficiency variant) —
    /// the E8 ablation's knob.
    pub per_play_support_audit: bool,
}

impl Default for AuthorityConfig {
    fn default() -> Self {
        AuthorityConfig {
            punishment: Punishment::Disconnect,
            epoch_len: 16,
            seed: 0,
            audits_enabled: true,
            per_play_support_audit: true,
        }
    }
}

/// What one play produced.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Play number, starting at 0.
    pub round: u64,
    /// Revealed actions (None: inactive, silent, or unrevealed).
    pub actions: Vec<Option<usize>>,
    /// Judicial verdicts for this play.
    pub verdicts: Vec<Verdict>,
    /// Agents newly punished this play.
    pub punished: Vec<usize>,
    /// The play outcome — `None` when the play was void.
    pub outcome: Option<PureProfile>,
    /// Per-agent raw game costs (0 for void plays and inactive agents).
    pub costs: Vec<f64>,
}

/// The reference game authority.
pub struct Authority<'g> {
    game: &'g dyn Game,
    agents: Vec<Agent>,
    executive: Executive,
    config: AuthorityConfig,
    /// Public seed commitments of the agents' committed PRGs, published
    /// before play started.
    seed_commitments: Vec<Commitment>,
    prev_outcome: Option<PureProfile>,
    round: u64,
}

impl std::fmt::Debug for Authority<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Authority")
            .field("game", &self.game.name())
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl<'g> Authority<'g> {
    /// Sets up the authority for `game` with one behaviour per agent.
    ///
    /// # Panics
    ///
    /// Panics if the behaviour count differs from the game's agent count.
    pub fn new(game: &'g dyn Game, behaviors: Vec<Behavior>, config: AuthorityConfig) -> Self {
        assert_eq!(behaviors.len(), game.num_agents(), "one behavior per agent");
        let n = behaviors.len();
        let mut agents = Vec::with_capacity(n);
        let mut seed_commitments = Vec::with_capacity(n);
        for (i, behavior) in behaviors.into_iter().enumerate() {
            let mut boot = Prg::from_seed_material(b"ga-authority-agent", config.seed ^ i as u64);
            let seed = boot.next_block();
            let nonce = boot.next_block();
            let sampler = CommittedPrg::new(seed, nonce);
            seed_commitments.push(sampler.commitment());
            let nonces =
                Prg::from_seed_material(b"ga-authority-nonce", config.seed ^ (i as u64) << 8);
            agents.push(Agent::new(i, behavior, nonces, Some(sampler)));
        }
        Authority {
            game,
            agents,
            executive: Executive::new(n, config.punishment),
            config,
            seed_commitments,
            prev_outcome: None,
            round: 0,
        }
    }

    /// The executive ledger (punishments, fines, the outcome log).
    pub fn executive(&self) -> &Executive {
        &self.executive
    }

    /// Plays played so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Runs one play of the protocol.
    pub fn play_round(&mut self) -> RoundReport {
        let n = self.agents.len();
        let active: Vec<bool> = (0..n).map(|i| self.executive.is_active(i)).collect();

        // Phase 1+2: per-agent action choice, commitment, reveal.
        let mut submissions = Vec::with_capacity(n);
        let mut actions: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            if !active[i] {
                submissions.push(Submission {
                    commitment: None,
                    reveal: None,
                    claimed_strategy: None,
                });
                continue;
            }
            let (submission, action) = self.agents[i].submit(self.game, self.prev_outcome.as_ref());
            actions[i] = action;
            submissions.push(submission);
        }

        // Phase 3: judicial audit.
        let punished_flags: Vec<bool> = active.iter().map(|a| !a).collect();
        let mut verdicts = if self.config.audits_enabled {
            audit_play_with(
                self.game,
                self.prev_outcome.as_ref(),
                &submissions,
                &punished_flags,
                self.config.per_play_support_audit,
            )
        } else {
            (0..n)
                .map(|i| {
                    if active[i] {
                        Verdict::Honest
                    } else {
                        Verdict::AlreadyPunished
                    }
                })
                .collect()
        };

        // Epoch-end mixed audit (§5.3).
        if self.config.audits_enabled && (self.round + 1).is_multiple_of(self.config.epoch_len) {
            for i in (0..n).filter(|&i| active[i]) {
                if verdicts[i].is_honest() {
                    verdicts[i] = self.agents[i].audit_epoch(self.seed_commitments[i]);
                }
            }
        }

        // Phase 4: executive punishment + outcome publication.
        let punished = self.executive.apply_verdicts(&verdicts);

        // A play is valid when every agent active at its start revealed a
        // legal action.
        let outcome = if (0..n)
            .all(|i| !active[i] || matches!(actions[i], Some(a) if a < self.game.num_actions(i)))
            && active.iter().all(|&a| a)
        {
            Some(PureProfile::new(
                actions.iter().map(|a| a.expect("all revealed")).collect(),
            ))
        } else {
            None
        };

        let costs: Vec<f64> = match &outcome {
            Some(profile) => (0..n).map(|i| self.game.cost(i, profile)).collect(),
            None => vec![0.0; n],
        };

        if let Some(profile) = &outcome {
            self.executive.publish_outcome(self.round, profile);
            self.prev_outcome = Some(profile.clone());
        }

        let report = RoundReport {
            round: self.round,
            actions,
            verdicts,
            punished,
            outcome,
            costs,
        };
        self.round += 1;
        report
    }

    /// Runs `rounds` plays, returning all reports.
    pub fn play(&mut self, rounds: u64) -> Vec<RoundReport> {
        (0..rounds).map(|_| self.play_round()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_games::matching_pennies::{manipulated_matching_pennies, MANIPULATE};
    use ga_games::prisoners_dilemma;

    #[test]
    fn honest_pure_agents_converge_to_equilibrium_play() {
        let g = prisoners_dilemma();
        let mut auth = Authority::new(
            &g,
            vec![Behavior::honest_pure(0), Behavior::honest_pure(0)],
            AuthorityConfig::default(),
        );
        let reports = auth.play(5);
        for r in &reports {
            assert!(r.verdicts.iter().all(|v| v.is_honest()), "{:?}", r.verdicts);
            assert!(r.outcome.is_some());
        }
        // After round 0, best responses lock into (D, D).
        assert_eq!(
            reports[2].outcome.as_ref().unwrap(),
            &PureProfile::new(vec![1, 1])
        );
    }

    #[test]
    fn hidden_manipulator_caught_and_disconnected_immediately() {
        let g = manipulated_matching_pennies();
        let mut auth = Authority::new(
            &g,
            vec![
                Behavior::honest_mixed(vec![0.5, 0.5]),
                Behavior::hidden_manipulator(vec![0.5, 0.5, 0.0], MANIPULATE),
            ],
            AuthorityConfig::default(),
        );
        let r0 = auth.play_round();
        assert_eq!(r0.verdicts[1], Verdict::OutsideClaimedSupport);
        assert_eq!(r0.punished, vec![1]);
        assert!(!auth.executive().is_active(1));
        // Subsequent plays are void (a 2-player game cannot proceed), so
        // the honest agent stops bleeding utility.
        let r1 = auth.play_round();
        assert!(r1.outcome.is_none());
        assert_eq!(r1.costs[0], 0.0);
    }

    #[test]
    fn subtle_manipulator_caught_at_epoch_end() {
        let g = manipulated_matching_pennies();
        let config = AuthorityConfig {
            epoch_len: 8,
            ..AuthorityConfig::default()
        };
        let mut auth = Authority::new(
            &g,
            vec![
                Behavior::honest_mixed(vec![0.5, 0.5]),
                // Claims uniform over H/T but always reveals Heads.
                Behavior::subtle_manipulator(vec![0.5, 0.5], 0),
            ],
            config,
        );
        let reports = auth.play(8);
        // Before the epoch ends, the support audit passes (Heads is in the
        // claimed support) — the manipulation is invisible per-round.
        for r in &reports[..7] {
            assert!(r.verdicts[1].is_honest(), "{:?}", r.verdicts);
        }
        // Epoch end: the seed replay exposes the substitution (it can only
        // escape if all eight honest samples were Heads — probability
        // 1/256, excluded by the fixed seed).
        assert_eq!(reports[7].verdicts[1], Verdict::SeedMismatch);
        assert!(!auth.executive().is_active(1));
    }

    #[test]
    fn unsupervised_baseline_never_punishes() {
        let g = manipulated_matching_pennies();
        let config = AuthorityConfig {
            audits_enabled: false,
            ..AuthorityConfig::default()
        };
        let mut auth = Authority::new(
            &g,
            vec![
                Behavior::honest_mixed(vec![0.5, 0.5]),
                Behavior::hidden_manipulator(vec![0.5, 0.5, 0.0], MANIPULATE),
            ],
            config,
        );
        let reports = auth.play(50);
        assert!(reports.iter().all(|r| r.punished.is_empty()));
        // The honest agent keeps paying: average cost strictly positive
        // (expected +4 per round in cost terms).
        let total: f64 = reports.iter().map(|r| r.costs[0]).sum();
        assert!(total > 0.0, "A bleeds {total}");
    }

    #[test]
    fn equivocator_and_no_reveal_are_fouls() {
        let g = prisoners_dilemma();
        let mut auth = Authority::new(
            &g,
            vec![Behavior::equivocator(0, 1), Behavior::no_reveal(1)],
            AuthorityConfig::default(),
        );
        let r = auth.play_round();
        assert_eq!(r.verdicts[0], Verdict::BadOpening);
        assert_eq!(r.verdicts[1], Verdict::MissingReveal);
        assert!(r.outcome.is_none(), "void play");
    }

    #[test]
    fn fine_scheme_keeps_agents_playing() {
        let g = prisoners_dilemma();
        let config = AuthorityConfig {
            punishment: Punishment::Fine(5.0),
            ..AuthorityConfig::default()
        };
        let mut auth = Authority::new(
            &g,
            vec![Behavior::honest_pure(1), Behavior::equivocator(0, 1)],
            config,
        );
        auth.play(3);
        assert!(auth.executive().is_active(1));
        assert_eq!(auth.executive().fine(1), 15.0);
    }

    #[test]
    fn outcome_log_verifies_after_many_plays() {
        let g = prisoners_dilemma();
        let mut auth = Authority::new(
            &g,
            vec![Behavior::honest_pure(0), Behavior::honest_pure(1)],
            AuthorityConfig::default(),
        );
        auth.play(10);
        assert!(auth.executive().log().verify().is_ok());
        assert_eq!(auth.executive().log().len(), 10);
    }
}
