//! The paper's experiments (e1–e8), the legislative service's election
//! and three `examples/` walkthroughs, as scenarios.
//!
//! Each port runs its experiment on the middleware and the games crates,
//! records what it measured as [`RunRecord`] metrics, and states the
//! paper's claim as a verdict. The sweep engine then gives every
//! experiment seed fan-out, parallelism and deterministic JSON summaries.
//! Each claim is asserted here and nowhere else; `tests/scenario_suite.rs`
//! and the tests below run every port, and tier1 holds the `paper` and
//! `examples` summaries to `tests/golden/`.

use std::sync::Arc;

use ga_agreement::harness::{run_consensus, Backend};
use ga_clocksync::harness::{measure_convergence_with, run_ssba};
use ga_game_theory::best_response::best_response;
use ga_game_theory::game::Game;
use ga_game_theory::profile::{MixedStrategy, PureProfile};
use ga_games::matching_pennies::{
    fig1_expected_payoffs, manipulated_matching_pennies, HEADS, MANIPULATE, TAILS,
};
use ga_games::prisoners_dilemma;
use ga_games::resource_allocation::{RraBehavior, RraProcess};
use ga_games::virus_inoculation::{VirusGame, INOCULATE, RISK};
use game_authority::agent::Behavior;
use game_authority::authority::{Authority, AuthorityConfig, RoundReport};
use game_authority::executive::Punishment;
use game_authority::legislative::{distributed_election, tally, Ballot, SealedBallot, VotingRule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

use crate::record::{FnScenario, RunRecord, Scenario};

fn port(
    name: &'static str,
    f: impl Fn(u64, &mut RunRecord) + Send + Sync + 'static,
) -> Arc<dyn Scenario> {
    Arc::new(FnScenario::new(name, move |seed| {
        let mut record = RunRecord::new(name, seed);
        f(seed, &mut record);
        record
    }))
}

/// Fig. 1's authority: A mixes honestly over Heads and Tails, and B hides
/// the manipulation behind the same mixture (§5.1).
fn fig1_authority(game: &dyn Game, config: AuthorityConfig) -> Authority<'_> {
    let behaviors = vec![
        Behavior::honest_mixed(vec![0.5, 0.5]),
        Behavior::hidden_manipulator(vec![0.5, 0.5, 0.0], MANIPULATE),
    ];
    Authority::new(game, behaviors, config)
}

/// The play in which agent 1 was first punished.
fn caught_at(reports: &[RoundReport]) -> Option<u64> {
    reports
        .iter()
        .find(|rep| rep.punished.contains(&1))
        .map(|rep| rep.round)
}

/// A play number as a metric: −1 for never.
fn play_metric(play: Option<u64>) -> f64 {
    play.map_or(-1.0, |p| p as f64)
}

/// E1 — Fig. 1's payoff matrix and §5.1 expected profits (seed-free):
/// against A's honest uniform mixture, B's manipulation lifts B from 0 to
/// +4 and drops A from 0 to −4.
pub fn e1_fig1_port() -> Arc<dyn Scenario> {
    port("e1_fig1", |_seed, r| {
        let game = manipulated_matching_pennies();
        let row = |a: usize| -> Vec<(f64, f64)> {
            (0..3)
                .map(|b| {
                    let p = PureProfile::new(vec![a, b]);
                    (-game.cost(0, &p), -game.cost(1, &p))
                })
                .collect()
        };
        let uniform = MixedStrategy::uniform(2);
        let [heads, tails, (ea, eb)] =
            [HEADS, TAILS, MANIPULATE].map(|b| fig1_expected_payoffs(&uniform, b));
        r.metric("a_vs_manipulate", ea)
            .metric("b_manipulate_gain", eb)
            .require(
                row(0) == vec![(1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)]
                    && row(1) == vec![(-1.0, 1.0), (1.0, -1.0), (-9.0, 9.0)],
                "payoff matrix deviates from Fig. 1",
            )
            .require(
                heads == (0.0, 0.0) && tails == (0.0, 0.0),
                "honest columns should break even",
            )
            .require(
                (ea, eb) == (-4.0, 4.0),
                "manipulation should move (A, B) to (-4, +4)",
            );
    })
}

/// E2 — price of malice on Fig. 1's game across three regimes (§5.4):
/// unsupervised (B manipulates every play, A bleeds ≈ 4 a play), the
/// authority disconnecting B at the first audit, and the authority fining
/// B per offense. The malice damage is A's cumulative loss.
pub fn e2_pom_port() -> Arc<dyn Scenario> {
    port("e2_pom_pennies", |seed, r| {
        let rounds = 200u64;
        let game = manipulated_matching_pennies();
        // Baseline: two honest mixers, expected payoff 0 for both.
        let baseline_honest_payoff: f64 = Authority::new(
            &game,
            vec![
                Behavior::honest_mixed(vec![0.5, 0.5]),
                Behavior::honest_mixed(vec![0.5, 0.5, 0.0]),
            ],
            AuthorityConfig {
                seed,
                ..AuthorityConfig::default()
            },
        )
        .play(rounds)
        .iter()
        .map(|rep| -rep.costs[0])
        .sum();
        // A's payoff, B's payoff net of its fines, and the play B was
        // first punished in.
        let regime = |audits_enabled, punishment| {
            let config = AuthorityConfig {
                punishment,
                seed,
                audits_enabled,
                ..AuthorityConfig::default()
            };
            let mut authority = fig1_authority(&game, config);
            let reports = authority.play(rounds);
            let payoff =
                |agent: usize| -> f64 { reports.iter().map(|rep| -rep.costs[agent]).sum() };
            let fined = payoff(1) - authority.executive().fine(1);
            (payoff(0), fined, caught_at(&reports))
        };
        let (unsupervised, _, unsupervised_caught) = regime(false, Punishment::Disconnect);
        let (disconnect, _, disconnect_caught) = regime(true, Punishment::Disconnect);
        let (_, fine_manipulator_payoff, _) = regime(true, Punishment::Fine(6.0));
        let per_round_loss = -unsupervised / rounds as f64;
        r.metric("baseline_honest_payoff", baseline_honest_payoff)
            .metric("unsupervised_loss_per_round", per_round_loss)
            .metric("disconnect_honest_payoff", disconnect)
            .metric("fine_manipulator_payoff", fine_manipulator_payoff)
            .metric("disconnect_detected_at", play_metric(disconnect_caught))
            .require(
                baseline_honest_payoff.abs() / (rounds as f64) < 0.5,
                "honest play should be near-fair",
            )
            .require(
                unsupervised_caught.is_none() && per_round_loss > 2.5,
                "unsupervised manipulation should bleed A ≈ 4/round",
            )
            .require(
                disconnect_caught == Some(0),
                "the support audit should catch B in the first play",
            )
            .require(
                -disconnect <= 10.0,
                "disconnection should cap A's damage at one play",
            )
            .require(
                unsupervised < 10.0 * disconnect.min(-0.01),
                "the authority should shrink A's damage by more than 10x",
            )
            .require(
                fine_manipulator_payoff < 0.0,
                "fines should make manipulation unprofitable",
            );
    })
}

/// E3 — Theorem 5 / Lemma 6: the RRA's measured multi-round anarchy cost
/// `R(k)` against `1 + 2b/k`, and its load gap `Δ(k)` against `2n − 1`.
pub fn e3_rra_port() -> Arc<dyn Scenario> {
    port("e3_rra_bounds", |seed, r| {
        // Held through k = 2000, the bound puts R(2000) within 1 + 2b/2000
        // (≤ 1.004) of optimal.
        let mut late = Vec::new();
        for (n, b) in [(4usize, 2usize), (8, 4)] {
            let mut rng = StdRng::seed_from_u64(seed ^ ((n as u64) << 8) ^ b as u64);
            let stats = RraProcess::new(n, b).play(2000, &mut rng);
            let ratio = stats[999].ratio;
            r.metric(format!("ratio_n{n}_b{b}_k1000"), ratio).require(
                stats
                    .iter()
                    .all(|s| s.ratio <= s.bound + 1e-9 && s.gap < 2 * n as u64),
                "R(k) ≤ 1 + 2b/k and Δ(k) < 2n − 1 must hold at every k",
            );
            late.push(ratio);
        }
        r.require(
            late.iter().all(|&ratio| ratio < 1.05),
            "R(1000) should be close to 1 (asymptotic optimality)",
        );
    })
}

/// E4 — Lemma 2 / Theorem 1: SSBA convergence from scrambled clocks, and
/// closure after a total transient fault.
pub fn e4_ssba_port() -> Arc<dyn Scenario> {
    port("e4_ssba_stabilization", |seed, r| {
        // Enough trials a seed that the seed's draw is not the figure: at
        // 256 the per-seed `mean_pulses` spans 3.09–3.93 over 32 seeds,
        // where 2 trials spanned 1–5.5 over 16.
        let trials = 256u32;
        let (n, f) = (4usize, 1usize);
        let pulses: Vec<u64> = (0..trials)
            .filter_map(|t| {
                let trial_seed = seed ^ ((t as u64) << 32) ^ ((n as u64) << 4) ^ f as u64;
                measure_convergence_with(n, f, f, 8, trial_seed, 300_000)
            })
            .collect();
        let converged = pulses.len() as u32;
        let mean_pulses = pulses.iter().sum::<u64>() as f64 / pulses.len() as f64;
        r.metric("mean_pulses", mean_pulses)
            .metric(
                "max_pulses",
                pulses.iter().copied().max().unwrap_or(0) as f64,
            )
            .metric("converged", converged as f64)
            .require(
                converged == trials,
                "every trial should converge within the pulse budget",
            )
            .require(
                mean_pulses > 0.0,
                "a scrambled start should take pulses to converge",
            );
        let report = run_ssba(n, f, 1, 1500, Some(200), seed);
        let plays = report.logs[0].len();
        r.metric("plays_after_fault", plays as f64).require(
            report.common_suffix(2) && plays >= 2,
            "closure: agreement logs should realign after a total fault",
        );
    })
}

/// Best-response dynamics over a *subset* of agents, with the rest pinned.
fn converge(
    game: &VirusGame,
    mut profile: PureProfile,
    free: &[usize],
    max_sweeps: usize,
) -> PureProfile {
    for _ in 0..max_sweeps {
        let mut changed = false;
        for &agent in free {
            let br = best_response(game, agent, &profile);
            if br != profile.action(agent) {
                profile = profile.with_action(agent, br);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    profile
}

/// Picks `k` malicious agents spread over the grid.
fn malicious_set(n: usize, k: usize) -> Vec<usize> {
    // Evenly strided picks keep them spread out (worst case for honest
    // neighbors, who rely on their claimed inoculation).
    (0..k).map(|i| (i * n) / k.max(1)).collect()
}

/// E5 — price of malice in the virus inoculation game (\[21\]) and its
/// collapse under the authority (seed-free). On a 5 × 5 grid, `k`
/// malicious agents claim to be inoculated but stay insecure, and the
/// honest agents best-respond to the claim. Unsupervised, the costs fall
/// on the actual profile, whose insecure components the lie enlarged.
/// Supervised, the commit–reveal audit exposes the lie and the executive
/// disconnects the liars: their quarantined cells block the spread as the
/// claimed inoculation would have, so the honest agents' equilibrium is
/// the one they reached against the claim. The price of malice is the
/// per-capita honest cost against the all-honest equilibrium's.
pub fn e5_virus_port() -> Arc<dyn Scenario> {
    port("e5_virus_pom", |_seed, r| {
        let game = VirusGame::new(5, 1.0, 25.0);
        let n = game.n();
        let all: Vec<usize> = (0..n).collect();
        let baseline_profile = converge(&game, PureProfile::new(vec![RISK; n]), &all, 200);
        let baseline = game.social_cost(&baseline_profile) / n as f64;
        // (unsupervised, supervised) price of malice with `k` liars.
        let pom = |k: usize| -> (f64, f64) {
            let malicious = malicious_set(n, k);
            let honest: Vec<usize> = (0..n).filter(|i| !malicious.contains(i)).collect();
            let mut claimed = PureProfile::new(vec![RISK; n]);
            for &m in &malicious {
                claimed = claimed.with_action(m, INOCULATE);
            }
            let supervised = converge(&game, claimed, &honest, 200);
            let mut actual = supervised.clone();
            for &m in &malicious {
                actual = actual.with_action(m, RISK);
            }
            let per_capita = |profile: &PureProfile| {
                honest.iter().map(|&i| game.cost(i, profile)).sum::<f64>() / honest.len() as f64
            };
            (
                per_capita(&actual) / baseline,
                per_capita(&supervised) / baseline,
            )
        };
        // u for unsupervised, s for supervised, at k = 0, 3 and 6.
        let [(u0, _), (u3, s3), (u6, s6)] = [0, 3, 6].map(pom);
        r.require((u0 - 1.0).abs() < 1e-9, "k = 0 must reproduce the baseline")
            .require(
                u3 < u6,
                "unsupervised, the price of malice should grow with k",
            );
        for (k, unsupervised, supervised) in [(3, u3, s3), (6, u6, s6)] {
            r.metric(format!("pom_unsupervised_k{k}"), unsupervised)
                .metric(format!("pom_supervised_k{k}"), supervised)
                .require(
                    unsupervised > 1.0,
                    "unsupervised malice should degrade honest welfare",
                )
                .require(
                    supervised < unsupervised,
                    "the authority should reduce the price of malice",
                )
                .require(
                    supervised < 1.2,
                    "supervised, the price of malice should collapse to ≈ 1",
                );
        }
    })
}

/// E6 — per-consensus protocol cost of the authority's agreement backends
/// (§3.3): messages and bytes of one consensus, OM against authenticated
/// Dolev–Strong. At n = 4, 7, 13 both run at f = 1, 2, 2, so 7 → 13 is
/// each one's growth in n at a fixed f.
pub fn e6_overhead_port() -> Arc<dyn Scenario> {
    port("e6_authority_overhead", |seed, r| {
        // Bytes per consensus at n = 4, 7, 13, per backend.
        let (mut om, mut ds) = (Vec::new(), Vec::new());
        for n in [4, 7, 13] {
            for backend in Backend::ALL {
                let f = backend.max_faults(n).min(2);
                let byz: Vec<usize> = (n - f..n).collect();
                let report = run_consensus(backend, n, f, &byz, |i| (i % 2) as u64, seed);
                let label = backend.label();
                r.metric(format!("{label}_n{n}_messages"), report.messages as f64)
                    .metric(format!("{label}_n{n}_bytes"), report.bytes as f64)
                    .require(report.agreement(), "every backend must reach agreement");
                match backend {
                    Backend::Om => om.push(report.bytes),
                    Backend::DolevStrong => ds.push(report.bytes),
                }
            }
        }
        r.require(
            om[1] > om[0] * 4,
            "OM's byte cost should grow super-linearly with n",
        )
        .require(
            om[2] > om[1] * 5,
            "at f = 2 OM's bytes should grow like n³ ((13/7)³ ≈ 6.4)",
        )
        .require(
            om.iter().zip(&ds).all(|(om, ds)| *ds > om * 2),
            "with honest sources Dolev–Strong's signed chains should cost over \
             twice OM's bytes",
        );
    })
}

/// E7 — the RRA's load gap `Δ(k)` after 500 rounds for three populations:
/// all honest, inside Lemma 6's `2n − 1` envelope; a rule-violating
/// cheater (extra demands) unsupervised, whose gap diverges linearly; and
/// the same cheater under the authority, whose legitimate-action audit
/// (§3.2 req. 1) flags the multi-demand in the first play, so the
/// executive disconnects the cheater and the gap re-enters the envelope.
pub fn e7_dynamics_port() -> Arc<dyn Scenario> {
    port("e7_rra_dynamics", |seed, r| {
        let (n, b) = (5usize, 2usize);
        let envelope = 2 * n as u64 - 1;
        let final_gap = |mut rra: RraProcess, disconnect_cheater: bool| -> u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for k in 1..=500 {
                rra.play_round(&mut rng);
                if disconnect_cheater && k == 1 {
                    rra.set_behavior(n - 1, RraBehavior::Disconnected);
                }
            }
            rra.stats().gap
        };
        let honest = final_gap(RraProcess::new(n, b), false);
        // The cheat must outpace the n−1 honest unit demands per round or
        // the water-filling absorbs it; n+2 extra units guarantee
        // divergence.
        let mut behaviors = vec![RraBehavior::NashMixed; n];
        behaviors[n - 1] = RraBehavior::ExtraDemands(n as u32 + 2);
        let cheated = final_gap(RraProcess::with_behaviors(n, b, behaviors.clone()), false);
        let supervised = final_gap(RraProcess::with_behaviors(n, b, behaviors), true);
        r.metric("honest_gap_final", honest as f64)
            .metric("cheated_gap_final", cheated as f64)
            .metric("supervised_gap_final", supervised as f64)
            .metric("envelope", envelope as f64)
            .require(
                honest <= envelope,
                "honest play must stay inside Lemma 6's envelope",
            )
            .require(
                cheated > envelope,
                "an unsupervised cheater should push Δ(k) past the envelope",
            )
            .require(
                supervised < cheated / 2,
                "disconnecting the cheater should collapse the gap",
            )
            .require(
                supervised <= envelope,
                "disconnecting the cheater should bring Δ(k) back inside the envelope",
            );
    })
}

/// E8 — audit-cadence ablation on the Fig. 1 manipulation (§5.3): the
/// paper's per-play support audit against committing to the PRG seed and
/// auditing only at the end of each epoch. It trades detection latency
/// (and A's loss until then) against audit work: one support check per
/// play, or one seed replay of `epoch_len` samples per elapsed epoch.
pub fn e8_cadence_port() -> Arc<dyn Scenario> {
    port("e8_audit_cadence", |seed, r| {
        let rounds = 64u64;
        let game = manipulated_matching_pennies();
        // (epoch_len, play detected in, A's loss until and including it)
        let mut points = Vec::new();
        for epoch_len in [1u64, 2, 4, 8, 16, 32] {
            let per_play = epoch_len == 1;
            let config = AuthorityConfig {
                epoch_len: if per_play { u64::MAX } else { epoch_len },
                seed,
                per_play_support_audit: per_play,
                ..AuthorityConfig::default()
            };
            let reports = fig1_authority(&game, config).play(rounds);
            let detected_at = caught_at(&reports);
            let horizon = detected_at.map_or(rounds, |d| d + 1);
            let loss: f64 = reports
                .iter()
                .take(horizon as usize)
                .map(|rep| rep.costs[0])
                .sum();
            let label = if per_play {
                "per_play".to_string()
            } else {
                format!("epoch{epoch_len}")
            };
            r.metric(format!("detected_at_{label}"), play_metric(detected_at))
                .metric(
                    format!("audit_ops_{label}"),
                    (horizon.div_ceil(epoch_len) * epoch_len) as f64,
                )
                .require(
                    detected_at.is_some(),
                    "every cadence must detect eventually",
                );
            points.push((epoch_len, detected_at, loss));
        }
        let ((_, per_play_detected, per_play_loss), (_, _, longest_loss)) =
            (points[0], points[points.len() - 1]);
        r.require(
            per_play_detected == Some(0),
            "the per-play audit should detect in play 0",
        )
        .require(
            per_play_loss <= 10.0,
            "the per-play audit should cap A's loss at one play",
        )
        .require(
            points[1..]
                .iter()
                .all(|&(epoch_len, detected_at, _)| detected_at == Some(epoch_len - 1)),
            "a deferred audit should detect at the first epoch boundary",
        )
        .require(
            points.windows(2).all(|w| w[0].1 <= w[1].1),
            "detection latency should grow with the epoch length",
        )
        .require(
            longest_loss > per_play_loss,
            "deferring the audit should cost A more than the per-play audit",
        );
    })
}

/// §3.1 — the legislative service elects the game over a Byzantine-agreed
/// ballot set. At (4, 1) and (7, 2), with `f` faulty voters whose ids and
/// faults are drawn from the seed, every voter seals its ballot, the
/// reveals are checked against the seals, and the election must name the
/// winner of the honest ballots and discard exactly the faulty voters.
pub fn legislative_election_port() -> Arc<dyn Scenario> {
    port("legislative_election", |seed, r| {
        const CANDIDATES: usize = 3;
        let mut rng = StdRng::seed_from_u64(seed);
        for (n, f) in [(4usize, 1usize), (7, 2)] {
            let rule = *[
                VotingRule::Plurality,
                VotingRule::Borda,
                VotingRule::InstantRunoff,
            ]
            .choose(&mut rng)
            .expect("three rules");
            let mut faulty: Vec<usize> = (0..n).collect();
            faulty.shuffle(&mut rng);
            faulty.truncate(f);
            faulty.sort_unstable();
            // The first faulty voter withholds its reveal, the others
            // reveal a malformed ballot; with f = 1 the seed picks which.
            let withholder = (f > 1 || seed % 2 == 0).then_some(faulty[0]);

            let mut honest = Vec::new();
            let mut reveals = Vec::with_capacity(n);
            for voter in 0..n {
                let is_faulty = faulty.contains(&voter);
                let ballot = if is_faulty && withholder != Some(voter) {
                    // Out of range, or one candidate ranked twice.
                    Ballot::new(if rng.gen() {
                        vec![CANDIDATES]
                    } else {
                        vec![0, 0]
                    })
                } else {
                    let mut ranking: Vec<usize> = (0..CANDIDATES).collect();
                    ranking.shuffle(&mut rng);
                    Ballot::new(ranking)
                };
                let mut nonce = [0u8; 32];
                rng.fill_bytes(&mut nonce);
                let (seal, opening) = SealedBallot::seal(&ballot, nonce);
                r.require(
                    seal.verify(&ballot, &opening),
                    "a reveal must open its own seal",
                );
                if !is_faulty {
                    honest.push(ballot.clone());
                }
                reveals.push((withholder != Some(voter)).then_some(ballot));
            }

            let expected = tally(rule, &honest, CANDIDATES);
            let elected = distributed_election(rule, &reveals, CANDIDATES, n, f);
            r.metric(
                format!("winner_n{n}"),
                elected.as_ref().map_or(-1.0, |e| e.winner as f64),
            )
            .require(
                elected.as_ref().map(|e| e.winner).ok() == expected.ok(),
                "the elected game should be the tally of the valid ballots",
            )
            .require(
                elected.is_ok_and(|e| e.discarded_voters == faulty),
                "exactly the malformed and withholding voters should be discarded",
            );
        }
    })
}

/// Port of `examples/manipulation_audit.rs`: the Fig. 1 manipulation,
/// unsupervised vs. audited, as one seeded scenario.
pub fn manipulation_audit_port() -> Arc<dyn Scenario> {
    port("example_manipulation_audit", |seed, r| {
        let game = manipulated_matching_pennies();
        let rounds = 100u64;
        let config = |audits_enabled| AuthorityConfig {
            audits_enabled,
            seed,
            ..AuthorityConfig::default()
        };
        let a_loss: f64 = fig1_authority(&game, config(false))
            .play(rounds)
            .iter()
            .map(|rep| rep.costs[0])
            .sum();
        let reports = fig1_authority(&game, config(true)).play(rounds);
        let a_loss_supervised: f64 = reports.iter().map(|rep| rep.costs[0]).sum();
        let caught = caught_at(&reports);

        r.metric("a_loss_unsupervised", a_loss)
            .metric("a_loss_supervised", a_loss_supervised)
            .metric("caught_at", play_metric(caught))
            .require(caught == Some(0), "the audit should expose B in play 0")
            .require(
                a_loss > 2.5 * rounds as f64,
                "without the authority A bleeds ≈ 4/play",
            )
            .require(
                a_loss_supervised < a_loss / 10.0,
                "the authority should reduce malice damage by >10x",
            );
    })
}

/// Port of `examples/rra_consortium.rs`: §6's license consortium under
/// supervised repeated Nash play.
pub fn rra_consortium_port() -> Arc<dyn Scenario> {
    port("example_rra_consortium", |seed, r| {
        let (companies, hosts) = (8usize, 4usize);
        let mut rra = RraProcess::new(companies, hosts);
        let mut rng = StdRng::seed_from_u64(seed);
        let stats = rra.play(5000, &mut rng);
        let last = stats.last().expect("played rounds");
        r.metric("ratio_final", last.ratio)
            .metric("bound_final", last.bound)
            .metric("gap_final", last.gap as f64)
            .require(
                stats
                    .iter()
                    .all(|s| s.ratio <= s.bound + 1e-9 && s.gap < 2 * companies as u64),
                "Theorem 5 / Lemma 6 bounds must hold at every round",
            )
            .require(last.ratio < 1.01, "R(5000) should be within 1% of optimal");
    })
}

/// Port of `examples/quickstart.rs`: the prisoner's dilemma referee, honest
/// and with an equivocating cheat.
pub fn quickstart_port() -> Arc<dyn Scenario> {
    port("example_quickstart_pd", |seed, r| {
        let game = prisoners_dilemma();
        let mut honest = Authority::new(
            &game,
            vec![Behavior::honest_pure(0), Behavior::honest_pure(0)],
            AuthorityConfig {
                seed,
                ..AuthorityConfig::default()
            },
        );
        let honest_reports = honest.play(5);
        r.metric(
            "honest_punishments",
            honest_reports
                .iter()
                .map(|rep| rep.punished.len())
                .sum::<usize>() as f64,
        )
        .require(
            honest_reports.iter().all(|rep| rep.punished.is_empty()),
            "honest play should never be punished",
        );

        let mut cheated = Authority::new(
            &game,
            vec![Behavior::honest_pure(0), Behavior::equivocator(0, 1)],
            AuthorityConfig {
                seed,
                ..AuthorityConfig::default()
            },
        );
        let caught = caught_at(&cheated.play(3));
        r.metric("equivocator_caught_at", play_metric(caught))
            .require(
                caught == Some(0),
                "the judicial service should catch the equivocation in play 0",
            )
            .require(
                !cheated.executive().is_active(1),
                "the executive should disconnect the equivocator",
            );
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_ports_pass_at_several_seeds() {
        for scenario in [
            e1_fig1_port(),
            e3_rra_port(),
            e5_virus_port(),
            e7_dynamics_port(),
            e8_cadence_port(),
            legislative_election_port(),
            quickstart_port(),
        ] {
            for seed in [2010, 7] {
                let r = scenario.run(seed);
                assert!(
                    r.verdict.passed(),
                    "{} failed at seed {seed}: {:?}",
                    scenario.name(),
                    r.verdict
                );
            }
        }
    }

    #[test]
    fn authority_ports_pass() {
        for scenario in [e2_pom_port(), manipulation_audit_port()] {
            let r = scenario.run(2010);
            assert!(r.verdict.passed(), "{}: {:?}", scenario.name(), r.verdict);
            assert!(r.get_metric("caught_at").unwrap_or(0.0) <= 0.0);
        }
    }

    // Not a paper claim, so no verdict states it: the picks do not reach
    // E5's metrics.
    #[test]
    fn malicious_set_is_spread_and_sized() {
        let set = malicious_set(36, 4);
        assert_eq!(set.len(), 4);
        assert_eq!(set, vec![0, 9, 18, 27]);
    }

    #[test]
    fn records_are_deterministic_per_seed() {
        let s = e2_pom_port();
        assert_eq!(s.run(11), s.run(11));
    }
}
