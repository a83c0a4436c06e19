//! The paper's experiments (`ga-bench` e1–e8), the legislative service's
//! election and three `examples/` walkthroughs, re-expressed as scenarios.
//!
//! Each port is a *thin* definition: it calls the shared experiment
//! implementation in `ga-bench` (or the middleware directly), lifts the
//! result into [`RunRecord`] metrics, and states the paper's claim as a
//! verdict. The sweep engine then gives every experiment seed fan-out,
//! parallelism and deterministic JSON summaries for free — replacing the
//! eight hand-rolled harness `main`s as the way to vary and batch them.
//! Each claim is asserted here and nowhere else; `tests/scenario_suite.rs`
//! and the tests below run every port.

use std::sync::Arc;

use ga_agreement::harness::Backend;
use ga_bench::{
    e1_fig1, e2_pom_pennies, e3_rra, e4_ssba, e5_virus, e6_overhead, e7_dynamics, e8_audit_cadence,
};
use ga_games::matching_pennies::{manipulated_matching_pennies, MANIPULATE};
use ga_games::prisoners_dilemma;
use ga_games::resource_allocation::RraProcess;
use game_authority::agent::Behavior;
use game_authority::authority::{Authority, AuthorityConfig};
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

/// E1 — Fig. 1's payoff matrix and §5.1 expected profits (seed-free).
pub fn e1_fig1_port() -> Arc<dyn Scenario> {
    port("e1_fig1", |_seed, r| {
        let out = e1_fig1::run();
        let (ea, eb) = out.expected[2];
        r.metric("a_vs_manipulate", ea)
            .metric("b_manipulate_gain", eb)
            .require(
                out.matrix[0] == vec![(1.0, -1.0), (-1.0, 1.0), (1.0, -1.0)]
                    && out.matrix[1] == vec![(-1.0, 1.0), (1.0, -1.0), (-9.0, 9.0)],
                "payoff matrix deviates from Fig. 1",
            )
            .require(
                out.expected[0] == (0.0, 0.0) && out.expected[1] == (0.0, 0.0),
                "honest columns should break even",
            )
            .require(
                (ea, eb) == (-4.0, 4.0),
                "manipulation should move (A, B) to (-4, +4)",
            );
    })
}

/// E2 — price of malice on Fig. 1's game across the three regimes (§5.4).
pub fn e2_pom_port() -> Arc<dyn Scenario> {
    port("e2_pom_pennies", |seed, r| {
        let rounds = 200u64;
        let out = e2_pom_pennies::run(rounds, seed);
        let unsupervised = &out.regimes[0];
        let disconnect = &out.regimes[1];
        let fine = &out.regimes[2];
        let per_round_loss = -unsupervised.honest_payoff / rounds as f64;
        r.metric("baseline_honest_payoff", out.baseline_honest_payoff)
            .metric("unsupervised_loss_per_round", per_round_loss)
            .metric("disconnect_honest_payoff", disconnect.honest_payoff)
            .metric("fine_manipulator_payoff", fine.manipulator_payoff)
            .metric(
                "disconnect_detected_at",
                disconnect.detected_at.map_or(-1.0, |d| d as f64),
            )
            .require(
                out.baseline_honest_payoff.abs() / (rounds as f64) < 0.5,
                "honest play should be near-fair",
            )
            .require(
                unsupervised.detected_at.is_none() && per_round_loss > 2.5,
                "unsupervised manipulation should bleed A ≈ 4/round",
            )
            .require(
                disconnect.detected_at == Some(0),
                "the support audit should catch B in the first play",
            )
            .require(
                -disconnect.honest_payoff <= 10.0,
                "disconnection should cap A's damage at one play",
            )
            .require(
                unsupervised.honest_payoff < 10.0 * disconnect.honest_payoff.min(-0.01),
                "the authority should shrink A's damage by more than 10x",
            )
            .require(
                fine.manipulator_payoff < 0.0,
                "fines should make manipulation unprofitable",
            );
    })
}

/// E3 — Theorem 5 / Lemma 6: RRA multi-round anarchy cost bounds.
pub fn e3_rra_port() -> Arc<dyn Scenario> {
    port("e3_rra_bounds", |seed, r| {
        // Held through k = 2000, the bound puts R(2000) within 1 + 2b/2000
        // (≤ 1.004) of optimal.
        let points = e3_rra::run(&[(4, 2), (8, 4)], &[10, 100, 1000, 2000], seed);
        for p in &points {
            if p.k == 1000 {
                r.metric(format!("ratio_n{}_b{}_k1000", p.n, p.b), p.ratio);
            }
            r.require(
                p.bounds_held_throughout,
                "R(k) ≤ 1 + 2b/k and Δ(k) < 2n − 1 must hold at every k",
            );
        }
        let late = points.iter().filter(|p| p.k == 1000);
        for p in late {
            r.require(
                p.ratio < 1.05,
                "R(1000) should be close to 1 (asymptotic optimality)",
            );
        }
    })
}

/// E4 — Lemma 2 / Theorem 1: SSBA convergence and closure.
pub fn e4_ssba_port() -> Arc<dyn Scenario> {
    port("e4_ssba_stabilization", |seed, r| {
        // Enough trials a seed that the seed's draw is not the figure: at
        // 256 the per-seed `mean_pulses` spans 3.09–3.93 over 32 seeds,
        // where 2 trials spanned 1–5.5 over 16.
        let trials = 256u32;
        let points = e4_ssba::run_convergence(&[(4, 1)], trials, 300_000, seed);
        let p = &points[0];
        r.metric("mean_pulses", p.mean_pulses)
            .metric("max_pulses", p.max_pulses as f64)
            .metric("converged", p.converged as f64)
            .require(
                p.converged == trials,
                "every trial should converge within the pulse budget",
            )
            .require(
                p.mean_pulses > 0.0,
                "a scrambled start should take pulses to converge",
            );
        let (recovered, plays) = e4_ssba::run_closure(4, 1, seed);
        r.metric("plays_after_fault", plays as f64).require(
            recovered && plays >= 2,
            "closure: agreement logs should realign after a total fault",
        );
    })
}

/// E5 — price of malice in the virus inoculation game (seed-free).
pub fn e5_virus_port() -> Arc<dyn Scenario> {
    port("e5_virus_pom", |_seed, r| {
        let points = e5_virus::run(5, 1.0, 25.0, &[0, 3, 6]);
        r.require(
            (points[0].pom_unsupervised - 1.0).abs() < 1e-9,
            "k = 0 must reproduce the baseline",
        )
        .require(
            points[1].pom_unsupervised < points[2].pom_unsupervised,
            "unsupervised, the price of malice should grow with k",
        );
        for p in &points[1..] {
            r.metric(format!("pom_unsupervised_k{}", p.k), p.pom_unsupervised)
                .metric(format!("pom_supervised_k{}", p.k), p.pom_supervised)
                .require(
                    p.pom_unsupervised > 1.0,
                    "unsupervised malice should degrade honest welfare",
                )
                .require(
                    p.pom_supervised < p.pom_unsupervised,
                    "the authority should reduce the price of malice",
                )
                .require(
                    p.pom_supervised < 1.2,
                    "supervised, the price of malice should collapse to ≈ 1",
                );
        }
    })
}

/// E6 — per-consensus protocol cost of the authority's agreement backends
/// (§3.3). At n = 4, 7, 13 OM and Dolev–Strong both run at f = 1, 2, 2, so
/// 7 → 13 is each one's growth in n at a fixed f.
pub fn e6_overhead_port() -> Arc<dyn Scenario> {
    port("e6_authority_overhead", |seed, r| {
        let points = e6_overhead::run(&[4, 7, 13], seed);
        for p in &points {
            r.metric(
                format!("{}_n{}_messages", p.backend.label(), p.n),
                p.messages as f64,
            )
            .metric(
                format!("{}_n{}_bytes", p.backend.label(), p.n),
                p.bytes as f64,
            )
            .require(p.agreement, "every backend must reach agreement");
        }
        let of = |backend| -> Vec<_> { points.iter().filter(|p| p.backend == backend).collect() };
        let (om, ds) = (of(Backend::Om), of(Backend::DolevStrong));
        r.require(
            om[1].bytes > om[0].bytes * 4,
            "OM's byte cost should grow super-linearly with n",
        )
        .require(
            om[2].bytes > om[1].bytes * 5,
            "at f = 2 OM's bytes should grow like n³ ((13/7)³ ≈ 6.4)",
        )
        .require(
            om.iter().zip(&ds).all(|(om, ds)| ds.bytes > om.bytes * 2),
            "with honest sources Dolev–Strong's signed chains should cost over \
             twice OM's bytes",
        );
    })
}

/// E7 — RRA load-gap trajectories: honest / cheated / supervised.
pub fn e7_dynamics_port() -> Arc<dyn Scenario> {
    port("e7_rra_dynamics", |seed, r| {
        let out = e7_dynamics::run(5, 2, &[1, 100, 500], seed);
        let last = out.checkpoints.len() - 1;
        r.metric("honest_gap_final", out.honest[last] as f64)
            .metric("cheated_gap_final", out.cheated[last] as f64)
            .metric("supervised_gap_final", out.supervised[last] as f64)
            .metric("envelope", out.envelope as f64)
            .require(
                out.honest[last] <= out.envelope,
                "honest play must stay inside Lemma 6's envelope",
            )
            .require(
                out.cheated[last] > out.envelope,
                "an unsupervised cheater should push Δ(k) past the envelope",
            )
            .require(
                out.supervised[last] < out.cheated[last] / 2,
                "disconnecting the cheater should collapse the gap",
            )
            .require(
                out.supervised[last] <= out.envelope,
                "disconnecting the cheater should bring Δ(k) back inside the envelope",
            );
    })
}

/// E8 — audit-cadence ablation: detection latency vs. audit work (§5.3).
pub fn e8_cadence_port() -> Arc<dyn Scenario> {
    port("e8_audit_cadence", |seed, r| {
        let points = e8_audit_cadence::run(64, seed);
        let mut latencies = Vec::new();
        for p in &points {
            let label = if p.epoch_len == 1 {
                "per_play".to_string()
            } else {
                format!("epoch{}", p.epoch_len)
            };
            r.metric(
                format!("detected_at_{label}"),
                p.detected_at.map_or(-1.0, |d| d as f64),
            )
            .metric(format!("audit_ops_{label}"), p.audit_ops as f64)
            .require(
                p.detected_at.is_some(),
                "every cadence must detect eventually",
            );
            latencies.extend(p.detected_at);
        }
        let (per_play, longest) = (&points[0], &points[points.len() - 1]);
        r.require(
            per_play.detected_at == Some(0),
            "the per-play audit should detect in play 0",
        )
        .require(
            per_play.honest_loss_until_detection <= 10.0,
            "the per-play audit should cap A's loss at one play",
        )
        .require(
            points[1..]
                .iter()
                .all(|p| p.detected_at == Some(p.epoch_len - 1)),
            "a deferred audit should detect at the first epoch boundary",
        )
        .require(
            latencies.windows(2).all(|w| w[0] <= w[1]),
            "detection latency should grow with the epoch length",
        )
        .require(
            longest.honest_loss_until_detection > per_play.honest_loss_until_detection,
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
        let behaviors = || {
            vec![
                Behavior::honest_mixed(vec![0.5, 0.5]),
                Behavior::hidden_manipulator(vec![0.5, 0.5, 0.0], MANIPULATE),
            ]
        };
        let rounds = 100u64;
        let mut unsupervised = Authority::new(
            &game,
            behaviors(),
            AuthorityConfig {
                audits_enabled: false,
                seed,
                ..AuthorityConfig::default()
            },
        );
        let a_loss: f64 = unsupervised
            .play(rounds)
            .iter()
            .map(|rep| rep.costs[0])
            .sum();

        let mut supervised = Authority::new(
            &game,
            behaviors(),
            AuthorityConfig {
                seed,
                ..AuthorityConfig::default()
            },
        );
        let reports = supervised.play(rounds);
        let a_loss_supervised: f64 = reports.iter().map(|rep| rep.costs[0]).sum();
        let caught = reports
            .iter()
            .find(|rep| rep.punished.contains(&1))
            .map(|rep| rep.round);

        r.metric("a_loss_unsupervised", a_loss)
            .metric("a_loss_supervised", a_loss_supervised)
            .metric("caught_at", caught.map_or(-1.0, |c| c as f64))
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
        let reports = cheated.play(3);
        let caught = reports
            .iter()
            .find(|rep| rep.punished.contains(&1))
            .map(|rep| rep.round);
        r.metric("equivocator_caught_at", caught.map_or(-1.0, |c| c as f64))
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

    #[test]
    fn records_are_deterministic_per_seed() {
        let s = e2_pom_port();
        assert_eq!(s.run(11), s.run(11));
    }
}
