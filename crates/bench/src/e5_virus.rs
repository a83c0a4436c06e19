//! E5 — price of malice in the virus inoculation game (\[21\]) and its
//! collapse under the game authority.
//!
//! Three regimes on a `side × side` grid:
//!
//! 1. **baseline** — all agents honest-selfish: best-response dynamics to a
//!    pure equilibrium; per-capita honest cost is the reference.
//! 2. **malicious, unsupervised** — `k` malicious agents *claim* to be
//!    inoculated but stay insecure. Honest agents best-respond to the
//!    *claimed* profile; costs are then realized on the *actual* profile
//!    (enlarged insecure components).
//! 3. **malicious, supervised** — the authority's commit–reveal audit
//!    exposes the lie; the executive disconnects the liars (their cells are
//!    quarantined, acting as blocked cells for the spread), and honest
//!    agents re-equilibrate among themselves.
//!
//! The price of malice is the per-capita honest cost ratio vs. baseline.

use ga_game_theory::best_response::best_response;
use ga_game_theory::game::Game;
use ga_game_theory::profile::PureProfile;
use ga_games::virus_inoculation::{VirusGame, INOCULATE, RISK};

/// E5 outcome for one malicious count `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct VirusPoint {
    /// Malicious agent count.
    pub k: usize,
    /// Per-capita honest cost, baseline (no malice).
    pub baseline: f64,
    /// Per-capita honest cost with `k` unsupervised malicious agents.
    pub unsupervised: f64,
    /// Per-capita honest cost with the authority supervising.
    pub supervised: f64,
    /// PoM without supervision.
    pub pom_unsupervised: f64,
    /// PoM with supervision.
    pub pom_supervised: f64,
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

/// Runs one grid configuration for several malicious counts.
pub fn run(side: usize, cost_c: f64, loss_l: f64, ks: &[usize]) -> Vec<VirusPoint> {
    let game = VirusGame::new(side, cost_c, loss_l);
    let n = game.n();
    let all: Vec<usize> = (0..n).collect();

    // Baseline equilibrium among all agents.
    let baseline_profile = converge(&game, PureProfile::new(vec![RISK; n]), &all, 200);
    let per_capita_baseline = game.social_cost(&baseline_profile) / n as f64;

    ks.iter()
        .map(|&k| {
            let malicious = malicious_set(n, k);
            let honest: Vec<usize> = (0..n).filter(|i| !malicious.contains(i)).collect();

            // -- Unsupervised: honest best-respond to the *claimed* profile
            // (malicious appear inoculated)…
            let mut claimed = PureProfile::new(vec![RISK; n]);
            for &m in &malicious {
                claimed = claimed.with_action(m, INOCULATE);
            }
            let perceived = converge(&game, claimed, &honest, 200);
            // …but reality has the malicious insecure.
            let mut actual = perceived.clone();
            for &m in &malicious {
                actual = actual.with_action(m, RISK);
            }
            let honest_cost_unsup: f64 =
                honest.iter().map(|&i| game.cost(i, &actual)).sum::<f64>() / honest.len() as f64;

            // -- Supervised: liars disconnected; quarantined cells block
            // the spread (modelled as inoculated cells whose cost nobody
            // pays), honest re-equilibrate.
            let mut quarantined = PureProfile::new(vec![RISK; n]);
            for &m in &malicious {
                quarantined = quarantined.with_action(m, INOCULATE);
            }
            let supervised_profile = converge(&game, quarantined, &honest, 200);
            let honest_cost_sup: f64 = honest
                .iter()
                .map(|&i| game.cost(i, &supervised_profile))
                .sum::<f64>()
                / honest.len() as f64;

            VirusPoint {
                k,
                baseline: per_capita_baseline,
                unsupervised: honest_cost_unsup,
                supervised: honest_cost_sup,
                pom_unsupervised: honest_cost_unsup / per_capita_baseline,
                pom_supervised: honest_cost_sup / per_capita_baseline,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Not a paper claim, so no verdict states it: the helper is private
    // and its picks do not reach `VirusPoint`.
    #[test]
    fn malicious_set_is_spread_and_sized() {
        let set = malicious_set(36, 4);
        assert_eq!(set.len(), 4);
        assert_eq!(set, vec![0, 9, 18, 27]);
    }
}
