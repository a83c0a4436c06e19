//! The repeated resource allocation (RRA) game of §6.
//!
//! Every round, each of `n` agents places a single unit demand on one of
//! `b` resources; at the end of the round all loads become common
//! knowledge. An agent's cost is the (expected) load of the resource it
//! chose, so the one-shot stage game is a symmetric congestion game whose
//! mixed equilibrium "water-fills" the accumulated loads.
//!
//! The paper's claims, all reproduced by experiment E3:
//!
//! * **Lemma 6** — under repeated Nash play the load gap
//!   `Δ(k) = M(k) − min_a ℓ_a(k)` never exceeds `2n − 1`;
//! * **Theorem 5** — the multi-round anarchy cost satisfies
//!   `R(k) ≤ 1 + 2b/k` for every `k`, hence `R → 1`: supervised RRA is
//!   asymptotically optimal.
//!
//! [`RraProcess`] simulates the repeated dynamics. One round as a `Game`,
//! the stage game an audit of a resource pick needs (a pick is honest iff
//! it is a best response — a least-expected-load resource), is stated in
//! this module's tests only: nothing audits RRA picks until ROADMAP item 4
//! brings the supervised game back.

use rand::Rng;

/// The symmetric mixed equilibrium of the stage game: probabilities `x_a`
/// such that every supported resource has equal expected load
/// `1 + (n−1)·x_a + ℓ_a`, computed by water-filling.
///
/// Returns a probability vector over resources.
pub fn equilibrium_weights(n: usize, loads: &[u64]) -> Vec<f64> {
    assert!(!loads.is_empty());
    if loads.len() == 1 {
        return vec![1.0];
    }
    // Sort resource indices by load; grow the support greedily while the
    // water level exceeds the next resource's floor.
    let mut order: Vec<usize> = (0..loads.len()).collect();
    order.sort_by_key(|&a| loads[a]);
    let nm1 = (n.max(2) - 1) as f64;
    let mut support = 1usize;
    let mut level = loads[order[0]] as f64 + nm1; // c − 1 with s = 1
    for s in 2..=order.len() {
        let sum: f64 = order[..s].iter().map(|&a| loads[a] as f64).sum();
        let candidate = (sum + nm1) / s as f64;
        if candidate > loads[order[s - 1]] as f64 {
            support = s;
            level = candidate;
        } else {
            break;
        }
    }
    let mut weights = vec![0.0; loads.len()];
    for &a in &order[..support] {
        weights[a] = (level - loads[a] as f64) / nm1;
    }
    // Normalize away floating-point drift.
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w = (*w / total).max(0.0);
    }
    weights
}

/// How agents choose resources each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RraBehavior {
    /// Sample the symmetric mixed Nash equilibrium of the stage game — the
    /// paper's "repeated Nash equilibrium; independent in every round".
    NashMixed,
    /// Deterministically pick a least-loaded resource (greedy best
    /// response with index tie-break).
    GreedyLeastLoaded,
    /// Adversarial: pile onto the currently most-loaded resource, trying to
    /// blow up `M(k)` (what a malicious coalition does without supervision).
    PileOnMax,
    /// Rule-violating: place this many unit demands per round instead of
    /// one, all on the most-loaded resource. Violates the paper's
    /// "single unit demand" rule and is exactly what the judicial
    /// service's *legitimate action choice* check catches (§3.2 req. 1).
    ExtraDemands(u32),
    /// Disconnected by the executive service: places no demand at all.
    Disconnected,
}

/// The repeated dynamics: loads, round counter and play rule.
#[derive(Debug, Clone)]
pub struct RraProcess {
    n: usize,
    loads: Vec<u64>,
    rounds: u64,
    /// Per-agent behaviors (length `n`).
    behaviors: Vec<RraBehavior>,
}

/// Per-round observables used by the experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RraRoundStats {
    /// Round index `k` (1-based after the round completes).
    pub k: u64,
    /// Maximum load `M(k)`.
    pub max_load: u64,
    /// Minimum load `m(k)`.
    pub min_load: u64,
    /// Load gap `Δ(k)`.
    pub gap: u64,
    /// Optimal max load `OPT(k) = ⌈nk/b⌉`.
    pub opt: u64,
    /// Multi-round anarchy cost `R(k) = M(k)/OPT(k)`.
    pub ratio: f64,
    /// The paper's bound `1 + 2b/k`.
    pub bound: f64,
}

impl RraProcess {
    /// All agents honest-selfish (Nash mixed), zero initial demand — the
    /// paper's asymptotic setting.
    pub fn new(n: usize, b: usize) -> RraProcess {
        RraProcess::with_behaviors(n, b, vec![RraBehavior::NashMixed; n])
    }

    /// Custom per-agent behaviors (length must be `n`).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or `b < 2`.
    pub fn with_behaviors(n: usize, b: usize, behaviors: Vec<RraBehavior>) -> RraProcess {
        assert!(b >= 2, "need at least two resources");
        assert_eq!(behaviors.len(), n, "one behavior per agent");
        RraProcess {
            n,
            loads: vec![0; b],
            rounds: 0,
            behaviors,
        }
    }

    /// Current loads.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Rounds played so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Executive intervention: replace an agent's behavior mid-run (e.g.
    /// [`RraBehavior::Disconnected`] after a judicial verdict).
    ///
    /// # Panics
    ///
    /// Panics if `agent` is out of range.
    pub fn set_behavior(&mut self, agent: usize, behavior: RraBehavior) {
        self.behaviors[agent] = behavior;
    }

    /// Plays one round; every agent picks per its behavior, simultaneously
    /// (choices see the *pre-round* loads only). Returns the profile.
    pub fn play_round(&mut self, rng: &mut impl Rng) -> Vec<usize> {
        let weights = equilibrium_weights(self.n, &self.loads);
        let least = self.arg_least();
        let most = self.arg_most();
        let choices: Vec<usize> = self
            .behaviors
            .iter()
            .map(|behavior| match behavior {
                RraBehavior::NashMixed => sample(&weights, rng),
                RraBehavior::GreedyLeastLoaded => least,
                RraBehavior::PileOnMax | RraBehavior::ExtraDemands(_) => most,
                RraBehavior::Disconnected => least, // placeholder; no load
            })
            .collect();
        for (behavior, &c) in self.behaviors.iter().zip(&choices) {
            let units = match behavior {
                RraBehavior::ExtraDemands(u) => u64::from(*u),
                RraBehavior::Disconnected => 0,
                _ => 1,
            };
            self.loads[c] += units;
        }
        self.rounds += 1;
        choices
    }

    /// Plays `k` rounds, returning per-round statistics.
    pub fn play(&mut self, k: u64, rng: &mut impl Rng) -> Vec<RraRoundStats> {
        (0..k)
            .map(|_| {
                self.play_round(rng);
                self.stats()
            })
            .collect()
    }

    /// Current round statistics.
    pub fn stats(&self) -> RraRoundStats {
        let k = self.rounds;
        let max_load = *self.loads.iter().max().expect("b ≥ 2");
        let min_load = *self.loads.iter().min().expect("b ≥ 2");
        let b = self.loads.len() as u64;
        let total: u64 = self.loads.iter().sum();
        let opt = total.div_ceil(b).max(1);
        RraRoundStats {
            k,
            max_load,
            min_load,
            gap: max_load - min_load,
            opt,
            ratio: max_load as f64 / opt as f64,
            bound: 1.0 + 2.0 * b as f64 / k.max(1) as f64,
        }
    }

    fn arg_least(&self) -> usize {
        (0..self.loads.len())
            .min_by_key(|&a| self.loads[a])
            .expect("b ≥ 2")
    }

    fn arg_most(&self) -> usize {
        (0..self.loads.len())
            .max_by_key(|&a| self.loads[a])
            .expect("b ≥ 2")
    }
}

fn sample(weights: &[f64], rng: &mut impl Rng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_game_theory::best_response::is_best_response;
    use ga_game_theory::game::Game;
    use ga_game_theory::profile::PureProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The one-shot stage game given accumulated loads.
    ///
    /// Cost of agent `i` choosing resource `a` in profile `π`:
    /// `ℓ_a + #{j : π_j = a}` — the backlog plus this round's contention.
    #[derive(Debug, Clone, PartialEq)]
    struct RraStageGame {
        loads: Vec<u64>,
        n: usize,
    }

    impl RraStageGame {
        /// Creates the stage game for `n` agents over the given loads.
        ///
        /// # Panics
        ///
        /// Panics if there are fewer than 2 resources or zero agents.
        fn new(n: usize, loads: Vec<u64>) -> RraStageGame {
            assert!(loads.len() >= 2, "need at least two resources");
            assert!(n > 0, "need at least one agent");
            RraStageGame { loads, n }
        }
    }

    impl Game for RraStageGame {
        fn num_agents(&self) -> usize {
            self.n
        }

        fn num_actions(&self, _agent: usize) -> usize {
            self.loads.len()
        }

        fn cost(&self, agent: usize, profile: &PureProfile) -> f64 {
            let mine = profile.action(agent);
            let contention = profile.actions().iter().filter(|&&a| a == mine).count();
            self.loads[mine] as f64 + contention as f64
        }

        fn name(&self) -> &str {
            "rra-stage"
        }
    }

    #[test]
    fn equilibrium_weights_uniform_on_equal_loads() {
        let w = equilibrium_weights(4, &[0, 0, 0]);
        for &x in &w {
            assert!((x - 1.0 / 3.0).abs() < 1e-9, "{w:?}");
        }
    }

    #[test]
    fn equilibrium_weights_skip_overloaded_resource() {
        // Resource 2 is so loaded nobody should touch it.
        let w = equilibrium_weights(3, &[0, 0, 100]);
        assert_eq!(w[2], 0.0, "{w:?}");
        assert!((w[0] - 0.5).abs() < 1e-9);
        assert!((w[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn equilibrium_weights_tilt_toward_lighter_resource() {
        let w = equilibrium_weights(5, &[0, 2]);
        assert!(w[0] > w[1], "{w:?}");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn equilibrium_equalizes_expected_loads_on_support() {
        let n = 6;
        let loads = [3u64, 5, 4, 9];
        let w = equilibrium_weights(n, &loads);
        let nm1 = (n - 1) as f64;
        let levels: Vec<f64> = loads
            .iter()
            .zip(&w)
            .filter(|(_, &x)| x > 1e-9)
            .map(|(&l, &x)| 1.0 + nm1 * x + l as f64)
            .collect();
        for pair in levels.windows(2) {
            assert!((pair[0] - pair[1]).abs() < 1e-6, "{levels:?}");
        }
    }

    #[test]
    fn lemma_6_gap_bound_holds_over_long_runs() {
        let (n, b) = (5, 3);
        let mut rra = RraProcess::new(n, b);
        let mut rng = StdRng::seed_from_u64(1);
        for stats in rra.play(2000, &mut rng) {
            assert!(
                stats.gap < 2 * n as u64,
                "Δ({}) = {} > 2n−1",
                stats.k,
                stats.gap
            );
        }
    }

    #[test]
    fn theorem_5_ratio_bound_holds_and_converges() {
        let (n, b) = (4, 4);
        let mut rra = RraProcess::new(n, b);
        let mut rng = StdRng::seed_from_u64(2);
        let stats = rra.play(3000, &mut rng);
        for s in &stats {
            assert!(
                s.ratio <= s.bound + 1e-9,
                "R({}) = {} > {}",
                s.k,
                s.ratio,
                s.bound
            );
        }
        let last = stats.last().unwrap();
        assert!(
            last.ratio < 1.05,
            "R(3000) = {} should approach 1",
            last.ratio
        );
    }

    #[test]
    fn greedy_behavior_also_balances() {
        let mut rra = RraProcess::with_behaviors(4, 2, vec![RraBehavior::GreedyLeastLoaded; 4]);
        let mut rng = StdRng::seed_from_u64(3);
        rra.play(100, &mut rng);
        let s = rra.stats();
        // All four agents pick the same least-loaded bin per round → gap
        // oscillates but stays bounded by n.
        assert!(s.gap <= 4, "gap={}", s.gap);
    }

    #[test]
    fn pile_on_max_alone_cannot_break_the_envelope() {
        // A unit-demand adversary still obeys the rules; the honest Nash
        // agents keep absorbing the imbalance, so the gap stays bounded.
        let n = 4;
        let behaviors = vec![
            RraBehavior::NashMixed,
            RraBehavior::NashMixed,
            RraBehavior::PileOnMax,
            RraBehavior::PileOnMax,
        ];
        let mut rra = RraProcess::with_behaviors(n, 2, behaviors);
        let mut rng = StdRng::seed_from_u64(4);
        rra.play(200, &mut rng);
        assert!(rra.stats().gap <= 3 * n as u64, "gap={}", rra.stats().gap);
    }

    #[test]
    fn extra_demand_cheaters_break_the_envelope() {
        // Violating the single-unit rule is what actually destroys
        // Lemma 6's Δ(k) ≤ 2n−1 envelope — and what the judicial service's
        // legitimate-action check exists to stop.
        let n = 4;
        let behaviors = vec![
            RraBehavior::NashMixed,
            RraBehavior::NashMixed,
            RraBehavior::NashMixed,
            RraBehavior::ExtraDemands(5),
        ];
        let mut rra = RraProcess::with_behaviors(n, 2, behaviors);
        let mut rng = StdRng::seed_from_u64(4);
        rra.play(200, &mut rng);
        let gap = rra.stats().gap;
        assert!(
            gap > 2 * n as u64 - 1,
            "cheating blows past Lemma 6's envelope: gap={gap}"
        );
    }

    #[test]
    fn stage_game_costs_count_contention() {
        let g = RraStageGame::new(3, vec![10, 0]);
        let p = PureProfile::new(vec![1, 1, 0]);
        assert_eq!(g.cost(0, &p), 2.0, "load 0 + two pickers");
        assert_eq!(g.cost(2, &p), 11.0, "load 10 + alone");
    }

    #[test]
    fn stage_game_best_response_is_least_expected_load() {
        let g = RraStageGame::new(2, vec![5, 0]);
        // Other agent on resource 1: picking 1 costs 0+2, picking 0 costs
        // 5+1 → resource 1 is still the best response.
        let p = PureProfile::new(vec![1, 1]);
        assert!(is_best_response(&g, 0, &p));
        let q = PureProfile::new(vec![0, 1]);
        assert!(!is_best_response(&g, 0, &q));
    }

    #[test]
    fn opt_is_ceiling_of_average() {
        let mut rra = RraProcess::new(3, 2);
        let mut rng = StdRng::seed_from_u64(5);
        rra.play_round(&mut rng);
        // 3 demands over 2 bins → OPT = 2.
        assert_eq!(rra.stats().opt, 2);
    }
}
