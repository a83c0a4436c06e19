//! The `n`-agent, 2-resource congestion game the distributed authority
//! plays.
//!
//! An agent's cost is the number of agents sharing its resource, so the
//! best response is always the less crowded resource. Every `authority`
//! scenario, the authority-recovery port, the allocation budget and the
//! centralized-vs-distributed oracle play it.

use std::sync::Arc;

use ga_game_theory::game::{ClosureGame, Game};

/// The congestion game for `n` agents (actions 0 and 1 are the two
/// resources).
pub fn congestion(n: usize) -> Arc<dyn Game + Send + Sync> {
    Arc::new(ClosureGame::new(
        "authority-congestion",
        n,
        vec![2; n],
        |agent, p| {
            let mine = p.action(agent);
            p.actions().iter().filter(|&&a| a == mine).count() as f64
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_game_theory::best_response::best_response;
    use ga_game_theory::profile::PureProfile;

    #[test]
    fn the_less_crowded_resource_is_the_best_response() {
        let game = congestion(4);
        let crowded = PureProfile::new(vec![0, 0, 0, 1]);
        assert_eq!(game.cost(0, &crowded), 3.0);
        assert_eq!(best_response(game.as_ref(), 0, &crowded), 1);
        assert_eq!(best_response(game.as_ref(), 3, &crowded), 1);
    }
}
