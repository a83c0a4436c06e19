//! E8 — ablation: per-play audits vs. end-of-epoch seed audits (§5.3).
//!
//! The paper implements "the simplest auditing approach; the agents audit
//! each other's actions in every round" and suggests, "for the sake of
//! efficiency", committing to the PRG seed and auditing only at the end of
//! a bounded sequence of rounds. This ablation quantifies the trade:
//! detection latency (and the honest agents' interim losses) versus audit
//! work, on the Fig. 1 manipulation.

use ga_games::matching_pennies::{manipulated_matching_pennies, MANIPULATE};
use game_authority::agent::Behavior;
use game_authority::authority::{Authority, AuthorityConfig};

/// One cadence's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CadencePoint {
    /// Epoch length (1 = per-play support audit).
    pub epoch_len: u64,
    /// Play at which the manipulator was punished.
    pub detected_at: Option<u64>,
    /// Honest agent A's cumulative loss until (and including) detection.
    pub honest_loss_until_detection: f64,
    /// Audit operations performed until detection: per-play support checks
    /// count one per audited play; an epoch seed audit counts the replayed
    /// transcript length.
    pub audit_ops: u64,
}

/// Runs the Fig. 1 manipulation under one audit cadence.
///
/// `epoch_len == 1` means the per-play support audit (the paper's default);
/// larger values defer all mixed-strategy checking to the epoch boundary.
fn run_cadence(epoch_len: u64, rounds: u64, seed: u64) -> CadencePoint {
    let game = manipulated_matching_pennies();
    let per_play = epoch_len == 1;
    let config = AuthorityConfig {
        epoch_len: if per_play { u64::MAX } else { epoch_len },
        seed,
        per_play_support_audit: per_play,
        ..AuthorityConfig::default()
    };
    let mut authority = Authority::new(
        &game,
        vec![
            Behavior::honest_mixed(vec![0.5, 0.5]),
            Behavior::hidden_manipulator(vec![0.5, 0.5, 0.0], MANIPULATE),
        ],
        config,
    );
    let reports = authority.play(rounds);
    let detected_at = reports
        .iter()
        .find(|r| r.punished.contains(&1))
        .map(|r| r.round);
    let horizon = detected_at.map_or(rounds, |d| d + 1);
    let honest_loss_until_detection: f64 = reports
        .iter()
        .take(horizon as usize)
        .map(|r| r.costs[0])
        .sum();
    let audit_ops = if per_play {
        horizon // one support check per play, per mixed agent
    } else {
        // One seed replay per elapsed epoch, each replaying epoch_len
        // samples.
        horizon.div_ceil(epoch_len) * epoch_len
    };
    CadencePoint {
        epoch_len,
        detected_at,
        honest_loss_until_detection,
        audit_ops,
    }
}

/// Runs the cadence sweep.
pub fn run(rounds: u64, seed: u64) -> Vec<CadencePoint> {
    [1u64, 2, 4, 8, 16, 32]
        .iter()
        .map(|&l| run_cadence(l, rounds, seed))
        .collect()
}
