//! The executive service: outcomes, utilities and punishment.
//!
//! §3.4: "The task of the executive service is to carry out the agents'
//! actions … announcing the play outcome, publishing the utilities and
//! collecting the choice of actions. Moreover, by order of the judicial
//! service, this service restricts the action of dishonest agents according
//! to the punishment scheme."
//!
//! Punishment schemes implemented: the paper discusses three
//! (disconnection, real-money deposits and reputation), and deposits come
//! in two forms here, so four variants:
//! * [`Punishment::Disconnect`] — "the only effective option [against a
//!   complete Byzantine agent] is to disconnect \[them\] from the network";
//! * [`Punishment::Fine`] — real-money deposits as a fixed cost added to
//!   the offender per offense;
//! * [`Punishment::Deposit`] — real-money deposits as an up-front stake,
//!   part of which each offense forfeits; an agent whose remaining deposit
//!   cannot cover another forfeit is disconnected;
//! * [`Punishment::Reputation`] — reputation loss; agents below the
//!   threshold are shunned (treated as disconnected).
//!
//! Both authorities punish through [`Executive::convict`]: the centralized
//! engine per judicial verdict, each distributed processor per agreed foul.

use ga_crypto::audit_log::AuditLog;
use ga_crypto::Digest;
use ga_game_theory::profile::PureProfile;

use crate::judicial::Verdict;

/// The punishment scheme in force (elected alongside the game).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Punishment {
    /// Permanently remove the offender from the game.
    #[default]
    Disconnect,
    /// Charge the offender this much per offense.
    Fine(f64),
    /// Deduct reputation per offense; at or below `threshold` the agent is
    /// shunned (equivalent to disconnection).
    Reputation {
        /// Reputation lost per offense.
        penalty: i64,
        /// Shunning threshold.
        threshold: i64,
        /// Starting reputation.
        initial: i64,
    },
    /// Real-money deposits (§3.4): every agent stakes `stake` up front;
    /// each offense forfeits `forfeit`, and an agent whose remaining
    /// deposit cannot cover another forfeit is disconnected.
    Deposit {
        /// The up-front stake.
        stake: f64,
        /// Amount forfeited per offense.
        forfeit: f64,
    },
}

/// The executive service's ledger for one game instance.
#[derive(Debug, Clone)]
pub struct Executive {
    scheme: Punishment,
    disconnected: Vec<bool>,
    fines: Vec<f64>,
    reputation: Vec<i64>,
    deposits: Vec<f64>,
    offenses: Vec<u64>,
    log: AuditLog,
}

impl Executive {
    /// Creates the ledger for `n` agents under `scheme`.
    pub fn new(n: usize, scheme: Punishment) -> Executive {
        let initial_rep = match scheme {
            Punishment::Reputation { initial, .. } => initial,
            _ => 0,
        };
        let initial_deposit = match scheme {
            Punishment::Deposit { stake, .. } => stake,
            _ => 0.0,
        };
        Executive {
            scheme,
            disconnected: vec![false; n],
            fines: vec![0.0; n],
            reputation: vec![initial_rep; n],
            deposits: vec![initial_deposit; n],
            offenses: vec![0; n],
            log: AuditLog::new(),
        }
    }

    /// Applies the verdicts of one play; returns the agents punished *this
    /// play*.
    pub fn apply_verdicts(&mut self, verdicts: &[Verdict]) -> Vec<usize> {
        let mut punished = Vec::new();
        for (agent, v) in verdicts.iter().enumerate() {
            if v.is_honest() || *v == Verdict::AlreadyPunished {
                continue;
            }
            self.convict(agent);
            punished.push(agent);
        }
        punished
    }

    /// Punishes one offense of `agent` under the scheme in force.
    pub fn convict(&mut self, agent: usize) {
        self.offenses[agent] += 1;
        match self.scheme {
            Punishment::Disconnect => self.disconnected[agent] = true,
            Punishment::Fine(amount) => self.fines[agent] += amount,
            Punishment::Reputation {
                penalty, threshold, ..
            } => {
                self.reputation[agent] -= penalty;
                if self.reputation[agent] <= threshold {
                    self.disconnected[agent] = true;
                }
            }
            Punishment::Deposit { forfeit, .. } => {
                self.deposits[agent] -= forfeit;
                if self.deposits[agent] < forfeit {
                    self.disconnected[agent] = true;
                }
            }
        }
    }

    /// Whether `agent` may still participate.
    pub fn is_active(&self, agent: usize) -> bool {
        !self.disconnected.get(agent).copied().unwrap_or(true)
    }

    /// One flag per agent: disconnected (or shunned) for good.
    pub fn disconnected(&self) -> &[bool] {
        &self.disconnected
    }

    /// Accumulated fine of `agent`.
    pub fn fine(&self, agent: usize) -> f64 {
        self.fines.get(agent).copied().unwrap_or(0.0)
    }

    /// Current reputation of `agent` (0 unless the scheme is reputation).
    pub fn reputation(&self, agent: usize) -> i64 {
        self.reputation.get(agent).copied().unwrap_or(0)
    }

    /// Offense count of `agent`.
    pub fn offenses(&self, agent: usize) -> u64 {
        self.offenses.get(agent).copied().unwrap_or(0)
    }

    /// Publishes a play outcome into the tamper-evident log; returns the
    /// log's head digest after it, which commits to every outcome so far.
    pub fn publish_outcome(&mut self, round: u64, outcome: &PureProfile) -> Digest {
        let mut payload = Vec::with_capacity(8 + outcome.len() * 8);
        payload.extend_from_slice(&round.to_be_bytes());
        for &a in outcome.actions() {
            payload.extend_from_slice(&(a as u64).to_be_bytes());
        }
        self.log.append(&payload)
    }

    /// The tamper-evident outcome log.
    pub fn log(&self) -> &AuditLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdicts(bad: &[usize], n: usize) -> Vec<Verdict> {
        (0..n)
            .map(|i| {
                if bad.contains(&i) {
                    Verdict::NotBestResponse
                } else {
                    Verdict::Honest
                }
            })
            .collect()
    }

    #[test]
    fn disconnect_scheme_removes_offender() {
        let mut e = Executive::new(3, Punishment::Disconnect);
        let punished = e.apply_verdicts(&verdicts(&[1], 3));
        assert_eq!(punished, vec![1]);
        assert!(!e.is_active(1));
        assert!(e.is_active(0) && e.is_active(2));
    }

    #[test]
    fn fine_scheme_accumulates() {
        let mut e = Executive::new(2, Punishment::Fine(2.5));
        e.apply_verdicts(&verdicts(&[0], 2));
        e.apply_verdicts(&verdicts(&[0], 2));
        assert_eq!(e.fine(0), 5.0);
        assert!(e.is_active(0), "fined agents keep playing");
        assert_eq!(e.offenses(0), 2);
    }

    #[test]
    fn reputation_scheme_shuns_below_threshold() {
        let mut e = Executive::new(
            2,
            Punishment::Reputation {
                penalty: 4,
                threshold: 0,
                initial: 10,
            },
        );
        e.apply_verdicts(&verdicts(&[1], 2));
        assert!(e.is_active(1), "reputation 6 > 0");
        e.apply_verdicts(&verdicts(&[1], 2));
        assert!(e.is_active(1), "reputation 2 > 0");
        e.apply_verdicts(&verdicts(&[1], 2));
        assert!(!e.is_active(1), "reputation −2 ≤ 0: shunned");
        assert_eq!(e.reputation(1), -2);
    }

    #[test]
    fn deposit_scheme_forfeits_then_disconnects() {
        let mut e = Executive::new(
            2,
            Punishment::Deposit {
                stake: 10.0,
                forfeit: 4.0,
            },
        );
        e.apply_verdicts(&verdicts(&[1], 2));
        assert!(e.is_active(1), "6 left ≥ one more forfeit");
        e.apply_verdicts(&verdicts(&[1], 2));
        assert!(!e.is_active(1), "2 left < forfeit: disconnected");
        assert!(e.is_active(0), "honest stake untouched");
    }

    #[test]
    fn already_punished_is_not_double_counted() {
        let mut e = Executive::new(2, Punishment::Disconnect);
        e.apply_verdicts(&[Verdict::NotBestResponse, Verdict::Honest]);
        let again = e.apply_verdicts(&[Verdict::AlreadyPunished, Verdict::Honest]);
        assert!(again.is_empty());
        assert_eq!(e.offenses(0), 1);
    }

    #[test]
    fn outcome_log_chains_and_differs() {
        let mut e = Executive::new(2, Punishment::Disconnect);
        let d1 = e.publish_outcome(0, &PureProfile::new(vec![0, 1]));
        let d2 = e.publish_outcome(1, &PureProfile::new(vec![0, 1]));
        assert_ne!(d1, d2, "round number separates identical outcomes");
        assert!(e.log().verify().is_ok());
        assert_eq!(e.log().len(), 2);
    }
}
