//! The legislative service: electing the rules of the game.
//!
//! §3.1: "A key decision that the legislative service makes is about the
//! rules of the game … the service is required to guarantee coherent game
//! settings, i.e., all honest agents agree on the game Γ." The paper
//! delegates the mechanics to manipulation-resilient voting (\[14\],
//! Elkind–Lipmaa); here we provide the deterministic tallies (plurality,
//! Borda, instant-runoff) over a ballot set that the distributed layer
//! first pushes through Byzantine agreement — coherence comes from
//! agreement, manipulation resistance from commit–reveal balloting plus
//! the hybrid-rule structure.

use ga_agreement::consensus::OmConsensus;
use ga_agreement::executor::{no_tamper, run_pure_instances};
use ga_crypto::commitment::{Commitment, Nonce, Opening};
use ga_crypto::sha256::Sha256;

use crate::AuthorityError;

/// A voter's ranking of candidate games, best first. Must be a permutation
/// of a subset of candidates; unlisted candidates rank below listed ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ballot(Vec<usize>);

impl Ballot {
    /// Creates a ballot from a ranking (best candidate first).
    pub fn new(ranking: Vec<usize>) -> Ballot {
        Ballot(ranking)
    }

    /// The ranking, best first.
    pub fn ranking(&self) -> &[usize] {
        &self.0
    }

    /// Validates against the candidate count: indices in range, no
    /// duplicates, not empty.
    pub fn validate(&self, num_candidates: usize) -> Result<(), AuthorityError> {
        if self.0.is_empty() {
            return Err(AuthorityError::MalformedBallot("empty ranking".into()));
        }
        let mut seen = vec![false; num_candidates];
        for &c in &self.0 {
            if c >= num_candidates {
                return Err(AuthorityError::MalformedBallot(format!(
                    "candidate {c} out of range"
                )));
            }
            if seen[c] {
                return Err(AuthorityError::MalformedBallot(format!(
                    "candidate {c} ranked twice"
                )));
            }
            seen[c] = true;
        }
        Ok(())
    }
}

/// The voting rule in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VotingRule {
    /// Most first-choice votes wins.
    Plurality,
    /// Positional scoring: rank `r` of `m` candidates scores `m − 1 − r`.
    Borda,
    /// Instant-runoff: repeatedly eliminate the candidate with fewest
    /// first-choice votes.
    InstantRunoff,
}

/// Tallies valid ballots under `rule`; invalid ballots are discarded
/// (they would have been rejected at agreement time). Ties break toward
/// the lower candidate index, deterministically — all honest agents reach
/// the same winner from the same agreed ballot set.
///
/// # Errors
///
/// [`AuthorityError::EmptyElection`] when there are no candidates or no
/// valid ballots.
pub fn tally(
    rule: VotingRule,
    ballots: &[Ballot],
    num_candidates: usize,
) -> Result<usize, AuthorityError> {
    if num_candidates == 0 {
        return Err(AuthorityError::EmptyElection);
    }
    let valid: Vec<&Ballot> = ballots
        .iter()
        .filter(|b| b.validate(num_candidates).is_ok())
        .collect();
    if valid.is_empty() {
        return Err(AuthorityError::EmptyElection);
    }
    let winner = match rule {
        VotingRule::Plurality => plurality(&valid, num_candidates),
        VotingRule::Borda => borda(&valid, num_candidates),
        VotingRule::InstantRunoff => instant_runoff(&valid, num_candidates),
    };
    Ok(winner)
}

fn plurality(ballots: &[&Ballot], m: usize) -> usize {
    let mut first = vec![0u64; m];
    for b in ballots {
        first[b.ranking()[0]] += 1;
    }
    argmax(&first)
}

fn borda(ballots: &[&Ballot], m: usize) -> usize {
    let mut score = vec![0u64; m];
    for b in ballots {
        for (rank, &c) in b.ranking().iter().enumerate() {
            score[c] += (m - 1 - rank) as u64;
        }
        // Unranked candidates score 0 — strictly below every ranked one
        // only if the ballot is partial; fine for a deterministic rule.
    }
    argmax(&score)
}

fn instant_runoff(ballots: &[&Ballot], m: usize) -> usize {
    let mut eliminated = vec![false; m];
    loop {
        // First choices among the non-eliminated.
        let mut first = vec![0u64; m];
        let mut total = 0u64;
        for b in ballots {
            if let Some(&c) = b.ranking().iter().find(|&&c| !eliminated[c]) {
                first[c] += 1;
                total += 1;
            }
        }
        if total == 0 {
            // All ballots exhausted: winner is the lowest-index survivor.
            return (0..m).find(|&c| !eliminated[c]).unwrap_or(0);
        }
        // Majority?
        if let Some(winner) = (0..m).find(|&c| !eliminated[c] && 2 * first[c] > total) {
            return winner;
        }
        let survivors: Vec<usize> = (0..m).filter(|&c| !eliminated[c]).collect();
        if survivors.len() == 1 {
            return survivors[0];
        }
        // Eliminate the weakest survivor (highest index loses the tie so
        // elimination also has a deterministic order).
        let weakest = *survivors
            .iter()
            .rev()
            .min_by_key(|&&c| first[c])
            .expect("survivors nonempty");
        eliminated[weakest] = true;
    }
}

/// Canonical byte encoding of a ballot (for commitments and digests).
fn ballot_bytes(ballot: &Ballot) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(ballot.ranking().len() * 8 + 8);
    bytes.extend_from_slice(&(ballot.ranking().len() as u64).to_be_bytes());
    for &c in ballot.ranking() {
        bytes.extend_from_slice(&(c as u64).to_be_bytes());
    }
    bytes
}

/// A sealed (committed) ballot: published before anyone reveals, so no
/// voter can condition its ranking on the others' — the commit–reveal leg
/// of manipulation-resistant balloting (\[14\]'s hybrid protocols pair
/// this with the voting rule's own resistance).
#[derive(Debug, Clone)]
pub struct SealedBallot {
    commitment: Commitment,
}

impl SealedBallot {
    /// Seals `ballot` under `nonce`; returns the public seal and the
    /// private opening to publish at reveal time.
    pub fn seal(ballot: &Ballot, nonce: Nonce) -> (SealedBallot, Opening) {
        let (commitment, opening) = Commitment::commit(&ballot_bytes(ballot), nonce);
        (SealedBallot { commitment }, opening)
    }

    /// Verifies a revealed ballot against the seal.
    pub fn verify(&self, ballot: &Ballot, opening: &Opening) -> bool {
        self.commitment
            .verify(&ballot_bytes(ballot), opening)
            .is_ok()
    }
}

/// The outcome of a distributed election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionOutcome {
    /// The elected candidate.
    pub winner: usize,
    /// Voters whose reveals failed agreement/verification and were
    /// discarded (candidates for judicial attention).
    pub discarded_voters: Vec<usize>,
}

/// Runs a coherent election among `n` voters with up to `f` Byzantine:
/// every voter's ballot digest goes through Byzantine agreement
/// (interactive consistency), reveals are verified against the *agreed*
/// digests, and the surviving ballots are tallied deterministically — so
/// every honest voter computes the same winner (§3.1's "coherent game
/// settings").
///
/// `reveals[i]` is voter `i`'s revealed ballot (`None` for voters that
/// never revealed).
///
/// # Errors
///
/// [`AuthorityError::EmptyElection`] when no valid ballot survives.
///
/// # Panics
///
/// Panics unless `n > 3f` (OM backend) and `reveals.len() == n`.
pub fn distributed_election(
    rule: VotingRule,
    reveals: &[Option<Ballot>],
    num_candidates: usize,
    n: usize,
    f: usize,
) -> Result<ElectionOutcome, AuthorityError> {
    assert_eq!(reveals.len(), n, "one reveal slot per voter");
    // 1. Agree on every voter's ballot digest (0 = "no ballot").
    let digest_of = |b: &Option<Ballot>| -> u64 {
        match b {
            None => 0,
            Some(ballot) => {
                let d = Sha256::digest(&ballot_bytes(ballot));
                u64::from_be_bytes(d[..8].try_into().expect("32-byte digest")).max(1)
            }
        }
    };
    let inputs: Vec<u64> = reveals.iter().map(digest_of).collect();
    let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, f)).collect();
    let (instances, _) = run_pure_instances(instances, &inputs, no_tamper);
    // Interactive consistency: every honest processor holds the same
    // per-voter digest vector; the caller acts as (honest) processor 0.
    let agreed: Vec<Option<u64>> = instances[0].vector();

    // 2. Verify reveals against agreed digests; discard mismatches.
    let mut valid = Vec::new();
    let mut discarded = Vec::new();
    for (voter, (reveal, agreed_digest)) in reveals.iter().zip(&agreed).enumerate() {
        match (reveal, agreed_digest) {
            (Some(ballot), Some(d)) if *d == digest_of(&Some(ballot.clone())) => {
                if ballot.validate(num_candidates).is_ok() {
                    valid.push(ballot.clone());
                } else {
                    discarded.push(voter);
                }
            }
            _ => discarded.push(voter),
        }
    }

    // 3. Deterministic tally over the agreed ballot set.
    let winner = tally(rule, &valid, num_candidates)?;
    Ok(ElectionOutcome {
        winner,
        discarded_voters: discarded,
    })
}

fn argmax(scores: &[u64]) -> usize {
    let mut best = 0usize;
    for (i, &s) in scores.iter().enumerate() {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(r: &[usize]) -> Ballot {
        Ballot::new(r.to_vec())
    }

    #[test]
    fn ballot_validation() {
        assert!(b(&[0, 1, 2]).validate(3).is_ok());
        assert!(b(&[]).validate(3).is_err());
        assert!(b(&[3]).validate(3).is_err());
        assert!(b(&[0, 0]).validate(3).is_err());
        assert!(b(&[2]).validate(3).is_ok(), "partial ballots allowed");
    }

    #[test]
    fn plurality_counts_first_choices() {
        let ballots = vec![b(&[0, 1]), b(&[0, 2]), b(&[1, 0]), b(&[2, 1])];
        assert_eq!(tally(VotingRule::Plurality, &ballots, 3).unwrap(), 0);
    }

    #[test]
    fn borda_rewards_broad_support() {
        // Candidate 1 is everyone's second choice; 0 and 2 split firsts.
        let ballots = vec![
            b(&[0, 1, 2]),
            b(&[0, 1, 2]),
            b(&[2, 1, 0]),
            b(&[2, 1, 0]),
            b(&[1, 0, 2]),
        ];
        assert_eq!(tally(VotingRule::Borda, &ballots, 3).unwrap(), 1);
        // Plurality would tie 0/2 (2 each) and 1 (1) — broken to 0.
        assert_eq!(tally(VotingRule::Plurality, &ballots, 3).unwrap(), 0);
    }

    #[test]
    fn irv_transfers_votes() {
        // 0: 3 firsts; 1: 2 firsts + 2 transfers from 2; 2: 2 firsts.
        let ballots = vec![
            b(&[0, 1, 2]),
            b(&[0, 2, 1]),
            b(&[0, 1, 2]),
            b(&[1, 2, 0]),
            b(&[1, 0, 2]),
            b(&[2, 1, 0]),
            b(&[2, 1, 0]),
        ];
        // Round 1: 0→3, 1→2, 2→2, no majority (7 votes, need 4);
        // eliminate 2 (tie with 1 broken against the higher index),
        // transfers → 1 has 4 > 7/2 → wins.
        assert_eq!(tally(VotingRule::InstantRunoff, &ballots, 3).unwrap(), 1);
    }

    #[test]
    fn invalid_ballots_are_discarded() {
        let ballots = vec![b(&[0]), b(&[9, 9]), b(&[1]), b(&[1])];
        assert_eq!(tally(VotingRule::Plurality, &ballots, 2).unwrap(), 1);
    }

    #[test]
    fn empty_election_rejected() {
        assert_eq!(
            tally(VotingRule::Plurality, &[], 3).unwrap_err(),
            AuthorityError::EmptyElection
        );
        assert_eq!(
            tally(VotingRule::Plurality, &[b(&[0])], 0).unwrap_err(),
            AuthorityError::EmptyElection
        );
    }

    #[test]
    fn deterministic_tie_break_to_lower_index() {
        let ballots = vec![b(&[0]), b(&[1])];
        assert_eq!(tally(VotingRule::Plurality, &ballots, 2).unwrap(), 0);
        assert_eq!(tally(VotingRule::Borda, &ballots, 2).unwrap(), 0);
    }

    #[test]
    fn irv_single_candidate() {
        let ballots = vec![b(&[0]), b(&[0])];
        assert_eq!(tally(VotingRule::InstantRunoff, &ballots, 1).unwrap(), 0);
    }

    #[test]
    fn sealed_ballot_round_trip_and_binding() {
        let ballot = b(&[2, 0, 1]);
        let (seal, opening) = SealedBallot::seal(&ballot, [7u8; 32]);
        assert!(seal.verify(&ballot, &opening));
        assert!(
            !seal.verify(&b(&[0, 2, 1]), &opening),
            "swapped ranking rejected"
        );
    }

    #[test]
    fn ballot_bytes_is_injective_on_rankings() {
        assert_ne!(ballot_bytes(&b(&[0, 1])), ballot_bytes(&b(&[1, 0])));
        assert_ne!(ballot_bytes(&b(&[0])), ballot_bytes(&b(&[0, 1])));
    }

    #[test]
    fn distributed_election_elects_and_discards() {
        // 4 voters (n > 3f with f = 1); voter 3 never reveals.
        let reveals = vec![Some(b(&[1, 0])), Some(b(&[1, 0])), Some(b(&[0, 1])), None];
        let outcome = distributed_election(VotingRule::Plurality, &reveals, 2, 4, 1).unwrap();
        assert_eq!(outcome.winner, 1);
        assert_eq!(outcome.discarded_voters, vec![3]);
    }

    #[test]
    fn distributed_election_discards_malformed_ballots() {
        let reveals = vec![
            Some(b(&[0])),
            Some(b(&[9, 9])), // out of range
            Some(b(&[1])),
            Some(b(&[1])),
        ];
        let outcome = distributed_election(VotingRule::Plurality, &reveals, 2, 4, 1).unwrap();
        assert_eq!(outcome.winner, 1);
        assert_eq!(outcome.discarded_voters, vec![1]);
    }

    #[test]
    fn distributed_election_with_no_valid_ballots_errs() {
        let reveals = vec![None, None, None, None];
        assert_eq!(
            distributed_election(VotingRule::Borda, &reveals, 2, 4, 1).unwrap_err(),
            AuthorityError::EmptyElection
        );
    }
}
