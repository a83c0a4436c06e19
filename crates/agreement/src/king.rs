//! Phase-king consensus (Berman–Garay–Perry style).
//!
//! Polynomial-message consensus in `O(f)` rounds: `f+1` phases of two
//! rounds each. Phase `p` (king = processor `p`):
//!
//! 1. everyone broadcasts its current value; each processor computes the
//!    most frequent value `maj` and its multiplicity `mult`;
//! 2. the king broadcasts its `maj`; a processor keeps `maj` if
//!    `mult > n/2 + f`, otherwise adopts the king's value.
//!
//! With `n > 4f` this satisfies validity, agreement and termination: some
//! phase has an honest king, after which all honest processors share a value
//! whose multiplicity can never drop below the `n/2 + f` keep-threshold.
//! (The exponential-message [`om`](crate::om) tolerates the optimal
//! `f < n/3`; phase-king trades a stronger threshold for polynomial
//! messages — the trade-off the paper's scalability discussion anticipates.)

use std::collections::HashMap;

use crate::traits::BaInstance;
use crate::wire::{Reader, Writer};
use crate::{Value, DEFAULT_VALUE};

const TAG_VALUE: u8 = 1;
const TAG_KING: u8 = 2;

/// One phase-king consensus instance at one processor.
#[derive(Debug, Clone)]
pub struct PhaseKing {
    me: usize,
    n: usize,
    f: usize,
    value: Value,
    /// Latest round-1 tally: (majority value, its multiplicity).
    maj: Value,
    mult: usize,
    decided: Option<Value>,
}

impl PhaseKing {
    /// Creates the instance for processor `me` of `n`, tolerating `f`
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 4f` and `me < n`.
    pub fn new(me: usize, n: usize, f: usize) -> PhaseKing {
        assert!(n > 4 * f, "phase king requires n > 4f");
        assert!(me < n, "id in range");
        PhaseKing {
            me,
            n,
            f,
            value: DEFAULT_VALUE,
            maj: DEFAULT_VALUE,
            mult: 0,
            decided: None,
        }
    }

    /// Appends the message `tag · value` to `out`.
    fn encode(tag: u8, value: Value, out: &mut Vec<u8>) {
        Writer::new(out).put_u8(tag).put_u64(value);
    }

    fn decode(payload: &[u8]) -> Option<(u8, Value)> {
        let mut r = Reader::new(payload);
        let tag = r.get_u8()?;
        let value = r.get_u64()?;
        r.is_exhausted().then_some((tag, value))
    }

    /// Tally round-1 VALUE messages (own value included).
    fn tally(&mut self, inbox: &[(usize, &[u8])]) {
        let mut counts: HashMap<Value, usize> = HashMap::new();
        *counts.entry(self.value).or_insert(0) += 1;
        let mut seen: Vec<bool> = vec![false; self.n];
        seen[self.me] = true;
        for &(sender, payload) in inbox {
            if sender >= self.n || seen[sender] {
                continue; // one vote per processor
            }
            if let Some((TAG_VALUE, v)) = Self::decode(payload) {
                seen[sender] = true;
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let (maj, mult) = counts
            .into_iter()
            .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
            .expect("own vote always present");
        self.maj = maj;
        self.mult = mult;
    }

    /// Round-2 update from the king's message.
    fn adopt(&mut self, king: usize, inbox: &[(usize, &[u8])]) {
        let king_value = inbox
            .iter()
            .filter(|&&(sender, _)| sender == king)
            .find_map(|&(_, payload)| match Self::decode(payload) {
                Some((TAG_KING, v)) => Some(v),
                _ => None,
            })
            .unwrap_or(DEFAULT_VALUE);
        // Keep own majority when it is unassailable, or when we are the
        // king (the king trusts its own broadcast); otherwise adopt.
        self.value = if self.mult > self.n / 2 + self.f || king == self.me {
            self.maj
        } else {
            king_value
        };
    }
}

impl BaInstance for PhaseKing {
    fn begin(&mut self, input: Value) {
        self.value = input;
        self.maj = DEFAULT_VALUE;
        self.mult = 0;
        self.decided = None;
    }

    fn step(&mut self, rel_round: u64, inbox: &[(usize, &[u8])], out: &mut Vec<u8>) {
        let phases = self.f as u64 + 1;
        // Schedule: step 2p broadcasts VALUE; step 2p+1 tallies and the
        // phase's king broadcasts KING; step 2p+2 adopts (and broadcasts
        // the next phase's VALUE). Final step: 2*phases, adopt + decide.
        if rel_round > 2 * phases {
            return;
        }
        if rel_round == 0 {
            Self::encode(TAG_VALUE, self.value, out);
            return;
        }
        if rel_round % 2 == 1 {
            // Tally VALUEs of phase p = (rel_round-1)/2; king announces.
            let phase = ((rel_round - 1) / 2) as usize;
            self.tally(inbox);
            if self.me == phase % self.n {
                Self::encode(TAG_KING, self.maj, out);
            }
        } else {
            // Adopt phase (rel_round/2 - 1)'s outcome.
            let phase = (rel_round / 2 - 1) as usize;
            self.adopt(phase % self.n, inbox);
            if rel_round == 2 * phases {
                self.decided = Some(self.value);
            } else {
                Self::encode(TAG_VALUE, self.value, out);
            }
        }
    }

    fn rounds(&self) -> u64 {
        2 * (self.f as u64 + 1) + 1
    }

    fn decided(&self) -> Option<Value> {
        self.decided
    }

    fn name(&self) -> &'static str {
        "phase-king"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{no_tamper as honest, run_pure};

    /// The message `tag · value`, on its own.
    fn message(tag: u8, value: Value) -> Vec<u8> {
        let mut out = Vec::new();
        PhaseKing::encode(tag, value, &mut out);
        out
    }

    #[test]
    fn all_honest_unanimous_input_decides_it() {
        let n = 5;
        let instances: Vec<PhaseKing> = (0..n).map(|me| PhaseKing::new(me, n, 1)).collect();
        let decided = run_pure(instances, &[9, 9, 9, 9, 9], honest);
        assert!(decided.iter().all(|d| *d == Some(9)));
    }

    #[test]
    fn all_honest_mixed_inputs_agree() {
        let n = 5;
        let instances: Vec<PhaseKing> = (0..n).map(|me| PhaseKing::new(me, n, 1)).collect();
        let decided = run_pure(instances, &[1, 2, 1, 2, 1], honest);
        assert!(decided.iter().all(|d| d.is_some()));
        assert!(decided.iter().all(|d| *d == decided[0]), "{decided:?}");
    }

    #[test]
    fn byzantine_garbler_cannot_break_agreement() {
        let n = 5;
        let instances: Vec<PhaseKing> = (0..n).map(|me| PhaseKing::new(me, n, 1)).collect();
        let decided = run_pure(
            instances,
            &[3, 3, 3, 3, 0],
            |from: usize, _r: u64, to: usize, _p: &[u8]| {
                (from == 4).then(|| vec![to as u8, 0xba, 0xd0])
            },
        );
        for (me, d) in decided.iter().enumerate().take(4) {
            assert_eq!(*d, Some(3), "validity for honest p{me}");
        }
    }

    #[test]
    fn byzantine_equivocating_king_cannot_break_agreement() {
        // p0 is the first king and lies differently to each peer.
        let n = 5;
        let instances: Vec<PhaseKing> = (0..n).map(|me| PhaseKing::new(me, n, 1)).collect();
        let decided = run_pure(
            instances,
            &[0, 1, 2, 1, 2],
            |from: usize, _r: u64, to: usize, _p: &[u8]| {
                (from == 0).then(|| message(TAG_KING, to as u64))
            },
        );
        let honest: Vec<_> = (1..5).map(|i| decided[i]).collect();
        assert!(honest.iter().all(|d| d.is_some()));
        assert!(honest.iter().all(|d| *d == honest[0]), "{honest:?}");
    }

    #[test]
    fn two_faults_with_nine_processors() {
        let n = 9;
        let instances: Vec<PhaseKing> = (0..n).map(|me| PhaseKing::new(me, n, 2)).collect();
        let inputs = vec![5, 5, 5, 5, 5, 5, 5, 0, 0];
        let decided = run_pure(
            instances,
            &inputs,
            |from: usize, _r: u64, to: usize, _p: &[u8]| {
                (from >= 7).then(|| message(TAG_VALUE, (to * 31) as u64))
            },
        );
        for (me, d) in decided.iter().enumerate().take(7) {
            assert_eq!(*d, Some(5), "honest p{me}");
        }
    }

    #[test]
    #[should_panic(expected = "n > 4f")]
    fn rejects_insufficient_n() {
        PhaseKing::new(0, 4, 1);
    }

    #[test]
    fn duplicate_votes_from_one_sender_count_once() {
        let mut pk = PhaseKing::new(0, 5, 1);
        pk.begin(1);
        let spam = message(TAG_VALUE, 9);
        let inbox: Vec<(usize, &[u8])> = vec![
            (1, spam.as_slice()),
            (1, spam.as_slice()),
            (1, spam.as_slice()),
        ];
        pk.tally(&inbox);
        // Own vote for 1 plus one vote for 9 → maj has mult 1 (tie broken
        // toward the smaller value 1).
        assert_eq!(pk.mult, 1);
        assert_eq!(pk.maj, 1);
    }

    #[test]
    fn rounds_scale_with_f() {
        assert_eq!(PhaseKing::new(0, 5, 1).rounds(), 5);
        assert_eq!(PhaseKing::new(0, 9, 2).rounds(), 7);
    }
}
