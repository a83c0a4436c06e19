//! One honest play at each size of `scripts/play_cost.py`, phase by phase,
//! against `scripts/play_cost.expected`: the pulses, messages and bytes the
//! cost model derives from the format descriptions are what the authority
//! delivers. tier1 diffs the script's output against the same file, so
//! the model, the file and the code move together.

use game_authority_suite::agreement::om;
use game_authority_suite::authority::distributed::{
    build_authority_sim, AuthorityCluster, AuthorityProcess, Phase,
};
use game_authority_suite::games::congestion;
use game_authority_suite::simnet::prelude::*;

const EXPECTED: &str = include_str!("../scripts/play_cost.expected");

/// `(phase, [pulses, messages, bytes])` for the second play of an
/// all-honest `(n, f)` cluster at seed 1, BA 3's rounds apart, then the
/// play. A pulse counts toward the phase of the clock value it leaves
/// behind at processor 0.
fn measured(n: usize, f: usize) -> Vec<(String, [u64; 3])> {
    let cluster = AuthorityCluster::new(congestion(n), f);
    let mut sim = build_authority_sim(&cluster, 1);
    sim.run(cluster.play_len());
    let r = om::rounds(f);
    let mut rows: Vec<(String, [u64; 3])> = Vec::new();
    let mut committed = false;
    for _ in 0..cluster.play_len() {
        let (messages, bytes) = (sim.trace().messages_delivered, sim.trace().bytes_delivered);
        sim.step();
        let v = sim
            .process_as::<AuthorityProcess>(ProcessId(0))
            .expect("an authority processor")
            .clock_value();
        let phase = match AuthorityProcess::phase_of(r, v) {
            Phase::Wrap => "wrap".to_string(),
            Phase::Claims if committed => "claims2".to_string(),
            Phase::Claims => "claims1".to_string(),
            Phase::Commit => {
                committed = true;
                "commit".to_string()
            }
            Phase::Reveal => "reveal".to_string(),
            Phase::Agree(k) => format!("ba3.{k}"),
            Phase::Exec => "exec".to_string(),
        };
        if rows.last().map(|(last, _)| last) != Some(&phase) {
            rows.push((phase, [0; 3]));
        }
        let row = &mut rows.last_mut().expect("just pushed").1;
        row[0] += 1;
        row[1] += sim.trace().messages_delivered - messages;
        row[2] += sim.trace().bytes_delivered - bytes;
    }
    let mut play = [0; 3];
    for (_, row) in &rows {
        play.iter_mut().zip(row).for_each(|(total, x)| *total += x);
    }
    rows.push(("play".to_string(), play));
    rows
}

/// The expected file's rows for `(n, f)`.
fn expected(n: usize, f: usize) -> Vec<(String, [u64; 3])> {
    EXPECTED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|row| row[..2] == [&n.to_string(), &f.to_string()])
        .map(|row| {
            let count = |i: usize| row[i].parse().expect("a count");
            (row[2].to_string(), [count(3), count(4), count(5)])
        })
        .collect()
}

#[test]
fn an_honest_play_costs_what_the_model_says() {
    for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 2), (22, 3)] {
        let expected = expected(n, f);
        assert!(!expected.is_empty(), "({n}, {f}) is in the expected file");
        assert_eq!(measured(n, f), expected, "({n}, {f})");
    }
}
