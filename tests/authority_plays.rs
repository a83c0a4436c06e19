//! The decision golden: what every processor of the five `authority`
//! configurations recorded, play by play, at seeds 0–7 and 10 plays each
//! (`ga_scenario::authority::write_plays`), against the committed
//! `tests/golden/authority_plays.jsonl`.
//!
//! The byte-level goldens pin the wire; this one pins the decisions. A
//! change to the wire, the encoding, the schedule or the speed leaves it
//! byte-identical. A change to a decision moves the lines of the plays,
//! processors and fields it changed, and says why.
//!
//! Every run writes what it computed to `target/tmp/authority_plays.jsonl`,
//! which `scripts/regen_goldens.sh` copies over the golden.

use std::path::Path;

use game_authority_suite::scenario::authority::write_plays;

const GOLDEN: &str = include_str!("golden/authority_plays.jsonl");

#[test]
fn every_recorded_play_matches_the_decision_golden() {
    let mut plays = Vec::new();
    write_plays(&mut plays, 10, 0..8).expect("writing to memory");
    let plays = String::from_utf8(plays).expect("JSON lines are UTF-8");
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join("authority_plays.jsonl");
    std::fs::write(&written, &plays).expect("target/tmp is writable");
    // The first line that differs names the scenario, seed, processor and
    // play (or the run's closing line) whose decision moved.
    for (at, (ours, golden)) in plays.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(ours, golden, "line {} of the decision golden", at + 1);
    }
    assert_eq!(
        plays.lines().count(),
        GOLDEN.lines().count(),
        "lines in the decision golden (written to {})",
        written.display()
    );
}
