//! The schedule table in `distributed.rs`'s module doc, read from the
//! source and held to `AuthorityProcess::phase_of`.
//!
//! Each row names clock values as `aR + b` (one value, or `lo … hi`) and the
//! [`Phase`] they schedule; `Agree(k)` counts `k` from the row's first
//! value. At R = `om::rounds(f)` for f = 0…3, the rows must cover every
//! value of one period exactly once, each with the phase `phase_of` gives
//! it. So the table a reader sees cannot drift from the one the code runs.

use game_authority_suite::agreement::om;
use game_authority_suite::authority::distributed::{AuthorityProcess, Phase};

const SOURCE: &str = include_str!("../crates/core/src/distributed.rs");

/// A clock value `aR + b`, as `(a, b)`.
type Bound = (u64, u64);

/// `(lo, hi, phase)` of every row of the module doc's schedule table.
fn table() -> Vec<(Bound, Bound, String)> {
    let rows: Vec<&str> = SOURCE
        .lines()
        .map_while(|line| line.strip_prefix("//!"))
        .skip_while(|line| !line.starts_with(" | clock value"))
        .skip(2)
        .take_while(|line| line.starts_with(" |"))
        .collect();
    assert!(!rows.is_empty(), "no schedule table in the module doc");
    rows.iter()
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let bounds: Vec<Bound> = cells[1].split('`').skip(1).step_by(2).map(affine).collect();
            let (lo, hi) = match bounds[..] {
                [v] => (v, v),
                [lo, hi] => (lo, hi),
                _ => panic!("row {row:?}: one value or a range"),
            };
            (lo, hi, cells[2].trim_matches('`').to_string())
        })
        .collect()
}

/// Parses `aR + b` (either term may be missing).
fn affine(expr: &str) -> Bound {
    expr.split('+')
        .map(str::trim)
        .fold((0, 0), |(a, b), term| match term.strip_suffix('R') {
            Some("") => (a + 1, b),
            Some(coef) => (a + coef.parse::<u64>().expect(expr), b),
            None => (a, b + term.parse::<u64>().expect(expr)),
        })
}

#[test]
fn the_module_docs_schedule_table_is_phase_of() {
    let table = table();
    for f in 0..=3 {
        let r = om::rounds(f);
        let at = |(a, b): Bound| a * r + b;
        let len = AuthorityProcess::schedule_len(r);
        let mut rows_at = vec![0; len as usize];
        for (lo, hi, phase) in &table {
            for v in at(*lo)..=at(*hi) {
                assert!(v < len, "f={f}: {phase} at {v}, past a period of {len}");
                rows_at[v as usize] += 1;
                let expected = match phase.as_str() {
                    "Agree(k)" => format!("Agree({})", v - at(*lo)),
                    other => other.to_string(),
                };
                let scheduled: Phase = AuthorityProcess::phase_of(r, v);
                assert_eq!(format!("{scheduled:?}"), expected, "f={f}, R={r}, v={v}");
            }
        }
        assert!(
            rows_at.iter().all(|&rows| rows == 1),
            "f={f}: rows per clock value {rows_at:?}"
        );
    }
}
