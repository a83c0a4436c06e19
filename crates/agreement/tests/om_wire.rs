//! Pins the oral-messages wire: traffic totals at three sizes, derived a
//! second time from the closed form, and a digest of every payload at two.
//! A change to slot order, framing or round structure fails here by name
//! before it shows as a `bytes_per_op` drift in the benchmark.
//!
//! Recorded at PR 21, when a relay stopped carrying paths (level byte,
//! presence bits, values in slot order — see `ga_agreement::eig`). Before
//! that the totals were 1080 / 27 678 / 902 160 bytes, unchanged since the
//! `HashMap` tree of PR 13; messages and rounds are what they were. The
//! two digests were computed from the format's description by a script
//! that shares no code with this crate, then met by the first run.

use ga_agreement::consensus::OmConsensus;
use ga_agreement::executor::{run_pure_with_stats, ExecStats};
use ga_crypto::sha256::Sha256;

/// Runs one all-honest consensus on inputs `100 + i` and returns its
/// traffic totals and the SHA-256 of all payloads in delivery order.
fn run(n: usize, f: usize) -> (ExecStats, String) {
    let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, f)).collect();
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let mut hasher = Sha256::new();
    let (decided, stats) = run_pure_with_stats(
        instances,
        &inputs,
        |_from: usize, _round: u64, _to: usize, payload: &[u8]| {
            hasher.update(payload);
            None
        },
    );
    // n distinct inputs: no strict majority, everyone falls to the default.
    assert!(decided.iter().all(|d| *d == Some(0)), "{decided:?}");
    let hex = hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    (stats, hex)
}

/// `n`, `f`, and the traffic of one all-honest consensus.
const PINNED: [(usize, usize, ExecStats); 3] = [
    (4, 1, stats(24, 672, 3)),
    (7, 2, stats(126, 15_708, 4)),
    (10, 3, stats(360, 441_900, 5)),
];

const fn stats(messages: u64, bytes: u64, rounds: u64) -> ExecStats {
    ExecStats {
        messages,
        bytes,
        rounds,
    }
}

#[test]
fn om_traffic_totals_are_pinned() {
    for (n, f, expected) in PINNED {
        assert_eq!(run(n, f).0, expected, "n={n} f={f}");
    }
}

/// Why the totals are what they are. Each of `n` processors sends `n - 1`
/// frames a round for `f + 1` rounds. Round 0's frame is one part: a
/// 4-byte header and the 10-byte announcement. Round `t`'s is `n - 1`
/// parts, one per other source: the header, a level byte, a presence bit
/// and — all honest — an 8-byte value for each of the
/// `K = (n-2)(n-3)…(n-t)` nodes ending in the sender.
#[test]
fn om_traffic_totals_follow_from_the_format() {
    for (n, f, pinned) in PINNED {
        let (n, f) = (n as u64, f as u64);
        let mut per_destination = 4 + 10;
        let mut slots = 1;
        for t in 1..=f {
            if t >= 2 {
                slots *= n - t;
            }
            per_destination += (n - 1) * (4 + 1 + slots.div_ceil(8) + 8 * slots);
        }
        let derived = stats(
            n * (n - 1) * (f + 1),
            n * (n - 1) * per_destination,
            // The announcement, `f` relays, and the step that resolves.
            f + 2,
        );
        assert_eq!(derived, pinned, "n={n} f={f}");
    }
}

#[test]
fn om_payload_digests_are_pinned() {
    assert_eq!(
        run(4, 1).1,
        "44777a36114283769ee8a996a58332d4e33f316fc87f418130c4dab3326b0b82"
    );
    assert_eq!(
        run(7, 2).1,
        "98542d89296c0d6ca3793b995c3fd57ca5ff75b7499ee279643d44abf587fd76"
    );
}
