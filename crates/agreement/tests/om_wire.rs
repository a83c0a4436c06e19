//! Pins the oral-messages wire: traffic totals at three sizes — with every
//! source honest, with one that equivocates and with all of them at it —
//! derived a second time from the closed form, and a digest of every
//! payload at two sizes. A change to slot order, framing or round
//! structure fails here by name before it shows as a `bytes_per_op` drift
//! in the benchmark.
//!
//! Recorded when a part's header became two LEB128 varints, the instance
//! and the length (`ga_agreement::consensus`, "Frame"), where they had been
//! two `u16`s: two bytes a part where there were four, and three for a
//! payload of 128 bytes or more. With every source honest the totals fell
//! from 672 / 7644 / 40 140 bytes to 576 / 6552 / 35 100, and every digest
//! moved. Before that, a relay part whose values all agree began to say
//! the value once (see `ga_agreement::eig`, "Level payload"); the all-liars
//! column is what a consensus costs when every source equivocates, and the
//! most honest processors can be made to send. Messages and rounds are
//! what they always were. The digests and totals were computed from the
//! format's description by `scripts/om_wire_digest.py`, which shares no
//! code with this crate, then met by the first run.

use ga_agreement::consensus::OmConsensus;
use ga_agreement::executor::{run_pure_with_stats, ExecStats};
use ga_agreement::wire::varint_len;
use ga_crypto::sha256::Sha256;

/// Runs one consensus on inputs `100 + i` in which the sources below
/// `liars` equivocate — each tells destination `to` that its input is
/// `100 + to` — and returns its traffic totals and the SHA-256 of all
/// payloads in delivery order.
fn run(n: usize, f: usize, liars: usize) -> (ExecStats, String) {
    let instances: Vec<OmConsensus> = (0..n).map(|me| OmConsensus::new(me, n, f)).collect();
    let inputs: Vec<u64> = (0..n as u64).map(|i| 100 + i).collect();
    let mut hasher = Sha256::new();
    let (decided, stats) = run_pure_with_stats(
        instances,
        &inputs,
        |from: usize, round: u64, to: usize, payload: &[u8]| {
            // A liar's round-0 frame, byte by byte: part header (its own
            // broadcast, 10 bytes), level 1, the one presence bit, the
            // value.
            let lie = (from < liars && round == 0).then(|| {
                let head = [from as u8, 10, 1, 1];
                [&head[..], &(100 + to as u64).to_be_bytes()].concat()
            });
            hasher.update(lie.as_deref().unwrap_or(payload));
            lie
        },
    );
    // n distinct inputs, or lies that agree on none: no strict majority,
    // everyone falls to the default.
    assert!(decided.iter().all(|d| *d == Some(0)), "{decided:?}");
    let hex = hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    (stats, hex)
}

/// `n`, `f`, and the traffic of one consensus: all honest, source 0
/// equivocating, every source equivocating.
const PINNED: [(usize, usize, [ExecStats; 3]); 4] = [
    (4, 1, [stats(24, 576, 3); 3]),
    (
        7,
        2,
        [
            stats(126, 6552, 4),
            stats(126, 7704, 4),
            stats(126, 14_616, 4),
        ],
    ),
    (
        10,
        3,
        [
            stats(360, 35_100, 5),
            stats(360, 75_357, 5),
            stats(360, 437_670, 5),
        ],
    ),
    (
        13,
        2,
        [
            stats(468, 48_672, 4),
            stats(468, 60_192, 4),
            stats(468, 198_432, 4),
        ],
    ),
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
    for (n, f, pinned) in PINNED {
        for (liars, expected) in [0, 1, n].into_iter().zip(pinned) {
            assert_eq!(run(n, f, liars).0, expected, "n={n} f={f} liars={liars}");
        }
    }
}

/// Why the totals are what they are. Each of `n` processors sends `n - 1`
/// frames a round for `f + 1` rounds. Every part is headed by its instance
/// (one byte, `n < 128`) and its payload's length as a varint (one byte
/// below 128, two from there). Round 0's frame is one part, the 10-byte
/// announcement. Round `t`'s is `n - 1` parts, one per other source: a
/// level byte, a presence bit for each of the `K = (n-2)(n-3)…(n-t)` nodes
/// ending in the sender, and their values — which with an honest source
/// are one value, so 8 bytes whether `K` is 1 (plain) or more (uniform),
/// and never `8·K`.
///
/// A source `s` that tells every destination another value changes its
/// own tree's parts alone: node `(s, q, …, p)` holds what `s` told `q`,
/// so once `K ≥ 2` (level 3 on) the part each of the `n - 1` relayers
/// sends each of its `n - 1` destinations is plain, `8·K` where it was 8,
/// and its length may take the second byte. With every source at it every
/// part is — the cost of every run before the uniform form.
fn derived(n: u64, f: u64, liars: u64) -> ExecStats {
    let part = |len: u64| 1 + varint_len(len) as u64 + len;
    let mut per_destination = part(10);
    let mut spelled_out = 0;
    let mut slots = 1;
    for t in 1..=f {
        if t >= 2 {
            slots *= n - t;
        }
        let said_once = 1 + slots.div_ceil(8) + 8;
        per_destination += (n - 1) * part(said_once);
        spelled_out += (n - 1) * (n - 1) * (part(said_once + 8 * (slots - 1)) - part(said_once));
    }
    stats(
        n * (n - 1) * (f + 1),
        n * (n - 1) * per_destination + liars * spelled_out,
        // The announcement, `f` relays, and the step that resolves.
        f + 2,
    )
}

#[test]
fn om_traffic_totals_follow_from_the_format() {
    for (n, f, pinned) in PINNED {
        for (liars, pinned) in [0, 1, n].into_iter().zip(pinned) {
            let (n, f, liars) = (n as u64, f as u64, liars as u64);
            assert_eq!(derived(n, f, liars), pinned, "n={n} f={f} liars={liars}");
        }
    }
}

/// The slot scans at scale. With every source equivocating, no column of
/// level 3 or 4 of any tree is told one value, so in all 13 × 13 trees of
/// 2380 slots the relays of levels 2 and 3, the absorbs of levels 3 and 4
/// and the resolve scan the table. Honest runs never do; tier1 times this
/// one under a timeout.
#[test]
fn thirteen_sources_equivocating_take_the_table_everywhere() {
    assert_eq!(run(13, 3, 13).0, derived(13, 3, 13));
}

#[test]
fn om_payload_digests_are_pinned() {
    // No part of f = 1 tells two values.
    assert_eq!(
        run(4, 1, 0).1,
        "c92d3dd538c22993a98fe1c7480fcf6474a2944469ca313fa41bd4e958e476fa"
    );
    // Every level-3 part uniform; then source 0's part of each frame plain.
    assert_eq!(
        run(7, 2, 0).1,
        "58e52372a4754a9f1cd5ed9d3ee641ad262ef8c010ba38cb9a591bf4cc7ca280"
    );
    assert_eq!(
        run(7, 2, 1).1,
        "623961444e9ff47ceb70f7f34553f39f2db795a7335f93d1d7ac623e1336441d"
    );
    // A plain level-4 part of 456 bytes takes a two-byte length.
    assert_eq!(
        run(10, 3, 1).1,
        "707505f692d14b45548b32e4e60507caf88621927ab7934a947e319614fa391d"
    );
}
