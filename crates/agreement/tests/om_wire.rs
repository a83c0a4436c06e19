//! Pins the oral-messages wire: traffic totals at three sizes — with every
//! source honest, with one that equivocates and with all of them at it —
//! derived a second time from the closed form, and a digest of every
//! payload at two sizes. A change to slot order, framing or round
//! structure fails here by name before it shows as a `bytes_per_op` drift
//! in the benchmark.
//!
//! Recorded when a round whose every part tells every node one value
//! became one short frame (`ga_agreement::consensus`, "Short frame"): the
//! level byte and a varint value per instance the sender speaks for. With
//! every source honest every round is short, and the totals fell from
//! 576 / 6552 / 35 100 / 48 672 bytes to 72 / 672 / 2880 / 4368; every
//! digest moved. Before that, a part's header became two LEB128 varints,
//! the instance and the length ("Frame"), where they had been two `u16`s,
//! and before that a relay part whose values all agree began to say the
//! value once (`ga_agreement::eig`, "Level payload"). The all-liars column
//! is what a consensus costs when every source equivocates, and the most
//! honest processors can be made to send. Messages and rounds are what
//! they always were. The digests and totals were computed from the
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
    (
        4,
        1,
        [stats(24, 72, 3), stats(24, 102, 3), stats(24, 192, 3)],
    ),
    (
        7,
        2,
        [
            stats(126, 672, 4),
            stats(126, 4224, 4),
            stats(126, 11_886, 4),
        ],
    ),
    (
        10,
        3,
        [
            stats(360, 2880, 5),
            stats(360, 63_477, 5),
            stats(360, 428_850, 5),
        ],
    ),
    (
        13,
        2,
        [
            stats(468, 4368, 4),
            stats(468, 36_600, 4),
            stats(468, 177_996, 4),
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
/// frames a round for `f + 1` rounds, and every value here (an input
/// `100 + i`, a lie `100 + to`) is one varint byte. An honest round is a
/// short frame: the level byte and a value per instance the sender speaks
/// for — round 0 its own announcement, 2 bytes; a relay round the `n - 1`
/// other sources, `n` bytes.
///
/// A liar's round-0 frame is the plain part it forges, 12 bytes: the
/// instance, the length and the 10-byte announcement. Relay round 1 tells
/// one node per part (`K = 1`), so it stays short whatever the liars said.
/// From round 2 on, a relay part tells `K = (n-2)(n-3)…(n-t)` nodes, and in
/// a liar's tree node `(s, q, …, p)` holds what `s` told `q`, so no two of
/// them agree: the column is not `One(v)`, that part is plain and `8·K`
/// bytes of values, and the round falls back to plain parts for every
/// sender with a liar among the other sources. Every other part of such a
/// frame is the uniform one — a level byte, `⌈K/8⌉` presence bytes with
/// every bit set and the value in 8 bytes — behind its instance and its
/// length, which may take a second byte. A liar relays the other sources'
/// trees honestly, so with one liar its own relay frames stay short; with
/// every source lying every frame is plain and full, the cost of every run
/// before the uniform form.
fn derived(n: u64, f: u64, liars: u64) -> ExecStats {
    let part = |len: u64| 1 + varint_len(len) as u64 + len;
    let mut per_pair_total = n * (n - 1) * 2 + liars * (n - 1) * (part(10) - 2);
    let mut slots = 1;
    for t in 1..=f {
        if t >= 2 {
            slots *= n - t;
        }
        // A sender's frame when `lying` of the other sources lied.
        let frame = |lying: u64| {
            if t == 1 || lying == 0 {
                return 1 + (n - 1);
            }
            let said_once = 1 + slots.div_ceil(8) + 8;
            let spelled_out = said_once + 8 * (slots - 1);
            (n - 1 - lying) * part(said_once) + lying * part(spelled_out)
        };
        // A liar hears one liar fewer; with every source lying, no
        // honest sender is left.
        let senders =
            liars * frame(liars.saturating_sub(1)) + (n - liars) * frame(liars.min(n - 1));
        per_pair_total += (n - 1) * senders;
    }
    stats(
        n * (n - 1) * (f + 1),
        per_pair_total,
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
    // Every frame short: no part tells two values.
    assert_eq!(
        run(4, 1, 0).1,
        "d2000b95f533bcd61377287637ac5e168a2355a48010086a45dd169fa24349a1"
    );
    assert_eq!(
        run(7, 2, 0).1,
        "ca8482e44d9cfc4f575704655ae9faf6f44ed97c00d6e402c9ac2fbd454f224a"
    );
    // Source 0 lies: its round-0 frames plain; at level 3 its part of every
    // other sender's frame plain, so those frames plain, its own short.
    assert_eq!(
        run(7, 2, 1).1,
        "4c50e225fff56a56b8cbe31f8eca35f21b1f029a62eb8781e1ca5f7f3cd89a08"
    );
    // A plain level-4 part of 456 bytes takes a two-byte length.
    assert_eq!(
        run(10, 3, 1).1,
        "092ed703bbd72d25c7d312081a3a77bea73e9cd10768a4d9234274a8f28dd989"
    );
}
