//! Pins the oral-messages wire: traffic totals at three sizes and a digest
//! of every payload at two. The numbers were recorded from the `HashMap`
//! tree the flat EIG table replaced; a change to entry order, framing or
//! round structure fails here by name before it shows as a `bytes_per_op`
//! drift in the benchmark.

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

#[test]
fn om_traffic_totals_are_pinned() {
    let pinned = [
        ((4, 1), (24, 1080, 3)),
        ((7, 2), (126, 27_678, 4)),
        ((10, 3), (360, 902_160, 5)),
    ];
    for ((n, f), (messages, bytes, rounds)) in pinned {
        let expected = ExecStats {
            messages,
            bytes,
            rounds,
        };
        assert_eq!(run(n, f).0, expected, "n={n} f={f}");
    }
}

#[test]
fn om_payload_digests_are_pinned() {
    assert_eq!(
        run(4, 1).1,
        "b303ed0a4423c8a57f9bf503d6baa2c1b34565b6572f8b2a7fd96a2ac93c534d"
    );
    assert_eq!(
        run(7, 2).1,
        "7c2e3adf1012a1c0bb0cdb205fcfc2eafe31d3e440b2d9e30438e3d55682aae3"
    );
}
