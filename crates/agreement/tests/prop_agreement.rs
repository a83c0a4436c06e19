//! Property tests for the agreement substrate: protocol guarantees over
//! random inputs and adversaries, codec totality.

use ga_agreement::consensus::majority;
use ga_agreement::executor::{honest_agreement, no_tamper, run_pure};
use ga_agreement::om::OmBroadcast;
use ga_agreement::wire::{Reader, Writer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wire decoding is total: arbitrary bytes never panic.
    #[test]
    fn reader_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut r = Reader::new(&bytes);
        let _ = r.get_u8();
        let _ = r.get_u16();
        let _ = r.get_u32();
        let _ = r.get_u64();
        let _ = r.get_bytes();
        // And protocols must tolerate garbage inboxes outright:
        let instances: Vec<OmBroadcast> = (0..4).map(|me| OmBroadcast::new(me, 4, 1, 0)).collect();
        let decided = run_pure(instances, &[5, 0, 0, 0],
            move |from: usize, _r: u64, _to: usize, _p: &[u8]| {
                (from == 3).then(|| bytes.clone())
            });
        prop_assert!(honest_agreement(&decided, &[3], Some(5)));
    }

    /// Writer/Reader round-trips arbitrary scalar sequences.
    #[test]
    fn codec_round_trip(a in any::<u8>(), b in any::<u16>(), c in any::<u64>(),
                        payload in proptest::collection::vec(any::<u8>(), 0..100)) {
        let mut buf = Vec::new();
        Writer::new(&mut buf).put_u8(a).put_u16(b).put_u64(c).put_bytes(&payload);
        let mut r = Reader::new(&buf);
        prop_assert_eq!(r.get_u8(), Some(a));
        prop_assert_eq!(r.get_u16(), Some(b));
        prop_assert_eq!(r.get_u64(), Some(c));
        prop_assert_eq!(r.get_bytes(), Some(payload.as_slice()));
        prop_assert!(r.is_exhausted());
    }

    /// OM broadcast validity: with an honest source, all honest processors
    /// decide the source value, whatever the inputs elsewhere.
    #[test]
    fn om_validity(n in 4usize..8, source_value in any::<u64>(), source in 0usize..8) {
        let source = source % n;
        let instances: Vec<OmBroadcast> =
            (0..n).map(|me| OmBroadcast::new(me, n, 1, source)).collect();
        let inputs: Vec<u64> = (0..n)
            .map(|i| if i == source { source_value } else { i as u64 })
            .collect();
        let decided = run_pure(instances, &inputs, no_tamper);
        prop_assert!(decided.iter().all(|d| *d == Some(source_value)));
    }

    /// Strict majority helper: a value with > n/2 occurrences always wins;
    /// without one the default is returned.
    #[test]
    fn majority_properties(values in proptest::collection::vec(0u64..4, 1..12)) {
        let n = values.len();
        let m = majority(values.iter().copied(), n);
        let count = values.iter().filter(|&&v| v == m).count();
        if m != ga_agreement::DEFAULT_VALUE {
            prop_assert!(2 * count > n);
        } else {
            // Either 0 genuinely won a majority, or nothing did.
            let zero_count = values.iter().filter(|&&v| v == 0).count();
            let any_majority = (0u64..4).any(|v| {
                2 * values.iter().filter(|&&x| x == v).count() > n
            });
            prop_assert!(2 * zero_count > n || !any_majority);
        }
    }
}
