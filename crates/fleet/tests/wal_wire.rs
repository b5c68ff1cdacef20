//! Frozen wire vectors, round-trip and hostile-byte tests for the
//! coordinator journal codec. The hex strings pin every byte on the
//! wire: a change that moves one of them is a format break, not a
//! refactor.

use distmsm_journal::Wire;
use distmsm_fleet::FleetRecord;
use proptest::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

fn detected(corruption: &'static str) -> FleetRecord {
    FleetRecord::Detected { t_s: 2.5, id: 7, pod: 0, corruption }
}

/// One vector per record variant and per corruption label.
fn record_vectors() -> Vec<(FleetRecord, &'static str)> {
    vec![
        (FleetRecord::Placed { t_s: 0.5, id: 7, pod: 1, epoch: 1 }, "00000000000000e03f070000000000000001000000000000000100000000000000"),
        (FleetRecord::Stolen { t_s: 1.0, id: 7, from: 1, to: 0, epoch: 2 }, "01000000000000f03f0700000000000000010000000000000000000000000000000200000000000000"),
        (
            FleetRecord::Accepted {
                t_s: 2.0,
                id: 8,
                tenant: 3,
                pod: 0,
                attempts: 1,
                epoch: 1,
                result: vec![1, 2, 3, 4],
            },
            "0200000000000000400800000000000000030000000000000000000000000000000100000001000000000000000400000001020304",
        ),
        (detected("bit-flip"), "0300000000000004400700000000000000000000000000000000"),
        (detected("swapped-shard"), "0300000000000004400700000000000000000000000000000001"),
        (detected("zero-partial"), "0300000000000004400700000000000000000000000000000002"),
        (detected("unknown"), "03000000000000044007000000000000000000000000000000ff"),
        (FleetRecord::Quarantined { t_s: 2.5, pod: 2 }, "0400000000000004400200000000000000"),
        (FleetRecord::Replaced { t_s: 2.5, id: 7, from: 0, to: 1, epoch: 3 }, "0500000000000004400700000000000000000000000000000001000000000000000300000000000000"),
        (FleetRecord::Fenced { t_s: 10.0, pod: 1, epoch: 2 }, "06000000000000244001000000000000000200000000000000"),
        (FleetRecord::Rejoined { t_s: 16.0, pod: 1, epoch: 2 }, "07000000000000304001000000000000000200000000000000"),
        (FleetRecord::Discarded { t_s: 16.0, id: 7, pod: 1, epoch: 1 }, "080000000000003040070000000000000001000000000000000100000000000000"),
    ]
}

#[test]
fn frozen_record_vectors() {
    for (rec, want) in record_vectors() {
        assert_eq!(hex(&rec.to_bytes()), want, "bytes out: {rec:?}");
        assert_eq!(FleetRecord::from_bytes(&unhex(want)).expect("decodes"), rec, "value in");
    }
}

/// A decoder fed arbitrary bytes must return a typed error or a value
/// whose canonical encoding is exactly those bytes — never panic,
/// never accept two spellings of one value.
fn typed_error_or_canonical<T: Wire>(bytes: &[u8]) {
    if let Ok(v) = T::from_bytes(bytes) {
        assert_eq!(hex(&v.to_bytes()), hex(bytes), "accepted a non-canonical encoding");
    }
}

fn hostile<T: Wire>(good: &[u8]) {
    for cut in 0..good.len() {
        assert!(T::from_bytes(&good[..cut]).is_err(), "strict prefix {cut} accepted");
    }
    for extra in [0u8, 1, 0xff] {
        let mut long = good.to_vec();
        long.push(extra);
        assert!(T::from_bytes(&long).is_err(), "trailing byte {extra:#x} accepted");
    }
    for i in 0..good.len() {
        for flip in [0x01u8, 0x02, 0x80, 0xff] {
            let mut bad = good.to_vec();
            bad[i] ^= flip;
            typed_error_or_canonical::<T>(&bad);
        }
    }
}

#[test]
fn hostile_record_bytes_never_panic() {
    for (_, good) in record_vectors() {
        hostile::<FleetRecord>(&unhex(good));
    }
}

/// A deterministic pseudo-random record: every variant and corruption
/// label is reachable from the seed.
fn arbitrary_record(seed: u64) -> FleetRecord {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 16
    };
    let f = |x: u64| f64::from_bits(x.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (t_s, id, pod, epoch) = (f(next()), next(), next() as usize, next());
    let (from, to) = (next() as usize, next() as usize);
    match next() % 9 {
        0 => FleetRecord::Placed { t_s, id, pod, epoch },
        1 => FleetRecord::Stolen { t_s, id, from, to, epoch },
        2 => FleetRecord::Accepted {
            t_s,
            id,
            tenant: from,
            pod,
            attempts: next() as u32,
            epoch,
            result: (0..next() % 70).map(|b| b as u8).collect(),
        },
        3 => FleetRecord::Detected {
            t_s,
            id,
            pod,
            corruption: ["bit-flip", "swapped-shard", "zero-partial", "unknown"]
                [(next() % 4) as usize],
        },
        4 => FleetRecord::Quarantined { t_s, pod },
        5 => FleetRecord::Replaced { t_s, id, from, to, epoch },
        6 => FleetRecord::Fenced { t_s, pod, epoch },
        7 => FleetRecord::Rejoined { t_s, pod, epoch },
        _ => FleetRecord::Discarded { t_s, id, pod, epoch },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `from_bytes(to_bytes(x))` is `x`, compared through the bytes so
    /// NaN-valued floats (bit-exact on the wire) do not defeat `==`.
    #[test]
    fn records_round_trip(seed in any::<u64>()) {
        let rec = arbitrary_record(seed);
        let bytes = rec.to_bytes();
        let back = FleetRecord::from_bytes(&bytes).expect("own encoding decodes");
        prop_assert_eq!(hex(&back.to_bytes()), hex(&bytes));
        prop_assert_eq!(format!("{back:?}"), format!("{rec:?}"));
    }
}
