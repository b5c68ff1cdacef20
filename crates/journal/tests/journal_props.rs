//! Property tests for the journal: recovery of any crash prefix is
//! deterministic and idempotent — replaying a prefix twice yields
//! exactly the same records as replaying it once.

use distmsm_journal::{DurableState, JournalError, Record};
use proptest::prelude::*;

/// Builds a durable state with `n` records of pseudo-random payload
/// lengths derived from `seed`.
fn build(seed: u64, n: usize) -> DurableState {
    let mut d = DurableState::new();
    let mut s = seed;
    for i in 0..n {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let len = (s >> 33) as usize % 48;
        let payload: Vec<u8> = (0..len).map(|j| (s as u8).wrapping_add(j as u8)).collect();
        d.append(i as f64 * 0.25, &payload);
    }
    d
}

fn record_epochs(r: &[Record]) -> Vec<u64> {
    r.iter().map(|x| x.epoch).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying any byte-truncation prefix twice equals replaying it
    /// once: recover → reopen → recover is a fixed point.
    #[test]
    fn prefix_replay_is_idempotent(
        seed in any::<u64>(),
        n in 1usize..40,
        frac in 0.0f64..1.0,
    ) {
        let d = build(seed, n);
        let cut = (d.journal.bytes().len() as f64 * frac) as usize;
        let crashed = d.truncate_bytes(cut);
        let once = crashed.recover().expect("crash prefixes always recover");
        let reopened = crashed.reopen().expect("crash prefixes always reopen");
        let twice = reopened.recover().expect("reopened state recovers");
        prop_assert_eq!(record_epochs(&once.records), record_epochs(&twice.records));
        prop_assert_eq!(&once.records, &twice.records);
        prop_assert_eq!(once.next_epoch, twice.next_epoch);
        // The reopened log is clean: no torn tail remains.
        prop_assert_eq!(twice.torn_tail_bytes, 0);
    }

    /// Record-boundary truncation keeps exactly the first `k` records,
    /// epochs 1 through `k`.
    #[test]
    fn record_cut_recovers_exact_prefix(
        seed in any::<u64>(),
        n in 1usize..40,
        k in 0usize..40,
    ) {
        let d = build(seed, n);
        let k = k.min(n);
        let crashed = d.truncate_records(k);
        let rec = crashed.recover().expect("record cuts recover");
        prop_assert_eq!(record_epochs(&rec.records), (1..=k as u64).collect::<Vec<_>>());
        prop_assert_eq!(rec.next_epoch, k as u64 + 1);
    }

    /// A strict replay of an untruncated journal never errors, and a
    /// mid-journal bit flip always yields a typed CrcMismatch from both
    /// read paths — never a panic, never silent acceptance.
    #[test]
    fn bit_flips_always_caught(
        seed in any::<u64>(),
        n in 1usize..24,
        victim in any::<u64>(),
        bit in 0u8..8,
    ) {
        let d = build(seed, n);
        prop_assert!(d.journal.replay().is_ok());
        let spans = d.journal.frame_spans();
        let (off, len) = spans[(victim as usize) % spans.len()];
        // Flip a bit inside the CRC-covered region (epoch ‖ t_s ‖ payload).
        let target = off + 4 + (victim as usize / 7) % (len - 4);
        let mut vs = d.clone();
        vs.journal_bytes_mut()[target] ^= 1 << bit;
        match vs.recover() {
            Err(JournalError::CrcMismatch { .. }) => {}
            other => prop_assert!(
                false,
                "expected CrcMismatch, got {:?}",
                other.map(|r| r.records.len())
            ),
        }
        assert!(matches!(vs.journal.replay(), Err(JournalError::CrcMismatch { .. })));
    }
}
