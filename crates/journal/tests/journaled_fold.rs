//! The journaled-state-machine kernel on its own: a toy [`Fold`]
//! proves `Journaled` append / snapshot cadence / `recover` without the
//! service or fleet layers, and a frozen framed journal pins the frame
//! and primitive byte layout (the hex was produced by the PR 8 journal
//! from hand-laid payload bytes).

use distmsm_journal::wire::{Blob, ByteReader, ByteWriter, Labels};
use distmsm_journal::{
    decode_records, recover, wire, DurableState, Fold, JournalError, Journaled, Wire, WireError,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex")).collect()
}

/// The toy record: one struct-like, one tuple-like variant.
#[derive(Clone, Debug, PartialEq)]
enum Op {
    Add { n: u64 },
    Label(String),
}

wire! { enum Op { 0 => Add { n }, 1 => Label(text) } }

/// The toy state: a running sum and the labels seen, at most
/// `ctx` of them (the "shape" a snapshot must fit).
#[derive(Clone, Debug, PartialEq)]
struct Tally {
    last_epoch: u64,
    sum: u64,
    labels: Vec<String>,
}

wire! { struct Tally { last_epoch, sum, labels } }

impl Fold for Tally {
    type Record = Op;
    type Ctx = usize;

    fn new(_: &usize) -> Self {
        Self { last_epoch: 0, sum: 0, labels: Vec::new() }
    }

    fn fits(&self, max_labels: &usize) -> Result<(), String> {
        if self.labels.len() <= *max_labels {
            Ok(())
        } else {
            Err(format!("{} labels, room for {max_labels}", self.labels.len()))
        }
    }

    fn apply(&mut self, epoch: u64, rec: &Op, max_labels: &usize) -> Result<(), JournalError> {
        match rec {
            Op::Add { n } => self.sum += n,
            Op::Label(text) if self.labels.len() < *max_labels => self.labels.push(text.clone()),
            Op::Label(_) => {
                return Err(JournalError::BadPayload { epoch, detail: "label table full".into() })
            }
        }
        self.last_epoch = epoch;
        Ok(())
    }
}

const JOURNAL_HEX: &str = "090000000100000000000000000000000000e03ff7ea69ba000500000000000000\
    060000000200000000000000000000000000f03f4a12b0eb010100000061\
    090000000300000000000000000000000000f83f59ee1f7c000700000000000000";
const SNAPSHOT_HEX: &str = "1d0000000200000000000000000000000000f03fe37e082f\
    0200000000000000050000000000000001000000000000000100000061";

fn strip(s: &str) -> String {
    s.split_whitespace().collect()
}

fn sample() -> Journaled<Tally> {
    let mut log = Journaled::<Tally>::new(4, 2);
    assert_eq!(log.append(0.5, &Op::Add { n: 5 }), 1);
    assert_eq!(log.append(1.0, &Op::Label("a".into())), 2);
    assert_eq!(log.append(1.5, &Op::Add { n: 7 }), 3);
    log
}

#[test]
fn framed_journal_with_a_snapshot_is_frozen() {
    let log = sample();
    assert_eq!(hex(log.durable().journal.bytes()), strip(JOURNAL_HEX));
    // Cadence 2: exactly one snapshot, at epoch 2, of the shadow fold
    // as it stood then.
    assert_eq!(hex(log.durable().snapshot_bytes()), strip(SNAPSHOT_HEX));
    assert_eq!(log.state(), &Tally { last_epoch: 3, sum: 12, labels: vec!["a".into()] });
}

/// Rebuilds durable state from raw (possibly hostile) bytes.
fn durable_from(journal: &[u8], snapshots: &[u8]) -> DurableState {
    let mut d = DurableState::new();
    *d.journal_bytes_mut() = journal.to_vec();
    d.set_snapshot_bytes(snapshots.to_vec());
    d
}

#[test]
fn recover_is_snapshot_plus_bounded_replay_and_equals_the_shadow_fold() {
    let log = sample();
    let frozen = durable_from(&unhex(&strip(JOURNAL_HEX)), &unhex(&strip(SNAPSHOT_HEX)));
    for durable in [log.durable(), &frozen] {
        let rec = recover::<Tally>(durable, &4).expect("clean log recovers");
        assert_eq!(&rec.state, log.state());
        assert_eq!((rec.snapshot_epoch, rec.replayed_records), (2, 1));
        assert_eq!(rec.snapshot_payload_bytes, 29);
        assert_eq!(rec.torn_tail_bytes, 0);
        assert_eq!(
            decode_records::<Op>(durable).expect("history decodes"),
            vec![Op::Add { n: 5 }, Op::Label("a".into()), Op::Add { n: 7 }]
        );
    }
}

#[test]
fn torn_tail_is_dropped_and_resume_continues_the_epochs() {
    let log = sample();
    let full = log.durable().journal.bytes().len();
    let torn = log.durable().truncate_bytes(full - 4);
    let rec = recover::<Tally>(&torn, &4).expect("a torn tail is tolerated");
    assert_eq!(rec.state, Tally { last_epoch: 2, sum: 5, labels: vec!["a".into()] });
    assert_eq!((rec.snapshot_epoch, rec.replayed_records), (2, 0));
    assert_eq!(rec.torn_tail_bytes, 33 - 4);

    let mut resumed =
        Journaled::resume(torn.reopen().expect("reopens"), rec.state, 4, 2);
    assert_eq!(resumed.append(2.0, &Op::Add { n: 1 }), 3, "epoch 3 is reassigned");
    assert_eq!(resumed.append(2.5, &Op::Add { n: 1 }), 4);
    let again = recover::<Tally>(resumed.durable(), &4).expect("recovers");
    assert_eq!(&again.state, resumed.state());
    assert_eq!((again.snapshot_epoch, again.replayed_records), (4, 0), "cadence kept");
}

#[test]
fn snapshot_cadence_zero_never_snapshots() {
    let mut log = Journaled::<Tally>::new(4, 0);
    for n in 0..10 {
        log.append(f64::from(n), &Op::Add { n: 1 });
    }
    assert!(log.durable().snapshot_bytes().is_empty());
    let rec = recover::<Tally>(log.durable(), &4).expect("recovers");
    assert_eq!((rec.snapshot_epoch, rec.replayed_records, rec.state.sum), (0, 10, 10));
}

#[test]
fn wrong_shape_snapshot_and_bad_payloads_are_refused_with_the_epoch() {
    let log = sample();
    // The snapshot holds one label; a deployment with room for none
    // must not restore it.
    match recover::<Tally>(log.durable(), &0) {
        Err(JournalError::BadPayload { epoch: 2, detail }) => {
            assert_eq!(detail, "1 labels, room for 0");
        }
        other => panic!("expected a shape refusal, got {other:?}"),
    }
    // An undecodable snapshot payload names the snapshot's epoch.
    let mut bad_snap = log.durable().clone();
    bad_snap.install_snapshot(3, 1.5, &[0xff]);
    assert!(matches!(
        recover::<Tally>(&bad_snap, &4),
        Err(JournalError::BadPayload { epoch: 3, ref detail }) if detail.starts_with("snapshot: ")
    ));
    // An undecodable record (unknown tag) names the record's epoch; so
    // does a record the fold refuses.
    let mut bad_rec = DurableState::new();
    bad_rec.append(0.0, &Op::Add { n: 1 }.to_bytes());
    bad_rec.append(0.1, &[9]);
    assert!(matches!(
        recover::<Tally>(&bad_rec, &4),
        Err(JournalError::BadPayload { epoch: 2, .. })
    ));
    assert!(matches!(decode_records::<Op>(&bad_rec), Err(JournalError::BadPayload { epoch: 2, .. })));
    let mut refused = DurableState::new();
    refused.append(0.0, &Op::Label("x".into()).to_bytes());
    assert!(matches!(
        recover::<Tally>(&refused, &0),
        Err(JournalError::BadPayload { epoch: 1, ref detail }) if detail == "label table full"
    ));
}

/// Every strict prefix and every single-byte mutation of the framed
/// journal recovers to a typed error or to the fold of an intact
/// prefix — never a panic, never a record invented from damaged bytes.
#[test]
fn hostile_journal_bytes_never_panic() {
    let journal = unhex(&strip(JOURNAL_HEX));
    let snapshots = unhex(&strip(SNAPSHOT_HEX));
    let prefixes: Vec<Tally> = [0usize, 33, 63, 96]
        .iter()
        .map(|&cut| {
            recover::<Tally>(&durable_from(&journal[..cut], &[]), &4).expect("frame cut").state
        })
        .collect();
    let check = |d: DurableState| {
        if let Ok(rec) = recover::<Tally>(&d, &4) {
            assert!(prefixes.contains(&rec.state), "recovered {:?}", rec.state);
        }
    };
    for cut in 0..journal.len() {
        check(durable_from(&journal[..cut], &snapshots));
    }
    for cut in 0..snapshots.len() {
        check(durable_from(&journal, &snapshots[..cut]));
    }
    for i in 0..journal.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = journal.clone();
            bad[i] ^= flip;
            check(durable_from(&bad, &snapshots));
        }
    }
    for i in 0..snapshots.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut bad = snapshots.clone();
            bad[i] ^= flip;
            check(durable_from(&journal, &bad));
        }
    }
}

#[test]
fn primitive_layouts_are_frozen() {
    let mut w = ByteWriter::new();
    7u8.put(&mut w);
    0xdead_beefu32.put(&mut w);
    (1u64 << 40).put(&mut w);
    3usize.put(&mut w);
    (-0.125f64).put(&mut w);
    true.put(&mut w);
    "tenant".to_string().put(&mut w);
    Some(9u64).put(&mut w);
    None::<u64>.put(&mut w);
    vec![1u32, 2].put(&mut w);
    Blob.put(&[1, 2, 3], &mut w);
    let bytes = w.finish();
    assert_eq!(
        hex(&bytes),
        strip(
            "07 efbeadde 0000000000010000 0300000000000000 000000000000c0bf 01 \
             0600000074656e616e74 010900000000000000 00 \
             02000000000000000100000002000000 03000000010203"
        )
    );
    let mut r = ByteReader::new(&bytes);
    assert_eq!(u8::get(&mut r), Ok(7));
    assert_eq!(u32::get(&mut r), Ok(0xdead_beef));
    assert_eq!(u64::get(&mut r), Ok(1 << 40));
    assert_eq!(usize::get(&mut r), Ok(3));
    assert_eq!(f64::get(&mut r), Ok(-0.125));
    assert_eq!(bool::get(&mut r), Ok(true));
    assert_eq!(String::get(&mut r), Ok("tenant".to_string()));
    assert_eq!(Option::<u64>::get(&mut r), Ok(Some(9)));
    assert_eq!(Option::<u64>::get(&mut r), Ok(None));
    assert_eq!(Vec::<u32>::get(&mut r), Ok(vec![1, 2]));
    assert_eq!(Blob.get(&mut r), Ok(vec![1, 2, 3]));
    assert!(r.is_empty());
}

#[test]
fn strict_decode_rejects_trailing_bytes_hostile_lengths_and_unknown_tags() {
    assert_eq!(u32::from_bytes(&[1, 0, 0, 0]), Ok(1));
    assert_eq!(u32::from_bytes(&[1, 0, 0, 0, 0]), Err(WireError { offset: 4 }));
    assert_eq!(bool::from_bytes(&[2]), Err(WireError { offset: 0 }));
    assert_eq!(Option::<u8>::from_bytes(&[1]), Err(WireError { offset: 1 }));
    // A count of 2^63 elements must fail on the first short read, not
    // reserve memory for them.
    let mut huge = (1u64 << 63).to_le_bytes().to_vec();
    huge.push(1);
    assert!(Vec::<u64>::from_bytes(&huge).is_err());
    assert_eq!(Op::from_bytes(&[2]), Err(WireError { offset: 0 }), "unknown tag, at the tag");
    assert_eq!(Op::from_bytes(&[]), Err(WireError { offset: 0 }));

    const COLOURS: Labels = Labels(&["red", "green"]);
    let mut w = ByteWriter::new();
    COLOURS.put("green", &mut w);
    COLOURS.put("mauve", &mut w);
    let bytes = w.finish();
    assert_eq!(bytes, [1, 255], "a label outside the table takes the reserved tag");
    let mut r = ByteReader::new(&bytes);
    assert_eq!(COLOURS.get(&mut r), Ok("green"));
    assert_eq!(COLOURS.get(&mut r), Ok("unknown"));
    assert_eq!(COLOURS.get(&mut ByteReader::new(&[2])), Err(WireError { offset: 0 }));
}
