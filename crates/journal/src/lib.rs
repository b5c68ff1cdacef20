//! # distmsm-journal — crash-consistent write-ahead journal
//!
//! The durability substrate for the service/fleet control plane: an
//! **in-memory byte log** of CRC-framed, epoch-stamped records on the
//! simulated clock, plus a snapshot store so recovery is *snapshot +
//! bounded replay* instead of full-history replay.
//!
//! Every record is framed as
//!
//! ```text
//! len: u32 LE  ‖  epoch: u64 LE  ‖  t_s: f64-bits LE  ‖  crc32: u32 LE  ‖  payload
//! ```
//!
//! with the CRC taken over `epoch ‖ t_s ‖ payload` (IEEE polynomial
//! `0xEDB88320`). Epochs are assigned by the journal itself and are
//! strictly consecutive starting at 1, so any drop, duplication or
//! reorder of complete frames is detected structurally, independent of
//! payload semantics.
//!
//! Two read paths with different strictness:
//!
//! * [`Journal::replay`] is **strict**: any framing defect — including a
//!   torn tail — is a typed [`JournalError`].
//! * [`DurableState::recover`] is **crash-tolerant**: a torn *tail*
//!   (truncated header or short payload at the very end of the log, the
//!   signature of a crash mid-append) is silently dropped and reported
//!   as [`Recovered::torn_tail_bytes`]; every defect *before* the tail —
//!   a CRC mismatch on a complete frame, a duplicated or missing epoch,
//!   a stale snapshot, a snapshot ahead of the last record — is still a
//!   hard error, because those can only come from corruption or a buggy
//!   writer, never from a crash.
//!
//! Snapshots live in their own framed log ([`DurableState`]); a
//! snapshot's epoch is the epoch of the last record folded into it, so
//! recovery selects the newest intact snapshot and returns only the
//! records after it, which is what makes replay *bounded*. The journal
//! itself never compacts: it is its layer's one history, and the
//! layer's outcome is decoded from every record it holds.
//!
//! On top of the byte log sit the two things every journaling layer
//! would otherwise write for itself: the declare-once payload codec
//! ([`mod@wire`]: the [`Wire`] trait and the [`wire!`] macro) and the
//! journaled state machine ([`fold`]: [`Fold`], [`Journaled`],
//! [`recover`]). A layer brings a record type, a state type and
//! `apply`.
//!
//! Crash injection for the soaks is byte surgery on a cloned
//! [`DurableState`]: [`DurableState::truncate_records`] cuts at a frame
//! boundary, [`DurableState::truncate_bytes`] mid-frame (a torn write).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fold;
pub mod wire;

pub use fold::{decode_records, recover, Fold, Journaled, Recovery};
pub use wire::{ByteReader, ByteWriter, Wire, WireError};

/// Frame header size: `len (4) ‖ epoch (8) ‖ t_s (8) ‖ crc (4)`.
pub const FRAME_HEADER_LEN: usize = 24;

/// CRC-32 (IEEE, reflected polynomial `0xEDB88320`), bit-serial — the
/// journal is simulation-scale, so no lookup table is needed.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(0xffff_ffff, data)
}

/// Folds `data` into a running (un-finalised) CRC register, so a frame
/// is checksummed as header-then-payload without joining the two.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    crc
}

/// The frame CRC: over `epoch ‖ t_s` (the 16 stamp bytes) then `payload`.
fn frame_crc(stamp: &[u8], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xffff_ffff, stamp), payload)
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Strictly consecutive sequence number, starting at 1.
    pub epoch: u64,
    /// Simulated-clock timestamp of the append.
    pub t_s: f64,
    /// Opaque payload (the owning layer's record encoding).
    pub payload: Vec<u8>,
}

/// A decoded snapshot: the fold of all records with epoch ≤ `epoch`.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Epoch of the last record folded into this snapshot (0 = the
    /// initial state, before any record).
    pub epoch: u64,
    /// Simulated-clock timestamp of the snapshot.
    pub t_s: f64,
    /// Opaque encoded state.
    pub payload: Vec<u8>,
}

/// Typed journal defects. Never a panic, never a silent divergence:
/// every corruption class the soaks inject maps onto exactly one of
/// these.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum JournalError {
    /// The log ends in an incomplete frame (truncated header, or a
    /// declared payload running past the end of the log). Tolerable
    /// only as the *tail* under [`DurableState::recover`]; everywhere
    /// else it is a hard error.
    TornTail {
        /// Byte offset of the torn frame.
        offset: usize,
        /// Bytes remaining after the offset — exactly the bytes a
        /// tolerant recovery discards.
        remaining: usize,
        /// 0-based index of the torn frame within the retained log
        /// (equivalently: how many complete frames precede it).
        frame_index: usize,
    },
    /// A complete frame whose CRC does not match its contents — payload
    /// bit-flips land here.
    CrcMismatch {
        /// Epoch claimed by the frame header.
        epoch: u64,
        /// Byte offset of the frame.
        offset: usize,
        /// 0-based index of the corrupt frame within the retained log.
        frame_index: usize,
    },
    /// Two frames claim the same epoch (a replayed/duplicated append).
    DuplicateRecord {
        /// The repeated epoch.
        epoch: u64,
    },
    /// An epoch gap or regression: the next frame is not `expected`.
    MissingRecord {
        /// Epoch the scan expected next.
        expected: u64,
        /// Epoch actually found.
        found: u64,
    },
    /// A later snapshot frame regresses to an epoch at or below an
    /// earlier one's.
    StaleSnapshot {
        /// Epoch claimed by the regressing snapshot.
        snapshot_epoch: u64,
        /// Least epoch it had to claim: one past the earlier snapshot's.
        journal_epoch: u64,
    },
    /// A snapshot that claims records the journal does not hold: stable
    /// storage writes a snapshot after the records it folds, so it
    /// cannot outlive them. Appending after it would leave an epoch gap
    /// no replay can cross.
    SnapshotAhead {
        /// Epoch claimed by the snapshot.
        snapshot_epoch: u64,
        /// Epoch of the journal's last complete record.
        last_epoch: u64,
    },
    /// A structurally intact payload that fails semantic decoding in
    /// the owning layer (unknown tag, short field, non-canonical point
    /// bytes).
    BadPayload {
        /// Epoch of the offending record (0 for snapshots).
        epoch: u64,
        /// What failed to decode.
        detail: String,
    },
}

impl core::fmt::Display for JournalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            JournalError::TornTail { offset, remaining, frame_index } => {
                write!(
                    f,
                    "torn frame #{frame_index} at byte {offset} ({remaining} bytes discarded)"
                )
            }
            JournalError::CrcMismatch { epoch, offset, frame_index } => {
                write!(f, "CRC mismatch in frame #{frame_index} epoch {epoch} at byte {offset}")
            }
            JournalError::DuplicateRecord { epoch } => {
                write!(f, "duplicate record epoch {epoch}")
            }
            JournalError::MissingRecord { expected, found } => {
                write!(f, "missing record: expected epoch {expected}, found {found}")
            }
            JournalError::StaleSnapshot { snapshot_epoch, journal_epoch } => write!(
                f,
                "stale snapshot: epoch {snapshot_epoch} regresses (expected at least {journal_epoch})"
            ),
            JournalError::SnapshotAhead { snapshot_epoch, last_epoch } => write!(
                f,
                "snapshot at epoch {snapshot_epoch} is ahead of the last record, epoch {last_epoch}"
            ),
            JournalError::BadPayload { epoch, detail } => {
                write!(f, "undecodable payload in record epoch {epoch}: {detail}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<WireError> for JournalError {
    fn from(e: WireError) -> Self {
        JournalError::BadPayload { epoch: 0, detail: format!("wire decode at byte {}", e.offset) }
    }
}

/// The append-only record log. Appends assign strictly consecutive
/// epochs from 1; the byte representation is the durable artefact that
/// crash injection truncates and recovery re-reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Journal {
    bytes: Vec<u8>,
    /// Epoch of the last record (0 = empty).
    last_epoch: u64,
}

fn push_frame(bytes: &mut Vec<u8>, epoch: u64, t_s: f64, payload: &[u8]) {
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let stamp_at = bytes.len();
    bytes.extend_from_slice(&epoch.to_le_bytes());
    bytes.extend_from_slice(&t_s.to_bits().to_le_bytes());
    let crc = frame_crc(&bytes[stamp_at..], payload);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes.extend_from_slice(payload);
}

/// One complete frame of a byte log, borrowed in place.
struct Frame<'a> {
    /// Byte offset of the frame's length field.
    offset: usize,
    epoch: u64,
    t_s: f64,
    /// The CRC the header claims (not yet verified).
    crc: u32,
    /// The 16 CRC-covered header bytes, `epoch ‖ t_s`.
    stamp: &'a [u8],
    payload: &'a [u8],
}

impl Frame<'_> {
    /// Whole-frame length, header included.
    fn len(&self) -> usize {
        FRAME_HEADER_LEN + self.payload.len()
    }
}

/// The one frame walker: yields the complete frames of a byte log in
/// order and stops at the first incomplete one (truncated header, or a
/// declared payload running past the end). Afterwards `off` is the
/// clean length; anything beyond it is the torn tail.
struct Frames<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let rest = &self.bytes[self.off..];
        let header = rest.get(..FRAME_HEADER_LEN)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice")) as usize;
        let payload = rest.get(FRAME_HEADER_LEN..FRAME_HEADER_LEN.checked_add(len)?)?;
        let frame = Frame {
            offset: self.off,
            epoch: u64::from_le_bytes(header[4..12].try_into().expect("8-byte slice")),
            t_s: f64::from_bits(u64::from_le_bytes(
                header[12..20].try_into().expect("8-byte slice"),
            )),
            crc: u32::from_le_bytes(header[20..24].try_into().expect("4-byte slice")),
            stamp: &header[4..20],
            payload,
        };
        self.off += frame.len();
        Some(frame)
    }
}

fn frames(bytes: &[u8]) -> Frames<'_> {
    Frames { bytes, off: 0 }
}

/// Result of a tolerant frame scan: complete valid frames plus the
/// length of a torn tail, if any.
struct Scan {
    records: Vec<Record>,
    clean_len: usize,
    torn_tail_bytes: usize,
}

/// Scans frames from `bytes`, verifying every frame's CRC. A torn tail
/// is returned, not raised — callers decide whether it is tolerable.
fn scan_frames(bytes: &[u8]) -> Result<Scan, JournalError> {
    let mut records = Vec::new();
    let mut walk = frames(bytes);
    for f in walk.by_ref() {
        if frame_crc(f.stamp, f.payload) != f.crc {
            return Err(JournalError::CrcMismatch {
                epoch: f.epoch,
                offset: f.offset,
                frame_index: records.len(),
            });
        }
        records.push(Record { epoch: f.epoch, t_s: f.t_s, payload: f.payload.to_vec() });
    }
    Ok(Scan { records, clean_len: walk.off, torn_tail_bytes: bytes.len() - walk.off })
}

/// Checks record epochs are strictly consecutive starting at 1.
fn check_epochs(records: &[Record]) -> Result<(), JournalError> {
    for (expected, r) in (1u64..).zip(records.iter()) {
        if r.epoch == expected.wrapping_sub(1) {
            return Err(JournalError::DuplicateRecord { epoch: r.epoch });
        }
        if r.epoch != expected {
            return Err(JournalError::MissingRecord { expected, found: r.epoch });
        }
    }
    Ok(())
}

impl Journal {
    /// An empty journal; the first append gets epoch 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record at simulated time `t_s`, returning its epoch.
    pub fn append(&mut self, t_s: f64, payload: &[u8]) -> u64 {
        self.last_epoch += 1;
        push_frame(&mut self.bytes, self.last_epoch, t_s, payload);
        self.last_epoch
    }

    /// The raw byte log.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Number of records appended (a cut copy: complete frames kept).
    pub fn n_records(&self) -> usize {
        self.last_epoch as usize
    }

    /// Byte spans `(offset, len)` of the complete frames, in order —
    /// the menu of record-boundary kill points.
    pub fn frame_spans(&self) -> Vec<(usize, usize)> {
        frames(&self.bytes).map(|f| (f.offset, f.len())).collect()
    }

    /// Strict full decode: torn tails, CRC mismatches and epoch defects
    /// are all errors. Used by integrity checks, not crash recovery.
    pub fn replay(&self) -> Result<Vec<Record>, JournalError> {
        let scan = scan_frames(&self.bytes)?;
        if scan.torn_tail_bytes > 0 {
            return Err(JournalError::TornTail {
                offset: scan.clean_len,
                remaining: scan.torn_tail_bytes,
                frame_index: scan.records.len(),
            });
        }
        check_epochs(&scan.records)?;
        Ok(scan.records)
    }
}

/// What a tolerant recovery read yields.
#[derive(Clone, Debug)]
pub struct Recovered {
    /// Newest intact snapshot, if any was ever installed and survived.
    pub snapshot: Option<Snapshot>,
    /// Complete, CRC-valid records with epoch greater than the
    /// snapshot's, strictly consecutive.
    pub records: Vec<Record>,
    /// Bytes of torn journal tail that were dropped (0 on a clean log).
    pub torn_tail_bytes: usize,
    /// Bytes of torn snapshot-log tail that were dropped.
    pub torn_snapshot_bytes: usize,
    /// Epoch the continued journal must assign next.
    pub next_epoch: u64,
}

/// The durable half of a journaling component: the record journal plus
/// the framed snapshot log. Cloning it models "what the stable store
/// held at the instant of the crash".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurableState {
    /// The record journal.
    pub journal: Journal,
    snap_bytes: Vec<u8>,
}

impl DurableState {
    /// Empty durable state: no snapshot (epoch-0 initial state), no
    /// records.
    pub fn new() -> Self {
        Self { journal: Journal::new(), snap_bytes: Vec::new() }
    }

    /// Appends a record, returning its epoch.
    pub fn append(&mut self, t_s: f64, payload: &[u8]) -> u64 {
        self.journal.append(t_s, payload)
    }

    /// Installs a snapshot covering all records with epoch ≤ `epoch`.
    /// Earlier snapshots are retained (recovery falls back to them if
    /// the newest is torn).
    pub fn install_snapshot(&mut self, epoch: u64, t_s: f64, payload: &[u8]) {
        push_frame(&mut self.snap_bytes, epoch, t_s, payload);
    }

    /// The raw snapshot log (test surgery).
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snap_bytes
    }

    /// Replaces the snapshot log wholesale (test surgery: torn or stale
    /// snapshot injection).
    pub fn set_snapshot_bytes(&mut self, bytes: Vec<u8>) {
        self.snap_bytes = bytes;
    }

    /// Mutable access to the raw journal byte log — corruption
    /// injection for tests and the analyze mutant corpus only.
    pub fn journal_bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.journal.bytes
    }

    /// Crash injection at a record boundary: a copy whose journal keeps
    /// only the first `k` records (and only the snapshots covering
    /// them).
    pub fn truncate_records(&self, k: usize) -> DurableState {
        let spans = self.journal.frame_spans();
        let keep = spans.iter().take(k).map(|(_, l)| l).sum::<usize>();
        self.truncate_bytes(keep)
    }

    /// Crash injection mid-record (a torn write): a copy whose journal
    /// byte log is cut at `nbytes` and counts only the complete frames
    /// it kept. Snapshots newer than the last complete retained record
    /// are dropped too — a snapshot cannot outlive the records it
    /// summarises on real stable storage, where the snapshot is written
    /// *after* its covering records.
    pub fn truncate_bytes(&self, nbytes: usize) -> DurableState {
        let bytes = self.journal.bytes[..nbytes.min(self.journal.bytes.len())].to_vec();
        let last_epoch = frames(&bytes).last().map_or(0, |f| f.epoch);
        let keep = frames(&self.snap_bytes)
            .take_while(|f| f.epoch <= last_epoch)
            .last()
            .map_or(0, |f| f.offset + f.len());
        let snap_bytes = self.snap_bytes[..keep].to_vec();
        DurableState { journal: Journal { bytes, last_epoch }, snap_bytes }
    }

    /// Crash-tolerant recovery: newest intact snapshot + the strictly
    /// consecutive records after it. Torn *tails* (journal or snapshot
    /// log) are dropped and reported; any other defect is a typed
    /// error.
    pub fn recover(&self) -> Result<Recovered, JournalError> {
        // Snapshot log: tolerate a torn tail, require strictly
        // increasing epochs among the intact frames.
        let snap_scan = scan_frames(&self.snap_bytes)?;
        let mut snapshot: Option<Snapshot> = None;
        for r in &snap_scan.records {
            if let Some(prev) = &snapshot {
                if r.epoch <= prev.epoch {
                    return Err(JournalError::StaleSnapshot {
                        snapshot_epoch: r.epoch,
                        journal_epoch: prev.epoch + 1,
                    });
                }
            }
            snapshot =
                Some(Snapshot { epoch: r.epoch, t_s: r.t_s, payload: r.payload.clone() });
        }

        let scan = scan_frames(&self.journal.bytes)?;
        check_epochs(&scan.records)?;
        let snap_epoch = snapshot.as_ref().map_or(0, |s| s.epoch);
        let last_epoch = scan.records.last().map_or(0, |r| r.epoch);
        if snap_epoch > last_epoch {
            return Err(JournalError::SnapshotAhead { snapshot_epoch: snap_epoch, last_epoch });
        }
        let records: Vec<Record> =
            scan.records.into_iter().filter(|r| r.epoch > snap_epoch).collect();
        Ok(Recovered {
            snapshot,
            records,
            torn_tail_bytes: scan.torn_tail_bytes,
            torn_snapshot_bytes: snap_scan.torn_tail_bytes,
            next_epoch: last_epoch + 1,
        })
    }

    /// Rebuilds an appendable [`DurableState`] from recovered state:
    /// the clean journal prefix (torn tail dropped) with epochs
    /// continuing where the durable log left off.
    pub fn reopen(&self) -> Result<DurableState, JournalError> {
        let rec = self.recover()?;
        let clean = self.journal.bytes.len() - rec.torn_tail_bytes;
        let snap_clean = self.snap_bytes.len() - rec.torn_snapshot_bytes;
        Ok(DurableState {
            journal: Journal {
                bytes: self.journal.bytes[..clean].to_vec(),
                last_epoch: rec.next_epoch - 1,
            },
            snap_bytes: self.snap_bytes[..snap_clean].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> DurableState {
        let mut d = DurableState::new();
        for i in 0..n {
            d.append(i as f64 * 0.5, format!("rec-{i}").as_bytes());
        }
        d
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_roundtrip() {
        let d = sample(5);
        let recs = d.journal.replay().expect("clean journal replays");
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.epoch, i as u64 + 1);
            assert_eq!(r.payload, format!("rec-{i}").as_bytes());
            assert!((r.t_s - i as f64 * 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn torn_tail_is_tolerated_by_recover_only() {
        let d = sample(4);
        let full = d.journal.bytes().len();
        for cut in [full - 1, full - 5, full - (FRAME_HEADER_LEN / 2)] {
            let torn = d.truncate_bytes(cut);
            match torn.journal.replay() {
                Err(JournalError::TornTail { frame_index, remaining, .. }) => {
                    assert_eq!(frame_index, 3, "three complete frames precede the torn one");
                    assert_eq!(remaining, cut - torn.journal.frame_spans()[..3]
                        .iter()
                        .map(|(_, l)| l)
                        .sum::<usize>());
                }
                other => panic!("expected TornTail, got {other:?}"),
            }
            let rec = torn.recover().expect("torn tail is recoverable");
            assert_eq!(rec.records.len(), 3);
            assert!(rec.torn_tail_bytes > 0);
        }
    }

    #[test]
    fn bit_flip_is_a_crc_mismatch() {
        let d = sample(3);
        let spans = d.journal.frame_spans();
        // Flip one payload byte of the middle record.
        let (off, len) = spans[1];
        let mut torn = d.clone();
        torn.journal.bytes[off + len - 1] ^= 0x40;
        assert!(matches!(
            torn.recover(),
            Err(JournalError::CrcMismatch { epoch: 2, frame_index: 1, .. })
        ));
        assert!(matches!(torn.journal.replay(), Err(JournalError::CrcMismatch { .. })));
    }

    #[test]
    fn duplicate_and_missing_records_are_typed() {
        let d = sample(3);
        let spans = d.journal.frame_spans();
        let (off1, len1) = spans[1];

        let mut dup = d.clone();
        let frame = dup.journal.bytes[off1..off1 + len1].to_vec();
        dup.journal.bytes.extend_from_slice(&frame);
        assert!(matches!(dup.recover(), Err(JournalError::MissingRecord { .. })));
        let mut dup2 = d.clone();
        dup2.journal.bytes.splice(off1 + len1..off1 + len1, frame.iter().copied());
        assert!(matches!(dup2.recover(), Err(JournalError::DuplicateRecord { epoch: 2 })));

        let mut gap = d.clone();
        gap.journal.bytes.drain(off1..off1 + len1);
        assert!(matches!(
            gap.recover(),
            Err(JournalError::MissingRecord { expected: 2, found: 3 })
        ));
    }

    #[test]
    fn snapshot_selection_and_stale_rejection() {
        let mut d = sample(6);
        d.install_snapshot(2, 1.0, b"state@2");
        d.install_snapshot(4, 2.0, b"state@4");
        let rec = d.recover().expect("clean recovery");
        assert_eq!(rec.snapshot.as_ref().map(|s| s.epoch), Some(4));
        assert_eq!(rec.records.iter().map(|r| r.epoch).collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(rec.next_epoch, 7);

        // Regressing snapshot epoch is stale.
        let mut stale = d.clone();
        stale.install_snapshot(3, 3.0, b"state@3");
        assert!(matches!(stale.recover(), Err(JournalError::StaleSnapshot { .. })));

        // A snapshot past the last record would make the next append
        // skip epochs; recovery and reopening refuse it.
        let mut ahead = sample(6);
        ahead.install_snapshot(9, 4.0, b"state@9");
        let refused = JournalError::SnapshotAhead { snapshot_epoch: 9, last_epoch: 6 };
        assert_eq!(ahead.recover().err(), Some(refused.clone()));
        assert_eq!(ahead.reopen().err(), Some(refused));
    }

    #[test]
    fn torn_snapshot_falls_back_to_previous() {
        let mut d = sample(6);
        d.install_snapshot(2, 1.0, b"state@2");
        d.install_snapshot(5, 2.0, b"state@5");
        let cut = d.snap_bytes.len() - 3;
        d.snap_bytes.truncate(cut);
        let rec = d.recover().expect("torn snapshot tail falls back");
        assert_eq!(rec.snapshot.as_ref().map(|s| s.epoch), Some(2));
        assert_eq!(rec.records.len(), 4);
        assert!(rec.torn_snapshot_bytes > 0);
    }

    #[test]
    fn reopen_continues_epochs() {
        let d = sample(5);
        let torn = d.truncate_bytes(d.journal.bytes().len() - 2);
        let mut reopened = torn.reopen().expect("reopen after torn tail");
        assert_eq!(reopened.journal.n_records(), 4);
        let e = reopened.append(9.0, b"post-crash");
        assert_eq!(e, 5);
        let recs = reopened.journal.replay().expect("clean after reopen");
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[4].payload, b"post-crash");
    }

    #[test]
    fn truncate_records_keeps_prefix() {
        let d = sample(5);
        for k in 0..=5 {
            let cut = d.truncate_records(k);
            let rec = cut.recover().expect("record-boundary cut recovers");
            assert_eq!(rec.records.len(), k);
            assert_eq!(rec.torn_tail_bytes, 0);
        }
    }

    /// A cut copy counts the records it kept, not the uncut journal's:
    /// at every record boundary, and mid-frame, where only the complete
    /// frames before the tear count.
    #[test]
    fn a_cut_counts_only_its_complete_frames() {
        let d = sample(5);
        for (k, (off, len)) in d.journal.frame_spans().into_iter().enumerate() {
            assert_eq!(d.truncate_records(k).journal.n_records(), k);
            for torn in [off + 1, off + FRAME_HEADER_LEN, off + len - 1] {
                assert_eq!(d.truncate_bytes(torn).journal.n_records(), k, "torn at byte {torn}");
            }
        }
        assert_eq!(d.truncate_records(5).journal.n_records(), 5);
        assert_eq!(d.truncate_records(9).journal.n_records(), 5);
    }
}
