//! The journaled state machine: a [`Fold`] state, the [`Journaled`]
//! live log that keeps it, and [`recover`] — the one implementation of
//! *encode → append → fold → snapshot on cadence* and of *newest intact
//! snapshot + bounded replay* that every journaling layer shares. A
//! layer supplies its record type, its state type and `apply`; nothing
//! else about durability is written twice.
//!
//! Two rules make recovery exact by construction:
//!
//! * **A shadow fold.** [`Journaled::append`] folds every record through
//!   the same [`Fold::apply`] that [`recover`] replays, and a snapshot is
//!   the [`Wire`] encoding of that shadow state — so *snapshot ≡ replay*.
//! * **Untrusted bytes.** [`recover`] decodes everything it reads back;
//!   an undecodable payload, a snapshot of the wrong shape
//!   ([`Fold::fits`]) or a record the fold refuses is a typed
//!   [`JournalError::BadPayload`] naming the frame's epoch.

use crate::wire::Wire;
use crate::{DurableState, JournalError, Record};

/// A state that is the deterministic fold of a record stream. Its
/// [`Wire`] encoding is the snapshot payload.
pub trait Fold: Wire {
    /// One journaled state change.
    type Record: Wire;
    /// What the fold needs that the record stream does not carry — the
    /// static shape (table sizes) and pricing the owner is configured
    /// with.
    type Ctx;

    /// The initial (pre-history) state.
    fn new(ctx: &Self::Ctx) -> Self;

    /// Whether a decoded snapshot has the shape `ctx` describes; `Err`
    /// carries the mismatch for the error detail. Guards against
    /// restoring one deployment's snapshot into another's tables.
    fn fits(&self, ctx: &Self::Ctx) -> Result<(), String>;

    /// Folds one record in. A semantically impossible record is a typed
    /// [`JournalError::BadPayload`], never a panic.
    fn apply(
        &mut self,
        epoch: u64,
        rec: &Self::Record,
        ctx: &Self::Ctx,
    ) -> Result<(), JournalError>;
}

/// A live write-ahead log: the durable bytes plus the shadow [`Fold`]
/// state every append goes through.
pub struct Journaled<S: Fold> {
    durable: DurableState,
    state: S,
    ctx: S::Ctx,
    snapshot_every: u64,
}

impl<S: Fold> Journaled<S> {
    /// A fresh log; a snapshot is installed every `snapshot_every`
    /// records (0 = never).
    pub fn new(ctx: S::Ctx, snapshot_every: u64) -> Self {
        Self { durable: DurableState::new(), state: S::new(&ctx), ctx, snapshot_every }
    }

    /// Continues a recovered log. `durable` should be the *reopened*
    /// bytes (torn tail dropped) and `state` the fold [`recover`]
    /// produced from them.
    pub fn resume(durable: DurableState, state: S, ctx: S::Ctx, snapshot_every: u64) -> Self {
        Self { durable, state, ctx, snapshot_every }
    }

    /// Appends one record — encode, journal, fold into the shadow
    /// state, snapshot when the epoch hits the cadence — and returns
    /// its epoch.
    ///
    /// # Panics
    ///
    /// Panics when the fold refuses the record: a live record is built
    /// from the very transition the fold mirrors, so that is a bug in
    /// the owning layer, never bad input.
    pub fn append(&mut self, t_s: f64, rec: &S::Record) -> u64 {
        let epoch = self.durable.append(t_s, &rec.to_bytes());
        self.state
            .apply(epoch, rec, &self.ctx)
            .expect("live records always fold into the shadow state");
        if self.snapshot_every > 0 && epoch.is_multiple_of(self.snapshot_every) {
            self.durable.install_snapshot(epoch, t_s, &self.state.to_bytes());
        }
        epoch
    }

    /// The durable journal + snapshot bytes (what a crash preserves).
    pub fn durable(&self) -> &DurableState {
        &self.durable
    }

    /// The shadow fold of everything appended so far.
    pub fn state(&self) -> &S {
        &self.state
    }
}

/// What [`recover`] reconstructed, plus how it got there.
#[derive(Clone, Debug)]
pub struct Recovery<S> {
    /// The folded state.
    pub state: S,
    /// Epoch of the snapshot recovery started from (0 = none).
    pub snapshot_epoch: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Bytes of the decoded snapshot payload (0 = none).
    pub snapshot_payload_bytes: usize,
    /// Torn (incomplete) frame bytes dropped from the journal tail.
    pub torn_tail_bytes: usize,
}

fn bad_payload(epoch: u64, detail: String) -> JournalError {
    JournalError::BadPayload { epoch, detail }
}

fn decode_record<R: Wire>(r: &Record) -> Result<R, JournalError> {
    R::from_bytes(&r.payload).map_err(|e| bad_payload(r.epoch, e.to_string()))
}

/// Recovers a fold from durable bytes: newest intact snapshot plus a
/// bounded replay of the records after it. A torn tail is tolerated
/// (dropped); any complete-but-corrupt frame, stale or wrong-shape
/// snapshot, or undecodable payload is a typed [`JournalError`].
pub fn recover<S: Fold>(durable: &DurableState, ctx: &S::Ctx) -> Result<Recovery<S>, JournalError> {
    let rec = durable.recover()?;
    let (mut state, snapshot_epoch, snapshot_payload_bytes) = match &rec.snapshot {
        Some(s) => {
            let state = S::from_bytes(&s.payload)
                .map_err(|e| bad_payload(s.epoch, format!("snapshot: {e}")))?;
            state.fits(ctx).map_err(|detail| bad_payload(s.epoch, detail))?;
            (state, s.epoch, s.payload.len())
        }
        None => (S::new(ctx), 0, 0),
    };
    for r in &rec.records {
        state.apply(r.epoch, &decode_record(r)?, ctx)?;
    }
    Ok(Recovery {
        state,
        snapshot_epoch,
        replayed_records: rec.records.len() as u64,
        snapshot_payload_bytes,
        torn_tail_bytes: rec.torn_tail_bytes,
    })
}

/// Decodes every record a durable journal holds, snapshots ignored —
/// the full history a crash soak checks invariants over. A torn tail
/// is dropped first; the rest is replayed strictly from the first
/// retained record (a log that never compacts holds them all).
pub fn decode_records<R: Wire>(durable: &DurableState) -> Result<Vec<R>, JournalError> {
    durable.reopen()?.journal.replay()?.iter().map(decode_record).collect()
}
