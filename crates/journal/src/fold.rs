//! The journaled state machine: a [`Fold`] state, the [`Journaled`]
//! live log that keeps it, and [`recover`] — the one implementation of
//! *encode → append → fold* and of *decode → fold the whole journal*
//! that every journaling layer shares. A layer supplies its record
//! type, its state type and `apply`; nothing else about durability is
//! written twice.
//!
//! Two rules make recovery exact by construction:
//!
//! * **A shadow fold.** [`Journaled::append`] folds every record through
//!   the same [`Fold::apply`] that [`recover`] replays, so the live state
//!   and a replay of its journal agree record for record.
//! * **Untrusted bytes.** [`recover`] decodes every record it reads
//!   back, once; an undecodable payload or a record the fold refuses is
//!   a typed [`JournalError::BadPayload`] naming the frame's epoch.

use crate::wire::Wire;
use crate::{DurableState, JournalError, Record};

/// A state that is the deterministic fold of a record stream.
pub trait Fold {
    /// One journaled state change.
    type Record: Wire;
    /// What the fold needs that the record stream does not carry — the
    /// static shape (table sizes) and pricing the owner is configured
    /// with.
    type Ctx;

    /// The initial (pre-history) state.
    fn new(ctx: &Self::Ctx) -> Self;

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
}

impl<S: Fold> Journaled<S> {
    /// A fresh, empty log.
    pub fn new(ctx: S::Ctx) -> Self {
        Self { durable: DurableState::new(), state: S::new(&ctx), ctx }
    }

    /// Continues a recovered log. `durable` should be the *reopened*
    /// bytes (torn tail dropped) and `state` the fold [`recover`]
    /// produced from them.
    pub fn resume(durable: DurableState, state: S, ctx: S::Ctx) -> Self {
        Self { durable, state, ctx }
    }

    /// Appends one record — encode, journal, fold into the shadow
    /// state — and returns its epoch.
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
        epoch
    }

    /// The durable journal bytes (what a crash preserves).
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
    /// Journal records decoded and folded: every complete record.
    pub replayed_records: u64,
    /// Torn (incomplete) frame bytes dropped from the journal tail.
    pub torn_tail_bytes: usize,
}

fn bad_payload(epoch: u64, detail: String) -> JournalError {
    JournalError::BadPayload { epoch, detail }
}

fn decode_record<R: Wire>(r: &Record) -> Result<R, JournalError> {
    R::from_bytes(&r.payload).map_err(|e| bad_payload(r.epoch, e.to_string()))
}

/// Recovers a fold from durable bytes: one pass that decodes every
/// record from epoch 1 and folds it in. A torn tail is tolerated
/// (dropped); any complete-but-corrupt frame, undecodable payload or
/// record the fold refuses is a typed [`JournalError`].
pub fn recover<S: Fold>(durable: &DurableState, ctx: &S::Ctx) -> Result<Recovery<S>, JournalError> {
    let rec = durable.recover()?;
    let mut state = S::new(ctx);
    for r in &rec.records {
        state.apply(r.epoch, &decode_record(r)?, ctx)?;
    }
    Ok(Recovery {
        state,
        replayed_records: rec.records.len() as u64,
        torn_tail_bytes: rec.torn_tail_bytes,
    })
}

/// Decodes every record a durable journal holds — the layer's full
/// history: its outcome's events, and what a crash soak checks
/// invariants over. A torn tail is dropped first; the rest is replayed
/// strictly from epoch 1 (the journal never compacts).
pub fn decode_records<R: Wire>(durable: &DurableState) -> Result<Vec<R>, JournalError> {
    durable.reopen()?.journal.replay()?.iter().map(decode_record).collect()
}
