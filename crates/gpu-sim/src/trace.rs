//! Access tracing for the simulated GPU.
//!
//! The functional kernel implementations (in the `distmsm` crate) *meter*
//! atomics, barriers and bytes for the cost model — but metering proves
//! nothing about correctness. Between [`begin_capture`] and
//! [`end_capture`], kernels additionally *emit* every simulated
//! global/shared read, write and atomic, tagged with the issuing
//! [`SimThread`] (device, block, warp, thread) and its synchronisation
//! **phase**, plus the block-barrier and grid-sync structure of the
//! launch. The `distmsm-analyze` crate replays these [`LaunchTrace`]s
//! through a vector-clock happens-before checker to detect data races,
//! barrier divergence and atomic hotspots.
//!
//! # Phase encoding
//!
//! Instead of interleaving per-thread barrier events with accesses (which
//! would make traces quadratically larger), every access carries the
//! number of synchronisation points — block barriers *and* grid syncs —
//! its thread has already passed. Within a block, an access at phase `p`
//! happens-before every access at phase `> p` by another thread of the
//! same block; across blocks, ordering exists only through a grid sync
//! (recorded via [`LaunchRecorder::grid_sync_at`]). This is exactly the
//! information a vector clock needs for barrier-only synchronisation.
//!
//! # Cost
//!
//! The hooks are always compiled. With no capture running (the default)
//! [`LaunchRecorder::start`] is one relaxed atomic load per kernel launch
//! and every other hook a single branch on an `Option` discriminant;
//! recording never feeds back into a simulated number.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Identity of one simulated GPU thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SimThread {
    /// Device (GPU) index within the simulated system.
    pub device: u16,
    /// Thread-block index within the launch.
    pub block: u32,
    /// Thread index *within its block*.
    pub thread: u32,
}

impl SimThread {
    /// The warp this thread belongs to (32 threads per warp).
    pub fn warp(&self) -> u32 {
        self.thread / 32
    }
}

impl core::fmt::Display for SimThread {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "gpu{}/b{}/w{}/t{}",
            self.device,
            self.block,
            self.warp(),
            self.thread
        )
    }
}

/// Address space of a traced access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device (global) memory — shared by every block of the launch.
    Global,
    /// Shared memory — private to one thread block.
    Shared,
}

/// Flavour of a traced access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain load.
    Read,
    /// Plain store.
    Write,
    /// Atomic read-modify-write.
    Atomic,
}

/// One traced memory access.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Issuing thread.
    pub thread: SimThread,
    /// Synchronisation points (block barriers + grid syncs) the thread
    /// passed before this access.
    pub phase: u32,
    /// Address space.
    pub space: Space,
    /// Access flavour.
    pub kind: AccessKind,
    /// Simulated address. Shared-memory addresses are block-local: two
    /// blocks using the same shared address do **not** alias.
    pub addr: u64,
}

/// Declared barrier participation of one block.
#[derive(Clone, Copy, Debug)]
pub struct BlockBarriers {
    /// Block index.
    pub block: u32,
    /// Threads launched in the block.
    pub threads: u32,
    /// Block barriers each thread of the block arrives at.
    pub count: u32,
}

/// The full access trace of one kernel launch.
#[derive(Clone, Debug, Default)]
pub struct LaunchTrace {
    /// Kernel name (matches the launch's `KernelProfile::name`).
    pub kernel: String,
    /// Monotone launch sequence number (process-wide).
    pub launch: u64,
    /// Every traced access, in emission order.
    pub accesses: Vec<Access>,
    /// Per-block barrier declarations (uniform arrival).
    pub barriers: Vec<BlockBarriers>,
    /// Per-thread overrides of the block declaration — used to model
    /// divergent kernels where threads arrive at different barrier counts.
    pub thread_barriers: Vec<(SimThread, u32)>,
    /// Phases `p` whose `p → p+1` transition is a grid-wide sync.
    pub grid_sync_phases: Vec<u32>,
    /// `LaunchStats::distinct_atomic_addrs` as metered by the kernel, for
    /// cross-checking against the traced atomic footprint.
    pub metered_atomic_addrs: Option<u64>,
}

static CAPTURING: AtomicBool = AtomicBool::new(false);
static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);
static TRACES: Mutex<Vec<LaunchTrace>> = Mutex::new(Vec::new());

// A panicking workload thread must not wedge the collector: recover
// the (plain-Vec) state from a poisoned lock.
fn traces() -> MutexGuard<'static, Vec<LaunchTrace>> {
    TRACES.lock().unwrap_or_else(|e| e.into_inner())
}

/// Starts capturing launch traces (process-wide).
pub fn begin_capture() {
    traces().clear();
    CAPTURING.store(true, Ordering::SeqCst);
}

/// Stops capturing and returns every launch trace recorded since
/// [`begin_capture`].
pub fn end_capture() -> Vec<LaunchTrace> {
    CAPTURING.store(false, Ordering::SeqCst);
    std::mem::take(&mut *traces())
}

/// True while a capture is in progress.
pub fn capturing() -> bool {
    CAPTURING.load(Ordering::Relaxed)
}

/// Per-launch trace emitter held by an instrumented kernel.
///
/// Buffers events locally (kernels run on concurrent host threads) and
/// publishes the finished [`LaunchTrace`] to the process-wide collector on
/// [`commit`](Self::commit). Every method is a single branch when capture
/// is inactive.
#[derive(Debug, Default)]
pub struct LaunchRecorder {
    inner: Option<Box<LaunchTrace>>,
    device: u16,
}

impl LaunchRecorder {
    /// Opens a recorder for one kernel launch on `device`. Returns an
    /// inactive recorder when capture is off.
    #[inline]
    pub fn start(kernel: &str, device: u16) -> Self {
        let inner = capturing().then(|| {
            Box::new(LaunchTrace {
                kernel: kernel.to_owned(),
                launch: LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed),
                ..LaunchTrace::default()
            })
        });
        Self { inner, device }
    }

    /// True when this recorder is collecting events. Use to skip
    /// address-computation work in instrumented kernels.
    #[inline]
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one access by `(block, thread)` at `phase`.
    #[inline]
    pub fn access(
        &mut self,
        block: u32,
        thread: u32,
        phase: u32,
        space: Space,
        kind: AccessKind,
        addr: u64,
    ) {
        if let Some(t) = &mut self.inner {
            t.accesses.push(Access {
                thread: SimThread {
                    device: self.device,
                    block,
                    thread,
                },
                phase,
                space,
                kind,
                addr,
            });
        }
    }

    /// Declares that all `threads` threads of `block` arrive at `count`
    /// block barriers.
    #[inline]
    pub fn block_barriers(&mut self, block: u32, threads: u32, count: u32) {
        if let Some(t) = &mut self.inner {
            t.barriers.push(BlockBarriers {
                block,
                threads,
                count,
            });
        }
    }

    /// Overrides the barrier count of a single thread (for modelling
    /// divergent kernels in fixtures).
    #[inline]
    pub fn thread_barriers(&mut self, block: u32, thread: u32, count: u32) {
        if let Some(t) = &mut self.inner {
            t.thread_barriers.push((
                SimThread {
                    device: self.device,
                    block,
                    thread,
                },
                count,
            ));
        }
    }

    /// Declares the `phase → phase+1` transition as a grid-wide sync.
    #[inline]
    pub fn grid_sync_at(&mut self, phase: u32) {
        if let Some(t) = &mut self.inner {
            t.grid_sync_phases.push(phase);
        }
    }

    /// Attaches the kernel's metered `distinct_atomic_addrs` for the
    /// hotspot cross-check.
    #[inline]
    pub fn note_metered_atomics(&mut self, distinct: u64) {
        if let Some(t) = &mut self.inner {
            t.metered_atomic_addrs = Some(distinct);
        }
    }

    /// Publishes the trace to the collector (no-op when inactive).
    #[inline]
    pub fn commit(self) {
        if let Some(t) = self.inner {
            traces().push(*t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The capture buffer is process-global: tests that begin or end a
    // capture must not interleave.
    fn guard() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn capture_round_trip() {
        let _g = guard();
        begin_capture();
        assert!(capturing());
        let mut rec = LaunchRecorder::start("toy", 1);
        assert!(rec.active());
        rec.access(0, 0, 0, Space::Global, AccessKind::Write, 42);
        rec.block_barriers(0, 32, 1);
        rec.grid_sync_at(0);
        rec.note_metered_atomics(7);
        rec.commit();
        let traces = end_capture();
        assert!(!capturing());
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.kernel, "toy");
        assert_eq!(t.accesses.len(), 1);
        assert_eq!(t.accesses[0].thread.device, 1);
        assert_eq!(t.metered_atomic_addrs, Some(7));
        assert_eq!(t.grid_sync_phases, vec![0]);
    }

    #[test]
    fn inactive_recorder_records_nothing() {
        let _g = guard();
        // no begin_capture
        let mut rec = LaunchRecorder::start("toy", 0);
        assert!(!rec.active());
        rec.access(0, 0, 0, Space::Global, AccessKind::Read, 1);
        rec.commit();
        assert!(end_capture().is_empty());
    }

    #[test]
    fn warp_derivation() {
        let t = SimThread {
            device: 0,
            block: 2,
            thread: 97,
        };
        assert_eq!(t.warp(), 3);
        assert_eq!(t.to_string(), "gpu0/b2/w3/t97");
    }
}
