//! Window-partial checkpointing for supervised giant MSMs.
//!
//! A `2^26`-class MSM is the most expensive phase of the proof pipeline
//! (PAPERS.md: ZKProphet), so losing an in-flight shard to a pod crash
//! means paying the dominant cost twice. This module makes the windowed
//! Pippenger evaluation *resumable*: windows are computed in ascending
//! order, and every [`CheckpointConfig::interval`] completed windows the
//! engine hands the caller an encoded [`WindowCheckpoint`] — the prefix
//! of window partials `W_0..W_k` — to append to its durable journal. A
//! restarted pod decodes the newest durable checkpoint and recomputes
//! only the remaining windows.
//!
//! Restored checkpoints are **untrusted state** under the 2G2T
//! outsourcing model: decoding validates framing and curve membership
//! (a bit-flipped coordinate fails [`point_from_uncompressed`]), but a
//! *valid-looking* wrong checkpoint (e.g. two partials swapped) can only
//! be caught downstream — the fleet layer resumes both the real and the
//! twin-query streams and re-runs the `S2 = k·S1 + ⟨x, ρ⟩·G` check on
//! the finished pair before the result is used, falling back to a scratch
//! recompute on rejection (`distmsm-fleet`'s crash soak exercises
//! exactly this).
//!
//! Recovery economics ([`estimate_checkpoint_recovery`]): resuming costs
//! the lost-window recompute plus checkpoint-write overhead, so recovery
//! beats restart-from-scratch whenever at least one checkpoint is
//! durable at the crash — for a mid-run crash, any interval at or below
//! `n_windows / 2` (the documented threshold asserted by the crash
//! soak and pinned in `BENCH_msm.json`'s `ckpt_rows`).

use crate::analytic::CurveDesc;
use crate::engine::{DistMsm, MsmError};
use crate::plan::plan_slices;
use crate::reduce::window_reduce;
use distmsm_ec::serialize::{point_from_uncompressed, point_to_uncompressed, CanonicalBytes};
use distmsm_ec::{host_parallelism, Affine, Curve, MsmInstance, XyzzPoint};

/// Modeled fixed latency of one durable checkpoint append, seconds.
pub const CHECKPOINT_LATENCY_S: f64 = 100e-6;
/// Modeled durable-write throughput cost, seconds per byte (1 GB/s).
pub const CHECKPOINT_BYTE_S: f64 = 1e-9;

/// How often the windowed engine emits durable checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Emit a checkpoint every `interval` completed windows (≥ 1).
    pub interval: u32,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        Self { interval: 4 }
    }
}

/// A durable prefix of the windowed evaluation: the partials
/// `W_0 .. W_{next_window-1}`, normalised to affine for a canonical
/// byte encoding.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowCheckpoint<C: Curve> {
    /// Pippenger window size `s` the partials were computed with.
    pub window_size: u32,
    /// First window still to compute; `partials.len() == next_window`.
    pub next_window: u32,
    /// Completed window partials `W_0 .. W_{next_window-1}`.
    pub partials: Vec<XyzzPoint<C>>,
}

/// Typed failures of the checkpointed execution path. Restored
/// checkpoints are untrusted input, so every defect is an error value,
/// never a panic.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Checkpoint bytes that do not parse, or contain a coordinate that
    /// is non-canonical / off-curve.
    Undecodable {
        /// What failed.
        detail: String,
    },
    /// A checkpoint computed with a different window size than the
    /// resuming engine uses.
    WindowSizeMismatch {
        /// Window size the engine would use.
        expected: u32,
        /// Window size the checkpoint claims.
        found: u32,
    },
    /// A checkpoint claiming more completed windows than the scalar
    /// width allows.
    WindowOutOfRange {
        /// Windows the shape admits.
        n_windows: u32,
        /// `next_window` the checkpoint claims.
        found: u32,
    },
    /// The checkpoint interval must be at least one window.
    ZeroInterval,
    /// The engine refused the instance or lost a slice of it.
    Engine(MsmError),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Undecodable { detail } => {
                write!(f, "undecodable checkpoint: {detail}")
            }
            CheckpointError::WindowSizeMismatch { expected, found } => {
                write!(f, "checkpoint window size {found} != engine window size {expected}")
            }
            CheckpointError::WindowOutOfRange { n_windows, found } => {
                write!(f, "checkpoint next_window {found} exceeds {n_windows} windows")
            }
            CheckpointError::ZeroInterval => write!(f, "checkpoint interval must be ≥ 1"),
            CheckpointError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl<C: Curve> WindowCheckpoint<C> {
    /// The empty checkpoint: nothing computed yet.
    pub fn empty(window_size: u32) -> Self {
        Self { window_size, next_window: 0, partials: Vec::new() }
    }

    /// Canonical byte encoding:
    /// `window_size: u32 ‖ next_window: u32 ‖ affine points`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.window_size.to_le_bytes());
        out.extend_from_slice(&self.next_window.to_le_bytes());
        for p in &self.partials {
            out.extend(point_to_uncompressed(&p.to_affine()));
        }
        out
    }

    /// Strict decode; validates lengths, canonical field ranges and
    /// curve membership of every partial.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let (&[s0, s1, s2, s3, n0, n1, n2, n3], body) = bytes
            .split_first_chunk::<8>()
            .ok_or_else(|| CheckpointError::Undecodable { detail: "short header".into() })?;
        let window_size = u32::from_le_bytes([s0, s1, s2, s3]);
        let next_window = u32::from_le_bytes([n0, n1, n2, n3]);
        let point_len = 1 + 2 * C::Base::encoded_len();
        if body.len() != next_window as usize * point_len {
            return Err(CheckpointError::Undecodable {
                detail: format!(
                    "{} partial bytes, expected {} × {}",
                    body.len(),
                    next_window,
                    point_len
                ),
            });
        }
        let mut partials = Vec::with_capacity(next_window as usize);
        for (w, chunk) in body.chunks_exact(point_len).enumerate() {
            let p: Affine<C> = point_from_uncompressed(chunk).ok_or_else(|| {
                CheckpointError::Undecodable {
                    detail: format!("partial {w} is not a canonical on-curve point"),
                }
            })?;
            partials.push(p.to_xyzz());
        }
        Ok(Self { window_size, next_window, partials })
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + self.partials.len() * (1 + 2 * C::Base::encoded_len())
    }
}

/// Outcome of a (possibly resumed) checkpointed windowed execution.
#[derive(Clone, Debug)]
pub struct WindowedMsmReport<C: Curve> {
    /// The MSM result (bit-exact vs the serial reference).
    pub result: XyzzPoint<C>,
    /// Total windows of the evaluation.
    pub n_windows: u32,
    /// Windows actually computed this run (`n_windows` from scratch,
    /// fewer on resume).
    pub windows_computed: u32,
    /// Checkpoints emitted to the sink this run.
    pub checkpoints_taken: u32,
    /// Modeled compute seconds, scaled from the engine's analytic
    /// estimate by the fraction of windows computed.
    pub compute_s: f64,
    /// Modeled durable-write seconds for the emitted checkpoints.
    pub checkpoint_s: f64,
}

impl DistMsm {
    /// Executes an MSM in batches of [`CheckpointConfig::interval`]
    /// windows, emitting a durable [`WindowCheckpoint`] to `sink` after
    /// every batch but the last, and resuming from `resume` when given.
    /// A batch is the slices [`plan_slices`] gives its windows, run on the
    /// host workers like any other execution's and folded per window; the
    /// engine's fault plan is not consulted.
    ///
    /// The caller owns durability: `sink` typically appends
    /// `checkpoint.encode()` to a `distmsm-journal` log. The final
    /// window never emits a checkpoint (the completed result supersedes
    /// it).
    ///
    /// `resume` is validated (window size, range, point validity is the
    /// caller's decode step) but **not trusted**: callers in the 2G2T
    /// outsourcing model must re-verify the finished result against its
    /// twin before use.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Engine`] with what [`DistMsm::execute`] would
    /// report for the instance (empty, unequal point and scalar counts, a
    /// scatter overflow, a lost slice); otherwise [`CheckpointError`] on a
    /// zero interval or a resume checkpoint inconsistent with this
    /// engine's window shape.
    pub fn execute_windowed<C: Curve, F>(
        &self,
        instance: &MsmInstance<C>,
        cfg: &CheckpointConfig,
        resume: Option<WindowCheckpoint<C>>,
        mut sink: F,
    ) -> Result<WindowedMsmReport<C>, CheckpointError>
    where
        F: FnMut(&WindowCheckpoint<C>),
    {
        let launch = self
            .launch(&instance.points, &instance.scalars)
            .map_err(CheckpointError::Engine)?;
        if cfg.interval == 0 {
            return Err(CheckpointError::ZeroInterval);
        }
        let (s, n_windows) = (launch.s, launch.n_windows);

        let mut ckpt = match resume {
            Some(r) => {
                if r.window_size != s {
                    return Err(CheckpointError::WindowSizeMismatch {
                        expected: s,
                        found: r.window_size,
                    });
                }
                if r.next_window > n_windows || r.partials.len() != r.next_window as usize {
                    return Err(CheckpointError::WindowOutOfRange {
                        n_windows,
                        found: r.next_window.max(r.partials.len() as u32),
                    });
                }
                r
            }
            None => WindowCheckpoint::empty(s),
        };

        let start = ckpt.next_window;
        let slices = plan_slices(n_windows, launch.n_buckets, self.system().n_gpus());
        let mut checkpoints_taken = 0u32;
        let mut checkpoint_s = 0.0f64;
        while ckpt.next_window < n_windows {
            let hi = ckpt.next_window.saturating_add(cfg.interval).min(n_windows);
            let jobs: Vec<_> = slices
                .iter()
                .filter(|sl| (ckpt.next_window..hi).contains(&sl.window))
                .map(|&sl| (sl, 0))
                .collect();
            let done = self
                .run_slices(&launch, &jobs, host_parallelism())
                .map_err(CheckpointError::Engine)?;
            ckpt.partials.resize(hi as usize, XyzzPoint::identity());
            for oc in &done {
                let w = &mut ckpt.partials[oc.slice.window as usize];
                *w = w.padd(&oc.contrib.0);
            }
            ckpt.next_window = hi;
            if hi < n_windows {
                sink(&ckpt);
                checkpoints_taken += 1;
                checkpoint_s +=
                    CHECKPOINT_LATENCY_S + ckpt.encoded_len() as f64 * CHECKPOINT_BYTE_S;
            }
        }

        let windows_computed = n_windows - start;
        let compute_s = self.estimate_seconds(instance.len(), &CurveDesc::of::<C>())
            * f64::from(windows_computed)
            / f64::from(n_windows.max(1));
        Ok(WindowedMsmReport {
            result: window_reduce(&ckpt.partials, s).0,
            n_windows,
            windows_computed,
            checkpoints_taken,
            compute_s,
            checkpoint_s,
        })
    }
}

/// One row of the checkpoint-interval recovery trajectory: the modeled
/// cost of a mid-run pod crash with and without durable window
/// checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointRecoveryEstimate {
    /// Checkpoint interval, windows.
    pub interval: u32,
    /// Total windows of the evaluation.
    pub n_windows: u32,
    /// Checkpoint-write overhead added to the fault-free run, seconds.
    pub overhead_s: f64,
    /// Cost of resuming after a crash at window `n_windows / 2`:
    /// recompute from the newest durable boundary, seconds.
    pub recovery_s: f64,
    /// Cost of restarting the evaluation from scratch, seconds.
    pub scratch_s: f64,
}

/// Models the recovery economics of [`DistMsm::execute_windowed`] for a
/// crash at the run's midpoint (window `⌊W/2⌋`): recovery recomputes
/// only the windows past the newest durable checkpoint, so it is
/// strictly cheaper than scratch iff at least one checkpoint was
/// durable — i.e. iff `interval ≤ ⌊W/2⌋`, the documented threshold.
pub fn estimate_checkpoint_recovery(
    engine: &DistMsm,
    n: u64,
    curve: &CurveDesc,
    point_bytes: usize,
    interval: u32,
) -> CheckpointRecoveryEstimate {
    let n_windows = engine.shape_for(n as usize, curve).1;
    let interval = interval.max(1);
    let total_s = engine.estimate_seconds(n as usize, curve);
    let per_window_s = total_s / f64::from(n_windows.max(1));

    // Checkpoints emitted during a full fault-free run (the final
    // window never checkpoints); checkpoint k carries k·interval
    // partials.
    let emitted = (n_windows.saturating_sub(1)) / interval;
    let mut overhead_s = 0.0;
    for k in 1..=emitted {
        let bytes = 8 + (k * interval) as usize * point_bytes;
        overhead_s += CHECKPOINT_LATENCY_S + bytes as f64 * CHECKPOINT_BYTE_S;
    }

    let crash_window = n_windows / 2;
    let durable = (crash_window / interval) * interval;
    let recovery_s = per_window_s * f64::from(n_windows - durable);
    CheckpointRecoveryEstimate {
        interval,
        n_windows,
        overhead_s,
        recovery_s,
        scratch_s: total_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::window_shape;
    use distmsm_ec::curves::Bn254G1;
    use distmsm_gpu_sim::MultiGpuSystem;
    use rand::{rngs::StdRng, SeedableRng};

    fn engine_with(signed_digits: bool) -> DistMsm {
        DistMsm::with_config(
            MultiGpuSystem::dgx_a100(2),
            crate::DistMsmConfig::builder()
                .window_size(8)
                .signed_digits(signed_digits)
                .build()
                .expect("static test config is valid"),
        )
    }

    fn engine() -> DistMsm {
        engine_with(false)
    }

    fn instance(n: usize) -> MsmInstance<Bn254G1> {
        MsmInstance::random(n, &mut StdRng::seed_from_u64(9))
    }

    /// `encode()` of the first checkpoint `engine()` emits for
    /// `instance(64)` at interval 3, captured on the commit before
    /// `execute_windowed` moved onto the engine's slices.
    const FIRST_CHECKPOINT_HEX: &str = "\
        080000000300000000f9493521f27a716f5ba0be47bd886e78cba34ceefc0f21caa22085f007456d16\
        3d3049e34a60dcacf60516b73cb455f18701a83954a099d2491d082979fdac170013b8435145ba8905\
        bce431bc7e8ce03162ba0441ad615f0cf02f70bcd0a584108a65cd0bb34c74fa4c5c4ec2ab8a5cbb72\
        3b6bc19d432847b304deda7714bb03008839ffe07b9d42580610a7250123a58fa6b33221d19b722770\
        7107410bf9c92f06ff8264d7bda54b770bcf1158181a2f7989d2f041f0267905d6f015b654a52b";

    fn first_checkpoint_bytes() -> Vec<u8> {
        let hex = FIRST_CHECKPOINT_HEX.as_bytes();
        hex.chunks(2)
            .map(|b| u8::from_str_radix(std::str::from_utf8(b).unwrap(), 16).unwrap())
            .collect()
    }

    #[test]
    fn first_checkpoint_bytes_are_frozen() {
        let mut first = None;
        engine()
            .execute_windowed(&instance(64), &CheckpointConfig { interval: 3 }, None, |c| {
                first.get_or_insert_with(|| c.encode());
            })
            .expect("checkpointed run succeeds");
        assert_eq!(first.expect("a checkpoint was emitted"), first_checkpoint_bytes());
    }

    #[test]
    fn hostile_checkpoint_bytes_never_panic() {
        let good = first_checkpoint_bytes();
        let original = WindowCheckpoint::<Bn254G1>::decode(&good).expect("frozen bytes decode");
        assert_eq!((original.window_size, original.partials.len()), (8, 3));
        assert_eq!(original.encode(), good);

        let mut hostile: Vec<Vec<u8>> = (0..good.len()).map(|n| good[..n].to_vec()).collect();
        hostile.push([&good[..], &[0]].concat());
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            hostile.push(flipped);
        }
        let inst = instance(64);
        let mut rejected = 0;
        for bytes in &hostile {
            match WindowCheckpoint::<Bn254G1>::decode(bytes) {
                Err(CheckpointError::Undecodable { .. }) => rejected += 1,
                Err(other) => panic!("decode reports only Undecodable, got {other:?}"),
                // `window_size` is the one field the bytes cannot vouch
                // for: the resuming engine is what refuses it
                Ok(c) => {
                    assert_ne!(c.window_size, original.window_size);
                    assert_eq!(c, WindowCheckpoint { window_size: c.window_size, ..original.clone() });
                    let found = c.window_size;
                    let resumed =
                        engine().execute_windowed(&inst, &CheckpointConfig::default(), Some(c), |_| {});
                    assert_eq!(
                        resumed.unwrap_err(),
                        CheckpointError::WindowSizeMismatch { expected: 8, found }
                    );
                }
            }
        }
        // everything but the 32 flips of the `window_size` word
        assert_eq!(rejected, hostile.len() - 32);
    }

    #[test]
    fn windowed_matches_reference_and_checkpoints_roundtrip() {
        let inst = instance(37);
        for signed in [false, true] {
            let mut saved: Vec<Vec<u8>> = Vec::new();
            let report = engine_with(signed)
                .execute_windowed(&inst, &CheckpointConfig { interval: 3 }, None, |c| {
                    saved.push(c.encode())
                })
                .expect("checkpointed run succeeds");
            assert_eq!(report.result.to_affine(), inst.reference_result().to_affine());
            assert_eq!(report.n_windows, window_shape(254, 8, signed).0);
            assert_eq!(report.windows_computed, report.n_windows);
            assert_eq!(report.checkpoints_taken as usize, saved.len());
            assert_eq!(report.checkpoints_taken, (report.n_windows - 1) / 3);
            assert!(report.checkpoint_s > 0.0 && report.compute_s > 0.0);
            for (k, bytes) in saved.iter().enumerate() {
                let c = WindowCheckpoint::<Bn254G1>::decode(bytes).expect("own encoding decodes");
                assert_eq!(c.next_window as usize, 3 * (k + 1));
                assert_eq!(c.partials.len(), c.next_window as usize);
            }
        }
    }

    #[test]
    fn resume_from_every_checkpoint_is_bit_exact_and_cheaper() {
        let inst = instance(29);
        for signed in [false, true] {
            let eng = engine_with(signed);
            let mut saved: Vec<Vec<u8>> = Vec::new();
            let full = eng
                .execute_windowed(&inst, &CheckpointConfig { interval: 4 }, None, |c| {
                    saved.push(c.encode())
                })
                .expect("full run succeeds");
            assert_eq!(full.result.to_affine(), inst.reference_result().to_affine());
            for bytes in &saved {
                let ckpt = WindowCheckpoint::<Bn254G1>::decode(bytes).expect("decodes");
                let resumed_windows = full.n_windows - ckpt.next_window;
                let report = eng
                    .execute_windowed(&inst, &CheckpointConfig { interval: 4 }, Some(ckpt), |_| {})
                    .expect("resumed run succeeds");
                assert_eq!(report.result.to_affine(), full.result.to_affine());
                assert_eq!(report.windows_computed, resumed_windows);
                assert!(report.compute_s < full.compute_s, "resume must be cheaper");
            }
        }
    }

    #[test]
    fn corrupt_and_mismatched_checkpoints_are_typed_errors() {
        let inst = instance(21);
        let eng = engine();
        let mut saved: Vec<Vec<u8>> = Vec::new();
        eng.execute_windowed(&inst, &CheckpointConfig { interval: 2 }, None, |c| {
            saved.push(c.encode())
        })
        .expect("run succeeds");
        let good = saved.last().expect("at least one checkpoint").clone();

        // Bit-flipped coordinate: fails canonical/on-curve validation.
        let mut flipped = good.clone();
        let off = flipped.len() - 3;
        flipped[off] ^= 0x10;
        assert!(matches!(
            WindowCheckpoint::<Bn254G1>::decode(&flipped),
            Err(CheckpointError::Undecodable { .. })
        ));

        // Truncated bytes: length mismatch.
        assert!(matches!(
            WindowCheckpoint::<Bn254G1>::decode(&good[..good.len() - 1]),
            Err(CheckpointError::Undecodable { .. })
        ));

        // Window-size mismatch is rejected at resume.
        let mut wrong = WindowCheckpoint::<Bn254G1>::decode(&good).expect("decodes");
        wrong.window_size += 1;
        assert!(matches!(
            eng.execute_windowed(&inst, &CheckpointConfig::default(), Some(wrong), |_| {}),
            Err(CheckpointError::WindowSizeMismatch { .. })
        ));

        // Out-of-range next_window is rejected.
        let mut far = WindowCheckpoint::<Bn254G1>::decode(&good).expect("decodes");
        far.next_window = 10_000;
        assert!(matches!(
            eng.execute_windowed(&inst, &CheckpointConfig::default(), Some(far), |_| {}),
            Err(CheckpointError::WindowOutOfRange { .. })
        ));
    }

    #[test]
    fn instances_the_engine_refuses_are_its_typed_error() {
        fn check<C: Curve>() {
            let inst = MsmInstance::<C>::random(24, &mut StdRng::seed_from_u64(9));
            for (points, scalars) in [(12, 24), (24, 12), (0, 0)] {
                let bad = MsmInstance::<C> {
                    points: inst.points[..points].to_vec(),
                    scalars: inst.scalars[..scalars].to_vec(),
                };
                let got = engine().execute_windowed(&bad, &CheckpointConfig::default(), None, |_| {});
                let want = engine().execute(&bad).unwrap_err();
                assert_eq!(got.unwrap_err(), CheckpointError::Engine(want));
            }
        }
        check::<Bn254G1>();
        check::<distmsm_ec::curves::Bls12381G1>();
    }

    #[test]
    fn swapped_partials_decode_but_diverge() {
        // A valid-looking wrong checkpoint: decoding cannot catch it —
        // this is exactly why restored state is re-verified via 2G2T at
        // the fleet layer before use.
        let inst = instance(18);
        let eng = engine();
        let mut saved: Vec<Vec<u8>> = Vec::new();
        let full = eng
            .execute_windowed(&inst, &CheckpointConfig { interval: 2 }, None, |c| {
                saved.push(c.encode())
            })
            .expect("run succeeds");
        let mut ckpt =
            WindowCheckpoint::<Bn254G1>::decode(saved.last().expect("checkpoint")).expect("decodes");
        ckpt.partials.swap(0, 1);
        let report = eng
            .execute_windowed(&inst, &CheckpointConfig { interval: 2 }, Some(ckpt), |_| {})
            .expect("corrupt-but-decodable checkpoint resumes");
        assert_ne!(
            report.result.to_affine(),
            full.result.to_affine(),
            "swapped partials must change the result (and be caught by 2G2T)"
        );
    }

    #[test]
    fn recovery_estimate_threshold() {
        let eng = engine();
        let curve = CurveDesc::of::<Bn254G1>();
        let w = window_shape(254, 8, false).0;
        for interval in [1u32, 2, 4, 8, 16] {
            let e = estimate_checkpoint_recovery(&eng, 1 << 12, &curve, 97, interval);
            assert_eq!(e.n_windows, w);
            if interval <= w / 2 {
                assert!(
                    e.recovery_s < e.scratch_s,
                    "interval {interval} ≤ W/2 must beat scratch"
                );
            }
            assert!(e.overhead_s > 0.0);
        }
        // Past the threshold no checkpoint is durable at the midpoint.
        let e = estimate_checkpoint_recovery(&eng, 1 << 12, &curve, 97, w);
        assert_eq!(e.recovery_s, e.scratch_s);
    }
}
