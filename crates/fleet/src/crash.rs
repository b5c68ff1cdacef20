//! The deterministic crash soak: kill-point sweeps over the journaled
//! service/fleet stack plus the window-checkpointed giant-MSM path.
//!
//! Three sweeps, all derived from one [`CrashSoakSpec`]:
//!
//! 1. **Service kill points** — a reference pod soak runs to
//!    completion, then its durable journal is truncated at evenly
//!    spread record boundaries *and* mid-record (torn writes). Each
//!    prefix's snapshot-plus-tail recovery must equal its full replay
//!    with the snapshots stripped, byte for byte; the prefix then
//!    restores via [`ProverService::restore`], drives to
//!    completion, and its event stream — the journal decoded, so the
//!    durable prefix comes first — must satisfy every PR-5 soak
//!    invariant: exactly-once, conservation, bit-exact results,
//!    starvation bounds, no open-breaker dispatch. Jobs that
//!    were terminal before the crash must never emit another event
//!    (no resurrection), and modelled recovery cost must beat
//!    restart-from-scratch whenever enough history exists
//!    ([`RECOVERY_WIN_MIN_SCRATCH_S`]).
//! 2. **Fleet time cuts** — the whole fleet (coordinator journal plus
//!    one journal per pod) is cut at a shared simulated instant: every
//!    journal keeps the longest prefix stamped at or before the cut.
//!    [`FleetCoordinator::restore`] reconciles the layers (torn steals
//!    re-absorbed, durable-but-unaccepted completions re-verified via
//!    the 2G2T twin check), [`FleetCoordinator::resume`] runs
//!    the tail, and its outcome, which spans the whole run, must
//!    satisfy every fleet soak invariant — including byzantine
//!    detection and pod-loss handling across the restart. One extra cut
//!    tears the coordinator journal mid-record.
//! 3. **Checkpointed shards** — a supervised windowed MSM and its twin
//!    query (the twin bases `T[..n]` with the same scalars) journal a
//!    [`WindowCheckpoint`] every `interval` windows. For every
//!    checkpoint count the pair resumes from the last durable boundary
//!    and the finished pair must still satisfy `S2 = k·S1 + ⟨x, ρ⟩·G`
//!    bit-exactly. A torn checkpoint tail falls back to the previous
//!    boundary; a corrupted-but-decodable checkpoint must be *caught* by
//!    the 2G2T check, after which the scratch fallback must verify.
//!
//! Everything runs on the simulated clock; two equal specs produce
//! byte-identical reports.

use std::collections::BTreeSet;

use distmsm::checkpoint::{CheckpointConfig, WindowCheckpoint, WindowedMsmReport};
use distmsm::report::{json_pretty, JsonField::Scalar};
use distmsm::DistMsm;
use distmsm_ec::curves::Bn254G1;
use distmsm_ec::serialize::point_to_uncompressed;
use distmsm_ec::MsmInstance;
use distmsm_gpu_sim::MultiGpuSystem;
use distmsm_journal::{DurableState, Record, Wire};
use distmsm_service::harness::{Flags, Run, Scenario};
use distmsm_service::soak::{self as pod_soak, SoakSpec};
use distmsm_service::wal::{self as service_wal, ServiceShape};
use distmsm_service::{
    ChaosSchedule, JobSpec, ProverService, ServiceConfig, ServiceEventKind,
};
use rand::{rngs::StdRng, SeedableRng};

use crate::fleet::{FleetChaos, FleetConfig, FleetCoordinator};
use crate::outsource::{OutsourcedResult, TwinKey};
use crate::soak::{self as fleet_soak, FleetSoakSpec};

/// Simulated-seconds of lost pod history above which recovery must be
/// strictly cheaper than recomputing from scratch, per journaled layer.
///
/// With the crash soak's snapshot cadence (≤ 64 records between
/// snapshots) a single layer's recovery cost is bounded by
/// `RECOVERY_BASE_S + 64·REPLAY_RECORD_S` plus the snapshot decode —
/// well under 50 ms — so any crash that loses more simulated history
/// than this must favour recovery. The fleet threshold scales by
/// `n_pods + 1` (one journal per pod plus the coordinator).
pub const RECOVERY_WIN_MIN_SCRATCH_S: f64 = 0.05;

/// Everything that defines one crash soak. Two equal specs produce
/// byte-identical runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashSoakSpec {
    /// The pod-level scenario whose journal gets the kill-point sweep.
    pub service: SoakSpec,
    /// The fleet scenario whose journals get the time-cut sweep.
    pub fleet: FleetSoakSpec,
    /// Snapshot cadence (records between installs) for every journal.
    pub snapshot_every: u64,
    /// Record-boundary kill points swept over the service journal.
    pub n_kill_points: usize,
    /// Mid-record (torn-write) kill points swept over the service
    /// journal.
    pub n_torn_points: usize,
    /// Shared time cuts swept across the fleet's journals.
    pub n_fleet_cuts: usize,
    /// Points in the checkpointed giant-MSM shard.
    pub ckpt_msm_size: usize,
    /// Windows between durable checkpoints in the shard sweep.
    pub ckpt_interval: u32,
    /// Seed of the shard instance and its 2G2T challenge.
    pub ckpt_seed: u64,
}

/// Invariant ids: `"crash-baseline"`, `"crash-decode"`, `"crash-replay"`,
/// `"crash-restore"`, `"crash-no-resurrection"`, `"crash-invariant"`,
/// `"crash-recovery-cost"`, `"crash-determinism"`, `"crash-torn"`,
/// `"crash-ckpt"`, `"crash-ckpt-detect"`; every detail names its kill
/// point.
impl Scenario for CrashSoakSpec {
    type Report = CrashReport;
    const NAME: &'static str = "crash_soak";

    /// The CI smoke scenario: small enough to sweep a dozen kill
    /// points in seconds, still covering shedding, retries, breaker
    /// cycles, a byzantine pod and whole-pod loss across the restarts.
    fn smoke() -> Self {
        Self {
            service: SoakSpec {
                arrival_seed: 11,
                fault_seed: 3,
                n_jobs: 60,
                n_fault_windows: 6,
                n_link_windows: 2,
                horizon_s: 300.0,
                n_devices: 6,
                msm_size: 48,
                always_faulty: Some(5),
            },
            fleet: FleetSoakSpec {
                arrival_seed: 2027,
                fault_seed: 17,
                n_jobs: 300,
                n_tenants: 256,
                n_pods: 4,
                devices_per_pod: 4,
                n_fault_windows: 2,
                horizon_s: 450.0,
                msm_size: 24,
                byzantine_pod: Some(3),
                lost_pod: Some(1),
                partition_seed: 41,
                n_partition_windows: 0,
            },
            snapshot_every: 24,
            n_kill_points: 6,
            n_torn_points: 3,
            n_fleet_cuts: 4,
            ckpt_msm_size: 96,
            ckpt_interval: 3,
            ckpt_seed: 77,
        }
    }

    /// The acceptance-scale scenario: the full PR-5/PR-7 soak specs
    /// under a denser kill-point grid.
    fn full() -> Self {
        Self {
            service: SoakSpec::smoke(),
            fleet: FleetSoakSpec::smoke(),
            snapshot_every: 32,
            n_kill_points: 12,
            n_torn_points: 6,
            n_fleet_cuts: 8,
            ckpt_msm_size: 192,
            ckpt_interval: 4,
            ckpt_seed: 77,
        }
    }

    fn flags(&mut self, f: &mut Flags<'_>) {
        f.nested("service", &mut self.service);
        f.nested("fleet", &mut self.fleet);
        f.field("snapshot-every", &mut self.snapshot_every);
        f.field("kill-points", &mut self.n_kill_points);
        f.field("torn-points", &mut self.n_torn_points);
        f.field("fleet-cuts", &mut self.n_fleet_cuts);
        f.field("ckpt-msm-size", &mut self.ckpt_msm_size);
        f.field("ckpt-interval", &mut self.ckpt_interval);
        f.field("ckpt-seed", &mut self.ckpt_seed);
    }

    /// Runs the full crash soak: the service kill-point sweep, the
    /// fleet time-cut sweep and the checkpointed-shard resume sweep.
    fn run(&self) -> Run<CrashReport> {
        let mut run = Run::default();
        service_sweep(self, &mut run);
        fleet_sweep(self, &mut run);
        if let Err(detail) = ckpt_sweep(self, &mut run) {
            run.violations.fail("crash-ckpt", detail);
        }
        run.report.n_violations = run.violations.len();
        run
    }

    fn render(report: &CrashReport) -> String {
        report.render()
    }

    fn golden_json(report: &CrashReport) -> String {
        report.to_json()
    }
}

/// Byte-stable summary of one crash soak (the golden-file surface).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrashReport {
    /// Record-boundary service kill points restored and checked.
    pub service_kill_points: usize,
    /// Mid-record (torn-write) service kill points restored and
    /// checked.
    pub service_torn_points: usize,
    /// Fleet-wide time cuts restored and checked (including the torn
    /// coordinator cut).
    pub fleet_cuts: usize,
    /// Checkpointed-shard resume points verified via 2G2T.
    pub ckpt_resumes: usize,
    /// Restores whose lost history exceeded the recovery-win threshold
    /// (each must have recovery strictly cheaper than scratch).
    pub recovery_evals: usize,
    /// Of those, restores where recovery beat scratch.
    pub recovery_wins: usize,
    /// Durable pod completions re-verified via 2G2T at fleet restore.
    pub reverified: u64,
    /// Jobs re-placed or re-absorbed because the cut tore their
    /// ownership.
    pub replaced: u64,
    /// Torn frame bytes dropped from journal tails across every
    /// restore in the sweep (service cuts plus the torn coordinator
    /// frame) — nonzero whenever a mid-frame cut was actually torn.
    pub torn_tail_bytes: usize,
    /// Total violations detected (0 on a healthy sweep).
    pub n_violations: usize,
}

impl CrashReport {
    /// Renders the report as byte-stable JSON (integers only, fixed
    /// key order).
    pub fn to_json(&self) -> String {
        json_pretty(&[
            ("service_kill_points", Scalar(self.service_kill_points.to_string())),
            ("service_torn_points", Scalar(self.service_torn_points.to_string())),
            ("fleet_cuts", Scalar(self.fleet_cuts.to_string())),
            ("ckpt_resumes", Scalar(self.ckpt_resumes.to_string())),
            ("recovery_evals", Scalar(self.recovery_evals.to_string())),
            ("recovery_wins", Scalar(self.recovery_wins.to_string())),
            ("reverified", Scalar(self.reverified.to_string())),
            ("replaced", Scalar(self.replaced.to_string())),
            ("torn_tail_bytes", Scalar(self.torn_tail_bytes.to_string())),
            ("n_violations", Scalar(self.n_violations.to_string())),
        ])
    }

    /// Human-readable summary: sweep sizes, recovery economics and
    /// restore reconciliation.
    pub fn render(&self) -> String {
        format!(
            "kill points: {} record-boundary + {} torn (service), {} fleet cuts, {} shard resumes\n\
             recovery economics: {} of {} evaluated restores beat scratch\n\
             restore reconciliation: {} completions re-verified via 2G2T, {} jobs re-placed\n",
            self.service_kill_points,
            self.service_torn_points,
            self.fleet_cuts,
            self.ckpt_resumes,
            self.recovery_wins,
            self.recovery_evals,
            self.reverified,
            self.replaced
        )
    }
}

/// Evenly spread kill indices over `[1, n_records - 1]` — never 0 (an
/// empty journal is just a cold start) and never `n_records` (no
/// crash).
fn kill_indices(n_records: usize, want: usize) -> Vec<usize> {
    if n_records < 2 || want == 0 {
        return Vec::new();
    }
    let lo = 1usize;
    let hi = n_records - 1;
    let mut out: Vec<usize> = Vec::with_capacity(want);
    let denom = want.saturating_sub(1).max(1);
    for i in 0..want {
        let k = lo + (hi - lo) * i / denom;
        if out.last() != Some(&k) {
            out.push(k);
        }
    }
    out
}

fn service_terminal(kind: &ServiceEventKind) -> bool {
    matches!(
        kind,
        ServiceEventKind::Completed { .. }
            | ServiceEventKind::Failed { .. }
            | ServiceEventKind::Shed { .. }
            | ServiceEventKind::Rejected { .. }
    )
}

/// What one service restore reported back to the sweep.
struct RestoreStats {
    /// Debug rendering of the events after the durable prefix (the
    /// determinism probe compares two restores of the same prefix).
    signature: String,
    recovery_cost_s: f64,
    scratch_cost_s: f64,
    torn_tail_bytes: usize,
}

/// Records one restore's recovery economics across `layers` journaled
/// layers (see [`RECOVERY_WIN_MIN_SCRATCH_S`]).
fn note_recovery(
    what: &str,
    recovery_cost_s: f64,
    scratch_cost_s: f64,
    layers: usize,
    run: &mut Run<CrashReport>,
) {
    if scratch_cost_s < RECOVERY_WIN_MIN_SCRATCH_S * layers as f64 {
        return;
    }
    run.report.recovery_evals += 1;
    if recovery_cost_s < scratch_cost_s {
        run.report.recovery_wins += 1;
    } else {
        run.violations.fail(
            "crash-recovery-cost",
            format!(
                "{what}: recovery cost {recovery_cost_s:.6}s is not below scratch \
                 {scratch_cost_s:.6}s despite {scratch_cost_s:.3}s of lost history"
            ),
        );
    }
}

/// The snapshot oracle: recovering a durable prefix from its newest
/// snapshot plus the record tail must give the byte-identical
/// [`ServiceState`](service_wal::ServiceState) that a full replay with
/// the snapshots stripped gives. The service WAL never compacts, so the
/// full replay has every record.
fn check_replay(cut: &DurableState, shape: &ServiceShape) -> Result<(), String> {
    let mut stripped = cut.clone();
    stripped.set_snapshot_bytes(Vec::new());
    let recover = |d: &DurableState| service_wal::recover_state(d, shape);
    let (via_snapshot, via_replay) = match (recover(cut), recover(&stripped)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(err), _) | (_, Err(err)) => return Err(format!("recovery failed: {err:?}")),
    };
    if via_snapshot.state.to_bytes() == via_replay.state.to_bytes() {
        return Ok(());
    }
    Err(format!(
        "snapshot at epoch {} plus a {}-record tail diverges from the full replay",
        via_snapshot.snapshot_epoch, via_snapshot.replayed_records
    ))
}

/// Restores one truncated service journal, drives it to completion and
/// checks its outcome, whose stream starts with the cut's events.
/// Returns `None` when decode or restore itself failed (already
/// reported).
fn service_restore_check(
    config: &ServiceConfig,
    jobs: &[JobSpec<Bn254G1>],
    chaos: &ChaosSchedule,
    cut: &DurableState,
    what: &str,
    run: &mut Run<CrashReport>,
) -> Option<RestoreStats> {
    let v = &mut run.violations;
    if let Err(detail) = check_replay(cut, &config.shape()) {
        v.fail("crash-replay", format!("{what}: {detail}"));
    }
    let durable = match service_wal::decode_events(cut) {
        Ok(events) => events,
        Err(err) => {
            v.fail("crash-decode", format!("{what}: durable prefix failed to decode: {err:?}"));
            return None;
        }
    };
    let terminal: BTreeSet<u64> = durable
        .iter()
        .filter(|ev| service_terminal(&ev.kind))
        .filter_map(|ev| ev.job)
        .collect();

    let (mut svc, info) = match ProverService::restore(config.clone(), jobs, cut) {
        Ok(pair) => pair,
        Err(err) => {
            v.fail("crash-restore", format!("{what}: restore failed: {err:?}"));
            return None;
        }
    };
    while svc.step(chaos) {}
    let outcome = svc.finish();
    let Some(post) = outcome.events.strip_prefix(durable.as_slice()) else {
        let detail = format!("{what}: the restored stream does not start with the cut's events");
        v.fail("crash-restore", detail);
        return None;
    };

    for ev in post {
        if let Some(id) = ev.job.filter(|id| terminal.contains(id)) {
            v.fail(
                "crash-no-resurrection",
                format!(
                    "{what}: job {id} was terminal before the crash but re-appeared \
                     as {:?} at t={:.3}",
                    ev.kind, ev.t_s
                ),
            );
        }
    }

    let signature = format!("{post:?}");
    run.n_events += outcome.events.len();
    let inner = pod_soak::check_invariants(jobs, &outcome.events, &outcome.completed);
    v.nest("crash-invariant", what, inner);

    Some(RestoreStats {
        signature,
        recovery_cost_s: info.recovery_cost_s,
        scratch_cost_s: info.scratch_cost_s,
        torn_tail_bytes: info.torn_tail_bytes,
    })
}

fn service_sweep(spec: &CrashSoakSpec, run: &mut Run<CrashReport>) {
    let jobs = pod_soak::build_jobs(&spec.service);
    let chaos = pod_soak::build_chaos(&spec.service);
    let mut config = pod_soak::service_config(&spec.service);
    config.snapshot_every = spec.snapshot_every;

    let mut svc: ProverService<Bn254G1> = ProverService::new(config.clone());
    svc.begin(jobs.clone());
    while svc.step(&chaos) {}
    let reference = svc.finish();
    let baseline = pod_soak::check_invariants(&jobs, &reference.events, &reference.completed);
    run.violations.nest("crash-baseline", "service baseline", baseline);
    let durable = svc.durable().clone();
    let n_records = durable.journal.n_records();

    for (i, k) in kill_indices(n_records, spec.n_kill_points).into_iter().enumerate() {
        let cut = durable.truncate_records(k);
        let what = format!("service kill at record {k}/{n_records}");
        let Some(stats) = service_restore_check(&config, &jobs, &chaos, &cut, &what, run) else {
            continue;
        };
        run.report.service_kill_points += 1;
        run.report.torn_tail_bytes += stats.torn_tail_bytes;
        note_recovery(&what, stats.recovery_cost_s, stats.scratch_cost_s, 1, run);
        if i == 0 {
            // Determinism probe: restoring the same prefix twice must
            // replay the identical post-crash history.
            let again = service_restore_check(&config, &jobs, &chaos, &cut, &what, run);
            if again.is_some_and(|again| again.signature != stats.signature) {
                run.violations.fail(
                    "crash-determinism",
                    format!("{what}: two restores of the same durable prefix diverged"),
                );
            }
        }
    }

    let spans = durable.journal.frame_spans();
    for k in kill_indices(n_records, spec.n_torn_points) {
        let (offset, len) = spans[k];
        let cut = durable.truncate_bytes(offset + len / 2);
        let what = format!("service torn write inside record {k}/{n_records}");
        let Some(stats) = service_restore_check(&config, &jobs, &chaos, &cut, &what, run) else {
            continue;
        };
        run.report.service_torn_points += 1;
        run.report.torn_tail_bytes += stats.torn_tail_bytes;
        if stats.torn_tail_bytes == 0 {
            run.violations.fail(
                "crash-torn",
                format!("{what}: recovery reported no torn tail for a mid-frame cut"),
            );
        }
        note_recovery(&what, stats.recovery_cost_s, stats.scratch_cost_s, 1, run);
    }
}

/// Truncates a durable journal to the longest prefix stamped at or
/// before `t_s` — one leg of a time-consistent fleet-wide cut.
fn truncate_at_time(durable: &DurableState, t_s: f64) -> DurableState {
    let records = durable
        .journal
        .replay()
        .expect("reference journals are intact before crash injection");
    let keep = records.iter().take_while(|r| r.t_s <= t_s).count();
    durable.truncate_records(keep)
}

/// One fleet reference run under crash injection: everything a
/// restore needs, built once by [`fleet_sweep`].
struct FleetCuts<'a> {
    spec: &'a FleetSoakSpec,
    config: &'a FleetConfig,
    jobs: &'a [JobSpec<Bn254G1>],
    chaos: &'a FleetChaos,
    /// The reference run's per-pod durable journals.
    pod_durables: &'a [DurableState],
}

impl FleetCuts<'_> {
    /// Restores one fleet-wide cut — the given coordinator prefix plus
    /// every pod journal cut at `t_s` — resumes it and checks the
    /// outcome, which spans the whole run. Returns the coordinator's
    /// torn-tail byte count so the torn cut can assert it was actually
    /// torn.
    fn restore_check(
        &self,
        coordinator_cut: &DurableState,
        t_s: f64,
        what: &str,
        run: &mut Run<CrashReport>,
    ) -> Option<usize> {
        let Self { spec, config, jobs, chaos, pod_durables } = *self;
        let v = &mut run.violations;
        let pod_cuts: Vec<DurableState> =
            pod_durables.iter().map(|d| truncate_at_time(d, t_s)).collect();
        let restored =
            FleetCoordinator::restore(config.clone(), jobs, coordinator_cut, &pod_cuts, chaos);
        let (mut fleet, info) = match restored {
            Ok(pair) => pair,
            Err(err) => {
                v.fail("crash-restore", format!("{what}: fleet restore failed: {err:?}"));
                return None;
            }
        };
        let outcome = fleet.resume(chaos);
        run.n_events += outcome.events.len() + outcome.pod_events.len();
        let inner = fleet_soak::check_fleet_invariants(spec, jobs, &outcome, config);
        v.nest("crash-invariant", what, inner);
        let journal = fleet_soak::check_fleet_journal(&outcome.events, spec, &outcome.report);
        v.nest("crash-invariant", what, journal);

        run.report.fleet_cuts += 1;
        run.report.reverified += info.reverified;
        run.report.replaced += info.replaced_jobs;
        run.report.torn_tail_bytes += info.coordinator_torn_tail_bytes;
        note_recovery(what, info.recovery_cost_s, info.scratch_cost_s, config.n_pods + 1, run);
        Some(info.coordinator_torn_tail_bytes)
    }
}

fn fleet_sweep(spec: &CrashSoakSpec, run: &mut Run<CrashReport>) {
    let jobs = fleet_soak::build_fleet_jobs(&spec.fleet);
    let chaos = fleet_soak::build_fleet_chaos(&spec.fleet);
    let mut config = fleet_soak::fleet_config(&spec.fleet);
    config.pod.snapshot_every = spec.snapshot_every;

    let mut coordinator = FleetCoordinator::new(config.clone());
    let reference = coordinator.run(jobs.clone(), &chaos);
    let mut baseline = fleet_soak::check_fleet_invariants(&spec.fleet, &jobs, &reference, &config);
    let journal =
        fleet_soak::check_fleet_journal(&reference.events, &spec.fleet, &reference.report);
    baseline.within("coordinator journal", journal);
    run.violations.nest("crash-baseline", "fleet baseline", baseline);

    let coordinator_durable = coordinator.durable().clone();
    let pod_durables: Vec<DurableState> =
        (0..config.n_pods).map(|p| coordinator.pod_durable(p).clone()).collect();
    let t_max = pod_durables
        .iter()
        .filter_map(|d| {
            d.journal.replay().ok().and_then(|records| records.last().map(|r| r.t_s))
        })
        .fold(0.0_f64, f64::max);
    if t_max <= 0.0 {
        let detail = "fleet baseline produced an empty pod history — nothing to cut";
        run.violations.fail("crash-baseline", detail.into());
        return;
    }
    let cuts = FleetCuts {
        spec: &spec.fleet,
        config: &config,
        jobs: &jobs,
        chaos: &chaos,
        pod_durables: &pod_durables,
    };

    for i in 1..=spec.n_fleet_cuts {
        let t = t_max * i as f64 / (spec.n_fleet_cuts + 1) as f64;
        let coordinator_cut = truncate_at_time(&coordinator_durable, t);
        cuts.restore_check(&coordinator_cut, t, &format!("fleet cut at t={t:.3}"), run);
    }

    // One torn coordinator frame: the pods are cut at the stamp of the
    // last *complete* coordinator record, the coordinator mid-frame.
    let spans = coordinator_durable.journal.frame_spans();
    if spans.len() >= 2 {
        let k = spans.len() / 2;
        let records = coordinator_durable
            .journal
            .replay()
            .expect("reference coordinator journal is intact");
        let t = records[k - 1].t_s;
        let (offset, len) = spans[k];
        let coordinator_cut = coordinator_durable.truncate_bytes(offset + len / 2);
        let what = format!("fleet torn coordinator frame {k} at t={t:.3}");
        if cuts.restore_check(&coordinator_cut, t, &what, run) == Some(0) {
            run.violations.fail(
                "crash-torn",
                format!("{what}: recovery reported no torn coordinator tail for a mid-frame cut"),
            );
        }
    }
}

type Ckpt = WindowCheckpoint<Bn254G1>;
type ShardRun = WindowedMsmReport<Bn254G1>;

/// Decodes checkpoint `k` (1-based) of a checkpoint journal's records;
/// `k = 0` means no durable boundary (resume from scratch).
fn ckpt_at(records: &[Record], k: usize) -> Result<Option<Ckpt>, String> {
    let Some(i) = k.checked_sub(1) else { return Ok(None) };
    WindowCheckpoint::decode(&records[i].payload)
        .map(Some)
        .map_err(|e| format!("checkpoint {k} undecodable: {e:?}"))
}

/// The checkpointed giant-MSM shard and its twin query.
struct Shard {
    engine: DistMsm,
    cfg: CheckpointConfig,
    instance: MsmInstance<Bn254G1>,
    twin: MsmInstance<Bn254G1>,
    key: TwinKey<Bn254G1>,
}

impl Shard {
    /// Runs the real and twin streams from a boundary each (`None` is
    /// scratch), handing every new checkpoint to `sink(stream, ckpt)`
    /// (stream 0 real, 1 twin), and 2G2T-verifies the finished pair —
    /// resumed checkpoints are untrusted by design.
    fn resume_pair(
        &self,
        real: Option<Ckpt>,
        twin: Option<Ckpt>,
        mut sink: impl FnMut(usize, &Ckpt),
    ) -> Result<(ShardRun, ShardRun), String> {
        let real = self
            .engine
            .execute_windowed(&self.instance, &self.cfg, real, |c| sink(0, c))
            .map_err(|e| format!("real run failed: {e:?}"))?;
        let twin = self
            .engine
            .execute_windowed(&self.twin, &self.cfg, twin, |c| sink(1, c))
            .map_err(|e| format!("twin run failed: {e:?}"))?;
        let pair = OutsourcedResult { r1: real.result, r2: twin.result };
        if !self.key.verify(0, &self.instance, &pair) {
            return Err("the pair failed the 2G2T check".into());
        }
        Ok((real, twin))
    }
}

/// The checkpointed-shard sweep. An `Err` is a `crash-ckpt` violation
/// that ends the sweep (no baseline, no checkpoints, an undecodable
/// stored checkpoint).
fn ckpt_sweep(spec: &CrashSoakSpec, run: &mut Run<CrashReport>) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(spec.ckpt_seed ^ 0xc4ec_0000_0000_0001);
    let instance: MsmInstance<Bn254G1> = MsmInstance::random(spec.ckpt_msm_size, &mut rng);
    let key = TwinKey::generate(spec.ckpt_seed, spec.ckpt_msm_size);
    let twin = key
        .twin_query(0, &instance)
        .ok_or("the shard's points are not the twin key's bases")?;
    let shard = Shard {
        engine: DistMsm::new(MultiGpuSystem::dgx_a100(1)),
        cfg: CheckpointConfig { interval: spec.ckpt_interval },
        twin,
        instance,
        key,
    };

    let mut journals = [DurableState::new(), DurableState::new()];
    let (full_real, _) = shard
        .resume_pair(None, None, |stream, c| {
            journals[stream].append(f64::from(c.next_window), &c.encode());
        })
        .map_err(|e| format!("fault-free checkpointed pair: {e}"))?;
    let want = point_to_uncompressed(&full_real.result.to_affine());
    let replay = |d: &DurableState| d.journal.replay().map_err(|e| format!("{e:?}"));
    let (real_records, twin_records) = (replay(&journals[0])?, replay(&journals[1])?);
    let resume_at = |real_records: &[Record], k: usize| {
        shard.resume_pair(ckpt_at(real_records, k)?, ckpt_at(&twin_records, k)?, |_, _| {})
    };

    // Resume sweep: crash with k durable checkpoints on both streams,
    // resume both from the last boundary, re-verify the finished pair.
    let n_ckpts = real_records.len().min(twin_records.len());
    for k in 0..=n_ckpts {
        let what = format!("shard resume from checkpoint {k}/{n_ckpts}");
        match resume_at(&real_records, k) {
            Err(err) => run.violations.fail("crash-ckpt", format!("{what}: {err}")),
            Ok((real, _)) => {
                if point_to_uncompressed(&real.result.to_affine()) != want {
                    let detail = format!("{what}: resumed result diverged from the full run");
                    run.violations.fail("crash-ckpt", detail);
                }
                if k > 0 && real.windows_computed >= full_real.windows_computed {
                    run.violations.fail(
                        "crash-recovery-cost",
                        format!(
                            "{what}: resume recomputed {} of {} windows — no cheaper than \
                             scratch",
                            real.windows_computed, full_real.windows_computed
                        ),
                    );
                }
                run.report.ckpt_resumes += 1;
            }
        }
    }
    if n_ckpts == 0 {
        return Err(format!(
            "shard sweep emitted no checkpoints (interval {} over {} windows)",
            spec.ckpt_interval, full_real.n_windows
        ));
    }

    // Torn checkpoint tail: a mid-frame cut must fall back to the
    // previous durable boundary, and that resume must still verify.
    let (offset, len) = journals[0].journal.frame_spans()[n_ckpts - 1];
    match journals[0].truncate_bytes(offset + len / 2).recover() {
        Ok(recovered) => {
            if recovered.torn_tail_bytes == 0 {
                let detail = "torn checkpoint tail was not reported by recovery";
                run.violations.fail("crash-torn", detail.into());
            }
            let k = recovered.records.len();
            match resume_at(&recovered.records, k) {
                Ok(_) => run.report.ckpt_resumes += 1,
                Err(err) => run.violations.fail(
                    "crash-ckpt",
                    format!("shard torn tail falling back to checkpoint {k}: {err}"),
                ),
            }
        }
        Err(err) => run.violations.fail(
            "crash-torn",
            format!("torn checkpoint tail was rejected instead of dropped: {err:?}"),
        ),
    }

    // Corrupted-but-decodable checkpoint: the resumed result is wrong,
    // so the 2G2T check must *fail*, and the scratch fallback must
    // then verify.
    let mut bad = ckpt_at(&real_records, n_ckpts)?.expect("n_ckpts ≥ 1 names a stored checkpoint");
    bad.partials[0] = bad.partials[0].padd(&shard.instance.points[0].to_xyzz());
    let what = "shard resume from corrupted checkpoint";
    let twin_resume = ckpt_at(&twin_records, n_ckpts)?;
    match shard.resume_pair(Some(bad), twin_resume.clone(), |_, _| {}) {
        Ok(_) => {
            let detail = format!("{what}: the 2G2T check accepted a corrupted resume");
            run.violations.fail("crash-ckpt-detect", detail);
        }
        Err(_) => match shard.resume_pair(None, twin_resume, |_, _| {}) {
            Ok(_) => run.report.ckpt_resumes += 1,
            Err(err) => {
                let detail = format!("{what}: scratch fallback failed to verify: {err}");
                run.violations.fail("crash-ckpt", detail);
            }
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CrashSoakSpec {
        CrashSoakSpec {
            service: SoakSpec {
                arrival_seed: 11,
                fault_seed: 3,
                n_jobs: 12,
                n_fault_windows: 2,
                n_link_windows: 1,
                horizon_s: 120.0,
                n_devices: 4,
                msm_size: 32,
                always_faulty: None,
            },
            fleet: FleetSoakSpec {
                arrival_seed: 2027,
                fault_seed: 17,
                n_jobs: 24,
                n_tenants: 16,
                n_pods: 3,
                devices_per_pod: 3,
                n_fault_windows: 1,
                horizon_s: 150.0,
                msm_size: 16,
                byzantine_pod: Some(2),
                lost_pod: None,
                partition_seed: 41,
                n_partition_windows: 0,
            },
            snapshot_every: 8,
            n_kill_points: 3,
            n_torn_points: 2,
            n_fleet_cuts: 2,
            ckpt_msm_size: 32,
            ckpt_interval: 4,
            ckpt_seed: 5,
        }
    }

    #[test]
    fn tiny_crash_soak_is_clean_and_deterministic() {
        let spec = tiny();
        let first = spec.run();
        assert!(
            first.violations.is_empty(),
            "tiny crash soak found violations: {:#?}",
            first.violations
        );
        assert!(first.report.service_kill_points > 0);
        assert!(first.report.service_torn_points > 0);
        assert!(first.report.fleet_cuts > 0);
        assert!(first.report.ckpt_resumes > 0);
        let second = spec.run();
        assert_eq!(first.report, second.report, "crash soak must be deterministic");
    }

    /// A snapshot that claims a different history than the records
    /// behind it is a `crash-replay` violation at the kill point. One at
    /// the cut's last record diverges from the full replay; one that
    /// claims records past the cut is refused by recovery, so the cut
    /// does not decode either.
    #[test]
    fn replay_divergence_is_flagged() {
        let spec = tiny();
        let jobs = pod_soak::build_jobs(&spec.service);
        let chaos = pod_soak::build_chaos(&spec.service);
        let mut config = pod_soak::service_config(&spec.service);
        config.snapshot_every = spec.snapshot_every;
        let mut svc: ProverService<Bn254G1> = ProverService::new(config.clone());
        svc.begin(jobs.clone());
        while svc.step(&chaos) {}
        let _ = svc.finish();
        let cut = svc.durable().truncate_records(svc.durable().journal.n_records() / 2);
        assert_eq!(check_replay(&cut, &config.shape()), Ok(()));

        let honest = service_wal::recover_state(&cut, &config.shape()).expect("cut recovers");
        let mut lying = honest.state;
        lying.clock_s += 1.0e3;
        let cut_epoch = cut.journal.n_records() as u64;
        let past_cut = svc.durable().journal.n_records() as u64;
        for (epoch, refused) in [(cut_epoch, false), (past_cut, true)] {
            let mut sabotaged = cut.clone();
            sabotaged.install_snapshot(epoch, lying.clock_s, &lying.to_bytes());
            let mut run = Run::default();
            service_restore_check(&config, &jobs, &chaos, &sabotaged, "lying snapshot", &mut run);
            let count = |id| run.violations.iter().filter(|v| v.invariant == id).count();
            assert_eq!(count("crash-replay"), 1, "epoch {epoch}: {:?}", run.violations);
            let decoded = count("crash-decode") == 0;
            assert_eq!(decoded, !refused, "epoch {epoch}: {:?}", run.violations);
        }
    }

    #[test]
    fn cli_round_trips_through_from_args_with_nested_specs() {
        let perturbed = CrashSoakSpec { snapshot_every: 5, ..tiny() };
        for spec in [CrashSoakSpec::smoke(), CrashSoakSpec::full(), perturbed] {
            let cli = spec.cli();
            assert!(cli.contains("--service-jobs") && cli.contains("--fleet-pods"), "{cli}");
            let args: Vec<String> = cli.split(' ').map(str::to_owned).collect();
            assert_eq!(CrashSoakSpec::from_args(&args), spec, "{cli}");
        }
    }

    #[test]
    fn kill_indices_stay_in_range_and_ascend() {
        assert!(kill_indices(0, 4).is_empty());
        assert!(kill_indices(1, 4).is_empty());
        assert!(kill_indices(5, 0).is_empty());
        let ks = kill_indices(100, 7);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
        assert!(ks.iter().all(|k| (1..100).contains(k)));
        assert_eq!(kill_indices(3, 1), vec![1]);
    }
}

