//! Timing: each completed slice priced once, the per-GPU sums of those
//! prices, the one composition of the simulated wall time (shared with
//! the analytic estimator), and the telemetry timeline laid out from
//! exactly those numbers.

use super::{DistMsm, Launch, MsmReport, PhaseBreakdown, SliceOutcome};
use crate::config::DistMsmConfig;
use crate::reduce::bucket_reduce_gpu_stats;
use crate::supervisor::Supervisor;
use distmsm_ec::Curve;
use distmsm_gpu_sim::{estimate_kernel_time, LaunchStats};

/// The modelled seconds of one MSM before composition: per-GPU kernel
/// time by phase plus the host-side and fabric terms.
pub(crate) struct PhaseTimes<'a> {
    pub scatter_per_gpu: &'a [f64],
    pub sum_per_gpu: &'a [f64],
    pub gpu_reduce_per_gpu: &'a [f64],
    pub cpu_reduce_s: f64,
    /// Host-side combines implied by the collective.
    pub comm_host_s: f64,
    pub window_reduce_s: f64,
    pub transfer_s: f64,
}

/// Where [`compose_timing`] placed the stages that follow the GPUs,
/// in seconds from the MSM's start.
pub(crate) struct Offsets {
    /// Start of the fabric transfer: the GPU makespan, or the pipelined
    /// CPU reduce when it outlasts the GPUs it streams behind.
    pub transfer_at: f64,
    /// The pipelined CPU reduce's critical-path tail, the last window's
    /// share (zero off that path).
    pub tail_s: f64,
    /// The slowest GPU's bucket-reduce.
    pub gpu_reduce_s: f64,
}

/// [`compose_timing`]'s result.
pub(crate) struct ComposedTiming {
    /// Busy seconds per GPU (`scatter + sum + reduce`).
    pub per_gpu_s: Vec<f64>,
    pub phases: PhaseBreakdown,
    /// Fault-free wall time (the engine adds supervisor recovery on top).
    pub total_s: f64,
    pub at: Offsets,
}

/// The one timing composition the functional engine and the analytic
/// estimator share: per-GPU busy time → makespan → bucket-reduce term →
/// total, with §3.2.3's pipelined CPU reduce leaving only the last
/// window's reduce on the critical path.
pub(crate) fn compose_timing(
    config: &DistMsmConfig,
    n_windows: u32,
    t: &PhaseTimes<'_>,
) -> ComposedTiming {
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    let per_gpu_s: Vec<f64> = (0..t.scatter_per_gpu.len())
        .map(|g| t.scatter_per_gpu[g] + t.sum_per_gpu[g] + t.gpu_reduce_per_gpu[g])
        .collect();
    let gpu_makespan = max(&per_gpu_s);
    let gpu_reduce_s = max(t.gpu_reduce_per_gpu);
    let bucket_reduce_s = if config.bucket_reduce_on_cpu {
        t.cpu_reduce_s
    } else {
        gpu_reduce_s + t.comm_host_s
    };
    let pipelined = config.bucket_reduce_on_cpu && config.pipelined;
    let at = if pipelined {
        Offsets {
            transfer_at: gpu_makespan.max(t.cpu_reduce_s),
            tail_s: t.cpu_reduce_s / f64::from(n_windows.max(1)),
            gpu_reduce_s,
        }
    } else {
        Offsets {
            transfer_at: gpu_makespan,
            tail_s: 0.0,
            gpu_reduce_s,
        }
    };
    let after_transfer = if pipelined {
        at.tail_s
    } else {
        bucket_reduce_s
    };
    ComposedTiming {
        per_gpu_s,
        phases: PhaseBreakdown {
            scatter_s: max(t.scatter_per_gpu),
            bucket_sum_s: max(t.sum_per_gpu),
            bucket_reduce_s,
            window_reduce_s: t.window_reduce_s,
            transfer_s: t.transfer_s,
        },
        total_s: at.transfer_at + t.transfer_s + after_transfer + t.window_reduce_s,
        at,
    }
}

/// One completed slice's modelled kernel seconds on the device that ran
/// it, and the straggler factor that scales them.
pub(crate) struct SlicePrice {
    factor: f64,
    scatter_s: f64,
    sum_s: f64,
}

impl SlicePrice {
    /// The slice's scatter kernel, as the primary pass runs it.
    pub(crate) fn scatter(&self) -> f64 {
        self.factor * self.scatter_s
    }

    /// The slice's bucket-sum kernel, as the primary pass runs it.
    pub(crate) fn sum(&self) -> f64 {
        self.factor * self.sum_s
    }

    /// Both kernels of a re-planned slice, charged to the serial recovery
    /// phase as one recompute.
    fn recompute(&self) -> f64 {
        self.factor * (self.scatter_s + self.sum_s)
    }
}

/// Device-side seconds of one execution: one [`SlicePrice`] per completed
/// slice and its per-GPU sums. Primary slices add to the makespan's
/// phases; re-planned slices to the recovery phase.
pub(crate) struct DeviceTimes {
    /// Parallel to the completed slices, primaries first.
    pub prices: Vec<SlicePrice>,
    /// Packed-coefficient repacking pre-pass, charged to every GPU.
    pub prepass: f64,
    pub scatter_per_gpu: Vec<f64>,
    pub sum_per_gpu: Vec<f64>,
    pub gpu_reduce_per_gpu: Vec<f64>,
    pub rec_per_gpu: Vec<f64>,
}

impl DeviceTimes {
    /// The recovery phase's recompute: survivors re-run their re-planned
    /// slices in parallel, so the slowest one bounds it.
    pub(crate) fn recompute_s(&self) -> f64 {
        self.rec_per_gpu.iter().copied().fold(0.0, f64::max)
    }
}

impl DistMsm {
    /// Prices every slice of `ran` once, straggler factor included, and
    /// sums the prices per GPU; the first `primaries` slices ran in the
    /// primary pass. Also returns every metered launch: scatter and sum
    /// per slice in run order, then each slice's GPU bucket-reduce.
    pub(super) fn device_times<C: Curve>(
        &self,
        launch: &Launch<'_, C>,
        ran: &[SliceOutcome<C>],
        primaries: usize,
        sup: &Supervisor<'_>,
    ) -> (DeviceTimes, Vec<LaunchStats>) {
        let n_gpus = self.system.n_gpus();
        let seconds = |gpu: usize, stats: &LaunchStats| {
            estimate_kernel_time(&self.system.devices[gpu], stats, &self.cost_cfg).total()
        };
        let prepass = if self.config.packed_coefficients {
            crate::scatter::scalar_prepass_seconds(
                launch.points.len() as u64,
                u64::from(C::SCALAR_BITS.div_ceil(8)),
                self.system.devices[0].mem_bandwidth_gbps,
                n_gpus,
            )
        } else {
            0.0
        };
        let mut t = DeviceTimes {
            prices: ran
                .iter()
                .map(|oc| SlicePrice {
                    factor: sup.straggle(oc.slice.gpu, oc.event),
                    scatter_s: seconds(oc.slice.gpu, &oc.scatter_stats),
                    sum_s: seconds(oc.slice.gpu, &oc.sum_stats),
                })
                .collect(),
            prepass,
            scatter_per_gpu: vec![prepass; n_gpus],
            sum_per_gpu: vec![0.0; n_gpus],
            gpu_reduce_per_gpu: vec![0.0; n_gpus],
            rec_per_gpu: vec![0.0; n_gpus],
        };
        let mut launches = Vec::new();
        for (i, (oc, p)) in ran.iter().zip(&t.prices).enumerate() {
            let g = oc.slice.gpu;
            if i < primaries {
                t.scatter_per_gpu[g] += p.scatter();
                t.sum_per_gpu[g] += p.sum();
            } else {
                t.rec_per_gpu[g] += p.recompute();
            }
            launches.push(oc.scatter_stats.clone());
            launches.push(oc.sum_stats.clone());
        }
        if !self.config.bucket_reduce_on_cpu {
            // each GPU reduces the slices it summed, one kernel per slice
            for (i, (oc, p)) in ran.iter().zip(&t.prices).enumerate() {
                let stats = bucket_reduce_gpu_stats(
                    u64::from(oc.slice.len()),
                    launch.s,
                    launch.gpu_threads,
                    &launch.model,
                    C::A_IS_ZERO,
                    self.config.block_size,
                );
                let reduce_s = p.factor * seconds(oc.slice.gpu, &stats);
                if i < primaries {
                    t.gpu_reduce_per_gpu[oc.slice.gpu] += reduce_s;
                } else {
                    t.rec_per_gpu[oc.slice.gpu] += reduce_s;
                }
                launches.push(stats);
            }
        }
        (t, launches)
    }

    /// Lays the just-composed report out on the telemetry session's
    /// timeline, then advances the session clock by `total_s` so
    /// sequential MSMs line up end to end.
    ///
    /// Every span reads the numbers the report was composed from: kernel
    /// spans the slice prices, phase containers and reduce segments the
    /// per-GPU sums, the stages after the GPUs [`compose_timing`]'s
    /// offsets. So each phase category's aggregate over the emitted spans
    /// reproduces the corresponding [`PhaseBreakdown`] field (the TEL-001
    /// analyze rule holds the trace to that) and the latest span ends at
    /// `clock + total_s`. Called only while a session is active.
    #[cold]
    #[inline(never)]
    pub(super) fn emit_telemetry<C: Curve>(
        &self,
        report: &MsmReport<C>,
        primaries: &[SliceOutcome<C>],
        dev: &DeviceTimes,
        times: &PhaseTimes<'_>,
        at: Offsets,
        attempt: u32,
    ) {
        use distmsm_gpu_sim::telemetry::{device_span, fault_instant, kernel_span};
        use distmsm_telemetry::{session, Instant, Lane, Span};
        let t0 = session::clock_s();
        let host_span = |name: &str, cat: &str, t0_s: f64, t1_s: f64| {
            session::push_span(Span {
                name: name.into(),
                cat: cat.into(),
                lane: Lane::Host,
                t0_s,
                t1_s,
                args: Vec::new(),
            });
        };

        // ---- device lanes: structural phase containers with kernel
        // children carrying the attributed categories ----
        for g in 0..times.scatter_per_gpu.len() {
            let sc_end = t0 + times.scatter_per_gpu[g];
            for scatter in [true, false] {
                let (phase, start, end, mut cursor) = if scatter {
                    ("scatter", t0, sc_end, t0 + dev.prepass)
                } else {
                    ("bucket-sum", sc_end, sc_end + times.sum_per_gpu[g], sc_end)
                };
                device_span(g, phase, "phase", start, end);
                if scatter && dev.prepass > 0.0 {
                    device_span(g, "coeff-prepass", "scatter", t0, cursor);
                }
                for (oc, p) in primaries
                    .iter()
                    .zip(&dev.prices)
                    .filter(|(oc, _)| oc.slice.gpu == g)
                {
                    let (stats, t) = if scatter {
                        (&oc.scatter_stats, p.scatter())
                    } else {
                        (&oc.sum_stats, p.sum())
                    };
                    let sl = &oc.slice;
                    let name = format!("{phase}:w{}[{},{})", sl.window, sl.bucket_lo, sl.bucket_hi);
                    kernel_span(g, &name, phase, cursor, cursor + t, stats);
                    cursor += t;
                }
            }
        }

        // ---- fabric lane: the comm schedule's collective + steps ----
        let fabric_t0 = t0 + at.transfer_at;
        if let Some(comm) = &report.comm {
            distmsm_comms::schedule::telemetry::emit_schedule(comm, fabric_t0);
        }

        // ---- host lane: bucket-reduce / pipeline tail / window-reduce ----
        let after = fabric_t0 + report.phases.transfer_s;
        let wr_t0 = if !self.config.bucket_reduce_on_cpu {
            // GPU path: per-device reduce segments, then the host-side
            // combine the collective implies
            for (g, &t) in times.gpu_reduce_per_gpu.iter().enumerate() {
                if t > 0.0 {
                    device_span(g, "bucket-reduce(gpu)", "bucket-reduce", after, after + t);
                }
            }
            let combine_t0 = after + at.gpu_reduce_s;
            if times.comm_host_s > 0.0 {
                host_span(
                    "host-combine",
                    "bucket-reduce",
                    combine_t0,
                    combine_t0 + times.comm_host_s,
                );
            }
            combine_t0 + times.comm_host_s
        } else if self.config.pipelined {
            // §3.2.3: the reduce streams behind the GPUs from t0; only
            // the last window's tail follows the transfer
            if times.cpu_reduce_s > 0.0 {
                host_span(
                    "bucket-reduce(cpu,pipelined)",
                    "bucket-reduce",
                    t0,
                    t0 + times.cpu_reduce_s,
                );
            }
            if at.tail_s > 0.0 {
                host_span("pipeline-tail", "pipeline-tail", after, after + at.tail_s);
            }
            after + at.tail_s
        } else {
            if times.cpu_reduce_s > 0.0 {
                host_span(
                    "bucket-reduce(cpu)",
                    "bucket-reduce",
                    after,
                    after + times.cpu_reduce_s,
                );
            }
            after + times.cpu_reduce_s
        };
        if report.phases.window_reduce_s > 0.0 {
            host_span(
                "window-reduce",
                "window-reduce",
                wr_t0,
                wr_t0 + report.phases.window_reduce_s,
            );
        }

        // ---- supervisor + recovery tail ----
        if let Some(rec) = &report.recovery {
            let rec_t0 = t0 + report.total_s - rec.recovery_s();
            for ev in self
                .config
                .fault_plan
                .events
                .iter()
                .filter(|e| e.attempt == attempt)
            {
                fault_instant(ev, rec_t0);
            }
            for f in rec.faults.iter().filter(|f| f.kind == "link-down") {
                session::push_instant(Instant {
                    name: "fault:link-down".into(),
                    cat: "fault".into(),
                    lane: Lane::Device(f.device),
                    t_s: t0,
                    args: vec![("device".into(), f.device.to_string())],
                });
            }
            if !rec.replanned.is_empty() {
                session::push_instant(Instant {
                    name: "re-plan".into(),
                    cat: "supervisor".into(),
                    lane: Lane::Supervisor,
                    t_s: rec_t0,
                    args: vec![
                        ("slices".into(), rec.replanned.len().to_string()),
                        ("lost_gpus".into(), format!("{:?}", rec.lost_gpus)),
                    ],
                });
            }
            if rec.degraded_collective {
                session::push_instant(Instant {
                    name: "route-degraded".into(),
                    cat: "supervisor".into(),
                    lane: Lane::Fabric,
                    t_s: fabric_t0,
                    args: vec![(
                        "detail".into(),
                        "collective degraded to survivors-only gather".into(),
                    )],
                });
            }
            if rec.backoff_s > 0.0 {
                session::push_span(Span {
                    name: "retry-backoff".into(),
                    cat: "recovery".into(),
                    lane: Lane::Supervisor,
                    t0_s: rec_t0,
                    t1_s: rec_t0 + rec.backoff_s,
                    args: vec![("retries".into(), rec.retries.to_string())],
                });
            }
            // recovered slices run inside the recompute segments and get
            // no spans of their own (they would double-count)
            let recompute_t0 = rec_t0 + rec.backoff_s;
            for (g, &t) in dev.rec_per_gpu.iter().enumerate() {
                if t > 0.0 {
                    device_span(g, "recompute", "recovery", recompute_t0, recompute_t0 + t);
                }
            }
            let check_t0 = recompute_t0 + rec.recompute_s;
            if rec.self_check_s > 0.0 {
                host_span(
                    "self-check(rlc)",
                    "recovery",
                    check_t0,
                    check_t0 + rec.self_check_s,
                );
            }
            if rec.checkpoint_s > 0.0 {
                let ckpt_t0 = check_t0 + rec.self_check_s;
                host_span(
                    "checkpoint",
                    "recovery",
                    ckpt_t0,
                    ckpt_t0 + rec.checkpoint_s,
                );
            }
        }

        session::advance_s(report.total_s);
    }
}
