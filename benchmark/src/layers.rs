//! Per-layer measurements of the traced run, taken from outside the
//! library by timing calls into its public functions.
//!
//! Three *walks* replay an op layer by layer on one thread — an MSM
//! through `core`, a proof through `zksnark`, a job trace through
//! `service`/`fleet`/`journal` — and must reproduce the op's result bit
//! for bit; [`micro`] times the `ff`/`ec`/NTT/`kernel`/`gpu-sim` rungs
//! beneath them. Every walk returns the output mismatches it found.

use crate::host::{self, HostClock, Timed};
use crate::metrics::Metrics;
use crate::oracle::same_bits;
use crate::spans::Tracer;
use crate::stats::median;
use distmsm::analytic::{estimate_distmsm_with_s, CurveDesc};
use distmsm::bucket_sum::{bucket_sum, bucket_sum_signed, threads_per_bucket};
use distmsm::comm::bucket_gather_schedule;
use distmsm::engine::window_shape;
use distmsm::plan::{plan_slices, Slice};
use distmsm::prelude::*;
use distmsm::reduce::{bucket_reduce_serial, window_reduce};
use distmsm::scatter::{
    hierarchical_shared_bytes, scatter_hierarchical, scatter_naive, scatter_signed_digits,
};
use distmsm::signed::recode_signed;
use distmsm_comms::{run_collective, CommConfig};
use distmsm_ec::batch::sum_affine_batched;
use distmsm_ec::curves::Bn254G2;
use distmsm_ec::pairing::pairing;
use distmsm_ec::sample::generator_multiples;
use distmsm_ec::FieldElement;
use distmsm_ff::mont::{mont_mul_cios, mont_mul_sos};
use distmsm_ff::params::{Bls12381Fq, Bn254Fq, Bn254Fr, Mnt4753Fq};
use distmsm_ff::{Fp, FpParams};
use distmsm_fleet::soak::{check_fleet_invariants, FleetSoakSpec};
use distmsm_fleet::{recover_fleet_state, FleetChaos, FleetConfig, FleetCoordinator};
use distmsm_gpu_sim::{estimate_kernel_time, CostModelConfig};
use distmsm_journal::DurableState;
use distmsm_kernel::EcKernelModel;
use distmsm_service::{ChaosSchedule, JobSpec, ProverService};
use distmsm_zksnark::groth16::{self, ProvingKey, VerifyingKey};
use distmsm_zksnark::qap::qap_witness;
use distmsm_zksnark::r1cs::ConstraintSystem;
use distmsm_zksnark::{Groth16Prover, NttDomain};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `op_id` of spans that belong to a walk or a micro-benchmark rather
/// than to a real op (real ops count from 0).
pub const WALK: u64 = u64::MAX;

/// Median ns per call of `f` on the reference host: batches of `batch`
/// calls, at least five and for about 40 ms, scaled by the host slowdown
/// probed before and after.
fn ns_per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let budget = Duration::from_millis(40);
    let (ns, timed) = HostClock::start(1).time(|| {
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 5 || start.elapsed() < budget {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        median(&samples)
    });
    ns / timed.slowdown_1
}

/// Median reference-host ms of `reps` calls of `f` (which may fan out to
/// every thread), each inside a span, with the last value returned.
fn ms_of<T>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut clock = HostClock::start(host::available_parallelism());
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (out, timed) = clock.time(|| tr.span(name, WALK, |_| f()));
        samples.push(timed);
        last = Some(out);
    }
    let p = host::parallelism(&samples);
    let ref_ms: Vec<f64> = samples.iter().map(|t| t.ref_ms(p)).collect();
    (median(&ref_ms), last.expect("at least one repetition"))
}

fn rel_err(model: f64, measured: f64) -> f64 {
    if measured == 0.0 {
        model.abs()
    } else {
        (model - measured).abs() / measured
    }
}

// ---------------------------------------------------------------- ff, ec

/// ns per Montgomery multiplication, run as two independent chains: the
/// parallelism a curve formula offers the multiplier (and the probe's).
fn mont_mul_ns<P: FpParams<N>, const N: usize>(sos: bool) -> f64 {
    let mut rng = StdRng::seed_from_u64(1);
    let mut x = *Fp::<P, N>::random(&mut rng).mont_repr();
    let mut y = *Fp::<P, N>::random(&mut rng).mont_repr();
    let k = black_box(*Fp::<P, N>::random(&mut rng).mont_repr());
    let mul = if sos {
        mont_mul_sos::<N>
    } else {
        mont_mul_cios::<N>
    };
    let ns = ns_per_call(5_000, || {
        x = mul(&x, &k, &P::MODULUS, P::INV);
        y = mul(&y, &k, &P::MODULUS, P::INV);
    });
    black_box((x, y));
    ns / 2.0
}

/// `(pacc, padd, pdbl)` ns on curve `C`, each as a dependent chain over
/// 64 distinct points.
fn ec_ns<C: Curve>() -> (f64, f64, f64) {
    let affine = generator_multiples::<C>(64);
    // doubled so that ZZ, ZZZ ≠ 1: PADD must not see affine-like inputs
    let xyzz: Vec<XyzzPoint<C>> = affine.iter().map(|p| p.to_xyzz().pdbl()).collect();
    let mut acc = xyzz[7];
    let mut i = 0usize;
    let pacc = ns_per_call(2_000, || {
        acc.pacc(black_box(&affine[i & 63]));
        i += 1;
    });
    let padd = ns_per_call(2_000, || {
        acc = acc.padd(black_box(&xyzz[i & 63]));
        i += 1;
    });
    let pdbl = ns_per_call(2_000, || acc = black_box(&acc).pdbl());
    black_box(acc);
    (pacc, padd, pdbl)
}

fn ntt_ns_per_butterfly(log_n: u32, inverse: bool) -> f64 {
    let domain = NttDomain::<Bn254Fr, 4>::new(log_n).expect("BN254 Fr has two-adicity 28");
    let mut rng = StdRng::seed_from_u64(u64::from(log_n));
    let mut data: Vec<Fp<Bn254Fr, 4>> = (0..domain.size()).map(|_| Fp::random(&mut rng)).collect();
    let ns = ns_per_call(1, || {
        if inverse {
            domain.inverse(black_box(&mut data));
        } else {
            domain.forward(black_box(&mut data));
        }
    });
    ns / domain.butterflies() as f64
}

/// The rungs below every workload: field, curve and NTT primitives on
/// fixed inputs.
pub fn micro(tr: &mut Tracer, m: &mut Metrics) {
    tr.span("ff.micro", WALK, |_| {
        m.push(
            "ff.mont_mul_cios_ns.l4",
            mont_mul_ns::<Bn254Fq, 4>(false),
            "ns",
        );
        m.push(
            "ff.mont_mul_cios_ns.l6",
            mont_mul_ns::<Bls12381Fq, 6>(false),
            "ns",
        );
        m.push(
            "ff.mont_mul_cios_ns.l12",
            mont_mul_ns::<Mnt4753Fq, 12>(false),
            "ns",
        );
        m.push(
            "ff.mont_mul_sos_ns.l4",
            mont_mul_ns::<Bn254Fq, 4>(true),
            "ns",
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Fp::<Bn254Fq, 4>::random(&mut rng);
        let mut b = Fp::<Bn254Fq, 4>::random(&mut rng);
        let square_ns = ns_per_call(5_000, || {
            a = a.square();
            b = b.square();
        });
        m.push("ff.fp_square_ns.l4", square_ns / 2.0, "ns");
        let inv_ns = ns_per_call(50, || a = black_box(&a).inverse().expect("nonzero") + b);
        m.push("ff.fp_inverse_us.l4", inv_ns / 1e3, "us");
    });
    tr.span("ec.micro", WALK, |_| {
        let (pacc, padd, pdbl) = ec_ns::<Bn254G1>();
        m.push("ec.pacc_ns.bn254", pacc, "ns");
        m.push("ec.padd_ns.bn254", padd, "ns");
        m.push("ec.pdbl_ns.bn254", pdbl, "ns");
        let (pacc, padd, _) = ec_ns::<Bls12381G1>();
        m.push("ec.pacc_ns.bls381", pacc, "ns");
        m.push("ec.padd_ns.bls381", padd, "ns");
        let (pacc, padd, _) = ec_ns::<Bn254G2>();
        m.push("ec.pacc_ns.bn254g2", pacc, "ns");
        m.push("ec.padd_ns.bn254g2", padd, "ns");
        let points = generator_multiples::<Bn254G1>(1024);
        let batched = ns_per_call(1, || {
            black_box(sum_affine_batched(black_box(&points)));
        });
        m.push(
            "ec.batch_affine_ns_per_point.bn254",
            batched / points.len() as f64,
            "ns",
        );
        let (p, q) = (Bn254G1::generator(), Bn254G2::generator());
        let pairing_ns = ns_per_call(1, || {
            black_box(pairing(black_box(&p), black_box(&q)));
        });
        m.push("ec.pairing_ms", pairing_ns / 1e6, "ms");
    });
    tr.span("zksnark.ntt.micro", WALK, |_| {
        m.push(
            "zksnark.ntt.fwd_ns_per_butterfly.2p12",
            ntt_ns_per_butterfly(12, false),
            "ns",
        );
        m.push(
            "zksnark.ntt.fwd_ns_per_butterfly.2p16",
            ntt_ns_per_butterfly(16, false),
            "ns",
        );
        m.push(
            "zksnark.ntt.inv_ns_per_butterfly.2p12",
            ntt_ns_per_butterfly(12, true),
            "ns",
        );
    });
}

// ------------------------------------------------------------------ core

/// One MSM as the engine sees it.
pub struct MsmCase<C: Curve> {
    pub instance: MsmInstance<C>,
    pub system: MultiGpuSystem,
    pub config: DistMsmConfig,
}

/// Concurrent threads per GPU the engine sizes its kernels for (the
/// engine keeps this private; it only shapes metered statistics, never
/// the result).
fn gpu_threads(system: &MultiGpuSystem, model: &EcKernelModel, block_size: u32) -> u64 {
    let d = &system.devices[0];
    let resident = d.resident_threads_per_sm(
        model.regs_per_thread(),
        model.shared_mem_per_block(block_size),
        block_size,
    );
    (u64::from(resident) * u64::from(d.sm_count)).max(1)
}

/// Runs the real `execute` of `case` for about a second, then replays
/// it single-threaded through `core`'s public functions — plan, per-slice
/// scatter, bucket-sum and bucket-reduce, the window fold or collective,
/// window-reduce — and reports where the time went.
pub fn msm_walk<C: Curve>(tr: &mut Tracer, m: &mut Metrics, case: &MsmCase<C>) -> Vec<String> {
    let MsmCase {
        instance,
        system,
        config,
    } = case;
    let engine = DistMsm::with_config(system.clone(), config.clone());
    let n = instance.len();
    let n_gpus = system.n_gpus();
    let desc = CurveDesc::of::<C>();
    let mut failures = Vec::new();

    // ---- the real op, timed from outside ---------------------------------
    let threads = host::available_parallelism();
    let mut runs = host::time_for(threads, 1.0, |_| {
        tr.span("core.engine.execute", WALK, |_| engine.execute(instance))
    });
    let timed: Vec<Timed> = runs.iter().map(|(_, t)| *t).collect();
    let p = host::parallelism(&timed);
    let execute_ms = median(&timed.iter().map(|t| t.ref_ms(p)).collect::<Vec<_>>());
    let execute_cpu_ms = timed.iter().map(|t| t.ref_cpu_ms(p)).sum::<f64>() / timed.len() as f64;
    let report = match runs.pop().expect("at least three executions").0 {
        Ok(r) => r,
        Err(e) => return vec![format!("core.engine.execute failed: {e}")],
    };
    m.push("core.engine.execute_ms", execute_ms, "ms");
    m.push("core.engine.execute_cpu_ms", execute_cpu_ms, "ms");
    m.push(
        "core.engine.parallel_eff",
        execute_cpu_ms / (execute_ms * threads as f64),
        "frac",
    );
    let one = MsmInstance::<C> {
        points: instance.points[..1].to_vec(),
        scalars: instance.scalars[..1].to_vec(),
    };
    let floor_ns = ns_per_call(1, || {
        black_box(engine.execute(black_box(&one)).map(|r| r.result)).ok();
    });
    m.push("core.engine.floor_ms", floor_ns / 1e6, "ms");

    // ---- the layer walk ---------------------------------------------------
    let s = report.window_size;
    let (n_windows, n_buckets) = window_shape(C::SCALAR_BITS, s, config.signed_digits);
    let point_bytes = 4.0 * C::Base::LIMBS32 as f64 * 4.0;
    let coeff_bytes = if config.packed_coefficients {
        4.0
    } else {
        f64::from(C::SCALAR_BITS.div_ceil(8))
    };
    let cost_cfg = CostModelConfig::default();
    let (mut pacc_count, mut buckets_reduced, mut empty_buckets) = (0u64, 0u64, 0u64);
    let mut slices: Vec<Slice> = Vec::new();
    let mut gpu_partials = vec![vec![XyzzPoint::<C>::identity(); n_windows as usize]; n_gpus];

    let (walked, walk_t) = HostClock::start(1).time(|| {
        tr.span("core.walk", WALK, |tr| {
            let model = tr.span("kernel.model_new", WALK, |_| {
                EcKernelModel::new(C::Base::LIMBS32, config.kernel_opts)
            });
            let threads_per_gpu = gpu_threads(system, &model, config.block_size);
            tr.span("core.analytic.window_size", WALK, |_| {
                engine.window_size_for(n, &desc)
            });
            slices = tr.span("core.plan.plan_slices", WALK, |_| {
                plan_slices(n_windows, n_buckets, n_gpus)
            });
            let digits: Option<Vec<Vec<i32>>> = config.signed_digits.then(|| {
                tr.span("core.signed.recode", WALK, |_| {
                    instance
                        .scalars
                        .iter()
                        .map(|k| recode_signed(k, s, C::SCALAR_BITS))
                        .collect()
                })
            });
            let mut window_results = vec![XyzzPoint::<C>::identity(); n_windows as usize];
            for sl in &slices {
                let fits = hierarchical_shared_bytes(sl.len(), &config.scatter_cfg)
                    <= config.scatter_cfg.shared_mem_per_block;
                let kind = config.scatter.unwrap_or(if fits {
                    ScatterKind::Hierarchical
                } else {
                    ScatterKind::Naive
                });
                let scattered = match (&digits, kind) {
                    (Some(d), kind) => tr.span("core.scatter.signed", WALK, |_| {
                        scatter_signed_digits(
                            d,
                            sl,
                            kind,
                            threads_per_gpu,
                            &config.scatter_cfg,
                            coeff_bytes,
                        )
                    }),
                    (None, ScatterKind::Naive) => tr.span("core.scatter.naive", WALK, |_| {
                        Ok(scatter_naive(
                            &instance.scalars,
                            s,
                            sl,
                            threads_per_gpu,
                            coeff_bytes,
                        ))
                    }),
                    (None, ScatterKind::Hierarchical) => tr.span("core.scatter.hier", WALK, |_| {
                        scatter_hierarchical(
                            &instance.scalars,
                            s,
                            sl,
                            &config.scatter_cfg,
                            coeff_bytes,
                        )
                    }),
                }
                .expect("the engine ran this slice, so its scatter fits shared memory");
                let tpb = threads_per_bucket(threads_per_gpu, u64::from(sl.len()));
                let sum = tr.span("core.bucket_sum", WALK, |_| {
                    let f = if digits.is_some() {
                        bucket_sum_signed::<C>
                    } else {
                        bucket_sum::<C>
                    };
                    f(
                        &instance.points,
                        &scattered.buckets,
                        tpb,
                        &model,
                        config.block_size,
                    )
                });
                tr.span("gpu-sim.estimate_kernel", WALK, |_| {
                    let dev = &system.devices[sl.gpu];
                    estimate_kernel_time(dev, &scattered.stats, &cost_cfg).total()
                        + estimate_kernel_time(dev, &sum.stats, &cost_cfg).total()
                });
                pacc_count += scattered
                    .buckets
                    .iter()
                    .map(|b| b.len() as u64)
                    .sum::<u64>();
                buckets_reduced += sum.sums.len() as u64;
                empty_buckets += sum.sums.iter().filter(|p| p.is_identity()).count() as u64;
                let (w, _) = tr.span("core.reduce.bucket", WALK, |_| {
                    bucket_reduce_serial(&sum.sums, sl.bucket_lo)
                });
                let wi = sl.window as usize;
                window_results[wi] = window_results[wi].padd(&w);
                gpu_partials[sl.gpu][wi] = gpu_partials[sl.gpu][wi].padd(&w);
            }
            if config.bucket_reduce_on_cpu {
                tr.span("core.comm.gather_schedule", WALK, |_| {
                    bucket_gather_schedule(&slices, point_bytes, system)
                });
            } else {
                window_results = tr.span("comms.collective.run", WALK, |_| {
                    run_collective(
                        config.collective,
                        &gpu_partials,
                        |a, b| a.padd(b),
                        &system.fabric(),
                        &CommConfig::default(),
                        point_bytes,
                    )
                    .0
                });
            }
            tr.span("core.reduce.window", WALK, |_| {
                window_reduce(&window_results, s).0
            })
        })
    });
    if !same_bits(&walked, &report.result) {
        failures.push("core: the layer walk did not reproduce execute's result bit for bit".into());
    }

    // span totals of the walk, in reference-host ns
    let walk_ns = |name: &str| tr.total_ns(name) / walk_t.slowdown_1;
    let walk_ms = walk_t.ref_ms(1.0);
    m.push("core.engine.walk_ms", walk_ms, "ms");
    m.push(
        "core.engine.unexplained_frac",
        1.0 - walk_ms / execute_cpu_ms,
        "frac",
    );
    m.push("core.engine.slices", slices.len() as f64, "count");
    m.push(
        "core.engine.launches",
        report.launches.len() as f64,
        "count",
    );
    m.push("core.bucket_sum.pacc_count", pacc_count as f64, "count");
    m.push(
        "core.bucket_sum.ns_per_pacc",
        walk_ns("core.bucket_sum") / pacc_count.max(1) as f64,
        "ns",
    );
    m.push(
        "core.reduce.bucket_ns_per_bucket",
        walk_ns("core.reduce.bucket") / buckets_reduced as f64,
        "ns",
    );
    m.push(
        "core.reduce.window_us",
        walk_ns("core.reduce.window") / 1e3,
        "us",
    );
    m.push(
        "core.reduce.empty_bucket_frac",
        empty_buckets as f64 / buckets_reduced as f64,
        "frac",
    );
    let ph = &report.phases;
    for (name, sim_s) in [
        ("core.engine.sim_scatter_s", ph.scatter_s),
        ("core.engine.sim_bucket_sum_s", ph.bucket_sum_s),
        ("core.engine.sim_bucket_reduce_s", ph.bucket_reduce_s),
        ("core.engine.sim_window_reduce_s", ph.window_reduce_s),
        ("core.engine.sim_transfer_s", ph.transfer_s),
    ] {
        m.push(name, sim_s, "sim_s");
    }

    // ---- rungs measured beside the walk ----------------------------------
    let plan_ns = ns_per_call(20, || {
        black_box(plan_slices(black_box(n_windows), n_buckets, n_gpus));
    });
    m.push("core.plan.plan_slices_us", plan_ns / 1e3, "us");
    scatter_rungs(m, case, s);

    let estimate = estimate_distmsm_with_s(n as u64, &desc, system, config, s);
    let estimate_ns = ns_per_call(5, || {
        black_box(estimate_distmsm_with_s(
            black_box(n as u64),
            &desc,
            system,
            config,
            s,
        ));
    });
    m.push("core.analytic.estimate_us", estimate_ns / 1e3, "us");
    m.push(
        "core.analytic.total_rel_err",
        rel_err(estimate.total_s, report.total_s),
        "frac",
    );
    m.push(
        "core.analytic.scatter_rel_err",
        rel_err(estimate.phases.scatter_s, report.phases.scatter_s),
        "frac",
    );
    m.push(
        "core.analytic.bucket_sum_rel_err",
        rel_err(estimate.phases.bucket_sum_s, report.phases.bucket_sum_s),
        "frac",
    );

    let model_ns = ns_per_call(20, || {
        black_box(EcKernelModel::new(
            black_box(C::Base::LIMBS32),
            config.kernel_opts,
        ));
    });
    m.push("kernel.model_new_us", model_ns / 1e3, "us");
    let launch = &report.launches[0];
    let kernel_ns = ns_per_call(200, || {
        black_box(estimate_kernel_time(
            &system.devices[0],
            black_box(launch),
            &cost_cfg,
        ));
    });
    m.push("gpu-sim.estimate_kernel_ns", kernel_ns, "ns");

    // the ring collective over this MSM's per-GPU window partials (part of
    // the op only on the GPU-reduce path; measured for every workload)
    let fabric = system.fabric();
    let mut sched = None;
    let ring_ns = ns_per_call(1, || {
        let (merged, s) = run_collective(
            CollectiveStrategy::RingAllReduce,
            black_box(&gpu_partials),
            |a, b| a.padd(b),
            &fabric,
            &CommConfig::default(),
            point_bytes,
        );
        black_box(merged);
        sched = Some(s);
    });
    let sched = sched.expect("ns_per_call runs at least once");
    m.push("comms.collective.run_ms", ring_ns / 1e6, "ms");
    m.push("comms.collective.steps", sched.steps.len() as f64, "count");
    m.push("comms.collective.bytes", sched.total_bytes(), "count");
    failures
}

/// The three scatter kernels on the same scalars: ns per coefficient
/// scanned, over the first few slices of the plan each kind would get.
fn scatter_rungs<C: Curve>(m: &mut Metrics, case: &MsmCase<C>, s: u32) {
    const SAMPLE: usize = 4;
    let MsmCase {
        instance,
        system,
        config,
    } = case;
    let model = EcKernelModel::new(C::Base::LIMBS32, config.kernel_opts);
    let threads_per_gpu = gpu_threads(system, &model, config.block_size);
    let sample = |signed: bool| -> Vec<Slice> {
        let (w, b) = window_shape(C::SCALAR_BITS, s, signed);
        plan_slices(w, b, system.n_gpus())
            .into_iter()
            .take(SAMPLE)
            .collect()
    };
    let per_coeff = |ns: f64, slices: &[Slice]| ns / (instance.len() * slices.len()) as f64;

    let unsigned = sample(false);
    let hier = ns_per_call(1, || {
        for sl in &unsigned {
            black_box(
                scatter_hierarchical(&instance.scalars, s, sl, &config.scatter_cfg, 4.0)
                    .expect("benchmark window sizes fit shared memory"),
            );
        }
    });
    m.push(
        "core.scatter.hier_ns_per_coeff",
        per_coeff(hier, &unsigned),
        "ns",
    );
    let naive = ns_per_call(1, || {
        for sl in &unsigned {
            black_box(scatter_naive(
                &instance.scalars,
                s,
                sl,
                threads_per_gpu,
                4.0,
            ));
        }
    });
    m.push(
        "core.scatter.naive_ns_per_coeff",
        per_coeff(naive, &unsigned),
        "ns",
    );

    let signed = sample(true);
    let digits: Vec<Vec<i32>> = instance
        .scalars
        .iter()
        .map(|k| recode_signed(k, s, C::SCALAR_BITS))
        .collect();
    let signed_ns = ns_per_call(1, || {
        for sl in &signed {
            black_box(
                scatter_signed_digits(
                    &digits,
                    sl,
                    ScatterKind::Hierarchical,
                    threads_per_gpu,
                    &config.scatter_cfg,
                    4.0,
                )
                .expect("benchmark window sizes fit shared memory"),
            );
        }
    });
    m.push(
        "core.scatter.signed_ns_per_coeff",
        per_coeff(signed_ns, &signed),
        "ns",
    );
}

// --------------------------------------------------------------- zksnark

/// One circuit with its keys, as `groth16::prove` sees it.
pub struct ProofCase {
    pub cs: ConstraintSystem<Bn254Fr, 4>,
    pub pk: ProvingKey,
    pub vk: VerifyingKey,
    pub system: MultiGpuSystem,
}

impl ProofCase {
    /// A `n_constraints` synthetic circuit and its trusted setup, both
    /// drawn from `rng`.
    pub fn build(n_constraints: usize, n_gpus: usize, rng: &mut StdRng) -> Self {
        let cs = distmsm_zksnark::r1cs::synthetic_circuit::<Bn254Fr, 4, _>(n_constraints, rng);
        let (pk, vk) = groth16::setup(&cs, rng);
        Self {
            cs,
            pk,
            vk,
            system: MultiGpuSystem::dgx_a100(n_gpus),
        }
    }

    /// The circuit's public inputs (variable 0 is the constant one).
    pub fn public_inputs(&self) -> Vec<Fp<Bn254Fr, 4>> {
        self.cs.assignment()[1..=self.cs.n_public()].to_vec()
    }

    /// The assignment as MSM scalars.
    pub fn scalars(&self) -> Vec<<Bn254G1 as Curve>::Scalar> {
        self.cs.assignment().iter().map(Fp::to_uint).collect()
    }
}

/// Replays a proof stage by stage: QAP witness, the G1/G2 MSM shapes over
/// stand-in bases (the proving key's queries are private to `zksnark`),
/// the real prove and the pairing verifier. The stand-in MSMs must
/// reproduce `Groth16Prover::prove`'s commitments bit for bit.
pub fn proof_walk(tr: &mut Tracer, m: &mut Metrics, case: &ProofCase, seed: u64) -> Vec<String> {
    const REPS: usize = 3;
    let mut failures = Vec::new();
    let ProofCase { cs, pk, vk, system } = case;
    let (witness_ms, qap) = ms_of(tr, "zksnark.qap.witness", REPS, || qap_witness(cs));
    m.push("zksnark.qap.witness_ms", witness_ms, "ms");

    let mut rng = StdRng::seed_from_u64(seed);
    let (prove_ms, proof) = ms_of(tr, "zksnark.groth16.prove", REPS, || {
        groth16::prove(pk, cs, system, &mut rng)
    });
    m.push("zksnark.groth16.prove_ms", prove_ms, "ms");
    let publics = case.public_inputs();
    match proof {
        Ok(proof) => {
            let (verify_ms, ok) = ms_of(tr, "zksnark.groth16.verify", REPS, || {
                groth16::verify(vk, &publics, &proof)
            });
            m.push("zksnark.groth16.verify_ms", verify_ms, "ms");
            if !ok {
                failures.push("zksnark: the walk's proof failed the pairing check".into());
            }
        }
        Err(e) => return vec![format!("zksnark: groth16::prove failed: {e}")],
    }

    let engine = DistMsm::new(system.clone());
    let z = case.scalars();
    let (n_vars, d) = (cs.n_variables(), qap.domain.size());
    let g1 = generator_multiples::<Bn254G1>(n_vars.max(d));
    let g1_z = MsmInstance::<Bn254G1> {
        points: g1[..n_vars].to_vec(),
        scalars: z.clone(),
    };
    let g2_z = MsmInstance::<Bn254G2> {
        points: generator_multiples(n_vars),
        scalars: z,
    };
    let g1_h = MsmInstance::<Bn254G1> {
        points: g1[..d].to_vec(),
        scalars: qap.h.iter().map(Fp::to_uint).collect(),
    };
    let (g1_ms, a) = ms_of(tr, "zksnark.groth16.msm_g1", REPS, || {
        engine.execute(&g1_z).map(|r| r.result)
    });
    let (g2_ms, b) = ms_of(tr, "zksnark.groth16.msm_g2", REPS, || {
        engine.execute(&g2_z).map(|r| r.result)
    });
    let (_, h) = ms_of(tr, "zksnark.groth16.msm_g1", 1, || {
        engine.execute(&g1_h).map(|r| r.result)
    });
    m.push("zksnark.groth16.msm_g1_ms", g1_ms, "ms");
    m.push("zksnark.groth16.msm_g2_ms", g2_ms, "ms");
    match (a, b, h, Groth16Prover::new(system.clone()).prove(cs)) {
        (Ok(a), Ok(b), Ok(h), Ok(modelled)) => {
            let p = &modelled.proof;
            if !(same_bits(&a, &p.a) && same_bits(&b, &p.b) && same_bits(&a.padd(&h), &p.c)) {
                failures.push(
                    "zksnark: the walk's MSMs did not reproduce Groth16Prover's proof".into(),
                );
            }
        }
        _ => failures.push("zksnark: an MSM of the proof walk failed".into()),
    }
    failures
}

// ------------------------------------------------- service, fleet, journal

/// One job trace with the fleet that serves it.
pub struct FleetCase {
    pub spec: FleetSoakSpec,
    pub jobs: Vec<JobSpec<Bn254G1>>,
    pub chaos: FleetChaos,
    pub config: FleetConfig,
}

impl FleetCase {
    /// Everything `FleetCoordinator::run` needs, derived from `spec`.
    pub fn build(spec: FleetSoakSpec) -> Self {
        use distmsm_fleet::soak::{build_fleet_chaos, build_fleet_jobs, fleet_config};
        Self {
            jobs: build_fleet_jobs(&spec),
            chaos: build_fleet_chaos(&spec),
            config: fleet_config(&spec),
            spec,
        }
    }
}

/// Serves the job trace on one pod without chaos, then on the fleet, and
/// checks and recovers the fleet run. With `expect_json`, the fleet run
/// must reproduce that report byte for byte.
pub fn fleet_walk(
    tr: &mut Tracer,
    m: &mut Metrics,
    case: &FleetCase,
    expect_json: Option<&str>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let FleetCase {
        spec,
        jobs,
        chaos,
        config,
    } = case;
    let n_jobs = jobs.len() as f64;

    let mut clock = HostClock::start(host::available_parallelism());
    let mut pod = ProverService::<Bn254G1>::new(config.pod.clone());
    let (served, t) = clock.time(|| {
        tr.span("service.run", WALK, |_| {
            pod.run(jobs.clone(), &ChaosSchedule::none())
        })
    });
    let service_ms_per_job = t.own_ref_ms() / n_jobs;
    m.push("service.run_ms_per_job", service_ms_per_job, "ms");
    m.push("service.admitted", served.report.admitted() as f64, "count");
    m.push(
        "service.completed",
        served.report.completed() as f64,
        "count",
    );
    m.push("service.shed", served.report.shed() as f64, "count");
    let n_points = jobs[0].instance.len();
    let estimate_ns = ns_per_call(5, || {
        black_box(pod.estimate_job_seconds(black_box(n_points)));
    });
    m.push("service.estimate_job_us", estimate_ns / 1e3, "us");

    let mut coordinator = FleetCoordinator::<Bn254G1>::new(config.clone());
    let (outcome, t) =
        clock.time(|| tr.span("fleet.run", WALK, |_| coordinator.run(jobs.clone(), chaos)));
    let fleet_ms_per_job = t.own_ref_ms() / n_jobs;
    m.push("fleet.run_ms_per_job", fleet_ms_per_job, "ms");
    m.push(
        "fleet.twin_ratio",
        fleet_ms_per_job / service_ms_per_job,
        "ratio",
    );
    if expect_json.is_some_and(|json| json != outcome.report.to_detailed_json()) {
        failures.push("fleet: the walk's run did not reproduce the op's report".into());
    }
    let (violations, t) = clock.time(|| {
        tr.span("fleet.check_invariants", WALK, |_| {
            check_fleet_invariants(spec, jobs, &outcome, config)
        })
    });
    m.push("fleet.check_ms_per_job", t.own_ref_ms() / n_jobs, "ms");
    failures.extend(
        violations
            .iter()
            .map(|v| format!("fleet invariant {}: {}", v.invariant, v.detail)),
    );
    let r = &outcome.report;
    m.push("fleet.sim_horizon_s", r.horizon_s, "sim_s");
    m.push("fleet.placed", r.placed as f64, "count");
    m.push("fleet.accepted", r.accepted as f64, "count");
    m.push("fleet.failed", r.failed as f64, "count");
    m.push("fleet.steals", r.steals as f64, "count");
    m.push("fleet.detections", r.detections as f64, "count");
    m.push("fleet.replaced", r.replaced as f64, "count");

    let durable = coordinator.durable();
    let records = durable.journal.n_records();
    let bytes = durable.journal.bytes().len();
    m.push("journal.records", records as f64, "count");
    m.push("journal.bytes", bytes as f64, "count");
    let (recovered, t) = clock.time(|| {
        tr.span("journal.recover", WALK, |_| {
            recover_fleet_state(durable, config.n_pods)
        })
    });
    m.push(
        "journal.recover_us_per_record",
        t.own_ref_ms() * 1e3 / records.max(1) as f64,
        "us",
    );
    match recovered {
        Ok(rec) if &rec.state == coordinator.wal_state() => {}
        Ok(_) => {
            failures.push("journal: recovery did not reproduce the coordinator's state".into())
        }
        Err(e) => failures.push(format!("journal: recovery failed: {e}")),
    }
    // appends of this run's mean record size to a fresh journal
    let payload = vec![0xa5u8; bytes / records.max(1)];
    let mut fresh = DurableState::new();
    let mut t_s = 0.0;
    let append_ns = ns_per_call(1_000, || {
        t_s += 1e-3;
        black_box(fresh.append(t_s, black_box(&payload)));
    });
    m.push("journal.append_ns_per_record", append_ns, "ns");
    failures
}
