//! Sharding one giant MSM across pods, with the window-partial reduce
//! tree spanning the NIC tier.
//!
//! The point range `[0, N)` is split into per-pod quota tiles by
//! [`distmsm::shard_points`] (the same plan shape the PR 6 verifier
//! proves via [`distmsm::fleet_shard_ir`]). Each pod runs the full
//! multi-GPU engine on its shard and ships the `W` window partials of
//! that execution's report; the cross-pod reduce is then an
//! element-wise point-add collective over [`Topology::fleet`] — the
//! PR 2 schedule builders route it through the per-pod NICs and the IB
//! core switch — followed by a constant `W`-term Horner fold on the
//! coordinator host.
//!
//! Every shard result is 2G2T-checked ([`crate::outsource`]) before it
//! is allowed into the reduce: a byzantine pod is detected,
//! quarantined, and its shard re-placed on the first healthy pod.

use distmsm::reduce::window_reduce;
use distmsm::{shard_points_with_ir, CollectiveStrategy, CurveDesc, DistMsm, DistMsmConfig};
use distmsm_comms::{run_collective, CommConfig, CommSchedule, Topology};
use distmsm_ec::{Curve, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::MultiGpuSystem;

use crate::outsource::{Corruption, OutsourcedResult, TwinKey};

/// Configuration for a sharded fleet MSM.
#[derive(Clone, Debug)]
pub struct ShardedMsmConfig {
    /// Number of pods the point range is sharded across.
    pub n_pods: usize,
    /// GPUs inside each pod (each shard runs on a DGX-A100-shaped pod).
    pub gpus_per_pod: usize,
    /// Pippenger window size used by every pod (shards must agree so
    /// their window-partial vectors align for the cross-pod reduce).
    pub window_size: u32,
    /// Collective strategy for the cross-pod reduce tree.
    pub strategy: CollectiveStrategy,
    /// Seed of the 2G2T twin key over the instance's points.
    pub challenge_seed: u64,
    /// Optional seeded byzantine pod: `(pod, corruption class)`. The
    /// pod's returned pair is corrupted; the check must detect it.
    pub byzantine_pod: Option<(usize, Corruption)>,
}

impl Default for ShardedMsmConfig {
    fn default() -> Self {
        Self {
            n_pods: 4,
            gpus_per_pod: 8,
            window_size: 8,
            strategy: CollectiveStrategy::TreeAllReduce,
            challenge_seed: 0x2620_2620,
            byzantine_pod: None,
        }
    }
}

/// What happened to one shard.
#[derive(Clone, Debug)]
pub struct ShardExecution {
    /// Pod the shard was initially placed on.
    pub pod: usize,
    /// Point range `[lo, hi)` of the shard.
    pub range: (usize, usize),
    /// Whether the 2G2T check rejected the pod's returned pair.
    pub detected: Option<Corruption>,
    /// Pod the shard was re-placed on after a detection.
    pub replaced_to: Option<usize>,
}

/// Outcome of a sharded fleet MSM.
#[derive(Clone, Debug)]
pub struct ShardedMsmReport<C: Curve> {
    /// The fleet-level result (bit-exact vs a single-GPU reference).
    pub result: XyzzPoint<C>,
    /// Per-shard execution records, indexed by shard.
    pub shards: Vec<ShardExecution>,
    /// Pods quarantined by a 2G2T detection.
    pub quarantined: Vec<usize>,
    /// The cross-pod reduce schedule (inspectable, statically checkable).
    pub schedule: CommSchedule,
    /// Modeled wall-clock of the slowest pod's compute (real + twin).
    pub compute_s: f64,
    /// Modeled wall-clock of the NIC-tier reduce tree.
    pub reduce_s: f64,
}

/// Executes one `N`-point MSM sharded across `cfg.n_pods` pods.
///
/// Per shard `[lo, hi)`: the pod runs the full engine on its
/// sub-instance (S1, whose report carries the shard's window-partial
/// vector) and on its twin query, the twin bases `T[lo..hi]` with the
/// same scalars (S2). The coordinator 2G2T-checks `(S1, S2)` against one
/// twin key over the instance's points; on rejection the pod is
/// quarantined and the shard re-executed on the first healthy pod.
/// Surviving window-partial vectors are reduced element-wise over the
/// fleet NIC topology and Horner-folded on the host.
///
/// Panics if the instance is empty, if its points are not the generator
/// multiples the twin key is over, or if every pod is quarantined.
pub fn execute_sharded<C: Curve>(
    instance: &MsmInstance<C>,
    cfg: &ShardedMsmConfig,
) -> ShardedMsmReport<C> {
    let n = instance.points.len();
    assert!(n > 0, "cannot shard an empty MSM");
    assert!(cfg.n_pods > 0, "need at least one pod");
    let (ranges, _ir, _env) = shard_points_with_ir(n, cfg.n_pods);
    let key = TwinKey::<C>::generate(cfg.challenge_seed, n);
    let Some(twin) = key.twin_query(0, instance) else {
        panic!("the twin key is over generator multiples: the instance's points are not");
    };
    let s = cfg.window_size;
    // Pods are identical, so one engine (one topology, one set of route
    // and plan memos) stands for whichever pod runs a shard.
    let engine = DistMsm::with_config(
        MultiGpuSystem::dgx_a100(cfg.gpus_per_pod),
        DistMsmConfig::builder()
            .window_size(s)
            .build()
            .expect("static pod engine config is valid"),
    );
    // (shard, twin query): the instance's and the twin's points [lo, hi)
    let slice = |of: &MsmInstance<C>, lo: usize, hi: usize| MsmInstance {
        points: of.points[lo..hi].to_vec(),
        scalars: of.scalars[lo..hi].to_vec(),
    };
    let subs: Vec<(MsmInstance<C>, MsmInstance<C>)> =
        ranges.iter().map(|&(lo, hi)| (slice(instance, lo, hi), slice(&twin, lo, hi))).collect();

    // Phase 1: every pod executes its shard + its twin query.
    let mut shards = Vec::with_capacity(cfg.n_pods);
    let mut vectors: Vec<Vec<XyzzPoint<C>>> = Vec::with_capacity(cfg.n_pods);
    let mut pairs: Vec<OutsourcedResult<C>> = Vec::with_capacity(cfg.n_pods);
    let mut compute_s = 0.0f64;
    for (pod, &(lo, hi)) in ranges.iter().enumerate() {
        let (pair, vector, pod_s) = run_pod_shard(&subs[pod], &engine);
        // Byzantine model: the seeded pod lies about its pair (and its
        // reduce-tree vector, so a missed detection would surface as a
        // bit-exactness violation downstream).
        let (pair, vector) = match cfg.byzantine_pod {
            Some((b, class)) if b == pod => {
                let swap = pairs.first().copied().unwrap_or(OutsourcedResult {
                    r1: C::generator().to_xyzz(),
                    r2: C::generator().to_xyzz(),
                });
                let mut v = vector;
                v[0] = v[0].padd(&C::generator().to_xyzz());
                (pair.corrupted(class, &swap), v)
            }
            _ => (pair, vector),
        };
        compute_s = compute_s.max(pod_s);
        shards.push(ShardExecution { pod, range: (lo, hi), detected: None, replaced_to: None });
        vectors.push(vector);
        pairs.push(pair);
    }

    // Phase 2: 2G2T check each returned pair; quarantine + re-place.
    let mut quarantined = Vec::new();
    for pod in 0..cfg.n_pods {
        let lo = shards[pod].range.0;
        if key.verify(lo, &subs[pod].0, &pairs[pod]) {
            continue;
        }
        // Invariant: 2G2T has no false positives — an honest shard's
        // twin satisfies S2 = k·S1 + ⟨x, ρ⟩·G exactly, so a rejection
        // implies the config seeded a byzantine pod.
        let class = cfg
            .byzantine_pod
            .map(|(_, c)| c)
            .expect("2G2T rejected an honest pod");
        shards[pod].detected = Some(class);
        quarantined.push(pod);
        let healthy = (0..cfg.n_pods)
            .find(|p| !quarantined.contains(p))
            .expect("every pod quarantined: no healthy pod left to re-place on");
        // Re-execute the stranded shard on the healthy pod, re-verify.
        let (pair, vector, pod_s) = run_pod_shard(&subs[pod], &engine);
        assert!(key.verify(lo, &subs[pod].0, &pair), "re-placed shard failed its own 2G2T check");
        compute_s = compute_s.max(pod_s);
        shards[pod].replaced_to = Some(healthy);
        vectors[pod] = vector;
        pairs[pod] = pair;
    }

    // Phase 3: element-wise point-add reduce over the NIC tier.
    let topo = Topology::fleet(cfg.n_pods);
    let (reduced, schedule) = run_collective(
        cfg.strategy,
        &vectors,
        |a: &XyzzPoint<C>, b| a.padd(b),
        &topo,
        &CommConfig::default(),
        CurveDesc::of::<C>().xyzz_bytes(),
    );
    let result = window_reduce(&reduced, s).0;

    let reduce_s = schedule.total_s;
    ShardedMsmReport { result, shards, quarantined, schedule, compute_s, reduce_s }
}

/// One pod's honest work on a shard and its twin query: the engine's
/// result on the shard (S1) with the window partials it was folded from,
/// its result on the twin query (S2), and the modeled pod wall-clock of
/// both.
fn run_pod_shard<C: Curve>(
    (sub, twin): &(MsmInstance<C>, MsmInstance<C>),
    engine: &DistMsm,
) -> (OutsourcedResult<C>, Vec<XyzzPoint<C>>, f64) {
    let report = engine.execute(sub).expect("fault-free pod shard execution");
    let twin_report = engine.execute(twin).expect("fault-free twin execution");
    // the cross-pod collective reduces the vectors element by element
    assert_eq!(report.window_partials.len(), report.n_windows as usize);
    (
        OutsourcedResult { r1: report.result, r2: twin_report.result },
        report.window_partials,
        report.total_s + twin_report.total_s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::Bn254G1;
    use rand::{rngs::StdRng, SeedableRng};

    fn instance(n: usize) -> MsmInstance<Bn254G1> {
        MsmInstance::random(n, &mut StdRng::seed_from_u64(42))
    }

    fn cfg(n_pods: usize) -> ShardedMsmConfig {
        ShardedMsmConfig { n_pods, gpus_per_pod: 2, ..ShardedMsmConfig::default() }
    }

    #[test]
    fn sharded_msm_is_bit_exact_across_pod_counts() {
        let inst = instance(41);
        let expect = inst.reference_result().to_affine();
        for n_pods in [1, 2, 3] {
            let report = execute_sharded(&inst, &cfg(n_pods));
            assert_eq!(report.result.to_affine(), expect, "{n_pods} pods");
            assert!(report.quarantined.is_empty());
            assert!(report.shards.iter().all(|s| s.detected.is_none()));
            assert!(report.reduce_s > 0.0 && report.compute_s > 0.0);
        }
    }

    #[test]
    fn byzantine_shard_is_detected_quarantined_and_replaced_bit_exactly() {
        let inst = instance(40);
        let expect = inst.reference_result().to_affine();
        for class in Corruption::ALL {
            let report = execute_sharded(
                &inst,
                &ShardedMsmConfig { byzantine_pod: Some((1, class)), ..cfg(2) },
            );
            assert_eq!(report.quarantined, vec![1], "{}", class.label());
            assert_eq!(report.shards[1].detected, Some(class));
            assert_eq!(report.shards[1].replaced_to, Some(0));
            assert_eq!(report.result.to_affine(), expect, "re-placed shard must be bit-exact");
        }
    }
}
