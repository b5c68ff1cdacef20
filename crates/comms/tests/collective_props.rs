//! Property tests: every collective strategy is bit-identical to the
//! serial PADD reduction on random MSM partials, on every curve and on
//! a PCIe-only box, an NVSwitch box and a multi-box pod, plus golden
//! tests pinning the preset topologies' routed bandwidths.

use distmsm_comms::{plan_collective, run_collective, CollectiveStrategy, CommConfig, Topology};
use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Mnt4753G1};
use distmsm_ec::{Curve, XyzzPoint};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Random per-rank partial vectors of group elements, as produced by
/// per-GPU window reduction (identity sprinkled in: empty windows).
fn random_partials<C: Curve>(n_ranks: usize, vec_len: usize, seed: u64) -> Vec<Vec<XyzzPoint<C>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_ranks)
        .map(|_| {
            (0..vec_len)
                .map(|_| {
                    if rng.random_range(0..8u32) == 0 {
                        XyzzPoint::identity()
                    } else {
                        C::generator().scalar_mul(&C::random_scalar(&mut rng))
                    }
                })
                .collect()
        })
        .collect()
}

fn serial_padd<C: Curve>(partials: &[Vec<XyzzPoint<C>>]) -> Vec<XyzzPoint<C>> {
    let mut out = partials[0].clone();
    for p in &partials[1..] {
        for (acc, x) in out.iter_mut().zip(p) {
            *acc = acc.padd(x);
        }
    }
    out
}

fn check_all_strategies<C: Curve>(n_ranks: usize, vec_len: usize, seed: u64) {
    let partials = random_partials::<C>(n_ranks, vec_len, seed);
    let want = serial_padd(&partials);
    let fabrics = [
        Topology::pcie_box(n_ranks),
        Topology::single_box(n_ranks),
        Topology::dgx_pod(12),
    ];
    for fabric in &fabrics {
        for strat in CollectiveStrategy::ALL {
            let (got, sched) = run_collective(
                strat,
                &partials,
                |a, b| a.padd(b),
                fabric,
                &CommConfig::default(),
                128.0,
            );
            assert_eq!(got, want, "{} n={n_ranks} v={vec_len}", strat.name());
            assert_eq!(sched.n_ranks, n_ranks);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn bn254_collectives_match_serial(n in 1usize..9, v in 1usize..12, seed in 0u64..1000) {
        check_all_strategies::<Bn254G1>(n, v, seed);
    }

    #[test]
    fn bls12_377_collectives_match_serial(n in 1usize..7, v in 1usize..10, seed in 0u64..1000) {
        check_all_strategies::<Bls12377G1>(n, v, seed);
    }

    #[test]
    fn bls12_381_collectives_match_serial(n in 1usize..7, v in 1usize..10, seed in 0u64..1000) {
        check_all_strategies::<Bls12381G1>(n, v, seed);
    }

    #[test]
    fn mnt4753_collectives_match_serial(n in 1usize..5, v in 1usize..6, seed in 0u64..1000) {
        check_all_strategies::<Mnt4753G1>(n, v, seed);
    }
}

// ---- golden routed-bandwidth pins --------------------------------------

#[test]
fn golden_dgx_box_routes() {
    let t = Topology::dgx_a100_box();
    assert_eq!(t.n_gpus(), 8);
    for a in 0..8 {
        for b in 0..8 {
            let r = t.gpu_route(a, b);
            if a == b {
                assert_eq!(r.hops(), 0);
            } else {
                assert_eq!(r.hops(), 2, "gpu{a}->nvswitch->gpu{b}");
                assert_eq!(r.min_gbps, 600.0);
                assert_eq!(r.alpha_s, 4e-6);
            }
        }
        let h = t.gpu_to_host_route(a);
        assert_eq!(h.hops(), 2);
        assert_eq!(h.min_gbps, 64.0);
        assert_eq!(h.alpha_s, 1e-5);
    }
}

#[test]
fn golden_pcie_box_routes() {
    let t = Topology::pcie_box(4);
    let peer = t.gpu_route(0, 3);
    assert_eq!(peer.hops(), 2);
    assert_eq!(peer.min_gbps, 32.0);
    let host = t.gpu_to_host_route(2);
    assert_eq!(host.hops(), 2);
    assert_eq!(host.min_gbps, 32.0);
}

#[test]
fn golden_pod_routes() {
    let t = Topology::dgx_pod(32);
    assert_eq!(t.n_gpus(), 32);
    // intra-box unchanged from the single box
    let intra = t.gpu_route(0, 7);
    assert_eq!(intra.min_gbps, 600.0);
    assert_eq!(intra.hops(), 2);
    // cross-box: gpu -> nvswitch -> nic -> ib -> nic -> nvswitch -> gpu
    let cross = t.gpu_route(0, 31);
    assert_eq!(cross.hops(), 6);
    assert_eq!(cross.min_gbps, 200.0);
    // remote host gather crosses the fabric and lands on box 0's root port
    let remote_host = t.gpu_to_host_route(24);
    assert_eq!(remote_host.min_gbps, 64.0);
    assert!(remote_host.hops() > t.gpu_to_host_route(0).hops());
}

#[test]
fn analytic_plan_shows_cross_node_knee() {
    // Same 16-rank all-reduce: splitting the ranks across two boxes must
    // cost strictly more than one (hypothetical) single box of 16.
    let single = Topology::single_box(16);
    let pod = Topology::dgx_pod(16);
    for strat in CollectiveStrategy::ALL {
        let a = plan_collective(strat, 16, 64, 128.0, &single, &CommConfig::default());
        let b = plan_collective(strat, 16, 64, 128.0, &pod, &CommConfig::default());
        assert!(
            b.total_s > a.total_s,
            "{}: pod {} <= box {}",
            strat.name(),
            b.total_s,
            a.total_s
        );
    }
}
