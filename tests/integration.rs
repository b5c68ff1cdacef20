//! Cross-crate integration tests: the whole pipeline, end to end.

use distmsm::baseline::BestGpuBaseline;
use distmsm::engine::{DistMsm, DistMsmConfig};
use distmsm::scatter::ScatterKind;
use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
use distmsm_ec::sample::generator_multiples;
use distmsm_ec::validate::order_minus_one;
use distmsm_ec::{Curve, FixedBaseTable, MsmInstance, Scalar, XyzzPoint};
use distmsm_ff::params::Bn254Fr;
use distmsm_ff::Fp;
use distmsm_gpu_sim::MultiGpuSystem;
use distmsm_zksnark::groth16;
use distmsm_zksnark::prover::Groth16Prover;
use distmsm_zksnark::r1cs::synthetic_circuit;
use rand::{rngs::StdRng, SeedableRng};

/// An independent serial Pippenger implementation (windowing + buckets +
/// suffix-sum reduce), used to cross-validate the engine beyond the
/// double-and-add reference.
fn serial_pippenger<C: Curve>(instance: &MsmInstance<C>, s: u32) -> XyzzPoint<C> {
    let n_windows = C::SCALAR_BITS.div_ceil(s);
    let n_buckets = 1usize << s;
    let mut acc = XyzzPoint::<C>::identity();
    for w in (0..n_windows).rev() {
        for _ in 0..s {
            acc = acc.pdbl();
        }
        let mut buckets = vec![XyzzPoint::<C>::identity(); n_buckets];
        for (p, k) in instance.points.iter().zip(&instance.scalars) {
            let m = k.window(w * s, s) as usize;
            if m != 0 {
                buckets[m].pacc(p);
            }
        }
        let mut running = XyzzPoint::<C>::identity();
        let mut sum = XyzzPoint::<C>::identity();
        for b in buckets.iter().skip(1).rev() {
            running = running.padd(b);
            sum = sum.padd(&running);
        }
        acc = acc.padd(&sum);
    }
    acc
}

#[test]
fn three_way_agreement_bn254() {
    let mut rng = StdRng::seed_from_u64(1000);
    let inst = MsmInstance::<Bn254G1>::random(500, &mut rng);
    let reference = inst.reference_result();
    let pip = serial_pippenger(&inst, 7);
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(4));
    let dist = engine.execute(&inst).unwrap().result;
    assert_eq!(reference, pip, "serial Pippenger diverges");
    assert_eq!(reference, dist, "DistMSM diverges");
}

#[test]
fn engine_and_baseline_agree_across_curves() {
    fn check<C: Curve>(n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = MsmInstance::<C>::random(n, &mut rng);
        let sys = MultiGpuSystem::dgx_a100(4);
        let dist = DistMsm::new(sys.clone()).execute(&inst).unwrap().result;
        let base = BestGpuBaseline::new(sys)
            .with_window_size(6)
            .execute(&inst)
            .unwrap()
            .result;
        assert_eq!(dist, base, "{}", C::NAME);
        assert_eq!(dist, inst.reference_result(), "{}", C::NAME);
    }
    check::<Bn254G1>(128, 1);
    check::<Bls12377G1>(96, 2);
    check::<Bls12381G1>(96, 3);
    check::<Mnt4753G1>(32, 4);
    check::<Bn254G2>(48, 5);
}

#[test]
fn window_size_invariance() {
    // the MSM value must not depend on the window size or scatter kind
    let mut rng = StdRng::seed_from_u64(1001);
    let inst = MsmInstance::<Bn254G1>::random(200, &mut rng);
    let expect = inst.reference_result();
    for s in [2u32, 5, 9, 13] {
        for scatter in [Some(ScatterKind::Naive), None] {
            let builder = DistMsmConfig::builder().window_size(s);
            let builder = match scatter {
                Some(kind) => builder.scatter(kind),
                None => builder.auto_scatter(),
            };
            let cfg = builder.build().expect("valid config");
            let engine = DistMsm::with_config(MultiGpuSystem::dgx_a100(3), cfg);
            assert_eq!(engine.execute(&inst).unwrap().result, expect, "s={s}");
        }
    }
}

#[test]
fn gpu_count_invariance() {
    let mut rng = StdRng::seed_from_u64(1002);
    let inst = MsmInstance::<Bls12381G1>::random(160, &mut rng);
    let expect = inst.reference_result();
    for gpus in [1usize, 2, 5, 8, 16, 33] {
        let engine = DistMsm::new(MultiGpuSystem::dgx_a100(gpus));
        assert_eq!(engine.execute(&inst).unwrap().result, expect, "gpus={gpus}");
    }
}

#[test]
fn scalar_edge_cases() {
    // zero scalars, one, the maximum window pattern, duplicates
    let mut rng = StdRng::seed_from_u64(1003);
    let mut inst = MsmInstance::<Bn254G1>::random(8, &mut rng);
    inst.scalars[0] = Scalar::zero();
    inst.scalars[1] = Scalar::from_u64(1);
    inst.scalars[2] = Scalar::from_u64(u64::MAX);
    inst.scalars[3] = inst.scalars[4]; // duplicate scalars
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(2));
    assert_eq!(engine.execute(&inst).unwrap().result, inst.reference_result());
}

#[test]
fn all_zero_scalars_give_identity() {
    let mut rng = StdRng::seed_from_u64(1004);
    let mut inst = MsmInstance::<Bn254G1>::random(32, &mut rng);
    for k in &mut inst.scalars {
        *k = Scalar::zero();
    }
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(2));
    assert!(engine.execute(&inst).unwrap().result.is_identity());
}

#[test]
fn end_to_end_proof_pipeline() {
    let mut rng = StdRng::seed_from_u64(1005);
    let circuit = synthetic_circuit::<Bn254Fr, 4, _>(200, &mut rng);
    assert!(circuit.is_satisfied());
    let prover = Groth16Prover::new(MultiGpuSystem::dgx_a100(4));
    let outcome = prover.prove(&circuit).expect("prove");
    assert!(prover.verify(&outcome));
    assert!(outcome.timing.msm_s > 0.0);
    assert!(outcome.timing.ntt_s > 0.0);
}

/// Setup, prove on the simulated engine, verify with the BN254 pairing;
/// the same proof against a shifted public input is rejected.
#[test]
fn groth16_setup_prove_verify_round_trip() {
    let mut rng = StdRng::seed_from_u64(1007);
    let circuit = synthetic_circuit::<Bn254Fr, 4, _>(32, &mut rng);
    let (pk, vk) = groth16::setup(&circuit, &mut rng);
    let proof = groth16::prove(&pk, &circuit, &MultiGpuSystem::dgx_a100(2), &mut rng).expect("prove");
    let mut public = circuit.assignment()[1..=circuit.n_public()].to_vec();
    assert!(groth16::verify(&vk, &public, &proof), "honest proof rejected");
    public[0] += Fp::ONE;
    assert!(!groth16::verify(&vk, &public, &proof), "tampered input accepted");
}

#[test]
fn single_point_msm() {
    let mut rng = StdRng::seed_from_u64(1006);
    let inst = MsmInstance::<Bn254G1>::random(1, &mut rng);
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(8));
    assert_eq!(
        engine.execute(&inst).unwrap().result,
        inst.points[0].scalar_mul(&inst.scalars[0])
    );
}

/// Both point generators on the host's own worker count: block-batched
/// generator multiples equal a PACC chain past two block boundaries, and
/// chunked fixed-base products (0, 1, r − 1 and identities at chunk
/// boundaries and inside chunks among them) equal their
/// per-product PACC chains past two chunk boundaries, on G1 and G2.
#[test]
fn point_generators_match_their_pacc_chains() {
    fn check<C: Curve>(n_multiples: usize, n_products: usize, seed: u64) {
        let g = C::generator();
        let mut acc = XyzzPoint::<C>::identity();
        let chain: Vec<_> = (0..n_multiples)
            .map(|_| {
                acc.pacc(&g);
                acc.to_affine()
            })
            .collect();
        assert!(generator_multiples::<C>(n_multiples) == chain);

        let table = FixedBaseTable::new(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ks: Vec<_> = (0..n_products)
            .map(|_| C::random_scalar(&mut rng))
            .collect();
        // zeros are identity products: every fifth, and either side of
        // the first chunk's end (a chunk is 256 products)
        for k in ks.iter_mut().step_by(5) {
            *k = C::Scalar::zero();
        }
        ks[254..=256].fill(C::Scalar::zero());
        ks[..3].copy_from_slice(&[
            C::Scalar::zero(),
            C::Scalar::from_u64(1),
            order_minus_one::<C>(),
        ]);
        let products = table.mul_many(&ks);
        assert_eq!(products.len(), n_products);
        for (k, p) in ks.iter().zip(&products) {
            assert_eq!(*p, table.mul(k).to_affine());
        }
        assert_eq!(products[2], g.neg());
    }
    check::<Bn254G1>(2 * 1024 + 1, 2 * 256 + 3, 1008);
    check::<Bn254G2>(1024 + 1, 256 + 3, 1009);
}

#[test]
fn field_primitives_match_their_oracles() {
    use distmsm_ec::validate::scalar_is_canonical;
    use distmsm_ff::params::{Bls12381Fq, Bn254Fq, Mnt4753Fq, Mnt4753Fr};
    use distmsm_ff::{Fp2, FpParams, Uint};

    fn check<P: FpParams<N>, const N: usize>(seed: u64) {
        let p = P::MODULUS;
        let p_minus = |k: u64| p.borrowing_sub(&Uint::from_u64(k)).0;
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = [Uint::ZERO, Uint::ONE, p_minus(1), P::R].map(Fp::<P, N>::from_mont);
        let random = (0..8).map(|_| Fp::<P, N>::random(&mut rng));
        for x in edges.into_iter().chain(random) {
            assert_eq!(x.square(), x * x, "{}", P::NAME);
            // the Fermat ladder a^(p−2) is the inverse's oracle
            let fermat = (!x.is_zero()).then(|| x.pow(&p_minus(2).0));
            assert_eq!(x.inverse(), fermat, "{}", P::NAME);
        }
        // full-width integers reduce like repeated subtraction
        let mut v = Uint([u64::MAX; N]);
        let want = Fp::<P, N>::from_uint(&v);
        while !v.lt(&p) {
            v = v.borrowing_sub(&p).0;
        }
        assert_eq!(want.to_uint(), v, "{}", P::NAME);
    }
    check::<Bn254Fq, 4>(1);
    check::<Bn254Fr, 4>(2);
    check::<Bls12381Fq, 6>(3);
    check::<Mnt4753Fq, 12>(4);

    // the lazy Fp² product against Karatsuba over Fp
    type F2 = Fp2<Bn254Fq, 4>;
    let mut rng = StdRng::seed_from_u64(5);
    let minus_one = -Fp::ONE;
    let edges = [F2::ZERO, F2::ONE, F2::new(minus_one, minus_one), F2::new(minus_one, Fp::ONE)];
    let xs: Vec<F2> = edges.into_iter().chain((0..8).map(|_| F2::random(&mut rng))).collect();
    for &a in &xs {
        for &b in &xs {
            let (v0, v1) = (a.c0 * b.c0, a.c1 * b.c1);
            let mixed = (a.c0 + a.c1) * (b.c0 + b.c1);
            assert_eq!(a * b, F2::new(v0 - v1, mixed - v0 - v1));
        }
    }

    // a full-width job scalar is rejected by one comparison
    let r = Mnt4753Fr::MODULUS;
    let r_minus_1 = r.borrowing_sub(&Uint::ONE).0;
    assert!(scalar_is_canonical::<Mnt4753G1>(&r_minus_1));
    assert!(!scalar_is_canonical::<Mnt4753G1>(&r));
    assert!(!scalar_is_canonical::<Mnt4753G1>(&Uint([u64::MAX; 12])));
}
