//! Fleet-invariant checker: grounds the cross-pod shard plans against
//! their symbolic IRs, replays the 2G2T verified-outsourcing check, and
//! re-runs a seeded byzantine sharded MSM end to end.
//!
//! Rule families (`FLT`), mirroring `SVC`/`FAULT` in structure:
//!
//! * **FLT-001 — shard-plan grounding.** The concrete
//!   [`distmsm::shard_points`] / [`distmsm::replace_assignments`]
//!   planners must agree tile-for-tile with the symbolic
//!   `fleet-shard` / `fleet-replace` [`PlanIr`]s that the static
//!   verifier proves disjoint and covering. A divergence means the
//!   proof is about a different plan than the one the fleet executes.
//! * **FLT-002 — 2G2T soundness replay.** Over seeded instances (no
//!   engine, reference MSM only): every honest result pair must be
//!   accepted, and every corruption class — bit flip, swapped shard,
//!   zeroed partial — must be detected by the blinded-twin check.
//! * **FLT-003 — byzantine shard replay.** A small sharded MSM with a
//!   seeded byzantine pod runs end to end: the corruption must be
//!   detected, the pod quarantined, its shard re-placed, and the final
//!   result bit-exact against the serial reference.
//! * **FLT-900 — fleet mutant.** The verifier verifies itself at fleet
//!   scope: a seeded overlapping-shard mutant (quota tiles widened to
//!   spill into their successor) must be rejected by the write-set
//!   proofs; a mutant that passes is an error.

use std::collections::BTreeMap;

use crate::report::{Finding, Report, Severity};
use crate::verify::verify_plan;
use distmsm_ec::curves::Bn254G1;
use distmsm_ec::MsmInstance;
use distmsm_fleet::{execute_sharded, Challenge, Corruption, OutsourcedResult, ShardedMsmConfig};
use distmsm_kernel::ir::{IndexExpr, PlanIr, Poly, Region, RegionFamily, Sym, SymBound};
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------------
// FLT-001: shard-plan grounding
// ---------------------------------------------------------------------------

/// Compares one concrete quota tiling against family 0 of its symbolic
/// IR under the given environment. Returns a divergence message, or
/// `None` when they agree tile-for-tile.
fn ground_tiles(
    tiles: &[(usize, usize)],
    pir: &PlanIr,
    env: &BTreeMap<Sym, i128>,
) -> Option<String> {
    let declared = pir.member_count(0, env);
    if declared != tiles.len() as i128 {
        return Some(format!(
            "IR declares {declared} members, planner produced {} tiles",
            tiles.len()
        ));
    }
    for (i, &(lo, hi)) in tiles.iter().enumerate() {
        let (ir_lo, ir_hi) = pir.member_interval(0, i as i128, env)?;
        if ir_lo != lo as i128 || ir_hi != hi as i128 {
            return Some(format!(
                "member {i}: IR tile [{ir_lo}, {ir_hi}) but planner tile [{lo}, {hi})"
            ));
        }
    }
    None
}

/// Grounds `shard_points` against `fleet-shard` and
/// `replace_assignments` against `fleet-replace` across a sweep of
/// problem and fleet shapes (FLT-001).
pub fn check_fleet_grounding() -> Report {
    let mut report = Report::new();
    let mut checked = 0usize;
    for n in [1usize, 5, 97, 1 << 12, (1 << 16) + 3] {
        for pods in [1usize, 2, 3, 4, 8] {
            let (tiles, pir, env) = distmsm::shard_points_with_ir(n, pods);
            match ground_tiles(&tiles, &pir, &env) {
                Some(msg) => report.push(Finding::new(
                    "FLT-001",
                    Severity::Error,
                    format!("fleet-shard/n{n}/p{pods}"),
                    format!("symbolic IR diverges from the shard planner: {msg}"),
                )),
                None => checked += 1,
            }
        }
    }
    for stranded in [1usize, 2, 7, 31, 240] {
        for healthy in [1usize, 2, 3, 7] {
            let tiles = distmsm::replace_assignments(stranded, healthy);
            let mut env = BTreeMap::new();
            env.insert("S", stranded as i128);
            env.insert("H", healthy as i128);
            match ground_tiles(&tiles, &distmsm::fleet_replace_ir(), &env) {
                Some(msg) => report.push(Finding::new(
                    "FLT-001",
                    Severity::Error,
                    format!("fleet-replace/s{stranded}/h{healthy}"),
                    format!("symbolic IR diverges from the re-placement planner: {msg}"),
                )),
                None => checked += 1,
            }
        }
    }
    report.push(Finding::new(
        "FLT-001",
        Severity::Info,
        "fleet-shard".to_owned(),
        format!(
            "shard and re-placement planners grounded against their symbolic \
             IRs for {checked} shapes"
        ),
    ));
    report
}

// ---------------------------------------------------------------------------
// FLT-002: 2G2T soundness replay
// ---------------------------------------------------------------------------

/// Replays the 2G2T blinded-twin check over seeded instances: honest
/// pairs accepted, every corruption class detected (FLT-002). Engine
/// free — results come from the serial reference MSM.
pub fn check_outsourcing_soundness() -> Report {
    let mut report = Report::new();
    let mut checked = 0usize;
    for seed in [11u64, 202, 4096] {
        for n in [1usize, 7, 24] {
            let loc = format!("2g2t/seed{seed}/n{n}");
            let mut rng = StdRng::seed_from_u64(seed);
            let instance = MsmInstance::<Bn254G1>::random(n, &mut rng);
            let challenge = Challenge::<Bn254G1>::generate(seed ^ 0xf1ee7, n);
            let honest = OutsourcedResult {
                r1: instance.reference_result(),
                r2: challenge.twin_instance(&instance).reference_result(),
            };
            if !challenge.verify(&instance.points, &honest.r1, &honest.r2) {
                report.push(Finding::new(
                    "FLT-002",
                    Severity::Error,
                    loc.clone(),
                    "honest result pair rejected — the check is unsound for \
                     honest pods"
                        .to_owned(),
                ));
                continue;
            }
            // Swap source: a pair that is valid for a *different* job.
            let other =
                MsmInstance::<Bn254G1>::random(n, &mut StdRng::seed_from_u64(seed ^ 0xdead));
            let other_challenge = Challenge::<Bn254G1>::generate(seed ^ 0xbeef, n);
            let swap = OutsourcedResult {
                r1: other.reference_result(),
                r2: other_challenge.twin_instance(&other).reference_result(),
            };
            for class in Corruption::ALL {
                let bad = honest.corrupted(class, &swap);
                if challenge.verify(&instance.points, &bad.r1, &bad.r2) {
                    report.push(Finding::new(
                        "FLT-002",
                        Severity::Error,
                        loc.clone(),
                        format!(
                            "{} corruption passed the blinded-twin check — a \
                             byzantine pod would go undetected",
                            class.label()
                        ),
                    ));
                } else {
                    checked += 1;
                }
            }
        }
    }
    report.push(Finding::new(
        "FLT-002",
        Severity::Info,
        "2g2t".to_owned(),
        format!("{checked} seeded corruption(s) detected, honest pairs accepted"),
    ));
    report
}

// ---------------------------------------------------------------------------
// FLT-003: byzantine sharded-MSM replay
// ---------------------------------------------------------------------------

/// Runs a small sharded MSM with a seeded byzantine pod end to end and
/// checks detection, quarantine, re-placement and bit-exactness against
/// the serial reference (FLT-003).
pub fn check_byzantine_shard_replay() -> Report {
    let mut report = Report::new();
    let instance = MsmInstance::<Bn254G1>::random(40, &mut StdRng::seed_from_u64(2620));
    let expect = instance.reference_result().to_affine();
    let cfg = ShardedMsmConfig {
        n_pods: 2,
        gpus_per_pod: 2,
        byzantine_pod: Some((1, Corruption::BitFlip)),
        ..ShardedMsmConfig::default()
    };
    let outcome = execute_sharded(&instance, &cfg);
    let loc = "sharded-msm/byzantine-pod-1".to_owned();
    if outcome.quarantined != vec![1] {
        report.push(Finding::new(
            "FLT-003",
            Severity::Error,
            loc.clone(),
            format!(
                "byzantine pod not quarantined (quarantined: {:?})",
                outcome.quarantined
            ),
        ));
    }
    if outcome.shards[1].detected != Some(Corruption::BitFlip) {
        report.push(Finding::new(
            "FLT-003",
            Severity::Error,
            loc.clone(),
            format!(
                "seeded bit-flip not detected (detected: {:?})",
                outcome.shards[1].detected
            ),
        ));
    }
    if outcome.result.to_affine() != expect {
        report.push(Finding::new(
            "FLT-003",
            Severity::Error,
            loc.clone(),
            "re-placed result diverges from the serial reference".to_owned(),
        ));
    }
    if report.findings.is_empty() {
        report.push(Finding::new(
            "FLT-003",
            Severity::Info,
            loc,
            format!(
                "byzantine pod detected ({}), quarantined, shard re-placed to \
                 pod {:?}, result bit-exact",
                Corruption::BitFlip.label(),
                outcome.shards[1].replaced_to
            ),
        ));
    }
    report
}

// ---------------------------------------------------------------------------
// FLT-900: fleet mutant
// ---------------------------------------------------------------------------

/// The seeded fleet write-set defect: `fleet-shard` with every quota
/// tile's upper bound widened from `⌊N·(p+1)/P⌋` to `⌊N·(p+2)/P⌋`, so
/// each shard spills into its successor.
pub fn fleet_mutant_plan() -> PlanIr {
    let n = Poly::var("N");
    let parts = Poly::var("P");
    let p = Poly::var("p");
    PlanIr {
        name: "mutant-overlapping-shards".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(n.clone())),
        cover: false,
        families: vec![RegionFamily {
            writer: "pod",
            param: "p",
            count: IndexExpr::Poly(parts.clone()),
            region: Region::Interval {
                lo: IndexExpr::floor_div(&n.mul(&p), &parts),
                hi: IndexExpr::floor_div(&n.mul(&p.add(&Poly::con(2))), &parts),
            },
        }],
        bounds: vec![SymBound::at_least("N", 1), SymBound::at_least("P", 1)],
        assumptions: Vec::new(),
    }
}

/// Runs the write-set verifier against the fleet mutant: the
/// overlapping shards must be rejected (FLT-900 info naming the
/// rejecting rule); a surviving mutant is an FLT-900 error.
pub fn check_fleet_mutant() -> Report {
    let mut report = Report::new();
    report.mutant_rejected(
        "FLT-900",
        "mutant:overlapping-shards",
        &verify_plan(&fleet_mutant_plan()),
        "seeded overlapping-shard mutant passed verification — the fleet \
         shard proofs have lost their teeth",
    );
    report
}

/// Runs every fleet rule family: shard-plan grounding, 2G2T soundness,
/// the byzantine sharded-MSM replay and the fleet mutant.
pub fn check_fleet() -> Report {
    let mut report = Report::new();
    report.extend(check_fleet_grounding());
    report.extend(check_outsourcing_soundness());
    report.extend(check_byzantine_shard_replay());
    report.extend(check_fleet_mutant());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_grounding_is_clean() {
        let r = check_fleet_grounding();
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
    }

    #[test]
    fn outsourcing_soundness_replay_is_clean() {
        let r = check_outsourcing_soundness();
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
    }

    #[test]
    fn byzantine_shard_replay_is_clean() {
        let r = check_byzantine_shard_replay();
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
        assert!(r.findings.iter().any(|f| f.rule == "FLT-003"));
    }

    #[test]
    fn overlapping_shard_mutant_is_rejected() {
        let r = check_fleet_mutant();
        assert_eq!(r.count(Severity::Error), 0, "{}", r.render_text());
        let f = &r.findings[0];
        assert_eq!(f.rule, "FLT-900");
        assert!(f.message.contains("rejected by"), "{}", f.message);
    }

    #[test]
    fn tampered_tiles_break_grounding() {
        let (mut tiles, pir, env) = distmsm::shard_points_with_ir(97, 4);
        tiles[2].1 += 1;
        assert!(ground_tiles(&tiles, &pir, &env).is_some());
    }
}
