//! Fleet-plan checker, **FLT-001 — shard-plan grounding.** The concrete
//! [`distmsm::shard_points`] / [`distmsm::replace_assignments`] planners
//! must agree tile-for-tile with the symbolic `fleet-shard` /
//! `fleet-replace` [`PlanIr`]s that the static verifier proves disjoint
//! and covering. A divergence means the proof is about a different plan
//! than the one the fleet executes.
//!
//! The fleet's other properties each have one checker elsewhere: the
//! 2G2T check's soundness over every corruption class and all five
//! groups is `fleet/tests/outsource_props.rs`; a byzantine sharded MSM
//! (detection, quarantine, bit-exact re-placement) is
//! `fleet::shard::tests`; the overlapping-shard mutant is a `VRF-900`
//! row of [`crate::verify::mutant_plans`].

use std::collections::BTreeMap;

use crate::report::{Finding, Report, Severity};
use distmsm_kernel::ir::{PlanIr, Sym};

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
pub fn check_fleet() -> Report {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_grounding_is_clean() {
        let r = check_fleet();
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
    }

    #[test]
    fn tampered_tiles_break_grounding() {
        let (mut tiles, pir, env) = distmsm::shard_points_with_ir(97, 4);
        tiles[2].1 += 1;
        assert!(ground_tiles(&tiles, &pir, &env).is_some());
    }
}
