//! Static plan verification (rules `VRF-00x`): proofs about schedules
//! **without executing anything**.
//!
//! Three checkers, each consuming a static artefact the workspace's
//! schedule builders already emit:
//!
//! * **VRF-001 / VRF-002 — symbolic write sets.** Every bucket
//!   partition, scatter commit, cuZK pass and window merge publishes a
//!   [`PlanIr`] (see [`distmsm_kernel::ir`]) describing the index
//!   regions it writes as polynomials over the plan symbols. The
//!   [`verify_plan`] pass discharges, via the [`crate::symbolic`]
//!   prover, that per-writer regions are pairwise disjoint (VRF-001)
//!   and — where the builder declares exact tiling — jointly cover the
//!   index space (VRF-002), for **all** `N`, window sizes and GPU
//!   counts at once, not sampled ones. Interval families prove width
//!   (`lo ≤ hi`), adjacent disjointness (`hi(p) ≤ lo(p+1)`, which with
//!   width implies pairwise disjointness by induction along the
//!   parameter), and for covering plans exact adjacency plus both space
//!   endpoints; residue families are partitions by construction and are
//!   checked structurally. When an obligation cannot be certified the
//!   plan is **rejected** (soundness over completeness), and a bounded
//!   numeric sweep searches for a concrete counterexample to name the
//!   offending members and symbol values in the diagnostic.
//! * **VRF-003 — every planned schedule.** The one schedule checker,
//!   [`check_schedule`] (rules `COMM-001/002/003`: contribution masks
//!   folded step by step, wait-for edges and rendezvous cycles, ports,
//!   host coverage), runs over every [`CommSchedule`] that
//!   [`plan_collective`] emits for all strategies × topology presets —
//!   no engine, no capture — so the guarantee covers every schedule the
//!   planner can emit, not only those `check` executes. `VRF-003` itself
//!   is the info line counting the schedules proven.
//! * **VRF-900 — mutant corpus.** The verifier verifies itself: a
//!   built-in corpus of seeded defects (overlapping tiles, off-by-one
//!   coverage gap, unbounded slot bands, overlapping fleet shards,
//!   swapped collective steps, a same-step rendezvous cycle, a
//!   duplicated port flow, seeded hash-iteration source, a seeded panic
//!   site) must each be **rejected** with a precise
//!   diagnostic. A mutant that passes turns into a VRF-900 error — a
//!   verifier that stops rejecting has lost its teeth.
//!
//! [`check_grounding`] closes the loop between symbols and code: the
//! partition IR is instantiated for all four supported curves × window
//! sizes × GPU counts and compared slice-by-slice against the concrete
//! planner output, so the symbolic model provably describes the
//! schedules the engine actually runs.

use crate::comm::check_schedule;
use crate::report::{Finding, Report, Severity};
use crate::symbolic::Ctx;
use distmsm_comms::{
    plan_collective, CollectiveStrategy, CommConfig, CommSchedule, CommStep, Endpoint, Fabric,
    Flow, Topology,
};
use distmsm_kernel::ir::{self, IndexExpr, PlanIr, Poly, Region, RegionFamily, Sym, SymBound};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// plan registry
// ---------------------------------------------------------------------------

/// Every symbolic plan shipped by the workspace's schedule builders.
pub fn plan_registry() -> Vec<PlanIr> {
    vec![
        distmsm::partition_ir(),
        distmsm::window_merge_ir(),
        distmsm::replan_ir(),
        distmsm::scatter::commit_write_ir(),
        distmsm::scatter::scatter_block_ir(),
        distmsm::cuzk::histogram_ir(),
        distmsm::cuzk::transpose_cell_ir(),
        distmsm::bucket_sum::lane_residue_ir(),
        ir::compaction_plan_ir(),
        distmsm::fleet_shard_ir(),
        distmsm::fleet_replace_ir(),
    ]
}

// ---------------------------------------------------------------------------
// VRF-001 / VRF-002: symbolic write-set proofs
// ---------------------------------------------------------------------------

/// Proves disjointness (VRF-001) and declared coverage (VRF-002) of one
/// plan's write-region families for all admissible symbol values.
/// Unproven obligations reject the plan with a counterexample when the
/// numeric sweep finds one.
pub fn verify_plan(plan: &PlanIr) -> Report {
    let mut report = Report::new();
    for fi in 0..plan.families.len() {
        verify_family(plan, fi, &mut report);
    }
    if plan.cover && plan.families.len() != 1 {
        report.push(Finding::new(
            "VRF-002",
            Severity::Error,
            plan.name.clone(),
            format!(
                "coverage is declared over {} families; cross-family coverage \
                 has no proof rule — split the plan or drop the claim",
                plan.families.len()
            ),
        ));
    }
    report
}

fn verify_family(plan: &PlanIr, fi: usize, report: &mut Report) {
    let fam = &plan.families[fi];
    let loc = format!("{}/{}", plan.name, fam.writer);
    match &fam.region {
        Region::Residue { modulus, residue } => {
            verify_residue_family(plan, fam, modulus, residue, &loc, report)
        }
        Region::Interval { lo, hi } => {
            verify_interval_family(plan, fi, lo, hi, &loc, report)
        }
    }
}

fn verify_residue_family(
    plan: &PlanIr,
    fam: &RegionFamily,
    modulus: &Poly,
    residue: &Poly,
    loc: &str,
    report: &mut Report,
) {
    let ctx = Ctx::from_plan(plan);
    let mut bad = Vec::new();
    if !ctx.prove_nonneg(&modulus.sub(&Poly::con(1))) {
        bad.push(format!("could not prove modulus {modulus} ≥ 1"));
    }
    // Residue classes r (mod m) for r in 0..m are pairwise disjoint and
    // cover ℤ by construction; the family is a partition exactly when
    // it enumerates each class once.
    if fam.count.normalize() != IndexExpr::Poly(modulus.clone()) {
        bad.push(format!(
            "family enumerates {} members over modulus {modulus}: not one \
             per residue class",
            fam.count
        ));
    }
    if *residue != Poly::var(fam.param) {
        bad.push(format!(
            "member {p} claims class {residue} (mod {modulus}): classes may \
             collide; expected the identity map {p} ↦ {p}",
            p = fam.param
        ));
    }
    if bad.is_empty() {
        report.push(Finding::new(
            "VRF-001",
            Severity::Info,
            loc.to_owned(),
            format!(
                "proven: the {} residue classes (mod {modulus}) are pairwise \
                 disjoint for every modulus value",
                fam.count
            ),
        ));
        if plan.cover {
            report.push(Finding::new(
                "VRF-002",
                Severity::Info,
                loc.to_owned(),
                format!(
                    "proven: classes 0..{modulus} partition the index space \
                     exactly (one class per member)"
                ),
            ));
        }
    } else {
        for b in bad {
            report.push(Finding::new("VRF-001", Severity::Error, loc.to_owned(), b));
        }
    }
}

fn verify_interval_family(
    plan: &PlanIr,
    fi: usize,
    lo: &IndexExpr,
    hi: &IndexExpr,
    loc: &str,
    report: &mut Report,
) {
    let fam = &plan.families[fi];
    let param = fam.param;
    let mut base = Ctx::from_plan(plan);
    let Some(cnt) = base.skolemize(&fam.count) else {
        report.push(Finding::new(
            "VRF-001",
            Severity::Error,
            loc.to_owned(),
            format!("member count {} is not skolemizable", fam.count),
        ));
        return;
    };

    // Context for one member: 0 ≤ param ≤ count−1.
    let mut one = base.clone();
    one.bound(SymBound::at_least(param, 0));
    one.fact(cnt.sub(&Poly::con(1)).sub(&Poly::var(param)));
    // Context for an adjacent pair: 0 ≤ param ≤ count−2.
    let mut pair = base.clone();
    pair.bound(SymBound::at_least(param, 0));
    pair.fact(cnt.sub(&Poly::con(2)).sub(&Poly::var(param)));
    let lo_next = lo.subst(param, &Poly::var(param).add(&Poly::con(1)));

    let mut failures: Vec<(&'static str, String)> = Vec::new();
    if !one.prove_le(lo, hi) {
        failures.push((
            "VRF-001",
            format!("could not prove member width: lo = {lo} ≤ hi = {hi}"),
        ));
    }
    if !pair.prove_le(hi, &lo_next) {
        failures.push((
            "VRF-001",
            format!(
                "adjacent members may overlap: could not prove hi({param}) = \
                 {hi} ≤ lo({param}+1) = {lo_next}"
            ),
        ));
    }
    if plan.cover {
        if !pair.prove_eq(hi, &lo_next) {
            failures.push((
                "VRF-002",
                format!(
                    "adjacent members may leave a gap: could not prove \
                     hi({param}) = {hi} equals lo({param}+1) = {lo_next}"
                ),
            ));
        }
        let first_lo = lo.subst(param, &Poly::con(0));
        if !base.prove_eq(&first_lo, &plan.space.0) {
            failures.push((
                "VRF-002",
                format!(
                    "first member starts at {first_lo}, not at the space start \
                     {}",
                    plan.space.0
                ),
            ));
        }
        let last_hi = hi.subst(param, &cnt.sub(&Poly::con(1)));
        if !base.prove_eq(&last_hi, &plan.space.1) {
            failures.push((
                "VRF-002",
                format!(
                    "last member ends at {last_hi}, not at the space end {}",
                    plan.space.1
                ),
            ));
        }
    } else {
        if !one.prove_le(&plan.space.0, lo) {
            failures.push((
                "VRF-001",
                format!(
                    "member may underflow the index space: could not prove \
                     {} ≤ lo = {lo}",
                    plan.space.0
                ),
            ));
        }
        if !one.prove_le(hi, &plan.space.1) {
            failures.push((
                "VRF-001",
                format!(
                    "member may overflow the index space: could not prove \
                     hi = {hi} ≤ {}",
                    plan.space.1
                ),
            ));
        }
    }

    let counterexample = concrete_violation(plan, fi);
    if failures.is_empty() {
        // Belt and braces: proofs passed, so the numeric sweep must too.
        if let Some(cx) = counterexample {
            report.push(Finding::new(
                "VRF-900",
                Severity::Error,
                loc.to_owned(),
                format!("symbolic proofs passed but the numeric sweep found: {cx}"),
            ));
            return;
        }
        report.push(Finding::new(
            "VRF-001",
            Severity::Info,
            loc.to_owned(),
            format!(
                "proven for all symbol values: member regions [{lo}, {hi}) are \
                 pairwise disjoint"
            ),
        ));
        if plan.cover {
            report.push(Finding::new(
                "VRF-002",
                Severity::Info,
                loc.to_owned(),
                format!(
                    "proven for all symbol values: members exactly tile \
                     [{}, {})",
                    plan.space.0, plan.space.1
                ),
            ));
        }
    } else {
        for (rule, msg) in failures {
            let full = match &counterexample {
                Some(cx) => format!("{msg}; counterexample: {cx}"),
                None => format!(
                    "{msg}; no counterexample in the numeric sweep, but the \
                     obligation is unproven — rejected conservatively"
                ),
            };
            report.push(Finding::new(rule, Severity::Error, loc.to_owned(), full));
        }
    }
}

// ---------------------------------------------------------------------------
// numeric counterexample sweep
// ---------------------------------------------------------------------------

/// Cartesian grid of small symbol environments: `{min, min+1, min+3,
/// min+7}` per bound (clipped to any upper bound), filtered to those
/// satisfying the plan's assumptions.
fn env_grid(plan: &PlanIr) -> Vec<BTreeMap<Sym, i128>> {
    let mut envs: Vec<BTreeMap<Sym, i128>> = vec![BTreeMap::new()];
    for b in &plan.bounds {
        let mut vals: Vec<i128> = [b.min, b.min + 1, b.min + 3, b.min + 7]
            .into_iter()
            .filter(|v| b.max.is_none_or(|m| *v <= m))
            .collect();
        vals.dedup();
        let mut next = Vec::with_capacity(envs.len() * vals.len());
        for e in &envs {
            for &v in &vals {
                let mut e2 = e.clone();
                e2.insert(b.sym, v);
                next.push(e2);
            }
        }
        envs = next;
        if envs.len() > 4096 {
            envs.truncate(4096);
        }
    }
    envs.retain(|e| plan.assumptions.iter().all(|a| a.eval(e) >= 0));
    envs
}

fn fmt_env(env: &BTreeMap<Sym, i128>) -> String {
    env.iter()
        .map(|(s, v)| format!("{s}={v}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Searches small symbol environments for a concrete violation of
/// disjointness/coverage in family `fi`, returning a diagnostic naming
/// the offending members and symbol values.
fn concrete_violation(plan: &PlanIr, fi: usize) -> Option<String> {
    let fam = &plan.families[fi];
    for env in env_grid(plan) {
        let count = plan.member_count(fi, &env);
        if !(0..=64).contains(&count) {
            continue;
        }
        let space_lo = plan.space.0.eval(&env);
        let space_hi = plan.space.1.eval(&env);
        match &fam.region {
            Region::Residue { modulus, .. } => {
                // One member per residue class is structural; the only
                // numeric failure mode is a count/modulus mismatch.
                if count != modulus.eval(&env) {
                    return Some(format!(
                        "at {}: {count} members over modulus {}",
                        fmt_env(&env),
                        modulus.eval(&env)
                    ));
                }
            }
            Region::Interval { .. } => {
                let members: Vec<(i128, i128, i128)> = (0..count)
                    .map(|p| {
                        let (lo, hi) = plan.member_interval(fi, p, &env).unwrap();
                        (p, lo, hi)
                    })
                    .collect();
                for &(p, lo, hi) in &members {
                    if lo < hi && (lo < space_lo || hi > space_hi) {
                        return Some(format!(
                            "at {}: {}={p} writes [{lo}, {hi}) outside the \
                             index space [{space_lo}, {space_hi})",
                            fmt_env(&env),
                            fam.writer
                        ));
                    }
                }
                if plan.cover {
                    let mut cursor = space_lo;
                    for &(p, lo, hi) in &members {
                        if lo != cursor {
                            return Some(format!(
                                "at {}: {}={p} starts at {lo} but the tiling \
                                 cursor is at {cursor} ({})",
                                fmt_env(&env),
                                fam.writer,
                                if lo < cursor { "overlap" } else { "gap" }
                            ));
                        }
                        cursor = cursor.max(hi);
                    }
                    if cursor != space_hi {
                        return Some(format!(
                            "at {}: tiling ends at {cursor} but the index \
                             space ends at {space_hi}",
                            fmt_env(&env)
                        ));
                    }
                } else {
                    let mut sorted: Vec<(i128, i128, i128)> = members
                        .iter()
                        .copied()
                        .filter(|&(_, lo, hi)| lo < hi)
                        .collect();
                    sorted.sort_by_key(|&(_, lo, _)| lo);
                    for w in sorted.windows(2) {
                        let (p0, lo0, hi0) = w[0];
                        let (p1, lo1, hi1) = w[1];
                        if hi0 > lo1 {
                            return Some(format!(
                                "at {}: {}={p0} [{lo0}, {hi0}) and {}={p1} \
                                 [{lo1}, {hi1}) overlap",
                                fmt_env(&env),
                                fam.writer,
                                fam.writer
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// grounding: symbolic IR vs the concrete planner
// ---------------------------------------------------------------------------

/// Instantiates the partition IR for all four supported curves × window
/// sizes × signedness × GPU counts and compares member intervals
/// slice-by-slice against [`distmsm::partition_plan`]'s concrete
/// output. Any divergence means the symbolic model is lying about the
/// schedule it claims to describe.
pub fn check_grounding() -> Report {
    use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Mnt4753G1};
    use distmsm_ec::Curve;
    let curves: [(&str, u32); 4] = [
        ("bn254-g1", Bn254G1::SCALAR_BITS),
        ("bls12-377-g1", Bls12377G1::SCALAR_BITS),
        ("bls12-381-g1", Bls12381G1::SCALAR_BITS),
        ("mnt4-753-g1", Mnt4753G1::SCALAR_BITS),
    ];
    let mut report = Report::new();
    let mut checked = 0usize;
    for (cname, bits) in curves {
        for s in [8u32, 13, 16] {
            for signed in [false, true] {
                for g in [1usize, 3, 8, 12] {
                    let loc = format!(
                        "bucket-partition/{cname}/s{s}{}/g{g}",
                        if signed { "-signed" } else { "" }
                    );
                    let (slices, pir, env) = distmsm::partition_plan(bits, s, signed, g);
                    match ground_partition(&slices, &pir, &env, g) {
                        Some(msg) => report.push(Finding::new(
                            "VRF-001",
                            Severity::Error,
                            loc,
                            format!("symbolic IR diverges from the planner: {msg}"),
                        )),
                        None => checked += 1,
                    }
                }
            }
        }
    }
    report.push(Finding::new(
        "VRF-001",
        Severity::Info,
        "bucket-partition".to_owned(),
        format!(
            "symbolic partition IR grounded against the concrete planner for \
             {checked} curve × window × GPU shapes"
        ),
    ));
    report
}

fn ground_partition(
    slices: &[distmsm::plan::Slice],
    pir: &PlanIr,
    env: &BTreeMap<Sym, i128>,
    g: usize,
) -> Option<String> {
    let b = *env.get("B")?;
    if pir.member_count(0, env) != g as i128 {
        return Some(format!(
            "IR declares {} devices, planner has {g}",
            pir.member_count(0, env)
        ));
    }
    let mut total = 0i128;
    for gpu in 0..g {
        let (lo, hi) = pir.member_interval(0, gpu as i128, env)?;
        let covered: i128 = slices
            .iter()
            .filter(|sl| sl.gpu == gpu)
            .map(|sl| i128::from(sl.len()))
            .sum();
        if hi - lo != covered {
            return Some(format!(
                "device {gpu}: IR quota [{lo}, {hi}) has width {} but the \
                 planner assigned {covered} buckets",
                hi - lo
            ));
        }
        if let Some(first) = slices.iter().find(|sl| sl.gpu == gpu) {
            let flat = i128::from(first.window) * b + i128::from(first.bucket_lo);
            if flat != lo {
                return Some(format!(
                    "device {gpu}: IR quota starts at {lo} but the planner's \
                     first slice starts at flat index {flat}"
                ));
            }
        }
        total += hi - lo;
    }
    if total != pir.space.1.eval(env) - pir.space.0.eval(env) {
        return Some(format!(
            "quotas sum to {total} over a space of {}",
            pir.space.1.eval(env) - pir.space.0.eval(env)
        ));
    }
    None
}

// ---------------------------------------------------------------------------
// VRF-003: every planned collective schedule, checked without executing
// ---------------------------------------------------------------------------

/// Runs [`check_schedule`] over every collective strategy the planner
/// emits on the topology presets; the `COMM-00x` findings stand, and one
/// `VRF-003` info line counts the schedules proven. `all_presets` widens
/// the rank sweep (the CI gate runs with it; the default keeps one shape
/// per preset family).
pub fn check_collective_plans(all_presets: bool) -> Report {
    let cfg = CommConfig::default();
    let mut combos: Vec<(String, Topology)> = Vec::new();
    let single: &[usize] = if all_presets { &[2, 4, 8] } else { &[4] };
    for &n in single {
        combos.push((format!("single-box-{n}"), Topology::single_box(n)));
    }
    let pcie: &[usize] = if all_presets { &[4, 8] } else { &[8] };
    for &n in pcie {
        combos.push((format!("pcie-box-{n}"), Topology::pcie_box(n)));
    }
    let pod: &[usize] = if all_presets { &[12, 16] } else { &[12] };
    for &n in pod {
        combos.push((format!("dgx-pod-{n}"), Topology::dgx_pod(n)));
    }
    let mut report = Report::new();
    let mut proven = 0usize;
    for (name, topo) in &combos {
        let n = topo.n_gpus();
        let fabric = Fabric::Topology(topo);
        for strat in CollectiveStrategy::ALL {
            for v in [96usize, 97] {
                let sched = plan_collective(strat, n, v, 96.0, &fabric, &cfg);
                let loc = format!("{}/{name}/v{v}", strat.name());
                let r = check_schedule(&loc, &sched);
                if r.actionable() == 0 {
                    proven += 1;
                }
                report.extend(r);
            }
        }
    }
    report.push(Finding::new(
        "VRF-003",
        Severity::Info,
        "collectives".to_owned(),
        format!(
            "{proven} planned schedules proven deadlock-free, port-feasible \
             and host-covering ({} presets × {} strategies × 2 vector shapes)",
            combos.len(),
            CollectiveStrategy::ALL.len()
        ),
    ));
    report
}

// ---------------------------------------------------------------------------
// VRF-900: the mutant corpus
// ---------------------------------------------------------------------------

/// Seeded write-set defects the verifier must reject.
pub fn mutant_plans() -> Vec<(&'static str, PlanIr)> {
    let k = Poly::var("K");
    let tile = |hi_off: i128| RegionFamily {
        writer: "tile",
        param: "k",
        count: IndexExpr::Poly(k.clone()),
        region: Region::Interval {
            lo: IndexExpr::Poly(Poly::var("k").scale(4)),
            hi: IndexExpr::Poly(Poly::var("k").scale(4).add(&Poly::con(hi_off))),
        },
    };
    let overlapping = PlanIr {
        name: "mutant-overlapping-tiles".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(k.scale(4))),
        cover: true,
        families: vec![tile(5)],
        bounds: vec![SymBound::at_least("K", 1)],
        assumptions: Vec::new(),
    };
    let gapped = PlanIr {
        name: "mutant-coverage-gap".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(k.scale(4))),
        cover: true,
        families: vec![tile(3)],
        bounds: vec![SymBound::at_least("K", 1)],
        assumptions: Vec::new(),
    };
    // Slot bands with the builder's `stride − S ≥ 0` guarantee deleted:
    // nothing stops a bucket's slots from spilling into the next band.
    let nb = Poly::var("NB");
    let unbounded_bands = PlanIr {
        name: "mutant-unbounded-slot-bands".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(nb.scale(4))),
        cover: false,
        families: vec![RegionFamily {
            writer: "bucket",
            param: "bkt",
            count: IndexExpr::Poly(nb.clone()),
            region: Region::Interval {
                lo: IndexExpr::Poly(Poly::var("bkt").scale(4)),
                hi: IndexExpr::Poly(Poly::var("bkt").scale(4).add(&Poly::var("S"))),
            },
        }],
        bounds: vec![SymBound::at_least("NB", 1), SymBound::at_least("S", 1)],
        assumptions: Vec::new(),
    };
    // `fleet-shard` with every quota tile's upper bound widened from
    // ⌊N·(p+1)/P⌋ to ⌊N·(p+2)/P⌋: each shard spills into its successor.
    let (n, parts, p) = (Poly::var("N"), Poly::var("P"), Poly::var("p"));
    let overlapping_shards = PlanIr {
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
    };
    vec![
        ("overlapping-tiles", overlapping),
        ("coverage-gap", gapped),
        ("unbounded-slot-bands", unbounded_bands),
        ("overlapping-shards", overlapping_shards),
    ]
}

/// Seeded schedule defects [`check_schedule`] must reject.
pub fn mutant_schedules() -> Vec<(&'static str, CommSchedule)> {
    let topo = Topology::single_box(4);
    let fabric = Fabric::Topology(&topo);
    let cfg = CommConfig::default();
    // M4: ring all-reduce with the first two steps swapped — the chunk
    // accumulation chain breaks, so later "fully reduced" claims lie.
    let mut swapped =
        plan_collective(CollectiveStrategy::RingAllReduce, 4, 96, 96.0, &fabric, &cfg);
    swapped.steps.swap(0, 1);
    // M5: a same-step rendezvous — each rank's send is satisfiable only
    // by the other's delivery in the same step.
    let mut cycle = CommSchedule::new("mutant-rendezvous", 2, 2, 8.0);
    cycle.steps.push(CommStep {
        flows: vec![
            Flow {
                src: Endpoint::Rank(0),
                dst: Endpoint::Rank(1),
                lo: 0,
                hi: 1,
                bytes: 8.0,
                reduced: true,
            },
            Flow {
                src: Endpoint::Rank(1),
                dst: Endpoint::Rank(0),
                lo: 0,
                hi: 1,
                bytes: 8.0,
                reduced: true,
            },
        ],
    });
    // M6: a duplicated flow double-drives one rank's send port.
    let mut dup = plan_collective(CollectiveStrategy::HostGather, 4, 96, 96.0, &fabric, &cfg);
    let extra = dup.steps[0].flows[0].clone();
    dup.steps[0].flows.push(extra);
    vec![
        ("swapped-ring-steps", swapped),
        ("rendezvous-cycle", cycle),
        ("duplicate-port-flow", dup),
    ]
}

/// What a surviving `VRF-900` mutant means.
const MUTANT_SURVIVED: &str =
    "seeded mutant passed verification — the verifier has lost its teeth";

/// Runs the verifier against its own mutant corpus: every seeded defect
/// must be rejected (reported as `Info` naming the rejecting rule); a
/// surviving mutant is a `VRF-900` error.
pub fn check_mutants() -> Report {
    let mut report = Report::new();
    for (name, plan) in mutant_plans() {
        let r = verify_plan(&plan);
        report.mutant_rejected("VRF-900", &format!("mutant:{name}"), &r, MUTANT_SURVIVED);
    }
    for (name, sched) in mutant_schedules() {
        let r = check_schedule(&format!("mutant:{name}"), &sched);
        report.mutant_rejected("VRF-900", &format!("mutant:{name}"), &r, MUTANT_SURVIVED);
    }
    // M7: seeded order-sensitive hash iteration (DET-001 must fire).
    let src = format!("let order = std::collections::{}Map::new();\n", "Hash");
    let r = crate::det::lint_source("seeded.rs", &src);
    report.mutant_rejected("VRF-900", "mutant:seeded-hash-iteration", &r, MUTANT_SURVIVED);
    // M8: one seeded panic site in a crate already at its ceiling
    // (PANIC-001 must fire).
    let mut sites: std::collections::BTreeMap<String, usize> = crate::det::PANIC_CEILINGS
        .iter()
        .map(|&(krate, ceiling)| (krate.to_owned(), ceiling))
        .collect();
    let src = format!("let first = bytes.first().{}();\n", "unwrap");
    *sites.entry("journal".to_owned()).or_default() += crate::det::panic_sites(&src);
    let r = crate::det::check_panic_ceilings(&sites);
    report.mutant_rejected("VRF-900", "mutant:seeded-panic-site", &r, MUTANT_SURVIVED);
    report
}

// ---------------------------------------------------------------------------
// entry point
// ---------------------------------------------------------------------------

/// The full `verify` pass: symbolic write-set proofs for every
/// registered plan, grounding against the concrete planner, static
/// schedule verification over the topology presets, the mutant corpus,
/// and the workspace determinism lint.
pub fn check_verify(all_presets: bool) -> Report {
    let mut report = Report::new();
    for plan in plan_registry() {
        report.extend(verify_plan(&plan));
    }
    report.extend(check_grounding());
    report.extend(check_collective_plans(all_presets));
    report.extend(check_mutants());
    report.extend(crate::det::lint_workspace());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_plans_all_verify() {
        for plan in plan_registry() {
            let r = verify_plan(&plan);
            let bad: Vec<&String> = r
                .findings
                .iter()
                .filter(|f| f.severity > Severity::Info)
                .map(|f| &f.message)
                .collect();
            assert!(bad.is_empty(), "plan {}: {bad:?}", plan.name);
            assert!(
                r.findings.iter().any(|f| f.rule == "VRF-001"),
                "plan {} has no disjointness verdict",
                plan.name
            );
        }
    }

    #[test]
    fn grounding_matches_planner_for_all_curves() {
        let r = check_grounding();
        let bad: Vec<String> = r
            .findings
            .iter()
            .filter(|f| f.severity > Severity::Info)
            .map(|f| format!("{}: {}", f.location, f.message))
            .collect();
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn clean_collectives_pass_all_presets() {
        let r = check_collective_plans(true);
        let bad: Vec<String> = r
            .findings
            .iter()
            .filter(|f| f.severity > Severity::Info)
            .map(|f| format!("{}: {}", f.location, f.message))
            .collect();
        assert!(bad.is_empty(), "{bad:?}");
    }

    #[test]
    fn mutant_overlapping_tiles_rejected() {
        let (_, plan) = mutant_plans().remove(0);
        let r = verify_plan(&plan);
        assert!(r.count(Severity::Error) > 0);
        let f = r
            .findings
            .iter()
            .find(|f| f.severity == Severity::Error)
            .unwrap();
        assert!(f.location.contains("tile"), "{}", f.location);
        assert!(f.message.contains("counterexample"), "{}", f.message);
        assert!(f.message.contains("K="), "{}", f.message);
    }

    #[test]
    fn mutant_coverage_gap_rejected() {
        let (_, plan) = mutant_plans().remove(1);
        let r = verify_plan(&plan);
        assert!(
            r.findings
                .iter()
                .any(|f| f.severity == Severity::Error && f.rule == "VRF-002"),
            "gap mutant must trip the coverage rule: {}",
            r.render_text()
        );
    }

    #[test]
    fn mutant_unbounded_bands_rejected() {
        let (_, plan) = mutant_plans().remove(2);
        let r = verify_plan(&plan);
        let f = r
            .findings
            .iter()
            .find(|f| f.severity == Severity::Error)
            .expect("band mutant must be rejected");
        assert_eq!(f.rule, "VRF-001");
        assert!(f.message.contains("overlap"), "{}", f.message);
    }

    #[test]
    fn mutant_swapped_ring_steps_rejected() {
        let (name, sched) = mutant_schedules().remove(0);
        let r = check_schedule(name, &sched);
        let f = r
            .findings
            .iter()
            .find(|f| f.severity == Severity::Error)
            .expect("swapped steps must be rejected");
        assert!(f.location.contains("step"), "{}", f.location);
    }

    #[test]
    fn mutant_rendezvous_cycle_rejected() {
        let (name, sched) = mutant_schedules().remove(1);
        let r = check_schedule(name, &sched);
        assert!(
            r.findings
                .iter()
                .any(|f| f.severity == Severity::Error
                    && f.message.contains("rendezvous deadlock")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn mutant_duplicate_port_flow_rejected() {
        let (name, sched) = mutant_schedules().remove(2);
        let r = check_schedule(name, &sched);
        assert!(
            r.findings
                .iter()
                .any(|f| f.severity == Severity::Error
                    && f.message.contains("port infeasible")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn mutant_corpus_meta_check_is_green() {
        let r = check_mutants();
        assert_eq!(r.count(Severity::Error), 0, "{}", r.render_text());
        // One verdict per mutant: 4 plans + 3 schedules + 1 det + 1 panic.
        assert_eq!(r.findings.len(), 9);
    }
}
