//! Synthesis of GPU kernel profiles for EC arithmetic.
//!
//! Combines the register-pressure analysis ([`crate::graph`] /
//! [`crate::spill`]) and the tensor-core model ([`crate::tensor`]) into
//! the quantities the simulator consumes: registers per thread, shared
//! memory per block, and per-operation [`ThreadCost`]s. The five
//! optimisation toggles mirror the waterfall of the paper's Figure 12.

use crate::formulas::{pacc_graph, padd_graph, pdbl_graph};
use crate::graph::{AllocPolicy, OpGraph};
use crate::spill::{spill_schedule, SpillSchedule};
use crate::tensor::tc_int8_ops;
use distmsm_gpu_sim::{KernelProfile, ThreadCost};
use std::sync::OnceLock;

/// Registers reserved per thread for addresses, indices and loop state
/// (the non-big-integer register demand).
pub const AUX_REGS: u32 = 32;

/// The PADD-kernel optimisation toggles of Figure 12, applied
/// cumulatively in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaddOptimizations {
    /// "PADD→PACC": use the dedicated accumulation kernel (Algorithm 4)
    /// for bucket-sum instead of the full Algorithm 1.
    pub dedicated_pacc: bool,
    /// "Optimal Exec Order": schedule with the exhaustive minimum-peak
    /// order instead of program order.
    pub optimal_order: bool,
    /// "Explicit Spill": park selected big integers in shared memory to
    /// cut the register-resident peak by two.
    pub explicit_spill: bool,
    /// "MontMul with TC": deploy the `m × n` product to tensor cores.
    pub tc_montmul: bool,
    /// "On-the-fly Compact": compact tensor-core outputs in registers
    /// instead of round-tripping them through memory.
    pub tc_onthefly_compact: bool,
}

impl PaddOptimizations {
    /// No optimisations — the paper's NO-OPT baseline kernel.
    pub const fn none() -> Self {
        Self {
            dedicated_pacc: false,
            optimal_order: false,
            explicit_spill: false,
            tc_montmul: false,
            tc_onthefly_compact: false,
        }
    }

    /// Every optimisation — the full DistMSM kernel.
    pub const fn all() -> Self {
        Self {
            dedicated_pacc: true,
            optimal_order: true,
            explicit_spill: true,
            tc_montmul: true,
            tc_onthefly_compact: true,
        }
    }

    /// The cumulative prefixes of Figure 12, in the paper's order
    /// (baseline, +PACC, +order, +spill, +TC, +compact).
    pub fn waterfall() -> [(&'static str, Self); 6] {
        let mut steps = [("Baseline", Self::none()); 6];
        let mut cur = Self::none();
        cur.dedicated_pacc = true;
        steps[1] = ("PADD→PACC", cur);
        cur.optimal_order = true;
        steps[2] = ("Optimal Exec Order", cur);
        cur.explicit_spill = true;
        steps[3] = ("Explicit Spill", cur);
        cur.tc_montmul = true;
        steps[4] = ("MontMul with TC", cur);
        cur.tc_onthefly_compact = true;
        steps[5] = ("On-the-fly Compact", cur);
        steps
    }
}

impl Default for PaddOptimizations {
    fn default() -> Self {
        Self::all()
    }
}

/// The scheduling artefacts behind an [`EcKernelModel`]: the op DAG, the
/// chosen execution order and allocation policy, and the spill schedule
/// (when explicit spilling is active). Exposed so external analyses — the
/// `distmsm-analyze` linter in particular — can replay and audit the
/// decisions instead of trusting the summary numbers.
#[derive(Clone, Debug)]
pub struct KernelSchedule {
    /// The accumulation-op DAG the model scheduled (PACC or PADD).
    pub graph: OpGraph,
    /// Execution order as indices into `graph.ops()`.
    pub order: Vec<usize>,
    /// Register allocation policy used for liveness accounting.
    pub policy: AllocPolicy,
    /// Peak big-integer liveness of `order` under `policy` (pre-spill).
    pub peak_live: usize,
    /// The spill schedule, when `explicit_spill` reduced the peak.
    pub spill: Option<SpillSchedule>,
}

/// `(multiplications, additions/subtractions)` of the PACC, PADD,
/// PDBL (`a ≠ 0`) and PDBL (`a = 0`) formula graphs: properties of the
/// formulas alone, so the graphs are built and counted once per process.
fn formula_op_counts() -> [(usize, usize); 4] {
    static COUNTS: OnceLock<[(usize, usize); 4]> = OnceLock::new();
    *COUNTS.get_or_init(|| {
        [
            pacc_graph(),
            padd_graph(),
            pdbl_graph(false),
            pdbl_graph(true),
        ]
        .map(|g| (g.mul_count(), g.addsub_count()))
    })
}

/// Schedules the accumulation kernel `opts` selects: graph choice,
/// execution order (exhaustive search under `optimal_order`) and spill
/// schedule are deterministic functions of three of the five toggles.
fn schedule_for(opts: &PaddOptimizations) -> KernelSchedule {
    let graph = if opts.dedicated_pacc {
        pacc_graph()
    } else {
        padd_graph()
    };
    let (policy, order, peak) = if opts.optimal_order {
        let (peak, order) = graph.optimal_order(AllocPolicy::InPlace);
        (AllocPolicy::InPlace, order, peak)
    } else {
        let order = graph.program_order();
        let peak = graph.pressure_of(&order, AllocPolicy::Fresh).peak_live;
        (AllocPolicy::Fresh, order, peak)
    };
    let spill = if opts.explicit_spill && peak > 2 {
        // the paper's two-big-integer reduction
        spill_schedule(&graph, &order, peak - 2, policy).ok()
    } else {
        None
    };
    KernelSchedule {
        graph,
        order,
        policy,
        peak_live: peak,
        spill,
    }
}

/// `(register-resident, shared-memory, spill-transfer)` big integers per
/// thread of [`schedule_for`]'s schedule.
fn fresh_bigint_footprint(opts: &PaddOptimizations) -> (usize, usize, usize) {
    let sched = schedule_for(opts);
    match sched.spill {
        Some(s) => (sched.peak_live - 2, s.shared_peak, s.transfers),
        None => (sched.peak_live, 0, 0),
    }
}

/// [`fresh_bigint_footprint`], scheduled once per process for each of the
/// eight `(dedicated_pacc, optimal_order, explicit_spill)` combinations it
/// depends on: every `execute` builds a model.
fn bigint_footprint(opts: &PaddOptimizations) -> (usize, usize, usize) {
    static FOOTPRINTS: [OnceLock<(usize, usize, usize)>; 8] = [const { OnceLock::new() }; 8];
    let slot = usize::from(opts.dedicated_pacc)
        | usize::from(opts.optimal_order) << 1
        | usize::from(opts.explicit_spill) << 2;
    *FOOTPRINTS[slot].get_or_init(|| fresh_bigint_footprint(opts))
}

/// Cost and configuration model of the EC arithmetic kernel for one curve.
#[derive(Clone, Debug)]
pub struct EcKernelModel {
    limbs32: usize,
    opts: PaddOptimizations,
    live_bigints: usize,
    shared_bigints: usize,
    spill_transfers: usize,
    /// Per-operation costs, fixed by `limbs32`, `opts` and
    /// `spill_transfers`: every metered launch and every analytic
    /// candidate reads them, so they are derived once here.
    acc_cost: ThreadCost,
    padd_cost: ThreadCost,
    /// Indexed by `a_is_zero`.
    pdbl_cost: [ThreadCost; 2],
}

impl EcKernelModel {
    /// Builds the model for a base field occupying `limbs32` 32-bit
    /// registers per element, with the given optimisation set.
    ///
    /// # Panics
    ///
    /// Panics if `limbs32` is zero.
    pub fn new(limbs32: usize, opts: PaddOptimizations) -> Self {
        Self::with_footprint(limbs32, opts, bigint_footprint(&opts))
    }

    /// [`Self::new`] on a given `(live, shared, transfers)` footprint.
    fn with_footprint(
        limbs32: usize,
        opts: PaddOptimizations,
        (live, shared, transfers): (usize, usize, usize),
    ) -> Self {
        assert!(limbs32 > 0, "limbs32 must be positive");
        let mut model = Self {
            limbs32,
            opts,
            live_bigints: live,
            shared_bigints: shared,
            spill_transfers: transfers,
            acc_cost: ThreadCost::default(),
            padd_cost: ThreadCost::default(),
            pdbl_cost: [ThreadCost::default(); 2],
        };
        let [pacc, padd, pdbl_a, pdbl_a0] = formula_op_counts().map(|c| model.op_cost(c));
        model.acc_cost = if opts.dedicated_pacc { pacc } else { padd };
        model.padd_cost = padd;
        model.pdbl_cost = [pdbl_a, pdbl_a0];
        model
    }

    /// 32-bit limbs per field element.
    pub fn limbs32(&self) -> usize {
        self.limbs32
    }

    /// Recomputes the scheduling artefacts this model is based on (the
    /// graph choice, execution order and spill schedule are deterministic
    /// functions of the optimisation set).
    pub fn schedule(&self) -> KernelSchedule {
        schedule_for(&self.opts)
    }

    /// The active optimisation set.
    pub fn opts(&self) -> &PaddOptimizations {
        &self.opts
    }

    /// Peak register-resident big integers per thread.
    pub fn live_bigints(&self) -> usize {
        self.live_bigints
    }

    /// Peak big integers parked in shared memory per thread.
    pub fn shared_bigints(&self) -> usize {
        self.shared_bigints
    }

    /// Registers per thread: live big integers plus auxiliary state, plus
    /// the tensor-core fragment overhead when the TC path is enabled (the
    /// zero values introduced when representing big integers as matrices
    /// keep extra lanes resident — §5.3.3 explains the MNT4-753 slowdown
    /// through exactly this).
    pub fn regs_per_thread(&self) -> u32 {
        let mut regs = (self.live_bigints * self.limbs32) as u32 + AUX_REGS;
        if self.opts.tc_montmul {
            // Wide fields pay a full extra big integer of zero-padded
            // fragments; narrow fields only a couple of compacted lanes.
            let fragment = if self.limbs32 >= 16 {
                self.limbs32 as u32
            } else {
                (self.limbs32 as u32 / 4).max(2)
            };
            regs += if self.opts.tc_onthefly_compact {
                fragment
            } else {
                2 * fragment
            };
        }
        regs
    }

    /// Shared-memory bytes per block of `block_size` threads (each thread
    /// owns private spill slots).
    pub fn shared_mem_per_block(&self, block_size: u32) -> u32 {
        (self.shared_bigints * self.limbs32 * 4) as u32 * block_size
    }

    /// The kernel profile for the simulator.
    pub fn profile(&self, name: &'static str, block_size: u32) -> KernelProfile {
        KernelProfile::new(
            name,
            self.regs_per_thread(),
            self.shared_mem_per_block(block_size),
            block_size,
        )
    }

    /// Cost of one Montgomery modular multiplication.
    ///
    /// Calibration note: the TC coefficients are set so the *net* effects
    /// match the paper's measured Figure 12 deltas — deploying `m × n` to
    /// tensor cores with on-the-fly compaction buys ≈5% (§5.3.3: 5.2%
    /// average for the pairing curves) while the direct implementation's
    /// memory round trip costs ≈6–7% (paper: −6.8%). The TC pipe itself
    /// runs concurrently and is never the bottleneck at these shapes.
    fn modmul_cost(&self) -> ThreadCost {
        let l = self.limbs32 as f64;
        let mut c = ThreadCost::default();
        if self.opts.tc_montmul {
            // A×B and the m-sequence stay on CUDA cores; m×n moves to TC.
            c.int_ops = 3.7 * l * l + 8.0 * l;
            c.tc_int8_ops = tc_int8_ops(4 * self.limbs32);
            if self.opts.tc_onthefly_compact {
                // in-register compaction: shifts/adds per lane, with the
                // additions routed to the fp32 pipe (§4.3)
                c.fp32_ops = 4.0 * l;
                c.int_ops += 0.5 * l;
            } else {
                // expanded outputs round-trip through on-chip memory (the
                // paper: "4× the optimal" transfer volume) — pack/unpack
                // instructions plus staging traffic
                c.int_ops += 5.0 * l;
                c.shared_bytes = 8.0 * l;
            }
        } else {
            // SOS on CUDA cores: 2L² MACs for A×B, 2L² for the reduction
            c.int_ops = 4.0 * l * l + 8.0 * l;
        }
        // spill traffic amortised per modmul (transfers happen once per
        // point operation, which has ~10 modmuls)
        if self.spill_transfers > 0 {
            c.shared_bytes += (self.spill_transfers * self.limbs32 * 4) as f64 / 10.0;
            c.int_ops += self.limbs32 as f64 / 4.0;
        }
        c
    }

    /// Cost of one modular addition/subtraction.
    fn addsub_cost(&self) -> ThreadCost {
        ThreadCost {
            int_ops: 3.0 * self.limbs32 as f64,
            ..ThreadCost::default()
        }
    }

    /// Cost of `muls` modular multiplications and `addsubs` modular
    /// additions/subtractions.
    fn op_cost(&self, (muls, addsubs): (usize, usize)) -> ThreadCost {
        let mut total = ThreadCost::default();
        let mc = self.modmul_cost();
        let ac = self.addsub_cost();
        for _ in 0..muls {
            total = total.add(&mc);
        }
        for _ in 0..addsubs {
            total = total.add(&ac);
        }
        total
    }

    /// Cost of the bucket-sum accumulation operation: PACC when the
    /// dedicated kernel is enabled, full PADD otherwise.
    pub fn acc_cost(&self) -> ThreadCost {
        self.acc_cost
    }

    /// Cost of one full PADD (partial-result merging).
    pub fn padd_cost(&self) -> ThreadCost {
        self.padd_cost
    }

    /// Cost of one PDBL.
    pub fn pdbl_cost(&self, a_is_zero: bool) -> ThreadCost {
        self.pdbl_cost[usize::from(a_is_zero)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_gpu_sim::DeviceSpec;

    #[test]
    fn straightforward_register_counts_match_paper() {
        // §4.2: "the straightforward PADD implementation requires 132
        // registers per thread for BLS12-377 and 264 for MNT4753"
        // (11 live big integers × 12/24 limbs; the paper's figures exclude
        // the auxiliary registers, so compare the big-integer component).
        let bls = EcKernelModel::new(12, PaddOptimizations::none());
        assert_eq!(bls.live_bigints() * bls.limbs32(), 132);
        let mnt = EcKernelModel::new(24, PaddOptimizations::none());
        assert_eq!(mnt.live_bigints() * mnt.limbs32(), 264);
    }

    #[test]
    fn memoised_footprint_equals_a_fresh_schedule() {
        // all 32 toggle combinations, asked for in an order that would mix
        // up slots if the memo keyed on the wrong toggles
        for limbs in [8usize, 12, 24] {
            for bits in 0..32u32 {
                let on = |b: u32| bits >> b & 1 == 1;
                let opts = PaddOptimizations {
                    tc_montmul: on(0),
                    explicit_spill: on(1),
                    tc_onthefly_compact: on(2),
                    dedicated_pacc: on(3),
                    optimal_order: on(4),
                };
                let memoised = EcKernelModel::new(limbs, opts);
                let fresh =
                    EcKernelModel::with_footprint(limbs, opts, fresh_bigint_footprint(&opts));
                // `Debug` prints every field, floats at full precision
                assert_eq!(format!("{memoised:?}"), format!("{fresh:?}"), "{opts:?}");
            }
        }
    }

    #[test]
    fn each_optimisation_reduces_live_bigints_or_moves_work() {
        let base = EcKernelModel::new(8, PaddOptimizations::none());
        let steps = PaddOptimizations::waterfall();
        let pacc = EcKernelModel::new(8, steps[1].1);
        let order = EcKernelModel::new(8, steps[2].1);
        let spill = EcKernelModel::new(8, steps[3].1);
        assert!(pacc.live_bigints() < base.live_bigints()); // 11 → 9
        assert!(order.live_bigints() < pacc.live_bigints()); // 9 → 7
        assert!(spill.live_bigints() < order.live_bigints()); // 7 → 5
        assert_eq!(spill.live_bigints(), order.live_bigints() - 2);
        assert!(spill.shared_bigints() > 0);
    }

    #[test]
    fn pacc_costs_ten_fourteenths_of_padd() {
        let m = EcKernelModel::new(8, PaddOptimizations::all());
        let acc = m.acc_cost().int_ops;
        let padd = m.padd_cost().int_ops;
        assert!(acc < padd);
        let ratio = acc / padd;
        assert!((0.6..0.85).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn tc_path_moves_ops_to_tensor_cores() {
        let no_tc = EcKernelModel::new(
            8,
            PaddOptimizations {
                tc_montmul: false,
                tc_onthefly_compact: false,
                ..PaddOptimizations::all()
            },
        );
        let tc = EcKernelModel::new(8, PaddOptimizations::all());
        assert_eq!(no_tc.acc_cost().tc_int8_ops, 0.0);
        assert!(tc.acc_cost().tc_int8_ops > 0.0);
        assert!(tc.acc_cost().int_ops < no_tc.acc_cost().int_ops);
    }

    #[test]
    fn direct_tc_pays_round_trip_and_registers() {
        let direct = EcKernelModel::new(
            8,
            PaddOptimizations {
                tc_onthefly_compact: false,
                ..PaddOptimizations::all()
            },
        );
        let fly = EcKernelModel::new(8, PaddOptimizations::all());
        assert!(direct.acc_cost().shared_bytes > fly.acc_cost().shared_bytes);
        assert!(direct.acc_cost().int_ops > fly.acc_cost().int_ops);
        assert!(fly.regs_per_thread() < direct.regs_per_thread());
    }

    #[test]
    fn occupancy_improves_along_the_waterfall_for_mnt4753() {
        // the register-pressure optimisations matter most at 24 limbs
        let d = DeviceSpec::a100();
        let base = EcKernelModel::new(24, PaddOptimizations::none());
        let opt = EcKernelModel::new(
            24,
            PaddOptimizations {
                tc_montmul: false,
                tc_onthefly_compact: false,
                ..PaddOptimizations::all()
            },
        );
        let occ_base = d.occupancy(base.regs_per_thread(), 0, 256);
        let occ_opt = d.occupancy(opt.regs_per_thread(), 0, 256);
        assert!(occ_opt > 1.5 * occ_base, "{occ_opt} vs {occ_base}");
    }

    #[test]
    fn waterfall_is_cumulative() {
        let steps = PaddOptimizations::waterfall();
        assert_eq!(steps[0].1, PaddOptimizations::none());
        assert_eq!(steps[5].1, PaddOptimizations::all());
        assert!(steps[3].1.explicit_spill && !steps[3].1.tc_montmul);
    }
}
