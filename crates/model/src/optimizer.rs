//! The Bonsai optimizer (§III-C): exhaustive search over AMT
//! configurations subject to the resource constraints.

use crate::components::ComponentLibrary;
use crate::params::{ArrayParams, HardwareParams};
use crate::perf;
use crate::resource::{self, Footprint};

/// A complete AMT configuration (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FullConfig {
    /// Tree throughput `p` (records/cycle).
    pub throughput_p: usize,
    /// Tree leaves `ℓ`.
    pub leaves_l: usize,
    /// Unrolled copies `λ_unrl`.
    pub unroll: usize,
    /// Pipeline depth `λ_pipe`.
    pub pipeline: usize,
}

impl core::fmt::Display for FullConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}x {}-pipe AMT({}, {})",
            self.unroll, self.pipeline, self.throughput_p, self.leaves_l
        )
    }
}

/// One scored configuration from the optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedConfig {
    /// The configuration.
    pub config: FullConfig,
    /// Presorted run length feeding the first stage (1 = no presorter).
    pub presort: usize,
    /// Predicted sorting latency in seconds (Equation 2/4).
    pub latency_s: f64,
    /// Predicted sustained throughput in bytes/second (Equation 7).
    pub throughput: f64,
    /// Total LUTs across all tree copies (Equation 9 left side).
    pub lut: u64,
    /// Total leaf-buffer BRAM bytes (Equation 10 left side).
    pub bram_bytes: u64,
    /// Number of merge stages per tree.
    pub stages: u32,
}

/// Error returned when no configuration fits the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerError;

impl core::fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "no AMT configuration fits the given hardware")
    }
}

impl std::error::Error for OptimizerError {}

/// The identity key of a scored configuration: every enumerated entry
/// is a distinct `(p, ℓ, λ_unrl, λ_pipe, presort)` tuple, so comparing
/// these keys last makes both ranking orders *total* — two distinct
/// entries never compare `Equal`, whatever their scores.
fn identity_key(c: &RankedConfig) -> (usize, usize, usize, usize, usize) {
    (
        c.config.throughput_p,
        c.config.leaves_l,
        c.config.unroll,
        c.config.pipeline,
        c.presort,
    )
}

/// The documented **total** order behind [`BonsaiOptimizer::ranked_by_latency`]:
///
/// 1. predicted latency, ascending (Equation 2/4);
/// 2. leaves `ℓ`, descending — robust to larger `N`, the paper's
///    stated §IV-A choice;
/// 3. LUT count, ascending (cheaper design wins);
/// 4. BRAM bytes, ascending;
/// 5. finally the identity tuple `(p, ℓ, λ_unrl, λ_pipe, presort)`,
///    ascending, which distinct configurations never share.
///
/// Step 5 makes the order total, so the ranking — and therefore every
/// scheduler decision built on it — is independent of enumeration
/// order. Pinned by the `ranking_orders_are_total_and_deterministic`
/// property test.
pub fn latency_order(a: &RankedConfig, b: &RankedConfig) -> core::cmp::Ordering {
    a.latency_s
        .total_cmp(&b.latency_s)
        .then(b.config.leaves_l.cmp(&a.config.leaves_l))
        .then(a.lut.cmp(&b.lut))
        .then(a.bram_bytes.cmp(&b.bram_bytes))
        .then(identity_key(a).cmp(&identity_key(b)))
}

/// The documented **total** order behind
/// [`BonsaiOptimizer::ranked_by_throughput`]:
///
/// 1. sustained throughput, descending (Equation 7);
/// 2. LUT count, ascending;
/// 3. BRAM bytes, ascending;
/// 4. the identity tuple `(p, ℓ, λ_unrl, λ_pipe, presort)`, ascending.
///
/// Total for the same reason as [`latency_order`].
pub fn throughput_order(a: &RankedConfig, b: &RankedConfig) -> core::cmp::Ordering {
    b.throughput
        .total_cmp(&a.throughput)
        .then(a.lut.cmp(&b.lut))
        .then(a.bram_bytes.cmp(&b.bram_bytes))
        .then(identity_key(a).cmp(&identity_key(b)))
}

/// The Bonsai optimizer: exhaustively enumerates implementable AMT
/// configurations and ranks them by sorting time (latency-optimal) or
/// sustained throughput (throughput-optimal), per §III-C.
///
/// "Importantly, Bonsai can list all implementable AMT configurations in
/// decreasing order of performance" — [`BonsaiOptimizer::ranked_by_latency`]
/// provides exactly that, so near-optimal fallbacks are available when
/// the best design fails synthesis for reasons outside the model.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct BonsaiOptimizer {
    hw: HardwareParams,
}

/// Presorted run length the presorter feeds to the first stage (16 in
/// the paper). Every search also scores each tree without it.
const PRESORT: usize = 16;

impl BonsaiOptimizer {
    /// Creates an optimizer for the given hardware with the paper's
    /// component library ([`ComponentLibrary::paper`]) and 16-record
    /// presorter.
    pub fn new(hw: HardwareParams) -> Self {
        Self { hw }
    }

    /// The hardware this optimizer targets.
    pub fn hardware(&self) -> &HardwareParams {
        &self.hw
    }

    fn candidate_ps(&self) -> impl Iterator<Item = usize> + '_ {
        (0..=self.hw.max_p.trailing_zeros()).map(|e| 1usize << e)
    }

    fn candidate_ls(&self) -> impl Iterator<Item = usize> + '_ {
        (1..=self.hw.max_l.trailing_zeros()).map(|e| 1usize << e)
    }

    fn score(
        &self,
        array: &ArrayParams,
        config: FullConfig,
        presort: usize,
        footprint: Footprint,
    ) -> RankedConfig {
        let FullConfig {
            throughput_p: p,
            leaves_l: l,
            unroll,
            pipeline,
        } = config;
        let latency_s = if pipeline == 1 {
            perf::eq2_latency(array, &self.hw, p, l, presort, unroll)
        } else {
            perf::eq4_pipeline_latency(array, &self.hw, p, pipeline)
        };
        let throughput = perf::eq7_throughput(&self.hw, p, array.record_bytes, pipeline, unroll);
        RankedConfig {
            config,
            presort,
            latency_s,
            throughput,
            lut: footprint.lut,
            bram_bytes: footprint.bram_bytes,
            stages: perf::stages(array.n_records.div_ceil(unroll as u64), l, presort),
        }
    }

    /// Scores every implementable (Eq. 9, Eq. 10) configuration for the
    /// given pipeline depths and hands each to `visit`, in no particular
    /// order. Each `(p, ℓ)` tree and the presorter are costed once per
    /// search, and nothing is allocated.
    fn search(
        &self,
        array: &ArrayParams,
        pipelines: &[usize],
        mut visit: impl FnMut(RankedConfig),
    ) {
        let bits = array.record_bits();
        let lib = ComponentLibrary::paper();
        // (run length, LUTs) with the presorter and without it.
        let presorters = [(PRESORT, resource::presorter_lut(PRESORT, bits)), (1, 0)];
        for p in self.candidate_ps() {
            for l in self.candidate_ls() {
                let tree = resource::amt_lut(&lib, p, l, bits);
                for (presort, presorter_lut) in presorters {
                    let tree_lut = tree + presorter_lut;
                    for &pipeline in pipelines {
                        for unroll_log in 0..=6 {
                            let unroll = 1usize << unroll_log;
                            let footprint =
                                Footprint::replicated(&self.hw, tree_lut, l, unroll * pipeline);
                            if !footprint.fits(&self.hw) {
                                continue;
                            }
                            let config = FullConfig {
                                throughput_p: p,
                                leaves_l: l,
                                unroll,
                                pipeline,
                            };
                            visit(self.score(array, config, presort, footprint));
                        }
                    }
                }
            }
        }
    }

    /// The latency search: pipelining does not improve single-array
    /// sorting time (§III-C), so it fixes λ_pipe = 1.
    fn latency_search(&self, array: &ArrayParams, visit: impl FnMut(RankedConfig)) {
        self.search(array, &[1], visit);
    }

    /// The throughput search, subject to the Eq. 5 capacity constraint
    /// for `array`.
    fn throughput_search(&self, array: &ArrayParams, mut visit: impl FnMut(RankedConfig)) {
        self.search(array, &[1, 2, 3, 4, 6, 8], |c| {
            // §IV-C assumes phase one presorts into 256-record runs
            // before the pipeline's first merge stage (Equation 5).
            let capacity = perf::eq5_max_pipeline_records(
                &self.hw,
                array.record_bytes,
                c.config.leaves_l,
                256,
                c.config.pipeline,
                c.config.unroll,
            );
            if capacity >= array.n_records {
                visit(c);
            }
        });
    }

    /// Scores one specific configuration for `array`, if it fits the
    /// device (Equations 9 and 10) — used to evaluate keeping an
    /// already-programmed design on a new workload.
    pub fn evaluate(
        &self,
        array: &ArrayParams,
        config: FullConfig,
        presort: usize,
    ) -> Option<RankedConfig> {
        let chunk = (presort > 1).then_some(presort);
        let tree = resource::tree_lut(
            &ComponentLibrary::paper(),
            config.throughput_p,
            config.leaves_l,
            array.record_bits(),
            chunk,
        );
        let footprint = Footprint::replicated(
            &self.hw,
            tree,
            config.leaves_l,
            config.unroll * config.pipeline,
        );
        footprint
            .fits(&self.hw)
            .then(|| self.score(array, config, presort, footprint))
    }

    /// All implementable configurations in increasing order of predicted
    /// sorting time, under the total [`latency_order`] (ties broken by
    /// leaves, LUT count, BRAM, then the identity tuple).
    pub fn ranked_by_latency(&self, array: &ArrayParams) -> Vec<RankedConfig> {
        let mut configs = Vec::new();
        self.latency_search(array, |c| configs.push(c));
        configs.sort_by(latency_order);
        configs
    }

    /// The latency-optimal configuration (§III-C latency model): the
    /// first entry of [`BonsaiOptimizer::ranked_by_latency`], found
    /// without building the ranking.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError`] when nothing fits the device.
    pub fn latency_optimal(&self, array: &ArrayParams) -> Result<RankedConfig, OptimizerError> {
        let mut best = None;
        self.latency_search(array, |c| keep_least(&mut best, c, latency_order));
        best.ok_or(OptimizerError)
    }

    /// All implementable configurations in decreasing order of sustained
    /// throughput, subject to the Eq. 5 capacity constraint for `array`,
    /// under the total [`throughput_order`].
    pub fn ranked_by_throughput(&self, array: &ArrayParams) -> Vec<RankedConfig> {
        let mut configs = Vec::new();
        self.throughput_search(array, |c| configs.push(c));
        configs.sort_by(throughput_order);
        configs
    }

    /// The throughput-optimal configuration (§III-C throughput model),
    /// used for phase one of the SSD sorter: the first entry of
    /// [`BonsaiOptimizer::ranked_by_throughput`], found without building
    /// the ranking.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError`] when nothing fits the device or no
    /// configuration can hold the array (Equation 5).
    pub fn throughput_optimal(&self, array: &ArrayParams) -> Result<RankedConfig, OptimizerError> {
        let mut best = None;
        self.throughput_search(array, |c| keep_least(&mut best, c, throughput_order));
        best.ok_or(OptimizerError)
    }
}

/// Keeps in `best` the least of it and `c` under `order`. Both ranking
/// orders are total, so a running minimum is the first entry the sorted
/// ranking would have, whatever the order the search visits entries in.
fn keep_least(
    best: &mut Option<RankedConfig>,
    c: RankedConfig,
    order: fn(&RankedConfig, &RankedConfig) -> core::cmp::Ordering,
) {
    if best.as_ref().is_none_or(|b| order(&c, b).is_lt()) {
        *best = Some(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u32_array(gib: u64) -> ArrayParams {
        ArrayParams::from_bytes(gib << 30, 4)
    }

    /// The enumerate-then-sort search this crate shipped before the
    /// search costed each tree once and kept a running minimum, kept
    /// word for word (`self` became `opt`, `opt.lib` and `opt.presort`
    /// the paper's library and [`PRESORT`], and `resource::config_fits`
    /// and `resource::presorter_lut` are inlined as they were then, the
    /// presorter still counted off a built network) as the oracle the
    /// search is checked against.
    mod reference {
        use super::*;

        fn presorter_lut(chunk: usize, record_bits: u32) -> u64 {
            const CAS_LUT_32BIT: f64 = 943.0;
            let cas = bonsai_bitonic::sorter_network(chunk).cas_count() as f64;
            (cas * CAS_LUT_32BIT * f64::from(record_bits) / 32.0).round() as u64
        }

        fn config_fits(
            lib: &ComponentLibrary,
            hw: &HardwareParams,
            p: usize,
            l: usize,
            record_bits: u32,
            copies: usize,
            presorter_chunk: Option<usize>,
        ) -> bool {
            let per_tree = resource::amt_lut(lib, p, l, record_bits)
                + presorter_chunk.map_or(0, |c| presorter_lut(c, record_bits));
            let lut_ok = copies as u64 * per_tree <= hw.c_lut; // Eq. 9
            let bram_ok = copies as u64 * hw.loader_bram_bytes(l as u64) <= hw.c_bram; // Eq. 10
            lut_ok && bram_ok
        }

        fn presort_choices() -> Vec<usize> {
            vec![PRESORT, 1]
        }

        fn score(
            opt: &BonsaiOptimizer,
            array: &ArrayParams,
            config: FullConfig,
            presort: usize,
        ) -> RankedConfig {
            let FullConfig {
                throughput_p: p,
                leaves_l: l,
                unroll,
                pipeline,
            } = config;
            let latency_s = if pipeline == 1 {
                perf::eq2_latency(array, &opt.hw, p, l, presort, unroll)
            } else {
                perf::eq4_pipeline_latency(array, &opt.hw, p, pipeline)
            };
            let throughput = perf::eq7_throughput(&opt.hw, p, array.record_bytes, pipeline, unroll);
            let copies = (unroll * pipeline) as u64;
            let per_tree = resource::amt_lut(&ComponentLibrary::paper(), p, l, array.record_bits())
                + if presort > 1 {
                    presorter_lut(presort, array.record_bits())
                } else {
                    0
                };
            RankedConfig {
                config,
                presort,
                latency_s,
                throughput,
                lut: copies * per_tree,
                bram_bytes: copies * opt.hw.loader_bram_bytes(l as u64),
                stages: perf::stages(array.n_records.div_ceil(unroll as u64), l, presort),
            }
        }

        fn enumerate(
            opt: &BonsaiOptimizer,
            array: &ArrayParams,
            pipelines: &[usize],
        ) -> Vec<RankedConfig> {
            let mut out = Vec::new();
            for &pipeline in pipelines {
                for p in opt.candidate_ps() {
                    for l in opt.candidate_ls() {
                        for unroll_log in 0..=6 {
                            let unroll = 1usize << unroll_log;
                            let copies = unroll * pipeline;
                            for presort in presort_choices() {
                                let chunk = (presort > 1).then_some(presort);
                                if !config_fits(
                                    &ComponentLibrary::paper(),
                                    &opt.hw,
                                    p,
                                    l,
                                    array.record_bits(),
                                    copies,
                                    chunk,
                                ) {
                                    continue;
                                }
                                out.push(score(
                                    opt,
                                    array,
                                    FullConfig {
                                        throughput_p: p,
                                        leaves_l: l,
                                        unroll,
                                        pipeline,
                                    },
                                    presort,
                                ));
                            }
                        }
                    }
                }
            }
            out
        }

        pub(super) fn ranked_by_latency(
            opt: &BonsaiOptimizer,
            array: &ArrayParams,
        ) -> Vec<RankedConfig> {
            let mut configs = enumerate(opt, array, &[1]);
            configs.sort_by(latency_order);
            configs
        }

        pub(super) fn ranked_by_throughput(
            opt: &BonsaiOptimizer,
            array: &ArrayParams,
        ) -> Vec<RankedConfig> {
            let mut configs = enumerate(opt, array, &[1, 2, 3, 4, 6, 8]);
            configs.retain(|c| {
                perf::eq5_max_pipeline_records(
                    &opt.hw,
                    array.record_bytes,
                    c.config.leaves_l,
                    256,
                    c.config.pipeline,
                    c.config.unroll,
                ) >= array.n_records
            });
            configs.sort_by(throughput_order);
            configs
        }
    }

    /// Random hardware, record widths and sizes (2 … 2^40 records, the
    /// adaptive runtime's 1 024 and 65 536 buckets among them): the
    /// search ranks exactly as the reference does, each optimum is its
    /// ranking's first entry, and `evaluate` re-scores every ranked entry
    /// to itself.
    #[test]
    fn search_matches_the_reference_enumerate_then_sort() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x0971_4123);
        let presets = [
            HardwareParams::aws_f1(),
            HardwareParams::aws_f1_single_bank(),
            HardwareParams::hbm_u50(),
            HardwareParams::aws_f1_ssd(),
        ];
        for round in 0..200 {
            let mut hw = presets[rng.below_usize(presets.len())];
            if rng.chance_percent(75) {
                hw = hw.with_beta_dram(rng.range_u64(1, 256) as f64 * 1e9);
            }
            let record_bytes = [4u64, 8, 16, 32, 64][rng.below_usize(5)];
            let n_records = match rng.below_usize(6) {
                0 => 1 << 10,
                1 => 1 << 16,
                2 => [2, 1 << 40][rng.below_usize(2)],
                _ => {
                    let log_max = rng.range_u64(1, 40);
                    rng.range_u64(2, 1 << log_max)
                }
            };
            let array = ArrayParams::new(n_records, record_bytes);
            let opt = BonsaiOptimizer::new(hw);
            let context = format!("round {round}: n={n_records} r={record_bytes}");

            let by_latency = opt.ranked_by_latency(&array);
            assert_eq!(
                by_latency,
                reference::ranked_by_latency(&opt, &array),
                "{context}"
            );
            assert_eq!(
                opt.latency_optimal(&array).ok(),
                by_latency.first().copied(),
                "{context}"
            );
            let by_throughput = opt.ranked_by_throughput(&array);
            assert_eq!(
                by_throughput,
                reference::ranked_by_throughput(&opt, &array),
                "{context}"
            );
            assert_eq!(
                opt.throughput_optimal(&array).ok(),
                by_throughput.first().copied(),
                "{context}"
            );
            for c in by_latency.iter().chain(&by_throughput) {
                assert_eq!(
                    opt.evaluate(&array, c.config, c.presort),
                    Some(*c),
                    "{context}"
                );
            }
        }
    }

    #[test]
    fn dram_latency_optimal_matches_section_iv_a() {
        // §IV-A: "The latency-optimized configuration for this setup uses
        // a single AMT(32, 256)".
        let opt = BonsaiOptimizer::new(HardwareParams::aws_f1());
        let best = opt.latency_optimal(&u32_array(16)).expect("feasible");
        assert_eq!(best.config.throughput_p, 32);
        assert_eq!(best.config.leaves_l, 256);
        assert_eq!(best.config.unroll, 1);
        assert_eq!(best.config.pipeline, 1);
    }

    #[test]
    fn hbm_latency_optimal_unrolls_to_saturate_bandwidth() {
        // §IV-B: the HBM optimum unrolls p=32 trees until the 512 GB/s
        // tile is saturated (the paper reports λ_unrl = 16).
        let opt = BonsaiOptimizer::new(HardwareParams::hbm_u50());
        let best = opt.latency_optimal(&u32_array(8)).expect("feasible");
        assert_eq!(best.config.throughput_p, 32);
        assert!(
            best.config.unroll >= 4,
            "expected heavy unrolling, got {}",
            best.config
        );
        // Aggregate tree bandwidth reaches a large share of HBM's
        // 512 GB/s (LUTs bound the unroll factor before bandwidth does,
        // as in §IV-B where lambda = 16 forces tiny trees).
        let aggregate = best.config.unroll as f64 * 32e9;
        assert!(aggregate >= 128e9, "aggregate {aggregate}");
        // The throughput model (many 1 GiB arrays streamed through HBM)
        // must pipeline to satisfy Equation 5 and unroll to multiply
        // throughput; each pipeline is capped by the 16 GB/s host I/O
        // bus, and DRAM capacity caps the product of the lambdas.
        let small = ArrayParams::from_bytes(1 << 30, 4);
        let tp = opt.throughput_optimal(&small).expect("feasible");
        assert!(tp.config.pipeline >= 2, "{}", tp.config);
        assert!(tp.config.unroll >= 2, "{}", tp.config);
        assert!(tp.throughput >= 32e9, "throughput {}", tp.throughput);
    }

    #[test]
    fn ssd_phase_two_uses_max_leaves_low_p() {
        // §IV-C: with SSD as off-chip memory (8 GB/s), the
        // latency-optimal AMT is (8, 256): p just high enough for the
        // low bandwidth, l as large as possible.
        let hw = HardwareParams::aws_f1_ssd().with_beta_dram(8e9);
        let opt = BonsaiOptimizer::new(hw);
        let best = opt.latency_optimal(&u32_array(16)).expect("feasible");
        assert_eq!(best.config.leaves_l, 256);
        assert!(
            best.config.throughput_p * 4 >= 8,
            "p must cover 8 GB/s: {}",
            best.config
        );
        // p need not exceed the bandwidth-matching value by much: the
        // optimizer breaks latency ties toward fewer LUTs.
        assert!(best.config.throughput_p <= 16, "{}", best.config);
    }

    #[test]
    fn throughput_optimal_pipelines_for_ssd_phase_one() {
        // §IV-C phase one: a 4-deep pipeline of AMT(8, 64) saturates the
        // 8 GB/s I/O bus on the 4-bank DRAM.
        let opt = BonsaiOptimizer::new(HardwareParams::aws_f1_ssd());
        let best = opt.throughput_optimal(&u32_array(8)).expect("feasible");
        assert!(
            (best.throughput - 8e9).abs() < 1.0,
            "phase one must reach 8 GB/s, got {}",
            best.throughput
        );
    }

    #[test]
    fn ranked_list_is_sorted_and_feasible() {
        let opt = BonsaiOptimizer::new(HardwareParams::aws_f1());
        let ranked = opt.ranked_by_latency(&u32_array(4));
        assert!(ranked.len() > 20, "search space should be broad");
        assert!(ranked.windows(2).all(|w| w[0].latency_s <= w[1].latency_s));
        for c in &ranked {
            assert!(c.lut <= opt.hardware().c_lut);
            assert!(c.bram_bytes <= opt.hardware().c_bram);
        }
    }

    #[test]
    fn infeasible_hardware_yields_error() {
        let mut hw = HardwareParams::aws_f1();
        hw.c_lut = 100; // nothing fits
        let opt = BonsaiOptimizer::new(hw);
        assert_eq!(opt.latency_optimal(&u32_array(1)), Err(OptimizerError));
    }

    #[test]
    fn wide_records_remain_feasible() {
        // §II: any width up to 512 bits works; the optimizer must find
        // configurations for 16-byte records too.
        let opt = BonsaiOptimizer::new(HardwareParams::aws_f1());
        let array = ArrayParams::from_bytes(16 << 30, 16);
        let best = opt.latency_optimal(&array).expect("feasible");
        // 16-byte records reach 32 GB/s with p = 8.
        assert!(best.config.throughput_p >= 8);
    }

    #[test]
    fn low_bandwidth_shifts_resources_to_leaves() {
        // Figure 5's insight: at low beta the optimizer picks small p
        // (cheap) and max leaves; at high beta it grows p.
        let a = u32_array(16);
        let low = BonsaiOptimizer::new(HardwareParams::aws_f1().with_beta_dram(2e9))
            .latency_optimal(&a)
            .expect("feasible");
        let high = BonsaiOptimizer::new(HardwareParams::aws_f1().with_beta_dram(32e9))
            .latency_optimal(&a)
            .expect("feasible");
        assert!(low.config.throughput_p < high.config.throughput_p);
        assert_eq!(low.config.leaves_l, 256);
    }
}
