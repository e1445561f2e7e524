//! The reconfiguration planner: when is reprogramming the FPGA worth it?
//!
//! §I of the paper: "FPGA programmability allows us to leverage Bonsai
//! to quickly implement the optimal merge tree configuration for any
//! problem size and memory hierarchy" — but switching bitstreams costs
//! real time (4.3 s measured between the SSD sorter's phases, Table V).
//! Given a stream of sorting jobs, [`ReconfigPlanner`] decides per job
//! whether to keep the currently programmed AMT or pay the
//! reprogramming cost for the job's optimal one, minimizing total time.

use crate::optimizer::{BonsaiOptimizer, FullConfig, OptimizerError, RankedConfig};
use crate::params::ArrayParams;

/// What the planner decided for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Keep the currently programmed configuration.
    Keep,
    /// Reprogram to a new configuration (pays the reprogramming time).
    Reprogram,
}

/// The planner's verdict for one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPlan {
    /// Keep or reprogram.
    pub decision: Decision,
    /// The configuration the job will run on (with its presort length).
    pub config: FullConfig,
    /// Presorted run length used with the configuration.
    pub presort: usize,
    /// Job execution time, excluding reprogramming.
    pub sort_seconds: f64,
    /// Total charged time (sort + reprogramming if any).
    pub total_seconds: f64,
}

/// A greedy per-job reconfiguration planner over a Bonsai optimizer.
///
/// Greedy is optimal per job against a "keep forever" adversary but not
/// globally (a job sequence alternating sizes can defeat it); the
/// [`ReconfigPlanner::total_seconds`] accounting lets callers compare
/// policies.
///
/// The optimizer search behind each class's plan runs again only when
/// that class's array changes: a stream of same-size jobs pays for the
/// keep-or-reprogram decision and the accounting alone.
///
/// # Example
///
/// ```
/// use bonsai_model::{ArrayParams, HardwareParams};
/// use bonsai_model::reconfig::ReconfigPlanner;
///
/// let mut planner = ReconfigPlanner::new(HardwareParams::aws_f1(), 4.3);
/// // First job always programs the device.
/// let first = planner.plan_job(&ArrayParams::from_bytes(16 << 30, 4))?;
/// assert_eq!(first.total_seconds, first.sort_seconds + 4.3);
/// // An identical job keeps the bitstream.
/// let second = planner.plan_job(&ArrayParams::from_bytes(16 << 30, 4))?;
/// assert_eq!(second.total_seconds, second.sort_seconds);
/// # Ok::<(), bonsai_model::OptimizerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReconfigPlanner {
    optimizer: BonsaiOptimizer,
    reprogram_seconds: f64,
    current: Option<(FullConfig, usize)>,
    total_seconds: f64,
    reprograms: u32,
    latency_search: Remembered,
    throughput_search: Remembered,
}

/// One optimizer search and the array it answered. A search is a pure
/// function of the hardware and the array, so the planner keeps the
/// last one per job class, one entry each: the design is chosen once
/// and reused, as a loaded bitstream is (§I).
#[derive(Debug, Clone, Copy, Default)]
struct Remembered(Option<(ArrayParams, Result<RankedConfig, OptimizerError>)>);

impl Remembered {
    /// The search for `array`: the remembered one if it answered the
    /// same array, else `search(array)`, which is remembered instead.
    fn get(
        &mut self,
        array: &ArrayParams,
        search: impl FnOnce(&ArrayParams) -> Result<RankedConfig, OptimizerError>,
    ) -> Result<RankedConfig, OptimizerError> {
        match self.0 {
            Some((seen, result)) if seen == *array => result,
            _ => {
                let result = search(array);
                self.0 = Some((*array, result));
                result
            }
        }
    }
}

impl ReconfigPlanner {
    /// Creates a planner for hardware `hw` with the given bitstream
    /// reprogramming cost in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `reprogram_seconds` is negative.
    pub fn new(hw: crate::params::HardwareParams, reprogram_seconds: f64) -> Self {
        assert!(
            reprogram_seconds >= 0.0,
            "reprogramming cost must be non-negative"
        );
        Self {
            optimizer: BonsaiOptimizer::new(hw),
            reprogram_seconds,
            current: None,
            total_seconds: 0.0,
            reprograms: 0,
            latency_search: Remembered::default(),
            throughput_search: Remembered::default(),
        }
    }

    /// The currently programmed configuration, if any.
    pub fn current(&self) -> Option<FullConfig> {
        self.current.map(|(c, _)| c)
    }

    /// Total charged time across all planned jobs.
    pub fn total_seconds(&self) -> f64 {
        self.total_seconds
    }

    /// Number of reprogramming events so far.
    pub fn reprograms(&self) -> u32 {
        self.reprograms
    }

    /// Latency of running `array` on the currently loaded design, if it
    /// is feasible for this array.
    fn current_latency(&self, array: &ArrayParams) -> Option<RankedConfig> {
        let (config, presort) = self.current?;
        self.optimizer.evaluate(array, config, presort)
    }

    /// Plans one job: keep the loaded design if its latency beats the
    /// optimal design plus the reprogramming cost; otherwise reprogram.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError`] when no configuration fits the device.
    pub fn plan_job(&mut self, array: &ArrayParams) -> Result<JobPlan, OptimizerError> {
        self.plan_job_with_deadline(array, None)
    }

    /// [`ReconfigPlanner::plan_job`] with a per-job latency deadline.
    ///
    /// The greedy keep rule minimizes *total* time, which can strand a
    /// deadline job on a stale design: keeping may be globally cheaper
    /// while still missing this job's deadline. With `deadline_s` set,
    /// a keep that misses the deadline is overridden — the planner
    /// reprograms whenever the optimal design would meet the deadline
    /// and the loaded one would not. A deadline neither design can meet
    /// falls back to the plain greedy rule (the job is late either way;
    /// minimize total time).
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError`] when no configuration fits the device.
    pub fn plan_job_with_deadline(
        &mut self,
        array: &ArrayParams,
        deadline_s: Option<f64>,
    ) -> Result<JobPlan, OptimizerError> {
        let optimizer = &self.optimizer;
        let best = self
            .latency_search
            .get(array, |array| optimizer.latency_optimal(array))?;
        let keep = match self.current_latency(array) {
            Some(kept) if kept.latency_s <= best.latency_s + self.reprogram_seconds => {
                let busts_deadline = deadline_s.is_some_and(|d| {
                    kept.latency_s > d && best.latency_s + self.reprogram_seconds <= d
                });
                (!busts_deadline).then_some((kept, kept.latency_s))
            }
            _ => None,
        };
        Ok(self.charge(keep, &best, best.latency_s))
    }

    /// Plans one *throughput-class* job: same keep-or-reprogram rule,
    /// but designs are compared by sustained throughput (Equation 5)
    /// rather than latency — `array.total_bytes() / throughput` is the
    /// charged sort time. This is the selection a batch scheduler uses
    /// for large jobs, where aggregate bytes/second matters more than
    /// any single job's completion time.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError`] when no configuration fits the device.
    pub fn plan_throughput_job(&mut self, array: &ArrayParams) -> Result<JobPlan, OptimizerError> {
        let optimizer = &self.optimizer;
        let best = self
            .throughput_search
            .get(array, |array| optimizer.throughput_optimal(array))?;
        let best_s = array.total_bytes() as f64 / best.throughput;
        let keep = self
            .current_latency(array)
            .map(|kept| (kept, array.total_bytes() as f64 / kept.throughput))
            .filter(|(_, kept_s)| *kept_s <= best_s + self.reprogram_seconds);
        Ok(self.charge(keep, &best, best_s))
    }

    /// The keep-or-reprogram bookkeeping both plans share: with `keep`
    /// (the loaded design and its sort time) the job runs on the loaded
    /// design; without, the device is reprogrammed to `best`, whose sort
    /// takes `best_s`. Either way the job's charge joins the total.
    fn charge(
        &mut self,
        keep: Option<(RankedConfig, f64)>,
        best: &RankedConfig,
        best_s: f64,
    ) -> JobPlan {
        let plan = match keep {
            Some((kept, kept_s)) => JobPlan {
                decision: Decision::Keep,
                config: kept.config,
                presort: kept.presort,
                sort_seconds: kept_s,
                total_seconds: kept_s,
            },
            None => {
                self.current = Some((best.config, best.presort));
                self.reprograms += 1;
                JobPlan {
                    decision: Decision::Reprogram,
                    config: best.config,
                    presort: best.presort,
                    sort_seconds: best_s,
                    total_seconds: best_s + self.reprogram_seconds,
                }
            }
        };
        self.total_seconds += plan.total_seconds;
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HardwareParams;

    fn job(gib: u64) -> ArrayParams {
        ArrayParams::from_bytes(gib << 30, 4)
    }

    #[test]
    fn first_job_programs_then_identical_jobs_keep() {
        let mut p = ReconfigPlanner::new(HardwareParams::aws_f1(), 4.3);
        let a = p.plan_job(&job(16)).expect("feasible");
        assert_eq!(a.decision, Decision::Reprogram);
        for _ in 0..5 {
            let next = p.plan_job(&job(16)).expect("feasible");
            assert_eq!(next.decision, Decision::Keep);
        }
        assert_eq!(p.reprograms(), 1);
    }

    #[test]
    fn small_config_changes_are_not_worth_reprogramming() {
        // 16 GiB and 8 GiB want the same AMT(32, 256): keep.
        let mut p = ReconfigPlanner::new(HardwareParams::aws_f1(), 4.3);
        p.plan_job(&job(16)).expect("feasible");
        let next = p.plan_job(&job(8)).expect("feasible");
        assert_eq!(next.decision, Decision::Keep);
    }

    #[test]
    fn huge_gain_justifies_reprogramming() {
        // Program for tiny arrays on a low-bandwidth box, then hit a big
        // job where the loaded design is compute-starved.
        let hw = HardwareParams::aws_f1().with_beta_dram(2e9);
        let mut p = ReconfigPlanner::new(hw, 4.3);
        p.plan_job(&job(1)).expect("feasible");
        // Back on full bandwidth the tiny-p design would crawl; a fresh
        // planner on the fast box reprograms for the big job.
        let mut fast = ReconfigPlanner::new(HardwareParams::aws_f1(), 4.3);
        fast.plan_job(&job(1)).expect("feasible");
        let first_cfg = fast.current().expect("programmed");
        let big = fast.plan_job(&job(32)).expect("feasible");
        // Whether it kept or reprogrammed, the charged time must be the
        // cheaper of the two options.
        if big.decision == Decision::Reprogram {
            assert_ne!(fast.current().expect("programmed"), first_cfg);
        }
        let keep_alternative = BonsaiOptimizer::new(HardwareParams::aws_f1())
            .evaluate(&job(32), first_cfg, 16)
            .map(|c| c.latency_s);
        if let Some(keep_s) = keep_alternative {
            assert!(big.total_seconds <= keep_s + 1e-9 || big.decision == Decision::Keep);
        }
    }

    #[test]
    fn zero_cost_reprogramming_always_chases_the_optimum() {
        let mut p = ReconfigPlanner::new(HardwareParams::aws_f1(), 0.0);
        p.plan_job(&job(1)).expect("feasible");
        let big = p.plan_job(&job(32)).expect("feasible");
        // With free reprogramming, total equals the per-job optimum.
        let best = BonsaiOptimizer::new(HardwareParams::aws_f1())
            .latency_optimal(&job(32))
            .expect("feasible");
        assert!(big.total_seconds <= best.latency_s + 1e-9);
    }

    #[test]
    fn deadline_forces_reprogram_only_when_the_optimum_meets_it() {
        // Load a design tuned for tiny jobs on a crawling memory, then
        // submit a big job: keeping is greedily fine only because the
        // optimum is also slow — but with a deadline the optimum meets
        // and the kept design misses, the planner must reprogram.
        let hw = HardwareParams::aws_f1().with_beta_dram(2e9);
        let mut p = ReconfigPlanner::new(hw, 4.3);
        p.plan_job(&job(1)).expect("feasible");
        let kept_cfg = p.current().expect("programmed");
        let best = BonsaiOptimizer::new(hw)
            .latency_optimal(&job(32))
            .expect("feasible");
        let kept = BonsaiOptimizer::new(hw)
            .evaluate(&job(32), kept_cfg, 16)
            .map(|c| c.latency_s);
        // A deadline between the optimum (+ reprogram) and the kept
        // latency exists only if keeping is genuinely slower.
        if let Some(kept_s) = kept.filter(|&k| k > best.latency_s + 4.3) {
            let deadline = (best.latency_s + 4.3 + kept_s) / 2.0;
            let plan = p
                .plan_job_with_deadline(&job(32), Some(deadline))
                .expect("feasible");
            assert_eq!(plan.decision, Decision::Reprogram);
            assert!(plan.sort_seconds <= deadline);
        }
        // An impossible deadline falls back to the greedy rule: an
        // identical follow-up job keeps the (now optimal) design.
        let next = p
            .plan_job_with_deadline(&job(32), Some(1e-12))
            .expect("feasible");
        assert_eq!(next.decision, Decision::Keep);
    }

    #[test]
    fn throughput_plan_keeps_and_charges_bytes_over_throughput() {
        let mut p = ReconfigPlanner::new(HardwareParams::aws_f1(), 4.3);
        let first = p.plan_throughput_job(&job(16)).expect("feasible");
        assert_eq!(first.decision, Decision::Reprogram);
        let best = BonsaiOptimizer::new(HardwareParams::aws_f1())
            .throughput_optimal(&job(16))
            .expect("feasible");
        let expect_s = job(16).total_bytes() as f64 / best.throughput;
        assert!((first.sort_seconds - expect_s).abs() < 1e-9);
        // An identical job keeps the loaded throughput-optimal design.
        let second = p.plan_throughput_job(&job(16)).expect("feasible");
        assert_eq!(second.decision, Decision::Keep);
        assert_eq!(p.reprograms(), 1);
    }

    #[test]
    fn latency_and_throughput_plans_share_one_device_state() {
        // One FPGA: a throughput plan's reprogram is visible to the next
        // latency plan (and can satisfy it without another reprogram).
        let mut p = ReconfigPlanner::new(HardwareParams::aws_f1(), 4.3);
        p.plan_throughput_job(&job(16)).expect("feasible");
        let loaded = p.current().expect("programmed");
        let next = p.plan_job(&job(16)).expect("feasible");
        if next.decision == Decision::Keep {
            assert_eq!(p.current().expect("programmed"), loaded);
        }
        assert!(p.reprograms() >= 1);
    }

    /// A planner that remembers its searches decides every job as one
    /// that searches again for each: over seeded sequences of latency
    /// and throughput jobs, sizes repeating and changing, three record
    /// widths, every hardware preset and with and without deadlines,
    /// every [`JobPlan`], the reprogram count and the charged total are
    /// equal to the last bit.
    #[test]
    fn remembered_searches_plan_every_job_as_fresh_ones() {
        let presets = [
            HardwareParams::aws_f1(),
            HardwareParams::aws_f1_single_bank(),
            HardwareParams::hbm_u50(),
            HardwareParams::aws_f1_ssd(),
        ];
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x9EC0_0031);
        for (round, hw) in presets.into_iter().cycle().take(12).enumerate() {
            let reprogram_s = [0.0, 2e-4, 4.3][round % 3];
            let mut remembering = ReconfigPlanner::new(hw, reprogram_s);
            let mut searching = ReconfigPlanner::new(hw, reprogram_s);
            let mut array = ArrayParams::new(1 << 10, 4);
            for job in 0..160 {
                // Keep the size for a while, then jump: to another
                // bucket, record width or a size already seen.
                if rng.chance_percent(40) {
                    let records = 1u64 << rng.range_u64(4, 34);
                    let width = [4, 8, 16][rng.below_usize(3)];
                    array = ArrayParams::new(records, width);
                }
                // The oracle searches for every job.
                searching.latency_search = Remembered::default();
                searching.throughput_search = Remembered::default();
                let plan = |planner: &mut ReconfigPlanner| match job % 5 {
                    0 | 3 => planner.plan_throughput_job(&array),
                    1 => planner.plan_job(&array),
                    _ => {
                        let deadline = 10f64.powf(rng_deadline(round, job));
                        planner.plan_job_with_deadline(&array, Some(deadline))
                    }
                };
                let want = plan(&mut searching);
                let got = plan(&mut remembering);
                let ctx = format!("round {round} job {job} {array:?}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(remembering.current(), searching.current(), "{ctx}");
                assert_eq!(remembering.reprograms(), searching.reprograms(), "{ctx}");
                assert_eq!(
                    remembering.total_seconds().to_bits(),
                    searching.total_seconds().to_bits(),
                    "{ctx}"
                );
            }
            assert!(remembering.reprograms() > 1, "round {round}: no switch");
        }

        /// A deadline exponent from 10⁻⁷ to 10¹ s, the same for both
        /// planners of one job.
        fn rng_deadline(round: usize, job: usize) -> f64 {
            let mut rng = bonsai_rng::Rng::seed_from_u64((round * 1000 + job) as u64);
            -7.0 + 8.0 * rng.next_f64()
        }
    }

    #[test]
    fn accounting_sums_jobs_and_reprograms() {
        let mut p = ReconfigPlanner::new(HardwareParams::aws_f1(), 4.3);
        let a = p.plan_job(&job(4)).expect("feasible");
        let b = p.plan_job(&job(4)).expect("feasible");
        assert!((p.total_seconds() - a.total_seconds - b.total_seconds).abs() < 1e-12);
    }
}
