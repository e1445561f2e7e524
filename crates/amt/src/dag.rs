//! How a sort is cut into simulated tasks, and the one loop that runs
//! them.
//!
//! A merge pass merges groups of `m` runs: group `g` merges runs
//! `[g·m, (g+1)·m)` into one output run, reading no other group's runs
//! (§II–III). A `SortPlan` lowers a sort into passes, each cut into
//! tasks, each the simulation of consecutive groups against the sort's
//! whole memory. The sort runs on the calling thread, one pass at a
//! time, as the hardware does (§II, Fig. 2: every stage streams the
//! whole array back to memory and the next stage reads what it wrote):
//! a pass's tasks run in order, and the next pass reads the runs they
//! wrote. A sort holds two buffers, the
//! pass's input and the next pass's, and no other copy of its records:
//! a task's leaves read its runs where they lie in the first, and its
//! root's zero filter appends its output runs to the second (§V-B); the
//! two swap between passes. Every plan runs this one body, whatever its
//! task count.
//!
//! **Determinism.** Each task is a pure function of `(config, its input
//! runs, fan-in)`. Every task of a sort runs on the thread's one pass
//! scratch, which a reset makes equal to a new one, so sorted output
//! and [`SortReport`] depend on nothing else. Reports fold in
//! `(pass, task)` order, and the first failing task ends the sort with
//! its error. The unit tests check both plans against an oracle that
//! builds a new scratch for every task.
//!
//! **Two plans, one loop.** The plans differ only in whether a pass's
//! groups share the tree's pipeline. The fused plan (`SortPlan::fused`,
//! behind [`SimEngine::try_sort`](crate::SimEngine::try_sort)) makes
//! each pass one task: one tree merging every group back to back,
//! adjacent groups overlapping in its pipeline. The per-group plan
//! (`SortPlan::per_group`, behind `try_sort_pipelined`) makes each group
//! a standalone simulation, so a pass costs the sum of its groups:
//! time-multiplexed on one tree with the pipeline drained between them.
//! Every task of either plan streams from the whole memory, as the
//! loader issues each batch on any free bank port (§V-A). Over the 36
//! non-empty cases of `tests/golden_report.txt` the per-group sum is
//! 1.00–20.4× the fused total (median 1.29×): equal for one-group
//! sorts, up to 20.4× on the flash stream, where every standalone group
//! pays the access latency the fused tree hides; DESIGN.md §5, "Two
//! timings", has the table and says which number is quoted where.

use std::ops::Range;

#[cfg(feature = "sanitize")]
use bonsai_check::Diagnostic;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::error::SortError;
use crate::functional::presorted_runs;
use crate::passsim::{park, simulate, swap_passes, unpark};
use crate::report::{PassReport, SortReport};

/// One merge pass of a [`SortPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PassPlan {
    /// Runs merged per group this pass (`≤ ℓ`).
    pub(crate) fan_in: usize,
    /// Sorted runs entering the pass.
    pub(crate) runs_in: usize,
    /// Merge groups (= runs leaving the pass): `ceil(runs_in / fan_in)`.
    pub(crate) groups: usize,
    /// Tasks the pass is cut into, each simulating consecutive groups:
    /// one for the fused tree, one per group otherwise.
    pub(crate) tasks: usize,
    /// The pass's stage number (1-based, as in §II).
    pub(crate) stage: u32,
}

impl PassPlan {
    /// The input runs task `t` merges (the last task may merge fewer).
    pub(crate) fn task_runs(&self, t: usize) -> Range<usize> {
        let span = self.fan_in * self.groups.div_ceil(self.tasks);
        t * span..((t + 1) * span).min(self.runs_in)
    }
}

/// The passes of one sort: the balanced fan-in schedule
/// ([`crate::schedule::fan_in_schedule`]) lowered to passes, each with
/// how it is cut into tasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SortPlan {
    passes: Vec<PassPlan>,
}

impl SortPlan {
    /// The fused sort of `initial_runs` presorted runs: every pass is one
    /// task, the tree merging all of the pass's groups back to back.
    /// Empty (zero passes) when `initial_runs <= 1`.
    #[must_use]
    pub(crate) fn fused(config: &SimEngineConfig, initial_runs: usize) -> Self {
        Self::lower(config, initial_runs, |_| 1)
    }

    /// The per-group sort of `initial_runs` presorted runs: every group
    /// is its own task. Empty when `initial_runs <= 1`.
    #[must_use]
    pub(crate) fn per_group(config: &SimEngineConfig, initial_runs: usize) -> Self {
        Self::lower(config, initial_runs, |groups| groups)
    }

    /// Lowers the fan-in schedule into passes, `cut(groups)` giving each
    /// pass's task count.
    fn lower(config: &SimEngineConfig, initial_runs: usize, cut: fn(usize) -> usize) -> Self {
        let fan_ins = crate::schedule::fan_in_schedule(initial_runs as u64, config.amt.l as u64);
        let mut passes = Vec::with_capacity(fan_ins.len());
        let mut runs = initial_runs;
        for (p, &m) in fan_ins.iter().enumerate() {
            let fan_in = m as usize;
            let groups = runs.div_ceil(fan_in);
            passes.push(PassPlan {
                fan_in,
                runs_in: runs,
                groups,
                tasks: cut(groups),
                stage: p as u32 + 1,
            });
            runs = groups;
        }
        Self { passes }
    }

    /// Number of merge passes.
    #[must_use]
    pub(crate) fn num_passes(&self) -> usize {
        self.passes.len()
    }

    /// The plan of pass `p` (0-based).
    #[must_use]
    pub(crate) fn pass(&self, p: usize) -> PassPlan {
        self.passes[p]
    }
}

// --- One sort, pass by pass --------------------------------------------------

/// Folds one pass's task reports, in task order, into its
/// [`PassReport`]: every count is the tasks' sum.
fn fold_pass<'a>(stage: u32, tasks: impl IntoIterator<Item = &'a PassReport>) -> PassReport {
    let mut pass = PassReport {
        stage,
        cycles: 0,
        records: 0,
        runs_in: 0,
        runs_out: 0,
        bytes_read: 0,
        bytes_written: 0,
        input_stalls: 0,
        output_stalls: 0,
        fast_forwarded_cycles: 0,
    };
    for task in tasks {
        pass.cycles += task.cycles;
        pass.records += task.records;
        pass.runs_in += task.runs_in;
        pass.runs_out += task.runs_out;
        pass.bytes_read += task.bytes_read;
        pass.bytes_written += task.bytes_written;
        pass.input_stalls += task.input_stalls;
        pass.output_stalls += task.output_stalls;
        pass.fast_forwarded_cycles += task.fast_forwarded_cycles;
    }
    pass
}

/// The engine's one pass loop: sanitizes `data`, presorts it into runs,
/// lowers those to the [`SortPlan`] `plan` builds, and runs each pass's
/// tasks in order on the calling thread, every task simulated against
/// the whole memory on one scratch: the one this thread parked for the
/// configuration, parked again once the passes end, finished or failed.
/// A task reads its runs where they lie in the pass's input and appends
/// its output runs to the other of the sort's two buffers, which the
/// next pass reads; a pass's report is its tasks' fold.
///
/// `poll` is called at every yield point: before each task, and inside
/// one at [`PassSim::run`](crate::passsim::PassSim::run)'s.
pub(crate) fn sort<R: Record>(
    config: &SimEngineConfig,
    data: Vec<R>,
    plan: fn(&SimEngineConfig, usize) -> SortPlan,
    max_cycles: u64,
    reference: bool,
    poll: &mut dyn FnMut(),
    #[cfg(feature = "sanitize")] diagnostics: &mut Vec<Diagnostic>,
) -> Result<(Vec<R>, SortReport), SortError> {
    let n_records = data.len() as u64;
    let sanitized = data.into_iter().map(Record::sanitize).collect();
    // Presorting is pipelined with the first merge stage in hardware
    // (§VI-C1), so it costs no cycles; it only shortens the stage count.
    let mut runs = presorted_runs(sanitized, config.initial_run_len());
    let plan = plan(config, runs.num_runs());
    let mut scratch = unpark(config);
    // The next pass's input, which every task appends to; it swaps with
    // the input the pass read once the pass ends.
    let mut next = (Vec::new(), Vec::new());
    let mut passes = Vec::with_capacity(plan.num_passes());
    let outcome = 'passes: {
        for p in 0..plan.num_passes() {
            let pp = plan.pass(p);
            next.0.reserve(runs.len());
            next.1.reserve(pp.groups);
            let mut pass = fold_pass(pp.stage, []);
            #[cfg(feature = "sanitize")]
            let found_before = diagnostics.len();
            for t in 0..pp.tasks {
                poll();
                // The first failing task ends the sort.
                let stats = match simulate(
                    config,
                    &mut scratch,
                    &runs,
                    &pp,
                    t,
                    &mut next,
                    max_cycles,
                    reference,
                    &mut *poll,
                ) {
                    Ok(stats) => stats,
                    Err(err) => {
                        // A failed pass reports its error, not its findings.
                        #[cfg(feature = "sanitize")]
                        diagnostics.truncate(found_before);
                        break 'passes Err(err);
                    }
                };
                pass = fold_pass(pp.stage, [&pass, &stats.report]);
                #[cfg(feature = "sanitize")]
                diagnostics.extend(
                    stats
                        .diagnostics
                        .into_iter()
                        .map(|d| d.with("stage", pp.stage)),
                );
            }
            passes.push(pass);
            swap_passes(&mut runs, &mut next);
        }
        Ok(())
    };
    park(config, scratch);
    outcome?;
    debug_assert!(runs.num_runs() <= 1, "the plan fully sorts");
    let report = SortReport::from_passes(passes, n_records, config.loader.record_bytes);
    Ok((runs.into_records(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AmtConfig;
    use bonsai_records::run::RunSet;

    /// An engine configuration with an `l`-leaf tree, for plans.
    fn config(l: usize) -> SimEngineConfig {
        SimEngineConfig::dram_sorter(AmtConfig::new(1, l), 4)
    }

    /// Both plans of `runs` presorted runs on an `l`-leaf tree: the
    /// per-group plan, then the fused one.
    fn plans(runs: usize, l: usize) -> [SortPlan; 2] {
        let cfg = config(l);
        [SortPlan::per_group(&cfg, runs), SortPlan::fused(&cfg, runs)]
    }

    #[test]
    fn plan_chains_group_counts_and_partitions_runs() {
        // 9375 runs on 16 leaves: 4 passes, fan-ins 8, 8, 16, 16.
        for plan in plans(9375, 16) {
            assert_eq!(plan.num_passes(), 4);
            let mut runs = 9375;
            for p in 0..plan.num_passes() {
                let pp = plan.pass(p);
                assert_eq!(pp.runs_in, runs);
                assert_eq!(pp.groups, runs.div_ceil(pp.fan_in));
                // The tasks' input ranges partition the pass input.
                let mut merged = 0;
                for t in 0..pp.tasks {
                    assert_eq!(pp.task_runs(t).start, merged);
                    merged = pp.task_runs(t).end;
                }
                assert_eq!(merged, runs);
                runs = pp.groups;
            }
            assert_eq!(runs, 1, "the plan fully sorts");
        }
    }

    #[test]
    fn trivial_plans_are_empty() {
        for runs in [0usize, 1] {
            for plan in plans(runs, 16) {
                assert_eq!(plan.num_passes(), 0);
            }
        }
    }

    /// Copies runs `range` of `runs` out as a standalone [`RunSet`]: one
    /// task's input.
    fn task_input<R: Record>(runs: &RunSet<R>, range: Range<usize>) -> RunSet<R> {
        let starts = runs.starts();
        let from = starts[range.start];
        let to = starts.get(range.end).copied().unwrap_or(runs.len());
        let task_starts = starts[range].iter().map(|s| s - from).collect();
        RunSet::from_parts(runs.records()[from..to].to_vec(), task_starts)
    }

    /// Each plan without scratch reuse, in-place buffers or the plan's
    /// cut: passes in order, every task's input copied out and simulated
    /// in order on a new scratch, the shared fold. The fused sort is one
    /// simulation per pass; the per-group sort one simulation per group.
    /// The first failing task in `(pass, task)` order wins.
    fn barrier_oracle<R: Record>(
        config: &SimEngineConfig,
        data: Vec<R>,
        fused: bool,
        max_cycles: u64,
    ) -> Result<(Vec<R>, SortReport), SortError> {
        let n = data.len() as u64;
        let sanitized = data.into_iter().map(Record::sanitize).collect();
        let mut runs = RunSet::from_chunks(sanitized, config.initial_run_len());
        let l = config.amt.l as u64;
        let fan_ins = crate::schedule::fan_in_schedule(runs.num_runs() as u64, l);
        let mut passes = Vec::new();
        for (p, &m) in fan_ins.iter().enumerate() {
            let (fan_in, stage, runs_in) = (m as usize, p as u32 + 1, runs.num_runs());
            let per_task = if fused { runs_in } else { fan_in };
            let mut next = (Vec::with_capacity(runs.len()), Vec::new());
            let mut reports = Vec::new();
            for lo in (0..runs_in).step_by(per_task) {
                let input = task_input(&runs, lo..(lo + per_task).min(runs_in));
                // The copy is a whole pass of one task.
                let whole = PassPlan {
                    fan_in,
                    runs_in: input.num_runs(),
                    groups: input.num_runs().div_ceil(fan_in),
                    tasks: 1,
                    stage,
                };
                // A new scratch per task: the oracle never reuses one.
                let task = simulate(
                    config,
                    &mut None,
                    &input,
                    &whole,
                    0,
                    &mut next,
                    max_cycles,
                    false,
                    &mut || {},
                )?;
                reports.push(task.report);
            }
            passes.push(fold_pass(stage, &reports));
            runs = RunSet::from_parts(next.0, next.1);
        }
        let report = SortReport::from_passes(passes, n, config.loader.record_bytes);
        Ok((runs.into_records(), report))
    }

    #[test]
    fn dag_matches_the_barrier_oracle_on_random_shapes() {
        use crate::SimEngine;
        use bonsai_records::U32Rec;

        let mut rng = bonsai_rng::Rng::seed_from_u64(0x0DA6_BA22);
        for round in 0..10 {
            let (p, l) = (1 << rng.below_usize(4), 1 << rng.range_usize(1, 6));
            let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
            if rng.chance_percent(25) {
                cfg = cfg.without_presort();
            }
            let len = rng.range_usize(1, if round % 2 == 0 { 20_000 } else { 300 });
            let data: Vec<U32Rec> = (0..len).map(|_| U32Rec::new(rng.next_u32())).collect();
            for fused in [false, true] {
                let (sorted, report) = barrier_oracle(&cfg, data.clone(), fused, u64::MAX)
                    .expect("unbounded passes finish");
                // Half the final task's cycles: the last pass always
                // trips the bound, earlier (smaller) tasks only
                // sometimes — the oracle says which (pass, task) fails
                // first.
                let bound = report.passes.last().map_or(1, |pass| pass.cycles / 2);
                let livelock = barrier_oracle(&cfg, data.clone(), fused, bound).map(|_| ());
                let ctx = format!("round {round} AMT({p}, {l}) len {len} fused {fused}");
                let sort = |bound| {
                    let mut engine = SimEngine::new(cfg).with_max_pass_cycles(bound);
                    if fused {
                        engine.try_sort(data.clone())
                    } else {
                        engine.try_sort_yielding(data.clone(), &mut || {})
                    }
                };
                let (out, rep) = sort(u64::MAX).expect("unbounded passes finish");
                assert_eq!(out, sorted, "{ctx}: output");
                assert_eq!(rep, report, "{ctx}: report");
                assert_eq!(sort(bound).map(|_| ()), livelock, "{ctx}: BON040");
            }
        }
    }
}
