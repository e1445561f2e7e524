//! How a sort is cut into simulated tasks, and the one loop that runs
//! them.
//!
//! A merge pass merges groups of `m` runs: group `g` merges runs
//! `[g·m, (g+1)·m)` into one output run, touching nobody else's runs,
//! banks or tree state (§II–III). A `SortPlan` lowers a sort into
//! `(pass, task)` tasks, each the simulation of consecutive groups
//! against the memory the plan binds it to. The sort runs one pass at a
//! time, as the hardware does (§II, Fig. 2: every stage streams the
//! whole array back to memory and the next stage reads what it wrote):
//! [`map_pass`] spreads one pass's tasks over the calling thread and
//! scoped helper threads, and the next pass starts once they have all
//! joined. The functional sort ([`crate::functional`]) spreads its
//! presort and its merge stages through the same map.
//!
//! **Determinism guarantee.** Each task is a pure function of
//! `(config, its input runs, fan-in, memory)`: the worker count only
//! changes *where* a task is simulated, never *what* it computes.
//! Results are folded in `(pass, task)` order after each pass joins, so
//! sorted output and [`SortReport`] are bit-identical at every worker
//! count, and on failure the first failing pass's minimum failing task
//! wins. The unit tests check both plans against a thread-free oracle
//! that runs every task in order.
//!
//! **Two plans, one loop.** The plans differ only in how a pass is cut
//! and what that costs. The fused plan (`SortPlan::fused`, behind
//! [`SimEngine::try_sort`](crate::SimEngine::try_sort)) makes each pass
//! one task: one tree merging every group back to back against the
//! whole memory, adjacent groups overlapping in its pipeline. The
//! per-group plan (`SortPlan::per_group`, behind
//! `try_sort_pipelined`) makes each group a standalone simulation
//! against its [`MemoryConfig::shard_view`], so a pass costs the sum of
//! its groups: time-multiplexed on one tree with the pipeline drained
//! between them. Over the 36 non-empty cases of
//! `tests/golden_report.txt` the per-group sum is 1.00–20.4× the fused
//! total (median 1.29×): equal for one-group sorts, up to 20.4× on the
//! flash stream, where every standalone group pays the access latency
//! the fused tree hides; DESIGN.md §5 has the table and says which
//! number is quoted where.
//!
//! **Modelled overlap.** Across passes the dependencies are narrow:
//! a pass-*p+1* task merges exactly the output runs of a range of
//! pass-*p* tasks, so the plan is also a dependency tree.
//! `pipeline_overlap_cycles` is what a schedule that starts each task
//! as soon as its children drain would save over the per-pass barrier,
//! both list-scheduled from simulated cycles on the plan's virtual pool
//! ([`VIRTUAL_WORKERS`] wide for the groups, one wide for the fused
//! tree, which therefore overlaps nothing). It is modelled hardware
//! time; the host executor itself keeps the barrier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::Mutex;

#[cfg(feature = "sanitize")]
use bonsai_check::Diagnostic;
use bonsai_memsim::MemoryConfig;
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::error::SortError;
use crate::functional::presorted_runs;
use crate::passsim::{park, simulate, unpark, PassScratch};
use crate::report::{PassReport, SortReport};

/// Width of the *virtual* worker pool the per-group plan's utilization
/// counters and `pipeline_overlap_cycles` are computed against
/// (matching the 8-core reference host of the runtime lints); the fused
/// plan's pool is one wide. A deterministic list schedule of per-task
/// simulated cycles over the pool — never wall clock — feeds those
/// counters, so they are bit-identical at every real worker count and
/// on both simulation loops.
pub const VIRTUAL_WORKERS: usize = 8;

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
    /// The memory every task of the pass simulates against.
    pub(crate) memory: MemoryConfig,
}

impl PassPlan {
    /// Groups one task merges (the last task may merge fewer).
    fn groups_per_task(&self) -> usize {
        self.groups.div_ceil(self.tasks)
    }

    /// The input runs task `t` merges.
    pub(crate) fn task_runs(&self, t: usize) -> Range<usize> {
        let span = self.fan_in * self.groups_per_task();
        t * span..((t + 1) * span).min(self.runs_in)
    }
}

/// The `(pass, task)` tasks of one sort: the balanced fan-in schedule
/// ([`crate::schedule::fan_in_schedule`]) lowered to passes, how each
/// pass is cut into tasks and the memory they bind, the width of the
/// virtual pool the accounting is scheduled on, and the dependency
/// structure between tasks.
///
/// The dependencies form a tree with one root — the final pass's single
/// task — which transitively depends on every other task, so no
/// schedule can start it early: what a dependency-driven schedule saves
/// over a per-pass barrier (`pipeline_overlap_cycles`) is each pass's
/// ragged last wave, not whole passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SortPlan {
    passes: Vec<PassPlan>,
    /// First flat task id of each pass (cumulative task counts), so
    /// task ids order tasks lexicographically by `(pass, task)`.
    base: Vec<usize>,
    tasks: usize,
    /// Virtual workers the accounting is list-scheduled on.
    width: usize,
}

impl SortPlan {
    /// The fused sort of `initial_runs` presorted runs: every pass is one
    /// task, the tree merging all of the pass's groups back to back
    /// against the whole memory, accounted on a one-wide pool. Empty
    /// (zero passes) when `initial_runs <= 1`.
    #[must_use]
    pub(crate) fn fused(config: &SimEngineConfig, initial_runs: usize) -> Self {
        Self::lower(config, initial_runs, 1, |_, _| (1, config.memory))
    }

    /// The per-group sort of `initial_runs` presorted runs: every group
    /// is its own task against its share of the banks, accounted on the
    /// [`VIRTUAL_WORKERS`] pool. Empty when `initial_runs <= 1`.
    #[must_use]
    pub(crate) fn per_group(config: &SimEngineConfig, initial_runs: usize) -> Self {
        Self::lower(config, initial_runs, VIRTUAL_WORKERS, |fan_in, groups| {
            (groups, config.memory.shard_view(fan_in))
        })
    }

    /// Lowers the fan-in schedule into passes, `cut(fan_in, groups)`
    /// giving each pass's task count and memory.
    fn lower(
        config: &SimEngineConfig,
        initial_runs: usize,
        width: usize,
        cut: impl Fn(usize, usize) -> (usize, MemoryConfig),
    ) -> Self {
        let fan_ins = crate::schedule::fan_in_schedule(initial_runs as u64, config.amt.l as u64);
        let mut passes = Vec::with_capacity(fan_ins.len());
        let mut base = Vec::with_capacity(fan_ins.len());
        let mut runs = initial_runs;
        let mut tasks = 0usize;
        for &m in &fan_ins {
            let fan_in = m as usize;
            let groups = runs.div_ceil(fan_in);
            let (cut_tasks, memory) = cut(fan_in, groups);
            base.push(tasks);
            tasks += cut_tasks;
            passes.push(PassPlan {
                fan_in,
                runs_in: runs,
                groups,
                tasks: cut_tasks,
                memory,
            });
            runs = groups;
        }
        Self {
            passes,
            base,
            tasks,
            width,
        }
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

    /// Total `(pass, task)` tasks in the plan.
    #[must_use]
    pub(crate) fn tasks(&self) -> usize {
        self.tasks
    }

    /// Width of the virtual pool the accounting is scheduled on.
    #[must_use]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Flat task id of `(pass, task)`; ids are lexicographic in
    /// `(pass, task)`.
    #[must_use]
    pub(crate) fn task_id(&self, pass: usize, task: usize) -> usize {
        debug_assert!(task < self.passes[pass].tasks);
        self.base[pass] + task
    }

    /// Inverse of [`SortPlan::task_id`].
    #[must_use]
    pub(crate) fn task_of(&self, id: usize) -> (usize, usize) {
        let pass = match self.base.binary_search(&id) {
            Ok(p) => p,
            Err(p) => p - 1,
        };
        (pass, id - self.base[pass])
    }

    /// The pass-`pass − 1` tasks whose output runs `(pass, task)` merges.
    /// The ranges of one pass partition the previous pass, so every
    /// child has exactly one parent.
    ///
    /// # Panics
    ///
    /// Panics if `pass == 0` (first-pass tasks read the presorted
    /// input, they have no task dependencies).
    #[must_use]
    pub(crate) fn deps(&self, pass: usize, task: usize) -> Range<usize> {
        assert!(pass > 0, "pass-0 tasks have no dependencies");
        let per_child = self.passes[pass - 1].groups_per_task();
        let runs = self.passes[pass].task_runs(task);
        runs.start / per_child..runs.end.div_ceil(per_child)
    }

    /// The pass-`pass + 1` task that consumes `(pass, task)`'s output
    /// runs, or `None` in the final pass.
    #[must_use]
    pub(crate) fn parent(&self, pass: usize, task: usize) -> Option<usize> {
        let next = self.passes.get(pass + 1)?;
        let first_run = task * self.passes[pass].groups_per_task();
        Some(first_run / (next.fan_in * next.groups_per_task()))
    }
}

// --- Virtual utilization schedule ----------------------------------------

/// Earliest-free worker in a virtual pool.
fn argmin(free: &[u64]) -> usize {
    let mut best = 0;
    for (w, &f) in free.iter().enumerate() {
        if f < free[best] {
            best = w;
        }
    }
    best
}

/// List-schedules one pass's tasks (in task order) on a `width`-wide
/// virtual pool with the pipeline drained between passes — the barrier
/// schedule. Returns `(makespan, busy)` in simulated cycles.
fn pass_virtual_schedule(width: usize, task_cycles: impl IntoIterator<Item = u64>) -> (u64, u64) {
    let mut pool = [0u64; VIRTUAL_WORKERS];
    let free = &mut pool[..width];
    let mut busy = 0u64;
    for c in task_cycles {
        let w = argmin(free);
        free[w] += c;
        busy += c;
    }
    (free.iter().copied().max().unwrap_or(0), busy)
}

/// Deterministic makespan of the task DAG on the plan's virtual pool:
/// an event-driven list schedule that starts each task once its children
/// are done. Whenever the earliest-free virtual worker comes up, it
/// claims the ready task it can start soonest (lowest task id on ties);
/// a task is ready once every child has completed.
/// The barrier equivalent is the sum of [`pass_virtual_schedule`]
/// makespans; the difference is `pipeline_overlap_cycles`. `cycles` is
/// indexed by task id.
///
/// The earliest-free time never decreases from one claim to the next,
/// so a task whose children are done by then stays startable at once
/// for good: such tasks wait in `now`, ordered by id, and the rest in
/// `later`, ordered by `(ready_at, id)` — the same pick as a scan of all
/// ready tasks for the least `(max(free, ready_at), id)`, in
/// `O(log tasks)` a claim.
fn dag_virtual_makespan(plan: &SortPlan, cycles: &[u64]) -> u64 {
    let tasks = plan.tasks();
    if tasks == 0 {
        return 0;
    }
    let mut pool = [0u64; VIRTUAL_WORKERS];
    let free = &mut pool[..plan.width()];
    let mut done = vec![0u64; tasks];
    let mut deps_left = initial_deps_left(plan);
    let mut now: BinaryHeap<Reverse<usize>> = (0..plan.pass(0).tasks).map(Reverse).collect();
    let mut later: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut makespan = 0u64;
    for _ in 0..tasks {
        let w = argmin(free);
        while let Some(&Reverse((at, id))) = later.peek() {
            if at > free[w] {
                break;
            }
            later.pop();
            now.push(Reverse(id));
        }
        let (id, at) = match now.pop() {
            Some(Reverse(id)) => (id, free[w]),
            None => {
                let Reverse((at, id)) = later.pop().expect("a live DAG always has a ready task");
                (id, at)
            }
        };
        let (p, t) = plan.task_of(id);
        let end = at + cycles[id];
        free[w] = end;
        done[id] = end;
        makespan = makespan.max(end);
        if let Some(pt) = plan.parent(p, t) {
            let parent = plan.task_id(p + 1, pt);
            deps_left[parent] -= 1;
            if deps_left[parent] == 0 {
                let ready_at = plan
                    .deps(p + 1, pt)
                    .map(|d| done[plan.task_id(p, d)])
                    .max()
                    .unwrap_or(0);
                later.push(Reverse((ready_at, parent)));
            }
        }
    }
    makespan
}

/// Unresolved-child count per task id: 0 for pass 0 (ready at once),
/// the dependency range's length for every later task.
fn initial_deps_left(plan: &SortPlan) -> Vec<usize> {
    let mut deps_left = vec![0usize; plan.tasks()];
    for p in 1..plan.num_passes() {
        for t in 0..plan.pass(p).tasks {
            deps_left[plan.task_id(p, t)] = plan.deps(p, t).len();
        }
    }
    deps_left
}

// --- The per-pass parallel map ----------------------------------------------

/// Runs `task(scratch, item)` once for every item of `items` and
/// returns the results in item order. An item is whatever a task owns:
/// a group index for the simulator, a merge task's runs and the `&mut`
/// output range they fill for [`crate::functional`]. There is one
/// worker per `scratch` element, each handed only its own: the calling
/// thread is worker 0, and `min(scratch.len(), items) − 1` scoped
/// threads are the rest, every worker taking the next unclaimed item
/// from one shared iterator. One worker spawns nothing.
///
/// # Errors
///
/// The error of the first failing item in item order, whatever order
/// the items ran in (every item runs, so the first is always known).
///
/// # Panics
///
/// Panics if `scratch` is empty. A panicking task is re-raised with
/// its own payload once every thread has joined.
pub fn map_pass<W, T, U, E, I, F>(scratch: &mut [W], items: I, task: F) -> Result<Vec<U>, E>
where
    W: Send,
    U: Send,
    E: Send,
    I: IntoIterator<Item = T>,
    I::IntoIter: ExactSizeIterator + Send,
    F: Fn(&mut W, T) -> Result<U, E> + Sync,
{
    let items = items.into_iter();
    let count = items.len();
    let threads = scratch.len().min(count).max(1);
    let (caller, helpers) = scratch.split_first_mut().expect("a pass needs a worker");
    // The lock is held only to take the next item; the task runs
    // outside it, so a panicking task cannot poison it.
    let next = Mutex::new(items.enumerate());
    let work = |scratch: &mut W| {
        // Exact at one worker, where the caller runs every item.
        let mut done = Vec::with_capacity(count.div_ceil(threads));
        loop {
            let claimed = next.lock().expect("taking an item never panics").next();
            let Some((index, item)) = claimed else {
                return done;
            };
            done.push((index, task(scratch, item)));
        }
    };
    let mut results = std::thread::scope(|s| {
        let handles: Vec<_> = helpers[..threads - 1]
            .iter_mut()
            .map(|scratch| s.spawn(|| work(scratch)))
            .collect();
        // A panic here is re-raised by `scope` after it joins the rest.
        let mut results = work(caller);
        for handle in handles {
            match handle.join() {
                Ok(done) => results.extend(done),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    });
    results.sort_unstable_by_key(|&(index, _)| index);
    results.into_iter().map(|(_, result)| result).collect()
}

/// Resolves the worker knob: `0` means one worker per available core.
pub(crate) fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        workers
    }
}

// --- One sort, pass by pass --------------------------------------------------

/// Copies runs `range` of `runs` out as a standalone [`RunSet`]: one
/// task's input.
fn task_input<R: Record>(runs: &RunSet<R>, range: Range<usize>) -> RunSet<R> {
    let starts = runs.starts();
    let from = starts[range.start];
    let to = starts.get(range.end).copied().unwrap_or(runs.len());
    let task_starts = starts[range].iter().map(|s| s - from).collect();
    RunSet::from_parts(runs.records()[from..to].to_vec(), task_starts)
}

/// Folds one pass's task reports, in task order, into its
/// [`PassReport`]: every count is the tasks' sum, and the worker
/// counters come from the list schedule of the tasks' cycles on a
/// `width`-wide virtual pool, not from wall clock, so the report stays
/// bit-identical at every real worker count. Also returns the pass's
/// barrier makespan on that pool.
pub(crate) fn fold_pass<'a>(
    stage: u32,
    runs_in: usize,
    width: usize,
    tasks: impl Iterator<Item = &'a PassReport> + Clone,
) -> (PassReport, u64) {
    let (makespan, busy) = pass_virtual_schedule(width, tasks.clone().map(|t| t.cycles));
    let mut pass = PassReport {
        stage,
        cycles: 0,
        records: 0,
        runs_in: runs_in as u64,
        runs_out: 0,
        bytes_read: 0,
        bytes_written: 0,
        input_stalls: 0,
        output_stalls: 0,
        fast_forwarded_cycles: 0,
        busy_worker_cycles: busy,
        idle_worker_cycles: (width as u64) * makespan - busy,
    };
    for task in tasks {
        pass.cycles += task.cycles;
        pass.records += task.records;
        pass.runs_out += task.runs_out;
        pass.bytes_read += task.bytes_read;
        pass.bytes_written += task.bytes_written;
        pass.input_stalls += task.input_stalls;
        pass.output_stalls += task.output_stalls;
        pass.fast_forwarded_cycles += task.fast_forwarded_cycles;
    }
    (pass, makespan)
}

/// The engine's one pass loop: sanitizes `data`, presorts it into runs,
/// lowers those to the [`SortPlan`] `plan` builds, and runs each pass's
/// tasks over `workers` threads by [`map_pass`], every task simulated
/// against its pass's memory on its worker's scratch. A pass's output
/// is its tasks' runs, appended in task order. Accounting folds in
/// `(pass, task)` order; `pipeline_overlap_cycles` is the per-pass
/// barrier's virtual makespan minus the task DAG's, both on the plan's
/// pool.
///
/// At one worker the caller runs every task in order and calls `poll`
/// at each yield point: before every task, and inside one at
/// [`PassSim::run`](crate::passsim::PassSim::run)'s. Wider sorts never
/// call it.
#[allow(clippy::too_many_arguments)] // the engine's settings, one by one
pub(crate) fn sort<R: Record>(
    config: &SimEngineConfig,
    data: Vec<R>,
    plan: fn(&SimEngineConfig, usize) -> SortPlan,
    workers: usize,
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
    // Each worker's scratch outlives every pass. At one worker it is
    // the scratch this thread parked for the configuration, parked
    // again once the passes end, finished or failed.
    let mut scratch: Vec<PassScratch<R>> = match resolve_workers(workers) {
        1 => vec![unpark(config)],
        workers => (0..workers).map(|_| None).collect(),
    };
    let mut passes = Vec::with_capacity(plan.num_passes());
    let mut cycles = Vec::with_capacity(plan.tasks());
    let mut barrier = 0u64;
    let outcome = 'passes: {
        for p in 0..plan.num_passes() {
            let pp = plan.pass(p);
            let stage = p as u32 + 1;
            let task = |scratch: &mut PassScratch<R>, input, poll: &mut dyn FnMut()| {
                simulate(
                    config, scratch, input, pp.fan_in, pp.memory, stage, max_cycles, reference,
                    poll,
                )
            };
            let outputs = match scratch.as_mut_slice() {
                // What `map_pass` does at one worker, with a yield point
                // before each task; the first failing task ends the pass. A
                // lone task (every fused pass) takes the input, not a copy.
                [caller] => (0..pp.tasks)
                    .map(|t| {
                        poll();
                        let input = match pp.tasks {
                            1 => std::mem::replace(&mut runs, RunSet::single_run(Vec::new())),
                            _ => task_input(&runs, pp.task_runs(t)),
                        };
                        task(caller, input, &mut *poll)
                    })
                    .collect::<Result<Vec<_>, _>>(),
                pool => map_pass(pool, 0..pp.tasks, |scratch, t| {
                    task(scratch, task_input(&runs, pp.task_runs(t)), &mut || {})
                }),
            };
            let outputs = match outputs {
                Ok(outputs) => outputs,
                Err(err) => break 'passes Err(err),
            };
            let reports = outputs.iter().map(|(_, stats)| &stats.report);
            let (pass, makespan) = fold_pass(stage, pp.runs_in, plan.width(), reports.clone());
            passes.push(pass);
            barrier += makespan;
            cycles.extend(reports.map(|report| report.cycles));
            #[cfg(feature = "sanitize")]
            for (t, (_, stats)) in outputs.iter().enumerate() {
                // A task is one group only where the plan cuts by group.
                let by_group = pp.tasks == pp.groups;
                let group = |d: Diagnostic| if by_group { d.with("group", t) } else { d };
                let tagged = stats.diagnostics.iter().cloned();
                diagnostics.extend(tagged.map(|d| group(d.with("stage", stage))));
            }
            // A lone task's runs are the next input as they are; else the
            // read input's buffer takes every task's, in task order.
            runs = match <[_; 1]>::try_from(outputs) {
                Ok([(out, _)]) => out,
                Err(outputs) => {
                    let mut records = runs.into_records();
                    records.clear();
                    let mut starts = Vec::with_capacity(pp.groups);
                    for (out, _) in outputs {
                        let (out, out_starts) = out.into_parts();
                        let offset = records.len();
                        starts.extend(out_starts.into_iter().map(|s| s + offset));
                        records.extend(out);
                    }
                    RunSet::from_parts(records, starts)
                }
            };
        }
        Ok(())
    };
    if let [caller] = scratch.as_mut_slice() {
        park(config, caller.take());
    }
    outcome?;
    debug_assert!(runs.num_runs() <= 1, "the plan fully sorts");
    let mut report = SortReport::from_passes(passes, n_records, config.loader.record_bytes);
    report.pipeline_overlap_cycles = barrier.saturating_sub(dag_virtual_makespan(&plan, &cycles));
    Ok((runs.into_records(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AmtConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
    fn plan_chains_group_counts_and_partitions_deps() {
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
                if p > 0 {
                    // The dep ranges partition the previous pass exactly.
                    let mut covered = 0;
                    for t in 0..pp.tasks {
                        let d = plan.deps(p, t);
                        assert_eq!(d.start, covered);
                        assert!(!d.is_empty());
                        covered = d.end;
                        // ...and each child names this task as its parent.
                        assert!(d.clone().all(|c| plan.parent(p - 1, c) == Some(t)));
                    }
                    assert_eq!(covered, plan.pass(p - 1).tasks);
                }
            }
            assert_eq!(runs, 1, "the plan fully sorts");
            assert_eq!(plan.parent(plan.num_passes() - 1, 0), None);
            assert_eq!(
                plan.tasks(),
                (0..plan.num_passes()).map(|p| plan.pass(p).tasks).sum()
            );
        }
    }

    #[test]
    fn task_ids_are_lexicographic_and_invertible() {
        for plan in plans(100, 4) {
            let mut expect = 0;
            for p in 0..plan.num_passes() {
                for t in 0..plan.pass(p).tasks {
                    assert_eq!(plan.task_id(p, t), expect);
                    assert_eq!(plan.task_of(expect), (p, t));
                    expect += 1;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pass-0 tasks have no dependencies")]
    fn pass0_deps_panic() {
        let _ = SortPlan::per_group(&config(4), 8).deps(0, 0);
    }

    #[test]
    fn trivial_plans_are_empty() {
        for runs in [0usize, 1] {
            for plan in plans(runs, 16) {
                assert_eq!(plan.num_passes(), 0);
                assert_eq!(plan.tasks(), 0);
            }
        }
    }

    #[test]
    fn virtual_schedules_are_consistent() {
        // One pass of equal tasks fills the pool perfectly...
        let (makespan, busy) = pass_virtual_schedule(VIRTUAL_WORKERS, [10; VIRTUAL_WORKERS]);
        assert_eq!((makespan, busy), (10, 10 * VIRTUAL_WORKERS as u64));
        // ...and a one-wide pool runs them back to back.
        assert_eq!(pass_virtual_schedule(1, [10, 20]), (30, 30));
        // DAG makespan never exceeds the barrier sum and never beats
        // the critical path.
        let [plan, _] = plans(64, 4);
        let cycles: Vec<Vec<u64>> = (0..plan.num_passes())
            .map(|p| {
                (0..plan.pass(p).tasks)
                    .map(|t| 5 + (t as u64 % 3))
                    .collect()
            })
            .collect();
        let barrier: u64 = cycles
            .iter()
            .map(|c| pass_virtual_schedule(VIRTUAL_WORKERS, c.iter().copied()).0)
            .sum();
        let dag = dag_virtual_makespan(&plan, &cycles.concat());
        assert!(dag <= barrier, "{dag} vs {barrier}");
        let critical: u64 = (0..plan.num_passes())
            .map(|p| *cycles[p].iter().max().unwrap())
            .sum();
        assert!(dag >= critical.min(barrier) / 2, "sanity: {dag}");
    }

    /// [`dag_virtual_makespan`] as it was before the heaps: a scan of
    /// the whole ready list for every claim.
    fn quadratic_virtual_makespan(plan: &SortPlan, cycles: &[u64]) -> u64 {
        let tasks = plan.tasks();
        if tasks == 0 {
            return 0;
        }
        let mut free = vec![0u64; plan.width()];
        let mut done = vec![0u64; tasks];
        let mut deps_left = initial_deps_left(plan);
        // Ready tasks with the time their last child completed.
        let mut ready: Vec<(usize, u64)> = (0..plan.pass(0).tasks).map(|t| (t, 0)).collect();
        let mut makespan = 0u64;
        for _ in 0..tasks {
            let w = argmin(&free);
            // The task this worker can start soonest; ties go to the lowest
            // id, the executor's deterministic claim order.
            let (pos, _) = ready
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(id, at))| (free[w].max(at), id))
                .expect("a live DAG always has a ready task");
            let (id, at) = ready.swap_remove(pos);
            let (p, t) = plan.task_of(id);
            let end = free[w].max(at) + cycles[id];
            free[w] = end;
            done[id] = end;
            makespan = makespan.max(end);
            if let Some(pt) = plan.parent(p, t) {
                let parent = plan.task_id(p + 1, pt);
                deps_left[parent] -= 1;
                if deps_left[parent] == 0 {
                    let ready_at = plan
                        .deps(p + 1, pt)
                        .map(|d| done[plan.task_id(p, d)])
                        .max()
                        .unwrap_or(0);
                    ready.push((parent, ready_at));
                }
            }
        }
        makespan
    }

    #[test]
    fn heap_makespan_matches_the_quadratic_scan_on_random_plans() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x4EA9_0019);
        let mut pipelined = 0;
        for round in 0..300 {
            let runs = rng.range_usize(0, 700);
            let l = 1 << rng.range_usize(1, 6);
            for (fused, plan) in plans(runs, l).into_iter().enumerate() {
                // Zero-cycle tasks, equal costs (ties everywhere) and a
                // long tail: every way two ready tasks can compare.
                let spread = [1u64, 2, 50, 10_000][round % 4];
                let cycles: Vec<u64> = (0..plan.tasks()).map(|_| rng.below_u64(spread)).collect();
                let want = quadratic_virtual_makespan(&plan, &cycles);
                let ctx = format!("round {round}: {runs} runs on {l} leaves, fused {fused}");
                assert_eq!(dag_virtual_makespan(&plan, &cycles), want, "{ctx}");
                let barrier: u64 = (0..plan.num_passes())
                    .map(|p| {
                        let lo = plan.task_id(p, 0);
                        let pass = cycles[lo..lo + plan.pass(p).tasks].iter().copied();
                        pass_virtual_schedule(plan.width(), pass).0
                    })
                    .sum();
                if fused == 1 {
                    // One tree overlaps nothing: every cycle is serial.
                    assert_eq!(want, barrier, "{ctx}");
                    assert_eq!(want, cycles.iter().sum::<u64>(), "{ctx}");
                } else {
                    pipelined += usize::from(want < barrier);
                }
            }
        }
        assert!(pipelined > 20, "few plans overlapped passes: {pipelined}");
    }

    #[test]
    fn map_pass_runs_every_group_once_and_returns_them_in_order() {
        for workers in [1usize, 2, 8] {
            // No group, one, fewer than the widest pool, more than any.
            for groups in [0usize, 1, 5, 37] {
                let runs: Vec<AtomicUsize> = (0..groups).map(|_| AtomicUsize::new(0)).collect();
                // Each worker counts the groups it ran in its scratch.
                let mut ran = vec![0usize; workers];
                let out = map_pass(&mut ran, 0..groups, |ran, g| {
                    runs[g].fetch_add(1, Ordering::Relaxed);
                    *ran += 1;
                    Ok::<_, SortError>(10 * g + 1)
                });
                let want: Vec<usize> = (0..groups).map(|g| 10 * g + 1).collect();
                assert_eq!(out, Ok(want), "workers {workers} groups {groups}");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
                assert_eq!(ran.iter().sum::<usize>(), groups);
                // Only the first `min(workers, groups)` scratches are lent.
                assert!(ran[groups.max(1).min(workers)..].iter().all(|&n| n == 0));
            }
        }
    }

    #[test]
    fn map_pass_hands_out_owned_items() {
        // Disjoint `&mut` ranges of one buffer, as the functional sort's
        // merge tasks are: each task fills its own and returns its start.
        for workers in [1usize, 2, 8] {
            let mut buffer = vec![0usize; 100];
            let items = buffer.chunks_mut(7).enumerate();
            let starts = map_pass(&mut vec![(); workers], items, |(), (i, chunk)| {
                chunk.fill(i + 1);
                Ok::<_, core::convert::Infallible>(7 * i)
            });
            let want: Vec<usize> = (0..100).step_by(7).collect();
            assert_eq!(starts, Ok(want), "workers {workers}");
            assert!(buffer.iter().enumerate().all(|(at, &v)| v == at / 7 + 1));
        }
    }

    #[test]
    fn map_pass_reports_the_minimum_failing_group() {
        for workers in [1usize, 2, 8] {
            let three_failed = std::sync::atomic::AtomicBool::new(false);
            let result = map_pass(&mut vec![(); workers], 0..6, |(), g| match g {
                // With helpers, group 1 fails after group 3: its worker
                // waits while another claims and fails group 3.
                1 => {
                    while workers > 1 && !three_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    Err(SortError::livelock(1, 1))
                }
                3 => {
                    three_failed.store(true, Ordering::SeqCst);
                    Err(SortError::livelock(1, 3))
                }
                _ => Ok(g),
            });
            assert_eq!(result, Err(SortError::livelock(1, 1)), "workers {workers}");
        }
    }

    #[test]
    fn map_pass_reraises_a_panic_with_its_payload_after_every_thread_joined() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;

        for workers in [1usize, 2, 8] {
            let caller = std::thread::current().id();
            let helper_claimed = AtomicBool::new(false);
            let in_flight = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map_pass(&mut vec![(); workers], 0..16, |(), g| {
                    // With helpers, the panic comes from a spawned thread
                    // while the other workers are mid-task: the first
                    // helper to claim a group panics, and every worker
                    // holds its group until that has happened.
                    let helper = std::thread::current().id() != caller;
                    if helper && !helper_claimed.swap(true, Ordering::SeqCst) {
                        panic!("group {g} panicked");
                    }
                    if workers == 1 && g == 3 {
                        panic!("group {g} panicked");
                    }
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    while workers > 1 && !helper_claimed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    Ok::<_, SortError>(g)
                })
            }));
            let payload = outcome.expect_err("a task panicked");
            let text = payload
                .downcast_ref::<String>()
                .expect("the task's own payload, not a replacement");
            assert!(text.ends_with(" panicked"), "workers {workers}: {text}");
            assert_eq!(in_flight.load(Ordering::SeqCst), 0, "workers {workers}");
        }
    }

    /// Each plan without threads, scratch reuse or the plan's cut: passes
    /// in order, every task in order on a new scratch, the shared fold.
    /// The fused sort is one simulation per pass on the whole memory,
    /// accounted on a one-wide pool; the per-group sort one simulation
    /// per group on its bank share, on the [`VIRTUAL_WORKERS`] pool. The
    /// first failing task in `(pass, task)` order wins.
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
            let (per_task, memory, width) = if fused {
                (runs_in, config.memory, 1)
            } else {
                (fan_in, config.memory.shard_view(fan_in), VIRTUAL_WORKERS)
            };
            let mut records = Vec::with_capacity(runs.len());
            let mut starts = Vec::new();
            let mut reports = Vec::new();
            for lo in (0..runs_in).step_by(per_task) {
                let input = task_input(&runs, lo..(lo + per_task).min(runs_in));
                // A new scratch per task: the oracle never reuses one.
                let (out, task) = simulate(
                    config,
                    &mut None,
                    input,
                    fan_in,
                    memory,
                    stage,
                    max_cycles,
                    false,
                    &mut || {},
                )?;
                for run in out.iter_runs() {
                    starts.push(records.len());
                    records.extend_from_slice(run);
                }
                reports.push(task.report);
            }
            passes.push(fold_pass(stage, runs_in, width, reports.iter()).0);
            runs = RunSet::from_parts(records, starts);
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
            // Small inputs make passes narrower than the pool, large
            // ones far wider.
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
                // The fused sort runs on the calling thread alone.
                let workers: &[usize] = if fused { &[1] } else { &[1, 2, 0] };
                for &workers in workers {
                    let ctx = format!(
                        "round {round} AMT({p}, {l}) len {len} fused {fused} workers {workers}"
                    );
                    let sort = |bound| {
                        let mut engine = SimEngine::new(cfg).with_max_pass_cycles(bound);
                        if fused {
                            engine.try_sort(data.clone())
                        } else {
                            engine.try_sort_pipelined(data.clone(), workers)
                        }
                    };
                    let (out, mut rep) = sort(u64::MAX).expect("unbounded passes finish");
                    assert_eq!(out, sorted, "{ctx}: output");
                    // The oracle models no overlap, and one tree has
                    // none; everything else is exact.
                    if !fused {
                        rep.pipeline_overlap_cycles = 0;
                    }
                    assert_eq!(rep, report, "{ctx}: report");
                    assert_eq!(sort(bound).map(|_| ()), livelock, "{ctx}: BON040");
                }
            }
        }
    }
}
