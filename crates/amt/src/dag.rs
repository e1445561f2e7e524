//! The merge groups of a sort and how they are spread across threads.
//!
//! A merge pass is a set of *independent* merge groups: group `g`
//! merges runs `[g·m, (g+1)·m)` into one output run, touching nobody
//! else's runs, banks or tree state (§II–III — each group is its own
//! engine fed by banked memory). `SortPlan` lowers a sort into those
//! `(pass, group)` tasks. The sort runs one pass at a time, as the
//! hardware does (§II, Fig. 2: every stage streams the whole array back
//! to memory and the next stage reads what it wrote): [`map_pass`]
//! spreads one pass's groups over the calling thread and scoped helper
//! threads, and the next pass starts once they have all joined. The
//! functional sort ([`crate::functional`]) spreads its presort and its
//! merge stages through the same map.
//!
//! **Determinism guarantee.** Each group is a pure function of
//! `(config, its input runs, fan-in)`, simulated against a private
//! memory built from [`bonsai_memsim::MemoryConfig::shard_view`]: the
//! worker count only changes *where* a group is simulated, never *what*
//! it computes. Results are folded in `(pass, group)` order after each
//! pass joins, so sorted output and [`SortReport`] are bit-identical at
//! every worker count, and on failure the first failing pass's minimum
//! failing group wins. The unit tests check this against a thread-free
//! oracle that runs every group in order.
//!
//! **Timing model.** Each group is charged the cycles of its standalone
//! simulation and a pass reports their sum, i.e. the groups
//! time-multiplexed on one tree with the pipeline drained between
//! groups. The fused engine ([`SimEngine::sort`](crate::SimEngine::sort))
//! instead overlaps adjacent groups in the tree pipeline. Over the 36
//! non-empty cases of `tests/golden_report.txt` the per-group sum is
//! 1.00–20.4× the fused total (median 1.29×): equal for one-group
//! sorts, up to 20.4× on the flash stream, where every standalone group
//! pays the access latency the fused tree hides; DESIGN.md §5 has the
//! table and says which number is quoted where.
//!
//! **Modelled overlap.** Across passes the dependencies are narrow:
//! pass-*p+1* group *g* merges exactly the output runs of pass-*p*
//! groups `[g·m, (g+1)·m)`, so the plan is also a dependency tree.
//! `pipeline_overlap_cycles` is what a schedule that starts each group
//! as soon as its children drain would save over the per-pass barrier,
//! both list-scheduled from simulated cycles on the [`VIRTUAL_WORKERS`]
//! reference pool. It is modelled hardware time; the host executor
//! itself keeps the barrier.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

#[cfg(feature = "sanitize")]
use bonsai_check::Diagnostic;
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::error::SortError;
use crate::functional::presorted_runs;
use crate::passsim::{simulate, PassScratch, PassStats};
use crate::report::{PassReport, SortReport};

/// Size of the fixed *virtual* worker pool the utilization counters and
/// the `pipeline_overlap_cycles` metric are computed against (matching
/// the 8-core reference host of the runtime lints). A deterministic
/// list schedule of per-group simulated cycles over this pool — never
/// wall clock — feeds those counters, so they are bit-identical at
/// every real worker count and on both simulation loops.
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
}

/// The `(pass, group)` tasks of one sort: the balanced fan-in schedule
/// ([`crate::schedule::fan_in_schedule`]) lowered to per-pass group
/// counts plus the child-range dependency structure.
///
/// The dependencies form a tree with one root — the final pass's single
/// group — which transitively depends on every other task, so no
/// schedule can start it early: what a dependency-driven schedule saves
/// over a per-pass barrier (`pipeline_overlap_cycles`) is each pass's
/// ragged last wave, not whole passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SortPlan {
    passes: Vec<PassPlan>,
    /// First flat task id of each pass (cumulative group counts), so
    /// task ids order tasks lexicographically by `(pass, group)`.
    base: Vec<usize>,
    tasks: usize,
}

impl SortPlan {
    /// Lowers a sort of `initial_runs` presorted runs on an `l`-leaf
    /// tree into its tasks. Empty (zero passes) when `initial_runs
    /// <= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a power of two `>= 2` (as
    /// [`crate::schedule::fan_in_schedule`]).
    #[must_use]
    pub(crate) fn new(initial_runs: usize, l: usize) -> Self {
        let fan_ins = crate::schedule::fan_in_schedule(initial_runs as u64, l as u64);
        let mut passes = Vec::with_capacity(fan_ins.len());
        let mut base = Vec::with_capacity(fan_ins.len());
        let mut runs = initial_runs;
        let mut tasks = 0usize;
        for &m in &fan_ins {
            let fan_in = m as usize;
            let groups = runs.div_ceil(fan_in);
            base.push(tasks);
            tasks += groups;
            passes.push(PassPlan {
                fan_in,
                runs_in: runs,
                groups,
            });
            runs = groups;
        }
        Self {
            passes,
            base,
            tasks,
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

    /// Total `(pass, group)` tasks in the plan.
    #[must_use]
    pub(crate) fn tasks(&self) -> usize {
        self.tasks
    }

    /// Flat task id of `(pass, group)`; ids are lexicographic in
    /// `(pass, group)`.
    #[must_use]
    pub(crate) fn task_id(&self, pass: usize, group: usize) -> usize {
        debug_assert!(group < self.passes[pass].groups);
        self.base[pass] + group
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

    /// The pass-`pass − 1` groups feeding `(pass, group)`'s leaves:
    /// `[group·m, min((group+1)·m, prev_groups))` for fan-in `m`. The
    /// ranges of one pass partition the previous pass, so every child
    /// has exactly one parent.
    ///
    /// # Panics
    ///
    /// Panics if `pass == 0` (first-pass groups read the presorted
    /// input, they have no task dependencies).
    #[must_use]
    pub(crate) fn deps(&self, pass: usize, group: usize) -> core::ops::Range<usize> {
        assert!(pass > 0, "pass-0 groups have no dependencies");
        let m = self.passes[pass].fan_in;
        let prev = self.passes[pass - 1].groups;
        group * m..((group + 1) * m).min(prev)
    }

    /// The pass-`pass + 1` group that consumes `(pass, group)`'s output
    /// run, or `None` in the final pass.
    #[must_use]
    pub(crate) fn parent_group(&self, pass: usize, group: usize) -> Option<usize> {
        let next = self.passes.get(pass + 1)?;
        Some(group / next.fan_in)
    }
}

// --- Virtual utilization schedule ----------------------------------------

/// Earliest-free worker in the virtual pool.
fn argmin(free: &[u64; VIRTUAL_WORKERS]) -> usize {
    let mut best = 0;
    for (w, &f) in free.iter().enumerate() {
        if f < free[best] {
            best = w;
        }
    }
    best
}

/// List-schedules one pass's groups (in group order) on the virtual
/// pool with the pipeline drained between passes — the barrier
/// schedule. Returns `(makespan, busy)` in simulated cycles.
fn pass_virtual_schedule(group_cycles: impl IntoIterator<Item = u64>) -> (u64, u64) {
    let mut free = [0u64; VIRTUAL_WORKERS];
    let mut busy = 0u64;
    for c in group_cycles {
        let w = argmin(&free);
        free[w] += c;
        busy += c;
    }
    (free.into_iter().max().unwrap_or(0), busy)
}

/// Deterministic makespan of the group DAG on the virtual pool: an
/// event-driven list schedule that starts each task once its children
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
    let mut free = [0u64; VIRTUAL_WORKERS];
    let mut done = vec![0u64; tasks];
    let mut deps_left = initial_deps_left(plan);
    let mut now: BinaryHeap<Reverse<usize>> = (0..plan.pass(0).groups).map(Reverse).collect();
    let mut later: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut makespan = 0u64;
    for _ in 0..tasks {
        let w = argmin(&free);
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
        let (p, g) = plan.task_of(id);
        let end = at + cycles[id];
        free[w] = end;
        done[id] = end;
        makespan = makespan.max(end);
        if let Some(pg) = plan.parent_group(p, g) {
            let parent = plan.task_id(p + 1, pg);
            deps_left[parent] -= 1;
            if deps_left[parent] == 0 {
                let ready_at = plan
                    .deps(p + 1, pg)
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
/// the dependency range's length for every later group.
fn initial_deps_left(plan: &SortPlan) -> Vec<usize> {
    let mut deps_left = vec![0usize; plan.tasks()];
    for p in 1..plan.num_passes() {
        for g in 0..plan.pass(p).groups {
            deps_left[plan.task_id(p, g)] = plan.deps(p, g).len();
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

/// The loop both of [`SimEngine`](crate::SimEngine)'s sorts run:
/// sanitizes `data`, presorts it into runs, lowers those to their
/// [`SortPlan`], and hands each pass the previous pass's output runs.
/// `pass` returns the pass's output runs and report.
pub(crate) fn run_plan<R: Record>(
    config: &SimEngineConfig,
    data: Vec<R>,
    mut pass: impl FnMut(RunSet<R>, PassPlan, u32) -> Result<(RunSet<R>, PassReport), SortError>,
) -> Result<(Vec<R>, SortReport, SortPlan), SortError> {
    let n_records = data.len() as u64;
    let sanitized = data.into_iter().map(Record::sanitize).collect();
    // Presorting is pipelined with the first merge stage in hardware
    // (§VI-C1), so it costs no cycles; it only shortens the stage count.
    let mut runs = presorted_runs(sanitized, config.initial_run_len());
    let plan = SortPlan::new(runs.num_runs(), config.amt.l);
    let mut passes = Vec::with_capacity(plan.num_passes());
    for p in 0..plan.num_passes() {
        let (next, report) = pass(runs, plan.pass(p), p as u32 + 1)?;
        runs = next;
        passes.push(report);
    }
    debug_assert!(runs.num_runs() <= 1, "the plan fully sorts");
    let report = SortReport::from_passes(passes, n_records, config.loader.record_bytes);
    Ok((runs.into_records(), report, plan))
}

/// Copies group `g`'s runs (`[g·fan_in, (g+1)·fan_in)`, clamped) out of
/// the pass input as a standalone [`RunSet`].
fn group_input<R: Record>(runs: &RunSet<R>, g: usize, fan_in: usize) -> RunSet<R> {
    let lo = g * fan_in;
    let hi = ((g + 1) * fan_in).min(runs.num_runs());
    let mut records = Vec::new();
    let mut starts = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        starts.push(records.len());
        records.extend_from_slice(runs.run(i));
    }
    RunSet::from_parts(records, starts)
}

/// Folds one pass's groups, in group order, into its [`PassReport`];
/// also returns the pass's barrier makespan on the virtual pool. The
/// utilization counters come from that deterministic list schedule of
/// the per-group cycle costs, not from wall clock, so the report stays
/// bit-identical at every real worker count.
fn fold_pass<'a>(
    stage: u32,
    records: u64,
    runs_in: usize,
    groups: impl ExactSizeIterator<Item = &'a PassStats> + Clone,
    #[cfg(feature = "sanitize")] diagnostics: &mut Vec<Diagnostic>,
) -> (PassReport, u64) {
    let (makespan, busy) = pass_virtual_schedule(groups.clone().map(|g| g.report.cycles));
    let mut pass = PassReport {
        stage,
        cycles: 0,
        records,
        runs_in: runs_in as u64,
        runs_out: groups.len() as u64,
        bytes_read: 0,
        bytes_written: 0,
        input_stalls: 0,
        output_stalls: 0,
        fast_forwarded_cycles: 0,
        busy_worker_cycles: busy,
        idle_worker_cycles: (VIRTUAL_WORKERS as u64) * makespan - busy,
    };
    for group in groups.clone().map(|g| &g.report) {
        pass.cycles += group.cycles;
        pass.bytes_read += group.bytes_read;
        pass.bytes_written += group.bytes_written;
        pass.input_stalls += group.input_stalls;
        pass.output_stalls += group.output_stalls;
        pass.fast_forwarded_cycles += group.fast_forwarded_cycles;
    }
    #[cfg(feature = "sanitize")]
    for (g, group) in groups.enumerate() {
        let tagged = group.diagnostics.iter().cloned();
        diagnostics.extend(tagged.map(|d| d.with("stage", stage).with("group", g)));
    }
    (pass, makespan)
}

/// Sorts `data` one pass at a time, each pass's merge groups spread
/// over `workers` threads by [`map_pass`], every group simulated
/// against its own bank view on its worker's scratch. Accounting folds
/// in `(pass, group)` order; `pipeline_overlap_cycles` is the per-pass
/// barrier's virtual makespan minus the group DAG's, both on the
/// [`VIRTUAL_WORKERS`] reference pool.
///
/// At one worker the caller runs every group in order and calls `poll`
/// at each yield point: before every group, and inside one at
/// [`PassSim::run`](crate::passsim::PassSim::run)'s. Wider sorts never
/// call it.
#[allow(clippy::too_many_arguments)] // the engine's settings, one by one
pub(crate) fn sort<R: Record>(
    config: &SimEngineConfig,
    data: Vec<R>,
    workers: usize,
    max_cycles: u64,
    reference: bool,
    poll: &mut dyn FnMut(),
    #[cfg(feature = "sanitize")] diagnostics: &mut Vec<Diagnostic>,
) -> Result<(Vec<R>, SortReport), SortError> {
    let n_records = data.len() as u64;
    // Each worker's scratch outlives every pass: at one worker, the
    // caller's lasts the whole sort.
    let mut scratch: Vec<PassScratch<R>> = (0..resolve_workers(workers)).map(|_| None).collect();
    let mut cycles = Vec::new();
    let mut barrier = 0u64;
    let (sorted, mut report, plan) = run_plan(config, data, |runs, pp, stage| {
        let memory = config.memory.shard_view(pp.fan_in);
        let group = |scratch: &mut PassScratch<R>, g: usize, poll: &mut dyn FnMut()| {
            let input = group_input(&runs, g, pp.fan_in);
            let (out, stats) = simulate(
                config, scratch, input, pp.fan_in, memory, stage, max_cycles, reference, poll,
            )?;
            // Each group leaves exactly one sorted run.
            Ok::<_, SortError>((out.into_records(), stats))
        };
        let outputs = match scratch.as_mut_slice() {
            // What `map_pass` does at one worker, with a yield point
            // before each group; the first failing group ends the pass.
            [caller] => (0..pp.groups)
                .map(|g| {
                    poll();
                    group(caller, g, &mut *poll)
                })
                .collect::<Result<Vec<_>, _>>()?,
            pool => map_pass(pool, 0..pp.groups, |scratch, g| {
                group(scratch, g, &mut || {})
            })?,
        };
        let (pass, makespan) = fold_pass(
            stage,
            n_records,
            pp.runs_in,
            outputs.iter().map(|(_, stats)| stats),
            #[cfg(feature = "sanitize")]
            diagnostics,
        );
        barrier += makespan;
        cycles.extend(outputs.iter().map(|(_, stats)| stats.report.cycles));
        // The pass input is read; its buffer takes the pass output.
        let mut records = runs.into_records();
        records.clear();
        let mut starts = Vec::with_capacity(pp.groups);
        for (out, _) in outputs {
            starts.push(records.len());
            records.extend(out);
        }
        Ok((RunSet::from_parts(records, starts), pass))
    })?;
    report.pipeline_overlap_cycles = barrier.saturating_sub(dag_virtual_makespan(&plan, &cycles));
    Ok((sorted, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn plan_chains_group_counts_and_partitions_deps() {
        // 9375 runs on 16 leaves: 4 passes, fan-ins 8, 8, 16, 16.
        let plan = SortPlan::new(9375, 16);
        assert_eq!(plan.num_passes(), 4);
        let mut runs = 9375;
        for p in 0..plan.num_passes() {
            let pp = plan.pass(p);
            assert_eq!(pp.runs_in, runs);
            assert_eq!(pp.groups, runs.div_ceil(pp.fan_in));
            runs = pp.groups;
            if p > 0 {
                // The dep ranges partition the previous pass exactly.
                let mut covered = 0;
                for g in 0..pp.groups {
                    let d = plan.deps(p, g);
                    assert_eq!(d.start, covered);
                    assert!(!d.is_empty());
                    covered = d.end;
                    // ...and each child names this group as its parent.
                    assert!(d.clone().all(|c| plan.parent_group(p - 1, c) == Some(g)));
                }
                assert_eq!(covered, plan.pass(p - 1).groups);
            }
        }
        assert_eq!(runs, 1, "the plan fully sorts");
        assert_eq!(plan.parent_group(plan.num_passes() - 1, 0), None);
        assert_eq!(
            plan.tasks(),
            (0..plan.num_passes()).map(|p| plan.pass(p).groups).sum()
        );
    }

    #[test]
    fn task_ids_are_lexicographic_and_invertible() {
        let plan = SortPlan::new(100, 4);
        let mut expect = 0;
        for p in 0..plan.num_passes() {
            for g in 0..plan.pass(p).groups {
                assert_eq!(plan.task_id(p, g), expect);
                assert_eq!(plan.task_of(expect), (p, g));
                expect += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "pass-0 groups have no dependencies")]
    fn pass0_deps_panic() {
        let _ = SortPlan::new(8, 4).deps(0, 0);
    }

    #[test]
    fn trivial_plans_are_empty() {
        for runs in [0usize, 1] {
            let plan = SortPlan::new(runs, 16);
            assert_eq!(plan.num_passes(), 0);
            assert_eq!(plan.tasks(), 0);
        }
    }

    #[test]
    fn virtual_schedules_are_consistent() {
        // One pass of equal groups fills the pool perfectly.
        let (makespan, busy) = pass_virtual_schedule([10; VIRTUAL_WORKERS]);
        assert_eq!((makespan, busy), (10, 10 * VIRTUAL_WORKERS as u64));
        // DAG makespan never exceeds the barrier sum and never beats
        // the critical path.
        let plan = SortPlan::new(64, 4);
        let cycles: Vec<Vec<u64>> = (0..plan.num_passes())
            .map(|p| {
                (0..plan.pass(p).groups)
                    .map(|g| 5 + (g as u64 % 3))
                    .collect()
            })
            .collect();
        let barrier: u64 = cycles
            .iter()
            .map(|c| pass_virtual_schedule(c.iter().copied()).0)
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
        let mut free = [0u64; VIRTUAL_WORKERS];
        let mut done = vec![0u64; tasks];
        let mut deps_left = initial_deps_left(plan);
        // Ready tasks with the time their last child completed.
        let mut ready: Vec<(usize, u64)> = (0..plan.pass(0).groups).map(|g| (g, 0)).collect();
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
            let (p, g) = plan.task_of(id);
            let end = free[w].max(at) + cycles[id];
            free[w] = end;
            done[id] = end;
            makespan = makespan.max(end);
            if let Some(pg) = plan.parent_group(p, g) {
                let parent = plan.task_id(p + 1, pg);
                deps_left[parent] -= 1;
                if deps_left[parent] == 0 {
                    let ready_at = plan
                        .deps(p + 1, pg)
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
            let plan = SortPlan::new(runs, l);
            // Zero-cycle tasks, equal costs (ties everywhere) and a
            // long tail: every way two ready tasks can compare.
            let spread = [1u64, 2, 50, 10_000][round % 4];
            let cycles: Vec<u64> = (0..plan.tasks()).map(|_| rng.below_u64(spread)).collect();
            let want = quadratic_virtual_makespan(&plan, &cycles);
            assert_eq!(
                dag_virtual_makespan(&plan, &cycles),
                want,
                "round {round}: {runs} runs on {l} leaves"
            );
            let barrier: u64 = (0..plan.num_passes())
                .map(|p| {
                    let lo = plan.task_id(p, 0);
                    pass_virtual_schedule(cycles[lo..lo + plan.pass(p).groups].iter().copied()).0
                })
                .sum();
            pipelined += usize::from(want < barrier);
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

    /// The per-pass barrier without threads or scratch reuse: passes in
    /// order, every group in order on a new scratch, the shared fold.
    /// The first failing group in `(pass, group)` order wins.
    fn barrier_oracle<R: Record>(
        config: &SimEngineConfig,
        data: Vec<R>,
        max_cycles: u64,
    ) -> Result<(Vec<R>, SortReport), SortError> {
        let n = data.len() as u64;
        let sanitized = data.into_iter().map(Record::sanitize).collect();
        let mut runs = RunSet::from_chunks(sanitized, config.initial_run_len());
        let plan = SortPlan::new(runs.num_runs(), config.amt.l);
        let mut passes = Vec::new();
        for p in 0..plan.num_passes() {
            let PassPlan { fan_in, groups, .. } = plan.pass(p);
            let stage = p as u32 + 1;
            let mut records = Vec::with_capacity(runs.len());
            let mut starts = Vec::with_capacity(groups);
            let mut stats = Vec::with_capacity(groups);
            for g in 0..groups {
                let input = group_input(&runs, g, fan_in);
                // A new scratch per group: the oracle never reuses one.
                let memory = config.memory.shard_view(fan_in);
                let (out, group) = simulate(
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
                starts.push(records.len());
                records.extend(out.into_records());
                stats.push(group);
            }
            let (pass, _) = fold_pass(
                stage,
                n,
                runs.num_runs(),
                stats.iter(),
                #[cfg(feature = "sanitize")]
                &mut Vec::new(),
            );
            passes.push(pass);
            runs = RunSet::from_parts(records, starts);
        }
        let report = SortReport::from_passes(passes, n, config.loader.record_bytes);
        Ok((runs.into_records(), report))
    }

    #[test]
    fn dag_matches_the_barrier_oracle_on_random_shapes() {
        use crate::{AmtConfig, SimEngine};
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
            let (sorted, report) =
                barrier_oracle(&cfg, data.clone(), u64::MAX).expect("unbounded passes finish");
            // Half the final group's cycles: the last pass always trips
            // the bound, earlier (smaller) groups only sometimes — the
            // oracle says which (pass, group) fails first.
            let bound = report.passes.last().map_or(1, |pass| pass.cycles / 2);
            let livelock = barrier_oracle(&cfg, data.clone(), bound).map(|_| ());
            for workers in [1usize, 2, 0] {
                let ctx = format!("round {round} AMT({p}, {l}) len {len} workers {workers}");
                let (out, mut rep) = SimEngine::new(cfg).sort_pipelined(data.clone(), workers);
                assert_eq!(out, sorted, "{ctx}: output");
                // The oracle models no overlap; everything else is exact.
                rep.pipeline_overlap_cycles = 0;
                assert_eq!(rep, report, "{ctx}: report");
                let bounded = SimEngine::new(cfg)
                    .with_max_pass_cycles(bound)
                    .try_sort_pipelined(data.clone(), workers)
                    .map(|_| ());
                assert_eq!(bounded, livelock, "{ctx}: BON040");
            }
        }
    }
}
