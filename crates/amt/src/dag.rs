//! The group DAG: the one way a sort is split across threads.
//!
//! A merge pass is a set of *independent* merge groups: group `g`
//! merges runs `[g·m, (g+1)·m)` into one output run, touching nobody
//! else's runs, banks or tree state (§II–III — each group is its own
//! engine fed by banked memory). Across passes the dependencies are just
//! as narrow: pass-*p+1* group *g* merges exactly the output runs of
//! pass-*p* groups `[g·m, (g+1)·m)` (its leaves), and can start the
//! moment *those* groups have drained — regardless of the rest of pass
//! *p*. This module lowers a sort into `(pass, group)` tasks over that
//! dependency tree ([`SortPlan`]) and executes it with work-stealing
//! workers ([`execute_dag`]).
//!
//! **Determinism guarantee.** Each task is a pure function of `(config,
//! its input runs, fan-in)`, simulated against a private
//! [`Memory`] built from [`bonsai_memsim::MemoryConfig::shard_view`]:
//! the DAG only changes *when* a group is simulated, never *what* it
//! computes. Results land in per-task slots and the accounting is folded
//! in `(pass, group)` order after the DAG drains, so the worker count
//! affects wall-clock time only — sorted output and [`SortReport`] are
//! bit-identical at every worker count, and on failure the minimum
//! `(pass, group)` task's error wins. The unit tests check all of this
//! against a thread-free per-pass list schedule (the *barrier* oracle),
//! which slices each group's input out of the previous pass's folded
//! run set instead of concatenating child outputs.
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
//! **Model checking.** The readiness/claim protocol is written against
//! the [`SyncOps`] facade, so `tests/mc_dag.rs` instantiates the same
//! code with `bonsai_mc::sync::McSync` and exhaustively explores its
//! schedules at small sizes (2 workers, 2-pass/4-group plan).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

#[cfg(feature = "sanitize")]
use bonsai_check::Diagnostic;
use bonsai_mc::facade::SyncOps;
use bonsai_memsim::Memory;
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::error::SortError;
use crate::passsim::PassSim;
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
pub struct PassPlan {
    /// Runs merged per group this pass (`≤ ℓ`).
    pub fan_in: usize,
    /// Sorted runs entering the pass.
    pub runs_in: usize,
    /// Merge groups (= runs leaving the pass): `ceil(runs_in / fan_in)`.
    pub groups: usize,
}

/// The `(pass, group)` task DAG of one sort: the balanced fan-in
/// schedule ([`crate::schedule::fan_in_schedule`]) lowered to per-pass
/// group counts plus the child-range dependency structure.
///
/// The DAG is a tree with one root — the final pass's single group —
/// which transitively depends on every other task, so no schedule can
/// start it early: what the DAG saves over a per-pass barrier is each
/// pass's ragged last wave, not whole passes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SortPlan {
    passes: Vec<PassPlan>,
    /// First flat task id of each pass (cumulative group counts), so
    /// task ids order tasks lexicographically by `(pass, group)`.
    base: Vec<usize>,
    tasks: usize,
}

impl SortPlan {
    /// Lowers a sort of `initial_runs` presorted runs on an `l`-leaf
    /// tree into its task DAG. Empty (zero passes) when `initial_runs
    /// <= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is not a power of two `>= 2` (as
    /// [`crate::schedule::fan_in_schedule`]).
    #[must_use]
    pub fn new(initial_runs: usize, l: usize) -> Self {
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
    pub fn num_passes(&self) -> usize {
        self.passes.len()
    }

    /// The plan of pass `p` (0-based).
    #[must_use]
    pub fn pass(&self, p: usize) -> PassPlan {
        self.passes[p]
    }

    /// Total `(pass, group)` tasks in the DAG.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Flat task id of `(pass, group)`; ids are lexicographic in
    /// `(pass, group)`.
    #[must_use]
    pub fn task_id(&self, pass: usize, group: usize) -> usize {
        debug_assert!(group < self.passes[pass].groups);
        self.base[pass] + group
    }

    /// Inverse of [`SortPlan::task_id`].
    #[must_use]
    pub fn task_of(&self, id: usize) -> (usize, usize) {
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
    pub fn deps(&self, pass: usize, group: usize) -> core::ops::Range<usize> {
        assert!(pass > 0, "pass-0 groups have no dependencies");
        let m = self.passes[pass].fan_in;
        let prev = self.passes[pass - 1].groups;
        group * m..((group + 1) * m).min(prev)
    }

    /// The pass-`pass + 1` group that consumes `(pass, group)`'s output
    /// run, or `None` in the final pass.
    #[must_use]
    pub fn parent_group(&self, pass: usize, group: usize) -> Option<usize> {
        let next = self.passes.get(pass + 1)?;
        Some(group / next.fan_in)
    }

    /// The most tasks that can ever be ready (claimable) at once; it
    /// caps [`execute_dag`]'s thread count.
    ///
    /// For this layered tree-reduction DAG that is the widest pass's
    /// group count: initially only pass 0 is ready, and thereafter a
    /// pass-*p+1* group becomes ready only once its `fan_in ≥ 2`
    /// pass-*p* children resolved — each arrival at the frontier
    /// retires at least two departures, so the frontier never grows
    /// past the widest single pass.
    #[must_use]
    pub fn max_ready_width(&self) -> usize {
        self.passes.iter().map(|p| p.groups).max().unwrap_or(0)
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
/// event-driven list schedule mirroring the real executor. Whenever the
/// earliest-free virtual worker comes up, it claims the ready task it
/// can start soonest (lowest task id on ties, matching the executor's
/// claim preference); a task is ready once every child has completed.
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

// --- The ready/claim protocol ---------------------------------------------

/// Lifecycle of one task's output slot.
enum Slot<T> {
    /// Not resolved yet.
    Empty,
    /// Succeeded; output waiting for its parent (or final collection).
    Done(T),
    /// Failed, or cancelled because a child failed.
    Failed,
    /// Output consumed by the parent.
    Taken,
}

/// Everything the workers share, behind one mutex. The simulation work
/// itself always runs *outside* the lock; the lock only covers claim,
/// store and readiness bookkeeping.
struct ExecState<T, M> {
    /// Task ids whose dependencies have all resolved, not yet claimed;
    /// a min-heap, claims take the lowest id.
    ready: BinaryHeap<Reverse<usize>>,
    /// Unresolved-child count per task.
    deps_left: Vec<usize>,
    slots: Vec<Slot<T>>,
    meta: Vec<Option<M>>,
    /// Minimum failed task id and its error (task ids are lexicographic
    /// in `(pass, group)`, so min id = the first failure a per-pass
    /// barrier would report).
    failure: Option<(usize, SortError)>,
    /// First panic payload out of a task; re-raised after the drain.
    panic_msg: Option<String>,
    /// Tasks not yet resolved; 0 = drained, workers exit.
    remaining: usize,
}

struct Shared<S: SyncOps, T: Send, M: Send> {
    plan: SortPlan,
    state: S::Mutex<ExecState<T, M>>,
    ready_cv: S::Condvar,
}

/// Resolves task `id` under the lock: stores its slot, records a
/// failure, retires it from the drain count, unlocks any parent whose
/// children are now all resolved, and wakes the pool. `notify_all`
/// (not `notify_one`): a resolve can simultaneously publish new ready
/// work *and* be the final drain — every parked worker's predicate may
/// have flipped, and a single wakeup could strand the rest (the exact
/// lost-wakeup shape `tests/mc_dag.rs` checks for).
fn resolve<S: SyncOps, T: Send, M: Send>(
    shared: &Shared<S, T, M>,
    state: &mut ExecState<T, M>,
    id: usize,
    slot: Slot<T>,
    err: Option<SortError>,
) {
    state.slots[id] = slot;
    if let Some(err) = err {
        match &state.failure {
            Some((prev, _)) if *prev <= id => {}
            _ => state.failure = Some((id, err)),
        }
    }
    state.remaining -= 1;
    let (pass, group) = shared.plan.task_of(id);
    if let Some(pg) = shared.plan.parent_group(pass, group) {
        let parent = shared.plan.task_id(pass + 1, pg);
        state.deps_left[parent] -= 1;
        if state.deps_left[parent] == 0 {
            state.ready.push(Reverse(parent));
        }
    }
    S::notify_all(&shared.ready_cv);
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "DAG task panicked".to_string())
}

/// The work-stealing loop: claim the lowest ready task, move its
/// children's outputs out of their slots, run it outside the lock,
/// resolve. A task whose children failed resolves as `Failed` without
/// running (cancellation), so the DAG always drains and the pool always
/// terminates. The worker owns one `W`, handed to every task it runs
/// and dropped when the DAG has drained.
fn worker_loop<S, T, M, W, F>(shared: &Shared<S, T, M>, run_task: &F)
where
    S: SyncOps,
    T: Send,
    M: Send,
    W: Default,
    F: Fn(&mut W, usize, usize, Vec<T>) -> Result<(T, M), SortError>,
{
    let mut scratch = W::default();
    loop {
        let guard = S::lock(&shared.state);
        let mut guard = S::wait_while(&shared.ready_cv, &shared.state, guard, |s| {
            s.ready.is_empty() && s.remaining > 0
        });
        // Lowest id first: a deterministic preference for earlier
        // (pass, group) work, which keeps the claim order close to the
        // virtual-schedule model (correctness never depends on it).
        let Some(Reverse(id)) = guard.ready.pop() else {
            break; // remaining == 0: the DAG is drained
        };
        let (pass, group) = shared.plan.task_of(id);
        let mut inputs = Vec::new();
        let mut dep_failed = false;
        if pass > 0 {
            let deps = shared.plan.deps(pass, group);
            inputs.reserve(deps.len());
            for d in deps {
                let child = shared.plan.task_id(pass - 1, d);
                match core::mem::replace(&mut guard.slots[child], Slot::Taken) {
                    Slot::Done(t) => inputs.push(t),
                    Slot::Failed => dep_failed = true,
                    Slot::Empty | Slot::Taken => {
                        unreachable!("ready task with an unresolved or reused child")
                    }
                }
            }
        }
        if dep_failed {
            resolve(shared, &mut guard, id, Slot::Failed, None);
            continue;
        }
        drop(guard);
        // A panicking task (e.g. a user Ord impl) must not strand the
        // other workers in wait_while: catch it, resolve the task as
        // failed so the drain completes, and re-raise from the caller.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_task(&mut scratch, pass, group, inputs)
        }));
        let mut guard = S::lock(&shared.state);
        match outcome {
            Ok(Ok((out, m))) => {
                guard.meta[id] = Some(m);
                resolve(shared, &mut guard, id, Slot::Done(out), None);
            }
            Ok(Err(err)) => resolve(shared, &mut guard, id, Slot::Failed, Some(err)),
            Err(payload) => {
                let msg = panic_text(payload.as_ref());
                guard.panic_msg.get_or_insert(msg);
                resolve(shared, &mut guard, id, Slot::Failed, None);
            }
        }
    }
}

/// Executes `plan`'s task DAG on `workers` workers (`0` = one per
/// core) — the calling thread plus `workers − 1` spawned ones —
/// calling `run_task(pass, group, child_outputs)` for each task as it
/// becomes ready. Returns the root task's output and every task's
/// metadata in `(pass, group)` order.
///
/// Generic over the [`SyncOps`] facade: production callers pass
/// `StdSync`, the model-check suite passes `McSync` and explores every
/// schedule of the claim protocol.
///
/// # Errors
///
/// The minimum-`(pass, group)` task failure: the first failing group of
/// the first failing pass, whatever order the tasks completed in.
///
/// # Panics
///
/// Panics if the plan is empty (it has no root). Re-raises the first
/// panic thrown by a `run_task` invocation (after the DAG has fully
/// drained, so no worker thread is leaked).
pub fn execute_dag<S, T, M, F>(
    plan: SortPlan,
    workers: usize,
    run_task: F,
) -> Result<(T, Vec<M>), SortError>
where
    S: SyncOps,
    T: Send + 'static,
    M: Send + 'static,
    F: Fn(usize, usize, Vec<T>) -> Result<(T, M), SortError> + Send + Sync + 'static,
{
    execute_dag_with_scratch::<S, T, M, (), _>(plan, workers, move |_, pass, group, inputs| {
        run_task(pass, group, inputs)
    })
}

/// [`execute_dag`] for tasks that reuse per-worker state: every worker
/// builds one `W::default()` when it starts, passes it to each task it
/// runs, and drops it when the DAG has drained. Which tasks share a `W`
/// depends on the schedule, so a task's result must not depend on what
/// an earlier task left in it.
pub(crate) fn execute_dag_with_scratch<S, T, M, W, F>(
    plan: SortPlan,
    workers: usize,
    run_task: F,
) -> Result<(T, Vec<M>), SortError>
where
    S: SyncOps,
    T: Send + 'static,
    M: Send + 'static,
    W: Default,
    F: Fn(&mut W, usize, usize, Vec<T>) -> Result<(T, M), SortError> + Send + Sync + 'static,
{
    let tasks = plan.tasks();
    assert!(tasks > 0, "an empty plan has no root to return");
    let threads = resolve_workers(workers).min(plan.max_ready_width()).max(1);

    let ready = (0..plan.pass(0).groups).map(Reverse).collect();
    let shared = Arc::new(Shared::<S, T, M> {
        state: S::mutex_named(
            "dag.state",
            ExecState {
                ready,
                deps_left: initial_deps_left(&plan),
                slots: (0..tasks).map(|_| Slot::Empty).collect(),
                meta: (0..tasks).map(|_| None).collect(),
                failure: None,
                panic_msg: None,
                remaining: tasks,
            },
        ),
        ready_cv: S::condvar_named("dag.ready"),
        plan,
    });
    let run_task = Arc::new(run_task);

    // The calling thread is worker 0: only `threads - 1` are spawned,
    // so a one-worker sort never pays a thread spawn and join.
    let handles: Vec<S::JoinHandle> = (1..threads)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let run_task = Arc::clone(&run_task);
            S::spawn(move || worker_loop::<S, T, M, W, F>(shared.as_ref(), run_task.as_ref()))
        })
        .collect();
    worker_loop::<S, T, M, W, F>(shared.as_ref(), run_task.as_ref());
    let mut join_err = None;
    for handle in handles {
        if let Err(msg) = S::join(handle) {
            join_err.get_or_insert(msg);
        }
    }
    // catch_unwind inside worker_loop makes a join error unreachable,
    // but a facade is free to report its own aborts — don't swallow it.
    if let Some(msg) = join_err {
        panic!("{msg}");
    }

    let mut guard = S::lock(&shared.state);
    if let Some(msg) = guard.panic_msg.take() {
        drop(guard);
        panic!("{msg}");
    }
    if let Some((_, err)) = guard.failure.take() {
        return Err(err);
    }
    debug_assert_eq!(guard.remaining, 0, "clean drain resolves every task");
    let meta: Vec<M> = guard
        .meta
        .iter_mut()
        .map(|m| m.take().expect("clean drain ran every task"))
        .collect();
    // The root is the final pass's one group: the highest task id.
    match core::mem::replace(&mut guard.slots[tasks - 1], Slot::Taken) {
        Slot::Done(root) => Ok((root, meta)),
        _ => unreachable!("root task resolved without output"),
    }
}

// --- One merge group --------------------------------------------------------

/// Resolves the worker knob: `0` means one worker per available core.
fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        workers
    }
}

/// What one simulated merge group adds to its pass's accounting.
struct GroupStats {
    cycles: u64,
    bytes_read: u64,
    bytes_written: u64,
    input_stalls: u64,
    output_stalls: u64,
    fast_forwarded_cycles: u64,
    #[cfg(feature = "sanitize")]
    diagnostics: Vec<Diagnostic>,
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

/// One worker's simulation state: the pass (tree, streams, loader and
/// drain) and the memory it runs against, built by the worker's first
/// task and reset for every later one — a group costs its streams'
/// growth, not the ≈100 allocations of a new tree. Lives as long as the
/// worker, i.e. one sort.
type PassScratch<R> = Option<(PassSim<R>, Memory)>;

/// Simulates one merge group to completion against its own bank view on
/// the worker's scratch, returning its single output run (terminal-free
/// and sorted) and its accounting. What an earlier group left in the
/// scratch — finished or abandoned on an error — never shows: a reset
/// scratch equals a new one.
fn simulate_group<R: Record>(
    config: &SimEngineConfig,
    scratch: &mut PassScratch<R>,
    runs: RunSet<R>,
    fan_in: usize,
    stage: u32,
    max_cycles: u64,
    reference: bool,
) -> Result<(Vec<R>, GroupStats), SortError> {
    let view = config.memory.shard_view(fan_in);
    let (sim, memory) = match scratch {
        Some(used) => {
            used.0.reset(runs, fan_in);
            used.1.reset(view);
            used
        }
        None => scratch.insert((PassSim::new(config, runs, fan_in), Memory::new(view))),
    };
    sim.run(memory, reference, max_cycles, stage)?;
    #[cfg(feature = "sanitize")]
    let diagnostics = sim.sanitize_check();
    let (out_runs, pass) = sim.finish(stage);
    let stats = GroupStats {
        cycles: pass.cycles,
        bytes_read: memory.bytes_read(),
        bytes_written: memory.bytes_written(),
        input_stalls: pass.input_stalls,
        output_stalls: pass.output_stalls,
        fast_forwarded_cycles: pass.fast_forwarded_cycles,
        #[cfg(feature = "sanitize")]
        diagnostics,
    };
    Ok((out_runs.into_records(), stats))
}

/// Folds one pass's groups, in group order, into its [`PassReport`];
/// also returns the pass's barrier makespan on the virtual pool. The
/// utilization counters come from that deterministic list schedule of
/// the per-group cycle costs, not from wall clock, so the report stays
/// bit-identical at every real worker count.
fn fold_pass(
    stage: u32,
    records: u64,
    runs_in: usize,
    groups: &[GroupStats],
    #[cfg(feature = "sanitize")] diagnostics: &mut Vec<Diagnostic>,
) -> (PassReport, u64) {
    let (makespan, busy) = pass_virtual_schedule(groups.iter().map(|g| g.cycles));
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
    for group in groups {
        pass.cycles += group.cycles;
        pass.bytes_read += group.bytes_read;
        pass.bytes_written += group.bytes_written;
        pass.input_stalls += group.input_stalls;
        pass.output_stalls += group.output_stalls;
        pass.fast_forwarded_cycles += group.fast_forwarded_cycles;
    }
    #[cfg(feature = "sanitize")]
    for (g, group) in groups.iter().enumerate() {
        let tagged = group.diagnostics.iter().cloned();
        diagnostics.extend(tagged.map(|d| d.with("stage", stage).with("group", g)));
    }
    (pass, makespan)
}

// --- Sorting on the DAG -----------------------------------------------------

/// Sorts `data` on its group DAG: every `(pass, group)` merge task runs
/// on one of `workers` threads as soon as its children have drained,
/// and the accounting is folded in `(pass, group)` order after the DAG
/// drains. `pipeline_overlap_cycles` is the per-pass barrier's virtual
/// makespan minus the DAG's, both on the [`VIRTUAL_WORKERS`] reference
/// pool.
pub(crate) fn sort<R: Record, S: SyncOps>(
    config: &SimEngineConfig,
    data: Vec<R>,
    workers: usize,
    max_cycles: u64,
    reference: bool,
    #[cfg(feature = "sanitize")] diagnostics: &mut Vec<Diagnostic>,
) -> Result<(Vec<R>, SortReport), SortError> {
    let record_bytes = config.loader.record_bytes;
    let n_records = data.len() as u64;
    let sanitized = data.into_iter().map(Record::sanitize).collect();
    let init = RunSet::from_chunks(sanitized, config.initial_run_len());
    let plan = SortPlan::new(init.num_runs(), config.amt.l);
    if plan.num_passes() == 0 {
        let report = SortReport::from_passes(Vec::new(), n_records, record_bytes);
        return Ok((init.into_records(), report));
    }

    // `SyncOps::spawn` wants 'static tasks, so the task closure owns
    // its captures: the config (Copy) and the presorted input (Arc —
    // every pass-0 group reads its own disjoint slice).
    let task_config = *config;
    let task_plan = plan.clone();
    let init = Arc::new(init);
    let run_task =
        move |scratch: &mut PassScratch<R>, pass: usize, group: usize, inputs: Vec<Vec<R>>| {
            let fan_in = task_plan.pass(pass).fan_in;
            let input = if pass == 0 {
                group_input(&init, group, fan_in)
            } else {
                // Each child contributed exactly one sorted run, already in
                // group order.
                let mut records = Vec::with_capacity(inputs.iter().map(Vec::len).sum());
                let mut starts = Vec::with_capacity(inputs.len());
                for child in inputs {
                    starts.push(records.len());
                    records.extend(child);
                }
                RunSet::from_parts(records, starts)
            };
            let stage = pass as u32 + 1;
            simulate_group(
                &task_config,
                scratch,
                input,
                fan_in,
                stage,
                max_cycles,
                reference,
            )
        };

    let (sorted, stats) = execute_dag_with_scratch::<S, Vec<R>, GroupStats, PassScratch<R>, _>(
        plan.clone(),
        workers,
        run_task,
    )?;
    let cycles: Vec<u64> = stats.iter().map(|g| g.cycles).collect();
    let dag_makespan = dag_virtual_makespan(&plan, &cycles);

    // Fold the accounting in (pass, group) order, so the report cannot
    // depend on completion order.
    let mut barrier = 0u64;
    let mut passes = Vec::with_capacity(plan.num_passes());
    for p in 0..plan.num_passes() {
        let pp = plan.pass(p);
        let lo = plan.task_id(p, 0);
        let (pass, makespan) = fold_pass(
            p as u32 + 1,
            n_records,
            pp.runs_in,
            &stats[lo..lo + pp.groups],
            #[cfg(feature = "sanitize")]
            diagnostics,
        );
        barrier += makespan;
        passes.push(pass);
    }
    let mut report = SortReport::from_passes(passes, n_records, record_bytes);
    report.pipeline_overlap_cycles = barrier.saturating_sub(dag_makespan);
    Ok((sorted, report))
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(plan.max_ready_width(), 0);
        }
    }

    #[test]
    fn max_ready_width_is_the_widest_pass() {
        let plan = SortPlan::new(9375, 16);
        assert_eq!(plan.max_ready_width(), plan.pass(0).groups);
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

    /// One scratch carried through groups of differing fan-in and size —
    /// including right after a group abandoned on `BON040` — must yield
    /// what a new scratch yields for each: output run, every accounting
    /// field and (under `sanitize`) the probes' findings.
    #[test]
    fn reused_scratch_matches_a_new_one_group_after_group() {
        use crate::AmtConfig;
        use bonsai_memsim::MemoryConfig;
        use bonsai_records::U32Rec;

        fn observe(
            result: Result<(Vec<U32Rec>, GroupStats), SortError>,
        ) -> Result<(Vec<U32Rec>, [u64; 6], String), SortError> {
            result.map(|(out, g)| {
                #[cfg(feature = "sanitize")]
                let findings = format!("{:?}", g.diagnostics);
                #[cfg(not(feature = "sanitize"))]
                let findings = String::new();
                let counts = [
                    g.cycles,
                    g.bytes_read,
                    g.bytes_written,
                    g.input_stalls,
                    g.output_stalls,
                    g.fast_forwarded_cycles,
                ];
                (out, counts, findings)
            })
        }

        let mut ssd =
            SimEngineConfig::with_memory(AmtConfig::new(8, 128), 4, MemoryConfig::ssd_direct());
        ssd.loader.batch_bytes = 131_072;
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x5C2A_0019);
        for cfg in [
            SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
            SimEngineConfig::dram_sorter(AmtConfig::new(2, 2), 4),
            ssd,
        ] {
            let l = cfg.amt.l;
            let mut scratch: PassScratch<U32Rec> = None;
            let mut failed = 0;
            for step in 0..24 {
                let fan_in = rng.range_usize(2, l);
                let n_runs = rng.range_usize(1, fan_in);
                let run_len = [1usize, 16, 300][step % 3];
                let data: Vec<U32Rec> = (0..rng.range_usize(1, n_runs * run_len))
                    .map(|_| U32Rec::new(rng.next_u32().max(1)))
                    .collect();
                let runs = RunSet::from_chunks(data, run_len);
                let want = observe(simulate_group(
                    &cfg,
                    &mut None,
                    runs.clone(),
                    fan_in,
                    1,
                    u64::MAX,
                    false,
                ))
                .expect("an unbounded group finishes");
                // Every third group is cut off half way: the scratch is
                // abandoned mid-pass, records in every FIFO.
                let bound = if step % 3 == 1 {
                    want.1[0] / 2
                } else {
                    u64::MAX
                };
                let fresh = observe(simulate_group(
                    &cfg,
                    &mut None,
                    runs.clone(),
                    fan_in,
                    1,
                    bound,
                    false,
                ));
                let reused = observe(simulate_group(
                    &cfg,
                    &mut scratch,
                    runs,
                    fan_in,
                    1,
                    bound,
                    step % 2 == 0,
                ))
                .map(|(out, mut counts, findings)| {
                    // The reference loop (even steps) fast-forwards nothing.
                    if step % 2 == 0 {
                        counts[5] = want.1[5];
                    }
                    (out, counts, findings)
                });
                assert_eq!(reused, fresh, "AMT({}, {l}) step {step}", cfg.amt.p);
                match fresh {
                    Ok(got) => assert_eq!(got, want),
                    Err(_) => failed += 1,
                }
            }
            assert!(failed >= 4, "too few BON040 groups: {failed}");
        }
    }

    /// The per-pass barrier as a thread-free list schedule: passes in
    /// order, every group's input sliced out of the *folded* previous
    /// run set (the DAG concatenates child outputs instead), the shared
    /// fold. The first failing group in `(pass, group)` order wins.
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
                let (out, group) =
                    simulate_group(config, &mut None, input, fan_in, stage, max_cycles, false)?;
                starts.push(records.len());
                records.extend(out);
                stats.push(group);
            }
            let (pass, _) = fold_pass(
                stage,
                n,
                runs.num_runs(),
                &stats,
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
                // The oracle has no DAG to overlap; everything else is exact.
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
