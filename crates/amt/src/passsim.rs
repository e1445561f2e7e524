//! A steppable single-stage pass simulation, shared by the engine's one
//! pass loop (`dag::sort`, every task of every plan through one
//! `simulate` function) and by [`crate::UnrolledSim`] (λ trees
//! contending for one memory).
//!
//! A pass moves its data as the hardware does (§V-B, Fig. 2), between
//! the caller's two buffers and nothing else. Each leaf reads its run
//! of the current merge group where it lies in the pass's input, as the
//! data loader fetches a leaf's run by address, and closes it with a
//! terminal (*zero append*); the root's output goes through the *zero
//! filter* as it leaves the tree, its payload appended to the next
//! pass's records and each run's start to its run starts. The pass
//! itself holds only state sized by the tree.
//!
//! The pass can be driven two ways with bit-identical accounting:
//!
//! - [`PassSim::tick`] — the reference per-cycle loop: one call per
//!   simulated cycle, exactly the schedule the hardware executes.
//! - [`PassSim::advance`] — the event-driven fast path: when a tick
//!   changes *nothing* (tree quiescent, no burst delivered or issued),
//!   every following cycle is provably identical until the next memory
//!   event, so the clock jumps straight to
//!   `min(loader, drain).next_event_cycle()` and the skipped span is
//!   folded into the same `cycles`/stall counters the per-cycle loop
//!   would have produced (`docs/SIMULATOR.md`, "The event-driven fast
//!   path", gives the argument).
//!
//! Every call of one pass gets the same two buffers: the input it was
//! reset for, and the next pass's `(records, starts)`, which the pass
//! only appends to.

use std::any::Any;
use std::cell::RefCell;
use std::ops::Range;

use bonsai_memsim::{DataLoader, Memory, WriteDrain};
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::dag::PassPlan;
use crate::error::SortError;
use crate::report::PassReport;
use crate::tree::MergeTree;

/// Steps of [`PassSim::run`]'s loop between two calls of its poll:
/// ≈ 0.3 ms of a 65 536-record DRAM sort on a 2-vCPU x86 host, where
/// one 64-way merge group runs ≈ 7 ms.
const STEPS_PER_POLL: u32 = 128;

/// The next pass's input as a pass appends to it: its records and the
/// start of each of its runs.
pub(crate) type NextPass<R> = (Vec<R>, Vec<usize>);

/// The leaf that run `j` of a merge group feeds on an `l`-leaf tree:
/// `j` with its `log2 ℓ` bits reversed. Consecutive runs land in
/// opposite subtrees, so partial groups still feed both root inputs and
/// the root sustains full throughput (this is the leaf/address mapping
/// the hardware data loader uses). The map is its own inverse: leaf
/// `leaf` merges run `bitrev(leaf, l)` of each group.
fn bitrev(j: usize, l: usize) -> usize {
    j.reverse_bits() >> (usize::BITS - l.trailing_zeros())
}

/// One merge stage of one tree, advanced cycle by cycle against a
/// caller-provided [`Memory`] (so several passes can share the memory's
/// ports and contend for bandwidth, as unrolled trees do on real banks).
///
/// A `PassSim` is also a reusable scratch: [`PassSim::reset`] re-arms it
/// for another group of runs on the same configuration, keeping the
/// tree's FIFOs and the loader/drain queues allocated, and is
/// indistinguishable from a [`PassSim::new`] built for that group.
#[derive(Debug)]
pub struct PassSim<R> {
    l: usize,
    fan_in: usize,
    /// The task's runs, indices into the pass input.
    task: Range<usize>,
    n_records: u64,
    /// Merge groups in this pass (= output runs = root flushes expected).
    groups: usize,
    /// Each leaf's cursor, `(group, offset)`: the merge group whose run
    /// it feeds and how many of that run's records it has fed. A leaf
    /// whose group is `groups` has closed its last run.
    cursors: Vec<(usize, usize)>,
    /// Payload records per leaf (what the loader has to fetch).
    leaf_payload: Vec<u64>,
    /// Leaves that have not closed their last run; `0` means the pass's
    /// input is fully on chip.
    leaves_open: usize,
    tree: MergeTree<R>,
    loader: DataLoader,
    drain: WriteDrain,
    /// The zero filter's count of the payload records of the output run
    /// still open, already appended to the next pass's records; `0`
    /// once the last record out was a terminal.
    open_run: usize,
    /// Payload records out of the root.
    payload_out: u64,
    /// Terminals out of the root.
    terminals_out: u64,
    /// Non-empty runs the zero filter closed.
    runs_out: u64,
    draining_signalled: bool,
    done: bool,
    cycles: u64,
    fast_forwarded: u64,
}

impl<R: Record> PassSim<R> {
    /// Prepares one stage that merges groups of `fan_in` runs of
    /// `runs[task]`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= fan_in <= l`.
    pub fn new(
        config: &SimEngineConfig,
        runs: &RunSet<R>,
        task: Range<usize>,
        fan_in: usize,
    ) -> Self {
        let l = config.amt.l;
        let mut sim = Self {
            l,
            fan_in,
            task: 0..0,
            n_records: 0,
            groups: 0,
            cursors: vec![(0, 0); l],
            leaf_payload: vec![0; l],
            leaves_open: 0,
            tree: MergeTree::new(config.amt),
            loader: DataLoader::new(config.loader, vec![0; l]),
            drain: WriteDrain::new(config.loader),
            open_run: 0,
            payload_out: 0,
            terminals_out: 0,
            runs_out: 0,
            draining_signalled: false,
            done: false,
            cycles: 0,
            fast_forwarded: 0,
        };
        sim.reset(runs, task, fan_in);
        sim
    }

    /// Re-arms the simulation for another stage on the same
    /// configuration, merging groups of `fan_in` runs of `runs[task]`,
    /// read where they lie: the tree, loader and drain return to their
    /// just-built state (`sanitize` probes included), every cursor and
    /// counter to zero — whatever state the previous pass was left in,
    /// finished or abandoned on an error. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= fan_in <= l`.
    pub fn reset(&mut self, runs: &RunSet<R>, task: Range<usize>, fan_in: usize) {
        let l = self.l;
        assert!(fan_in >= 2 && fan_in <= l, "fan-in must be in [2, l]");
        self.leaf_payload.fill(0);
        for (j, run) in task.clone().enumerate() {
            self.leaf_payload[bitrev(j % fan_in, l)] += runs.run(run).len() as u64;
        }
        self.n_records = self.leaf_payload.iter().sum();
        self.groups = task.len().div_ceil(fan_in);
        self.fan_in = fan_in;
        self.task = task;
        self.cursors.fill((0, 0));
        // Every leaf closes one run per group, empty or not, so every
        // leaf sees exactly `groups` runs (run/group alignment).
        self.leaves_open = if self.groups == 0 { 0 } else { l };
        self.tree.reset();
        self.loader.reset(&self.leaf_payload);
        self.drain.reset();
        self.open_run = 0;
        self.payload_out = 0;
        self.terminals_out = 0;
        self.runs_out = 0;
        self.draining_signalled = false;
        self.done = false;
        self.cycles = 0;
        self.fast_forwarded = 0;
    }

    /// Returns `true` once the pass has run to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The run leaf `leaf` merges in group `group`: run
    /// `bitrev(leaf)` of the group, empty where the group has no such
    /// run.
    #[inline]
    fn leaf_run<'a>(&self, runs: &'a RunSet<R>, leaf: usize, group: usize) -> &'a [R] {
        let lane = bitrev(leaf, self.l);
        let run = self.task.start + group * self.fan_in + lane;
        if lane < self.fan_in && run < self.task.end {
            runs.run(run)
        } else {
            &[]
        }
    }

    /// Moves what fits of leaf `leaf`'s runs into its FIFO: payload is
    /// gated by the loader, and a run's terminal flows freely once its
    /// payload is in (generated on chip by the zero-append unit), after
    /// which the leaf goes on with its next group's run. Free FIFO space
    /// and loader availability are sampled once; each run's chunk and
    /// its terminal move as one push. Returns `true` when any record
    /// moved.
    ///
    /// A leaf left behind has closed its last run, filled its FIFO, or
    /// emptied its loader buffer in front of a payload record — states
    /// only its merger consuming input or a burst landing can end, which
    /// is what makes the candidate sets in [`PassSim::step`] sufficient.
    #[inline]
    fn feed_leaf(&mut self, leaf: usize, runs: &RunSet<R>) -> bool {
        let (mut group, mut offset) = self.cursors[leaf];
        if group == self.groups {
            return false;
        }
        let mut room = self.tree.leaf_free(leaf);
        // Payload beyond the FIFO's room cannot move anyway.
        let mut avail = self.loader.available(leaf).min(room as u64) as usize;
        let mut payload = 0;
        while room > 0 {
            let run = self.leaf_run(runs, leaf, group);
            let take = (run.len() - offset).min(room).min(avail);
            let chunk = &run[offset..offset + take];
            offset += take;
            room -= take;
            avail -= take;
            payload += take;
            let close = offset == run.len() && room > 0;
            if take > 0 || close {
                self.tree.push_leaf_run(leaf, chunk, close);
            }
            if !close {
                break;
            }
            room -= 1;
            group += 1;
            offset = 0;
            if group == self.groups {
                self.leaves_open -= 1;
                break;
            }
        }
        if payload > 0 {
            self.loader.consume(leaf, payload as u64);
        }
        // Every record pushed moved the cursor.
        let moved = (group, offset) != self.cursors[leaf];
        self.cursors[leaf] = (group, offset);
        moved
    }

    /// Simulates exactly one cycle; returns `true` when any state in the
    /// pass changed (the quiescence signal the fast path keys on).
    fn step(
        &mut self,
        cycle: u64,
        memory: &mut Memory,
        runs: &RunSet<R>,
        next: &mut NextPass<R>,
    ) -> bool {
        self.cycles += 1;
        let mut changed = self.loader.tick(cycle, memory);

        // Feed the candidate leaves, in leaf order: those whose FIFO may
        // have gained room since the last feed (all of them on the first
        // cycle) and those a burst just landed on. Every other leaf is
        // where the last feed left it and would move nothing.
        if self.leaves_open > 0 {
            for word in 0..self.l.div_ceil(64) {
                let mut candidates =
                    self.tree.take_freed_leaves(word) | self.loader.take_delivered(word);
                while candidates != 0 {
                    let leaf = 64 * word + candidates.trailing_zeros() as usize;
                    candidates &= candidates - 1;
                    changed |= self.feed_leaf(leaf, runs);
                }
            }
        }

        changed |= self.tree.tick();

        // Zero filter + packer: move root output into the write drain
        // and the next pass's buffers; terminals mark run boundaries and
        // cost no bandwidth. The drain's free space is sampled once and
        // the cycle's payload is handed over in one call.
        let (records, starts) = next;
        let space = self.drain.free_space();
        let mut payload = 0u64;
        while payload < space {
            let Some(rec) = self.tree.pop_root() else {
                break;
            };
            changed = true;
            if rec.is_terminal() {
                self.terminals_out += 1;
                if self.open_run > 0 {
                    starts.push(records.len() - self.open_run);
                    self.runs_out += 1;
                    self.open_run = 0;
                }
            } else {
                records.push(rec);
                self.open_run += 1;
                payload += 1;
            }
        }
        if payload > 0 {
            self.payload_out += payload;
            self.drain.push_records(payload);
        }

        // Input done and tree drained, which then stays true. The tree
        // cannot be drained before the root has flushed once per group,
        // so the walk over its nodes runs at the end of the pass only.
        if !self.draining_signalled
            && self.leaves_open == 0
            && self.tree.root_flushes() == self.groups as u64
            && self.tree.is_drained()
        {
            self.drain.set_draining();
            self.draining_signalled = true;
            changed = true;
        }

        changed |= self.drain.tick(cycle, memory);
        if self.draining_signalled && self.drain.is_idle() {
            self.done = true;
            changed = true;
        }
        changed
    }

    /// Advances one cycle against `memory`, reading the pass input
    /// `runs` and appending to `next` — the reference per-cycle loop.
    /// Returns `true` when done.
    pub fn tick(
        &mut self,
        cycle: u64,
        memory: &mut Memory,
        runs: &RunSet<R>,
        next: &mut NextPass<R>,
    ) -> bool {
        if self.done {
            return true;
        }
        self.step(cycle, memory, runs, next);
        self.done
    }

    /// Advances the pass by *at least* one cycle, reading the pass input
    /// `runs` and appending to `next`, and returns how many simulated
    /// cycles were consumed — the event-driven fast path.
    ///
    /// The cycle at `cycle` is always simulated exactly. If it changed
    /// nothing, the pass is quiescent: every later cycle is a provable
    /// no-op until the earliest loader/drain event, so the clock jumps
    /// there in O(1) ([`MergeTree::fast_forward`]) with the skipped span
    /// folded into the identical cycle and stall counters. With no
    /// pending event at all the pass is livelocked and a saturating span
    /// is returned so the caller's cycle bound trips exactly as it would
    /// on the reference loop.
    ///
    /// Check [`PassSim::is_done`] after each call.
    pub fn advance(
        &mut self,
        cycle: u64,
        memory: &mut Memory,
        runs: &RunSet<R>,
        next: &mut NextPass<R>,
    ) -> u64 {
        if self.done {
            return 1;
        }
        let changed = self.step(cycle, memory, runs, next);
        if changed || self.done {
            return 1;
        }
        let event = match (
            self.loader.next_event_cycle(cycle, memory),
            self.drain.next_event_cycle(cycle, memory),
        ) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) | (None, Some(a)) => a,
            // Livelocked: nothing in flight, nothing issuable, tree
            // frozen. No future cycle can differ, so report a span that
            // saturates the caller's livelock bound.
            (None, None) => return u64::MAX - cycle,
        };
        debug_assert!(event > cycle, "events must be in the future");
        let skip = event.saturating_sub(cycle + 1);
        if skip > 0 {
            self.cycles += skip;
            self.fast_forwarded += skip;
            self.tree.fast_forward(skip);
        }
        1 + skip
    }

    /// Drives the pass to completion against `memory`, reading the pass
    /// input `runs` and appending to `next` — on the reference per-cycle
    /// loop when `reference` is true, else on the event-driven fast
    /// path. A pass still unfinished when the simulated clock reaches
    /// `max_cycles` fails with the `BON040` livelock [`SortError`] for
    /// `stage`. The bound is checked against the same simulated clock on
    /// both loops (fast-forwarded spans count in full, and a livelocked
    /// pass reports a saturating span), and neither loop ever simulates
    /// a cycle `>= max_cycles`, so the two paths succeed or fail
    /// identically.
    ///
    /// Every [`STEPS_PER_POLL`] steps the loop calls `poll`: a yield
    /// point where the caller may run other work on this thread. The
    /// pass keeps all of its state where it is, so nothing is saved and
    /// nothing the pass computes can change.
    #[allow(clippy::too_many_arguments)] // the pass's two buffers, its bound and its poll
    pub(crate) fn run(
        &mut self,
        memory: &mut Memory,
        runs: &RunSet<R>,
        next: &mut NextPass<R>,
        reference: bool,
        max_cycles: u64,
        stage: u32,
        poll: &mut dyn FnMut(),
    ) -> Result<(), SortError> {
        let mut cycle = 0u64;
        let mut until_poll = STEPS_PER_POLL;
        loop {
            until_poll -= 1;
            if until_poll == 0 {
                poll();
                until_poll = STEPS_PER_POLL;
            }
            if reference {
                if self.tick(cycle, memory, runs, next) {
                    return Ok(());
                }
                cycle += 1;
            } else {
                let consumed = self.advance(cycle, memory, runs, next);
                if self.done {
                    return Ok(());
                }
                cycle = cycle.saturating_add(consumed);
            }
            if cycle >= max_cycles {
                return Err(SortError::livelock(stage, max_cycles));
            }
        }
    }

    /// Runs every sanitizer probe over the pass: merger-level findings
    /// from the tree (`BON101`–`BON103`), loader and drain byte
    /// accounting (`BON105`), end-to-end record conservation (`BON104`)
    /// and the root's terminal-flush protocol (`BON106`), the last two
    /// on the zero filter's counts.
    ///
    /// Call after the pass is done; only available with the `sanitize`
    /// feature.
    #[cfg(feature = "sanitize")]
    pub fn sanitize_check(&mut self) -> Vec<bonsai_check::Diagnostic> {
        use bonsai_check::{codes, Diagnostic};
        let mut out = self.tree.sanitize_check();
        out.extend(self.loader.sanitize_check());
        out.extend(self.drain.sanitize_check());
        if self.done {
            if self.payload_out != self.n_records
                || self.drain.completed_records() != self.n_records
            {
                out.push(
                    Diagnostic::error(
                        codes::SAN_PASS_CONSERVATION,
                        "merge pass lost or duplicated records end to end",
                    )
                    .with("records_in", self.n_records)
                    .with("payload_out", self.payload_out)
                    .with("records_written", self.drain.completed_records()),
                );
            }
            if self.terminals_out != self.groups as u64 || self.open_run != 0 {
                out.push(
                    Diagnostic::error(
                        codes::SAN_FLUSH_PROTOCOL,
                        "root output must carry exactly one terminal per merge group and end with one",
                    )
                    .with("terminals", self.terminals_out)
                    .with("groups", self.groups),
                );
            }
        }
        out
    }

    /// The finished pass's report; its output runs are already on the
    /// end of the next pass's buffers.
    ///
    /// # Panics
    ///
    /// Panics if the pass is not done.
    pub fn finish(&self, stage: u32) -> PassReport {
        assert!(self.done, "pass must run to completion before finish()");
        debug_assert_eq!(self.drain.completed_records(), self.n_records);
        debug_assert_eq!(self.open_run, 0, "root output is terminal-delimited");
        let tree_stats = self.tree.stats();
        PassReport {
            stage,
            cycles: self.cycles,
            records: self.n_records,
            runs_in: self.task.len() as u64,
            runs_out: self.runs_out,
            // Byte counters live in the shared Memory; the caller fills
            // these in when it owns the memory exclusively.
            bytes_read: 0,
            bytes_written: 0,
            input_stalls: tree_stats.total_input_stalls,
            output_stalls: tree_stats.total_output_stalls,
            fast_forwarded_cycles: self.fast_forwarded,
        }
    }
}

/// Ends a pass's buffers: the next pass's runs become the input
/// `runs`, and the buffers the finished pass read, emptied, become
/// `next` for the pass after.
pub(crate) fn swap_passes<R: Record>(runs: &mut RunSet<R>, next: &mut NextPass<R>) {
    let (records, starts) = std::mem::take(next);
    *next = std::mem::replace(runs, RunSet::from_parts(records, starts)).into_parts();
    next.0.clear();
    next.1.clear();
}

/// A sort's simulation state: the pass (tree, loader and drain) and the
/// whole memory it runs against, built by the sort's first task and
/// reset for every later one — a task costs no allocation, not the ≈100
/// of a new tree. A sort takes it from its thread's park ([`unpark`])
/// and parks it again when it ends ([`park`]), so it also outlives the
/// sort. Its size follows the configuration, never the job.
pub(crate) type PassScratch<R> = Option<Box<(PassSim<R>, Memory)>>;

/// Scratches one thread keeps parked: a runtime worker's own job shape
/// and the shape of the job it lends itself to.
const PARKED_SCRATCHES: usize = 2;

thread_local! {
    /// This thread's parked scratches, each a boxed
    /// `(PassSim<R>, Memory)` with the configuration it was built for,
    /// the least recently parked first.
    static PARKED: RefCell<Vec<(SimEngineConfig, Box<dyn Any>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Whether a parked entry is a scratch for `config` and `R`.
fn parked_for<R: Record>(
    config: &SimEngineConfig,
    entry: &(SimEngineConfig, Box<dyn Any>),
) -> bool {
    entry.0 == *config && entry.1.is::<(PassSim<R>, Memory)>()
}

/// Takes the scratch this thread parked for `config` and records of
/// type `R`, or an empty one. The sort holds it until it ends, so a
/// sort nested in its poll never shares it and builds its own.
pub(crate) fn unpark<R: Record>(config: &SimEngineConfig) -> PassScratch<R> {
    PARKED.with_borrow_mut(|parked| {
        let at = parked
            .iter()
            .position(|entry| parked_for::<R>(config, entry))?;
        parked.remove(at).1.downcast().ok()
    })
}

/// Parks a finished sort's `scratch` on this thread for the next sort
/// of `config` and `R`. It replaces an entry for the same key and
/// pushes out the least recently parked one beyond
/// [`PARKED_SCRATCHES`]. A reset scratch equals a new one, so what
/// earlier jobs left in it never shows.
pub(crate) fn park<R: Record>(config: &SimEngineConfig, scratch: PassScratch<R>) {
    let Some(scratch) = scratch else {
        return;
    };
    PARKED.with_borrow_mut(|parked| {
        parked.retain(|entry| !parked_for::<R>(config, entry));
        if parked.len() == PARKED_SCRATCHES {
            parked.remove(0);
        }
        parked.push((*config, scratch));
    });
}

/// What one simulated pass adds to its sort's accounting: its
/// [`PassReport`], memory traffic included, and under `sanitize` the
/// probes' findings, not yet tagged with a stage.
#[derive(Debug)]
pub(crate) struct PassStats {
    pub(crate) report: PassReport,
    #[cfg(feature = "sanitize")]
    pub(crate) diagnostics: Vec<bonsai_check::Diagnostic>,
}

/// Simulates task `task` of `pass` to completion on `scratch`: its
/// groups of the runs of `runs` ([`PassPlan::task_runs`]), read where
/// they lie, merged against the sort's whole memory (`config.memory`;
/// every task of every plan gets all of it). The output runs
/// (terminal-free and sorted) go onto the end of `next`, the next
/// pass's records and run starts, and the accounting is returned. What an earlier pass left in the scratch, finished or
/// abandoned on an error, never shows: a reset scratch equals a new one.
///
/// Fails with `BON040` for the pass's stage when the task is still
/// running at `max_cycles` ([`PassSim::run`], which also calls `poll`
/// at its yield points).
#[allow(clippy::too_many_arguments)] // one task's whole input, no more
pub(crate) fn simulate<R: Record>(
    config: &SimEngineConfig,
    scratch: &mut PassScratch<R>,
    runs: &RunSet<R>,
    pass: &PassPlan,
    task: usize,
    next: &mut NextPass<R>,
    max_cycles: u64,
    reference: bool,
    poll: &mut dyn FnMut(),
) -> Result<PassStats, SortError> {
    let task_runs = pass.task_runs(task);
    let (sim, mem) = match scratch {
        Some(used) => {
            used.0.reset(runs, task_runs, pass.fan_in);
            used.1.reset();
            &mut **used
        }
        None => &mut **scratch.insert(Box::new((
            PassSim::new(config, runs, task_runs, pass.fan_in),
            Memory::new(config.memory),
        ))),
    };
    sim.run(mem, runs, next, reference, max_cycles, pass.stage, poll)?;
    #[cfg(feature = "sanitize")]
    let diagnostics = sim.sanitize_check();
    let mut report = sim.finish(pass.stage);
    report.bytes_read = mem.bytes_read();
    report.bytes_written = mem.bytes_written();
    Ok(PassStats {
        report,
        #[cfg(feature = "sanitize")]
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmtConfig;
    use bonsai_memsim::MemoryConfig;
    use bonsai_records::U32Rec;

    /// The next record leaf `leaf` would push: the next payload record
    /// of its run in its current group, that run's terminal once the
    /// payload is all in, or nothing once it has closed its last run.
    fn next_record(sim: &PassSim<U32Rec>, runs: &RunSet<U32Rec>, leaf: usize) -> Option<U32Rec> {
        let (group, offset) = sim.cursors[leaf];
        (group < sim.groups).then(|| {
            let run = sim.leaf_run(runs, leaf, group);
            run.get(offset).copied().unwrap_or(U32Rec::TERMINAL)
        })
    }

    /// The candidate sets are caches of what a scan of every leaf would
    /// find: on random shapes, memories and group sizes, before every
    /// step each leaf the full feed loop would move a record of — given
    /// what the loader will hold once it has ticked — is in the tree's
    /// freed set or the loader's delivered set.
    #[test]
    fn feed_candidates_cover_a_full_rescan() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0xFEED_0019);
        let memories = [
            MemoryConfig::ddr4_aws_f1(),
            MemoryConfig::ddr4_single_bank(),
            MemoryConfig::hbm_u50(),
            MemoryConfig::ssd_direct(),
        ];
        let (mut steps, mut candidates, mut fed) = (0u64, 0u64, 0u64);
        for (round, (p, l)) in [(2, 2), (4, 16), (8, 64), (8, 128), (32, 256)]
            .into_iter()
            .cycle()
            .take(40)
            .enumerate()
        {
            let mut cfg =
                SimEngineConfig::with_memory(AmtConfig::new(p, l), 4, memories[round % 4]);
            cfg.loader.batch_bytes = [256, 1024, 4096][round % 3] * (1 + (round as u64 / 3) % 3);
            let fan_in = rng.range_usize(2, l);
            let run_len = [1usize, 16, 90][round % 3];
            let n_runs = rng.range_usize(1, 3 * fan_in);
            let data: Vec<U32Rec> = (0..rng.range_usize(1, n_runs * run_len))
                .map(|_| U32Rec::new(rng.next_u32().max(1)))
                .collect();
            let runs = RunSet::from_chunks(data, run_len);
            let mut sim = PassSim::new(&cfg, &runs, 0..runs.num_runs(), fan_in);
            let mut memory = Memory::new(cfg.memory);
            let mut next = (Vec::new(), Vec::new());
            let mut cycle = 0u64;
            while !sim.is_done() {
                let ctx = format!("round {round} AMT({p}, {l}) cycle {cycle}");
                // What the step about to run will see after its loader tick.
                let mut loader = sim.loader.clone();
                loader.tick(cycle, &mut memory.clone());
                let landed: Vec<u64> = (0..l.div_ceil(64))
                    .map(|word| loader.take_delivered(word))
                    .collect();
                for leaf in 0..l {
                    let (word, bit) = (leaf / 64, leaf % 64);
                    let listed = ((sim.tree.freed_leaves()[word] | landed[word]) >> bit) & 1 == 1;
                    candidates += u64::from(listed);
                    let feedable = sim.tree.leaf_free(leaf) > 0
                        && next_record(&sim, &runs, leaf)
                            .is_some_and(|rec| rec.is_terminal() || loader.available(leaf) > 0);
                    fed += u64::from(feedable);
                    assert!(
                        listed || !feedable,
                        "{ctx}: leaf {leaf} would be fed but is no candidate"
                    );
                }
                steps += l as u64;
                cycle += sim.advance(cycle, &mut memory, &runs, &mut next);
                assert!(cycle < 50_000_000, "{ctx}: livelock");
            }
            sim.finish(1);
            assert_eq!(next.0.len() as u64, sim.n_records);
        }
        // The sets are worth having: most leaves are not on them.
        assert!(fed > 0 && candidates < steps / 2, "{candidates} of {steps}");
    }

    /// One scratch carried through passes of differing fan-in and size
    /// — including right after a pass abandoned on `BON040` — must
    /// yield what a new scratch yields for each: output runs, the whole
    /// report and (under `sanitize`) the probes' findings. Each pass runs
    /// with its tree held to the worklist, held to the dense schedule
    /// and switching freely, on new and reused scratches alike, and
    /// must yield the same every time. Switching freely, the DRAM
    /// AMT(4, 16) tree must go dense on its 300-record runs and the
    /// SSD AMT(8, 128) tree never.
    #[test]
    fn reused_scratch_matches_a_new_one_group_after_group() {
        type Observed = (Vec<U32Rec>, PassReport, String);

        fn observe(
            result: Result<PassStats, SortError>,
            out: Vec<U32Rec>,
        ) -> Result<Observed, SortError> {
            result.map(|stats| {
                #[cfg(feature = "sanitize")]
                let findings = format!("{:?}", stats.diagnostics);
                #[cfg(not(feature = "sanitize"))]
                let findings = String::new();
                (out, stats.report, findings)
            })
        }

        let mut ssd =
            SimEngineConfig::with_memory(AmtConfig::new(8, 128), 4, MemoryConfig::ssd_direct());
        ssd.loader.batch_bytes = 131_072;
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x5C2A_0019);
        for (cfg, goes_dense) in [
            (
                SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
                Some(true),
            ),
            (SimEngineConfig::dram_sorter(AmtConfig::new(2, 2), 4), None),
            (ssd, Some(false)),
        ] {
            let l = cfg.amt.l;
            let mut scratch: PassScratch<U32Rec> = None;
            let (mut failed, mut went_dense) = (0, 0);
            for step in 0..24 {
                let fan_in = rng.range_usize(2, l);
                let n_runs = rng.range_usize(1, fan_in);
                let run_len = [1usize, 16, 300][step % 3];
                let data: Vec<U32Rec> = (0..rng.range_usize(1, n_runs * run_len))
                    .map(|_| U32Rec::new(rng.next_u32().max(1)))
                    .collect();
                let runs = RunSet::from_chunks(data, run_len);
                let pass = PassPlan {
                    fan_in,
                    runs_in: runs.num_runs(),
                    groups: runs.num_runs().div_ceil(fan_in),
                    tasks: 1,
                    stage: 1,
                };
                let run = |scratch: &mut PassScratch<U32Rec>, bound, reference| {
                    let mut next = (Vec::new(), Vec::new());
                    let stats = simulate(
                        &cfg,
                        scratch,
                        &runs,
                        &pass,
                        0,
                        &mut next,
                        bound,
                        reference,
                        &mut || {},
                    );
                    observe(stats, next.0)
                };
                crate::tree::pin_schedule(None);
                let mut first = None;
                let want = run(&mut first, u64::MAX, false).expect("an unbounded pass finishes");
                let first = first.expect("the pass made a scratch");
                went_dense += u64::from(first.0.tree.switches()[0] > 0);
                // Every third pass is cut off half way: the scratch is
                // abandoned mid-pass, records in every FIFO.
                let bound = if step % 3 == 1 {
                    want.1.cycles / 2
                } else {
                    u64::MAX
                };
                for pin in [Some(false), Some(true), None] {
                    crate::tree::pin_schedule(pin);
                    let ctx = format!("{pin:?} AMT({}, {l}) step {step}", cfg.amt.p);
                    let fresh = run(&mut None, bound, false);
                    let reused =
                        run(&mut scratch, bound, step % 2 == 0).map(|(out, mut report, f)| {
                            // The reference loop (even steps) fast-forwards nothing.
                            if step % 2 == 0 {
                                report.fast_forwarded_cycles = want.1.fast_forwarded_cycles;
                            }
                            (out, report, f)
                        });
                    assert_eq!(reused, fresh, "{ctx}");
                    match fresh {
                        Ok(got) => assert_eq!(got, want, "{ctx}"),
                        Err(_) => failed += 1,
                    }
                }
            }
            crate::tree::pin_schedule(None);
            assert!(failed >= 3 * 4, "too few BON040 passes: {failed}");
            if let Some(dense) = goes_dense {
                assert_eq!(
                    went_dense > 0,
                    dense,
                    "AMT({}, {l}): {went_dense} passes went dense",
                    cfg.amt.p
                );
            }
        }
    }

    /// The conservation (`BON104`) and flush-protocol (`BON106`) probes
    /// read the zero filter's counts: real passes — one group and many,
    /// full groups and a partial last one, DRAM and flash — report
    /// neither, and a finished pass with each count tampered with
    /// reports its code.
    #[cfg(feature = "sanitize")]
    #[test]
    fn sanitize_reads_the_zero_filter_counts() {
        use bonsai_check::codes;

        fn codes_of(sim: &mut PassSim<U32Rec>) -> Vec<&'static str> {
            sim.sanitize_check().iter().map(|d| d.code).collect()
        }

        let mut rng = bonsai_rng::Rng::seed_from_u64(0xB0_0104);
        let ssd =
            SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::ssd_direct());
        for (cfg, fan_in, n) in [
            (
                SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
                16,
                3_000,
            ),
            (
                SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
                3,
                1_000,
            ),
            (ssd, 64, 2_000),
        ] {
            let data: Vec<U32Rec> = (0..n).map(|_| U32Rec::new(rng.next_u32().max(1))).collect();
            let runs = RunSet::from_chunks(data, 16);
            let mut sim = PassSim::new(&cfg, &runs, 0..runs.num_runs(), fan_in);
            let mut memory = Memory::new(cfg.memory);
            let mut next = (Vec::new(), Vec::new());
            let mut cycle = 0u64;
            while !sim.is_done() {
                cycle += sim.advance(cycle, &mut memory, &runs, &mut next);
            }
            let ctx = format!("AMT({}, {}) fan-in {fan_in}", cfg.amt.p, cfg.amt.l);
            assert_eq!(codes_of(&mut sim), Vec::<&str>::new(), "{ctx}: a real pass");
            assert_eq!(next.1.len(), sim.groups, "{ctx}: one run out per group");

            sim.payload_out -= 1;
            assert_eq!(codes_of(&mut sim), [codes::SAN_PASS_CONSERVATION], "{ctx}");
            sim.payload_out += 1;
            sim.terminals_out += 1;
            assert_eq!(codes_of(&mut sim), [codes::SAN_FLUSH_PROTOCOL], "{ctx}");
            sim.terminals_out -= 1;
            sim.open_run = 1;
            assert_eq!(codes_of(&mut sim), [codes::SAN_FLUSH_PROTOCOL], "{ctx}");
        }
    }
}
