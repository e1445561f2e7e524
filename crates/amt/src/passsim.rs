//! A steppable single-stage pass simulation, shared by the engine's one
//! pass loop ([`crate::dag`], every task of every plan through one
//! `simulate` function) and by [`crate::UnrolledSim`] (λ trees
//! contending for one memory).
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
//!   would have produced (see `docs/SIMULATOR.md` for the argument).

use std::any::Any;
use std::cell::RefCell;

use bonsai_memsim::{DataLoader, Memory, MemoryConfig, WriteDrain};
use bonsai_merge_hw::stream::split_runs;
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::error::SortError;
use crate::report::PassReport;
use crate::tree::MergeTree;

/// Steps of [`PassSim::run`]'s loop between two calls of its poll:
/// ≈ 0.3 ms of a 65 536-record DRAM sort on a 2-vCPU x86 host, where
/// one 64-way merge group runs ≈ 7 ms.
const STEPS_PER_POLL: u32 = 128;

/// One merge stage of one tree, advanced cycle by cycle against a
/// caller-provided [`Memory`] (so several passes can share the memory's
/// ports and contend for bandwidth, as unrolled trees do on real banks).
///
/// A `PassSim` is also a reusable scratch: [`PassSim::reset`] re-arms it
/// for another group of runs on the same configuration, keeping the
/// tree's FIFOs, the leaf and output streams and the loader/drain queues
/// allocated, and is indistinguishable from a [`PassSim::new`] built for
/// that group.
#[derive(Debug)]
pub struct PassSim<R> {
    l: usize,
    n_records: u64,
    runs_in: u64,
    /// Merge groups in this pass (= output runs = root flushes expected).
    groups: u64,
    leaf_streams: Vec<Vec<R>>,
    leaf_pos: Vec<usize>,
    /// Payload records per leaf stream (what the loader has to fetch).
    leaf_payload: Vec<u64>,
    /// Leaves with `leaf_pos < leaf_streams.len()`, i.e. still holding
    /// records to feed; `0` means the pass's input is fully on chip.
    leaves_open: usize,
    tree: MergeTree<R>,
    loader: DataLoader,
    drain: WriteDrain,
    out_stream: Vec<R>,
    draining_signalled: bool,
    done: bool,
    cycles: u64,
    fast_forwarded: u64,
}

impl<R: Record> PassSim<R> {
    /// Prepares one stage that merges groups of `fan_in` runs.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= fan_in <= l`.
    pub fn new(config: &SimEngineConfig, runs: RunSet<R>, fan_in: usize) -> Self {
        let l = config.amt.l;
        let mut sim = Self {
            l,
            n_records: 0,
            runs_in: 0,
            groups: 0,
            leaf_streams: vec![Vec::new(); l],
            leaf_pos: vec![0; l],
            leaf_payload: vec![0; l],
            leaves_open: 0,
            tree: MergeTree::new(config.amt),
            loader: DataLoader::new(config.loader, vec![0; l]),
            drain: WriteDrain::new(config.loader),
            out_stream: Vec::new(),
            draining_signalled: false,
            done: false,
            cycles: 0,
            fast_forwarded: 0,
        };
        sim.reset(runs, fan_in);
        sim
    }

    /// Re-arms the simulation for another stage on the same
    /// configuration, merging groups of `fan_in` runs of `runs`: the
    /// tree, loader and drain return to their just-built state
    /// (`sanitize` probes included), every counter to zero, and the
    /// streams are rebuilt in place — whatever state the previous pass
    /// was left in, finished or abandoned on an error. Allocates only
    /// where a stream outgrows the capacity earlier passes left behind.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= fan_in <= l`.
    pub fn reset(&mut self, runs: RunSet<R>, fan_in: usize) {
        let l = self.l;
        assert!(fan_in >= 2 && fan_in <= l, "fan-in must be in [2, l]");
        let groups = runs.num_runs().div_ceil(fan_in);

        // Build the ℓ leaf streams, each terminal-delimited; leaves with
        // no run in a group get bare terminals so every leaf sees exactly
        // `groups` runs (run/group alignment). Within a group, run `j` is
        // placed on leaf `bitrev(j)`: consecutive runs land in opposite
        // subtrees, so partial groups still feed both root inputs and the
        // root sustains full throughput (this is the leaf/address mapping
        // the hardware data loader uses).
        let log_l = l.trailing_zeros();
        let bitrev = |j: usize| j.reverse_bits() >> (usize::BITS - log_l);
        self.leaf_payload.fill(0);
        for (run_idx, run) in runs.iter_runs().enumerate() {
            self.leaf_payload[bitrev(run_idx % fan_in)] += run.len() as u64;
        }
        for (stream, &payload) in self.leaf_streams.iter_mut().zip(&self.leaf_payload) {
            stream.clear();
            stream.reserve(payload as usize + groups);
        }
        for g in 0..groups {
            for j in 0..fan_in {
                let run_idx = g * fan_in + j;
                if run_idx < runs.num_runs() {
                    self.leaf_streams[bitrev(j)].extend_from_slice(runs.run(run_idx));
                }
            }
            for stream in &mut self.leaf_streams {
                stream.push(R::TERMINAL);
            }
        }

        self.n_records = runs.len() as u64;
        self.runs_in = runs.num_runs() as u64;
        self.groups = groups as u64;
        // The input is copied out; free it before sizing the output.
        drop(runs);

        self.leaf_pos.fill(0);
        // Every stream ends in at least one terminal per group.
        self.leaves_open = if groups == 0 { 0 } else { l };
        self.tree.reset();
        self.loader.reset(&self.leaf_payload);
        self.drain.reset();
        self.out_stream.clear();
        self.out_stream.reserve(self.n_records as usize + groups);
        self.draining_signalled = false;
        self.done = false;
        self.cycles = 0;
        self.fast_forwarded = 0;
    }

    /// Frees the buffers whose size follows the job rather than the
    /// configuration: the leaf streams and the output stream. The tree,
    /// loader and drain stay allocated; [`PassSim::reset`] rebuilds the
    /// streams before the scratch runs again.
    fn release_streams(&mut self) {
        self.leaf_streams.fill_with(Vec::new);
        self.out_stream = Vec::new();
    }

    /// Returns `true` once the pass has run to completion.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Moves what fits of leaf `leaf`'s stream into its FIFO: terminals
    /// flow freely (generated on chip by the zero-append unit), payload
    /// is gated by the loader. Free FIFO space and loader availability
    /// are sampled once and the records move as one batch. Returns
    /// `true` when any record moved.
    ///
    /// A leaf left behind has hit the end of its stream, a full FIFO, or
    /// an empty loader buffer in front of a payload record — states only
    /// its merger consuming input or a burst landing can end, which is
    /// what makes the candidate sets in [`PassSim::step`] sufficient.
    #[inline]
    fn feed_leaf(&mut self, leaf: usize) -> bool {
        let stream = &self.leaf_streams[leaf];
        let pos = self.leaf_pos[leaf];
        if pos == stream.len() {
            return false;
        }
        let free = self.tree.leaf_free(leaf);
        if free == 0 {
            return false;
        }
        let avail = self.loader.available(leaf);
        let mut take = 0usize;
        let mut payload = 0u64;
        for rec in &stream[pos..stream.len().min(pos + free)] {
            if !rec.is_terminal() {
                if payload == avail {
                    break;
                }
                payload += 1;
            }
            take += 1;
        }
        if take == 0 {
            return false;
        }
        if payload > 0 {
            self.loader.consume(leaf, payload);
        }
        let pushed = self.tree.push_leaf_slice(leaf, &stream[pos..pos + take]);
        debug_assert_eq!(pushed, take, "leaf_free promised space");
        self.leaf_pos[leaf] = pos + take;
        if pos + take == stream.len() {
            self.leaves_open -= 1;
        }
        true
    }

    /// Simulates exactly one cycle; returns `true` when any state in the
    /// pass changed (the quiescence signal the fast path keys on).
    fn step(&mut self, cycle: u64, memory: &mut Memory) -> bool {
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
                    changed |= self.feed_leaf(leaf);
                }
            }
        }

        changed |= self.tree.tick();

        // Zero filter + packer: move root output into the write drain;
        // terminals mark run boundaries and cost no bandwidth. The
        // drain's free space is sampled once and the cycle's payload is
        // handed over in one call.
        let space = self.drain.free_space();
        let mut payload = 0u64;
        while payload < space {
            let Some(rec) = self.tree.pop_root() else {
                break;
            };
            payload += u64::from(!rec.is_terminal());
            self.out_stream.push(rec);
            changed = true;
        }
        if payload > 0 {
            self.drain.push_records(payload);
        }

        // Input done and tree drained, which then stays true. The tree
        // cannot be drained before the root has flushed once per group,
        // so the walk over its nodes runs at the end of the pass only.
        if !self.draining_signalled
            && self.leaves_open == 0
            && self.tree.root_flushes() == self.groups
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

    /// Advances one cycle against `memory` — the reference per-cycle
    /// loop. Returns `true` when done.
    pub fn tick(&mut self, cycle: u64, memory: &mut Memory) -> bool {
        if self.done {
            return true;
        }
        self.step(cycle, memory);
        self.done
    }

    /// Advances the pass by *at least* one cycle, returning how many
    /// simulated cycles were consumed — the event-driven fast path.
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
    pub fn advance(&mut self, cycle: u64, memory: &mut Memory) -> u64 {
        if self.done {
            return 1;
        }
        let changed = self.step(cycle, memory);
        if changed || self.done {
            return 1;
        }
        let next = match (
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
        debug_assert!(next > cycle, "events must be in the future");
        let skip = next.saturating_sub(cycle + 1);
        if skip > 0 {
            self.cycles += skip;
            self.fast_forwarded += skip;
            self.tree.fast_forward(skip);
        }
        1 + skip
    }

    /// Drives the pass to completion against `memory` — on the reference
    /// per-cycle loop when `reference` is true, else on the event-driven
    /// fast path. A pass still unfinished when the simulated clock
    /// reaches `max_cycles` fails with the `BON040` livelock
    /// [`SortError`] for `stage`. The bound is checked against the same
    /// simulated clock on both loops (fast-forwarded spans count in
    /// full, and a livelocked pass reports a saturating span), and
    /// neither loop ever simulates a cycle `>= max_cycles`, so the two
    /// paths succeed or fail identically.
    ///
    /// Every [`STEPS_PER_POLL`] steps the loop calls `poll`: a yield
    /// point where the caller may run other work on this thread. The
    /// pass keeps all of its state where it is, so nothing is saved and
    /// nothing the pass computes can change.
    pub(crate) fn run(
        &mut self,
        memory: &mut Memory,
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
                if self.tick(cycle, memory) {
                    return Ok(());
                }
                cycle += 1;
            } else {
                let consumed = self.advance(cycle, memory);
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
    /// and the root's terminal-flush protocol (`BON106`).
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
            let payload_out = self.out_stream.iter().filter(|r| !r.is_terminal()).count() as u64;
            if payload_out != self.n_records || self.drain.completed_records() != self.n_records {
                out.push(
                    Diagnostic::error(
                        codes::SAN_PASS_CONSERVATION,
                        "merge pass lost or duplicated records end to end",
                    )
                    .with("records_in", self.n_records)
                    .with("payload_out", payload_out)
                    .with("records_written", self.drain.completed_records()),
                );
            }
            let terminals = self.out_stream.iter().filter(|r| r.is_terminal()).count() as u64;
            let ends_with_terminal = self.out_stream.last().is_none_or(Record::is_terminal);
            if terminals != self.groups || !ends_with_terminal {
                out.push(
                    Diagnostic::error(
                        codes::SAN_FLUSH_PROTOCOL,
                        "root output must carry exactly one terminal per merge group and end with one",
                    )
                    .with("terminals", terminals)
                    .with("groups", self.groups),
                );
            }
        }
        out
    }

    /// The finished pass's output runs and report.
    ///
    /// # Panics
    ///
    /// Panics if the pass is not done.
    pub fn finish(&self, stage: u32) -> (RunSet<R>, PassReport) {
        assert!(self.done, "pass must run to completion before finish()");
        debug_assert_eq!(self.drain.completed_records(), self.n_records);
        let out_runs = split_runs(&self.out_stream).expect("root output is terminal-delimited");
        debug_assert_eq!(out_runs.len() as u64, self.n_records);
        let tree_stats = self.tree.stats();
        let pass = PassReport {
            stage,
            cycles: self.cycles,
            records: self.n_records,
            runs_in: self.runs_in,
            runs_out: out_runs.num_runs() as u64,
            // Byte counters live in the shared Memory; the caller fills
            // these in when it owns the memory exclusively.
            bytes_read: 0,
            bytes_written: 0,
            input_stalls: tree_stats.total_input_stalls,
            output_stalls: tree_stats.total_output_stalls,
            fast_forwarded_cycles: self.fast_forwarded,
            // A plan's fold (`dag::fold_pass`) schedules its tasks on
            // the plan's virtual pool and writes these.
            busy_worker_cycles: 0,
            idle_worker_cycles: 0,
        };
        (out_runs, pass)
    }
}

/// One worker's simulation state: the pass (tree, streams, loader and
/// drain) and the memory it runs against, built by the worker's first
/// pass and reset for every later one — a pass costs its streams'
/// growth, not the ≈100 allocations of a new tree. A one-worker sort
/// takes it from its thread's park ([`unpark`]) and parks it again when
/// it ends ([`park`]), so it also outlives the sort.
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
/// of `config` and `R`, its job-sized streams released. It replaces an
/// entry for the same key and pushes out the least recently parked one
/// beyond [`PARKED_SCRATCHES`]. A reset scratch equals a new one, so
/// what earlier jobs left in it never shows.
pub(crate) fn park<R: Record>(config: &SimEngineConfig, scratch: PassScratch<R>) {
    let Some(mut scratch) = scratch else {
        return;
    };
    scratch.0.release_streams();
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
/// probes' findings, not yet tagged with a stage or group.
#[derive(Debug)]
pub(crate) struct PassStats {
    pub(crate) report: PassReport,
    #[cfg(feature = "sanitize")]
    pub(crate) diagnostics: Vec<bonsai_check::Diagnostic>,
}

/// Simulates one pass merging groups of `fan_in` runs of `runs` to
/// completion on `scratch`, against a memory built from `memory` — the
/// whole memory for the fused plan's single tree, a group's
/// [`MemoryConfig::shard_view`] for one merge group — and returns the
/// output runs (terminal-free and sorted) and the accounting. What an
/// earlier pass left in the scratch, finished or abandoned on an error,
/// never shows: a reset scratch equals a new one.
///
/// Fails with `BON040` for `stage` when the pass is still running at
/// `max_cycles` ([`PassSim::run`], which also calls `poll` at its yield
/// points).
#[allow(clippy::too_many_arguments)] // one pass's whole input, no more
pub(crate) fn simulate<R: Record>(
    config: &SimEngineConfig,
    scratch: &mut PassScratch<R>,
    runs: RunSet<R>,
    fan_in: usize,
    memory: MemoryConfig,
    stage: u32,
    max_cycles: u64,
    reference: bool,
    poll: &mut dyn FnMut(),
) -> Result<(RunSet<R>, PassStats), SortError> {
    let (sim, mem) = match scratch {
        Some(used) => {
            used.0.reset(runs, fan_in);
            used.1.reset(memory);
            &mut **used
        }
        None => &mut **scratch.insert(Box::new((
            PassSim::new(config, runs, fan_in),
            Memory::new(memory),
        ))),
    };
    sim.run(mem, reference, max_cycles, stage, poll)?;
    #[cfg(feature = "sanitize")]
    let diagnostics = sim.sanitize_check();
    let (out_runs, mut report) = sim.finish(stage);
    report.bytes_read = mem.bytes_read();
    report.bytes_written = mem.bytes_written();
    let stats = PassStats {
        report,
        #[cfg(feature = "sanitize")]
        diagnostics,
    };
    Ok((out_runs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmtConfig;
    use bonsai_records::U32Rec;

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
            let mut sim = PassSim::new(&cfg, RunSet::from_chunks(data, run_len), fan_in);
            let mut memory = Memory::new(cfg.memory.shard_view(fan_in));
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
                    let (stream, pos) = (&sim.leaf_streams[leaf], sim.leaf_pos[leaf]);
                    let feedable = pos < stream.len()
                        && sim.tree.leaf_free(leaf) > 0
                        && (stream[pos].is_terminal() || loader.available(leaf) > 0);
                    fed += u64::from(feedable);
                    assert!(
                        listed || !feedable,
                        "{ctx}: leaf {leaf} would be fed but is no candidate"
                    );
                }
                steps += l as u64;
                cycle += sim.advance(cycle, &mut memory);
                assert!(cycle < 50_000_000, "{ctx}: livelock");
            }
            let (out, _) = sim.finish(1);
            assert_eq!(out.len() as u64, sim.n_records);
        }
        // The sets are worth having: most leaves are not on them.
        assert!(fed > 0 && candidates < steps / 2, "{candidates} of {steps}");
    }

    /// One scratch carried through passes of differing fan-in, size and
    /// memory (a group's bank view, or the whole memory as the fused
    /// sort uses it) — including right after a pass abandoned on
    /// `BON040` — must yield what a new scratch yields for each: output
    /// runs, the whole report and (under `sanitize`) the probes'
    /// findings.
    #[test]
    fn reused_scratch_matches_a_new_one_group_after_group() {
        type Observed = (Vec<U32Rec>, PassReport, String);

        fn observe(
            result: Result<(RunSet<U32Rec>, PassStats), SortError>,
        ) -> Result<Observed, SortError> {
            result.map(|(out, stats)| {
                #[cfg(feature = "sanitize")]
                let findings = format!("{:?}", stats.diagnostics);
                #[cfg(not(feature = "sanitize"))]
                let findings = String::new();
                (out.into_records(), stats.report, findings)
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
                let memory = if step % 4 == 3 {
                    cfg.memory
                } else {
                    cfg.memory.shard_view(fan_in)
                };
                let run = |scratch: &mut PassScratch<U32Rec>, bound, reference| {
                    let runs = runs.clone();
                    observe(simulate(
                        &cfg,
                        scratch,
                        runs,
                        fan_in,
                        memory,
                        1,
                        bound,
                        reference,
                        &mut || {},
                    ))
                };
                let want = run(&mut None, u64::MAX, false).expect("an unbounded pass finishes");
                // Every third pass is cut off half way: the scratch is
                // abandoned mid-pass, records in every FIFO.
                let bound = if step % 3 == 1 {
                    want.1.cycles / 2
                } else {
                    u64::MAX
                };
                let fresh = run(&mut None, bound, false);
                let reused = run(&mut scratch, bound, step % 2 == 0).map(|(out, mut report, f)| {
                    // The reference loop (even steps) fast-forwards nothing.
                    if step % 2 == 0 {
                        report.fast_forwarded_cycles = want.1.fast_forwarded_cycles;
                    }
                    (out, report, f)
                });
                assert_eq!(reused, fresh, "AMT({}, {l}) step {step}", cfg.amt.p);
                match fresh {
                    Ok(got) => assert_eq!(got, want),
                    Err(_) => failed += 1,
                }
            }
            assert!(failed >= 4, "too few BON040 passes: {failed}");
        }
    }
}
