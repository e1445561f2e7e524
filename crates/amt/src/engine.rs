//! The cycle-approximate merge-sort engine.

use bonsai_check::Diagnostic;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::dag::SortPlan;
use crate::error::SortError;
use crate::report::SortReport;

/// Safety bound: a single pass may never exceed this many cycles (a
/// livelock would otherwise spin forever).
pub(crate) const MAX_PASS_CYCLES: u64 = 50_000_000_000;

/// The full cycle-approximate sorting engine of §II (Figure 2): it
/// presorts the input, then repeatedly streams it from (modeled) off-chip
/// memory through a [`MergeTree`](crate::MergeTree) and back until one sorted run remains.
///
/// Every simulated run sorts **real data** — the output is verified
/// sortable, and the cycle count is what the hardware's stall/throughput
/// semantics dictate, so the report validates the paper's analytic model
/// (§VI-B: measured within 10 % of predicted).
///
/// Every entry point runs the whole sort on the calling thread, one
/// pass at a time, as the hardware runs its stages.
///
/// See the crate-level example for usage.
#[derive(Debug, Clone)]
pub struct SimEngine {
    config: SimEngineConfig,
    max_pass_cycles: u64,
    reference_loop: bool,
    #[cfg(feature = "sanitize")]
    diagnostics: Vec<Diagnostic>,
}

impl SimEngine {
    /// Creates an engine from its configuration, rejecting invalid ones
    /// with the structured `BONxxx` diagnostics of
    /// [`SimEngineConfig::validate`] (e.g. `BON004` for a zero record
    /// width) instead of panicking.
    pub fn try_new(config: SimEngineConfig) -> Result<Self, Vec<Diagnostic>> {
        config.try_validated().map(Self::prevalidated)
    }

    /// Creates an engine from a configuration that is already known to
    /// be valid: [`SimEngine::try_new`] after validating, and the
    /// compiled-shape cache ([`CompiledShape::engine`](crate::CompiledShape::engine)),
    /// which holds a `CompiledShape` as proof.
    pub(crate) fn prevalidated(config: SimEngineConfig) -> Self {
        Self {
            config,
            max_pass_cycles: MAX_PASS_CYCLES,
            reference_loop: false,
            #[cfg(feature = "sanitize")]
            diagnostics: Vec::new(),
        }
    }

    /// Creates an engine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SimEngineConfig::validate`]
    /// (e.g. a zero record width). Use [`SimEngine::try_new`] to get the
    /// diagnostics instead.
    pub fn new(config: SimEngineConfig) -> Self {
        match Self::try_new(config) {
            Ok(engine) => engine,
            Err(diagnostics) => panic!("invalid engine configuration: {diagnostics:?}"),
        }
    }

    /// Overrides the per-pass livelock cycle bound (default 5·10¹⁰).
    ///
    /// A pass still ticking at the bound fails with `BON040`
    /// ([`SortError`]); batch runtimes lower this to bound one job's
    /// worst-case simulation time.
    #[must_use]
    pub fn with_max_pass_cycles(mut self, bound: u64) -> Self {
        self.max_pass_cycles = bound;
        self
    }

    /// Selects the simulation loop: `true` runs the reference per-cycle
    /// loop, the oracle the event-driven fast path (the default, and what
    /// every production caller runs) is checked against. Both produce
    /// bit-identical sorted output and reports; only wall-clock time and
    /// the `fast_forwarded_cycles` observability counters differ. This
    /// builder is the only way to reach the reference loop.
    #[must_use]
    pub fn with_reference_loop(mut self, reference: bool) -> Self {
        self.reference_loop = reference;
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimEngineConfig {
        &self.config
    }

    /// Sanitizer findings (`BON1xx`) accumulated by the most recent
    /// [`SimEngine::sort`]; empty means every invariant probe held.
    ///
    /// Only available with the `sanitize` feature.
    #[cfg(feature = "sanitize")]
    pub fn sanitizer_diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Sorts `data`, returning the sorted records and the timing report.
    ///
    /// Input records are [`Record::sanitize`]d first (the reserved
    /// terminal value is remapped), exactly as the hardware contract
    /// requires (§V-B).
    ///
    /// # Panics
    ///
    /// Panics if a pass exceeds the livelock cycle bound; use
    /// [`SimEngine::try_sort`] to receive the `BON040` [`SortError`]
    /// instead.
    pub fn sort<R: Record>(&mut self, data: Vec<R>) -> (Vec<R>, SortReport) {
        match self.try_sort(data) {
            Ok(out) => out,
            Err(err) => panic!("{err}"),
        }
    }

    /// Fallible [`SimEngine::sort`]: a pass that exceeds the livelock
    /// cycle bound surfaces as a `BON040` [`SortError`] rather than
    /// aborting the process, so a batch runtime can fail one job and
    /// keep going.
    ///
    /// One tree on the whole memory: each pass merges all of its groups
    /// back to back (the fused plan).
    pub fn try_sort<R: Record>(&mut self, data: Vec<R>) -> Result<(Vec<R>, SortReport), SortError> {
        self.run(data, SortPlan::fused, &mut || {})
    }

    /// Sorts `data` one pass at a time, each merge group simulated
    /// standalone against its share of the banks (the per-group plan).
    /// Livelocked groups surface as `BON040` [`SortError`]s: the first
    /// failing group stops the sort.
    ///
    /// `workers` is ignored, and kept so that existing callers compile:
    /// like every sort of the engine, this one runs on the calling
    /// thread alone.
    pub fn try_sort_pipelined<R: Record>(
        &mut self,
        data: Vec<R>,
        _workers: usize,
    ) -> Result<(Vec<R>, SortReport), SortError> {
        self.run(data, SortPlan::per_group, &mut || {})
    }

    /// [`SimEngine::try_sort_pipelined`], calling `poll` at every yield
    /// point: before each merge group, and every 128 simulation steps
    /// inside one. `poll` may run other work on this thread, another
    /// sort included; the sort keeps all of its state where it is, so
    /// its output and report are those of `try_sort_pipelined`.
    pub fn try_sort_yielding<R: Record>(
        &mut self,
        data: Vec<R>,
        poll: &mut dyn FnMut(),
    ) -> Result<(Vec<R>, SortReport), SortError> {
        self.run(data, SortPlan::per_group, poll)
    }

    /// The one pass loop (`dag::sort`) on the plan `plan` builds,
    /// behind every entry point.
    fn run<R: Record>(
        &mut self,
        data: Vec<R>,
        plan: fn(&SimEngineConfig, usize) -> SortPlan,
        poll: &mut dyn FnMut(),
    ) -> Result<(Vec<R>, SortReport), SortError> {
        #[cfg(feature = "sanitize")]
        self.diagnostics.clear();
        crate::dag::sort(
            &self.config,
            data,
            plan,
            self.max_pass_cycles,
            self.reference_loop,
            poll,
            #[cfg(feature = "sanitize")]
            &mut self.diagnostics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmtConfig;
    use bonsai_gensort::dist::{uniform_u32, Distribution};
    use bonsai_records::U32Rec;

    fn sort_with(amt: AmtConfig, n: usize, seed: u64) -> (Vec<U32Rec>, SortReport) {
        let data = uniform_u32(n, seed);
        let cfg = SimEngineConfig::dram_sorter(amt, 4);
        SimEngine::new(cfg).sort(data)
    }

    fn assert_sorted_permutation(input: &[U32Rec], output: &[U32Rec]) {
        assert_eq!(input.len(), output.len());
        assert!(output.windows(2).all(|w| w[0] <= w[1]), "output not sorted");
        let mut a: Vec<u32> = input.iter().map(|r| r.0).collect();
        let mut b: Vec<u32> = output.iter().map(|r| r.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "output is not a permutation of input");
    }

    #[test]
    fn sorts_small_uniform_input() {
        let data = uniform_u32(5_000, 11);
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let (out, report) = SimEngine::new(cfg).sort(data.clone());
        assert_sorted_permutation(&data, &out);
        // 5000 records / 16 presorted = 313 runs -> stages = ceil(log16 313) = 3.
        assert_eq!(report.stages(), 3);
    }

    #[test]
    fn stage_count_matches_formula() {
        for (n, l, presort, expected) in [
            (1_000usize, 16usize, Some(16), 2u32), // 63 runs -> 2 stages
            (1_000, 16, None, 3),                  // 1000 runs -> 3 stages
            (256, 256, None, 1),
            (257, 256, None, 2),
            (16, 16, Some(16), 0),
        ] {
            let data = uniform_u32(n, 3);
            let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, l), 4);
            cfg.presort = presort;
            let (out, report) = SimEngine::new(cfg).sort(data.clone());
            assert_sorted_permutation(&data, &out);
            assert_eq!(report.stages(), expected, "n={n} l={l} presort={presort:?}");
        }
    }

    #[test]
    fn sorts_adversarial_distributions() {
        for d in [
            Distribution::Sorted,
            Distribution::Reverse,
            Distribution::FewDistinct(3),
            Distribution::AlmostSorted(0.2),
        ] {
            let data = d.generate_u32(3_000, 5);
            let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 8), 4);
            let (out, _) = SimEngine::new(cfg).sort(data.clone());
            assert_sorted_permutation(&data, &out);
        }
    }

    #[test]
    fn sorts_input_containing_terminal_values() {
        // Zeros are the reserved terminal: sanitize maps them to 1.
        let data: Vec<U32Rec> = [0u32, 5, 0, 3, 0, 1]
            .iter()
            .map(|&v| U32Rec::new(v))
            .collect();
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4).without_presort();
        let (out, _) = SimEngine::new(cfg).sort(data);
        let vals: Vec<u32> = out.iter().map(|r| r.0).collect();
        assert_eq!(vals, vec![1, 1, 1, 1, 3, 5]);
    }

    #[test]
    fn empty_and_single_record_inputs() {
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
        let (out, report) = SimEngine::new(cfg).sort(Vec::<U32Rec>::new());
        assert!(out.is_empty());
        assert_eq!(report.stages(), 0);

        let (out, report) = SimEngine::new(cfg).sort(vec![U32Rec::new(9)]);
        assert_eq!(out, vec![U32Rec::new(9)]);
        assert_eq!(report.stages(), 0);
    }

    #[test]
    fn a_yielding_sort_polls_inside_its_groups_and_changes_nothing() {
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let data = uniform_u32(20_000, 17);
        let want = SimEngine::new(cfg)
            .try_sort_pipelined(data.clone(), 1)
            .expect("sorts");
        // Each poll runs another sort on this thread, as a lent job does.
        let mut polls = 0u64;
        let got = SimEngine::new(cfg)
            .try_sort_yielding(data, &mut || {
                polls += 1;
                SimEngine::new(cfg)
                    .try_sort_pipelined(uniform_u32(100, polls), 1)
                    .expect("lent sort");
            })
            .expect("sorts");
        assert_eq!(got, want);
        // One poll before each group, and more inside them.
        let groups: u64 = want.1.passes.iter().map(|pass| pass.runs_out).sum();
        assert!(polls > groups, "{polls} polls for {groups} groups");
    }

    /// How a cross-job test sort is called.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Fused,
        PerGroup,
        Yielding,
    }

    /// One sort of the cross-job test: shape, entry point, loop, an
    /// optional livelock bound, and its input's size and seed.
    #[derive(Debug, Clone, Copy)]
    struct Job {
        config: SimEngineConfig,
        entry: Entry,
        reference: bool,
        bound: Option<u64>,
        records: usize,
        seed: u64,
    }

    /// What `job` returns on `R` records, sanitizer findings included,
    /// printed; `poll` is the yielding entry's.
    fn outcome<R: Record>(job: &Job, make: fn(u32) -> R, poll: &mut dyn FnMut()) -> String {
        let data: Vec<R> = uniform_u32(job.records, job.seed)
            .into_iter()
            .map(|r| make(r.0))
            .collect();
        let mut engine = SimEngine::new(job.config).with_reference_loop(job.reference);
        if let Some(bound) = job.bound {
            engine = engine.with_max_pass_cycles(bound);
        }
        let result = match job.entry {
            Entry::Fused => engine.try_sort(data),
            Entry::PerGroup => engine.try_sort_pipelined(data, 1),
            Entry::Yielding => engine.try_sort_yielding(data, poll),
        };
        #[cfg(feature = "sanitize")]
        let findings = format!("{:?}", engine.sanitizer_diagnostics());
        #[cfg(not(feature = "sanitize"))]
        let findings = String::new();
        format!("{result:?} {findings}")
    }

    /// `job` on its record type (`wide`: `U64Rec`, else `U32Rec`).
    fn typed_outcome(job: &Job, wide: bool, poll: &mut dyn FnMut()) -> String {
        if wide {
            outcome(
                job,
                |v| bonsai_records::U64Rec::new(u64::from(v) << 16 | 1),
                poll,
            )
        } else {
            outcome(job, U32Rec::new, poll)
        }
    }

    /// `job` on a new thread, where nothing is parked.
    fn on_new_thread(job: Job, wide: bool) -> String {
        std::thread::spawn(move || typed_outcome(&job, wide, &mut || {}))
            .join()
            .expect("the sort thread")
    }

    /// Sorts that run one after another on a thread share the scratch
    /// it parks, and none of them can tell: a seeded sequence of sorts
    /// on this thread — three shapes, two record types on the same
    /// shape, both loops, every entry point, sorts cut off by `BON040`
    /// and sorts nested in a yielding sort's poll — each returns what
    /// the same sort returns on a new thread: output, report or error,
    /// and the sanitizer's findings.
    #[test]
    fn sorts_sharing_a_thread_match_sorts_on_new_threads() {
        let shapes = [
            SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
            SimEngineConfig::dram_sorter(AmtConfig::new(2, 2), 4),
            SimEngineConfig::with_memory(
                AmtConfig::new(8, 64),
                4,
                bonsai_memsim::MemoryConfig::hbm_u50(),
            ),
        ];
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x5C2A_0031);
        let job = |rng: &mut bonsai_rng::Rng| Job {
            config: shapes[rng.below_usize(shapes.len())],
            entry: [Entry::Fused, Entry::PerGroup, Entry::Yielding][rng.below_usize(3)],
            reference: rng.chance_percent(25),
            bound: rng.chance_percent(20).then(|| rng.range_u64(20, 400)),
            records: [0, 1, 17, 300, 1_500, 4_000][rng.below_usize(6)],
            seed: rng.next_u64(),
        };
        let (mut failed, mut nested) = (0, 0);
        for step in 0..60 {
            let (outer, wide) = (job(&mut rng), rng.chance_percent(50));
            // A yielding sort runs a sort of its own every fifth poll.
            let inner: Vec<(Job, bool)> = (0..4)
                .map(|_| (job(&mut rng), rng.chance_percent(50)))
                .collect();
            let mut ran = Vec::new();
            let mut polls = 0;
            let got = typed_outcome(&outer, wide, &mut || {
                polls += 1;
                if polls % 5 == 0 && ran.len() < inner.len() {
                    let (job, wide) = inner[ran.len()];
                    ran.push(typed_outcome(&job, wide, &mut || {}));
                }
            });
            let ctx = format!("step {step}: {outer:?} wide {wide}");
            assert_eq!(got, on_new_thread(outer, wide), "{ctx}");
            for (i, got) in ran.iter().enumerate() {
                let (job, wide) = inner[i];
                assert_eq!(*got, on_new_thread(job, wide), "{ctx}, nested {i}");
            }
            failed += usize::from(got.starts_with("Err"));
            nested += ran.len();
        }
        assert!(
            failed >= 5 && nested >= 5,
            "{failed} failed, {nested} nested"
        );
    }

    #[test]
    fn bytes_moved_equals_full_round_trips() {
        let n = 4_096usize;
        let (_, report) = sort_with(AmtConfig::new(4, 16), n, 8);
        for pass in &report.passes {
            assert_eq!(pass.bytes_read, (n * 4) as u64, "stage {}", pass.stage);
            assert_eq!(pass.bytes_written, (n * 4) as u64);
        }
    }

    #[test]
    fn non_power_of_two_input_sizes() {
        for n in [1usize, 2, 15, 17, 255, 1023, 4097] {
            let data = uniform_u32(n, n as u64);
            let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
            let (out, _) = SimEngine::new(cfg).sort(data.clone());
            assert_sorted_permutation(&data, &out);
        }
    }

    #[test]
    fn throughput_saturates_for_wide_tree() {
        // AMT(8, 16) on full-speed DRAM: the root should sustain close to
        // 8 records/cycle. Stages whose active-run count is close to p
        // have no entry-rate slack and lose some throughput to queueing
        // (runs enter leaves at 1 record/cycle), so the bound is 5.5.
        let n = 100_000usize;
        let (_, report) = sort_with(AmtConfig::new(8, 16), n, 13);
        for pass in &report.passes {
            let rpc = pass.records_per_cycle();
            assert!(rpc > 5.5, "stage {} only {rpc:.2} rec/cycle", pass.stage);
        }
    }

    #[test]
    fn throughput_near_full_with_entry_slack() {
        // AMT(4, 16): every stage has at least 2x entry-rate slack
        // (fan-in >= 8 >= 2p), so the root sustains ~4 records/cycle.
        let n = 100_000usize;
        let (_, report) = sort_with(AmtConfig::new(4, 16), n, 13);
        for pass in &report.passes {
            let rpc = pass.records_per_cycle();
            assert!(rpc > 3.5, "stage {} only {rpc:.2} rec/cycle", pass.stage);
        }
    }
}
