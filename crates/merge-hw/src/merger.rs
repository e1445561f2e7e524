//! The cycle-level `k`-merger model: one merge step over three edges,
//! and a standalone merger that owns its edges.

use std::marker::PhantomData;

use bonsai_records::Record;

use crate::edge::{Edge, FifoFullError};

#[cfg(feature = "sanitize")]
use bonsai_check::{codes, Diagnostic};

/// Cap on stored findings per merger so a systematically broken run
/// cannot balloon memory; the first violations are the informative ones.
#[cfg(feature = "sanitize")]
const SAN_MAX_DIAGNOSTICS: usize = 16;

/// Invariant probes woven into the merger datapath when the `sanitize`
/// feature is on. Pure bookkeeping: it never changes cycle semantics.
#[cfg(feature = "sanitize")]
#[derive(Debug, Clone)]
struct MergerSanitizer<R> {
    /// Payload records accepted at the input ports.
    payload_in: u64,
    /// Last payload record emitted in the current output run.
    last_out: Option<R>,
    /// Violations observed so far (capped).
    diagnostics: Vec<Diagnostic>,
}

#[cfg(feature = "sanitize")]
impl<R: Record> MergerSanitizer<R> {
    fn new() -> Self {
        Self {
            payload_in: 0,
            last_out: None,
            diagnostics: Vec::new(),
        }
    }

    fn report(&mut self, d: Diagnostic) {
        if self.diagnostics.len() < SAN_MAX_DIAGNOSTICS {
            self.diagnostics.push(d);
        }
    }

    fn on_input(&mut self, rec: &R) {
        if !rec.is_terminal() {
            self.payload_in += 1;
        }
    }

    fn on_output(&mut self, rec: &R) {
        if rec.is_terminal() {
            self.last_out = None;
        } else {
            if let Some(prev) = self.last_out {
                if *rec < prev {
                    self.report(Diagnostic::error(
                        codes::SAN_OUT_OF_ORDER,
                        "merger emitted a descending record within one output run",
                    ));
                }
            }
            self.last_out = Some(*rec);
        }
    }
}

/// Runtime statistics accumulated by a merger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergerStats {
    /// Total cycles ticked.
    pub cycles: u64,
    /// Cycles in which at least one record (or terminal) moved.
    pub busy_cycles: u64,
    /// Cycles fully stalled waiting for input data.
    pub input_stalls: u64,
    /// Cycles fully stalled on output back-pressure.
    pub output_stalls: u64,
    /// Payload records emitted (terminals excluded).
    pub records_out: u64,
    /// Terminal records emitted — equals completed run-pair merges, each
    /// costing the single flush cycle of §V-B.
    pub flushes: u64,
}

/// Which of the two input ports of a merger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The left (first) input port.
    Left,
    /// The right (second) input port.
    Right,
}

/// One hardware `k`-merger's state — its width, two run-done flags and
/// statistics — and its cycle, [`MergeStep::tick`], over the three
/// [`Edge`]s it is wired to: it consumes the input sides of `left` and
/// `right` and produces into the output side of `out` (§II-A).
///
/// The step does not own its edges, so a tree keeps every edge in one
/// array and hands each visit the three it touches in place; a
/// standalone [`KMerger`] owns three edges of its own. Both run this
/// one cycle, so the tree and the merger cannot drift apart.
///
/// The cycle reproduces the hardware's externally visible behavior:
///
/// - **Throughput**: at most `k` records leave per cycle, and exactly `k`
///   leave whenever both inputs have data and the output has room.
/// - **Stalls**: if an input run is not finished and its input is empty,
///   the merger stalls (it cannot know the next record is not smaller).
/// - **Flush**: when both current runs have ended, one terminal record is
///   emitted and the run state resets — a single-cycle flush, improving
///   on multi-cycle flush schemes (§V-B).
///
/// Input runs **must** each be followed by exactly one terminal record
/// ([`Record::TERMINAL`]); the output run is likewise terminal-delimited.
/// See [`Edge`] for a three-edge example.
#[derive(Debug, Clone)]
pub struct MergeStep<R> {
    k: usize,
    left_run_done: bool,
    right_run_done: bool,
    stats: MergerStats,
    #[cfg(feature = "sanitize")]
    san: MergerSanitizer<R>,
    _records: PhantomData<R>,
}

impl<R: Record> MergeStep<R> {
    /// A `k`-merger with no run in progress and zeroed statistics.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "merger width k must be positive");
        Self {
            k,
            left_run_done: false,
            right_run_done: false,
            stats: MergerStats::default(),
            #[cfg(feature = "sanitize")]
            san: MergerSanitizer::new(),
            _records: PhantomData,
        }
    }

    /// Returns the state to [`MergeStep::new`]'s: no run in progress,
    /// zeroed statistics and (with `sanitize`) fresh probes.
    pub fn reset(&mut self) {
        *self = Self::new(self.k);
    }

    /// Records-per-cycle width `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MergerStats {
        self.stats
    }

    /// Pushes as many records from `recs` as fit into `input`, a leaf
    /// port this merger reads, in order, and returns how many were
    /// accepted.
    pub fn push_input_slice(&mut self, input: &mut Edge<R>, recs: &[R]) -> usize {
        let n = input.push_input_slice(recs);
        #[cfg(feature = "sanitize")]
        for rec in &recs[..n] {
            self.san.on_input(rec);
        }
        n
    }

    /// The coupler into this merger: hands what fits of the child side
    /// of `input` (an edge this merger reads) to this merger, and returns
    /// how many records (terminals included) moved.
    #[inline]
    pub fn couple(&mut self, input: &mut Edge<R>) -> usize {
        let n = input.couple();
        #[cfg(feature = "sanitize")]
        for offset in input.input_len() - n..input.input_len() {
            if let Some(rec) = input.input(offset) {
                self.san.on_input(&rec);
            }
        }
        n
    }

    /// Returns `true` when the *next* [`MergeStep::tick`] on these edges
    /// would change any state: move a record, absorb a terminal, or
    /// flush a finished run pair. A `false` result is stable until
    /// someone pushes input or takes output — see
    /// [`KMerger::can_make_progress`].
    pub fn can_make_progress(&self, left: &Edge<R>, right: &Edge<R>, out: &Edge<R>) -> bool {
        if out.is_output_full() {
            // Back-pressured: tick returns before touching the inputs.
            return false;
        }
        if self.left_run_done && self.right_run_done {
            return true; // flush cycle
        }
        let side_ready = |done: bool, input: &Edge<R>| done || input.input_len() > 0;
        // A leading terminal on a not-yet-done side is absorbed (state
        // change) even if the opposite side then starves the merge.
        if !self.left_run_done && left.input(0).is_some_and(|r| r.is_terminal()) {
            return true;
        }
        if !self.right_run_done && right.input(0).is_some_and(|r| r.is_terminal()) {
            return true;
        }
        side_ready(self.left_run_done, left) && side_ready(self.right_run_done, right)
    }

    /// Accounts `n` elapsed cycles during which the merger wired to these
    /// edges was known to be quiescent
    /// ([`MergeStep::can_make_progress`] is `false`) without ticking it
    /// `n` times: `stats.cycles` advances by `n` and the whole span is
    /// classified as output stalls (if `out`'s child side is full) or
    /// input stalls — what `n` ticks would have recorded, since a
    /// quiescent merger's stall class cannot change until an external
    /// push or pop.
    #[inline]
    pub fn add_stalled_cycles(&mut self, n: u64, left: &Edge<R>, right: &Edge<R>, out: &Edge<R>) {
        debug_assert!(
            !self.can_make_progress(left, right, out),
            "batch stall accounting on a merger that could progress"
        );
        self.stats.cycles += n;
        if out.is_output_full() {
            self.stats.output_stalls += n;
        } else {
            self.stats.input_stalls += n;
        }
    }

    /// Returns `true` when the merger holds nothing: both inputs and its
    /// output empty, no run in progress.
    pub fn is_drained(&self, left: &Edge<R>, right: &Edge<R>, out: &Edge<R>) -> bool {
        left.input_len() == 0
            && right.input_len() == 0
            && out.output_len() == 0
            && !self.left_run_done
            && !self.right_run_done
    }

    /// Appends `rec` to `out`, which the cycle's budget guarantees has
    /// room.
    #[inline]
    fn emit(&mut self, out: &mut Edge<R>, rec: R) -> bool {
        if !out.push_output(rec) {
            // Unreachable: the budget guarantees space.
            debug_assert!(false, "output fifo overflow");
            #[cfg(feature = "sanitize")]
            self.san.report(Diagnostic::error(
                codes::SAN_FIFO_OVERFLOW,
                "merger output FIFO rejected a record within the cycle's budget",
            ));
            return false;
        }
        #[cfg(feature = "sanitize")]
        self.san.on_output(&rec);
        true
    }

    /// Advances the merger by one cycle, consuming from the input sides
    /// of `left` and `right` and producing into the output side of `out`.
    /// Returns `true` when any state changed (a record or terminal moved,
    /// a terminal was absorbed, or a run pair flushed); `false` means the
    /// cycle was a pure stall and every future tick will be too until
    /// input is pushed or output taken.
    #[inline]
    pub fn tick(&mut self, left: &mut Edge<R>, right: &mut Edge<R>, out: &mut Edge<R>) -> bool {
        // One cycle body. Most of a tree's mergers have k = 1, and there
        // the width is a constant: the loop runs at most once and
        // compiles to straight-line code.
        if self.k == 1 {
            self.cycle(1, left, right, out)
        } else {
            self.cycle(self.k, left, right, out)
        }
    }

    /// [`MergeStep::tick`] at width `k`, which is `self.k`.
    #[inline(always)]
    fn cycle(
        &mut self,
        k: usize,
        left: &mut Edge<R>,
        right: &mut Edge<R>,
        out: &mut Edge<R>,
    ) -> bool {
        self.stats.cycles += 1;
        // Every record emitted takes one output slot and nothing frees
        // one mid-cycle, so the cycle's budget is known up front.
        let mut budget = k.min(out.output_free());
        if budget == 0 {
            self.stats.output_stalls += 1;
            return false;
        }

        let (mut left_done, mut right_done) = (self.left_run_done, self.right_run_done);
        let mut moved = 0usize;
        let mut payload = 0u64;
        let mut absorbed = false;
        while moved < budget {
            // Head slots are plain records, readable even when the input
            // is empty; the emptiness tests below decide whether the
            // value means anything.
            let (l, r) = (left.input_head_slot(), right.input_head_slot());
            if !left_done && left.input_len() > 0 && l.is_terminal() {
                left.consume_input(1);
                left_done = true;
                absorbed = true;
            }
            if !right_done && right.input_len() > 0 && r.is_terminal() {
                right.consume_input(1);
                right_done = true;
                absorbed = true;
            }

            let rec = if left_done && right_done {
                // Both runs exhausted: emit the terminal and flush state.
                // The flush consumes the remainder of the cycle (§V-B),
                // so the terminal is the last record in the budget.
                left_done = false;
                right_done = false;
                self.stats.flushes += 1;
                budget = moved + 1;
                R::TERMINAL
            } else if (!left_done && left.input_len() == 0)
                || (!right_done && right.input_len() == 0)
            {
                // A live run with no head: the next record might be
                // smaller than anything the other side offers.
                break;
            } else {
                // Both heads are real unless their side is done, and a
                // done side never wins: no branch on the keys.
                let take_left = right_done | (!left_done & (l <= r));
                left.consume_input(usize::from(take_left));
                right.consume_input(usize::from(!take_left));
                payload += 1;
                if take_left {
                    l
                } else {
                    r
                }
            };
            if !self.emit(out, rec) {
                break;
            }
            moved += 1;
        }
        self.left_run_done = left_done;
        self.right_run_done = right_done;
        self.stats.records_out += payload;

        if moved > 0 {
            self.stats.busy_cycles += 1;
        } else {
            // Nothing moved with budget in hand: the loop can only have
            // left through the starvation arm.
            self.stats.input_stalls += 1;
        }
        moved > 0 || absorbed
    }
}

#[cfg(feature = "sanitize")]
impl<R: Record> MergeStep<R> {
    /// Drains the sanitizer's accumulated findings (`BON101`, `BON102`)
    /// and, when the merger wired to these edges is drained, judges
    /// record conservation (`BON103`: payload in must equal payload out).
    ///
    /// Only available with the `sanitize` feature.
    pub fn sanitize_check(
        &mut self,
        left: &Edge<R>,
        right: &Edge<R>,
        out: &Edge<R>,
    ) -> Vec<Diagnostic> {
        let mut found = std::mem::take(&mut self.san.diagnostics);
        if self.is_drained(left, right, out) && self.san.payload_in != self.stats.records_out {
            found.push(
                Diagnostic::error(
                    codes::SAN_RECORD_CONSERVATION,
                    "merger consumed and produced different payload record counts",
                )
                .with("payload_in", self.san.payload_in)
                .with("records_out", self.stats.records_out),
            );
        }
        found
    }
}

/// A standalone hardware `k`-merger: a [`MergeStep`] that owns its two
/// input edges and its output edge, merging two streams of
/// terminal-delimited sorted runs at up to `k` records per cycle (§II-A
/// of the paper). See [`MergeStep`] for the cycle's semantics and the
/// crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct KMerger<R> {
    step: MergeStep<R>,
    left: Edge<R>,
    right: Edge<R>,
    out: Edge<R>,
}

impl<R: Record> KMerger<R> {
    /// Creates a `k`-merger whose input FIFOs each hold `fifo_capacity`
    /// records (the hardware default is two `k`-record tuples).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `fifo_capacity < k`.
    pub fn new(k: usize, fifo_capacity: usize) -> Self {
        let step = MergeStep::new(k);
        assert!(
            fifo_capacity >= k,
            "fifo must hold at least one k-record tuple"
        );
        Self {
            step,
            left: Edge::new(fifo_capacity, 0, R::TERMINAL),
            right: Edge::new(fifo_capacity, 0, R::TERMINAL),
            // Output holds two tuples plus a terminal slot so a full
            // tuple can always be produced while the parent drains.
            out: Edge::new(0, 2 * k + 1, R::TERMINAL),
        }
    }

    /// Returns the merger to its just-constructed state — empty FIFOs, no
    /// run in progress, zeroed statistics and (with `sanitize`) fresh
    /// probes — keeping every allocation.
    pub fn reset(&mut self) {
        self.step.reset();
        self.left.clear();
        self.right.clear();
        self.out.clear();
    }

    /// Records-per-cycle width `k`.
    pub fn k(&self) -> usize {
        self.step.k()
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> MergerStats {
        self.step.stats()
    }

    /// Free space in the given input FIFO.
    pub fn input_free(&self, side: Side) -> usize {
        match side {
            Side::Left => self.left.input_free(),
            Side::Right => self.right.input_free(),
        }
    }

    /// Pushes a record into the given input port.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when that input FIFO is full.
    pub fn push_input(&mut self, side: Side, rec: R) -> Result<(), FifoFullError<R>> {
        match self.push_input_slice(side, &[rec]) {
            1 => Ok(()),
            _ => Err(FifoFullError(rec)),
        }
    }

    /// Pushes as many records from `recs` as fit into the given input
    /// port, in order, and returns how many were accepted. The bulk
    /// counterpart of [`KMerger::push_input`] for batched leaf feeding.
    pub fn push_input_slice(&mut self, side: Side, recs: &[R]) -> usize {
        let input = match side {
            Side::Left => &mut self.left,
            Side::Right => &mut self.right,
        };
        self.step.push_input_slice(input, recs)
    }

    /// Pushes a record into the left input port.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when the left input FIFO is full.
    pub fn push_left(&mut self, rec: R) -> Result<(), FifoFullError<R>> {
        self.push_input(Side::Left, rec)
    }

    /// Pushes a record into the right input port.
    ///
    /// # Errors
    ///
    /// Returns [`FifoFullError`] when the right input FIFO is full.
    pub fn push_right(&mut self, rec: R) -> Result<(), FifoFullError<R>> {
        self.push_input(Side::Right, rec)
    }

    /// Pops the next output record (payload or terminal), if ready.
    pub fn pop_output(&mut self) -> Option<R> {
        self.out.pop_output()
    }

    /// Number of records currently waiting at the output.
    pub fn output_len(&self) -> usize {
        self.out.output_len()
    }

    /// Returns `true` when the output FIFO is at capacity, i.e. the
    /// merger is asserting back-pressure upstream. Also the stall class a
    /// quiescent cycle falls into (see [`KMerger::add_stalled_cycles`]).
    pub fn output_full(&self) -> bool {
        self.out.is_output_full()
    }

    /// Returns `true` when the *next* [`KMerger::tick`] would change any
    /// state: move a record, absorb a terminal, or flush a finished run
    /// pair. A `false` result is stable — since ticking a quiescent
    /// merger is a no-op, the merger stays quiescent until someone pushes
    /// input or pops output, so callers may skip ticking it entirely and
    /// settle the elapsed stall cycles later with
    /// [`KMerger::add_stalled_cycles`].
    pub fn can_make_progress(&self) -> bool {
        self.step
            .can_make_progress(&self.left, &self.right, &self.out)
    }

    /// Accounts `n` elapsed cycles during which the merger was known to
    /// be quiescent (`can_make_progress() == false`) without ticking it
    /// `n` times: `stats.cycles` advances by `n` and the whole span is
    /// classified as output stalls (if the output FIFO is full) or input
    /// stalls (starved) — exactly what `n` per-cycle ticks would have
    /// recorded, since a quiescent merger's state (and therefore its
    /// stall class) cannot change until an external push or pop.
    pub fn add_stalled_cycles(&mut self, n: u64) {
        self.step
            .add_stalled_cycles(n, &self.left, &self.right, &self.out);
    }

    /// Returns `true` when no records are buffered anywhere inside.
    pub fn is_drained(&self) -> bool {
        self.step.is_drained(&self.left, &self.right, &self.out)
    }

    /// Advances the merger by one cycle. Returns `true` when any state
    /// changed (a record or terminal moved, a terminal was absorbed, or a
    /// run pair flushed); `false` means the cycle was a pure stall and
    /// every future tick will be too until input is pushed or output
    /// popped.
    pub fn tick(&mut self) -> bool {
        self.step
            .tick(&mut self.left, &mut self.right, &mut self.out)
    }
}

#[cfg(feature = "sanitize")]
impl<R: Record> KMerger<R> {
    /// Drains the sanitizer's accumulated findings (`BON101`, `BON102`)
    /// and, when the merger is drained, judges record conservation
    /// (`BON103`: payload in must equal payload out).
    ///
    /// Only available with the `sanitize` feature.
    pub fn sanitize_check(&mut self) -> Vec<Diagnostic> {
        self.step.sanitize_check(&self.left, &self.right, &self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_records::U32Rec;

    fn run_to_completion(m: &mut KMerger<U32Rec>, max_cycles: usize) -> Vec<U32Rec> {
        let mut out = Vec::new();
        for _ in 0..max_cycles {
            m.tick();
            while let Some(r) = m.pop_output() {
                out.push(r);
            }
        }
        out
    }

    fn feed_run(m: &mut KMerger<U32Rec>, side: Side, vals: &[u32]) {
        for &v in vals {
            m.push_input(side, U32Rec::new(v)).unwrap();
        }
        m.push_input(side, U32Rec::TERMINAL).unwrap();
    }

    #[test]
    fn merges_two_runs() {
        let mut m = KMerger::new(4, 32);
        feed_run(&mut m, Side::Left, &[1, 4, 7]);
        feed_run(&mut m, Side::Right, &[2, 3, 9]);
        let out = run_to_completion(&mut m, 16);
        let vals: Vec<u32> = out
            .iter()
            .filter(|r| !r.is_terminal())
            .map(|r| r.0)
            .collect();
        assert_eq!(vals, vec![1, 2, 3, 4, 7, 9]);
        assert_eq!(out.iter().filter(|r| r.is_terminal()).count(), 1);
        assert!(m.is_drained());
    }

    #[test]
    fn full_rate_is_k_records_per_cycle() {
        let k = 8;
        let mut m = KMerger::new(k, 64);
        feed_run(
            &mut m,
            Side::Left,
            &(0..24).map(|i| 2 * i + 1).collect::<Vec<_>>(),
        );
        feed_run(
            &mut m,
            Side::Right,
            &(0..24).map(|i| 2 * i + 2).collect::<Vec<_>>(),
        );
        // 48 records at 8/cycle = 6 busy cycles + 1 flush cycle.
        let out = run_to_completion(&mut m, 8);
        assert_eq!(out.len(), 49);
        let stats = m.stats();
        assert_eq!(stats.records_out, 48);
        assert_eq!(stats.flushes, 1);
        assert!(stats.busy_cycles <= 7, "busy = {}", stats.busy_cycles);
    }

    #[test]
    fn stalls_when_one_input_is_empty() {
        let mut m = KMerger::new(2, 8);
        feed_run(&mut m, Side::Left, &[1, 2, 3]);
        // Right side has no data at all: merger cannot emit anything.
        m.tick();
        assert_eq!(m.output_len(), 0);
        assert_eq!(m.stats().input_stalls, 1);
        // Now give right its (empty) run.
        m.push_right(U32Rec::TERMINAL).unwrap();
        let out = run_to_completion(&mut m, 8);
        let vals: Vec<u32> = out
            .iter()
            .filter(|r| !r.is_terminal())
            .map(|r| r.0)
            .collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn output_backpressure_stalls_merger() {
        let mut m = KMerger::new(2, 16);
        feed_run(&mut m, Side::Left, &[1, 2, 3, 4, 5, 6]);
        feed_run(&mut m, Side::Right, &[7, 8, 9, 10, 11, 12]);
        // Never pop: output fills (capacity 2k+1 = 5) and the merger stalls.
        for _ in 0..10 {
            m.tick();
        }
        assert_eq!(m.output_len(), 5);
        assert!(m.stats().output_stalls > 0);
        // Drain and finish.
        let out = run_to_completion(&mut m, 20);
        assert_eq!(out.len(), 13); // 12 records + 1 terminal
    }

    #[test]
    fn consecutive_run_pairs_flush_in_one_cycle_each() {
        let mut m = KMerger::new(4, 64);
        for _ in 0..4 {
            feed_run(&mut m, Side::Left, &[1, 3]);
            feed_run(&mut m, Side::Right, &[2, 4]);
        }
        let out = run_to_completion(&mut m, 32);
        assert_eq!(out.iter().filter(|r| r.is_terminal()).count(), 4);
        assert_eq!(m.stats().flushes, 4);
        let vals: Vec<u32> = out
            .iter()
            .filter(|r| !r.is_terminal())
            .map(|r| r.0)
            .collect();
        assert_eq!(vals, [1, 2, 3, 4].repeat(4));
    }

    #[test]
    fn empty_runs_produce_bare_terminal() {
        let mut m = KMerger::new(2, 8);
        m.push_left(U32Rec::TERMINAL).unwrap();
        m.push_right(U32Rec::TERMINAL).unwrap();
        let out = run_to_completion(&mut m, 4);
        assert_eq!(out, vec![U32Rec::TERMINAL]);
        assert_eq!(m.stats().flushes, 1);
    }

    #[test]
    fn unbalanced_runs_merge_correctly() {
        let mut m = KMerger::new(4, 64);
        feed_run(&mut m, Side::Left, &[5]);
        feed_run(&mut m, Side::Right, &(10..40).collect::<Vec<_>>());
        let out = run_to_completion(&mut m, 32);
        let vals: Vec<u32> = out
            .iter()
            .filter(|r| !r.is_terminal())
            .map(|r| r.0)
            .collect();
        let mut expected = vec![5u32];
        expected.extend(10..40);
        assert_eq!(vals, expected);
    }

    #[test]
    fn quiescence_predicate_matches_tick_behavior() {
        let mut m: KMerger<U32Rec> = KMerger::new(2, 8);
        // Empty merger: nothing to do.
        assert!(!m.can_make_progress());
        assert!(!m.tick());
        // Only one side fed: still starved, but a leading terminal on the
        // fed side is absorbable, which counts as progress.
        m.push_left(U32Rec::new(1)).unwrap();
        assert!(!m.can_make_progress());
        assert!(!m.tick());
        let mut t = KMerger::<U32Rec>::new(2, 8);
        t.push_left(U32Rec::TERMINAL).unwrap();
        assert!(t.can_make_progress());
        assert!(t.tick());
        // Both sides fed: progress.
        m.push_right(U32Rec::new(2)).unwrap();
        assert!(m.can_make_progress());
        assert!(m.tick());
        // Output full: back-pressured regardless of input.
        let mut b = KMerger::<U32Rec>::new(2, 16);
        feed_run(&mut b, Side::Left, &[1, 2, 3, 4, 5, 6]);
        feed_run(&mut b, Side::Right, &[7, 8, 9, 10, 11, 12]);
        while !b.output_full() {
            b.tick();
        }
        assert!(!b.can_make_progress());
        assert!(!b.tick());
        assert!(b.stats().output_stalls > 0);
        // Draining the output re-enables progress.
        b.pop_output();
        assert!(b.can_make_progress());
    }

    #[test]
    fn add_stalled_cycles_matches_per_cycle_ticks() {
        // Starved merger: N ticks vs one batched settle must agree.
        let mut a: KMerger<U32Rec> = KMerger::new(4, 16);
        let mut b: KMerger<U32Rec> = KMerger::new(4, 16);
        a.push_left(U32Rec::new(1)).unwrap();
        b.push_left(U32Rec::new(1)).unwrap();
        for _ in 0..13 {
            a.tick();
        }
        b.add_stalled_cycles(13);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(b.stats().input_stalls, 13);
        // Back-pressured merger: the span lands on output_stalls.
        let mut c = KMerger::<U32Rec>::new(2, 16);
        let mut d = KMerger::<U32Rec>::new(2, 16);
        for m in [&mut c, &mut d] {
            feed_run(m, Side::Left, &[1, 2, 3, 4, 5, 6]);
            feed_run(m, Side::Right, &[7, 8, 9, 10, 11, 12]);
            while m.can_make_progress() {
                m.tick();
            }
        }
        for _ in 0..7 {
            c.tick();
        }
        d.add_stalled_cycles(7);
        assert_eq!(c.stats(), d.stats());
        assert_eq!(d.stats().output_stalls, 7);
    }

    #[test]
    fn reset_merger_behaves_like_a_new_one() {
        let mut used: KMerger<U32Rec> = KMerger::new(2, 8);
        // Abandon a merge mid-run: left run absorbed, right starved,
        // output half full, counters and probes non-zero.
        feed_run(&mut used, Side::Left, &[1, 2, 3]);
        used.push_right(U32Rec::new(9)).unwrap();
        for _ in 0..4 {
            used.tick();
        }
        assert!(!used.is_drained() && used.stats().cycles == 4);
        used.reset();
        assert!(used.is_drained());
        assert_eq!(used.stats(), MergerStats::default());

        let mut fresh: KMerger<U32Rec> = KMerger::new(2, 8);
        let mut outs = Vec::new();
        for m in [&mut used, &mut fresh] {
            feed_run(m, Side::Left, &[4, 6]);
            feed_run(m, Side::Right, &[5]);
            outs.push((run_to_completion(m, 8), m.stats()));
            #[cfg(feature = "sanitize")]
            assert_eq!(m.sanitize_check(), Vec::new());
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn push_input_slice_respects_fifo_capacity() {
        let mut m: KMerger<U32Rec> = KMerger::new(2, 4);
        let recs: Vec<U32Rec> = (1..=6).map(U32Rec::new).collect();
        assert_eq!(m.push_input_slice(Side::Left, &recs), 4);
        assert_eq!(m.input_free(Side::Left), 0);
        assert_eq!(m.push_input_slice(Side::Left, &recs[4..]), 0);
        assert_eq!(m.push_input_slice(Side::Right, &recs[4..]), 2);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = KMerger::<U32Rec>::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "at least one k-record tuple")]
    fn undersized_fifo_rejected() {
        let _ = KMerger::<U32Rec>::new(8, 4);
    }

    /// The per-record merger loop this crate shipped before `tick` was
    /// straightened out, kept word for word (`peek` became `get(0)`, and
    /// each `Fifo` call its `Edge` counterpart: `get(0)` is `input(0)`, `pop`
    /// is `input(0)` then `consume_input(1)`, `push` is `push_output`) as
    /// the reference model `tick` is checked against.
    fn reference_tick(m: &mut KMerger<U32Rec>) -> bool {
        fn pop(edge: &mut Edge<U32Rec>) -> Option<U32Rec> {
            let head = edge.input(0);
            edge.consume_input(usize::from(head.is_some()));
            head
        }

        fn absorb_terminal(m: &mut KMerger<U32Rec>, side: Side) -> bool {
            let (fifo, done) = match side {
                Side::Left => (&mut m.left, &mut m.step.left_run_done),
                Side::Right => (&mut m.right, &mut m.step.right_run_done),
            };
            if !*done {
                if let Some(head) = fifo.input(0) {
                    if head.is_terminal() {
                        pop(fifo);
                        *done = true;
                        return true;
                    }
                }
            }
            false
        }

        m.step.stats.cycles += 1;
        if m.out.is_output_full() {
            m.step.stats.output_stalls += 1;
            return false;
        }

        let mut moved = 0usize;
        let mut absorbed = false;
        let mut input_starved = false;
        while moved < m.step.k && !m.out.is_output_full() {
            absorbed |= absorb_terminal(m, Side::Left);
            absorbed |= absorb_terminal(m, Side::Right);

            if m.step.left_run_done && m.step.right_run_done {
                assert!(m.out.push_output(U32Rec::TERMINAL), "loop condition");
                m.step.left_run_done = false;
                m.step.right_run_done = false;
                m.step.stats.flushes += 1;
                moved += 1;
                break;
            }

            let left_head = if m.step.left_run_done {
                None
            } else {
                match m.left.input(0) {
                    Some(h) => Some(h),
                    None => {
                        input_starved = true;
                        break;
                    }
                }
            };
            let right_head = if m.step.right_run_done {
                None
            } else {
                match m.right.input(0) {
                    Some(h) => Some(h),
                    None => {
                        input_starved = true;
                        break;
                    }
                }
            };

            let take_left = match (left_head, right_head) {
                (Some(l), Some(r)) => l <= r,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("both-done case handled above"),
            };
            let popped = if take_left {
                pop(&mut m.left)
            } else {
                pop(&mut m.right)
            };
            let rec = popped.expect("peeked head");
            assert!(m.out.push_output(rec), "loop condition");
            m.step.stats.records_out += 1;
            moved += 1;
        }

        if moved > 0 {
            m.step.stats.busy_cycles += 1;
        } else if input_starved {
            m.step.stats.input_stalls += 1;
        }
        moved > 0 || absorbed
    }

    /// Random feed / tick / pop scripts on `tick` and the reference
    /// model side by side: same return value, same output, same stats,
    /// same quiescence verdict after every cycle. Runs are short and
    /// often empty so flushes, mid-cycle terminal absorption, one-sided
    /// starvation and output back-pressure all occur at every width.
    #[test]
    fn tick_matches_the_reference_model_on_random_scripts() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x71C4_0015);
        for k in [1usize, 2, 4, 8] {
            let mut seen = MergerStats::default();
            for script in 0..40 {
                let fifo = (8 * k).max(16);
                let mut fast: KMerger<U32Rec> = KMerger::new(k, fifo);
                let mut model: KMerger<U32Rec> = KMerger::new(k, fifo);
                // Per side: next key of the current run, records left in it.
                let mut runs = [(1u32, 0usize); 2];
                for cycle in 0..400 {
                    let ctx = format!("k {k} script {script} cycle {cycle}");
                    for (i, side) in [Side::Left, Side::Right].into_iter().enumerate() {
                        // Scripts differ in feed rate: from half a record
                        // per side per cycle (starves every width) to
                        // more than `k` (back-pressures the inputs).
                        let burst = rng.below_usize([2, 3, k + 2, 2 * k + 2][script % 4]);
                        for _ in 0..burst.min(fast.input_free(side)) {
                            let (key, left_in_run) = &mut runs[i];
                            let rec = if *left_in_run == 0 {
                                *left_in_run = rng.below_usize(3 * k + 1);
                                *key = 1;
                                U32Rec::TERMINAL
                            } else {
                                *left_in_run -= 1;
                                *key += rng.below_u64(3) as u32;
                                U32Rec::new(*key)
                            };
                            fast.push_input(side, rec).expect("space checked");
                            model.push_input(side, rec).expect("space checked");
                        }
                    }
                    assert_eq!(
                        fast.can_make_progress(),
                        model.can_make_progress(),
                        "{ctx}: quiescence"
                    );
                    assert_eq!(fast.tick(), reference_tick(&mut model), "{ctx}: changed");
                    assert_eq!(fast.stats(), model.stats(), "{ctx}: stats");
                    assert_eq!(fast.output_len(), model.output_len(), "{ctx}: output_len");
                    assert_eq!(fast.is_drained(), model.is_drained(), "{ctx}: drained");
                    // Pop rarely in every third script: back-pressure.
                    let pops = if script % 3 == 0 {
                        rng.below_usize(2)
                    } else {
                        rng.below_usize(2 * k + 2)
                    };
                    for _ in 0..pops {
                        assert_eq!(fast.pop_output(), model.pop_output(), "{ctx}: output");
                    }
                }
                seen.flushes += fast.stats().flushes;
                seen.input_stalls += fast.stats().input_stalls;
                seen.output_stalls += fast.stats().output_stalls;
            }
            assert!(
                seen.flushes > 0 && seen.input_stalls > 0 && seen.output_stalls > 0,
                "k {k}: scripts must flush, starve and back-pressure: {seen:?}"
            );
        }
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn clean_merge_trips_no_probes() {
        let mut m = KMerger::new(4, 32);
        feed_run(&mut m, Side::Left, &[1, 4, 7]);
        feed_run(&mut m, Side::Right, &[2, 3, 9]);
        let _ = run_to_completion(&mut m, 16);
        assert!(m.is_drained());
        assert_eq!(m.sanitize_check(), Vec::new());
    }

    #[cfg(feature = "sanitize")]
    #[test]
    fn unsorted_input_run_trips_out_of_order_probe() {
        use bonsai_check::codes;
        let mut m = KMerger::new(2, 16);
        // The contract requires sorted runs; feed a descending one.
        feed_run(&mut m, Side::Left, &[9, 1]);
        feed_run(&mut m, Side::Right, &[5]);
        let _ = run_to_completion(&mut m, 16);
        let diags = m.sanitize_check();
        assert!(
            diags.iter().any(|d| d.code == codes::SAN_OUT_OF_ORDER),
            "{diags:?}"
        );
    }
}
