//! The batched data loader (§V-A) and its write-side counterpart.

use std::collections::VecDeque;

use crate::config::LoaderConfig;
use crate::memory::Memory;

#[cfg(feature = "sanitize")]
use bonsai_check::{codes, Diagnostic};

/// Introspection snapshot of one leaf buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LeafStatus {
    /// Records still in off-chip memory, not yet requested.
    remaining: u64,
    /// Records currently in transit from memory.
    in_flight: u64,
    /// Records buffered on-chip, ready to consume.
    buffered: u64,
}

impl LeafStatus {
    /// Returns `true` when the leaf has no data anywhere in the pipeline.
    fn is_exhausted(&self) -> bool {
        self.remaining == 0 && self.in_flight == 0 && self.buffered == 0
    }
}

#[derive(Debug, Clone, Default)]
struct LeafState {
    remaining: u64,
    in_flight: VecDeque<(u64, u64)>, // (completion cycle, records)
    in_flight_records: u64,
    buffered: u64,
    /// Whether this leaf currently counts towards `DataLoader::hungry`.
    hungry: bool,
}

impl LeafState {
    /// The issue condition of §V-A: records left in memory and buffer
    /// space for a full read batch (or the short tail).
    fn wants_burst(&self, batch: u64, capacity: u64) -> bool {
        let committed = self.buffered + self.in_flight_records;
        self.remaining > 0 && capacity.saturating_sub(committed) >= batch.min(self.remaining)
    }
}

/// The data loader of §V-A: issues batched reads round-robin into
/// per-leaf input buffers so off-chip memory operates at peak bandwidth.
///
/// Each AMT leaf reads a contiguous run from memory. The loader checks
/// leaves "in a round-robin fashion" for buffers with space for a full
/// read batch, issues a burst on any free bank read port, and delivers
/// the records `burst_latency` cycles later. The consumer (the AMT leaf)
/// pulls from [`DataLoader::available`] via [`DataLoader::consume`].
///
/// # Example
///
/// ```
/// use bonsai_memsim::{DataLoader, LoaderConfig, Memory, MemoryConfig};
///
/// let cfg = LoaderConfig::paper_default(4);
/// let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
/// let mut loader = DataLoader::new(cfg, vec![10_000, 10_000]);
/// let mut cycle = 0;
/// while loader.available(0) == 0 {
///     loader.tick(cycle, &mut mem);
///     cycle += 1;
/// }
/// assert!(loader.available(0) >= cfg.batch_records());
/// ```
#[derive(Debug, Clone)]
pub struct DataLoader {
    cfg: LoaderConfig,
    /// `cfg.batch_records()` and `cfg.buffer_records()`, each a 64-bit
    /// division, computed once.
    batch: u64,
    capacity: u64,
    leaves: Vec<LeafState>,
    rr: usize,
    /// Leaves whose [`LeafState::wants_burst`] holds. The condition only
    /// moves when a leaf is consumed from or issued for, so it is
    /// re-evaluated there and the per-cycle issue scan runs only when
    /// it will find a leaf.
    hungry: usize,
    /// Earliest completion cycle over the leaves' *oldest* in-flight
    /// bursts (`u64::MAX` with nothing in flight): delivery is
    /// front-blocked per leaf, so no burst can land before this cycle
    /// and the per-cycle delivery scan is skipped until then.
    next_delivery: u64,
    /// Leaves a burst has landed on since the consumer last asked
    /// ([`DataLoader::take_delivered`]), one bit per leaf: a consumer
    /// that found a leaf's buffer empty need not look at it again until
    /// its bit shows up here.
    delivered: Vec<u64>,
    #[cfg(feature = "sanitize")]
    initial_records: u64,
    #[cfg(feature = "sanitize")]
    consumed_records: u64,
}

impl DataLoader {
    /// Creates a loader for one merge pass: `per_leaf_records[i]` records
    /// stream into leaf `i`.
    pub fn new(cfg: LoaderConfig, per_leaf_records: Vec<u64>) -> Self {
        // Pre-size the in-flight queues so the steady-state tick loop
        // never reallocates: a leaf can commit at most
        // `buffer_records / batch_records` simultaneous bursts (plus one
        // short tail burst).
        let (batch, capacity) = (cfg.batch_records(), cfg.buffer_records());
        let max_bursts = (capacity / batch) as usize + 2;
        let leaves: Vec<LeafState> = per_leaf_records
            .iter()
            .map(|_| LeafState {
                in_flight: VecDeque::with_capacity(max_bursts),
                ..LeafState::default()
            })
            .collect();
        let mut loader = Self {
            cfg,
            batch,
            capacity,
            delivered: vec![0; leaves.len().div_ceil(64)],
            leaves,
            rr: 0,
            hungry: 0,
            next_delivery: u64::MAX,
            #[cfg(feature = "sanitize")]
            initial_records: 0,
            #[cfg(feature = "sanitize")]
            consumed_records: 0,
        };
        loader.reset(&per_leaf_records);
        loader
    }

    /// Re-arms the loader for another pass over the same leaves, as
    /// [`DataLoader::new`] would build it — nothing requested, in
    /// flight, buffered or delivered, round-robin at leaf 0, fresh
    /// `sanitize` accounting — without giving up any allocation.
    ///
    /// # Panics
    ///
    /// Panics if `per_leaf_records` does not name every leaf.
    pub fn reset(&mut self, per_leaf_records: &[u64]) {
        assert_eq!(
            per_leaf_records.len(),
            self.leaves.len(),
            "a loader is reset for the leaves it was built with"
        );
        self.hungry = 0;
        for (leaf, &remaining) in self.leaves.iter_mut().zip(per_leaf_records) {
            leaf.remaining = remaining;
            leaf.in_flight.clear();
            leaf.in_flight_records = 0;
            leaf.buffered = 0;
            leaf.hungry = leaf.wants_burst(self.batch, self.capacity);
            self.hungry += usize::from(leaf.hungry);
        }
        self.rr = 0;
        self.next_delivery = u64::MAX;
        self.delivered.fill(0);
        #[cfg(feature = "sanitize")]
        {
            // Saturating: tests model "infinite" streams as u64::MAX-ish
            // per-leaf counts, whose exact total can exceed u64.
            self.initial_records = per_leaf_records
                .iter()
                .fold(0u64, |acc, &n| acc.saturating_add(n));
            self.consumed_records = 0;
        }
    }

    /// The loader configuration.
    pub fn config(&self) -> &LoaderConfig {
        &self.cfg
    }

    /// Number of leaves being fed.
    pub fn leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Snapshot of leaf `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn leaf_status(&self, i: usize) -> LeafStatus {
        let l = &self.leaves[i];
        LeafStatus {
            remaining: l.remaining,
            in_flight: l.in_flight_records,
            buffered: l.buffered,
        }
    }

    /// Records ready to consume at leaf `i`.
    #[inline]
    pub fn available(&self, i: usize) -> u64 {
        self.leaves[i].buffered
    }

    /// Takes (returns and clears) one 64-leaf word of the delivered set:
    /// bit `b` of word `w` is leaf `64·w + b`, set when a burst landed on
    /// that leaf since the word was last taken.
    ///
    /// # Panics
    ///
    /// Panics if `word >= leaves().div_ceil(64)`.
    #[inline]
    pub fn take_delivered(&mut self, word: usize) -> u64 {
        std::mem::take(&mut self.delivered[word])
    }

    /// Returns `true` when leaf `i` will never produce more records.
    pub(crate) fn is_exhausted(&self, i: usize) -> bool {
        self.leaf_status(i).is_exhausted()
    }

    /// Returns `true` when every leaf is exhausted.
    pub fn all_exhausted(&self) -> bool {
        (0..self.leaves.len()).all(|i| self.is_exhausted(i))
    }

    /// Re-evaluates leaf `i`'s issue condition after its buffer or
    /// request state moved, keeping `hungry` exact.
    #[inline]
    fn refresh_hungry(&mut self, i: usize) {
        let l = &mut self.leaves[i];
        let wants = l.wants_burst(self.batch, self.capacity);
        if wants != l.hungry {
            l.hungry = wants;
            if wants {
                self.hungry += 1;
            } else {
                self.hungry -= 1;
            }
        }
    }

    /// Consumes `n` buffered records from leaf `i`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` records are buffered.
    #[inline]
    pub fn consume(&mut self, i: usize, n: u64) {
        let l = &mut self.leaves[i];
        assert!(l.buffered >= n, "consuming more records than buffered");
        l.buffered -= n;
        self.refresh_hungry(i);
        #[cfg(feature = "sanitize")]
        {
            self.consumed_records += n;
        }
    }

    /// Sanitizer probe (`BON105`): every record handed to `new` must be
    /// accounted for as consumed, buffered, in flight, or still in
    /// memory — scaled by the record width this is the loader's byte
    /// conservation law.
    ///
    /// Only available with the `sanitize` feature.
    #[cfg(feature = "sanitize")]
    pub fn sanitize_check(&self) -> Vec<Diagnostic> {
        let in_pipeline = self.leaves.iter().fold(0u64, |acc, l| {
            acc.saturating_add(l.remaining)
                .saturating_add(l.in_flight_records)
                .saturating_add(l.buffered)
        });
        let accounted = self.consumed_records.saturating_add(in_pipeline);
        // A saturated total means the caller modeled an unbounded stream;
        // exact conservation is unverifiable there, so the probe stands
        // down rather than report a false imbalance.
        if accounted == self.initial_records || self.initial_records == u64::MAX {
            Vec::new()
        } else {
            vec![Diagnostic::error(
                codes::SAN_BYTE_ACCOUNTING,
                "loader record accounting does not balance",
            )
            .with(
                "initial_bytes",
                self.initial_records.saturating_mul(self.cfg.record_bytes),
            )
            .with(
                "accounted_bytes",
                accounted.saturating_mul(self.cfg.record_bytes),
            )]
        }
    }

    /// Advances one cycle: completes arrivals, then issues new batched
    /// reads round-robin on every free read port.
    ///
    /// Returns `true` when any state changed (a burst was delivered or
    /// issued). A `false` tick is a guaranteed no-op for every future
    /// cycle before [`DataLoader::next_event_cycle`]: nothing arrives
    /// and nothing new can be issued until a port frees or a burst
    /// completes, so the caller may fast-forward the clock.
    pub fn tick(&mut self, cycle: u64, memory: &mut Memory) -> bool {
        let mut changed = false;
        // Deliver completed bursts.
        if cycle >= self.next_delivery {
            let mut next = u64::MAX;
            for (i, leaf) in self.leaves.iter_mut().enumerate() {
                while let Some(&(done, records)) = leaf.in_flight.front() {
                    if done > cycle {
                        next = next.min(done);
                        break;
                    }
                    leaf.in_flight.pop_front();
                    leaf.in_flight_records -= records;
                    leaf.buffered += records;
                    self.delivered[i / 64] |= 1 << (i % 64);
                    changed = true;
                }
            }
            self.next_delivery = next;
        }

        // Issue new bursts while ports and hungry leaves remain.
        let n_leaves = self.leaves.len();
        while self.hungry > 0 {
            let Some(port_idx) = memory.free_read_port(cycle) else {
                break;
            };
            // The next hungry leaf in round-robin order.
            let mut i = self.rr;
            while !self.leaves[i].hungry {
                i += 1;
                if i == n_leaves {
                    i = 0;
                }
            }
            self.rr = if i + 1 == n_leaves { 0 } else { i + 1 };
            let l = &mut self.leaves[i];
            let records = self.batch.min(l.remaining);
            let bytes = records * self.cfg.record_bytes;
            let done = memory
                .read_port_mut(port_idx)
                .try_start(cycle, bytes)
                .expect("port reported free");
            l.remaining -= records;
            if l.in_flight.is_empty() {
                self.next_delivery = self.next_delivery.min(done);
            }
            l.in_flight.push_back((done, records));
            l.in_flight_records += records;
            self.refresh_hungry(i);
            changed = true;
        }
        changed
    }

    /// Earliest future cycle at which [`DataLoader::tick`] could change
    /// state again, or `None` when the loader is fully quiescent (no
    /// bursts in flight and nothing issuable, e.g. all leaves exhausted
    /// or every buffer full until the consumer drains it).
    ///
    /// Valid immediately after `tick(cycle, memory)`: the loader's own
    /// invariant (a hungry leaf after tick implies every read port is
    /// busy) makes the port-free bound exact rather than `cycle + 1`.
    pub fn next_event_cycle(&self, cycle: u64, memory: &Memory) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |event: u64| next = Some(next.map_or(event, |n| n.min(event)));
        // Deliveries are strictly front-blocked per leaf (tick only ever
        // pops the oldest burst), so the earliest front completion is
        // the exact next delivery event.
        if self.next_delivery != u64::MAX {
            fold(self.next_delivery.max(cycle + 1));
        }
        // Issues: only relevant while some leaf still wants a burst.
        if self.hungry > 0 {
            if let Some(free) = memory.next_read_port_free() {
                fold(free.max(cycle + 1));
            }
        }
        next
    }
}

/// The write-side drain: collects root-output records and writes them
/// back to memory in batched bursts (the packer + write path of Fig. 7).
#[derive(Debug, Clone)]
pub struct WriteDrain {
    cfg: LoaderConfig,
    /// `cfg.batch_records()` and `cfg.buffer_records()`, computed once.
    batch: u64,
    capacity: u64,
    pending: u64,
    in_flight: VecDeque<(u64, u64)>,
    completed: u64,
    draining: bool,
    #[cfg(feature = "sanitize")]
    pushed_records: u64,
}

impl WriteDrain {
    /// Creates an empty drain.
    pub fn new(cfg: LoaderConfig) -> Self {
        let (batch, capacity) = (cfg.batch_records(), cfg.buffer_records());
        Self {
            cfg,
            batch,
            capacity,
            pending: 0,
            // Sized so the steady-state tick loop never reallocates: the
            // number of simultaneous write bursts is bounded by the
            // write-port count (each port holds one outstanding burst),
            // which never exceeds 64 banks for any in-repo memory.
            in_flight: VecDeque::with_capacity(64.max((capacity / batch) as usize + 2)),
            completed: 0,
            draining: false,
            #[cfg(feature = "sanitize")]
            pushed_records: 0,
        }
    }

    /// Returns the drain to its just-constructed, empty state, keeping
    /// the in-flight queue's allocation.
    pub fn reset(&mut self) {
        self.pending = 0;
        self.in_flight.clear();
        self.completed = 0;
        self.draining = false;
        #[cfg(feature = "sanitize")]
        {
            self.pushed_records = 0;
        }
    }

    /// Free space (in records) in the on-chip write buffer.
    #[inline]
    pub fn free_space(&self) -> u64 {
        self.capacity.saturating_sub(self.pending)
    }

    /// Buffers `n` records for write-back.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds [`WriteDrain::free_space`].
    #[inline]
    pub fn push_records(&mut self, n: u64) {
        assert!(n <= self.free_space(), "write buffer overflow");
        self.pending += n;
        #[cfg(feature = "sanitize")]
        {
            self.pushed_records += n;
        }
    }

    /// Sanitizer probe (`BON105`): every record pushed into the drain
    /// must be pending, in flight, or written back.
    ///
    /// Only available with the `sanitize` feature.
    #[cfg(feature = "sanitize")]
    pub fn sanitize_check(&self) -> Vec<Diagnostic> {
        let in_flight: u64 = self.in_flight.iter().map(|&(_, n)| n).sum();
        let accounted = self.completed + self.pending + in_flight;
        if accounted == self.pushed_records {
            Vec::new()
        } else {
            vec![Diagnostic::error(
                codes::SAN_BYTE_ACCOUNTING,
                "write-drain record accounting does not balance",
            )
            .with("pushed_bytes", self.pushed_records * self.cfg.record_bytes)
            .with("accounted_bytes", accounted * self.cfg.record_bytes)]
        }
    }

    /// Signals that no more records will arrive, so partial batches
    /// should be written out.
    pub fn set_draining(&mut self) {
        self.draining = true;
    }

    /// Records whose write burst has completed.
    pub fn completed_records(&self) -> u64 {
        self.completed
    }

    /// Returns `true` when nothing is buffered or in flight.
    pub fn is_idle(&self) -> bool {
        self.pending == 0 && self.in_flight.is_empty()
    }

    /// Advances one cycle: retires finished bursts and issues new ones.
    ///
    /// Returns `true` when any state changed (a burst retired or was
    /// issued); see [`WriteDrain::next_event_cycle`] for the matching
    /// fast-forward bound.
    pub fn tick(&mut self, cycle: u64, memory: &mut Memory) -> bool {
        let mut changed = false;
        while let Some(&(done, records)) = self.in_flight.front() {
            if done > cycle {
                break;
            }
            self.in_flight.pop_front();
            self.completed += records;
            changed = true;
        }

        let batch = self.batch;
        while self.pending >= batch || (self.draining && self.pending > 0) {
            let Some(port_idx) = memory.free_write_port(cycle) else {
                break;
            };
            let records = batch.min(self.pending);
            let bytes = records * self.cfg.record_bytes;
            let done = memory
                .write_port_mut(port_idx)
                .try_start(cycle, bytes)
                .expect("port reported free");
            self.pending -= records;
            self.in_flight.push_back((done, records));
            changed = true;
        }
        changed
    }

    /// Earliest future cycle at which [`WriteDrain::tick`] could change
    /// state again, or `None` when the drain is quiescent (nothing in
    /// flight and nothing issuable until more records are pushed or
    /// draining is signalled).
    ///
    /// Valid immediately after `tick(cycle, memory)`: an issuable batch
    /// left pending after tick implies every write port is busy, so the
    /// port-free bound is exact.
    pub fn next_event_cycle(&self, cycle: u64, memory: &Memory) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut fold = |event: u64| next = Some(next.map_or(event, |n| n.min(event)));
        // Retirement is strictly front-blocked (tick only ever pops the
        // oldest burst), so the front's completion cycle is the exact
        // next retirement event even if later bursts finish sooner.
        if let Some(&(done, _)) = self.in_flight.front() {
            fold(done.max(cycle + 1));
        }
        if self.pending >= self.batch || (self.draining && self.pending > 0) {
            if let Some(free) = memory.next_write_port_free() {
                fold(free.max(cycle + 1));
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemoryConfig;

    fn run_loader(mut loader: DataLoader, mut mem: Memory, cycles: u64) -> (DataLoader, Memory) {
        for c in 0..cycles {
            loader.tick(c, &mut mem);
        }
        (loader, mem)
    }

    #[test]
    fn loader_fills_all_leaf_buffers() {
        let cfg = LoaderConfig::paper_default(4);
        let mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let loader = DataLoader::new(cfg, vec![100_000; 8]);
        let (loader, _) = run_loader(loader, mem, 2_000);
        for i in 0..8 {
            assert_eq!(
                loader.available(i),
                cfg.buffer_records(),
                "leaf {i} should be double-buffered full"
            );
        }
    }

    /// The loader issues each burst on any free read port, not on a bank
    /// bound to the leaf: one leaf already streams from two of the four
    /// DDR4 banks, and two leaves keep all four busy.
    #[test]
    fn bursts_go_to_any_free_read_port() {
        let bursts_per_bank = |leaves: usize| {
            let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
            let mut loader = DataLoader::new(LoaderConfig::paper_default(4), vec![1 << 30; leaves]);
            for cycle in 0..20_000 {
                loader.tick(cycle, &mut mem);
                for i in 0..leaves {
                    loader.consume(i, loader.available(i));
                }
            }
            (0..mem.banks())
                .map(|b| mem.read_port_mut(b).stats().bursts)
                .collect::<Vec<_>>()
        };
        assert_eq!(bursts_per_bank(1), [146, 146, 0, 0]);
        assert_eq!(bursts_per_bank(2), [146, 146, 146, 146]);
    }

    #[test]
    fn loader_respects_buffer_capacity() {
        let cfg = LoaderConfig::paper_default(4);
        let mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let loader = DataLoader::new(cfg, vec![1_000_000]);
        let (loader, _) = run_loader(loader, mem, 5_000);
        assert!(loader.available(0) <= cfg.buffer_records());
    }

    #[test]
    fn loader_delivers_exact_record_counts() {
        let cfg = LoaderConfig::paper_default(4);
        let mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        // 2.5 batches in leaf 0, half a batch in leaf 1.
        let n0 = cfg.batch_records() * 2 + cfg.batch_records() / 2;
        let n1 = cfg.batch_records() / 2;
        let mut loader = DataLoader::new(cfg, vec![n0, n1]);
        let mut mem = mem;
        let mut got0 = 0;
        let mut got1 = 0;
        for c in 0..50_000 {
            loader.tick(c, &mut mem);
            let a0 = loader.available(0);
            let a1 = loader.available(1);
            loader.consume(0, a0);
            loader.consume(1, a1);
            got0 += a0;
            got1 += a1;
            if loader.all_exhausted() {
                break;
            }
        }
        assert_eq!(got0, n0);
        assert_eq!(got1, n1);
        assert!(loader.all_exhausted());
    }

    #[test]
    fn consuming_frees_space_for_more_batches() {
        let cfg = LoaderConfig::paper_default(4);
        let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let total = cfg.batch_records() * 10;
        let mut loader = DataLoader::new(cfg, vec![total]);
        let mut consumed = 0;
        for c in 0..100_000 {
            loader.tick(c, &mut mem);
            let a = loader.available(0);
            loader.consume(0, a);
            consumed += a;
            if loader.all_exhausted() {
                break;
            }
        }
        assert_eq!(consumed, total);
    }

    #[test]
    #[should_panic(expected = "more records than buffered")]
    fn consume_more_than_available_panics() {
        let cfg = LoaderConfig::paper_default(4);
        let mut loader = DataLoader::new(cfg, vec![100]);
        loader.consume(0, 1);
    }

    #[test]
    fn drain_writes_all_records_including_partial_tail() {
        let cfg = LoaderConfig::paper_default(4);
        let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let mut drain = WriteDrain::new(cfg);
        let total = cfg.batch_records() * 3 + 7;
        let mut pushed = 0;
        let mut cycle = 0;
        while drain.completed_records() < total {
            let n = (total - pushed).min(drain.free_space()).min(64);
            drain.push_records(n);
            pushed += n;
            if pushed == total {
                drain.set_draining();
            }
            drain.tick(cycle, &mut mem);
            cycle += 1;
            assert!(cycle < 100_000, "drain did not finish");
        }
        assert_eq!(drain.completed_records(), total);
        assert!(drain.is_idle());
        assert_eq!(mem.bytes_written(), total * 4);
    }

    #[test]
    fn drain_holds_partial_batch_until_draining() {
        let cfg = LoaderConfig::paper_default(4);
        let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let mut drain = WriteDrain::new(cfg);
        drain.push_records(10); // less than one batch
        for c in 0..100 {
            drain.tick(c, &mut mem);
        }
        assert_eq!(drain.completed_records(), 0, "partial batch must wait");
        drain.set_draining();
        for c in 100..300 {
            drain.tick(c, &mut mem);
        }
        assert_eq!(drain.completed_records(), 10);
    }

    #[test]
    fn loader_next_event_skips_exactly_the_dead_cycles() {
        let cfg = LoaderConfig::paper_default(4);
        let mut mem = Memory::new(MemoryConfig::ddr4_single_bank());
        let mut loader = DataLoader::new(cfg, vec![cfg.batch_records() * 8; 2]);
        let mut cycle = 0u64;
        let mut events = 0;
        while !loader.all_exhausted() {
            let changed = loader.tick(cycle, &mut mem);
            let a0 = loader.available(0);
            let a1 = loader.available(1);
            loader.consume(0, a0);
            loader.consume(1, a1);
            if changed || a0 > 0 || a1 > 0 {
                cycle += 1;
                events += 1;
                continue;
            }
            // Quiescent: every cycle before the event must be a no-op...
            let next = loader
                .next_event_cycle(cycle, &mem)
                .expect("unfinished loader must have an event");
            assert!(next > cycle, "event must be in the future");
            let mut probe = loader.clone();
            let mut probe_mem = mem.clone();
            for c in cycle + 1..next.min(cycle + 50) {
                assert!(
                    !probe.tick(c, &mut probe_mem),
                    "dead window tick changed state at {c} (next = {next})"
                );
            }
            // ...and jumping straight there must make progress again.
            cycle = next;
            assert!(
                loader.tick(cycle, &mut mem),
                "tick at the event cycle {next} must change state"
            );
            loader.consume(0, loader.available(0));
            loader.consume(1, loader.available(1));
            cycle += 1;
            events += 1;
            assert!(events < 100_000, "runaway");
        }
        assert_eq!(loader.next_event_cycle(cycle, &mem), None);
    }

    /// `hungry` and `next_delivery` are caches of what a full scan of
    /// the leaves would find; under random consumption, short tails and
    /// leaf buffers from 128 to 6 144 records they must equal that scan
    /// after every tick.
    #[test]
    fn loader_counters_match_a_full_rescan() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x10AD_0015);
        for round in 0..24 {
            let cfg = LoaderConfig {
                batch_bytes: [256, 1024, 4096][round % 3] * (1 + (round as u64 / 3) % 3),
                record_bytes: 4,
            };
            let mut mem = Memory::new(if round % 2 == 0 {
                MemoryConfig::ddr4_aws_f1()
            } else {
                MemoryConfig::ddr4_single_bank()
            });
            let per_leaf: Vec<u64> = (0..rng.range_usize(1, 9))
                .map(|_| rng.below_u64(6 * cfg.batch_records()))
                .collect();
            let mut loader = DataLoader::new(cfg, per_leaf);
            for cycle in 0..4_000 {
                let before: Vec<u64> = loader.leaves.iter().map(|l| l.buffered).collect();
                loader.tick(cycle, &mut mem);
                // The delivered set is exactly the leaves whose buffer
                // grew this tick (it was taken empty last cycle).
                let landed = (0..loader.leaves())
                    .filter(|&i| loader.leaves[i].buffered > before[i])
                    .fold(0u64, |set, i| set | 1 << i);
                assert_eq!(
                    loader.take_delivered(0),
                    landed,
                    "round {round} cycle {cycle}"
                );
                for i in 0..loader.leaves() {
                    let take = rng.below_u64(loader.available(i) + 1);
                    loader.consume(i, take.min(3));
                }
                let (batch, capacity) = (cfg.batch_records(), cfg.buffer_records());
                let hungry = loader
                    .leaves
                    .iter()
                    .filter(|l| l.wants_burst(batch, capacity))
                    .count();
                assert_eq!(loader.hungry, hungry, "round {round} cycle {cycle}");
                let next = loader
                    .leaves
                    .iter()
                    .filter_map(|l| l.in_flight.front().map(|&(done, _)| done))
                    .min()
                    .unwrap_or(u64::MAX);
                assert_eq!(loader.next_delivery, next, "round {round} cycle {cycle}");
            }
        }
    }

    /// A loader and drain abandoned mid-pass and then reset must replay
    /// a fresh pair tick for tick, including the delivered set and the
    /// round-robin position.
    #[test]
    fn reset_loader_and_drain_replay_fresh_ones() {
        let cfg = LoaderConfig {
            batch_bytes: 256,
            record_bytes: 4,
        };
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x2E5E_0019);
        let first: Vec<u64> = (0..70).map(|_| rng.below_u64(400)).collect();
        let second: Vec<u64> = (0..70).map(|_| rng.below_u64(300)).collect();
        let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
        let mut used = DataLoader::new(cfg, first);
        let mut used_drain = WriteDrain::new(cfg);
        for cycle in 0..150 {
            used.tick(cycle, &mut mem);
            // 37 at a time: the drain is left with a partial batch.
            let leaf = rng.below_usize(8);
            let a = used.available(leaf).min(37);
            used.consume(leaf, a);
            used_drain.push_records(a.min(used_drain.free_space()));
            used_drain.tick(cycle, &mut mem);
        }
        assert!(used.next_delivery != u64::MAX, "a burst is in flight");
        assert!(!used_drain.is_idle(), "the drain holds records");
        used.reset(&second);
        used_drain.reset();

        let mut fresh = DataLoader::new(cfg, second);
        let mut fresh_drain = WriteDrain::new(cfg);
        let mut mems = [
            Memory::new(MemoryConfig::ddr4_aws_f1()),
            Memory::new(MemoryConfig::ddr4_aws_f1()),
        ];
        for cycle in 0..3_000 {
            let take_from = rng.below_usize(70);
            let mut seen = Vec::new();
            for ((loader, drain), mem) in
                [(&mut used, &mut used_drain), (&mut fresh, &mut fresh_drain)]
                    .into_iter()
                    .zip(&mut mems)
            {
                let changed = loader.tick(cycle, mem);
                let landed = [loader.take_delivered(0), loader.take_delivered(1)];
                let a = loader.available(take_from).min(drain.free_space());
                loader.consume(take_from, a);
                drain.push_records(a);
                if loader.all_exhausted() {
                    drain.set_draining();
                }
                let drained = drain.tick(cycle, mem);
                let status: Vec<LeafStatus> = (0..70).map(|i| loader.leaf_status(i)).collect();
                seen.push((
                    (changed, drained, landed, status),
                    (
                        loader.rr,
                        loader.hungry,
                        loader.next_event_cycle(cycle, mem),
                    ),
                    (
                        drain.completed_records(),
                        drain.next_event_cycle(cycle, mem),
                    ),
                ));
            }
            assert_eq!(seen[0], seen[1], "cycle {cycle}");
        }
        #[cfg(feature = "sanitize")]
        assert_eq!(
            (used.sanitize_check(), used_drain.sanitize_check()),
            (Vec::new(), Vec::new())
        );
    }

    #[test]
    fn drain_next_event_covers_retire_and_issue() {
        let cfg = LoaderConfig::paper_default(4);
        let mut mem = Memory::new(MemoryConfig::ddr4_single_bank());
        let mut drain = WriteDrain::new(cfg);
        // Idle drain: no events.
        assert_eq!(drain.next_event_cycle(0, &mem), None);
        // A full batch is issuable immediately (port free): event at 1.
        drain.push_records(cfg.batch_records());
        assert_eq!(drain.next_event_cycle(0, &mem), Some(1));
        assert!(drain.tick(1, &mut mem));
        // Burst in flight, nothing pending: next event is its retirement.
        let next = drain.next_event_cycle(1, &mem).expect("burst in flight");
        for c in 2..next {
            assert!(!drain.tick(c, &mut mem), "dead cycle {c} changed state");
        }
        assert!(drain.tick(next, &mut mem), "retirement at {next}");
        assert_eq!(drain.completed_records(), cfg.batch_records());
        assert_eq!(drain.next_event_cycle(next, &mem), None);
        // A sub-batch residue is only an event once draining is signalled.
        drain.push_records(7);
        assert_eq!(drain.next_event_cycle(next, &mem), None);
        drain.set_draining();
        assert_eq!(drain.next_event_cycle(next, &mem), Some(next + 1));
    }

    #[test]
    fn loader_saturates_single_bank_bandwidth() {
        // With one bank and plenty of leaves, achieved read efficiency
        // should approach the burst efficiency bound.
        let cfg = LoaderConfig::paper_default(4);
        let mcfg = MemoryConfig::ddr4_single_bank();
        let mut mem = Memory::new(mcfg);
        let mut loader = DataLoader::new(cfg, vec![u64::MAX / 2; 4]);
        let horizon = 100_000;
        for c in 0..horizon {
            loader.tick(c, &mut mem);
            for i in 0..4 {
                let a = loader.available(i);
                loader.consume(i, a);
            }
        }
        let eff = mem.read_efficiency(horizon);
        let bound = mcfg.burst_efficiency(cfg.batch_bytes);
        assert!(
            eff > bound * 0.95,
            "loader must keep the port busy: eff = {eff}, bound = {bound}"
        );
    }
}
