//! The merge tree: heap-ordered merger state over heap-ordered edges.

use bonsai_merge_hw::{Edge, MergeStep};
use bonsai_records::Record;

use crate::config::AmtConfig;

/// Aggregated statistics over every merger in a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Payload records emitted by the root.
    pub root_records_out: u64,
    /// Root flushes (terminal records emitted by the root).
    pub root_flushes: u64,
    /// Sum of input-stall cycles across all mergers.
    pub total_input_stalls: u64,
    /// Sum of output-stall cycles across all mergers.
    pub total_output_stalls: u64,
}

/// A complete binary tree of `k`-mergers implementing one `AMT(p, ℓ)`
/// (§II, Figure 1).
///
/// The tree owns its datapath as two heap-ordered arrays. Node `i` —
/// node 0 is the root `p`-merger, the deepest level's `ℓ/2` mergers
/// come last — is a [`MergeStep`] (width, run-done flags, statistics)
/// plus its arrears counter. Edge `i` of the `2ℓ − 1` [`Edge`]s is the
/// ring node `i` writes and node `(i − 1)/2` reads: node `i` reads edges
/// `2i+1` and `2i+2`, edge 0 is the root's output, and edges `ℓ − 1 …
/// 2ℓ − 2` are the `ℓ` leaf input ports. An edge's parent side holds
/// `(8k).max(16)` records of its reader's width `k`, its child side
/// `2k + 1` of its writer's — the capacities of the input and output
/// FIFOs it stands for. Each [`MergeTree::tick`] advances every merger
/// one cycle on its three edges in place and moves records up one level
/// by advancing the edge's coupling cursor (the couplers' job in
/// hardware).
///
/// Input streams must be terminal-delimited runs, one terminal per run
/// per leaf, with every leaf carrying the same number of runs; the root
/// then emits one terminal-delimited merged run per input "wave".
///
/// # Active-node worklist
///
/// Ticking every merger every cycle wastes work on settled subtrees, so
/// the tree keeps a worklist: a merger whose tick changes nothing (and
/// whose coupler moves nothing) leaves it and is skipped until an event
/// that lets it act again — input pushed ([`MergeTree::push_leaf`] or a
/// child's coupler), root output popped ([`MergeTree::pop_root`]), or
/// its parent consuming input on its side while it holds output (the one
/// thing a quiescent child can respond to: its coupler has room again).
/// The worklist is a bitset over the heap-ordered nodes, so a cycle
/// costs the nodes that are on it, not the width of the tree.
///
/// Skipped cycles are still accounted: each node carries an
/// `accounted`-through counter, and the arrears are settled in bulk via
/// [`MergeStep::add_stalled_cycles`] before the node's state can next
/// change (or virtually, in [`MergeTree::stats`]). Since a skipped
/// node's state is frozen, the bulk classification (output stall if its
/// edge's child side is full, input stall otherwise) is exactly what
/// per-cycle ticks would have recorded, so cycle and stall counters are
/// bit-identical to the always-tick schedule.
///
/// # Two schedules
///
/// The worklist pays for itself only while most mergers are idle. On a
/// busy tree its wakes, settles and deactivations cost more than the
/// ticks they skip, so the tree also has the always-tick schedule
/// itself: every merger, deepest first, with none of that bookkeeping.
/// It measures its own activity — the mergers whose tick or coupler
/// changed state, averaged over a window of 64 stepped ticks — and
/// runs dense from a mean of half its nodes until the mean drops below
/// a third of them. Entering settles every node's arrears, so the
/// dense schedule owes none. While dense, the worklist holds every
/// node, or none after a tick that changed nothing, either of which is
/// a valid worklist to leave on. A [`MergeTree::fast_forward`] always
/// leaves, since only the worklist settles the span it skips. Both
/// schedules run the same cycle, so nothing the tree reports depends
/// on which one ran.
#[derive(Debug, Clone)]
pub struct MergeTree<R> {
    config: AmtConfig,
    /// Heap-ordered merger state, length `ℓ − 1`.
    nodes: Vec<Node<R>>,
    /// Heap-ordered edges, length `2ℓ − 1`: node `i` writes edge `i`.
    edges: Vec<Edge<R>>,
    /// Index of the first deepest-level merger.
    first_leaf_node: usize,
    /// Completed tree ticks (including fast-forwarded spans).
    tick_count: u64,
    /// The worklist: bit `i % 64` of word `i / 64` is set while node `i`
    /// has to be ticked.
    active: Vec<u64>,
    /// Whether [`MergeTree::tick`] runs the dense schedule.
    dense: bool,
    /// Ticks stepped in the current activity window.
    window_ticks: u64,
    /// Mergers whose tick or coupler changed state, summed over the
    /// window's ticks.
    window_busy: u64,
    /// Schedule switches since the last reset: into dense, out of it.
    #[cfg(test)]
    switches: [u64; 2],
    /// Leaf ports (same bit layout, over leaves) whose FIFO may have
    /// gained room since [`MergeTree::take_freed_leaves`] last handed
    /// them out: both ports of every deepest-level merger whose tick
    /// consumed input, and every port of a new or reset tree.
    freed_leaves: Vec<u64>,
}

/// One merger's state with its arrears bookkeeping, kept together so a
/// visit touches one node slot.
#[derive(Debug, Clone)]
struct Node<R> {
    step: MergeStep<R>,
    /// Tree ticks already reflected in the merger's `MergerStats`;
    /// `tick_count - accounted` is the node's stall arrears.
    accounted: u64,
}

/// Ticks over which a tree averages its activity before it picks a
/// schedule.
const WINDOW: u64 = 64;

/// The share of its nodes (numerator, denominator) a worklist tree's
/// mean activity must reach for it to switch to the dense schedule.
const DENSE_ENTER: (u64, u64) = (1, 2);

/// The share of its nodes a dense tree's mean activity must stay at or
/// above for it to stay dense. Below [`DENSE_ENTER`], so a tree near
/// the threshold does not switch every window.
const DENSE_LEAVE: (u64, u64) = (1, 3);

#[cfg(test)]
thread_local! {
    /// The schedule every tree on this thread is held to, if any.
    static PINNED: std::cell::Cell<Option<bool>> = const { std::cell::Cell::new(None) };
}

/// Holds every tree on the calling thread to the dense schedule
/// (`Some(true)`), to the worklist (`Some(false)`), or lets each pick
/// by its activity (`None`). A pinned tree still leaves dense on a
/// [`MergeTree::fast_forward`] and returns at the end of its next tick.
#[cfg(test)]
pub(crate) fn pin_schedule(dense: Option<bool>) {
    PINNED.set(dense);
}

/// Sets bit `idx` of a bitset: bit `idx % 64` of word `idx / 64`.
#[inline]
fn set_bit(words: &mut [u64], idx: usize) {
    words[idx / 64] |= 1 << (idx % 64);
}

/// Sets bits `0..n` of a bitset and clears the rest.
fn set_low_bits(words: &mut [u64], n: usize) {
    for (w, word) in words.iter_mut().enumerate() {
        *word = match n.saturating_sub(64 * w) {
            0 => 0,
            live @ 1..=63 => (1 << live) - 1,
            _ => u64::MAX,
        };
    }
}

impl<R: Record> MergeTree<R> {
    /// Builds the tree for the given shape.
    pub fn new(config: AmtConfig) -> Self {
        let mut nodes = Vec::with_capacity(config.total_mergers());
        for level in 0..config.levels() {
            let k = config.merger_width_at_level(level);
            for _ in 0..config.mergers_at_level(level) {
                nodes.push(Node {
                    step: MergeStep::new(k),
                    accounted: 0,
                });
            }
        }
        // Edge `e` is read by node `(e − 1)/2` (no one reads the root's
        // edge) and written by node `e` (no node writes a leaf port).
        // Input capacity: a few k-record tuples of skid buffering. The
        // hardware's inter-level FIFOs (Figure 7) smooth the
        // data-dependent demand bursts of downstream mergers; eight
        // tuples is enough that deeper buffers no longer help. Output
        // capacity: two tuples plus a terminal slot, so a full tuple can
        // always be produced while the parent drains.
        let edges = (0..2 * config.l - 1)
            .map(|e| {
                let input = match e {
                    0 => 0,
                    _ => (8 * nodes[(e - 1) / 2].step.k()).max(16),
                };
                let output = nodes.get(e).map_or(0, |n| 2 * n.step.k() + 1);
                Edge::new(input, output, R::TERMINAL)
            })
            .collect();
        let mut tree = Self {
            config,
            first_leaf_node: (config.l / 2) - 1,
            tick_count: 0,
            active: vec![0; nodes.len().div_ceil(64)],
            dense: false,
            window_ticks: 0,
            window_busy: 0,
            #[cfg(test)]
            switches: [0; 2],
            freed_leaves: vec![0; config.l.div_ceil(64)],
            nodes,
            edges,
        };
        tree.reset();
        tree
    }

    /// Returns the tree to its just-built state — every edge empty, no
    /// run in progress, clock and statistics at zero, `sanitize` probes
    /// fresh, every merger on the worklist, the worklist schedule with a
    /// new activity window, and every leaf port marked free — keeping
    /// all `2ℓ − 1` edge allocations for the next merge group.
    pub fn reset(&mut self) {
        for node in &mut self.nodes {
            node.step.reset();
            node.accounted = 0;
        }
        for edge in &mut self.edges {
            edge.clear();
        }
        self.tick_count = 0;
        set_low_bits(&mut self.active, self.nodes.len());
        self.dense = false;
        self.window_ticks = 0;
        self.window_busy = 0;
        set_low_bits(&mut self.freed_leaves, self.config.l);
        #[cfg(test)]
        {
            // A new tree owes no arrears, so it may start dense.
            self.dense = PINNED.get().unwrap_or(false);
            self.switches = [0; 2];
        }
    }

    /// The tree's shape.
    pub fn config(&self) -> AmtConfig {
        self.config
    }

    /// Number of leaf input ports (`ℓ`).
    pub fn leaves(&self) -> usize {
        self.config.l
    }

    /// The deepest-level node leaf `leaf` feeds and the edge that is its
    /// port.
    #[inline]
    fn leaf_port(&self, leaf: usize) -> (usize, usize) {
        // Hot loop: bounds are the caller's contract; the slice index
        // below still aborts safely if it is ever violated in release.
        debug_assert!(leaf < self.config.l, "leaf index out of range");
        (self.first_leaf_node + leaf / 2, self.config.l - 1 + leaf)
    }

    /// Free FIFO space (records) at leaf port `leaf`.
    #[inline]
    pub fn leaf_free(&self, leaf: usize) -> usize {
        self.edges[self.leaf_port(leaf).1].input_free()
    }

    /// Settles node `idx`'s stall arrears up to `now` completed ticks, so
    /// its stats reflect every one of them, classified by its output
    /// edge. Must be called before any mutation that could change the
    /// node's stall classification (pushing its input, taking its
    /// output).
    #[inline]
    fn settle(&mut self, idx: usize, now: u64) {
        let node = &mut self.nodes[idx];
        if node.accounted < now {
            let e = &self.edges;
            let n = now - node.accounted;
            node.step
                .add_stalled_cycles(n, &e[2 * idx + 1], &e[2 * idx + 2], &e[idx]);
            node.accounted = now;
        }
    }

    /// Settles node `idx`'s arrears up to `now` completed ticks and puts
    /// it (back) on the worklist.
    #[inline]
    fn wake(&mut self, idx: usize, now: u64) {
        self.settle(idx, now);
        set_bit(&mut self.active, idx);
    }

    /// Pushes one record (payload or terminal) into leaf `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if the leaf FIFO is full — call [`MergeTree::leaf_free`]
    /// first.
    pub fn push_leaf(&mut self, leaf: usize, rec: R) {
        if self.push_leaf_slice(leaf, &[rec]) == 0 {
            panic!("leaf {leaf} FIFO overflow");
        }
    }

    /// Pushes as many records from `recs` as fit into leaf `leaf`, in
    /// order, and returns how many were accepted — the bulk counterpart
    /// of [`MergeTree::push_leaf`] for batched leaf feeding.
    #[inline]
    pub fn push_leaf_slice(&mut self, leaf: usize, recs: &[R]) -> usize {
        if recs.is_empty() {
            return 0;
        }
        let (node, edge) = self.leaf_port(leaf);
        self.wake(node, self.tick_count);
        self.nodes[node]
            .step
            .push_input_slice(&mut self.edges[edge], recs)
    }

    /// Pushes `chunk`, the next records of one run, into leaf `leaf`,
    /// then the terminal that ends the run when `close` is set (zero
    /// append) — under one wake, as one leaf feed. The caller has
    /// checked that `chunk.len() + close` records fit
    /// ([`MergeTree::leaf_free`]).
    #[inline]
    pub(crate) fn push_leaf_run(&mut self, leaf: usize, chunk: &[R], close: bool) {
        let (node, edge) = self.leaf_port(leaf);
        self.wake(node, self.tick_count);
        let (step, port) = (&mut self.nodes[node].step, &mut self.edges[edge]);
        let mut pushed = step.push_input_slice(port, chunk);
        if close {
            pushed += step.push_input_slice(port, &[R::TERMINAL]);
        }
        debug_assert_eq!(
            pushed,
            chunk.len() + usize::from(close),
            "leaf_free promised space"
        );
    }

    /// Takes (returns and clears) one 64-leaf word of the freed-port
    /// set: bit `b` of word `w` is leaf `64·w + b`, set when that port's
    /// FIFO may have gained room since the word was last taken. A feeder
    /// that stopped at a full FIFO need not look at the leaf again until
    /// its bit shows up here.
    ///
    /// # Panics
    ///
    /// Panics if `word >= leaves().div_ceil(64)`.
    #[inline]
    pub(crate) fn take_freed_leaves(&mut self, word: usize) -> u64 {
        std::mem::take(&mut self.freed_leaves[word])
    }

    /// The freed-port set, not taken.
    #[cfg(test)]
    pub(crate) fn freed_leaves(&self) -> &[u64] {
        &self.freed_leaves
    }

    /// Schedule switches since the last reset: into the dense schedule,
    /// and out of it.
    #[cfg(test)]
    pub(crate) fn switches(&self) -> [u64; 2] {
        self.switches
    }

    /// Pops the next root output record, if any.
    pub fn pop_root(&mut self) -> Option<R> {
        if self.edges[0].output_len() == 0 {
            return None;
        }
        // Settle before the pop (inside `wake`): removing output can
        // flip the root's stall class from output- to input-stalled.
        self.wake(0, self.tick_count);
        self.edges[0].pop_output()
    }

    /// Flushes (terminal records, one per merged group) the root has
    /// emitted so far.
    pub(crate) fn root_flushes(&self) -> u64 {
        self.nodes[0].step.stats().flushes
    }

    /// Advances the whole tree one cycle: mergers tick deepest level
    /// first, each level's output coupled straight into its parent's side
    /// of the edge, so the root sees this cycle's production — modeling
    /// the fully pipelined hardware datapath.
    ///
    /// On the worklist schedule only worklist nodes are ticked, and
    /// skipped nodes' stall cycles accrue as arrears; on the dense one
    /// every node is (see the type-level docs). Returns `true` when any
    /// merger or coupler changed state this cycle. A `false` return is
    /// stable: with no external push or pop, every future tick is also a
    /// no-op, so the caller may [`MergeTree::fast_forward`].
    pub fn tick(&mut self) -> bool {
        let now = self.tick_count;
        self.tick_count = now + 1;
        let busy = if self.dense {
            self.tick_dense(now)
        } else {
            self.tick_sparse(now)
        };
        self.window_busy += busy as u64;
        self.window_ticks += 1;
        if self.window_ticks == WINDOW {
            self.end_window();
        }
        #[cfg(test)]
        if let Some(dense) = PINNED.get() {
            self.set_dense(dense);
        }
        busy > 0
    }

    /// Picks the schedule from the window's mean activity and opens the
    /// next window.
    fn end_window(&mut self) {
        let (num, den) = if self.dense { DENSE_LEAVE } else { DENSE_ENTER };
        let dense = self.window_busy * den >= num * WINDOW * self.nodes.len() as u64;
        #[cfg(test)]
        let dense = PINNED.get().unwrap_or(dense);
        self.set_dense(dense);
        self.window_ticks = 0;
        self.window_busy = 0;
    }

    /// Moves the tree onto the dense schedule or back onto the worklist.
    fn set_dense(&mut self, dense: bool) {
        if dense && !self.dense {
            // The dense schedule settles nothing, so it starts with no
            // node in arrears.
            let now = self.tick_count;
            for idx in 0..self.nodes.len() {
                self.settle(idx, now);
            }
        }
        #[cfg(test)]
        if dense != self.dense {
            self.switches[usize::from(!dense)] += 1;
        }
        self.dense = dense;
    }

    /// One cycle on the dense schedule: every merger ticks, deepest
    /// first, and couples what it can into its parent, which ticks later
    /// this cycle. No node owes arrears here, and none is woken, settled
    /// or taken off the worklist. Returns how many mergers' tick or
    /// coupler changed state.
    fn tick_dense(&mut self, now: u64) -> usize {
        let mut busy = 0;
        for idx in (self.first_leaf_node..self.nodes.len()).rev() {
            let (node_changed, coupler_moved) = self.tick_in_place(idx, now);
            if coupler_moved {
                self.nodes[(idx - 1) / 2].step.couple(&mut self.edges[idx]);
            }
            if node_changed {
                let left_leaf = 2 * (idx - self.first_leaf_node);
                self.freed_leaves[left_leaf / 64] |= 0b11 << (left_leaf % 64);
            }
            busy += usize::from(node_changed || coupler_moved);
        }
        for idx in (0..self.first_leaf_node).rev() {
            let (node_changed, coupler_moved) = self.tick_in_place(idx, now);
            if coupler_moved {
                self.nodes[(idx - 1) / 2].step.couple(&mut self.edges[idx]);
            }
            busy += usize::from(node_changed || coupler_moved);
        }
        // Every node is on the worklist, a valid list to leave on, or
        // none once nothing moved: the list the worklist schedule leaves
        // after such a tick, and the quiescence `fast_forward` checks.
        if busy > 0 {
            set_low_bits(&mut self.active, self.nodes.len());
        } else {
            self.active.fill(0);
        }
        busy
    }

    /// One cycle on the worklist schedule. Returns how many mergers'
    /// tick or coupler changed state.
    fn tick_sparse(&mut self, now: u64) -> usize {
        let mut busy = 0;
        for word in (0..self.active.len()).rev() {
            // Highest set bit first, which is the always-tick order
            // (deepest node first). The word is read again after every
            // visit: a visit may put the node's parent on the worklist —
            // a lower bit, or a word still to come, so it ticks later
            // this cycle and sees this cycle's production — or a child,
            // a higher bit that `unvisited` masks off until next cycle.
            let mut unvisited = u64::MAX;
            loop {
                let pending = self.active[word] & unvisited;
                if pending == 0 {
                    break;
                }
                let bit = 63 - pending.leading_zeros() as usize;
                unvisited = (1 << bit) - 1;
                if self.visit(64 * word + bit, now) {
                    busy += 1;
                } else {
                    // Pure stall (already recorded by its own tick):
                    // freeze the node until an event can unblock it.
                    self.active[word] &= !(1 << bit);
                }
            }
        }
        busy
    }

    /// Ticks node `idx` in place on its three edges, its stats then
    /// accounted through cycle `now`. Returns whether the merger changed
    /// state and whether its coupler has records to move: output on its
    /// edge and room on the parent's side, which the root's edge never
    /// has.
    #[inline(always)]
    fn tick_in_place(&mut self, idx: usize, now: u64) -> (bool, bool) {
        let (edges_upto, edges_read) = self.edges.split_at_mut(2 * idx + 1);
        let (Some(out), [left, right, ..]) = (edges_upto.get_mut(idx), edges_read) else {
            unreachable!("node indices name existing nodes, each with three edges");
        };
        let node = &mut self.nodes[idx];
        let node_changed = node.step.tick(left, right, out);
        node.accounted = now + 1;
        (node_changed, out.output_len() > 0 && out.input_free() > 0)
    }

    /// Ticks node `idx` in place on its three edges, couples its output
    /// into its parent and wakes whoever that unblocks. Returns `true`
    /// when the merger or its coupler changed state.
    #[inline]
    fn visit(&mut self, idx: usize, now: u64) -> bool {
        // A node woken mid-previous-tick may still owe one stall cycle;
        // settle before ticking so stats stay exact.
        self.settle(idx, now);
        let (node_changed, coupler_moved) = self.tick_in_place(idx, now);
        if coupler_moved {
            // The parent's input is about to change: settle its arrears
            // and put it on the worklist.
            let parent = (idx - 1) / 2;
            self.wake(parent, now);
            self.nodes[parent].step.couple(&mut self.edges[idx]);
        }

        if node_changed {
            // A tick that changed state consumed input (a flush always
            // rides on the terminal absorbed before it), which is the
            // only way an input gains room.
            if idx >= self.first_leaf_node {
                let left_leaf = 2 * (idx - self.first_leaf_node);
                self.freed_leaves[left_leaf / 64] |= 0b11 << (left_leaf % 64);
            } else {
                // A quiescent child can respond in exactly one way:
                // couple held output into a side that now has room. Any
                // other child stays frozen, its arrears classified as
                // before.
                for child in [2 * idx + 1, 2 * idx + 2] {
                    let edge = &self.edges[child];
                    if edge.output_len() > 0 && edge.input_free() > 0 {
                        self.wake(child, now);
                    }
                }
            }
        }
        node_changed || coupler_moved
    }

    /// Number of completed tree ticks, including fast-forwarded spans.
    pub fn tick_count(&self) -> u64 {
        self.tick_count
    }

    /// Advances the clock by `cycles` ticks in O(1) without simulating
    /// them. Only valid when the tree is quiescent — the previous
    /// [`MergeTree::tick`] returned `false`, which guarantees every node
    /// was deactivated and each skipped cycle is a stall identical to the
    /// last one; the span lands in the same per-node stall counters via
    /// the arrears mechanism, which only the worklist schedule settles,
    /// so the tree leaves the dense one.
    pub fn fast_forward(&mut self, cycles: u64) {
        // Both schedules empty the worklist on a tick that changed
        // nothing, and only external pushes and pops refill it.
        debug_assert!(
            self.active.iter().all(|&word| word == 0),
            "fast-forward requires a quiescent tree (last tick returned false)"
        );
        self.tick_count += cycles;
        self.set_dense(false);
    }

    /// Node `idx`'s merge step with its input edges and output edge.
    fn node_edges(&self, idx: usize) -> (&MergeStep<R>, &Edge<R>, &Edge<R>, &Edge<R>) {
        let e = &self.edges;
        (
            &self.nodes[idx].step,
            &e[2 * idx + 1],
            &e[2 * idx + 2],
            &e[idx],
        )
    }

    /// Returns `true` when no records remain anywhere in the tree.
    pub fn is_drained(&self) -> bool {
        (0..self.nodes.len()).all(|idx| {
            let (step, left, right, out) = self.node_edges(idx);
            step.is_drained(left, right, out)
        })
    }

    /// Collects sanitizer findings (`BON101`–`BON103`) from every
    /// merger, tagged with the heap index of the offending node.
    ///
    /// Only available with the `sanitize` feature.
    #[cfg(feature = "sanitize")]
    pub fn sanitize_check(&mut self) -> Vec<bonsai_check::Diagnostic> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let e = &self.edges;
            out.extend(
                node.step
                    .sanitize_check(&e[2 * i + 1], &e[2 * i + 2], &e[i])
                    .into_iter()
                    .map(|d| d.with("node", i)),
            );
        }
        out
    }

    /// Aggregated statistics.
    ///
    /// Includes each node's unsettled stall arrears (classified exactly
    /// as settling would), so the result is independent of when skipped
    /// nodes were last woken.
    pub fn stats(&self) -> TreeStats {
        let root = self.nodes[0].step.stats();
        let mut s = TreeStats {
            root_records_out: root.records_out,
            root_flushes: root.flushes,
            ..TreeStats::default()
        };
        for (node, out) in self.nodes.iter().zip(&self.edges) {
            let st = node.step.stats();
            s.total_input_stalls += st.input_stalls;
            s.total_output_stalls += st.output_stalls;
            let due = self.tick_count.saturating_sub(node.accounted);
            if due > 0 {
                if out.is_output_full() {
                    s.total_output_stalls += due;
                } else {
                    s.total_input_stalls += due;
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_merge_hw::KMerger;
    use bonsai_records::U32Rec;

    /// The heap-of-`KMerger`s tree this crate shipped before the tree
    /// owned its edges, kept word for word — minus the `config` and
    /// `leaves` accessors, and with `KMerger::couple_into` spelled as the
    /// per-record `pop_output` / `push_input` loop it was checked
    /// against — as the oracle the edge-ring tree is driven against.
    /// Its mergers run the same `MergeStep::tick`, which `merger.rs`
    /// checks against the per-record merger loop; what this oracle pins
    /// is the layout, the coupler, the wake and the accounting around it.
    mod reference {
        use super::*;
        use bonsai_merge_hw::Side;

        /// A complete binary tree of [`KMerger`]s implementing one `AMT(p, ℓ)`
        /// (§II, Figure 1).
        ///
        /// Mergers are stored in heap order: node 0 is the root `p`-merger; node
        /// `i` has children `2i+1` and `2i+2`; the deepest level's `ℓ/2` mergers
        /// expose `ℓ` leaf input ports. Each [`MergeTree::tick`] advances every
        /// merger one cycle and moves records up one level (the couplers' job in
        /// hardware).
        ///
        /// Input streams must be terminal-delimited runs, one terminal per run
        /// per leaf, with every leaf carrying the same number of runs; the root
        /// then emits one terminal-delimited merged run per input "wave".
        ///
        /// # Active-node worklist
        ///
        /// Ticking every merger every cycle wastes work on settled subtrees, so
        /// the tree keeps a worklist: a merger whose tick changes nothing (and
        /// whose coupler moves nothing) leaves it and is skipped until an event
        /// that lets it act again — input pushed ([`MergeTree::push_leaf`] or a
        /// child's coupler), root output popped ([`MergeTree::pop_root`]), or
        /// its parent consuming input on its side while it holds output (the one
        /// thing a quiescent child can respond to: its coupler has room again).
        /// The worklist is a bitset over the heap-ordered nodes, so a cycle
        /// costs the nodes that are on it, not the width of the tree.
        ///
        /// Skipped cycles are still accounted: each node carries an
        /// `accounted`-through counter, and the arrears are settled in bulk via
        /// [`bonsai_merge_hw::KMerger::add_stalled_cycles`] before the node's
        /// state can next change (or virtually, in [`MergeTree::stats`]). Since a
        /// skipped node's state is frozen, the bulk classification (output stall
        /// if its output FIFO is full, input stall otherwise) is exactly what
        /// per-cycle ticks would have recorded, so cycle and stall counters are
        /// bit-identical to the always-tick schedule.
        #[derive(Debug, Clone)]
        pub struct MergeTree<R> {
            config: AmtConfig,
            /// Heap-ordered mergers, length `ℓ - 1`.
            nodes: Vec<Node<R>>,
            /// Index of the first deepest-level merger.
            first_leaf_node: usize,
            /// Completed tree ticks (including fast-forwarded spans).
            tick_count: u64,
            /// The worklist: bit `i % 64` of word `i / 64` is set while node `i`
            /// has to be ticked.
            active: Vec<u64>,
            /// Leaf ports (same bit layout, over leaves) whose FIFO may have
            /// gained room since [`MergeTree::take_freed_leaves`] last handed
            /// them out: both ports of every deepest-level merger whose tick
            /// consumed input, and every port of a new or reset tree.
            freed_leaves: Vec<u64>,
        }

        /// One merger with its arrears bookkeeping, kept together so a tick
        /// touches one slot per node.
        #[derive(Debug, Clone)]
        struct Node<R> {
            merger: KMerger<R>,
            /// Tree ticks already reflected in the merger's `MergerStats`;
            /// `tick_count - accounted` is the node's stall arrears.
            accounted: u64,
        }

        impl<R: Record> Node<R> {
            /// Settles the node's stall arrears up to `now` completed ticks, so
            /// its stats reflect every one of them. Must be called before any
            /// mutation that could change the node's stall classification
            /// (pushing its input, popping its output).
            #[inline]
            fn settle(&mut self, now: u64) {
                if self.accounted < now {
                    self.merger.add_stalled_cycles(now - self.accounted);
                    self.accounted = now;
                }
            }
        }

        impl<R: Record> MergeTree<R> {
            /// Builds the tree for the given shape.
            pub fn new(config: AmtConfig) -> Self {
                let levels = config.levels();
                let mut nodes = Vec::with_capacity(config.total_mergers());
                for level in 0..levels {
                    let k = config.merger_width_at_level(level);
                    // FIFO capacity: a few k-record tuples of skid buffering.
                    // The hardware's inter-level FIFOs (Figure 7) smooth the
                    // data-dependent demand bursts of downstream mergers; eight
                    // tuples is enough that deeper buffers no longer help.
                    let fifo = (8 * k).max(16);
                    for _ in 0..config.mergers_at_level(level) {
                        nodes.push(Node {
                            merger: KMerger::new(k, fifo),
                            accounted: 0,
                        });
                    }
                }
                let mut tree = Self {
                    config,
                    first_leaf_node: (config.l / 2) - 1,
                    tick_count: 0,
                    active: vec![0; nodes.len().div_ceil(64)],
                    freed_leaves: vec![0; config.l.div_ceil(64)],
                    nodes,
                };
                tree.reset();
                tree
            }

            /// Returns the tree to its just-built state — every FIFO empty, no
            /// run in progress, clock and statistics at zero, `sanitize` probes
            /// fresh, every merger on the worklist and every leaf port marked
            /// free — keeping all `3·(ℓ − 1)` FIFO allocations for the next
            /// merge group.
            pub fn reset(&mut self) {
                for node in &mut self.nodes {
                    node.merger.reset();
                    node.accounted = 0;
                }
                self.tick_count = 0;
                set_low_bits(&mut self.active, self.nodes.len());
                set_low_bits(&mut self.freed_leaves, self.config.l);
            }

            fn leaf_port(&self, leaf: usize) -> (usize, Side) {
                // Hot loop: bounds are the caller's contract; the slice index
                // below still aborts safely if it is ever violated in release.
                debug_assert!(leaf < self.config.l, "leaf index out of range");
                let node = self.first_leaf_node + leaf / 2;
                let side = if leaf.is_multiple_of(2) {
                    Side::Left
                } else {
                    Side::Right
                };
                (node, side)
            }

            /// Free FIFO space (records) at leaf port `leaf`.
            pub fn leaf_free(&self, leaf: usize) -> usize {
                let (node, side) = self.leaf_port(leaf);
                self.nodes[node].merger.input_free(side)
            }

            /// Settles node `idx`'s arrears up to `now` completed ticks and puts
            /// it (back) on the worklist.
            #[inline]
            fn wake(&mut self, idx: usize, now: u64) {
                self.nodes[idx].settle(now);
                set_bit(&mut self.active, idx);
            }

            /// Pushes one record (payload or terminal) into leaf `leaf`.
            ///
            /// # Panics
            ///
            /// Panics if the leaf FIFO is full — call [`MergeTree::leaf_free`]
            /// first.
            pub fn push_leaf(&mut self, leaf: usize, rec: R) {
                let (node, side) = self.leaf_port(leaf);
                self.wake(node, self.tick_count);
                self.nodes[node]
                    .merger
                    .push_input(side, rec)
                    .unwrap_or_else(|_| panic!("leaf {leaf} FIFO overflow"));
            }

            /// Pushes as many records from `recs` as fit into leaf `leaf`, in
            /// order, and returns how many were accepted — the bulk counterpart
            /// of [`MergeTree::push_leaf`] for batched leaf feeding.
            #[inline]
            pub fn push_leaf_slice(&mut self, leaf: usize, recs: &[R]) -> usize {
                if recs.is_empty() {
                    return 0;
                }
                let (node, side) = self.leaf_port(leaf);
                self.wake(node, self.tick_count);
                self.nodes[node].merger.push_input_slice(side, recs)
            }

            /// Takes (returns and clears) one 64-leaf word of the freed-port
            /// set: bit `b` of word `w` is leaf `64·w + b`, set when that port's
            /// FIFO may have gained room since the word was last taken. A feeder
            /// that stopped at a full FIFO need not look at the leaf again until
            /// its bit shows up here.
            ///
            /// # Panics
            ///
            /// Panics if `word >= leaves().div_ceil(64)`.
            #[inline]
            pub(crate) fn take_freed_leaves(&mut self, word: usize) -> u64 {
                std::mem::take(&mut self.freed_leaves[word])
            }

            /// The freed-port set, not taken.
            #[cfg(test)]
            pub(crate) fn freed_leaves(&self) -> &[u64] {
                &self.freed_leaves
            }

            /// Pops the next root output record, if any.
            pub fn pop_root(&mut self) -> Option<R> {
                if self.nodes[0].merger.output_len() == 0 {
                    return None;
                }
                // Settle before the pop (inside `wake`): removing output can
                // flip the root's stall class from output- to input-stalled.
                self.wake(0, self.tick_count);
                let rec = self.nodes[0].merger.pop_output();
                debug_assert!(rec.is_some(), "output_len promised a record");
                rec
            }

            /// Records currently queued at the root output.
            pub fn root_output_len(&self) -> usize {
                self.nodes[0].merger.output_len()
            }

            /// Flushes (terminal records, one per merged group) the root has
            /// emitted so far.
            pub(crate) fn root_flushes(&self) -> u64 {
                self.nodes[0].merger.stats().flushes
            }

            /// Advances the whole tree one cycle: mergers tick deepest level
            /// first, each level's output moving straight into its parent's input
            /// FIFO (the couplers), so the root sees this cycle's production —
            /// modeling the fully pipelined hardware datapath.
            ///
            /// Only worklist nodes are ticked; skipped nodes' stall cycles accrue
            /// as arrears (see the type-level docs). Returns `true` when any
            /// merger or coupler changed state this cycle. A `false` return is
            /// stable: with no external push or pop, every future tick is also a
            /// no-op, so the caller may [`MergeTree::fast_forward`].
            pub fn tick(&mut self) -> bool {
                let now = self.tick_count;
                self.tick_count = now + 1;
                let mut tree_changed = false;
                for word in (0..self.active.len()).rev() {
                    // Highest set bit first, which is the always-tick order
                    // (deepest node first). The word is read again after every
                    // visit: a visit may put the node's parent on the worklist —
                    // a lower bit, or a word still to come, so it ticks later
                    // this cycle and sees this cycle's production — or a child,
                    // a higher bit that `unvisited` masks off until next cycle.
                    let mut unvisited = u64::MAX;
                    loop {
                        let pending = self.active[word] & unvisited;
                        if pending == 0 {
                            break;
                        }
                        let bit = 63 - pending.leading_zeros() as usize;
                        unvisited = (1 << bit) - 1;
                        let node_idx = 64 * word + bit;
                        let (below, rest) = self.nodes.split_at_mut(node_idx);
                        let Some((node, above)) = rest.split_first_mut() else {
                            unreachable!("worklist bits name existing nodes");
                        };
                        // A node woken mid-previous-tick may still owe one stall
                        // cycle; settle before ticking so stats stay exact.
                        node.settle(now);
                        let node_changed = node.merger.tick();
                        node.accounted = now + 1;

                        let mut coupler_moved = false;
                        if node_idx > 0 {
                            let parent_idx = (node_idx - 1) / 2;
                            let parent = &mut below[parent_idx];
                            let side = if node_idx % 2 == 1 {
                                Side::Left
                            } else {
                                Side::Right
                            };
                            if node.merger.output_len() > 0 && parent.merger.input_free(side) > 0 {
                                // The parent's input is about to change: settle
                                // its arrears and put it on the worklist.
                                parent.settle(now);
                                set_bit(&mut self.active, parent_idx);
                                // `couple_into`, as the per-record loop it was
                                // checked against.
                                let mut moved = 0;
                                while parent.merger.input_free(side) > 0 {
                                    let Some(rec) = node.merger.pop_output() else {
                                        break;
                                    };
                                    parent.merger.push_input(side, rec).expect("space checked");
                                    moved += 1;
                                }
                                coupler_moved = moved > 0;
                            }
                        }

                        if node_changed {
                            // A tick that changed state consumed input (a flush
                            // always rides on the terminal absorbed before it),
                            // which is the only way an input FIFO gains room.
                            if node_idx >= self.first_leaf_node {
                                let left_leaf = 2 * (node_idx - self.first_leaf_node);
                                self.freed_leaves[left_leaf / 64] |= 0b11 << (left_leaf % 64);
                            } else {
                                // Heap slots 2i+1 and 2i+2, i.e. `above[i..]`. A
                                // quiescent child can respond in exactly one
                                // way: couple held output into a side that now
                                // has room. Any other child stays frozen, its
                                // arrears classified as before.
                                let children = &mut above[node_idx..node_idx + 2];
                                for (c, side) in [Side::Left, Side::Right].into_iter().enumerate() {
                                    let child = &mut children[c];
                                    if child.merger.output_len() > 0
                                        && node.merger.input_free(side) > 0
                                    {
                                        child.settle(now);
                                        set_bit(&mut self.active, 2 * node_idx + 1 + c);
                                    }
                                }
                            }
                        }

                        if node_changed || coupler_moved {
                            tree_changed = true;
                        } else {
                            // Pure stall (already recorded by its own tick):
                            // freeze the node until an event can unblock it.
                            self.active[word] &= !(1 << bit);
                        }
                    }
                }
                tree_changed
            }

            /// Number of completed tree ticks, including fast-forwarded spans.
            pub fn tick_count(&self) -> u64 {
                self.tick_count
            }

            /// Advances the clock by `cycles` ticks in O(1) without simulating
            /// them. Only valid when the tree is quiescent — the previous
            /// [`MergeTree::tick`] returned `false`, which guarantees every node
            /// was deactivated and each skipped cycle is a stall identical to the
            /// last one; the span lands in the same per-node stall counters via
            /// the arrears mechanism.
            pub fn fast_forward(&mut self, cycles: u64) {
                debug_assert!(
                    self.active.iter().all(|&word| word == 0),
                    "fast-forward requires a quiescent tree (last tick returned false)"
                );
                self.tick_count += cycles;
            }

            /// Returns `true` when no records remain anywhere in the tree.
            pub fn is_drained(&self) -> bool {
                self.nodes.iter().all(|n| n.merger.is_drained())
            }

            /// Collects sanitizer findings (`BON101`–`BON103`) from every
            /// merger, tagged with the heap index of the offending node.
            ///
            /// Only available with the `sanitize` feature.
            #[cfg(feature = "sanitize")]
            pub fn sanitize_check(&mut self) -> Vec<bonsai_check::Diagnostic> {
                let mut out = Vec::new();
                for (i, node) in self.nodes.iter_mut().enumerate() {
                    out.extend(
                        node.merger
                            .sanitize_check()
                            .into_iter()
                            .map(|d| d.with("node", i)),
                    );
                }
                out
            }

            /// Aggregated statistics.
            ///
            /// Includes each node's unsettled stall arrears (classified exactly
            /// as settling would), so the result is independent of when skipped
            /// nodes were last woken.
            pub fn stats(&self) -> TreeStats {
                let root = self.nodes[0].merger.stats();
                let mut s = TreeStats {
                    root_records_out: root.records_out,
                    root_flushes: root.flushes,
                    ..TreeStats::default()
                };
                for node in &self.nodes {
                    let st = node.merger.stats();
                    s.total_input_stalls += st.input_stalls;
                    s.total_output_stalls += st.output_stalls;
                    let due = self.tick_count.saturating_sub(node.accounted);
                    if due > 0 {
                        if node.merger.output_full() {
                            s.total_output_stalls += due;
                        } else {
                            s.total_input_stalls += due;
                        }
                    }
                }
                s
            }
        }

        /// What the oracle test reads of the tree's private state.
        impl MergeTree<U32Rec> {
            pub(super) fn active(&self) -> &[u64] {
                &self.active
            }

            /// Node `idx`'s statistics with its arrears settled,
            /// classified as [`MergeTree::stats`] does.
            pub(super) fn settled_stats(&self, idx: usize) -> bonsai_merge_hw::MergerStats {
                let node = &self.nodes[idx];
                let mut stats = node.merger.stats();
                let due = self.tick_count - node.accounted;
                stats.cycles += due;
                if node.merger.output_full() {
                    stats.output_stalls += due;
                } else {
                    stats.input_stalls += due;
                }
                stats
            }
        }
    }

    /// Feeds one run per leaf and collects the merged output.
    fn merge_once(config: AmtConfig, runs: Vec<Vec<u32>>) -> Vec<u32> {
        assert_eq!(runs.len(), config.l);
        let mut tree: MergeTree<U32Rec> = MergeTree::new(config);
        let mut streams: Vec<Vec<U32Rec>> = runs
            .into_iter()
            .map(|r| {
                let mut s: Vec<U32Rec> = r.into_iter().map(U32Rec::new).collect();
                s.push(U32Rec::TERMINAL);
                s.reverse();
                s
            })
            .collect();
        let mut out = Vec::new();
        for _ in 0..1_000_000u64 {
            for (leaf, stream) in streams.iter_mut().enumerate() {
                while tree.leaf_free(leaf) > 0 && !stream.is_empty() {
                    let rec = stream.pop().expect("nonempty");
                    tree.push_leaf(leaf, rec);
                }
            }
            tree.tick();
            while let Some(r) = tree.pop_root() {
                out.push(r);
            }
            if streams.iter().all(Vec::is_empty) && tree.is_drained() {
                break;
            }
        }
        assert!(out.last().expect("output nonempty").is_terminal());
        out.iter()
            .filter(|r| !r.is_terminal())
            .map(|r| r.0)
            .collect()
    }

    #[test]
    fn figure_1_tree_merges_16_runs() {
        let config = AmtConfig::new(4, 16);
        let runs: Vec<Vec<u32>> = (0..16u32)
            .map(|i| (0..8u32).map(|j| 16 * j + i + 1).collect())
            .collect();
        let out = merge_once(config, runs);
        let expected: Vec<u32> = (1..=128).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn tree_with_p_larger_than_leaves() {
        // p=8, l=2: a single 8-merger.
        let out = merge_once(AmtConfig::new(8, 2), vec![vec![1, 3, 5], vec![2, 4, 6]]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn tree_handles_empty_runs() {
        let mut runs = vec![vec![]; 8];
        runs[3] = vec![7, 9];
        runs[5] = vec![8];
        let out = merge_once(AmtConfig::new(2, 8), runs);
        assert_eq!(out, vec![7, 8, 9]);
    }

    #[test]
    fn tree_handles_duplicate_heavy_input() {
        let runs: Vec<Vec<u32>> = (0..4).map(|_| vec![5; 20]).collect();
        let out = merge_once(AmtConfig::new(2, 4), runs);
        assert_eq!(out, vec![5; 80]);
    }

    #[test]
    fn root_throughput_approaches_p() {
        // Saturated AMT(4, 4) merging 4 long runs: total cycles should be
        // close to N/p.
        let config = AmtConfig::new(4, 4);
        let n_per_run = 4096u32;
        let runs: Vec<Vec<u32>> = (0..4u32)
            .map(|i| (0..n_per_run).map(|j| 4 * j + i + 1).collect())
            .collect();
        let mut tree: MergeTree<U32Rec> = MergeTree::new(config);
        let mut streams: Vec<Vec<U32Rec>> = runs
            .into_iter()
            .map(|r| {
                let mut s: Vec<U32Rec> = r.into_iter().map(U32Rec::new).collect();
                s.push(U32Rec::TERMINAL);
                s.reverse();
                s
            })
            .collect();
        let mut cycles = 0u64;
        let mut out_count = 0u64;
        while out_count < u64::from(4 * n_per_run) + 1 {
            for (leaf, stream) in streams.iter_mut().enumerate() {
                while tree.leaf_free(leaf) > 0 && !stream.is_empty() {
                    let rec = stream.pop().expect("nonempty");
                    tree.push_leaf(leaf, rec);
                }
            }
            tree.tick();
            cycles += 1;
            while tree.pop_root().is_some() {
                out_count += 1;
            }
            assert!(cycles < 1_000_000, "tree livelock");
        }
        let ideal = u64::from(4 * n_per_run) / 4;
        assert!(
            cycles < ideal * 12 / 10,
            "throughput too low: {cycles} cycles vs ideal {ideal}"
        );
    }

    // The range check is a hot-loop `debug_assert!`: release builds
    // compile it out, so there is no message to expect there.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leaf index out of range")]
    fn push_to_invalid_leaf_panics() {
        let mut tree: MergeTree<U32Rec> = MergeTree::new(AmtConfig::new(2, 4));
        tree.push_leaf(4, U32Rec::new(1));
    }

    impl MergeTree<U32Rec> {
        fn on_worklist(&self, idx: usize) -> bool {
            self.active[idx / 64] >> (idx % 64) & 1 == 1
        }

        /// Node `idx`'s statistics with its arrears settled, classified
        /// as [`MergeTree::stats`] does.
        fn settled_stats(&self, idx: usize) -> bonsai_merge_hw::MergerStats {
            let node = &self.nodes[idx];
            let mut stats = node.step.stats();
            let due = self.tick_count - node.accounted;
            stats.cycles += due;
            if self.edges[idx].is_output_full() {
                stats.output_stalls += due;
            } else {
                stats.input_stalls += due;
            }
            stats
        }
    }

    /// Random leaf-push / root-pop scripts on the edge-ring tree and the
    /// heap-of-`KMerger`s oracle side by side, from one node to four
    /// worklist words: after every cycle the same `tick` return value,
    /// root output, tree statistics, per-node settled merger statistics,
    /// free space on every leaf port, worklist, freed-leaf set and
    /// drained verdict; at the end of each script (with `sanitize`) the
    /// same findings. After every `tick` the worklist also has to be
    /// *complete*: no node off it could make progress, and no child off
    /// it holds output its parent's side has room for.
    ///
    /// The scripts run three times: on the worklist schedule alone,
    /// where the worklist must also equal the oracle's; on the dense
    /// schedule alone; and switching freely, where each shape must
    /// enter and leave the dense schedule as a script's feed rate
    /// changes half way through.
    #[test]
    fn tick_matches_the_heap_of_mergers_oracle_on_random_scripts() {
        for pin in [Some(false), Some(true), None] {
            pin_schedule(pin);
            oracle_scripts(pin);
        }
        pin_schedule(None);
    }

    /// The oracle scripts with every tree held to `pin` (see
    /// [`pin_schedule`]).
    fn oracle_scripts(pin: Option<bool>) {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0x7EE5_0024);
        for (p, l, scripts, cycles) in [
            (4, 2, 12, 400),
            (4, 16, 12, 500),
            (8, 64, 8, 500),
            (32, 256, 6, 400),
        ] {
            let (mut idle_ticks, mut flushes, mut coupled_to_full) = (0u64, 0u64, 0u64);
            let mut switches = [0u64; 2];
            let mut reset_tree = None;
            for script in 0..scripts {
                let mut fast: MergeTree<U32Rec> = reset_tree
                    .take()
                    .unwrap_or_else(|| MergeTree::new(AmtConfig::new(p, l)));
                let mut model = reference::MergeTree::new(AmtConfig::new(p, l));
                // Per leaf: next key of the current run, records left in it.
                let mut runs = vec![(1u32, 0usize); l];
                // Scripts differ in how many leaves are fed at all, how
                // fast, and how often the root is popped: starved
                // subtrees, saturated ones and back-pressure from the top.
                let fed_leaves = [l, l, l / 2 + 1, 2][script % 4];
                let pop_every = [1, 1, 5, 23][script % 4];
                for cycle in 0..cycles {
                    let ctx = format!("{pin:?} AMT({p}, {l}) script {script} cycle {cycle}");
                    // Half way through, the feed rate changes: a busy
                    // tree goes silent, a quiet one busy.
                    let feed_pct = if 2 * cycle < cycles {
                        [100, 30, 60, 8]
                    } else {
                        [0, 60, 30, 100]
                    }[(script / 2) % 4];
                    for (leaf, (key, left_in_run)) in runs.iter_mut().enumerate().take(fed_leaves) {
                        if !rng.chance_percent(feed_pct) {
                            continue;
                        }
                        let recs: Vec<U32Rec> = (0..rng
                            .below_usize(fast.leaf_free(leaf).min(6) + 1))
                            .map(|_| {
                                if *left_in_run == 0 {
                                    *left_in_run = rng.below_usize(40);
                                    *key = 1;
                                    U32Rec::TERMINAL
                                } else {
                                    *left_in_run -= 1;
                                    *key += rng.below_u64(3) as u32;
                                    U32Rec::new(*key)
                                }
                            })
                            .collect();
                        if recs.len() == 1 {
                            fast.push_leaf(leaf, recs[0]);
                            model.push_leaf(leaf, recs[0]);
                        } else {
                            assert_eq!(fast.push_leaf_slice(leaf, &recs), recs.len(), "{ctx}");
                            assert_eq!(model.push_leaf_slice(leaf, &recs), recs.len(), "{ctx}");
                        }
                    }
                    let changed = fast.tick();
                    assert_eq!(changed, model.tick(), "{ctx}: changed");
                    idle_ticks += u64::from(!changed);
                    assert_eq!(fast.stats(), model.stats(), "{ctx}: tree stats");
                    assert_eq!(fast.root_flushes(), model.root_flushes(), "{ctx}: flushes");
                    match pin {
                        Some(false) => {
                            assert!(!fast.dense, "{ctx}: pinned to the worklist");
                            assert_eq!(fast.active, model.active(), "{ctx}: worklist");
                        }
                        Some(true) => assert!(fast.dense, "{ctx}: pinned dense"),
                        None => {}
                    }
                    assert_eq!(fast.freed_leaves(), model.freed_leaves(), "{ctx}: freed");
                    assert_eq!(fast.is_drained(), model.is_drained(), "{ctx}: drained");
                    for leaf in 0..l {
                        assert_eq!(
                            fast.leaf_free(leaf),
                            model.leaf_free(leaf),
                            "{ctx}: leaf {leaf}"
                        );
                    }
                    for idx in 0..fast.nodes.len() {
                        assert_eq!(
                            fast.settled_stats(idx),
                            model.settled_stats(idx),
                            "{ctx}: node {idx} stats"
                        );
                        if fast.on_worklist(idx) {
                            continue;
                        }
                        let (step, left, right, out) = fast.node_edges(idx);
                        assert!(
                            !step.can_make_progress(left, right, out),
                            "{ctx}: node {idx} left behind"
                        );
                        assert!(
                            out.output_len() == 0 || out.input_free() == 0,
                            "{ctx}: node {idx} holds output its parent has room for"
                        );
                        coupled_to_full += u64::from(idx > 0 && out.output_len() > 0);
                    }
                    if !changed {
                        assert!(fast.active.iter().all(|&w| w == 0), "{ctx}: quiescent");
                        if cycle % 3 == 0 {
                            let span = rng.below_u64(50);
                            fast.fast_forward(span);
                            model.fast_forward(span);
                        }
                    }
                    assert_eq!(fast.tick_count(), model.tick_count(), "{ctx}: clock");
                    if cycle % pop_every == 0 {
                        for _ in 0..rng.below_usize(2 * p + 2) {
                            assert_eq!(fast.pop_root(), model.pop_root(), "{ctx}: root output");
                        }
                    }
                    assert_eq!(fast.edges[0].output_len(), model.root_output_len(), "{ctx}");
                    if cycle % 7 == 0 {
                        for word in 0..l.div_ceil(64) {
                            assert_eq!(fast.take_freed_leaves(word), model.take_freed_leaves(word));
                        }
                    }
                }
                flushes += fast.stats().root_flushes;
                switches[0] += fast.switches[0];
                switches[1] += fast.switches[1];
                #[cfg(feature = "sanitize")]
                assert_eq!(
                    format!("{:?}", fast.sanitize_check()),
                    format!("{:?}", model.sanitize_check()),
                    "{pin:?} AMT({p}, {l}) script {script}: findings"
                );
                if script == 2 {
                    // A reset tree is a new one: the next script runs on it.
                    fast.reset();
                    assert_eq!(fast.stats(), TreeStats::default());
                    assert!(fast.is_drained() && fast.tick_count() == 0);
                    reset_tree = Some(fast);
                }
            }
            assert!(
                flushes > 0 && idle_ticks > 0,
                "{pin:?} AMT({p}, {l}): {flushes} flushes, {idle_ticks} idle ticks"
            );
            // A lone node has no parent to back-pressure it.
            assert!(
                l == 2 || coupled_to_full > 0,
                "{pin:?} AMT({p}, {l}): scripts must fill a parent's side of some edge"
            );
            if pin.is_none() {
                assert!(
                    switches[0] > 0 && switches[1] > 0,
                    "AMT({p}, {l}): the scripts must switch both ways, not {switches:?}"
                );
            }
        }
    }

    /// Every leaf port whose FIFO gained room is reported by
    /// `take_freed_leaves` before the next feed, across word boundaries.
    #[test]
    fn freed_leaves_cover_every_port_that_gained_room() {
        let mut rng = bonsai_rng::Rng::seed_from_u64(0xF4EE_0019);
        for l in [2usize, 16, 256] {
            let mut tree: MergeTree<U32Rec> = MergeTree::new(AmtConfig::new(4, l));
            let all: Vec<u64> = (0..l.div_ceil(64))
                .map(|w| tree.take_freed_leaves(w))
                .collect();
            assert_eq!(
                all.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
                l
            );
            let mut key = 1u32;
            for cycle in 0..600 {
                for leaf in 0..l {
                    if rng.chance_percent(40) && tree.leaf_free(leaf) > 0 {
                        let rec = if rng.chance_percent(10) {
                            U32Rec::TERMINAL
                        } else {
                            key += 1;
                            U32Rec::new(key)
                        };
                        tree.push_leaf(leaf, rec);
                    }
                }
                let before: Vec<usize> = (0..l).map(|leaf| tree.leaf_free(leaf)).collect();
                tree.tick();
                while tree.pop_root().is_some() {}
                let freed: Vec<u64> = (0..l.div_ceil(64))
                    .map(|w| tree.take_freed_leaves(w))
                    .collect();
                for leaf in 0..l {
                    if tree.leaf_free(leaf) > before[leaf] {
                        assert!(
                            freed[leaf / 64] >> (leaf % 64) & 1 == 1,
                            "l {l} cycle {cycle}: leaf {leaf} gained room unreported"
                        );
                    }
                }
            }
        }
    }

    /// Every node must account for every elapsed cycle, either in its
    /// settled `MergerStats` or as pending arrears — the conservation law
    /// behind the lazy worklist accounting.
    #[test]
    fn worklist_accounting_balances_every_cycle() {
        let config = AmtConfig::new(2, 8);
        let mut tree: MergeTree<U32Rec> = MergeTree::new(config);
        // Feed only two leaves so most of the tree is permanently
        // starved (deactivated, accruing arrears).
        let recs: Vec<U32Rec> = (1..=6).map(U32Rec::new).collect();
        tree.push_leaf_slice(0, &recs);
        tree.push_leaf(0, U32Rec::TERMINAL);
        tree.push_leaf(1, U32Rec::new(4));
        tree.push_leaf(1, U32Rec::TERMINAL);
        for t in 0..60u64 {
            tree.tick();
            if t % 3 == 0 {
                let _ = tree.pop_root();
            }
            let n = tree.nodes.len() as u64;
            let settled: u64 = tree.nodes.iter().map(|n| n.step.stats().cycles).sum();
            let arrears: u64 = tree
                .nodes
                .iter()
                .map(|n| tree.tick_count - n.accounted)
                .sum();
            assert_eq!(settled + arrears, tree.tick_count * n, "cycle {t}");
            assert_eq!(tree.tick_count(), t + 1);
        }
        // With nothing moving anymore the tree reports quiescence, and a
        // fast-forwarded span lands entirely in the stall counters.
        assert!(!tree.tick());
        let before = tree.stats();
        tree.fast_forward(1_000);
        let after = tree.stats();
        let extra_stalls = (after.total_input_stalls + after.total_output_stalls)
            - (before.total_input_stalls + before.total_output_stalls);
        assert_eq!(extra_stalls, 1_000 * tree.nodes.len() as u64);
        assert_eq!(after.root_records_out, before.root_records_out);
    }

    /// The worklist + arrears machinery must be invisible in the stats:
    /// a 1-node tree driven with idle gaps and output back-pressure has
    /// to report exactly what an always-ticked standalone merger does.
    #[test]
    fn single_node_tree_stats_match_always_ticked_merger() {
        let config = AmtConfig::new(4, 2);
        let mut tree: MergeTree<U32Rec> = MergeTree::new(config);
        // Same width and FIFO capacity as the tree's single node.
        let mut reference: KMerger<U32Rec> = KMerger::new(4, 32);

        let mut left: Vec<U32Rec> = Vec::new();
        let mut right: Vec<U32Rec> = Vec::new();
        for run in 0..3 {
            for v in 0..10u32 {
                left.push(U32Rec::new(100 * run + 2 * v + 1));
                right.push(U32Rec::new(100 * run + 2 * v + 2));
            }
            left.push(U32Rec::TERMINAL);
            right.push(U32Rec::TERMINAL);
        }
        let (mut lp, mut rp) = (0, 0);
        let mut tree_out = Vec::new();
        let mut ref_out = Vec::new();
        for t in 0..400u64 {
            // Bursty feed: several idle windows, then a few records.
            if t % 13 < 2 {
                let n = tree.leaf_free(0).min(3).min(left.len() - lp);
                for rec in &left[lp..lp + n] {
                    tree.push_leaf(0, *rec);
                    reference.push_left(*rec).unwrap();
                }
                lp += n;
                let n = tree.leaf_free(1).min(2).min(right.len() - rp);
                for rec in &right[rp..rp + n] {
                    tree.push_leaf(1, *rec);
                    reference.push_right(*rec).unwrap();
                }
                rp += n;
            }
            tree.tick();
            reference.tick();
            // Pop rarely so output back-pressure windows occur.
            if t % 9 == 0 {
                while let Some(r) = tree.pop_root() {
                    tree_out.push(r);
                }
                while let Some(r) = reference.pop_output() {
                    ref_out.push(r);
                }
            }
        }
        assert_eq!(tree_out, ref_out);
        assert_eq!(lp, left.len(), "feed script must finish");
        // Virtual (stats) view and the always-ticked reference agree.
        let stats = tree.stats();
        let want = reference.stats();
        assert_eq!(stats.root_records_out, want.records_out);
        assert_eq!(stats.root_flushes, want.flushes);
        assert_eq!(stats.total_input_stalls, want.input_stalls);
        assert_eq!(stats.total_output_stalls, want.output_stalls);
        // And settling for real matches too.
        tree.wake(0, tree.tick_count);
        assert_eq!(tree.nodes[0].step.stats(), want);
    }

    /// A leaf run that (against the contract) descends is merged out of
    /// order by its leaf merger and again by the root above it: each must
    /// flag it (BON102) and — having been handed every record, by a leaf
    /// push or by its coupler — count them all (no false BON103).
    #[cfg(feature = "sanitize")]
    #[test]
    fn coupling_feeds_the_parent_probes() {
        use bonsai_check::codes;
        let mut tree: MergeTree<U32Rec> = MergeTree::new(AmtConfig::new(2, 4));
        let run = [U32Rec::new(9), U32Rec::new(1), U32Rec::TERMINAL];
        assert_eq!(tree.push_leaf_slice(0, &run), 3);
        for leaf in 1..4 {
            tree.push_leaf(leaf, U32Rec::TERMINAL);
        }
        let mut out = Vec::new();
        for _ in 0..16 {
            tree.tick();
            while let Some(r) = tree.pop_root() {
                out.push(r);
            }
        }
        assert!(tree.is_drained());
        assert_eq!(out, run);
        assert_eq!(tree.stats().root_records_out, 2);
        let diagnostics = tree.sanitize_check();
        let found: Vec<(&str, &str)> = diagnostics
            .iter()
            .map(|d| {
                let node = d.context.iter().find(|(name, _)| *name == "node");
                (d.code, node.map_or("", |(_, v)| v.as_str()))
            })
            .collect();
        assert_eq!(
            found,
            [
                (codes::SAN_OUT_OF_ORDER, "0"),
                (codes::SAN_OUT_OF_ORDER, "1")
            ],
            "exactly the order probe, at the root and at leaf 0's merger"
        );
    }
}
