//! The merge tree: a heap-ordered array of cycle-level mergers.

use bonsai_merge_hw::{KMerger, Side};
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
/// whose coupler moves nothing) is *deactivated* and skipped until an
/// event that could unblock it — input pushed ([`MergeTree::push_leaf`]),
/// root output popped ([`MergeTree::pop_root`]), its coupler delivering
/// into the parent, or its parent consuming input (which frees coupler
/// space). Skipped cycles are still accounted: each node carries an
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
    /// Number of nodes on the worklist.
    active_count: usize,
}

/// One merger with its worklist bookkeeping, kept together so a tick
/// touches one slot per node.
#[derive(Debug, Clone)]
struct Node<R> {
    merger: KMerger<R>,
    /// Tree ticks already reflected in the merger's `MergerStats`;
    /// `tick_count - accounted` is the node's stall arrears.
    accounted: u64,
    /// Worklist membership: only active nodes are ticked.
    active: bool,
}

impl<R: Record> Node<R> {
    /// Settles the node's stall arrears up to `now` completed ticks, so
    /// its stats reflect every one of them. Must be called before any
    /// mutation that could change the node's stall classification
    /// (popping its output).
    #[inline]
    fn settle(&mut self, now: u64) {
        if self.accounted < now {
            self.merger.add_stalled_cycles(now - self.accounted);
            self.accounted = now;
        }
    }

    /// Settles arrears and puts the node back on the worklist; returns
    /// how many nodes that added to it (0 or 1).
    #[inline]
    fn wake(&mut self, now: u64) -> usize {
        self.settle(now);
        usize::from(!std::mem::replace(&mut self.active, true))
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
                    active: true,
                });
            }
        }
        let first_leaf_node = (config.l / 2) - 1;
        let active_count = nodes.len();
        Self {
            config,
            nodes,
            first_leaf_node,
            tick_count: 0,
            active_count,
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

    /// Pushes one record (payload or terminal) into leaf `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if the leaf FIFO is full — call [`MergeTree::leaf_free`]
    /// first.
    pub fn push_leaf(&mut self, leaf: usize, rec: R) {
        let (node, side) = self.leaf_port(leaf);
        let node = &mut self.nodes[node];
        self.active_count += node.wake(self.tick_count);
        node.merger
            .push_input(side, rec)
            .unwrap_or_else(|_| panic!("leaf {leaf} FIFO overflow"));
    }

    /// Pushes as many records from `recs` as fit into leaf `leaf`, in
    /// order, and returns how many were accepted — the bulk counterpart
    /// of [`MergeTree::push_leaf`] for batched leaf feeding.
    pub fn push_leaf_slice(&mut self, leaf: usize, recs: &[R]) -> usize {
        if recs.is_empty() {
            return 0;
        }
        let (node, side) = self.leaf_port(leaf);
        let node = &mut self.nodes[node];
        self.active_count += node.wake(self.tick_count);
        node.merger.push_input_slice(side, recs)
    }

    /// Pops the next root output record, if any.
    pub fn pop_root(&mut self) -> Option<R> {
        let root = &mut self.nodes[0];
        if root.merger.output_len() == 0 {
            return None;
        }
        // Settle before the pop (inside `wake`): removing output can
        // flip the root's stall class from output- to input-stalled.
        self.active_count += root.wake(self.tick_count);
        let rec = root.merger.pop_output();
        debug_assert!(rec.is_some(), "output_len promised a record");
        rec
    }

    /// Records currently queued at the root output.
    pub fn root_output_len(&self) -> usize {
        self.nodes[0].merger.output_len()
    }

    /// Advances the whole tree one cycle: mergers tick deepest level
    /// first, each level's output moving straight into its parent's input
    /// FIFO (the couplers), so the root sees this cycle's production —
    /// modeling the fully pipelined hardware datapath.
    ///
    /// Only active (worklist) nodes are ticked; skipped nodes' stall
    /// cycles accrue as arrears (see the type-level docs). Returns `true`
    /// when any merger or coupler changed state this cycle. A `false`
    /// return is stable: with no external push or pop, every future tick
    /// is also a no-op, so the caller may [`MergeTree::fast_forward`].
    pub fn tick(&mut self) -> bool {
        let now = self.tick_count;
        self.tick_count = now + 1;
        if self.active_count == 0 {
            return false;
        }
        let mut tree_changed = false;
        for node_idx in (0..self.nodes.len()).rev() {
            let (below, rest) = self.nodes.split_at_mut(node_idx);
            let Some((node, above)) = rest.split_first_mut() else {
                break;
            };
            if !node.active {
                continue;
            }
            // A node woken mid-previous-tick may still owe one stall
            // cycle; settle before ticking so stats stay exact.
            node.settle(now);
            let node_changed = node.merger.tick();
            node.accounted = now + 1;

            let mut coupler_moved = false;
            if node_idx > 0 {
                let parent = &mut below[(node_idx - 1) / 2];
                let side = if node_idx % 2 == 1 {
                    Side::Left
                } else {
                    Side::Right
                };
                if node.merger.output_len() > 0 && parent.merger.input_free(side) > 0 {
                    // The parent's input is about to change: settle its
                    // arrears and put it on the worklist (it sits at a
                    // lower index, so it still ticks later this cycle —
                    // same order the always-tick schedule sees).
                    self.active_count += parent.wake(now);
                    coupler_moved = node.merger.couple_into(&mut parent.merger, side) > 0;
                }
            }

            if node_changed || coupler_moved {
                tree_changed = true;
                // The node consumed input and/or drained output, so its
                // children (heap slots 2i+1 and 2i+2, i.e. `above[i..]`)
                // may have coupler space again next cycle.
                if let Some(children) = above.get_mut(node_idx..node_idx + 2) {
                    for child in children {
                        self.active_count += child.wake(now);
                    }
                }
            } else {
                // Pure stall (already recorded by its own tick): freeze
                // the node until an external event can unblock it.
                node.active = false;
                self.active_count -= 1;
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
        debug_assert_eq!(
            self.active_count, 0,
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

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_records::U32Rec;

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
            let settled: u64 = tree.nodes.iter().map(|n| n.merger.stats().cycles).sum();
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
        tree.nodes[0].settle(tree.tick_count);
        assert_eq!(tree.nodes[0].merger.stats(), want);
    }
}
