//! The host merge kernel: a branch-light software loser tree.
//!
//! The AMT is a tournament of comparators in silicon; the loser tree is
//! its software analogue, with one comparison path of length `log₂ k`
//! per output record. It is the only k-way merge in the workspace:
//! [`crate::functional`] runs every merge stage through
//! [`LoserTree::merge_into`], and the external sorter drives the same
//! tournament over file readers with [`LoserTree::replace_winner`].
//!
//! Internal nodes hold loser *run indices* and the runs' current heads
//! sit in one flat array. An exhausted run's head is a sentinel no live
//! head exceeds, so a match is one `<` and three selects: no `Option`,
//! no empty-node test, and no tie-break, because records that compare
//! equal are bit-identical (`Ord` and `Eq` are derived on every
//! [`Record`]). DESIGN.md §4, "Host merge kernel and the host sort",
//! gives the design; `bonsai-benchmark` times the kernel
//! (`amt.loser_tree.kway_ns_per_record.*`).

use bonsai_records::Record;

/// A tournament over the head records of `k` sorted runs.
///
/// `H` is the head type: a [`Record`] for in-memory merging, or any
/// `Ord + Copy` key the caller refills itself.
///
/// # Example
///
/// ```
/// use bonsai_amt::LoserTree;
/// use bonsai_records::U32Rec;
///
/// let a = [1u32, 4].map(U32Rec::new);
/// let b = [2u32, 3].map(U32Rec::new);
/// let c = [5u32].map(U32Rec::new);
/// let mut merged = [U32Rec::new(0); 5];
/// LoserTree::default().merge_into(&mut [&a[..], &b[..], &c[..]], &mut merged);
/// assert_eq!(merged, [1u32, 2, 3, 4, 5].map(U32Rec::new));
/// ```
#[derive(Debug, Clone)]
pub struct LoserTree<H> {
    /// `heads[i]` is the current head of run `i`; slots past the last
    /// run hold the sentinel. The length is a power of two.
    heads: Vec<H>,
    /// `tree[0]` is the winning run, `tree[n]` for `1 ≤ n < width` the
    /// loser of the match at node `n`, and `tree[width + i] = i` the
    /// leaves [`LoserTree::reset`] plays from.
    tree: Vec<u32>,
}

impl<H> Default for LoserTree<H> {
    /// An empty tournament; [`LoserTree::reset`] sizes it.
    fn default() -> Self {
        Self {
            heads: Vec::new(),
            tree: Vec::new(),
        }
    }
}

impl<H: Ord + Copy> LoserTree<H> {
    /// Starts a tournament over `heads` (one per run) and plays every
    /// match. `sentinel` pads the leaves up to a power of two and must
    /// not compare less than any head.
    pub fn reset(&mut self, heads: impl IntoIterator<Item = H>, sentinel: H) {
        self.heads.clear();
        self.heads.extend(heads);
        let width = self.heads.len().next_power_of_two();
        self.heads.resize(width, sentinel);
        self.tree.clear();
        self.tree.resize(width, 0);
        self.tree.extend(0..width as u32);
        // Bottom-up, every node first holds the winner of its subtree…
        for n in (1..width).rev() {
            let (a, b) = (self.tree[2 * n], self.tree[2 * n + 1]);
            let b_wins = self.heads[b as usize] < self.heads[a as usize];
            self.tree[n] = if b_wins { b } else { a };
        }
        // …then top-down, the child winner that did not win stays as
        // the loser (the children are still winners: 2n > n).
        self.tree[0] = self.tree[1];
        for n in 1..width {
            self.tree[n] ^= self.tree[2 * n] ^ self.tree[2 * n + 1];
        }
    }

    /// Index of the run whose head is the smallest.
    #[inline]
    pub fn winner(&self) -> usize {
        self.tree[0] as usize
    }

    /// The smallest head.
    #[inline]
    pub fn head(&self) -> H {
        self.heads[self.winner()]
    }

    /// Replaces the winning run's head with `head` (its next record, or
    /// the sentinel once it is exhausted) and replays its path.
    #[inline]
    pub fn replace_winner(&mut self, head: H) {
        let width = self.heads.len();
        let (tree, heads) = (&mut self.tree[..width], &mut self.heads[..]);
        let mut cand = tree[0];
        let mut cand_head = head;
        heads[cand as usize] = head;
        let mut node = (cand as usize + width) >> 1;
        while node > 0 {
            let t = tree[node];
            let t_head = heads[t as usize];
            let lose = t_head < cand_head;
            tree[node] = if lose { cand } else { t };
            cand = if lose { t } else { cand };
            cand_head = if lose { t_head } else { cand_head };
            node >>= 1;
        }
        tree[0] = cand;
    }
}

impl<R: Record> LoserTree<R> {
    /// Merges the sorted `runs` into `out`, advancing the `runs` slices
    /// as cursors (their final state is unspecified). An exhausted run's
    /// head is `R::MAX`; since exactly `out.len()` records are emitted,
    /// that sentinel winning a tie with real `MAX` records still writes
    /// the right record.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the total length of `runs`.
    pub fn merge_into(&mut self, runs: &mut [&[R]], out: &mut [R]) {
        let total: usize = runs.iter().map(|r| r.len()).sum();
        assert_eq!(out.len(), total, "output must hold every input record");
        match runs {
            [] => {}
            [a] => out.copy_from_slice(a),
            [a, b] => merge_two(a, b, out),
            _ => {
                self.reset(runs.iter_mut().map(pop_head), R::MAX);
                for slot in out {
                    *slot = self.head();
                    let next = pop_head(&mut runs[self.winner()]);
                    self.replace_winner(next);
                }
            }
        }
    }
}

/// Takes the first record off `run`, or `R::MAX` when none is left.
#[inline]
fn pop_head<R: Record>(run: &mut &[R]) -> R {
    run.split_first().map_or(R::MAX, |(&head, rest)| {
        *run = rest;
        head
    })
}

/// Two-pointer merge whose only data-dependent step is a select.
fn merge_two<R: Record>(a: &[R], b: &[R], out: &mut [R]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let take_b = b[j] < a[i];
        out[i + j] = if take_b { b[j] } else { a[i] };
        i += usize::from(!take_b);
        j += usize::from(take_b);
    }
    let (tail_a, tail_b) = (&a[i..], &b[j..]);
    out[i + j..][..tail_a.len()].copy_from_slice(tail_a);
    out[i + j + tail_a.len()..].copy_from_slice(tail_b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::kway_merge;
    use bonsai_records::{KvRec, Packed16, U128Rec, U32Rec, U64Rec, W256Rec, W512Rec};
    use bonsai_rng::Rng;

    /// Sorts each run, merges them with the kernel, and compares with
    /// `sort_unstable` over the concatenation — the only oracle.
    fn check<R: Record>(mut runs: Vec<Vec<R>>) {
        for run in &mut runs {
            run.sort_unstable();
        }
        let mut expected: Vec<R> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();
        let views: Vec<&[R]> = runs.iter().map(Vec::as_slice).collect();
        assert_eq!(kway_merge(&views), expected, "k = {}", runs.len());
    }

    /// One run per entry of `lens`, records drawn from `keys` distinct
    /// values so duplicates across runs are common.
    fn random_runs<R>(
        rng: &mut Rng,
        lens: &[usize],
        keys: u64,
        make: impl Fn(u64) -> R,
    ) -> Vec<Vec<R>> {
        lens.iter()
            .map(|&len| (0..len).map(|_| make(rng.below_u64(keys))).collect())
            .collect()
    }

    fn u32rec(v: u64) -> U32Rec {
        U32Rec::new(v as u32 + 1)
    }

    #[test]
    fn every_fan_in_matches_sort_unstable() {
        let mut rng = Rng::seed_from_u64(0x1057_0001);
        for k in [0usize, 1, 2, 3, 5, 16, 17, 255, 256, 257] {
            let lens: Vec<usize> = (0..k).map(|_| rng.below_usize(40)).collect();
            check(random_runs(&mut rng, &lens, 1 << 20, u32rec));
        }
    }

    #[test]
    fn empty_runs_at_the_front_middle_and_end() {
        let mut rng = Rng::seed_from_u64(0x1057_0002);
        for lens in [
            &[0usize, 0, 5, 0, 7, 0, 0][..],
            &[0, 9],
            &[9, 0],
            &[0, 0],
            &[0],
            &[0, 0, 0],
            &[3, 0, 0, 0, 0],
        ] {
            check(random_runs(&mut rng, lens, 100, u32rec));
        }
    }

    #[test]
    fn wildly_uneven_run_lengths() {
        let mut rng = Rng::seed_from_u64(0x1057_0003);
        check(random_runs(
            &mut rng,
            &[10_000, 1, 0, 3, 2_000, 1],
            5_000,
            u32rec,
        ));
        check(random_runs(&mut rng, &[1, 5_000], 5_000, u32rec));
    }

    #[test]
    fn all_equal_keys() {
        for k in [2usize, 5, 16] {
            check(vec![vec![U32Rec::new(7); 50]; k]);
        }
    }

    #[test]
    fn max_records_tie_with_the_exhausted_sentinel() {
        let max = U32Rec::MAX;
        let rec = U32Rec::new;
        // Short runs drain first; the long ones still hold real MAX
        // records that then tie with the drained runs' sentinel heads.
        check(vec![
            vec![rec(1), max, max, max],
            vec![rec(2)],
            vec![],
            vec![max],
            vec![rec(3), rec(4)],
        ]);
        check(vec![vec![max; 9], vec![rec(5)], vec![max; 2]]);
        check(vec![vec![max; 4], vec![rec(5)]]);
        check(vec![vec![max; 3]; 17]);
    }

    #[test]
    fn every_record_type() {
        // Draw 0 maps to MAX so every type also meets the sentinel tie.
        fn typed<R: Record>(make: fn(u64) -> R) {
            let mut rng = Rng::seed_from_u64(0x1057_0004);
            let make = |v| if v == 0 { R::MAX } else { make(v) };
            for lens in [&[30usize, 0, 12, 45, 7][..], &[20, 33], &[64; 16]] {
                check(random_runs(&mut rng, lens, 24, make));
            }
        }
        typed(|v| U32Rec::new(v as u32));
        typed(|v| U64Rec::new(v << 40));
        typed(|v| U128Rec::new(u128::from(v) << 90));
        typed(|v| KvRec::new(v / 4, v % 4));
        typed(|v| Packed16::from_parts(u128::from(v / 4) << 70, v % 4));
        typed(|v| W256Rec::new([v / 8, 0, v % 2, v % 8]));
        typed(|v| W512Rec::new([1, v / 8, 0, 0, v % 2, 0, 0, v % 8]));
    }

    #[test]
    fn one_tree_is_reusable_across_fan_ins() {
        let mut rng = Rng::seed_from_u64(0x1057_0005);
        let mut tree = LoserTree::default();
        for k in [17usize, 3, 256, 4, 1, 40] {
            let mut runs = random_runs(&mut rng, &vec![25; k], 1 << 16, u32rec);
            for run in &mut runs {
                run.sort_unstable();
            }
            let mut expected: Vec<U32Rec> = runs.iter().flatten().copied().collect();
            expected.sort_unstable();
            let mut views: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
            let mut out = vec![U32Rec::MAX; expected.len()];
            tree.merge_into(&mut views, &mut out);
            assert_eq!(out, expected, "k = {k}");
        }
    }

    #[test]
    fn streaming_form_with_exhaustion_flag_heads() {
        // The external sorter's use: the caller refills heads itself and
        // `(exhausted, key)` keeps drained runs behind live MAX keys.
        let runs: [&[u32]; 4] = [&[3, u32::MAX, u32::MAX], &[], &[1, 2], &[u32::MAX]];
        let mut cursors = runs.map(|run| run.iter().copied());
        let mut next = |i: usize| cursors[i].next().map_or((true, u32::MAX), |v| (false, v));
        let mut tree = LoserTree::default();
        tree.reset((0..runs.len()).map(&mut next), (true, u32::MAX));
        let mut out = Vec::new();
        while let (false, v) = tree.head() {
            out.push(v);
            tree.replace_winner(next(tree.winner()));
        }
        assert_eq!(out, [1, 2, 3, u32::MAX, u32::MAX, u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "output must hold every input record")]
    fn merge_into_rejects_a_short_output() {
        let run = [U32Rec::new(1), U32Rec::new(2)];
        LoserTree::default().merge_into(&mut [&run[..], &run[..], &run[..]], &mut [U32Rec::MAX; 5]);
    }
}
