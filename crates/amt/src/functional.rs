//! Fast functional execution of the AMT merge schedule.
//!
//! The cycle-approximate [`SimEngine`](crate::SimEngine) is the reference
//! for timing; this module executes the *same* merge schedule (presort,
//! then `ceil(log_ℓ)` stages of `ℓ`-way merges) on the host, producing
//! bit-identical output orders of magnitude faster, on every core:
//!
//! - **Presort.** Runs of 2 to 64 records, the presorter's sizes
//!   (§VI-C1), go through the paper's bitonic network
//!   ([`bonsai_bitonic::Presorter`], one compare and two selects per CAS
//!   unit); longer initial runs (the HBM and SSD sorters' DRAM-sized
//!   phase-one chunks) go through `sort_unstable`. The chunks are spread
//!   over the workers in contiguous blocks.
//! - **Stages.** A merge stage is a list of tasks, each some run slices
//!   and the disjoint `&mut` output range they fill, spread by
//!   `map_pass` over the calling thread and one scoped
//!   helper per further core, every worker with its own [`LoserTree`].
//!   A group is one task unless its output exceeds `n / workers`
//!   records (the last stage of a sort is one group of all `n`); then it
//!   is cut by output rank, a co-rank telling each piece where every run
//!   splits, so that the pieces merge side by side into consecutive
//!   slices of the output — the split FLiMS (arXiv 2112.05607) makes
//!   inside its merger. Ties may split either way because equal records
//!   are bit-identical.
//!
//! A sort ping-pongs between its input buffer and a single scratch
//! buffer, every task writing its range in place, so the output is the
//! same at every worker count and one worker spawns nothing. A sort
//! takes at most one worker per 16 384 records, so a small one runs on
//! the calling thread alone. The sorters crate uses it for
//! gigabyte-scale data and pairs it with the analytic performance model
//! for timing.

use core::ops::Range;
use std::sync::Mutex;

use bonsai_bitonic::Presorter;
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::loser_tree::LoserTree;

/// The widest presorter: runs up to this long go through the bitonic
/// network, longer ones through `sort_unstable`.
const MAX_PRESORTER: usize = 64;

/// The fewest records that earn a worker of their own. A helper's spawn
/// and join cost tens of microseconds, the time it takes to merge a few
/// thousand records, so a sort takes at most one worker per this many
/// records and a small one stays on the calling thread.
const MIN_SHARE: usize = 1 << 14;

/// One loser tree per worker for a sort of `records` records: `workers`
/// of them (`0` = one per core), but at most one per [`MIN_SHARE`]
/// records and at least one. A sort of at most `MIN_SHARE` records does
/// not ask for the core count: that reads the cgroup limits, which can
/// take a fair share of a small sort's time.
fn trees_for<R: Record>(records: usize, workers: usize) -> Vec<LoserTree<R>> {
    let most = records.div_ceil(MIN_SHARE);
    let workers = match workers {
        _ if most <= 1 => 1,
        0 => std::thread::available_parallelism().map_or(1, |cores| cores.get().min(most)),
        workers => workers.min(most),
    };
    (0..workers).map(|_| LoserTree::default()).collect()
}

/// Runs `task(scratch, item)` once for every item of `items`. An item
/// is whatever a task owns: a block of presort chunks, or a merge
/// task's runs and the `&mut` output range they fill. There is one
/// worker per `scratch` element, each handed only its own: the calling
/// thread is worker 0, and `min(scratch.len(), items) − 1` scoped
/// threads are the rest, every worker taking the next unclaimed item
/// from one shared iterator. One worker spawns nothing.
///
/// # Panics
///
/// Panics if `scratch` is empty. A panicking task is re-raised with
/// its own payload once every thread has joined.
fn map_pass<W, T, I, F>(scratch: &mut [W], items: I, task: F)
where
    W: Send,
    I: IntoIterator<Item = T>,
    I::IntoIter: ExactSizeIterator + Send,
    F: Fn(&mut W, T) + Sync,
{
    let items = items.into_iter();
    let threads = scratch.len().min(items.len()).max(1);
    let (caller, helpers) = scratch.split_first_mut().expect("a pass needs a worker");
    // The lock is held only to take the next item; the task runs
    // outside it, so a panicking task cannot poison it.
    let next = Mutex::new(items);
    let work = |scratch: &mut W| loop {
        let claimed = next.lock().expect("taking an item never panics").next();
        let Some(item) = claimed else {
            return;
        };
        task(scratch, item);
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = helpers[..threads - 1]
            .iter_mut()
            .map(|scratch| s.spawn(|| work(scratch)))
            .collect();
        // A panic here is re-raised by `scope` after it joins the rest.
        work(caller);
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Merges `k` sorted runs into one sorted vector (the [`LoserTree`]
/// kernel behind a `Vec`-returning signature; also exported as
/// [`crate::loser_tree_merge`]).
///
/// # Example
///
/// ```
/// use bonsai_amt::functional::kway_merge;
/// use bonsai_records::U32Rec;
///
/// let a = [1u32, 4].map(U32Rec::new);
/// let b = [2u32, 3].map(U32Rec::new);
/// let merged = kway_merge(&[&a, &b]);
/// assert_eq!(merged, [1u32, 2, 3, 4].map(U32Rec::new).to_vec());
/// ```
pub fn kway_merge<R: Record>(runs: &[&[R]]) -> Vec<R> {
    let mut out = vec![R::MAX; runs.iter().map(|r| r.len()).sum()];
    LoserTree::default().merge_into(&mut runs.to_vec(), &mut out);
    out
}

/// Cuts the sorted `runs` at output rank `rank` of their merge: one cut
/// per run, the cuts summing to `rank`, such that every record left of
/// the cuts is `≤` every record right of them.
///
/// Multi-sequence selection. Each run's cut lies in a window `[lo, hi)`,
/// and every round narrows all windows by one pivot: the weighted median
/// of the windows' middle records, weighted by window length, so that
/// at least a quarter of what the windows hold is on each side of it
/// and a round discards that quarter. Every pivot lies strictly between
/// the pivots that set the windows, so a binary search inside a window
/// counts the run's records below the pivot exactly.
///
/// # Panics
///
/// Panics if `rank` exceeds the runs' total length.
pub(crate) fn co_rank<R: Record>(runs: &[&[R]], rank: usize) -> Vec<usize> {
    let mut lo = vec![0; runs.len()];
    let mut hi: Vec<usize> = runs.iter().map(|run| run.len()).collect();
    // `Σ lo` and `Σ hi`: the cuts' sum lies between them.
    let (mut below, mut above) = (0, hi.iter().sum::<usize>());
    assert!(rank <= above, "rank {rank} beyond {above} records");
    let (mut lt, mut le) = (lo.clone(), hi.clone());
    let mut middles: Vec<(R, usize)> = Vec::with_capacity(runs.len());
    loop {
        if rank == below {
            return lo;
        }
        if rank == above {
            return hi;
        }
        middles.clear();
        for (run, (&l, &h)) in runs.iter().zip(lo.iter().zip(&hi)) {
            if l < h {
                middles.push((run[(l + h) / 2], h - l));
            }
        }
        middles.sort_unstable_by_key(|&(middle, _)| middle);
        let mut weight = 0;
        let (pivot, _) = *middles
            .iter()
            .find(|&&(_, w)| {
                weight += w;
                2 * weight > above - below
            })
            .expect("the windows hold records while below < rank < above");
        let (mut less, mut most) = (0, 0);
        for (i, run) in runs.iter().enumerate() {
            let window = &run[lo[i]..hi[i]];
            let below_pivot = window.partition_point(|r| *r < pivot);
            let equal = &window[below_pivot..];
            // Most runs hold no record equal to the pivot.
            let equal = match equal.first() {
                Some(&first) if first == pivot => equal.partition_point(|r| *r <= pivot),
                _ => 0,
            };
            lt[i] = lo[i] + below_pivot;
            le[i] = lt[i] + equal;
            less += lt[i];
            most += le[i];
        }
        if rank < less {
            core::mem::swap(&mut hi, &mut lt);
            above = less;
        } else if rank > most {
            core::mem::swap(&mut lo, &mut le);
            below = most;
        } else {
            // The cut falls among the records equal to the pivot: take
            // them run by run until the rank is met.
            let mut spare = rank - less;
            for (cut, &end) in lt.iter_mut().zip(&le) {
                let take = spare.min(end - *cut);
                *cut += take;
                spare -= take;
            }
            return lt;
        }
    }
}

/// One merge task: output ranks `ranks` of the group merging `runs`
/// (all of them if `None`), written to `out`.
struct MergeTask<'s, 'd, R> {
    runs: &'s [&'s [R]],
    ranks: Option<Range<usize>>,
    out: &'d mut [R],
}

impl<'s, R: Record> MergeTask<'s, '_, R> {
    /// Merges on `tree`, with `cursors` (the worker's) holding the
    /// task's slice of every run.
    fn run(self, tree: &mut LoserTree<R>, cursors: &mut Vec<&'s [R]>) {
        cursors.clear();
        match self.ranks {
            None => cursors.extend_from_slice(self.runs),
            Some(ranks) => {
                let (from, to) = (
                    co_rank(self.runs, ranks.start),
                    co_rank(self.runs, ranks.end),
                );
                let cuts = from.into_iter().zip(to);
                cursors.extend(self.runs.iter().zip(cuts).map(|(run, (a, b))| &run[a..b]));
            }
        }
        tree.merge_into(cursors, self.out);
    }
}

/// Merges every group of `fan_in` consecutive runs of `src` (run `i`
/// starts at `starts[i]`) into the same address range of `dst`, the
/// groups spread as tasks over one worker per tree, and returns the
/// merged runs' starts.
fn merge_stage<R: Record>(
    trees: &mut [LoserTree<R>],
    src: &[R],
    starts: &[usize],
    fan_in: usize,
    dst: &mut [R],
) -> Vec<usize> {
    assert!(fan_in >= 2, "merge fan-in must be at least 2");
    let ends = starts.iter().skip(1).copied().chain([src.len()]);
    let runs: Vec<&[R]> = starts.iter().zip(ends).map(|(&s, e)| &src[s..e]).collect();
    // A group wider than one worker's share is cut into pieces by rank.
    let share = src.len().div_ceil(trees.len()).max(1);
    let mut tasks = Vec::with_capacity(runs.len().div_ceil(fan_in) + trees.len());
    let mut rest = dst;
    for group in runs.chunks(fan_in) {
        let len: usize = group.iter().map(|run| run.len()).sum();
        let pieces = len.div_ceil(share);
        for piece in 0..pieces {
            let ranks = len * piece / pieces..len * (piece + 1) / pieces;
            let (out, tail) = core::mem::take(&mut rest).split_at_mut(ranks.len());
            rest = tail;
            let ranks = (pieces > 1).then_some(ranks);
            tasks.push(MergeTask {
                runs: group,
                ranks,
                out,
            });
        }
    }
    let mut workers: Vec<_> = trees.iter_mut().map(|tree| (tree, Vec::new())).collect();
    map_pass(&mut workers, tasks, |(tree, cursors), task| {
        task.run(tree, cursors);
    });
    starts.iter().copied().step_by(fan_in).collect()
}

/// Sorts every consecutive `run_len`-record chunk of `data`: through
/// the paper's presorter at its sizes, through `sort_unstable` at any
/// other length. The chunks go in contiguous blocks of whole runs, one
/// block per `workers` element.
///
/// # Panics
///
/// Panics if `run_len == 0`.
fn presort<W: Send, R: Record>(workers: &mut [W], data: &mut [R], run_len: usize) {
    assert!(run_len > 0, "chunk length must be positive");
    if run_len == 1 {
        return;
    }
    let network =
        (run_len.is_power_of_two() && run_len <= MAX_PRESORTER).then(|| Presorter::new(run_len));
    let block = data.len().div_ceil(run_len).div_ceil(workers.len()).max(1) * run_len;
    map_pass(workers, data.chunks_mut(block), |_, block| match &network {
        Some(network) => network.presort(block),
        None => block.chunks_mut(run_len).for_each(<[R]>::sort_unstable),
    });
}

/// Splits `records` into `run_len`-record runs (the last may be
/// shorter) and sorts each on the calling thread — what
/// [`RunSet::from_chunks`] does, through the presorter at its sizes.
/// Both simulator loops (`dag::sort` and [`crate::UnrolledSim`])
/// presort through it.
///
/// # Panics
///
/// Panics if `run_len == 0`.
pub(crate) fn presorted_runs<R: Record>(mut records: Vec<R>, run_len: usize) -> RunSet<R> {
    presort(&mut [()], &mut records, run_len);
    let starts = (0..records.len()).step_by(run_len).collect();
    RunSet::from_parts(records, starts)
}

/// Presorts `data` into `run_len`-record runs, then runs merge stages
/// until one run remains or `fan_ins` ends, stage `i` merging groups of
/// the `i`-th fan-in; every step is spread over up to `workers` threads
/// (`0` = one per core; the caller is one; see [`MIN_SHARE`]), with one
/// [`LoserTree`] each
/// and one scratch buffer for the sort. Returns the records and the
/// number of stages executed.
///
/// # Panics
///
/// Panics if `run_len == 0` or a fan-in is below 2.
pub(crate) fn sort_on<R: Record>(
    mut data: Vec<R>,
    run_len: usize,
    fan_ins: impl IntoIterator<Item = usize>,
    workers: usize,
) -> (Vec<R>, u32) {
    let mut trees = trees_for(data.len(), workers);
    presort(&mut trees, &mut data, run_len);
    let mut starts: Vec<usize> = (0..data.len()).step_by(run_len).collect();
    let (mut src, mut dst) = (data, Vec::new());
    let mut stages = 0u32;
    for fan_in in fan_ins {
        if starts.len() <= 1 {
            break;
        }
        dst.resize(src.len(), R::MAX); // allocates in the first stage only
        starts = merge_stage(&mut trees, &src, &starts, fan_in, &mut dst);
        core::mem::swap(&mut src, &mut dst);
        stages += 1;
    }
    (src, stages)
}

/// [`sort_balanced`] on up to `workers` threads (`0` = one per core).
pub(crate) fn sort_balanced_on<R: Record>(
    data: Vec<R>,
    l: usize,
    initial_run_len: usize,
    workers: usize,
) -> (Vec<R>, u32) {
    let runs = data.len().div_ceil(initial_run_len);
    let fan_ins = crate::schedule::fan_in_schedule(runs as u64, l as u64);
    let fan_ins = fan_ins.into_iter().map(|m| m as usize);
    sort_on(data, initial_run_len, fan_ins, workers)
}

/// Sorts `data` with the AMT merge schedule on every core: presort into
/// `initial_run_len`-record runs, then the balanced per-stage fan-in
/// schedule of [`crate::schedule::fan_in_schedule`] on an `ℓ`-leaf tree
/// until one run remains — exactly the schedule the cycle-approximate
/// [`crate::SimEngine`] executes, so outputs and stage counts match it
/// bit for bit. Returns the sorted data and the number of merge stages
/// executed (the minimum `ceil(log_ℓ(N / a))` of Equation 1).
///
/// # Panics
///
/// Panics if `l` is not a power of two `≥ 2` or `initial_run_len == 0`.
pub fn sort_balanced<R: Record>(data: Vec<R>, l: usize, initial_run_len: usize) -> (Vec<R>, u32) {
    sort_balanced_on(data, l, initial_run_len, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::fan_in_schedule;
    use bonsai_gensort::dist::{uniform_u32, uniform_u64, Distribution};
    use bonsai_records::run::stages_needed;
    use bonsai_records::{KvRec, Packed16, U128Rec, U32Rec, U64Rec, W256Rec, W512Rec};
    use bonsai_rng::Rng;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// The worker counts every parallel test runs at (`0` = one per core).
    const WORKERS: [usize; 4] = [1, 2, 3, 0];

    #[test]
    fn kway_merge_of_empty_and_nonempty_runs() {
        let a: Vec<U32Rec> = vec![];
        let b = [5u32, 6].map(U32Rec::new);
        let c = [1u32].map(U32Rec::new);
        let out = kway_merge(&[&a, &b, &c]);
        assert_eq!(out, [1u32, 5, 6].map(U32Rec::new).to_vec());
    }

    #[test]
    fn kway_merge_no_runs() {
        let out: Vec<U32Rec> = kway_merge(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn sort_matches_std_sort_u32() {
        let data = uniform_u32(100_000, 21);
        let mut expected: Vec<U32Rec> = data.clone();
        expected.sort_unstable();
        let (out, _) = sort_balanced(data, 16, 16);
        assert_eq!(out, expected);
    }

    #[test]
    fn sort_matches_std_sort_u64_various_fanins() {
        let data = uniform_u64(10_000, 22);
        let mut expected: Vec<U64Rec> = data.clone();
        expected.sort_unstable();
        for fan_in in [2, 4, 64, 256] {
            let (out, _) = sort_balanced(data.clone(), fan_in, 1);
            assert_eq!(out, expected, "fan_in = {fan_in}");
        }
    }

    #[test]
    fn stage_count_matches_formula() {
        for (n, fan_in, presort) in [
            (100_000usize, 16usize, 16usize),
            (4096, 4, 1),
            (5000, 256, 16),
        ] {
            let data = uniform_u32(n, 23);
            let (_, stages) = sort_balanced(data, fan_in, presort);
            let runs0 = (n as u64).div_ceil(presort as u64);
            assert_eq!(stages, stages_needed(runs0, fan_in as u64), "n={n}");
        }
    }

    #[test]
    fn duplicate_heavy_input_is_stable_under_schedule() {
        let data = Distribution::FewDistinct(2).generate_u32(50_000, 24);
        let (out, _) = sort_balanced(data.clone(), 8, 16);
        let mut expected = data;
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    /// One merge stage of `runs` at `fan_in` on every core.
    fn merge_pass<R: Record>(runs: &RunSet<R>, fan_in: usize) -> RunSet<R> {
        let mut trees = trees_for(runs.len(), 0);
        let mut merged = vec![R::MAX; runs.len()];
        let starts = merge_stage(
            &mut trees,
            runs.records(),
            runs.starts(),
            fan_in,
            &mut merged,
        );
        RunSet::from_parts(merged, starts)
    }

    #[test]
    fn merge_pass_ragged_last_group_and_single_run_keep_starts() {
        // 7 runs of 3, 3, 3, 3, 3, 3, 2 records at fan-in 3: groups of
        // 3, 3 and a ragged 1, each landing on its first run's start.
        let data = uniform_u32(20, 26);
        let runs = RunSet::from_chunks(data.clone(), 3);
        let next = merge_pass(&runs, 3);
        assert_eq!(next.starts(), [0, 9, 18]);
        assert!(next.validate().is_ok());
        assert_eq!(next.run(2), runs.run(6), "lone run is copied through");
        let last = merge_pass(&next, 3);
        assert_eq!(last.starts(), [0]);
        let mut expected = data;
        expected.sort_unstable();
        assert_eq!(last.records(), expected);
        // A single run (and no run at all) round-trips unchanged.
        assert_eq!(merge_pass(&last, 2), last);
        let empty = RunSet::<U32Rec>::from_parts(vec![], vec![]);
        assert_eq!(merge_pass(&empty, 2), empty);
    }

    #[test]
    fn merge_stages_stops_with_the_schedule() {
        let data = uniform_u32(1000, 27); // 100 runs of 10
        for workers in WORKERS {
            let (_, stages) = sort_on(data.clone(), 10, [4usize], workers);
            assert_eq!(stages, 1);
            let (out, stages) = sort_on(data.clone(), 10, [4usize; 6], workers);
            assert_eq!(stages, 4); // 100 -> 25 -> 7 -> 2 -> 1
            assert!(bonsai_records::run::is_sorted(&out));
        }
    }

    #[test]
    fn merge_pass_groups_runs() {
        let data = uniform_u32(1000, 25);
        let runs = RunSet::from_chunks(data, 10); // 100 runs
        let next = merge_pass(&runs, 16);
        assert_eq!(next.num_runs(), 7); // ceil(100/16)
        assert!(next.validate().is_ok());
        assert_eq!(next.len(), 1000);
    }

    // --- Every core ------------------------------------------------------

    #[test]
    fn sort_equals_sort_unstable_at_every_worker_count() {
        // Around every power of two a presorted run or a merge group can
        // end on, up to the benchmark's million records.
        let sizes = [
            0usize, 1, 15, 16, 17, 255, 257, 4_095, 4_097, 65_535, 65_537,
        ];
        for (i, n) in sizes.into_iter().chain([1_000_000]).enumerate() {
            let data = uniform_u32(n, 30 + i as u64);
            let mut expected = data.clone();
            expected.sort_unstable();
            let runs = n.div_ceil(16) as u64;
            for l in [2usize, 16, 256] {
                for workers in WORKERS {
                    let (out, stages) = sort_balanced_on(data.clone(), l, 16, workers);
                    let ctx = format!("n {n} l {l} workers {workers}");
                    assert!(out == expected, "{ctx}: output");
                    assert_eq!(
                        stages as usize,
                        fan_in_schedule(runs, l as u64).len(),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_initial_run_length_sorts_at_every_worker_count() {
        // 1: no presort; 16 and 64: the network; 3, 100, 5000:
        // `sort_unstable` chunks.
        let data = Distribution::FewDistinct(7).generate_u32(40_000, 28);
        let mut expected = data.clone();
        expected.sort_unstable();
        for run_len in [1usize, 3, 16, 64, 100, 5_000] {
            for workers in WORKERS {
                let (out, _) = sort_balanced_on(data.clone(), 16, run_len, workers);
                assert!(out == expected, "run_len {run_len} workers {workers}");
            }
        }
    }

    #[test]
    fn presorted_runs_are_from_chunks() {
        for run_len in [1usize, 2, 7, 16, 64, 128] {
            let data = Distribution::FewDistinct(5).generate_u32(1_000, 29);
            let want = RunSet::from_chunks(data.clone(), run_len);
            assert_eq!(presorted_runs(data, run_len), want, "run_len {run_len}");
        }
    }

    /// A `U32Rec` that counts comparisons made off the thread in `CALLER`.
    #[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
    struct Spy(u32);

    static CALLER: std::sync::OnceLock<std::thread::ThreadId> = std::sync::OnceLock::new();
    static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);

    impl PartialOrd for Spy {
        fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Spy {
        fn cmp(&self, other: &Self) -> core::cmp::Ordering {
            if CALLER.get() != Some(&std::thread::current().id()) {
                ELSEWHERE.fetch_add(1, Ordering::Relaxed);
            }
            self.0.cmp(&other.0)
        }
    }

    impl Record for Spy {
        type Key = u32;
        const WIDTH_BYTES: usize = 4;
        const TERMINAL: Self = Self(0);
        const MAX: Self = Self(u32::MAX);

        fn key(&self) -> u32 {
            self.0
        }

        fn sanitize(self) -> Self {
            Self(self.0.max(1))
        }
    }

    #[test]
    fn one_worker_and_small_sorts_run_on_the_calling_thread() {
        CALLER.set(std::thread::current().id()).expect("set once");
        // One worker; then one per core on a sort one worker's share
        // long, and on a 2 048-record one.
        for (n, workers, want_stages) in [(20_000, 1, 3), (MIN_SHARE, 0, 3), (2_048, 0, 2)] {
            let data: Vec<Spy> = uniform_u32(n, 32).iter().map(|r| Spy(r.0)).collect();
            let mut expected = data.clone();
            expected.sort_unstable_by_key(|r| r.0);
            let before = ELSEWHERE.load(Ordering::Relaxed);
            let (out, stages) = sort_balanced_on(data, 16, 16, workers);
            assert_eq!(stages, want_stages, "n {n}");
            assert!(out == expected, "n {n}");
            let after = ELSEWHERE.load(Ordering::Relaxed);
            assert_eq!(after, before, "n {n}: a comparison ran off the caller");
        }
    }

    // --- Co-rank ----------------------------------------------------------

    /// Sorts each run and returns the runs with the sorted concatenation.
    fn sorted_runs<R: Record>(mut runs: Vec<Vec<R>>) -> (Vec<Vec<R>>, Vec<R>) {
        for run in &mut runs {
            run.sort();
        }
        let mut all: Vec<R> = runs.concat();
        all.sort();
        (runs, all)
    }

    /// Checks the cuts at `rank` against the contract and, with `merge`,
    /// the merged left and right pieces against `sorted` (`slice::sort`).
    fn check_cut<R: Record>(runs: &[&[R]], sorted: &[R], rank: usize, merge: bool) {
        let cuts = co_rank(runs, rank);
        assert_eq!(cuts.len(), runs.len());
        assert_eq!(cuts.iter().sum::<usize>(), rank, "the cuts sum to the rank");
        let pieces = runs.iter().zip(&cuts);
        assert!(
            pieces.clone().all(|(run, &c)| c <= run.len()),
            "rank {rank}: cut past its run"
        );
        let left = pieces.clone().filter_map(|(run, &c)| run[..c].last()).max();
        let right = pieces.clone().filter_map(|(run, &c)| run.get(c)).min();
        if let (Some(l), Some(r)) = (left, right) {
            assert!(l <= r, "rank {rank}: {l:?} left of {r:?}");
        }
        if merge {
            let lefts: Vec<&[R]> = pieces.clone().map(|(run, &c)| &run[..c]).collect();
            let rights: Vec<&[R]> = pieces.map(|(run, &c)| &run[c..]).collect();
            assert_eq!(kway_merge(&lefts), sorted[..rank], "rank {rank}: left");
            assert_eq!(kway_merge(&rights), sorted[rank..], "rank {rank}: right");
        }
    }

    /// Checks every rank `0..=n` of `runs`.
    fn every_rank<R: Record>(runs: Vec<Vec<R>>) {
        let (runs, sorted) = sorted_runs(runs);
        let views: Vec<&[R]> = runs.iter().map(Vec::as_slice).collect();
        for rank in 0..=sorted.len() {
            check_cut(&views, &sorted, rank, true);
        }
    }

    /// One run per entry of `lens`, records drawn from `keys` values.
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
    fn co_rank_cuts_every_rank_at_every_fan_in() {
        let mut rng = Rng::seed_from_u64(0xC0_4A4C_0001);
        for k in [1usize, 2, 3, 17, 245, 256, 257] {
            let lens: Vec<usize> = (0..k).map(|_| rng.below_usize(6)).collect();
            every_rank(random_runs(&mut rng, &lens, 1 << 20, u32rec));
            // Heavy duplicates: most cuts fall among equal records.
            every_rank(random_runs(&mut rng, &lens, 3, u32rec));
        }
    }

    #[test]
    fn co_rank_with_empty_runs_equal_keys_and_max() {
        let mut rng = Rng::seed_from_u64(0xC0_4A4C_0002);
        for lens in [
            &[0usize, 0, 5, 0, 7, 0, 0][..],
            &[0, 9],
            &[9, 0],
            &[0, 0],
            &[0],
            &[],
            &[3, 0, 0, 0, 0],
        ] {
            every_rank(random_runs(&mut rng, lens, 100, u32rec));
        }
        every_rank(vec![vec![U32Rec::new(7); 5]; 17]);
        let (max, rec) = (U32Rec::MAX, U32Rec::new);
        every_rank(vec![vec![max; 3]; 4]);
        every_rank(vec![
            vec![rec(1), max, max],
            vec![max],
            vec![],
            vec![rec(2), rec(3)],
        ]);
    }

    #[test]
    fn co_rank_on_every_record_type() {
        // Draw 0 maps to MAX, so every type also cuts among MAX records.
        fn typed<R: Record>(make: fn(u64) -> R) {
            let mut rng = Rng::seed_from_u64(0xC0_4A4C_0003);
            let make = |v| if v == 0 { R::MAX } else { make(v) };
            for lens in [&[30usize, 0, 12, 45, 7][..], &[20, 33], &[16; 16]] {
                every_rank(random_runs(&mut rng, lens, 24, make));
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
    fn co_rank_on_a_million_records_at_sampled_ranks() {
        // The benchmark sort's last stage: 245 presorted-and-merged runs
        // of 4 096 records; uniform keys, then two distinct keys.
        let mut rng = Rng::seed_from_u64(0xC0_4A4C_0004);
        for data in [
            uniform_u32(1_000_000, 33),
            Distribution::FewDistinct(2).generate_u32(1_000_000, 34),
        ] {
            let (runs, sorted) = sorted_runs(data.chunks(4_096).map(<[U32Rec]>::to_vec).collect());
            assert_eq!(runs.len(), 245);
            let views: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
            let n = sorted.len();
            let fixed = [n / 2, 0, 1, n - 1, n, n / 3];
            for (i, rank) in fixed
                .into_iter()
                .chain((0..40).map(|_| rng.below_usize(n + 1)))
                .enumerate()
            {
                check_cut(&views, &sorted, rank, i < 2);
            }
        }
    }

    #[test]
    fn map_pass_runs_every_item_once() {
        let caller = std::thread::current().id();
        for workers in [1usize, 2, 8] {
            // No item, one, fewer than the widest pool, more than any.
            for items in [0usize, 1, 5, 37] {
                let runs: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
                let elsewhere = AtomicUsize::new(0);
                // Each worker counts the items it ran in its scratch.
                let mut ran = vec![0usize; workers];
                map_pass(&mut ran, 0..items, |ran, i| {
                    runs[i].fetch_add(1, Ordering::Relaxed);
                    if std::thread::current().id() != caller {
                        elsewhere.fetch_add(1, Ordering::Relaxed);
                    }
                    *ran += 1;
                });
                let ctx = format!("workers {workers} items {items}");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{ctx}");
                assert_eq!(ran.iter().sum::<usize>(), items, "{ctx}");
                // Only the first `min(workers, items)` scratches are lent,
                // and one worker is the calling thread.
                assert!(ran[items.max(1).min(workers)..].iter().all(|&n| n == 0));
                if workers == 1 {
                    assert_eq!(elsewhere.load(Ordering::Relaxed), 0, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn map_pass_hands_out_owned_items() {
        // Disjoint `&mut` ranges of one buffer, as the functional sort's
        // merge tasks are: each task fills its own.
        for workers in [1usize, 2, 8] {
            let mut buffer = vec![0usize; 100];
            let items = buffer.chunks_mut(7).enumerate();
            map_pass(&mut vec![(); workers], items, |(), (i, chunk)| {
                chunk.fill(i + 1);
            });
            let filled = buffer.iter().enumerate().all(|(at, &v)| v == at / 7 + 1);
            assert!(filled, "workers {workers}");
        }
    }

    #[test]
    fn map_pass_reraises_a_panic_with_its_payload_after_every_thread_joined() {
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
                });
            }));
            let payload = outcome.expect_err("a task panicked");
            let text = payload
                .downcast_ref::<String>()
                .expect("the task's own payload, not a replacement");
            assert!(text.ends_with(" panicked"), "workers {workers}: {text}");
            assert_eq!(in_flight.load(Ordering::SeqCst), 0, "workers {workers}");
        }
    }
}
