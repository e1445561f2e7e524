//! Fast functional execution of the AMT merge schedule.
//!
//! The cycle-approximate [`SimEngine`](crate::SimEngine) is the reference
//! for timing; this module executes the *same* merge schedule (presort,
//! then `ceil(log_ℓ)` stages of `ℓ`-way merges) on the host, producing
//! bit-identical output orders of magnitude faster. Every merge group
//! runs through the one software [`LoserTree`] kernel, and a sort
//! ping-pongs between its input buffer and a single scratch buffer. The
//! sorters crate uses it for gigabyte-scale data and pairs it with the
//! analytic performance model for timing.

use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::loser_tree::LoserTree;

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

/// Merges every group of `fan_in` consecutive runs of `src` (run `i`
/// starts at `starts[i]`) into the same address range of `dst`, and
/// returns the merged runs' starts.
fn merge_pass_into<R: Record>(
    tree: &mut LoserTree<R>,
    src: &[R],
    starts: &[usize],
    fan_in: usize,
    dst: &mut [R],
) -> Vec<usize> {
    assert!(fan_in >= 2, "merge fan-in must be at least 2");
    let mut group: Vec<&[R]> = Vec::with_capacity(fan_in.min(starts.len()));
    for (g, run_starts) in starts.chunks(fan_in).enumerate() {
        let end = starts.get((g + 1) * fan_in).copied().unwrap_or(src.len());
        let run_ends = run_starts[1..].iter().chain([&end]);
        group.clear();
        group.extend(run_starts.iter().zip(run_ends).map(|(&s, &e)| &src[s..e]));
        tree.merge_into(&mut group, &mut dst[run_starts[0]..end]);
    }
    starts.iter().copied().step_by(fan_in).collect()
}

/// Executes one merge stage: every group of `fan_in` consecutive runs is
/// merged into one run, exactly as the AMT does with `ℓ = fan_in`.
///
/// # Panics
///
/// Panics if `fan_in < 2`.
pub fn merge_pass<R: Record>(runs: &RunSet<R>, fan_in: usize) -> RunSet<R> {
    let mut merged = vec![R::MAX; runs.len()];
    let starts = merge_pass_into(
        &mut LoserTree::default(),
        runs.records(),
        runs.starts(),
        fan_in,
        &mut merged,
    );
    RunSet::from_parts(merged, starts)
}

/// Runs merge stages over `runs` until one run remains or `fan_ins`
/// ends, stage `i` merging groups of the `i`-th fan-in. All stages share
/// one scratch buffer and one [`LoserTree`]. Returns the records and the
/// number of stages executed.
fn merge_stages<R: Record>(
    runs: RunSet<R>,
    fan_ins: impl IntoIterator<Item = usize>,
) -> (Vec<R>, u32) {
    let (mut src, mut starts) = runs.into_parts();
    let mut dst = Vec::new();
    let mut tree = LoserTree::default();
    let mut stages = 0u32;
    for fan_in in fan_ins {
        if starts.len() <= 1 {
            break;
        }
        dst.resize(src.len(), R::MAX); // allocates in the first stage only
        starts = merge_pass_into(&mut tree, &src, &starts, fan_in, &mut dst);
        core::mem::swap(&mut src, &mut dst);
        stages += 1;
    }
    (src, stages)
}

/// Sorts `data` with the AMT merge schedule: presort into
/// `initial_run_len`-record runs (`sort_unstable` on each chunk), then
/// `ℓ`-way merge stages until one run remains. Returns the sorted data
/// and the number of merge stages executed (the `ceil(log_ℓ(N / a))` of
/// Equation 1).
///
/// # Panics
///
/// Panics if `fan_in < 2` or `initial_run_len == 0`.
pub fn sort<R: Record>(data: Vec<R>, fan_in: usize, initial_run_len: usize) -> (Vec<R>, u32) {
    assert!(fan_in >= 2, "merge fan-in must be at least 2");
    let runs = RunSet::from_chunks(data, initial_run_len);
    merge_stages(runs, core::iter::repeat(fan_in))
}

/// Like [`sort`], but with the balanced per-stage fan-in schedule of
/// [`crate::schedule::fan_in_schedule`] on an `ℓ`-leaf tree — exactly
/// the schedule the cycle-approximate [`crate::SimEngine`] executes, so
/// outputs and stage counts match it bit for bit.
///
/// # Panics
///
/// Panics if `l` is not a power of two `≥ 2` or `initial_run_len == 0`.
pub fn sort_balanced<R: Record>(data: Vec<R>, l: usize, initial_run_len: usize) -> (Vec<R>, u32) {
    let runs = RunSet::from_chunks(data, initial_run_len);
    let fan_ins = crate::schedule::fan_in_schedule(runs.num_runs() as u64, l as u64);
    merge_stages(runs, fan_ins.into_iter().map(|m| m as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::{uniform_u32, uniform_u64, Distribution};
    use bonsai_records::run::stages_needed;
    use bonsai_records::{U32Rec, U64Rec};

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
        let (out, _) = sort(data, 16, 16);
        assert_eq!(out, expected);
    }

    #[test]
    fn sort_matches_std_sort_u64_various_fanins() {
        let data = uniform_u64(10_000, 22);
        let mut expected: Vec<U64Rec> = data.clone();
        expected.sort_unstable();
        for fan_in in [2, 4, 64, 256] {
            let (out, _) = sort(data.clone(), fan_in, 1);
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
            let (_, stages) = sort(data, fan_in, presort);
            let runs0 = (n as u64).div_ceil(presort as u64);
            assert_eq!(stages, stages_needed(runs0, fan_in as u64), "n={n}");
        }
    }

    #[test]
    fn duplicate_heavy_input_is_stable_under_schedule() {
        let data = Distribution::FewDistinct(2).generate_u32(50_000, 24);
        let (out, _) = sort(data.clone(), 8, 16);
        let mut expected = data;
        expected.sort_unstable();
        assert_eq!(out, expected);
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
        let runs = RunSet::from_chunks(uniform_u32(1000, 27), 10); // 100 runs
        let (_, stages) = merge_stages(runs.clone(), [4usize]);
        assert_eq!(stages, 1);
        let (out, stages) = merge_stages(runs, [4usize, 4, 4, 4, 4, 4]);
        assert_eq!(stages, 4); // 100 -> 25 -> 7 -> 2 -> 1
        assert!(bonsai_records::run::is_sorted(&out));
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
}
