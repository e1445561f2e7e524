//! The functional sort allocates per pass and per worker, not per merge
//! group.
//!
//! `functional::sort_balanced` ping-pongs between its input buffer and
//! one scratch buffer, reuses one loser tree per worker, and writes
//! every task's output range in place. So a sort of 62 500 runs in two
//! 256-way passes (245 merge groups in the first) must allocate about
//! as often as one of 15 625 runs, also in two passes (62 groups): one
//! allocation per merge group would be 183 more. The counting global
//! allocator of `common` counts the calling thread, worker 0.

mod common;

use bonsai_amt::functional;
use bonsai_gensort::dist::uniform_u32;

/// The caller's allocations at one worker (40 measured): the fan-in
/// schedule, the tree list and worker 0's two tree arrays, the run
/// starts, the scratch buffer, the 16-lane presorter's network (ten
/// stage lists and their list), per map (the presort and both stages)
/// its result and claim lists, and per stage the run views, the tasks,
/// the worker list, a cursor list and the next starts.
const ONE_WORKER: u64 = 42;

/// Per further worker and map (presort and two stages): one scoped
/// spawn and its join. At two workers the sort measured 65 in all.
const PER_HELPER: u64 = 3 * 6;

/// Per piece of the cut last stage the caller runs (at most one per
/// worker): its two co-ranks of five vectors.
const PER_PIECE: u64 = 10;

/// Sorts `n` records on 256 leaves and returns the caller's allocations.
fn allocations(n: usize) -> u64 {
    let data = uniform_u32(n, 12);
    let mut expected = data.clone();
    expected.sort_unstable();
    let ((sorted, stages), allocs) =
        common::count_allocs(|| functional::sort_balanced(data, 256, 16));
    assert_eq!(sorted, expected);
    assert_eq!(stages, 2, "{n} records on 256 leaves: two passes");
    allocs
}

#[test]
fn sort_balanced_allocates_per_pass_not_per_group() {
    let wide = allocations(1_000_000);
    let narrow = allocations(250_000);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    // Which pieces of the cut last stage the caller runs is up to the
    // scheduler, so the two counts may differ by a few co-ranks.
    assert!(
        wide <= narrow + PER_PIECE * workers,
        "245 groups allocated {wide} times, 62 groups {narrow} times"
    );
    let pieces = if workers > 1 { workers } else { 0 };
    let ceiling = ONE_WORKER + PER_HELPER * (workers - 1) + PER_PIECE * pieces;
    assert!(
        wide <= ceiling,
        "{wide} allocations for a 2-pass sort on {workers} workers, at most {ceiling}"
    );
}
