//! The functional sort's helpers are joined before it returns.
//!
//! The functional sort (`functional::sort_balanced`, hence
//! `DramSorter::sort` and the host merge) spreads its presort and every
//! merge stage over the calling thread and one scoped helper per further
//! core. This file holds a single test on purpose: an integration-test
//! binary is its own process, so the `/proc/self/task` count (the way
//! the runtime's leak tests count threads) is not disturbed by other
//! tests' threads. The unit tests of `functional` check that one worker
//! runs every task on the calling thread.

/// Thread count of this process via /proc (Linux-only; 0 elsewhere, so
/// the assertion passes trivially).
fn count_own_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

#[test]
fn the_functional_sort_joins_its_helpers() {
    let before = count_own_threads();
    // One worker per core (two on a 2-core host): every helper is
    // joined by the time the sort returns.
    let data = bonsai_gensort::dist::uniform_u32(200_000, 5);
    let (sorted, stages) = bonsai_amt::functional::sort_balanced(data, 16, 16);
    assert_eq!(stages, 4); // 12 500 runs on 16 leaves
    assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(count_own_threads(), before, "the sort's helpers are joined");
}
