//! The functional sort allocates per pass, not per merge group.
//!
//! `functional::sort_balanced` ping-pongs between its input buffer and
//! one scratch buffer and reuses one loser tree, so a sort of 62 500
//! runs in two 256-way passes (245 merge groups) must perform a
//! handful of heap allocations, counted by the global allocator of
//! `common`.

mod common;

use bonsai_amt::functional;
use bonsai_gensort::dist::uniform_u32;

#[test]
fn sort_balanced_allocates_per_pass_not_per_group() {
    let data = uniform_u32(1_000_000, 12);
    let mut expected = data.clone();
    expected.sort_unstable();

    let ((sorted, stages), allocs) =
        common::count_allocs(|| functional::sort_balanced(data, 256, 16));

    assert_eq!(sorted, expected);
    assert_eq!(stages, 2, "62 500 runs on 256 leaves: two passes");
    // Run starts, the schedule, the scratch buffer, the tree's two
    // arrays, and per pass a cursor array and the next starts: about a
    // dozen. One allocation per merge group would be 245 more.
    assert!(allocs <= 16, "{allocs} allocations for a 2-pass sort");
}
