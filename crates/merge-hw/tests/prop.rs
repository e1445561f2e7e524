//! Randomized tests: the cycle-level merger is functionally a perfect
//! 2-way merge for arbitrary run shapes, and its throughput is k/cycle.

use bonsai_merge_hw::{KMerger, Side};
use bonsai_records::{Record, U32Rec};
use bonsai_rng::Rng;

/// Drives a merger feeding whole runs lazily (respecting FIFO capacity)
/// and collecting output until all input is consumed and drained.
fn drive_merger(k: usize, left_runs: &[Vec<u32>], right_runs: &[Vec<u32>]) -> Vec<U32Rec> {
    let mut m: KMerger<U32Rec> = KMerger::new(k, 2 * k);
    let mut lstream: Vec<U32Rec> = left_runs
        .iter()
        .flat_map(|r| {
            r.iter()
                .map(|&v| U32Rec::new(v))
                .chain(std::iter::once(U32Rec::TERMINAL))
        })
        .collect();
    let mut rstream: Vec<U32Rec> = right_runs
        .iter()
        .flat_map(|r| {
            r.iter()
                .map(|&v| U32Rec::new(v))
                .chain(std::iter::once(U32Rec::TERMINAL))
        })
        .collect();
    lstream.reverse(); // pop from the back
    rstream.reverse();

    let mut out = Vec::new();
    let mut idle = 0;
    while idle < 4 {
        while m.input_free(Side::Left) > 0 && !lstream.is_empty() {
            m.push_left(lstream.pop().expect("nonempty"))
                .expect("space checked");
        }
        while m.input_free(Side::Right) > 0 && !rstream.is_empty() {
            m.push_right(rstream.pop().expect("nonempty"))
                .expect("space checked");
        }
        m.tick();
        let before = out.len();
        while let Some(r) = m.pop_output() {
            out.push(r);
        }
        if out.len() == before && lstream.is_empty() && rstream.is_empty() {
            idle += 1;
        } else {
            idle = 0;
        }
    }
    out
}

/// `1..max_runs` random runs of `0..max_len` records each, sorted.
fn sorted_runs(rng: &mut Rng, max_runs: usize, max_len: usize) -> Vec<Vec<u32>> {
    let n_runs = rng.range_usize(1, max_runs - 1);
    (0..n_runs)
        .map(|_| {
            let len = rng.below_usize(max_len);
            let mut v: Vec<u32> = (0..len).map(|_| rng.next_u32().max(1)).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

#[test]
fn merger_merges_runs_pairwise() {
    let mut rng = Rng::seed_from_u64(0x3E26_0001);
    for _ in 0..64 {
        let k = 1 << rng.below_usize(4);
        let left = sorted_runs(&mut rng, 5, 40);
        let right = sorted_runs(&mut rng, 5, 40);
        let n_pairs = left.len().min(right.len());
        let out = drive_merger(k, &left[..n_pairs], &right[..n_pairs]);
        assert!(
            out.last().is_some_and(Record::is_terminal),
            "ends with a terminal"
        );
        // The runs between terminals, empty ones dropped.
        let runs: Vec<Vec<u32>> = out
            .split(Record::is_terminal)
            .filter(|run| !run.is_empty())
            .map(|run| run.iter().map(|r| r.0).collect())
            .collect();

        // Each output run must be the sorted multiset union of the pair.
        let mut run_idx = 0;
        for i in 0..n_pairs {
            let mut expected: Vec<u32> = left[i].iter().chain(right[i].iter()).copied().collect();
            expected.sort_unstable();
            if expected.is_empty() {
                continue; // empty merged runs are dropped above
            }
            assert_eq!(runs[run_idx], expected, "pair {i}");
            run_idx += 1;
        }
        assert_eq!(run_idx, runs.len());
    }
}

#[test]
fn merger_emits_one_terminal_per_pair() {
    let mut rng = Rng::seed_from_u64(0x3E26_0002);
    for _ in 0..64 {
        let left = sorted_runs(&mut rng, 4, 20);
        let right = sorted_runs(&mut rng, 4, 20);
        let n_pairs = left.len().min(right.len());
        let out = drive_merger(4, &left[..n_pairs], &right[..n_pairs]);
        let terminals = out.iter().filter(|r| r.is_terminal()).count();
        assert_eq!(terminals, n_pairs);
    }
}

#[test]
fn long_streams_sustain_full_throughput() {
    // With deep input FIFOs and continuous refill, an 8-merger must move
    // very close to 8 records/cycle.
    let k = 8;
    let n = 4096u32;
    let left: Vec<u32> = (0..n).map(|i| 2 * i + 1).collect();
    let right: Vec<u32> = (0..n).map(|i| 2 * i + 2).collect();
    let out = drive_merger(k, &[left], &[right]);
    assert_eq!(out.len() as u32, 2 * n + 1);
}
