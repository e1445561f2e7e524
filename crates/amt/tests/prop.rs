//! Randomized cross-validation inside the AMT crate: the loser-tree
//! kernel against `sort_unstable`, and the cycle engine against the
//! functional schedule built on that kernel.

use bonsai_amt::{functional, loser_tree_merge, AmtConfig, SimEngine, SimEngineConfig};
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

/// `0..max_runs` random runs of `0..max_len` records each, sorted.
fn sorted_runs(rng: &mut Rng, max_runs: usize, max_len: usize) -> Vec<Vec<U32Rec>> {
    let n_runs = rng.below_usize(max_runs);
    (0..n_runs)
        .map(|_| {
            let len = rng.below_usize(max_len);
            let mut v: Vec<u32> = (0..len).map(|_| rng.next_u32().max(1)).collect();
            v.sort_unstable();
            v.into_iter().map(U32Rec::new).collect()
        })
        .collect()
}

#[test]
fn loser_tree_merge_equals_sort_unstable() {
    let mut rng = Rng::seed_from_u64(0xA370_0001);
    for _ in 0..48 {
        let runs = sorted_runs(&mut rng, 12, 80);
        let slices: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
        let mut expected: Vec<U32Rec> = runs.iter().flatten().copied().collect();
        expected.sort_unstable();
        assert_eq!(loser_tree_merge(&slices), expected);
        assert_eq!(functional::kway_merge(&slices), expected);
    }
}

#[test]
fn engine_equals_functional_schedule() {
    let mut rng = Rng::seed_from_u64(0xA370_0002);
    for _ in 0..48 {
        let len = rng.below_usize(2_000);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let p = 1 << rng.below_usize(4);
        let l = 1 << rng.range_usize(1, 6);
        let presort = [1usize, 16][rng.below_usize(2)];
        let amt = AmtConfig::new(p, l);
        let mut cfg = SimEngineConfig::dram_sorter(amt, 4);
        cfg.presort = (presort > 1).then_some(presort);
        let (sim, sim_report) = SimEngine::new(cfg).sort(data.clone());
        let (func, func_stages) = functional::sort_balanced(data, amt.l, presort);
        assert_eq!(&sim, &func, "identical merge schedules must agree");
        assert_eq!(sim_report.stages(), func_stages);
    }
}

#[test]
fn merge_pass_preserves_multiset_and_shrinks_runs() {
    let mut rng = Rng::seed_from_u64(0xA370_0003);
    for _ in 0..48 {
        let len = rng.range_usize(1, 1_499);
        let chunk = rng.range_usize(1, 39);
        let fan_in = rng.range_usize(2, 19);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let runs = bonsai_records::run::RunSet::from_chunks(data.clone(), chunk);
        let before = runs.num_runs();
        let after = functional::merge_pass(&runs, fan_in);
        assert!(after.validate().is_ok());
        assert_eq!(after.num_runs(), before.div_ceil(fan_in));
        let mut a: Vec<U32Rec> = data;
        let mut b = after.into_records();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
