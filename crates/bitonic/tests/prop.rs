//! Randomized property tests for the bitonic networks, driven by a
//! seeded deterministic generator.

use bonsai_bitonic::{merge_network, sorter_network, HalfMerger, Presorter};
use bonsai_records::{KvRec, Packed16, Record, U128Rec, U32Rec, U64Rec, W256Rec, W512Rec};
use bonsai_rng::Rng;

/// Runs a generic `typed::<R>(make)` check once per record type, `make`
/// mapping a small draw to a record whose order follows the draw.
macro_rules! every_record_type {
    ($typed:ident) => {
        $typed(|v| U32Rec::new(v as u32));
        $typed(|v| U64Rec::new(v << 40));
        $typed(|v| U128Rec::new(u128::from(v) << 90));
        $typed(|v| KvRec::new(v / 4, v % 4));
        $typed(|v| Packed16::from_parts(u128::from(v / 4) << 70, v % 4));
        $typed(|v| W256Rec::new([v / 8, 0, v % 2, v % 8]));
        $typed(|v| W512Rec::new([1, v / 8, 0, 0, v % 2, 0, 0, v % 8]));
    };
}

fn random_vec(rng: &mut Rng, len: usize) -> Vec<u32> {
    (0..len).map(|_| rng.next_u32()).collect()
}

#[test]
fn sorter_network_sorts_random_input() {
    let mut rng = Rng::seed_from_u64(0xB170_0001);
    let net = sorter_network(32);
    for _ in 0..128 {
        let mut vals = random_vec(&mut rng, 32);
        let mut expected = vals.clone();
        expected.sort_unstable();
        net.apply(&mut vals);
        assert_eq!(vals, expected);
    }
}

#[test]
fn merge_network_equals_std_merge() {
    let mut rng = Rng::seed_from_u64(0xB170_0002);
    let net = merge_network(32);
    for _ in 0..128 {
        let mut a = random_vec(&mut rng, 16);
        let mut b = random_vec(&mut rng, 16);
        a.sort_unstable();
        b.sort_unstable();
        let mut expected: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expected.sort_unstable();

        let mut lanes = a.clone();
        lanes.extend(b.iter().rev());
        net.apply(&mut lanes);
        assert_eq!(lanes, expected);
    }
}

#[test]
fn half_merger_equals_std_merge_any_lengths() {
    let mut rng = Rng::seed_from_u64(0xB170_0003);
    let hm = HalfMerger::new(8);
    for _ in 0..256 {
        let (la, lb) = (rng.below_usize(8), rng.below_usize(8));
        let mut a = random_vec(&mut rng, la);
        let mut b = random_vec(&mut rng, lb);
        a.sort_unstable();
        b.sort_unstable();
        let ra: Vec<U32Rec> = a.iter().map(|&v| U32Rec::new(v)).collect();
        let rb: Vec<U32Rec> = b.iter().map(|&v| U32Rec::new(v)).collect();
        let out = hm.merge(&ra, &rb);

        let mut expected: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        expected.sort_unstable();
        let expected: Vec<U32Rec> = expected.into_iter().map(U32Rec::new).collect();
        assert_eq!(out, expected);
    }
}

#[test]
fn presorter_output_is_chunkwise_sorted_permutation() {
    let mut rng = Rng::seed_from_u64(0xB170_0004);
    for _ in 0..128 {
        let len = rng.below_usize(200);
        let vals = random_vec(&mut rng, len);
        let chunk = 1usize << rng.range_usize(1, 5);
        let ps = Presorter::new(chunk);
        let mut data: Vec<U32Rec> = vals.iter().map(|&v| U32Rec::new(v)).collect();
        ps.presort(&mut data);

        for c in data.chunks(chunk) {
            assert!(c.windows(2).all(|w| w[0] <= w[1]));
        }
        let mut sorted_in = vals.clone();
        sorted_in.sort_unstable();
        let mut sorted_out: Vec<u32> = data.iter().map(|r| r.0).collect();
        sorted_out.sort_unstable();
        assert_eq!(sorted_in, sorted_out);
    }
}

/// A lane value: one of a handful of keys, so most CAS units compare
/// equal records; one draw in five is `R::MAX`, the presorter's padding
/// value, and one in twenty is `R::TERMINAL`, the run delimiter.
fn lane<R: Record>(rng: &mut Rng, make: fn(u64) -> R) -> R {
    match rng.below_u64(5 * 4) {
        v if v % 5 == 0 => R::MAX,
        1 => R::TERMINAL,
        v => make(v),
    }
}

/// `Network::apply` against `sort_unstable`, the only oracle, at every
/// presorter width and for every record type. Selecting the wrong lane
/// in a CAS unit (`lanes[hi] = if swap { b } else { a }`) fails it.
#[test]
fn network_equals_sort_unstable_at_every_width_and_record_type() {
    fn typed<R: Record>(make: fn(u64) -> R) {
        let mut rng = Rng::seed_from_u64(0xB170_0005);
        for width in (1..=6).map(|log| 1usize << log) {
            let net = sorter_network(width);
            for _ in 0..64 {
                let mut lanes: Vec<R> = (0..width).map(|_| lane(&mut rng, make)).collect();
                let mut want = lanes.clone();
                want.sort_unstable();
                net.apply(&mut lanes);
                assert_eq!(lanes, want, "width {width}");
            }
        }
    }
    every_record_type!(typed);
}

/// `Presorter::presort` equals `sort_unstable` on every chunk, the
/// partial tail included (it is padded with `MAX`, which ties with the
/// tail's own `MAX` records), at every width the presorter is built
/// for, for every record type and with `TERMINAL` records in the input.
#[test]
fn presort_equals_sort_unstable_per_chunk_and_tail() {
    fn typed<R: Record>(make: fn(u64) -> R) {
        let mut rng = Rng::seed_from_u64(0xB170_0006);
        for chunk in (1..=6).map(|log| 1usize << log) {
            let ps = Presorter::new(chunk);
            for len in [0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + chunk / 2 + 1] {
                for _ in 0..8 {
                    let mut data: Vec<R> = (0..len).map(|_| lane(&mut rng, make)).collect();
                    let mut want = data.clone();
                    want.chunks_mut(chunk).for_each(<[R]>::sort_unstable);
                    ps.presort(&mut data);
                    assert_eq!(data, want, "chunk {chunk} len {len}");
                }
            }
        }
    }
    every_record_type!(typed);
}

#[test]
#[should_panic(expected = "from 2 to 64")]
fn presorter_rejects_a_width_it_is_not_built_for() {
    let _ = Presorter::new(128);
}
