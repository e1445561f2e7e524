//! Micro-benchmarks of the hardware component models.

use bonsai_amt::loser_tree_merge;
use bonsai_baselines::radix::parallel_radix_sort;
use bonsai_bench::harness::{bench, header, Throughput};
use bonsai_bitonic::{sorter_network, HalfMerger, Presorter};
use bonsai_gensort::dist::uniform_u32;
use bonsai_merge_hw::{KMerger, Side};
use bonsai_records::{Record, U32Rec};
use std::hint::black_box;

fn bench_bitonic_networks() {
    for width in [16usize, 64, 256] {
        let net = sorter_network(width);
        let data = uniform_u32(width, 1);
        bench(
            "bitonic",
            &format!("sorter_network/{width}"),
            Throughput::Elements(width as u64),
            || {
                let mut lanes = data.clone();
                net.apply(black_box(&mut lanes));
                lanes
            },
        );
    }
}

fn bench_half_merger() {
    for k in [4usize, 16, 32] {
        let hm = HalfMerger::new(k);
        let mut a = uniform_u32(k, 2);
        let mut b2 = uniform_u32(k, 3);
        a.sort_unstable();
        b2.sort_unstable();
        bench(
            "half_merger",
            &format!("merge/{k}"),
            Throughput::Elements(2 * k as u64),
            || hm.merge(black_box(&a), black_box(&b2)),
        );
    }
}

fn bench_presorter() {
    let ps = Presorter::new(16);
    let data = uniform_u32(65_536, 4);
    bench(
        "presorter",
        "presort_64k",
        Throughput::Elements(data.len() as u64),
        || {
            let mut d = data.clone();
            ps.presort(black_box(&mut d));
            d
        },
    );
}

fn bench_kmerger_cycles() {
    // End-to-end cycle simulation rate of one 8-merger on long runs.
    let n = 32_768u32;
    let left: Vec<U32Rec> = (0..n).map(|i| U32Rec::new(2 * i + 1)).collect();
    let right: Vec<U32Rec> = (0..n).map(|i| U32Rec::new(2 * i + 2)).collect();
    bench(
        "kmerger",
        "simulate_8_merger_64k_records",
        Throughput::Elements(2 * u64::from(n)),
        || {
            let mut m: KMerger<U32Rec> = KMerger::new(8, 32);
            let mut li = 0usize;
            let mut ri = 0usize;
            let mut out = 0u64;
            while out < u64::from(2 * n) + 1 {
                while m.input_free(Side::Left) > 0 && li <= left.len() {
                    if li < left.len() {
                        m.push_left(left[li]).expect("space checked");
                    } else {
                        m.push_left(U32Rec::TERMINAL).expect("space checked");
                    }
                    li += 1;
                }
                while m.input_free(Side::Right) > 0 && ri <= right.len() {
                    if ri < right.len() {
                        m.push_right(right[ri]).expect("space checked");
                    } else {
                        m.push_right(U32Rec::TERMINAL).expect("space checked");
                    }
                    ri += 1;
                }
                m.tick();
                while m.pop_output().is_some() {
                    out += 1;
                }
            }
            out
        },
    );
}

/// The one host merge kernel at three fan-ins, next to the radix sort
/// and `sort_unstable` on the same records (those two sort the
/// concatenated runs; the kernel only has to merge them).
fn bench_kway_merge() {
    for fan_in in [4usize, 64, 256] {
        let runs: Vec<Vec<U32Rec>> = (0..fan_in)
            .map(|i| {
                let mut r = uniform_u32(4096, i as u64);
                r.sort_unstable();
                r
            })
            .collect();
        let slices: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
        let flat: Vec<U32Rec> = runs.iter().flatten().copied().collect();
        let elems = Throughput::Elements(flat.len() as u64);
        bench("kway_merge", &format!("loser_tree/{fan_in}"), elems, || {
            loser_tree_merge(black_box(&slices))
        });
        bench("kway_merge", &format!("radix/{fan_in}"), elems, || {
            let mut d = black_box(&flat).clone();
            parallel_radix_sort(&mut d, 1);
            d
        });
        bench(
            "kway_merge",
            &format!("std sort_unstable/{fan_in}"),
            elems,
            || {
                let mut d = black_box(&flat).clone();
                d.sort_unstable();
                d
            },
        );
    }
}

fn main() {
    header("components");
    bench_bitonic_networks();
    bench_half_merger();
    bench_presorter();
    bench_kmerger_cycles();
    bench_kway_merge();
}
