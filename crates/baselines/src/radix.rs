//! A parallel least-significant-digit radix sorter (PARADIS-flavored).
//!
//! PARADIS [Cho et al., VLDB 2015] is the paper's CPU baseline: an
//! in-place parallel radix sort that runs below 4 GB/s for inputs over
//! 512 MB. This module implements the classic parallel LSD counting
//! variant: per-thread histograms, a global prefix sum, and a parallel
//! scatter — the same algorithmic skeleton, tuned for clarity over the
//! last few percent (it is a baseline, not the contribution).

use bonsai_records::{KvRec, Record, U32Rec, U64Rec};

/// Records sortable by byte-wise radix passes.
///
/// `radix_byte(i)` must return byte `i` of the key, byte 0 being the
/// least significant, such that sorting by bytes `0..KEY_BYTES` in
/// stable LSD order sorts the records.
pub trait RadixKey: Record {
    /// Number of radix passes (key bytes).
    const KEY_BYTES: usize;

    /// The `i`-th least significant key byte.
    fn radix_byte(&self, i: usize) -> u8;
}

impl RadixKey for U32Rec {
    const KEY_BYTES: usize = 4;

    #[inline]
    fn radix_byte(&self, i: usize) -> u8 {
        (self.0 >> (8 * i)) as u8
    }
}

impl RadixKey for U64Rec {
    const KEY_BYTES: usize = 8;

    #[inline]
    fn radix_byte(&self, i: usize) -> u8 {
        (self.0 >> (8 * i)) as u8
    }
}

impl RadixKey for KvRec {
    const KEY_BYTES: usize = 8;

    #[inline]
    fn radix_byte(&self, i: usize) -> u8 {
        (self.key() >> (8 * i)) as u8
    }
}

const RADIX: usize = 256;

/// Sorts `data` with a parallel LSD radix sort over `threads` worker
/// threads.
///
/// Stable, out-of-place (ping-pong buffer); `threads = 1` degenerates to
/// the sequential algorithm.
///
/// # Panics
///
/// Panics if `threads` is zero.
///
/// # Example
///
/// ```
/// use bonsai_baselines::radix::parallel_radix_sort;
/// use bonsai_records::U32Rec;
///
/// let mut data: Vec<U32Rec> = [3u32, 1, 2].map(U32Rec::new).to_vec();
/// parallel_radix_sort(&mut data, 2);
/// assert_eq!(data, [1u32, 2, 3].map(U32Rec::new).to_vec());
/// ```
pub fn parallel_radix_sort<R: RadixKey>(data: &mut [R], threads: usize) {
    assert!(threads > 0, "need at least one thread");
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut scratch: Vec<R> = vec![R::TERMINAL; n];
    let mut src_is_data = true;

    for pass in 0..R::KEY_BYTES {
        {
            let (src, dst): (&mut [R], &mut [R]) = if src_is_data {
                (data, &mut scratch)
            } else {
                (&mut scratch, data)
            };
            radix_pass(src, dst, pass, threads);
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&scratch);
    }
}

/// The part of an `n`-record input that thread `t` of `threads` counts
/// and scatters: consecutive chunks of `ceil(n / threads)` records, the
/// last ones short or empty, together covering `0..n` exactly once.
fn chunk_range(n: usize, threads: usize, t: usize) -> std::ops::Range<usize> {
    let chunk = n.div_ceil(threads);
    (t * chunk).min(n)..((t + 1) * chunk).min(n)
}

/// One stable counting pass on byte `pass`, parallelized over chunks.
fn radix_pass<R: RadixKey>(src: &[R], dst: &mut [R], pass: usize, threads: usize) {
    let n = src.len();
    let threads = threads.min(n).max(1);

    // Per-chunk histograms.
    let mut histograms = vec![[0usize; RADIX]; threads];
    std::thread::scope(|scope| {
        for (t, hist) in histograms.iter_mut().enumerate() {
            let slice = &src[chunk_range(n, threads, t)];
            scope.spawn(move || {
                for rec in slice {
                    hist[rec.radix_byte(pass) as usize] += 1;
                }
            });
        }
    });

    // Exclusive prefix sums: digit-major, then chunk order within a
    // digit, preserving stability.
    let mut offsets = vec![[0usize; RADIX]; threads];
    let mut running = 0usize;
    for digit in 0..RADIX {
        for t in 0..threads {
            offsets[t][digit] = running;
            running += histograms[t][digit];
        }
    }

    // Parallel scatter: each thread owns disjoint destination ranges by
    // construction of the offsets, so the unsafe shared write is sound.
    let dst_ptr = SendPtr(dst.as_mut_ptr());
    std::thread::scope(|scope| {
        for (t, offs) in offsets.iter_mut().enumerate() {
            let slice = &src[chunk_range(n, threads, t)];
            scope.spawn(move || {
                let dst_ptr = dst_ptr;
                for rec in slice {
                    let digit = rec.radix_byte(pass) as usize;
                    // SAFETY: offsets partition 0..n disjointly across
                    // threads and digits; each slot is written once.
                    unsafe {
                        *dst_ptr.0.add(offs[digit]) = *rec;
                    }
                    offs[digit] += 1;
                }
            });
        }
    });
}

/// A `Send`able raw pointer wrapper for the disjoint-range scatter.
#[derive(Clone, Copy, Debug)]
struct SendPtr<T>(*mut T);

// SAFETY: the scatter guarantees disjoint writes (see `radix_pass`).
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::{uniform_u32, uniform_u64, Distribution};

    #[test]
    fn sorts_uniform_u32() {
        let mut data = uniform_u32(100_000, 1);
        let mut expected = data.clone();
        expected.sort_unstable();
        parallel_radix_sort(&mut data, 4);
        assert_eq!(data, expected);
    }

    #[test]
    fn sorts_u64_and_kv() {
        let mut data = uniform_u64(50_000, 2);
        let mut expected = data.clone();
        expected.sort_unstable();
        parallel_radix_sort(&mut data, 3);
        assert_eq!(data, expected);

        let mut kv: Vec<KvRec> = uniform_u64(10_000, 3)
            .into_iter()
            .enumerate()
            .map(|(i, r)| KvRec::new(r.0, i as u64))
            .collect();
        let mut expected = kv.clone();
        expected.sort_unstable();
        parallel_radix_sort(&mut kv, 4);
        assert_eq!(kv, expected);
    }

    #[test]
    fn radix_sort_is_stable() {
        // Sort KvRec by full (key, value): radix over key only would not
        // show stability, so craft duplicate keys with ordered values and
        // check values stay in input order within equal keys.
        let mut data: Vec<KvRec> = (0..1000u64).map(|i| KvRec::new(i % 7, i)).collect();
        parallel_radix_sort(&mut data, 4);
        for w in data.windows(2) {
            if w[0].key() == w[1].key() {
                assert!(w[0].value() < w[1].value(), "stability violated");
            }
        }
    }

    #[test]
    fn handles_edge_sizes_and_thread_counts() {
        for n in [0usize, 1, 2, 255, 256, 257] {
            for threads in [1usize, 2, 7, 16] {
                let mut data = uniform_u32(n, (n + threads) as u64);
                let mut expected = data.clone();
                expected.sort_unstable();
                parallel_radix_sort(&mut data, threads);
                assert_eq!(data, expected, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn sorts_adversarial_distributions() {
        for d in [
            Distribution::Sorted,
            Distribution::Reverse,
            Distribution::FewDistinct(2),
        ] {
            let mut data = d.generate_u32(20_000, 4);
            let mut expected = data.clone();
            expected.sort_unstable();
            parallel_radix_sort(&mut data, 4);
            assert_eq!(data, expected);
        }
    }

    #[test]
    fn per_thread_chunks_cover_the_input_exactly_once() {
        for n in [1usize, 2, 3, 255, 256, 1_000, 400_000] {
            for threads in [1usize, 2, 3, 4, 7, 64] {
                let threads = threads.min(n);
                let mut next = 0;
                for t in 0..threads {
                    let range = chunk_range(n, threads, t);
                    assert_eq!(range.start, next, "n {n} threads {threads} chunk {t}");
                    next = range.end;
                }
                assert_eq!(next, n, "n {n} threads {threads}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let mut data = uniform_u32(8, 5);
        parallel_radix_sort(&mut data, 0);
    }
}
