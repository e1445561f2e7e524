//! The half-merger and presorter building blocks.

use bonsai_records::Record;

use crate::network::{merge_network, sorter_blocks, Network};

/// A `2k`-record bitonic half-merger: merges two sorted `k`-record tuples
/// into one sorted `2k`-record tuple (§II-A).
///
/// In hardware this is a fully pipelined network accepting one tuple pair
/// per cycle with latency [`HalfMerger::depth`]; functionally it computes
/// an exact 2-way merge of the tuples.
///
/// # Example
///
/// ```
/// use bonsai_bitonic::HalfMerger;
/// use bonsai_records::U64Rec;
///
/// let hm = HalfMerger::new(2);
/// let out = hm.merge(&[U64Rec::new(1), U64Rec::new(9)], &[U64Rec::new(2), U64Rec::new(3)]);
/// assert_eq!(out, vec![U64Rec::new(1), U64Rec::new(2), U64Rec::new(3), U64Rec::new(9)]);
/// ```
#[derive(Debug, Clone)]
pub struct HalfMerger {
    k: usize,
    network: Network,
}

impl HalfMerger {
    /// Builds a half-merger for `k`-record tuples.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two.
    pub fn new(k: usize) -> Self {
        assert!(k.is_power_of_two(), "tuple width must be a power of two");
        Self {
            k,
            network: merge_network(2 * k),
        }
    }

    /// Tuple width `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Pipeline depth in cycles (`log₂(2k)`).
    pub fn depth(&self) -> usize {
        self.network.depth()
    }

    /// Number of compare-and-exchange units (`k·log₂(2k)`).
    pub fn cas_count(&self) -> usize {
        self.network.cas_count()
    }

    /// Merges two sorted tuples of at most `k` records each; short tuples
    /// are padded with [`Record::MAX`] and the padding is dropped from the
    /// output, mirroring how the hardware pads partial batches.
    ///
    /// # Panics
    ///
    /// Panics if either tuple is longer than `k`, or (in debug builds) if
    /// either tuple is not sorted.
    pub fn merge<R: Record>(&self, a: &[R], b: &[R]) -> Vec<R> {
        assert!(a.len() <= self.k, "left tuple exceeds width k");
        assert!(b.len() <= self.k, "right tuple exceeds width k");
        debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "left tuple unsorted");
        debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "right tuple unsorted");

        let mut lanes = Vec::with_capacity(2 * self.k);
        lanes.extend_from_slice(a);
        lanes.resize(self.k, R::MAX);
        // Second half must be descending for a bitonic input.
        let mut b_padded = Vec::with_capacity(self.k);
        b_padded.extend_from_slice(b);
        b_padded.resize(self.k, R::MAX);
        lanes.extend(b_padded.into_iter().rev());

        self.network.apply(&mut lanes);
        lanes.truncate(a.len() + b.len());
        lanes
    }
}

/// The bitonic presorter of §VI-C1: sorts consecutive `chunk`-record
/// chunks of the input stream, one chunk per cycle once the pipeline is
/// full.
///
/// The paper uses a 16-record presorter in front of the first merge stage,
/// which removes one merge stage and saves 10–20 % of total sort time.
/// On the host a chunk is a `[R; chunk]` lane array, one type per
/// supported width, so the network's compare-and-exchange schedule
/// ([`sorter_network`](crate::sorter_network)'s) is fixed at compile time.
///
/// # Example
///
/// ```
/// use bonsai_bitonic::Presorter;
/// use bonsai_records::U32Rec;
///
/// let ps = Presorter::new(4);
/// let mut data: Vec<U32Rec> = [4u32, 2, 3, 1, 8, 6, 7, 5].map(U32Rec::new).to_vec();
/// ps.presort(&mut data);
/// assert_eq!(data, [1u32, 2, 3, 4, 5, 6, 7, 8].map(U32Rec::new).to_vec());
/// ```
#[derive(Debug, Clone)]
pub struct Presorter {
    chunk: usize,
}

impl Presorter {
    /// Builds a presorter for `chunk`-record chunks.
    ///
    /// # Panics
    ///
    /// Panics unless `chunk` is a power of two from 2 to 64, the widths
    /// the presorter is built for.
    pub fn new(chunk: usize) -> Self {
        assert!(
            chunk.is_power_of_two() && (2..=64).contains(&chunk),
            "presorter chunk must be a power of two from 2 to 64"
        );
        Self { chunk }
    }

    /// Chunk length in records.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Pipeline depth in cycles: `log₂c·(log₂c+1)/2` stages.
    pub fn depth(&self) -> usize {
        let log = self.chunk.trailing_zeros() as usize;
        log * (log + 1) / 2
    }

    /// Number of compare-and-exchange units: `c/2` per stage.
    pub fn cas_count(&self) -> usize {
        self.depth() * self.chunk / 2
    }

    /// Sorts each consecutive `chunk`-record chunk of `data` in place. A
    /// trailing partial chunk is padded with [`Record::MAX`] internally.
    pub fn presort<R: Record>(&self, data: &mut [R]) {
        match self.chunk {
            2 => presort_lanes::<R, 2>(data),
            4 => presort_lanes::<R, 4>(data),
            8 => presort_lanes::<R, 8>(data),
            16 => presort_lanes::<R, 16>(data),
            32 => presort_lanes::<R, 32>(data),
            64 => presort_lanes::<R, 64>(data),
            _ => unreachable!("Presorter::new admits only these widths"),
        }
    }
}

/// Sorts every `W`-record chunk of `data` on a lane array; the partial
/// tail is padded with [`Record::MAX`], which sorts behind its records.
fn presort_lanes<R: Record, const W: usize>(data: &mut [R]) {
    let mut chunks = data.chunks_exact_mut(W);
    for chunk in &mut chunks {
        sort_lanes::<R, W>(chunk.try_into().expect("an exact chunk"));
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let mut lanes = [R::MAX; W];
        lanes[..tail.len()].copy_from_slice(tail);
        sort_lanes(&mut lanes);
        tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// Runs the bitonic sorter over `W` lanes. With the width a constant,
/// every block's bounds are known at compile time, so each block is a
/// straight compare-and-exchange of two lane ranges, which the compiler
/// may vectorize. A unit is one compare and a select, as wired in
/// hardware; it selects which of the two records goes where and then
/// copies them, so a wide record is not moved word by word through
/// each select. Never inlined: one copy per width serves the whole
/// chunks and the padded tail, which keeps the six widths' unrolled
/// code small.
#[inline(never)]
fn sort_lanes<T: Ord + Copy, const W: usize>(lanes: &mut [T; W]) {
    sorter_blocks(W, |start, j, ascending| {
        let (low, high) = lanes[start..start + 2 * j].split_at_mut(j);
        for (x, y) in low.iter_mut().zip(high) {
            let (a, b) = (*x, *y);
            let swap = if ascending { b < a } else { a < b };
            let (to_x, to_y) = if swap { (&b, &a) } else { (&a, &b) };
            *x = *to_x;
            *y = *to_y;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::sorter_network;
    use bonsai_records::{U32Rec, W512Rec};
    use core::cell::RefCell;
    use core::cmp::Ordering;

    std::thread_local! {
        /// Every comparison a probe lane made, as `(self, other)`.
        static COMPARED: RefCell<Vec<(u8, u8)>> = const { RefCell::new(Vec::new()) };
    }

    /// A lane that logs its comparisons.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Probe(u8);

    impl Ord for Probe {
        fn cmp(&self, other: &Self) -> Ordering {
            COMPARED.with_borrow_mut(|log| log.push((self.0, other.0)));
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Probe {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The CAS units `sort_lanes` runs over `W` lanes, in order, read
    /// back from the comparisons of distinct probe values: each unit
    /// compares the record on its `hi` lane with the one on its `lo`
    /// lane, and a replay on value positions turns them into lanes.
    fn compiled_units<const W: usize>(seed: usize) -> Vec<(usize, usize)> {
        let mut lanes: [Probe; W] = core::array::from_fn(|i| Probe(((i * 37 + seed) % W) as u8));
        let mut at: Vec<usize> = vec![0; W];
        for (lane, probe) in lanes.iter().enumerate() {
            at[usize::from(probe.0)] = lane;
        }
        COMPARED.with_borrow_mut(Vec::clear);
        sort_lanes(&mut lanes);
        let compared = COMPARED.with_borrow_mut(core::mem::take);
        compared
            .into_iter()
            .map(|(hi_value, lo_value)| {
                let (lo, hi) = (at[usize::from(lo_value)], at[usize::from(hi_value)]);
                if hi_value < lo_value {
                    at.swap(usize::from(lo_value), usize::from(hi_value));
                }
                (lo, hi)
            })
            .collect()
    }

    /// The presorter runs exactly `sorter_network(w)`'s CAS units in
    /// pipeline order, at every width.
    #[test]
    fn compiled_schedule_is_the_sorter_network_flattened() {
        fn check<const W: usize>() {
            let want: Vec<(usize, usize)> = sorter_network(W).stages().concat();
            for seed in 0..3 {
                assert_eq!(compiled_units::<W>(seed), want, "{W} lanes");
            }
            let ps = Presorter::new(W);
            assert_eq!(ps.depth(), sorter_network(W).depth());
            assert_eq!(ps.cas_count(), want.len());
        }
        check::<2>();
        check::<4>();
        check::<8>();
        check::<16>();
        check::<32>();
        check::<64>();
    }

    fn recs(vals: &[u32]) -> Vec<U32Rec> {
        vals.iter().map(|&v| U32Rec::new(v)).collect()
    }

    #[test]
    fn half_merger_merges_equal_width() {
        let hm = HalfMerger::new(8);
        let a = recs(&[1, 3, 5, 7, 9, 11, 13, 15]);
        let b = recs(&[2, 4, 6, 8, 10, 12, 14, 16]);
        let out = hm.merge(&a, &b);
        assert_eq!(out, recs(&(1..=16).collect::<Vec<_>>()));
    }

    #[test]
    fn half_merger_handles_short_tuples() {
        let hm = HalfMerger::new(4);
        let out = hm.merge(&recs(&[5, 9]), &recs(&[1]));
        assert_eq!(out, recs(&[1, 5, 9]));
        let out = hm.merge(&recs(&[]), &recs(&[2, 3]));
        assert_eq!(out, recs(&[2, 3]));
    }

    #[test]
    fn half_merger_handles_duplicates() {
        let hm = HalfMerger::new(4);
        let out = hm.merge(&recs(&[2, 2, 2, 2]), &recs(&[2, 2, 2, 2]));
        assert_eq!(out, recs(&[2; 8]));
    }

    #[test]
    fn half_merger_depth_and_cas_match_paper() {
        // 2k-record half-merger: latency log₂(2k), k·log₂(2k) CAS units.
        for log_k in 0..=5 {
            let k = 1usize << log_k;
            let hm = HalfMerger::new(k);
            assert_eq!(hm.depth(), log_k + 1);
            assert_eq!(hm.cas_count(), k * (log_k + 1));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn half_merger_rejects_oversized_tuple() {
        let hm = HalfMerger::new(2);
        let _ = hm.merge(&recs(&[1, 2, 3]), &recs(&[4]));
    }

    #[test]
    fn presorter_sorts_partial_tail() {
        let ps = Presorter::new(8);
        let mut data = recs(&[9, 1, 8, 2, 7, 3, 6, 4, 11, 10, 12]);
        ps.presort(&mut data);
        assert_eq!(&data[..8], recs(&[1, 2, 3, 4, 6, 7, 8, 9]).as_slice());
        assert_eq!(&data[8..], recs(&[10, 11, 12]).as_slice());
    }

    #[test]
    fn presorter_wide_records() {
        let ps = Presorter::new(4);
        let mut data: Vec<W512Rec> = (0..8u64)
            .rev()
            .map(|i| W512Rec::new([i, 0, 0, 0, 0, 0, 0, 1]))
            .collect();
        ps.presort(&mut data);
        assert!(data[..4].windows(2).all(|w| w[0] <= w[1]));
        assert!(data[4..].windows(2).all(|w| w[0] <= w[1]));
    }
}
