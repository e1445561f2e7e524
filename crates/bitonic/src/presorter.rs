//! The half-merger and presorter building blocks.

use bonsai_records::Record;

use crate::network::{merge_network, sorter_network, Network};

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
    network: Network,
}

impl Presorter {
    /// Builds a presorter for `chunk`-record chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is not a power of two or is less than 2.
    pub fn new(chunk: usize) -> Self {
        assert!(
            chunk.is_power_of_two() && chunk >= 2,
            "presorter chunk must be a power of two >= 2"
        );
        Self {
            chunk,
            network: sorter_network(chunk),
        }
    }

    /// Chunk length in records.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Pipeline depth in cycles.
    pub fn depth(&self) -> usize {
        self.network.depth()
    }

    /// Number of compare-and-exchange units.
    pub fn cas_count(&self) -> usize {
        self.network.cas_count()
    }

    /// Sorts each consecutive `chunk`-record chunk of `data` in place. A
    /// trailing partial chunk is padded with [`Record::MAX`] internally.
    pub fn presort<R: Record>(&self, data: &mut [R]) {
        let mut chunks = data.chunks_exact_mut(self.chunk);
        for chunk in &mut chunks {
            self.network.apply(chunk);
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            // The padding sorts to the end, behind the tail's records.
            let mut lanes = vec![R::MAX; self.chunk];
            lanes[..tail.len()].copy_from_slice(tail);
            self.network.apply(&mut lanes);
            tail.copy_from_slice(&lanes[..tail.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_records::{U32Rec, W512Rec};

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
