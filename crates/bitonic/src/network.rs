//! Explicit compare-and-exchange schedules for bitonic networks.

/// A fixed compare-and-exchange network over `width` lanes.
///
/// The network is a sequence of *stages*; each stage is a set of disjoint
/// lane pairs `(lo, hi)` whose CAS unit guarantees `lanes[lo] <= lanes[hi]`
/// afterwards. In hardware every stage is one pipeline cut, so
/// [`Network::depth`] is the pipeline latency in cycles and
/// [`Network::cas_count`] is proportional to LUT cost.
///
/// # Example
///
/// ```
/// use bonsai_bitonic::sorter_network;
///
/// let net = sorter_network(8);
/// let mut lanes = [5u32, 1, 4, 2, 8, 7, 3, 6];
/// net.apply(&mut lanes);
/// assert_eq!(lanes, [1, 2, 3, 4, 5, 6, 7, 8]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Network {
    width: usize,
    stages: Vec<Vec<(usize, usize)>>,
}

impl Network {
    fn new(width: usize, stages: Vec<Vec<(usize, usize)>>) -> Self {
        debug_assert!(stages
            .iter()
            .flatten()
            .all(|&(a, b)| a < width && b < width && a != b));
        Self { width, stages }
    }

    /// Number of input/output lanes.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Pipeline depth: the number of CAS stages.
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Total number of compare-and-exchange units.
    pub fn cas_count(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// The stages of the network, each a set of disjoint `(lo, hi)` pairs.
    pub fn stages(&self) -> &[Vec<(usize, usize)>] {
        &self.stages
    }

    /// Runs the network over `lanes` in place. Each CAS unit is what the
    /// hardware wires up: one compare and two selects, no branch on the
    /// data.
    ///
    /// # Panics
    ///
    /// Panics if `lanes.len() != self.width()`.
    pub fn apply<T: Ord + Copy>(&self, lanes: &mut [T]) {
        assert_eq!(
            lanes.len(),
            self.width,
            "lane count must match network width"
        );
        for &(lo, hi) in self.stages.iter().flatten() {
            let (a, b) = (lanes[lo], lanes[hi]);
            let swap = b < a;
            lanes[lo] = if swap { b } else { a };
            lanes[hi] = if swap { a } else { b };
        }
    }
}

fn assert_power_of_two(n: usize, what: &str) {
    assert!(
        n.is_power_of_two(),
        "{what} must be a power of two, got {n}"
    );
}

/// Builds the bitonic **merge** network over `n` lanes (`n` a power of two).
///
/// The input must be bitonic: ascending in lanes `0..n/2` and descending in
/// lanes `n/2..n` (callers merge two ascending runs by reversing the second
/// one). The output is fully sorted ascending. Depth is `log₂ n`; CAS count
/// is `(n/2)·log₂ n`.
///
/// # Panics
///
/// Panics if `n` is not a power of two or is less than 2.
pub fn merge_network(n: usize) -> Network {
    assert_power_of_two(n, "merge network width");
    assert!(n >= 2, "merge network needs at least two lanes");
    let mut stages = Vec::new();
    let mut j = n / 2;
    while j >= 1 {
        let mut stage = Vec::with_capacity(n / 2);
        for i in 0..n {
            let l = i ^ j;
            if l > i {
                stage.push((i, l));
            }
        }
        stages.push(stage);
        j /= 2;
    }
    Network::new(n, stages)
}

/// Builds the full bitonic **sorting** network over `n` lanes (`n` a power
/// of two), Batcher's construction: depth `log₂n·(log₂n+1)/2` stages.
///
/// # Panics
///
/// Panics if `n` is not a power of two or is less than 2.
pub fn sorter_network(n: usize) -> Network {
    assert_power_of_two(n, "sorter network width");
    assert!(n >= 2, "sorter network needs at least two lanes");
    let mut stages: Vec<Vec<(usize, usize)>> = Vec::new();
    sorter_blocks(n, |start, j, ascending| {
        if start == 0 {
            stages.push(Vec::with_capacity(n / 2));
        }
        let stage = stages.last_mut().expect("every stage opens at lane 0");
        stage.extend((start..start + j).map(|i| {
            if ascending {
                (i, i + j) // ascending block
            } else {
                (i + j, i) // descending block
            }
        }));
    });
    Network::new(n, stages)
}

/// Batcher's bitonic sorter over `n` lanes, block by block: calls
/// `block(start, j, ascending)` for each stage's blocks in lane order,
/// the stages in pipeline order. A block compares lane `start + t` with
/// lane `start + j + t` for every `t < j` and keeps the smaller record
/// on the lower lane when `ascending`, on the upper one otherwise.
///
/// The sorter's one definition: [`sorter_network`] lists its CAS units
/// and the presorter runs it on a lane array.
#[inline(always)]
pub(crate) fn sorter_blocks(n: usize, mut block: impl FnMut(usize, usize, bool)) {
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j >= 1 {
            let mut start = 0;
            while start < n {
                block(start, j, start & k == 0);
                start += 2 * j;
            }
            j /= 2;
        }
        k *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorter_sorts_all_descending() {
        let net = sorter_network(16);
        let mut lanes: Vec<u32> = (0..16).rev().collect();
        net.apply(&mut lanes);
        assert_eq!(lanes, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn sorter_depth_matches_batcher_formula() {
        for log_n in 1..=7 {
            let n = 1usize << log_n;
            let net = sorter_network(n);
            assert_eq!(net.depth(), log_n * (log_n + 1) / 2, "n = {n}");
            assert_eq!(net.cas_count(), net.depth() * n / 2, "n = {n}");
        }
    }

    #[test]
    fn merge_depth_is_log_n() {
        for log_n in 1..=7 {
            let n = 1usize << log_n;
            let net = merge_network(n);
            assert_eq!(net.depth(), log_n);
            assert_eq!(net.cas_count(), log_n * n / 2);
        }
    }

    #[test]
    fn merge_network_merges_bitonic_input() {
        let net = merge_network(8);
        // ascending then descending = bitonic
        let mut lanes = [1u32, 4, 6, 9, 8, 5, 3, 2];
        net.apply(&mut lanes);
        assert_eq!(lanes, [1, 2, 3, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn zero_one_principle_sorter_width_8() {
        // Exhaustively verify the 8-lane sorter on all 0/1 inputs; by the
        // 0-1 principle this proves it sorts arbitrary inputs.
        let net = sorter_network(8);
        for bits in 0u32..256 {
            let mut lanes: Vec<u8> = (0..8).map(|i| ((bits >> i) & 1) as u8).collect();
            net.apply(&mut lanes);
            assert!(lanes.windows(2).all(|w| w[0] <= w[1]), "bits = {bits:#b}");
        }
    }

    #[test]
    fn zero_one_principle_merge_width_8() {
        // All bitonic 0/1 inputs of width 8: ascending 0/1 prefix is a run
        // of zeros then ones; descending is ones then zeros.
        let net = merge_network(8);
        for zeros_a in 0..=4usize {
            for ones_b in 0..=4usize {
                let mut lanes = vec![0u8; 8];
                for lane in lanes.iter_mut().take(4).skip(zeros_a) {
                    *lane = 1;
                }
                for lane in lanes.iter_mut().take(4 + ones_b).skip(4) {
                    *lane = 1;
                }
                net.apply(&mut lanes);
                assert!(
                    lanes.windows(2).all(|w| w[0] <= w[1]),
                    "zeros_a={zeros_a} ones_b={ones_b}"
                );
            }
        }
    }

    #[test]
    fn stages_have_disjoint_lanes() {
        for net in [sorter_network(32), merge_network(64)] {
            for stage in net.stages() {
                let mut seen = vec![false; net.width()];
                for &(a, b) in stage {
                    assert!(!seen[a] && !seen[b], "lane reused within a stage");
                    seen[a] = true;
                    seen[b] = true;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn sorter_rejects_non_power_of_two() {
        let _ = sorter_network(6);
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn apply_rejects_wrong_width() {
        let net = sorter_network(4);
        let mut lanes = [1u32, 2];
        net.apply(&mut lanes);
    }
}
