//! Input pools and their oracles, generated from `--seed` in set-up.
//! The program under test only ever sees the arrays.

use bonsai_gensort::dist::Distribution;
use bonsai_records::{Record, U32Rec};
use bonsai_rng::Rng;

/// A fixed list of input arrays, cycled in order, each with the output
/// a correct sort must produce.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The arrays handed to the program.
    pub inputs: Vec<Vec<U32Rec>>,
    /// `sanitize` then `sort_unstable` of each input.
    pub oracles: Vec<Vec<U32Rec>>,
}

impl Pool {
    /// `count` arrays of `records` records; array `i` is drawn from
    /// `dists[i % dists.len()]`. `stream` separates the pools of one
    /// workload so no two share an array.
    #[must_use]
    pub fn generate(
        seed: u64,
        stream: u64,
        count: usize,
        records: usize,
        dists: &[Distribution],
    ) -> Self {
        let mut seeds = Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let inputs: Vec<Vec<U32Rec>> = (0..count)
            .map(|i| dists[i % dists.len()].generate_u32(records, seeds.next_u64()))
            .collect();
        let oracles = inputs
            .iter()
            .map(|input| {
                let mut sorted: Vec<U32Rec> = input.iter().map(|r| r.sanitize()).collect();
                sorted.sort_unstable();
                sorted
            })
            .collect();
        Self { inputs, oracles }
    }

    /// Arrays in the pool.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether the pool holds no arrays.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Records in each array.
    #[must_use]
    pub fn records(&self) -> usize {
        self.inputs.first().map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let dists = [Distribution::Uniform];
        let a = Pool::generate(11, 0, 3, 100, &dists);
        let b = Pool::generate(11, 0, 3, 100, &dists);
        let c = Pool::generate(12, 0, 3, 100, &dists);
        let d = Pool::generate(11, 1, 3, 100, &dists);
        assert_eq!(a.inputs, b.inputs);
        assert_ne!(a.inputs, c.inputs);
        assert_ne!(a.inputs, d.inputs);
        assert!(a.oracles[0].windows(2).all(|w| w[0] <= w[1]));
    }
}
