//! Sorted-run bookkeeping.
//!
//! A merge sort proceeds in *stages* (§II of the paper): at each stage the
//! AMT merges `ℓ` sorted runs into one, so the `k`-th stage produces
//! `ℓ^k`-record runs and sorting an `N`-record array takes
//! `ceil(log_ℓ N)` stages. [`RunSet`] is the in-memory representation of an
//! array partitioned into sorted runs, and the free functions here compute
//! the stage arithmetic the performance model relies on.

use crate::Record;

/// Number of merge stages required to reduce `n_runs` sorted runs to one
/// by merging `fan_in` runs at a time — `ceil(log_fan_in(n_runs))`.
///
/// Returns 0 when the input is already a single run (or empty).
///
/// # Panics
///
/// Panics if `fan_in < 2`.
///
/// # Example
///
/// ```
/// use bonsai_records::run::stages_needed;
///
/// assert_eq!(stages_needed(1, 16), 0);
/// assert_eq!(stages_needed(16, 16), 1);
/// assert_eq!(stages_needed(17, 16), 2);
/// assert_eq!(stages_needed(256, 16), 2);
/// ```
pub fn stages_needed(n_runs: u64, fan_in: u64) -> u32 {
    assert!(fan_in >= 2, "merge fan-in must be at least 2");
    if n_runs <= 1 {
        return 0;
    }
    let mut stages = 0u32;
    let mut runs = n_runs;
    while runs > 1 {
        runs = runs.div_ceil(fan_in);
        stages += 1;
    }
    stages
}

/// Number of initial sorted runs for an `n`-record array whose input is
/// pre-sorted into `presort`-record chunks (the paper presorts into
/// 16-record runs with a bitonic network, §VI-C1).
///
/// With `presort == 1` (no presorter) every record is its own run.
///
/// # Panics
///
/// Panics if `presort` is zero.
pub fn initial_runs(n: u64, presort: u64) -> u64 {
    assert!(presort >= 1, "presort run length must be at least 1");
    n.div_ceil(presort).max(1)
}

/// Checks that a slice is sorted (non-decreasing).
///
/// # Example
///
/// ```
/// use bonsai_records::run::is_sorted;
/// use bonsai_records::U32Rec;
///
/// let sorted = [U32Rec::new(1), U32Rec::new(2), U32Rec::new(2)];
/// assert!(is_sorted(&sorted));
/// ```
pub fn is_sorted<R: Record>(records: &[R]) -> bool {
    records.windows(2).all(|w| w[0] <= w[1])
}

/// An array of records partitioned into consecutive sorted runs.
///
/// This is the software image of the paper's off-chip memory layout: runs
/// occupy disjoint contiguous address ranges, and each stage of the sort
/// reads `ℓ` runs and writes one longer run.
///
/// # Example
///
/// ```
/// use bonsai_records::run::RunSet;
/// use bonsai_records::U32Rec;
///
/// let data: Vec<U32Rec> = [3u32, 1, 4, 1, 5, 9].iter().map(|&v| U32Rec::new(v)).collect();
/// let runs = RunSet::from_unsorted(data);
/// assert_eq!(runs.num_runs(), 6);
/// assert!(runs.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSet<R> {
    records: Vec<R>,
    /// Run start offsets; always begins with 0 and the implicit end is
    /// `records.len()`. Empty iff `records` is empty.
    starts: Vec<usize>,
}

/// Error returned by [`RunSet::validate`] when a run is not sorted or a
/// record holds the reserved terminal value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunSetError {
    /// Run `run` is out of order at index `at` (global index).
    Unsorted {
        /// Which run (by index) is broken.
        run: usize,
        /// Global record index where the order violation occurs.
        at: usize,
    },
    /// A record at global index `at` equals the reserved terminal record.
    TerminalRecord {
        /// Global record index of the offending record.
        at: usize,
    },
}

impl core::fmt::Display for RunSetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunSetError::Unsorted { run, at } => {
                write!(f, "run {run} is not sorted at record index {at}")
            }
            RunSetError::TerminalRecord { at } => {
                write!(f, "record at index {at} holds the reserved terminal value")
            }
        }
    }
}

impl std::error::Error for RunSetError {}

impl<R: Record> RunSet<R> {
    /// Builds a run set from unsorted data: every record is a 1-record run.
    pub fn from_unsorted(records: Vec<R>) -> Self {
        let starts = (0..records.len()).collect();
        Self { records, starts }
    }

    /// Builds a run set whose runs are consecutive `chunk_len`-record
    /// chunks (the last run may be shorter). Each chunk is sorted in
    /// place — this models the hardware presorter (§VI-C1).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn from_chunks(mut records: Vec<R>, chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        let mut starts = Vec::with_capacity(records.len().div_ceil(chunk_len));
        let mut offset = 0;
        while offset < records.len() {
            starts.push(offset);
            let end = (offset + chunk_len).min(records.len());
            records[offset..end].sort_unstable();
            offset = end;
        }
        Self { records, starts }
    }

    /// Builds a run set from already-sorted runs given by start offsets.
    ///
    /// # Panics
    ///
    /// Panics if `starts` is not strictly increasing from 0, or exceeds
    /// `records.len()`.
    pub fn from_parts(records: Vec<R>, starts: Vec<usize>) -> Self {
        if records.is_empty() {
            assert!(starts.is_empty(), "empty run set must have no runs");
        } else {
            assert_eq!(starts.first(), Some(&0), "first run must start at 0");
            assert!(
                starts.windows(2).all(|w| w[0] < w[1]),
                "run starts must be strictly increasing"
            );
            assert!(
                *starts.last().expect("nonempty") < records.len(),
                "last run must be nonempty"
            );
        }
        Self { records, starts }
    }

    /// Total number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the set holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of sorted runs.
    pub fn num_runs(&self) -> usize {
        self.starts.len()
    }

    /// Borrows the underlying records.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Consumes the set, returning the underlying records.
    pub fn into_records(self) -> Vec<R> {
        self.records
    }

    /// The start offset of every run, ascending; run `i` ends where run
    /// `i + 1` starts (the last at [`RunSet::len`]).
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Consumes the set, returning the records and the run starts — the
    /// inverse of [`RunSet::from_parts`].
    pub fn into_parts(self) -> (Vec<R>, Vec<usize>) {
        (self.records, self.starts)
    }

    /// Returns the `i`-th run as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_runs()`.
    pub fn run(&self, i: usize) -> &[R] {
        let start = self.starts[i];
        let end = self
            .starts
            .get(i + 1)
            .copied()
            .unwrap_or(self.records.len());
        &self.records[start..end]
    }

    /// Iterates over the runs as slices.
    pub fn iter_runs(&self) -> impl Iterator<Item = &[R]> + '_ {
        (0..self.num_runs()).map(move |i| self.run(i))
    }

    /// Validates that every run is sorted and no record holds the reserved
    /// terminal value.
    ///
    /// # Errors
    ///
    /// Returns a [`RunSetError`] identifying the first violation.
    pub fn validate(&self) -> Result<(), RunSetError> {
        for (run_idx, run_start) in self.starts.iter().copied().enumerate() {
            let run = self.run(run_idx);
            for (off, pair) in run.windows(2).enumerate() {
                if pair[0] > pair[1] {
                    return Err(RunSetError::Unsorted {
                        run: run_idx,
                        at: run_start + off + 1,
                    });
                }
            }
        }
        if let Some(at) = self.records.iter().position(Record::is_terminal) {
            return Err(RunSetError::TerminalRecord { at });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::U32Rec;

    fn recs(vals: &[u32]) -> Vec<U32Rec> {
        vals.iter().map(|&v| U32Rec::new(v)).collect()
    }

    #[test]
    fn stages_needed_matches_log_formula() {
        // ceil(log_16(2^30)) = ceil(30/4) = 8 for single-record runs.
        assert_eq!(stages_needed(1 << 30, 16), 8);
        assert_eq!(stages_needed(256, 256), 1);
        assert_eq!(stages_needed(257, 256), 2);
        assert_eq!(stages_needed(0, 2), 0);
    }

    #[test]
    #[should_panic(expected = "fan-in")]
    fn stages_needed_rejects_fan_in_one() {
        let _ = stages_needed(10, 1);
    }

    #[test]
    fn initial_runs_with_presorter() {
        assert_eq!(initial_runs(1000, 16), 63);
        assert_eq!(initial_runs(1024, 16), 64);
        assert_eq!(initial_runs(5, 16), 1);
        assert_eq!(initial_runs(7, 1), 7);
    }

    #[test]
    fn from_chunks_sorts_each_chunk() {
        let rs = RunSet::from_chunks(recs(&[9, 3, 7, 1, 5, 2, 8]), 4);
        assert_eq!(rs.num_runs(), 2);
        assert_eq!(rs.run(0), recs(&[1, 3, 7, 9]).as_slice());
        assert_eq!(rs.run(1), recs(&[2, 5, 8]).as_slice());
        assert!(rs.validate().is_ok());
    }

    #[test]
    fn from_unsorted_has_unit_runs() {
        let rs = RunSet::from_unsorted(recs(&[5, 4, 3]));
        assert_eq!(rs.num_runs(), 3);
        assert!(rs.validate().is_ok());
    }

    #[test]
    fn validate_catches_unsorted_run() {
        let rs = RunSet::from_parts(recs(&[1, 3, 2]), vec![0]);
        assert_eq!(rs.validate(), Err(RunSetError::Unsorted { run: 0, at: 2 }));
    }

    #[test]
    fn validate_catches_terminal_record() {
        let rs = RunSet::from_parts(recs(&[0, 1, 2]), vec![0]);
        assert_eq!(rs.validate(), Err(RunSetError::TerminalRecord { at: 0 }));
    }

    #[test]
    fn empty_run_set_is_sorted() {
        let rs: RunSet<U32Rec> = RunSet::from_unsorted(vec![]);
        assert!(rs.is_empty());
        assert_eq!(rs.num_runs(), 0);
        assert!(rs.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_bad_starts() {
        let _ = RunSet::from_parts(recs(&[1, 2, 3]), vec![0, 2, 2]);
    }
}
