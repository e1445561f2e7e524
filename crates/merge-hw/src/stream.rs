//! Zero-append / zero-filter stream helpers (§V-B of the paper).
//!
//! The hardware appends one terminal (zero) record after every sorted run
//! entering the tree (*zero append*) and strips terminal records at the
//! tree output (*zero filter*). These functions are the software image of
//! those two units, converting between [`RunSet`]s and terminal-delimited
//! record streams.

use bonsai_records::run::RunSet;
use bonsai_records::Record;

/// Error returned by [`split_runs`] for a malformed terminal-delimited
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The stream ended in the middle of a run (no trailing terminal).
    MissingTerminal,
}

impl core::fmt::Display for StreamError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StreamError::MissingTerminal => write!(f, "stream ends without a terminal record"),
        }
    }
}

impl std::error::Error for StreamError {}

/// *Zero append*: flattens a run set into a single record stream with one
/// terminal record after each run.
///
/// # Example
///
/// ```
/// use bonsai_merge_hw::stream::append_terminals;
/// use bonsai_records::run::RunSet;
/// use bonsai_records::{Record, U32Rec};
///
/// let runs = RunSet::from_chunks(vec![U32Rec::new(2), U32Rec::new(1)], 1);
/// let stream = append_terminals(&runs);
/// assert_eq!(stream.len(), 4);
/// assert!(stream[1].is_terminal() && stream[3].is_terminal());
/// ```
pub fn append_terminals<R: Record>(runs: &RunSet<R>) -> Vec<R> {
    let mut out = Vec::with_capacity(runs.len() + runs.num_runs());
    for run in runs.iter_runs() {
        out.extend_from_slice(run);
        out.push(R::TERMINAL);
    }
    out
}

/// Parses a terminal-delimited stream back into a [`RunSet`] (the inverse
/// of [`append_terminals`]).
///
/// # Errors
///
/// Returns [`StreamError::MissingTerminal`] if the stream does not end
/// with a terminal record.
pub fn split_runs<R: Record>(stream: &[R]) -> Result<RunSet<R>, StreamError> {
    let mut records = Vec::with_capacity(stream.len());
    let mut starts = Vec::new();
    let mut at_run_start = true;
    for &rec in stream {
        if rec.is_terminal() {
            at_run_start = true;
        } else {
            if at_run_start {
                starts.push(records.len());
                at_run_start = false;
            }
            records.push(rec);
        }
    }
    if !at_run_start {
        return Err(StreamError::MissingTerminal);
    }
    Ok(RunSet::from_parts(records, starts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_records::U32Rec;

    fn recs(vals: &[u32]) -> Vec<U32Rec> {
        vals.iter().map(|&v| U32Rec::new(v)).collect()
    }

    #[test]
    fn append_then_split_roundtrips() {
        let runs = RunSet::from_chunks(recs(&[4, 2, 9, 7, 5]), 2);
        let stream = append_terminals(&runs);
        let back = split_runs(&stream).unwrap();
        assert_eq!(back, runs);
    }

    #[test]
    fn split_rejects_missing_terminal() {
        let stream = recs(&[1, 2, 3]);
        assert_eq!(split_runs(&stream), Err(StreamError::MissingTerminal));
    }

    #[test]
    fn split_handles_empty_runs() {
        // Two consecutive terminals = an empty run boundary; empty runs
        // simply vanish (the hardware zero filter drops them too).
        let mut stream = recs(&[1]);
        stream.push(U32Rec::TERMINAL);
        stream.push(U32Rec::TERMINAL);
        let runs = split_runs(&stream).unwrap();
        assert_eq!(runs.num_runs(), 1);
        assert_eq!(runs.records(), recs(&[1]).as_slice());
    }

    #[test]
    fn empty_runset_produces_empty_stream() {
        let runs: RunSet<U32Rec> = RunSet::from_unsorted(vec![]);
        assert!(append_terminals(&runs).is_empty());
    }
}
