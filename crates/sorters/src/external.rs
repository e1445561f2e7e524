//! A real external merge sorter over files, structured exactly like the
//! paper's two-phase SSD sorter (§IV-C).
//!
//! Phase one reads the input in memory-budget-sized chunks, sorts each
//! with the AMT merge schedule, and writes sorted *run files* to a
//! scratch directory — the software image of "sort as much data as would
//! fit onto DRAM before sending the data back to SSD". Phase two
//! streams up to `fan_in` run files at a time through a k-way merge into
//! longer runs until one remains — one "SSD round trip" per pass, with
//! the same `ceil(log_fan_in(runs))` pass count the paper's model uses.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bonsai_amt::{functional, LoserTree};
use bonsai_check::{codes, Diagnostic};
use bonsai_records::wire::WireRecord;

/// Statistics from one external sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalSortStats {
    /// Records sorted.
    pub records: u64,
    /// Sorted run files produced by phase one.
    pub initial_runs: u64,
    /// Merge passes executed in phase two.
    pub merge_passes: u32,
    /// Total bytes written to scratch + output (write amplification
    /// numerator; the paper's per-stage round-trip accounting).
    pub bytes_written: u64,
}

/// Configuration of the external sorter.
#[derive(Debug, Clone)]
pub struct ExternalSorter {
    /// In-memory chunk budget in bytes (the "DRAM capacity").
    mem_budget_bytes: usize,
    /// Merge fan-in per pass (the phase-two `ℓ`; 256 in the paper).
    fan_in: usize,
    /// Directory under which each sort creates (and removes) its own
    /// scratch sub-directory of run files.
    scratch_dir: PathBuf,
}

/// Numbers the scratch sub-directories of this process, so concurrent
/// sorts — two sorters, or one sorter shared by two threads — never
/// write the same run file.
static NEXT_SORT: AtomicU64 = AtomicU64::new(0);

impl ExternalSorter {
    /// Creates an external sorter with the given memory budget, using
    /// the system temp directory for scratch files.
    ///
    /// # Errors
    ///
    /// `BON090` if `mem_budget_bytes` is zero or `fan_in < 2`; its
    /// context carries both arguments.
    pub fn try_new(mem_budget_bytes: usize, fan_in: usize) -> Result<Self, Diagnostic> {
        let problem = if mem_budget_bytes == 0 {
            "memory budget must be positive"
        } else if fan_in < 2 {
            "merge fan-in must be at least 2"
        } else {
            return Ok(Self {
                mem_budget_bytes,
                fan_in,
                scratch_dir: std::env::temp_dir(),
            });
        };
        Err(Diagnostic::error(codes::EXTERNAL_SORTER_INVALID, problem)
            .with("mem_budget_bytes", mem_budget_bytes)
            .with("fan_in", fan_in))
    }

    /// [`ExternalSorter::try_new`] for arguments known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with the `BON090` diagnostic if `mem_budget_bytes` is zero
    /// or `fan_in < 2`.
    pub fn new(mem_budget_bytes: usize, fan_in: usize) -> Self {
        Self::try_new(mem_budget_bytes, fan_in).unwrap_or_else(|d| panic!("{d}"))
    }

    /// Overrides the scratch directory. The directory stays the
    /// caller's: a sort only ever creates and removes its own
    /// sub-directory of it.
    #[must_use]
    pub fn with_scratch_dir(mut self, dir: PathBuf) -> Self {
        self.scratch_dir = dir;
        self
    }

    /// Sorts the wire-format record file `input` into `output`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails with `InvalidData` on ragged files.
    pub fn sort_file<R: WireRecord>(
        &self,
        input: &Path,
        output: &Path,
    ) -> io::Result<ExternalSortStats> {
        let run_dir = self.scratch_dir.join(format!(
            "bonsai-external-{}-{}",
            std::process::id(),
            NEXT_SORT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&run_dir)?;
        let result = self.sort_file_inner::<R>(input, output, &run_dir);
        let _ = fs::remove_dir_all(&run_dir);
        result
    }

    fn sort_file_inner<R: WireRecord>(
        &self,
        input: &Path,
        output: &Path,
        run_dir: &Path,
    ) -> io::Result<ExternalSortStats> {
        let chunk_records = (self.mem_budget_bytes / R::WIDTH_BYTES).max(1);
        let mut stats = ExternalSortStats {
            records: 0,
            initial_runs: 0,
            merge_passes: 0,
            bytes_written: 0,
        };

        // Phase one: chunk -> AMT schedule sort in memory -> run file.
        let mut reader = RecordReader::<R>::open(input)?;
        let mut runs: Vec<PathBuf> = Vec::new();
        loop {
            let chunk = reader.read_chunk(chunk_records)?;
            if chunk.is_empty() {
                break;
            }
            stats.records += chunk.len() as u64;
            let (sorted, _) = functional::sort_balanced(chunk, self.fan_in.max(2), 16);
            let path = run_dir.join(format!("run-0-{}.bin", runs.len()));
            stats.bytes_written += write_run(&path, &sorted)?;
            runs.push(path);
        }
        stats.initial_runs = runs.len() as u64;
        if runs.is_empty() {
            File::create(output)?;
            return Ok(stats);
        }

        // Phase two: repeated fan-in-way merge passes over run files.
        let mut pass = 1;
        while runs.len() > 1 {
            let mut next: Vec<PathBuf> = Vec::new();
            for (g, group) in runs.chunks(self.fan_in).enumerate() {
                let path = run_dir.join(format!("run-{pass}-{g}.bin"));
                stats.bytes_written += merge_run_files::<R>(group, &path)?;
                next.push(path);
            }
            for old in &runs {
                let _ = fs::remove_file(old);
            }
            runs = next;
            stats.merge_passes += 1;
            pass += 1;
        }
        fs::rename(&runs[0], output).or_else(|_| fs::copy(&runs[0], output).map(|_| ()))?;
        Ok(stats)
    }
}

/// Buffered fixed-width record reader.
struct RecordReader<R> {
    inner: BufReader<File>,
    buf: Vec<u8>,
    _marker: core::marker::PhantomData<R>,
}

impl<R: WireRecord> RecordReader<R> {
    fn open(path: &Path) -> io::Result<Self> {
        Ok(Self {
            inner: BufReader::new(File::open(path)?),
            buf: vec![0u8; R::WIDTH_BYTES],
            _marker: core::marker::PhantomData,
        })
    }

    fn read_one(&mut self) -> io::Result<Option<R>> {
        match self.inner.read_exact(&mut self.buf) {
            Ok(()) => Ok(Some(R::read_from(&self.buf))),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The next record as a merge head, `(true, MAX)` at end of file.
    fn read_head(&mut self) -> io::Result<(bool, R)> {
        Ok(self.read_one()?.map_or((true, R::MAX), |rec| (false, rec)))
    }

    fn read_chunk(&mut self, n: usize) -> io::Result<Vec<R>> {
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            match self.read_one()? {
                Some(r) => out.push(r),
                None => break,
            }
        }
        Ok(out)
    }
}

fn write_run<R: WireRecord>(path: &Path, records: &[R]) -> io::Result<u64> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut buf = vec![0u8; R::WIDTH_BYTES];
    for rec in records {
        rec.write_to(&mut buf);
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok((records.len() * R::WIDTH_BYTES) as u64)
}

/// Streams a k-way merge of sorted run files into `output` through the
/// loser-tree kernel — one phase-two "stage".
fn merge_run_files<R: WireRecord>(inputs: &[PathBuf], output: &Path) -> io::Result<u64> {
    let mut readers = inputs
        .iter()
        .map(|p| RecordReader::<R>::open(p))
        .collect::<io::Result<Vec<_>>>()?;
    // A head is `(exhausted, record)`: a drained reader's `(true, MAX)`
    // loses to every live head, even a real `MAX` record, so while any
    // reader is live the winner is one of them.
    let heads = readers
        .iter_mut()
        .map(RecordReader::read_head)
        .collect::<io::Result<Vec<_>>>()?;
    let mut live = heads.iter().filter(|head| !head.0).count();
    let mut tree = LoserTree::default();
    tree.reset(heads, (true, R::MAX));

    let mut w = BufWriter::new(File::create(output)?);
    let mut buf = vec![0u8; R::WIDTH_BYTES];
    let mut written = 0u64;
    while live > 0 {
        tree.head().1.write_to(&mut buf);
        w.write_all(&buf)?;
        written += R::WIDTH_BYTES as u64;
        let next = readers[tree.winner()].read_head()?;
        live -= usize::from(next.0);
        tree.replace_winner(next);
    }
    w.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::uniform_u32;
    use bonsai_gensort::io::{read_wire_file, valsort, write_wire_file};
    use bonsai_records::{Record, U32Rec};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "bonsai-external-test-{name}-{}",
            std::process::id()
        ));
        p
    }

    fn run_case(n: usize, budget: usize, fan_in: usize, name: &str) -> ExternalSortStats {
        run_case_on(uniform_u32(n, n as u64 + 1), budget, fan_in, name)
    }

    fn run_case_on(
        data: Vec<U32Rec>,
        budget: usize,
        fan_in: usize,
        name: &str,
    ) -> ExternalSortStats {
        let n = data.len();
        let input = tmp(&format!("{name}-in"));
        let output = tmp(&format!("{name}-out"));
        write_wire_file(&input, &data).expect("write input");

        let scratch = tmp(&format!("{name}-scratch"));
        let sorter = ExternalSorter::new(budget, fan_in).with_scratch_dir(scratch.clone());
        let stats = sorter.sort_file::<U32Rec>(&input, &output).expect("sort");
        // The sort removed its own sub-directory, so the caller's
        // directory is empty again (`remove_dir` fails otherwise).
        fs::remove_dir(&scratch).expect("scratch dir left empty");

        let sorted: Vec<U32Rec> = read_wire_file(&output).expect("read output");
        let summary = valsort(&sorted);
        assert!(summary.is_sorted(), "{name}: output not sorted");
        assert_eq!(summary.records, n as u64);
        assert_eq!(
            summary.checksum,
            valsort(&data).checksum,
            "{name}: permutation"
        );

        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
        stats
    }

    #[test]
    fn try_new_rejects_a_zero_memory_budget() {
        let d = ExternalSorter::try_new(0, 4).unwrap_err();
        assert_eq!(d.code, codes::EXTERNAL_SORTER_INVALID);
        assert!(d.is_error());
        assert!(d.message.contains("memory budget"), "{d}");
        assert!(d.context.contains(&("mem_budget_bytes", "0".into())), "{d}");
    }

    #[test]
    fn try_new_rejects_a_fan_in_below_two() {
        for fan_in in [0, 1] {
            let d = ExternalSorter::try_new(1024, fan_in).unwrap_err();
            assert_eq!(d.code, codes::EXTERNAL_SORTER_INVALID);
            assert!(d.message.contains("fan-in"), "{d}");
            assert!(d.context.contains(&("fan_in", fan_in.to_string())), "{d}");
        }
        // The smallest valid arguments are accepted.
        assert!(ExternalSorter::try_new(1, 2).is_ok());
    }

    #[test]
    #[should_panic(expected = "BON090 [error] memory budget must be positive")]
    fn new_panics_with_the_diagnostic() {
        let _ = ExternalSorter::new(0, 4);
    }

    #[test]
    fn sorts_with_many_runs_and_multiple_passes() {
        // 50k records at 4 B, 8 KB budget -> 25 runs; fan-in 4 -> 3 passes.
        let stats = run_case(50_000, 8 * 1024, 4, "multi");
        assert_eq!(stats.initial_runs, 25);
        assert_eq!(stats.merge_passes, 3); // 25 -> 7 -> 2 -> 1
        assert_eq!(stats.records, 50_000);
    }

    #[test]
    fn max_records_outlive_drained_run_files() {
        // Three run files of 2048, 2048 and 904 records, a third of them
        // `MAX`: the short file drains while the others still hold real
        // `MAX` records that tie with its sentinel head.
        let mut data = uniform_u32(5_000, 9);
        for rec in data.iter_mut().step_by(3) {
            *rec = U32Rec::MAX;
        }
        let stats = run_case_on(data, 8 * 1024, 4, "max");
        assert_eq!(stats.initial_runs, 3);
        assert_eq!(stats.merge_passes, 1);
        assert_eq!(stats.bytes_written, 2 * 5_000 * 4);
    }

    #[test]
    fn single_chunk_skips_phase_two() {
        let stats = run_case(1_000, 1 << 20, 256, "single");
        assert_eq!(stats.initial_runs, 1);
        assert_eq!(stats.merge_passes, 0);
    }

    #[test]
    fn wide_fan_in_single_pass() {
        let stats = run_case(60_000, 4 * 1024, 256, "wide");
        assert_eq!(stats.initial_runs, 59);
        assert_eq!(stats.merge_passes, 1);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let input = tmp("empty-in");
        let output = tmp("empty-out");
        fs::write(&input, []).expect("write");
        let stats = ExternalSorter::new(1024, 4)
            .sort_file::<U32Rec>(&input, &output)
            .expect("sort");
        assert_eq!(stats.records, 0);
        assert_eq!(fs::metadata(&output).expect("exists").len(), 0);
        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn write_amplification_matches_pass_count() {
        // Each pass rewrites all data once: bytes_written =
        // (1 + merge_passes) * records * width.
        let stats = run_case(20_000, 4 * 1024, 4, "amp");
        let expected = (1 + stats.merge_passes as u64) * stats.records * 4;
        assert_eq!(stats.bytes_written, expected);
    }

    #[test]
    fn concurrent_sorts_share_a_scratch_dir_and_leave_it_alone() {
        // Two threads, one sorter, one caller-owned scratch directory
        // holding a file that is not ours: both sorts must come out
        // right (they used to overwrite each other's `run-0-0.bin`, and
        // the first to finish deleted the other's runs) and the file
        // must survive (the whole directory used to be removed).
        let scratch = tmp("shared-scratch");
        fs::create_dir_all(&scratch).expect("create scratch");
        let keep = scratch.join("keep.txt");
        fs::write(&keep, b"not a run file").expect("write");
        let sorter = ExternalSorter::new(8 * 1024, 4).with_scratch_dir(scratch.clone());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (sorter, start) = (&sorter, &start);
                scope.spawn(move || {
                    let data = uniform_u32(30_000 + 5_000 * t as usize, 70 + t);
                    let input = tmp(&format!("shared-in-{t}"));
                    let output = tmp(&format!("shared-out-{t}"));
                    write_wire_file(&input, &data).expect("write input");
                    start.wait();
                    sorter.sort_file::<U32Rec>(&input, &output).expect("sort");
                    let sorted: Vec<U32Rec> = read_wire_file(&output).expect("read output");
                    let mut expected = data;
                    expected.sort_unstable();
                    assert_eq!(sorted, expected, "thread {t}");
                    fs::remove_file(&input).ok();
                    fs::remove_file(&output).ok();
                });
            }
        });
        assert_eq!(fs::read(&keep).expect("survives"), b"not a run file");
        fs::remove_file(&keep).expect("remove");
        fs::remove_dir(&scratch).expect("only our file was left");
    }
}
