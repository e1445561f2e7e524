//! File I/O for sort-benchmark datasets.
//!
//! `gensort` writes 100-byte records to a file; `valsort` validates that
//! a file is sorted and summarizes it. These functions are the library
//! equivalents for [`GensortRecord`](crate::GensortRecord) files and for
//! files of any [`WireRecord`] type, used by the external sorter and the
//! CLI.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use bonsai_records::wire::WireRecord;
use bonsai_records::Record;

use crate::gensort::GensortGenerator;

/// Writes `n` seeded gensort records (100 bytes each) to `path`.
///
/// # Errors
///
/// Propagates any I/O error from creating or writing the file.
pub fn generate_gensort_file(path: &Path, n: u64, seed: u64) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut generator = GensortGenerator::seeded(seed);
    for _ in 0..n {
        w.write_all(&generator.next_record().to_bytes())?;
    }
    w.flush()
}

/// Writes fixed-width wire records to `path`.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn write_wire_file<R: WireRecord>(path: &Path, records: &[R]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut buf = vec![0u8; R::WIDTH_BYTES];
    for rec in records {
        rec.write_to(&mut buf);
        w.write_all(&buf)?;
    }
    w.flush()
}

/// Reads fixed-width wire records from `path`.
///
/// # Errors
///
/// Fails on I/O errors or if the file length is ragged.
pub fn read_wire_file<R: WireRecord>(path: &Path) -> io::Result<Vec<R>> {
    let mut data = Vec::new();
    BufReader::new(File::open(path)?).read_to_end(&mut data)?;
    if data.len() % R::WIDTH_BYTES != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "file length is not a multiple of the record width",
        ));
    }
    Ok(data
        .chunks_exact(R::WIDTH_BYTES)
        .map(R::read_from)
        .collect())
}

/// Summary produced by [`valsort`] — the fields the reference `valsort`
/// tool reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValsortSummary {
    /// Total records in the file.
    pub records: u64,
    /// Number of adjacent out-of-order pairs (0 for a sorted file).
    pub unordered: u64,
    /// Number of adjacent duplicate keys.
    pub duplicates: u64,
    /// Order-independent checksum (wrapping sum of key words), for
    /// verifying the output is a permutation of the input.
    pub checksum: u64,
}

impl ValsortSummary {
    /// `true` when the file is sorted.
    pub fn is_sorted(&self) -> bool {
        self.unordered == 0
    }
}

/// Validates a stream of records valsort-style.
pub fn valsort<R: Record>(records: &[R]) -> ValsortSummary {
    use std::hash::Hasher;
    let mut unordered = 0;
    let mut duplicates = 0;
    let mut checksum = 0u64;
    for rec in records {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        rec.hash(&mut h);
        checksum = checksum.wrapping_add(h.finish());
    }
    for pair in records.windows(2) {
        match pair[0].cmp(&pair[1]) {
            core::cmp::Ordering::Greater => unordered += 1,
            core::cmp::Ordering::Equal => duplicates += 1,
            core::cmp::Ordering::Less => {}
        }
    }
    ValsortSummary {
        records: records.len() as u64,
        unordered,
        duplicates,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gensort::{GensortRecord, GENSORT_RECORD_BYTES};
    use bonsai_records::U32Rec;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bonsai-gensort-io-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn gensort_file_roundtrip() {
        let path = tmp("roundtrip");
        generate_gensort_file(&path, 100, 9).expect("write");
        let bytes = std::fs::read(&path).expect("read");
        assert_eq!(bytes.len() % GENSORT_RECORD_BYTES, 0);
        let recs: Vec<GensortRecord> = bytes
            .chunks_exact(GENSORT_RECORD_BYTES)
            .map(GensortRecord::from_bytes)
            .collect();
        assert_eq!(recs.len(), 100);
        // Regeneration with the same seed is identical.
        let again = GensortGenerator::seeded(9).take_records(100);
        assert_eq!(recs, again);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wire_file_roundtrip() {
        let path = tmp("wire");
        let recs: Vec<U32Rec> = (0..500u32).rev().map(U32Rec::new).collect();
        write_wire_file(&path, &recs).expect("write");
        let back: Vec<U32Rec> = read_wire_file(&path).expect("read");
        assert_eq!(back, recs);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ragged_file_is_invalid_data() {
        let path = tmp("ragged");
        std::fs::write(&path, [0u8; 7]).expect("write");
        let err = read_wire_file::<U32Rec>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn valsort_detects_disorder_and_duplicates() {
        let sorted: Vec<U32Rec> = [1u32, 2, 2, 3].map(U32Rec::new).to_vec();
        let s = valsort(&sorted);
        assert!(s.is_sorted());
        assert_eq!(s.duplicates, 1);
        assert_eq!(s.records, 4);

        let unsorted: Vec<U32Rec> = [3u32, 1, 2].map(U32Rec::new).to_vec();
        let u = valsort(&unsorted);
        assert!(!u.is_sorted());
        assert_eq!(u.unordered, 1);
        // Checksum is order-independent: a permutation matches.
        let mut perm = unsorted.clone();
        perm.sort_unstable();
        assert_eq!(valsort(&perm).checksum, u.checksum);
    }
}
