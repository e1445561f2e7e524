//! Fixed-width wire formats for records stored in off-chip memory or
//! files.
//!
//! The hardware moves records as fixed-width little-endian words over
//! the 512-bit AXI bus (Figure 7); [`WireRecord`] is the software
//! contract for that layout, used by the external (file-backed) sorter
//! and the gensort tooling.

use crate::{KvRec, Packed16, Record, U128Rec, U32Rec, U64Rec};

/// A record with a fixed-width binary wire format.
///
/// Implementations must round-trip: `read_from(write_to(r)) == r`, in
/// [`Record::WIDTH_BYTES`] bytes.
///
/// # Example
///
/// ```
/// use bonsai_records::wire::WireRecord;
/// use bonsai_records::U32Rec;
///
/// let mut buf = [0u8; 4];
/// U32Rec::new(0xABCD).write_to(&mut buf);
/// assert_eq!(U32Rec::read_from(&buf), U32Rec::new(0xABCD));
/// ```
pub trait WireRecord: Record {
    /// Writes the record into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != WIDTH_BYTES`.
    fn write_to(&self, buf: &mut [u8]);

    /// Reads a record from `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != WIDTH_BYTES`.
    fn read_from(buf: &[u8]) -> Self;
}

macro_rules! le_wire {
    ($ty:ident, $inner:ty, $bytes:expr) => {
        impl WireRecord for $ty {
            fn write_to(&self, buf: &mut [u8]) {
                assert_eq!(buf.len(), $bytes, "wire buffer size mismatch");
                buf.copy_from_slice(&self.0.to_le_bytes());
            }

            fn read_from(buf: &[u8]) -> Self {
                assert_eq!(buf.len(), $bytes, "wire buffer size mismatch");
                let mut raw = [0u8; $bytes];
                raw.copy_from_slice(buf);
                Self(<$inner>::from_le_bytes(raw))
            }
        }
    };
}

le_wire!(U32Rec, u32, 4);
le_wire!(U64Rec, u64, 8);
le_wire!(U128Rec, u128, 16);

impl WireRecord for KvRec {
    fn write_to(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), 16, "wire buffer size mismatch");
        buf[..8].copy_from_slice(&self.key().to_le_bytes());
        buf[8..].copy_from_slice(&self.value().to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        assert_eq!(buf.len(), 16, "wire buffer size mismatch");
        let mut k = [0u8; 8];
        let mut v = [0u8; 8];
        k.copy_from_slice(&buf[..8]);
        v.copy_from_slice(&buf[8..]);
        KvRec::new(u64::from_le_bytes(k), u64::from_le_bytes(v))
    }
}

impl WireRecord for Packed16 {
    fn write_to(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), 16, "wire buffer size mismatch");
        buf.copy_from_slice(&self.into_inner().to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        assert_eq!(buf.len(), 16, "wire buffer size mismatch");
        let mut raw = [0u8; 16];
        raw.copy_from_slice(buf);
        let v = u128::from_le_bytes(raw);
        Packed16::from_parts(
            v >> Self::INDEX_BITS,
            (v & ((1 << Self::INDEX_BITS) - 1)) as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<R: WireRecord>(r: R) {
        let mut buf = vec![0u8; R::WIDTH_BYTES];
        r.write_to(&mut buf);
        assert_eq!(R::read_from(&buf), r);
    }

    #[test]
    fn all_wire_formats_roundtrip() {
        roundtrip(U32Rec::new(0xDEAD_BEEF));
        roundtrip(U64Rec::new(u64::MAX - 3));
        roundtrip(U128Rec::new(u128::MAX / 7));
        roundtrip(KvRec::new(42, u64::MAX));
        roundtrip(Packed16::from_parts((1 << 80) - 1, (1 << 48) - 1));
    }

    #[test]
    fn byte_order_preserves_key_order_after_decode() {
        // Encoding need not be order-preserving on raw bytes; decoding
        // must restore ordering.
        let a = Packed16::from_parts(5, 1);
        let b = Packed16::from_parts(6, 0);
        let mut ba = [0u8; 16];
        let mut bb = [0u8; 16];
        a.write_to(&mut ba);
        b.write_to(&mut bb);
        assert!(Packed16::read_from(&ba) < Packed16::read_from(&bb));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn short_buffer_panics() {
        let mut buf = [0u8; 3];
        U32Rec::new(1).write_to(&mut buf);
    }
}
