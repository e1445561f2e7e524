//! Randomized property tests for the frame codec: every mutilation of
//! a valid frame must decode to the *right* stable `BON07x` error — and
//! none may panic.

use bonsai_check::codes;
use bonsai_net::frame::{
    self, RequestHeader, ResponseHeader, WireError, DEFAULT_MAX_PAYLOAD, HEADER_BYTES,
};
use bonsai_records::wire::WireRecord;
use bonsai_records::{KvRec, U128Rec, U32Rec, U64Rec};
use bonsai_rng::Rng;

fn random_records<R: WireRecord>(rng: &mut Rng, n: usize, make: impl Fn(&mut Rng) -> R) -> Vec<R> {
    (0..n).map(|_| make(rng)).collect()
}

fn roundtrip_many<R: WireRecord + PartialEq + std::fmt::Debug>(
    rng: &mut Rng,
    make: impl Fn(&mut Rng) -> R,
) {
    for _ in 0..200 {
        let n = rng.below_usize(300);
        let job_id = rng.next_u64();
        let records = random_records(rng, n, &make);
        let bytes = frame::encode_request(job_id, &records);
        assert_eq!(bytes.len(), HEADER_BYTES + n * R::WIDTH_BYTES);
        let (header, decoded) =
            frame::decode_request::<R>(&bytes, DEFAULT_MAX_PAYLOAD).expect("valid frame decodes");
        assert_eq!(header.job_id, job_id);
        assert_eq!(header.record_width as usize, R::WIDTH_BYTES);
        assert_eq!(decoded, records);
    }
}

#[test]
fn random_frames_roundtrip_for_every_record_width() {
    let mut rng = Rng::seed_from_u64(0xB0A5);
    roundtrip_many(&mut rng, |r| U32Rec::new(r.next_u32()));
    roundtrip_many(&mut rng, |r| U64Rec::new(r.next_u64()));
    roundtrip_many(&mut rng, |r| U128Rec::new(u128::from(r.next_u64())));
    roundtrip_many(&mut rng, |r| KvRec::new(r.next_u64(), r.next_u64()));
}

#[test]
fn random_truncation_is_always_bon072() {
    let mut rng = Rng::seed_from_u64(0x7A0C);
    for _ in 0..300 {
        let n = rng.range_usize(1, 64);
        let records = random_records(&mut rng, n, |r| U32Rec::new(r.next_u32()));
        let bytes = frame::encode_request(rng.next_u64(), &records);
        let cut = rng.below_usize(bytes.len());
        let err = frame::decode_request::<U32Rec>(&bytes[..cut], DEFAULT_MAX_PAYLOAD)
            .expect_err("truncated frame must not decode");
        assert_eq!(err.code(), codes::WIRE_TRUNCATED, "cut at {cut}");
    }
}

#[test]
fn corrupted_magic_is_always_bon070() {
    let mut rng = Rng::seed_from_u64(0xAB1E);
    for _ in 0..300 {
        let records = random_records(&mut rng, 8, |r| U32Rec::new(r.next_u32()));
        let mut bytes = frame::encode_request(rng.next_u64(), &records);
        // Flip at least one bit somewhere in the 4 magic bytes.
        let byte = rng.below_usize(4);
        let bit = 1u8 << rng.below_usize(8);
        bytes[byte] ^= bit;
        let err = frame::decode_request::<U32Rec>(&bytes, DEFAULT_MAX_PAYLOAD)
            .expect_err("corrupted magic must not decode");
        assert_eq!(err.code(), codes::WIRE_BAD_MAGIC);
        assert!(!err.recoverable());
    }
}

#[test]
fn wrong_version_is_always_bon071() {
    let mut rng = Rng::seed_from_u64(0x0E01);
    for _ in 0..300 {
        let records = random_records(&mut rng, 8, |r| U32Rec::new(r.next_u32()));
        let mut bytes = frame::encode_request(rng.next_u64(), &records);
        let bogus = loop {
            let v = rng.next_u32() as u16;
            if v != frame::VERSION {
                break v;
            }
        };
        bytes[4..6].copy_from_slice(&bogus.to_le_bytes());
        let err = frame::decode_request::<U32Rec>(&bytes, DEFAULT_MAX_PAYLOAD)
            .expect_err("wrong version must not decode");
        assert_eq!(err.code(), codes::WIRE_BAD_VERSION);
        assert!(err.recoverable());
    }
}

#[test]
fn random_header_fields_never_panic_the_decoder() {
    // Fuzz the whole header space: decode_request must always return
    // Ok or a typed WireError, never panic, for arbitrary header bytes
    // over a short payload.
    let mut rng = Rng::seed_from_u64(0xF022);
    for _ in 0..2000 {
        let mut bytes = vec![0u8; HEADER_BYTES + rng.below_usize(64)];
        rng.fill_bytes(&mut bytes);
        let _ = frame::decode_request::<U32Rec>(&bytes, DEFAULT_MAX_PAYLOAD);
    }
}

#[test]
fn oversized_and_ragged_and_width_map_to_their_codes() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for _ in 0..200 {
        // Oversized: payload_len above an artificially small cap.
        let cap = rng.range_u64(1, 4096) as u32;
        let header = RequestHeader {
            record_width: 4,
            job_id: rng.next_u64(),
            payload_len: cap + 1 + rng.below_u32(1 << 20),
        };
        assert_eq!(
            header.validate(4, cap).expect_err("over cap").code(),
            codes::WIRE_PAYLOAD_OVERSIZED
        );

        // Width mismatch: any width but 4 against a U32Rec server.
        let wrong_width = loop {
            let w = rng.next_u32() as u16;
            if w != 4 {
                break w;
            }
        };
        let header = RequestHeader {
            record_width: wrong_width,
            job_id: rng.next_u64(),
            payload_len: u32::from(wrong_width.max(1)) * 4,
        };
        assert_eq!(
            header
                .validate(4, DEFAULT_MAX_PAYLOAD)
                .expect_err("wrong width")
                .code(),
            codes::WIRE_WIDTH_UNSUPPORTED
        );

        // Ragged: right width, payload not a multiple of it.
        let base = rng.below_u32(DEFAULT_MAX_PAYLOAD - 4) & !3;
        let header = RequestHeader {
            record_width: 4,
            job_id: rng.next_u64(),
            payload_len: base + rng.range_u64(1, 3) as u32,
        };
        assert_eq!(
            header
                .validate(4, DEFAULT_MAX_PAYLOAD)
                .expect_err("ragged")
                .code(),
            codes::WIRE_PAYLOAD_RAGGED
        );
    }
}

#[test]
fn response_header_survives_random_roundtrips() {
    let mut rng = Rng::seed_from_u64(0xCAFE);
    for _ in 0..500 {
        let header = ResponseHeader {
            status: rng.next_u32() as u16,
            job_id: rng.next_u64(),
            payload_len: rng.next_u32(),
        };
        assert_eq!(ResponseHeader::decode(&header.encode()), Ok(header));
    }
}

#[test]
fn every_wire_error_prints_its_registered_code() {
    let errors = [
        WireError::BadMagic { found: 0x1234 },
        WireError::BadVersion { found: 9 },
        WireError::Truncated { context: "header" },
        WireError::Oversized {
            payload_len: 100,
            max_payload: 10,
        },
        WireError::Ragged {
            payload_len: 7,
            record_width: 4,
        },
        WireError::UnsupportedWidth {
            found: 100,
            expected: 4,
        },
        WireError::Closed,
        WireError::JobFailed("BON040 livelock".into()),
    ];
    for err in errors {
        let code = err.code();
        assert!(codes::lookup(code).is_some(), "{code} must be registered");
        assert!(err.to_string().starts_with(code));
        assert_eq!(frame::code_for_status(err.status()), Some(code));
        assert_eq!(err.diagnostic().code, code);
    }
}
