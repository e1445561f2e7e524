//! The length-framed wire protocol of the sort service.
//!
//! Every message — request or response — is one *frame*: a fixed
//! 20-byte little-endian header followed by `payload_len` bytes of
//! payload. There is no external serialization dependency (the
//! workspace builds offline); records travel in their
//! [`WireRecord`] layout, the same fixed-width little-endian words the
//! hardware moves over the AXI bus.
//!
//! ```text
//! offset  bytes  request            response
//! 0       4      magic "BNSJ"       magic "BNSJ"
//! 4       2      version (1)        version (1)
//! 6       2      record_width       status (0 = ok, else BONxxx number)
//! 8       8      job id             job id (echoed)
//! 16      4      payload_len        payload_len
//! 20      ...    records            records (ok) / UTF-8 error (err)
//! ```
//!
//! A request's payload is `payload_len / record_width` records; a
//! success response carries the sorted records back in the same
//! layout, and an error response carries a UTF-8 diagnostic whose
//! `status` field is the numeric part of a stable `BON07x` code (see
//! `docs/diagnostics.md`). Malformed frames decode to a structured
//! [`WireError`] — never a panic — so one bad frame cannot take down a
//! connection thread, let alone the server.
//!
//! Requests have one decoder, generic over [`Read`]: the server reads
//! every connection with it, and [`decode_request`] runs it on a slice.
//!
//! The all-zero record is the engine's terminal record (§V-B), so the
//! service sanitizes it like every other entry point: a `U32Rec`
//! request `[0, 5, 0]` comes back `[1, 1, 5]`.

use std::io::{self, Read, Write};

use bonsai_check::{codes, Diagnostic};
use bonsai_records::wire::WireRecord;

/// Frame magic: the little-endian bytes spell `BNSJ` ("Bonsai sort
/// job") on the wire.
pub const MAGIC: u32 = u32::from_le_bytes(*b"BNSJ");

/// Protocol version this build speaks.
pub const VERSION: u16 = 1;

/// Fixed header size of every frame, request and response alike.
pub const HEADER_BYTES: usize = 20;

/// Default cap on one frame's payload (64 MiB). A header declaring
/// more is answered with `BON073` instead of being buffered; the bound
/// is what keeps one client from ballooning server memory.
pub const DEFAULT_MAX_PAYLOAD: u32 = 64 << 20;

/// Decoded request header (client → server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// Bytes per record in the payload. `0` is reserved for control
    /// frames (graceful-shutdown requests carry no records).
    pub record_width: u16,
    /// Caller-chosen job id, echoed verbatim in the response. An
    /// opaque tag — ids may collide across connections; the server
    /// attributes results by its own runtime tickets.
    pub job_id: u64,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

/// Decoded response header (server → client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHeader {
    /// `0` for a sorted-records response; otherwise the numeric part
    /// of the stable `BONxxx` wire-error code (e.g. `70` = `BON070`).
    pub status: u16,
    /// The job id from the request, echoed.
    pub job_id: u64,
    /// Payload bytes following the header.
    pub payload_len: u32,
}

/// Why a frame could not be decoded or a job could not be served.
///
/// Every variant maps to a stable `BON07x` diagnostic code; the two
/// *desynchronizing* variants ([`WireError::BadMagic`],
/// [`WireError::Truncated`]) and the untrusted-length variant
/// ([`WireError::Oversized`]) additionally close the offending
/// connection — the stream can no longer be framed — while all others
/// leave it open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame boundary did not carry the `BNSJ` magic.
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// The frame declared a protocol version this build does not speak.
    BadVersion {
        /// The version found.
        found: u16,
    },
    /// The stream ended mid-header or mid-payload.
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
    },
    /// The declared payload exceeds the receiver's frame limit.
    Oversized {
        /// Declared payload bytes.
        payload_len: u32,
        /// The receiver's limit.
        max_payload: u32,
    },
    /// The payload is not a whole number of records.
    Ragged {
        /// Declared payload bytes.
        payload_len: u32,
        /// Declared record width.
        record_width: u16,
    },
    /// The record width does not match the server's record type.
    UnsupportedWidth {
        /// The width found in the frame.
        found: u16,
        /// The width this server sorts.
        expected: u16,
    },
    /// The server is shutting down; the job was rejected at submit and
    /// is guaranteed not to run.
    Closed,
    /// The job ran (or was validated) server-side and failed; the
    /// string carries the underlying diagnostic, inner `BONxxx`
    /// included.
    JobFailed(String),
}

impl WireError {
    /// The stable diagnostic code for this error.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            WireError::BadMagic { .. } => codes::WIRE_BAD_MAGIC,
            WireError::BadVersion { .. } => codes::WIRE_BAD_VERSION,
            WireError::Truncated { .. } => codes::WIRE_TRUNCATED,
            WireError::Oversized { .. } => codes::WIRE_PAYLOAD_OVERSIZED,
            WireError::Ragged { .. } => codes::WIRE_PAYLOAD_RAGGED,
            WireError::UnsupportedWidth { .. } => codes::WIRE_WIDTH_UNSUPPORTED,
            WireError::Closed => codes::WIRE_SERVER_CLOSED,
            WireError::JobFailed(_) => codes::WIRE_JOB_FAILED,
        }
    }

    /// The numeric wire form of [`WireError::code`] (e.g. `BON070` →
    /// `70`), carried in a response header's `status` field.
    #[must_use]
    pub fn status(&self) -> u16 {
        let digits = &self.code()[3..];
        digits.parse().expect("BONxxx codes end in digits")
    }

    /// Whether the connection can still be framed after this error.
    /// `false` means the server answers and then closes it: a magic
    /// mismatch or truncation desynchronizes the stream, and an
    /// oversized declaration is a length the server refuses to skip.
    #[must_use]
    pub fn recoverable(&self) -> bool {
        !matches!(
            self,
            WireError::BadMagic { .. } | WireError::Truncated { .. } | WireError::Oversized { .. }
        )
    }

    /// This error as a `bonsai-check` diagnostic (for logs and lints).
    #[must_use]
    pub fn diagnostic(&self) -> Diagnostic {
        let d = Diagnostic::error(self.code(), self.to_string());
        match self {
            WireError::BadMagic { found } => d.with("found", format!("{found:#010x}")),
            WireError::BadVersion { found } => d.with("found", found),
            WireError::Truncated { context } => d.with("while_reading", context),
            WireError::Oversized {
                payload_len,
                max_payload,
            } => d.with("payload_len", payload_len).with("max", max_payload),
            WireError::Ragged {
                payload_len,
                record_width,
            } => d
                .with("payload_len", payload_len)
                .with("record_width", record_width),
            WireError::UnsupportedWidth { found, expected } => {
                d.with("found", found).with("expected", expected)
            }
            WireError::Closed | WireError::JobFailed(_) => d,
        }
    }
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: ", self.code())?;
        match self {
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#010x} (stream desynchronized)")
            }
            WireError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (this build speaks {VERSION})")
            }
            WireError::Truncated { context } => {
                write!(f, "connection closed mid-frame while reading {context}")
            }
            WireError::Oversized {
                payload_len,
                max_payload,
            } => write!(
                f,
                "declared payload of {payload_len} bytes exceeds the {max_payload}-byte frame limit"
            ),
            WireError::Ragged {
                payload_len,
                record_width,
            } => write!(
                f,
                "payload of {payload_len} bytes is not a whole number of {record_width}-byte records"
            ),
            WireError::UnsupportedWidth { found, expected } => write!(
                f,
                "record width {found} unsupported (this server sorts {expected}-byte records)"
            ),
            WireError::Closed => write!(f, "server shutting down; job rejected, not run"),
            WireError::JobFailed(inner) => write!(f, "job failed server-side: {inner}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maps a response `status` back to its stable code string (`0` is
/// success and has no code): the registered `BON07x` code whose digits
/// are `status`, the inverse of [`WireError::status`].
#[must_use]
pub fn code_for_status(status: u16) -> Option<&'static str> {
    codes::ALL
        .iter()
        .map(|info| info.code)
        .find(|code| code.starts_with("BON07") && code[3..].parse() == Ok(status))
}

// --- header codec ------------------------------------------------------

fn encode_header(field: u16, job_id: u64, payload_len: u32) -> [u8; HEADER_BYTES] {
    let mut buf = [0u8; HEADER_BYTES];
    buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
    buf[6..8].copy_from_slice(&field.to_le_bytes());
    buf[8..16].copy_from_slice(&job_id.to_le_bytes());
    buf[16..20].copy_from_slice(&payload_len.to_le_bytes());
    buf
}

fn split_header(buf: &[u8; HEADER_BYTES]) -> (u32, u16, u16, u64, u32) {
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"));
    let field = u16::from_le_bytes(buf[6..8].try_into().expect("2 bytes"));
    let job_id = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes"));
    (magic, version, field, job_id, payload_len)
}

fn check_magic_and_version(magic: u32, version: u16) -> Result<(), WireError> {
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    if version != VERSION {
        return Err(WireError::BadVersion { found: version });
    }
    Ok(())
}

impl RequestHeader {
    /// Encodes this header into its 20-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        encode_header(self.record_width, self.job_id, self.payload_len)
    }

    /// Decodes a request header, checking magic and version (the two
    /// fields that gate whether the rest can be trusted at all).
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] / [`WireError::BadVersion`].
    pub fn decode(buf: &[u8; HEADER_BYTES]) -> Result<Self, WireError> {
        let (magic, version, record_width, job_id, payload_len) = split_header(buf);
        check_magic_and_version(magic, version)?;
        Ok(Self {
            record_width,
            job_id,
            payload_len,
        })
    }

    /// Validates the payload declaration against a server that sorts
    /// `expected_width`-byte records and buffers at most `max_payload`
    /// bytes per frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] (checked first: a refused length also
    /// decides connection fate), then [`WireError::UnsupportedWidth`],
    /// then [`WireError::Ragged`].
    pub fn validate(&self, expected_width: u16, max_payload: u32) -> Result<(), WireError> {
        if self.payload_len > max_payload {
            return Err(WireError::Oversized {
                payload_len: self.payload_len,
                max_payload,
            });
        }
        if self.record_width != expected_width {
            return Err(WireError::UnsupportedWidth {
                found: self.record_width,
                expected: expected_width,
            });
        }
        if !u64::from(self.payload_len).is_multiple_of(u64::from(self.record_width.max(1))) {
            return Err(WireError::Ragged {
                payload_len: self.payload_len,
                record_width: self.record_width,
            });
        }
        Ok(())
    }
}

impl ResponseHeader {
    /// Encodes this header into its 20-byte wire form.
    #[must_use]
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        encode_header(self.status, self.job_id, self.payload_len)
    }

    /// Decodes a response header, checking magic and version.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] / [`WireError::BadVersion`].
    pub fn decode(buf: &[u8; HEADER_BYTES]) -> Result<Self, WireError> {
        let (magic, version, status, job_id, payload_len) = split_header(buf);
        check_magic_and_version(magic, version)?;
        Ok(Self {
            status,
            job_id,
            payload_len,
        })
    }
}

// --- record payload codec ----------------------------------------------

/// Serializes records into their contiguous wire payload.
#[must_use]
pub(crate) fn encode_records<R: WireRecord>(records: &[R]) -> Vec<u8> {
    let mut buf = vec![0u8; records.len() * R::WIRE_BYTES];
    for (chunk, record) in buf.chunks_exact_mut(R::WIRE_BYTES).zip(records) {
        record.write_to(chunk);
    }
    buf
}

/// Deserializes a wire payload back into records.
///
/// # Errors
///
/// [`WireError::Ragged`] if the buffer is not a whole number of
/// records.
pub fn decode_records<R: WireRecord>(payload: &[u8]) -> Result<Vec<R>, WireError> {
    if !payload.len().is_multiple_of(R::WIRE_BYTES) {
        return Err(WireError::Ragged {
            payload_len: payload.len() as u32,
            record_width: R::WIRE_BYTES as u16,
        });
    }
    Ok(payload
        .chunks_exact(R::WIRE_BYTES)
        .map(R::read_from)
        .collect())
}

/// Decodes one full request frame from a byte slice (header +
/// payload), validating against `R` and `max_payload`. This is the
/// server's request reader run on a slice, so it makes the server's
/// checks in the server's order.
///
/// # Errors
///
/// [`WireError::Truncated`] when the slice ends early (an empty one
/// included), [`WireError::UnsupportedWidth`] for a control frame, plus
/// everything [`RequestHeader::decode`] and [`RequestHeader::validate`]
/// emit.
pub fn decode_request<R: WireRecord>(
    mut bytes: &[u8],
    max_payload: u32,
) -> Result<(RequestHeader, Vec<R>), WireError> {
    match read_request(&mut bytes, max_payload).expect("reading a slice cannot fail") {
        Incoming::Request(header, records) => Ok((header, records)),
        Incoming::Closed => Err(WireError::Truncated {
            context: "request header",
        }),
        Incoming::Control(_) => Err(WireError::UnsupportedWidth {
            found: 0,
            expected: R::WIRE_BYTES as u16,
        }),
        Incoming::Rejected { err, .. } => Err(err),
    }
}

/// Encodes one full request frame (header + record payload).
#[must_use]
pub fn encode_request<R: WireRecord>(job_id: u64, records: &[R]) -> Vec<u8> {
    let payload = encode_records(records);
    let header = RequestHeader {
        record_width: R::WIRE_BYTES as u16,
        job_id,
        payload_len: payload.len() as u32,
    };
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&header.encode());
    frame.extend_from_slice(&payload);
    frame
}

// --- request reader ----------------------------------------------------

/// What [`read_request`] found at a frame boundary.
#[derive(Debug)]
pub(crate) enum Incoming<R> {
    /// The stream ended before the first byte of a frame: a clean close.
    Closed,
    /// A control frame (`record_width == 0`, `payload_len == 0`) with
    /// this job id.
    Control(u64),
    /// A valid request and its records.
    Request(RequestHeader, Vec<R>),
    /// A malformed frame, to be answered with `err` under `job_id` (0
    /// when the header is incomplete or its magic wrong). `framed` says
    /// whether the payload was skipped so the next frame can be read;
    /// when it is `false` the connection must close.
    Rejected {
        job_id: u64,
        err: WireError,
        framed: bool,
    },
}

impl<R> Incoming<R> {
    fn truncated(job_id: u64, context: &'static str) -> Self {
        let err = WireError::Truncated { context };
        Self::Rejected {
            job_id,
            err,
            framed: false,
        }
    }
}

/// Reads one request frame, checking in this order: a whole header, its
/// magic and version, the width-0 control frame, [`RequestHeader::validate`]
/// against `R` and `max_payload`, and a whole payload. After a
/// recoverable error it skips the declared payload, if the frame limit
/// allows, so the stream stays framed.
///
/// # Errors
///
/// A read error of `stream` other than `Interrupted`.
pub(crate) fn read_request<R: WireRecord>(
    stream: &mut impl Read,
    max_payload: u32,
) -> io::Result<Incoming<R>> {
    let mut head = Vec::with_capacity(HEADER_BYTES);
    stream.take(HEADER_BYTES as u64).read_to_end(&mut head)?;
    let Ok(head) = <&[u8; HEADER_BYTES]>::try_from(head.as_slice()) else {
        return Ok(match head.len() {
            0 => Incoming::Closed,
            _ => Incoming::truncated(0, "request header"),
        });
    };
    let (magic, version, record_width, job_id, payload_len) = split_header(head);
    let header = RequestHeader {
        record_width,
        job_id,
        payload_len,
    };
    let trusted = check_magic_and_version(magic, version);
    if trusted.is_ok() && record_width == 0 && payload_len == 0 {
        return Ok(Incoming::Control(job_id));
    }
    if let Err(err) = trusted.and_then(|()| header.validate(R::WIRE_BYTES as u16, max_payload)) {
        let len = u64::from(payload_len);
        let framed = err.recoverable()
            && payload_len <= max_payload
            && io::copy(&mut stream.by_ref().take(len), &mut io::sink()).is_ok_and(|n| n == len);
        // Past a wrong magic not even the job id can be trusted.
        let job_id = if matches!(err, WireError::BadMagic { .. }) {
            0
        } else {
            job_id
        };
        return Ok(Incoming::Rejected {
            job_id,
            err,
            framed,
        });
    }
    let mut payload = Vec::with_capacity(payload_len as usize);
    stream
        .take(u64::from(payload_len))
        .read_to_end(&mut payload)?;
    if payload.len() < payload_len as usize {
        return Ok(Incoming::truncated(job_id, "request payload"));
    }
    // `validate` admitted whole records of `R`'s width only.
    let records = payload
        .chunks_exact(R::WIRE_BYTES)
        .map(R::read_from)
        .collect();
    Ok(Incoming::Request(header, records))
}

// --- blocking stream helpers -------------------------------------------

/// Writes one request frame.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_request<W: Write, R: WireRecord>(
    w: &mut W,
    job_id: u64,
    records: &[R],
) -> io::Result<()> {
    w.write_all(&encode_request(job_id, records))?;
    w.flush()
}

/// Writes a success response carrying the sorted records.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_response_ok<W: Write, R: WireRecord>(
    w: &mut W,
    job_id: u64,
    records: &[R],
) -> io::Result<()> {
    let payload = encode_records(records);
    let header = ResponseHeader {
        status: 0,
        job_id,
        payload_len: payload.len() as u32,
    };
    w.write_all(&header.encode())?;
    w.write_all(&payload)?;
    w.flush()
}

/// Writes an error response: `status` carries the numeric `BON07x`
/// code, the payload its full display form.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_response_err<W: Write>(w: &mut W, job_id: u64, err: &WireError) -> io::Result<()> {
    let payload = err.to_string().into_bytes();
    let header = ResponseHeader {
        status: err.status(),
        job_id,
        payload_len: payload.len() as u32,
    };
    w.write_all(&header.encode())?;
    w.write_all(&payload)?;
    w.flush()
}

/// One decoded response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply<R> {
    /// The job sorted; the records come back in wire order.
    Sorted {
        /// The echoed job id.
        job_id: u64,
        /// The sorted records.
        records: Vec<R>,
    },
    /// The job (or its frame) was rejected with a stable code.
    ServerError {
        /// The echoed job id (0 if the request header never arrived).
        job_id: u64,
        /// The stable `BONxxx` code (e.g. `"BON071"`).
        code: String,
        /// The server's diagnostic text.
        message: String,
    },
}

/// Reads one response frame, blocking until it arrives.
///
/// # Errors
///
/// `io::ErrorKind::UnexpectedEof` if the connection closed (cleanly or
/// mid-frame); `io::ErrorKind::InvalidData` wrapping a [`WireError`]
/// if the response itself cannot be decoded.
pub fn read_response<S: Read, R: WireRecord>(stream: &mut S) -> io::Result<Reply<R>> {
    let mut header_bytes = [0u8; HEADER_BYTES];
    stream.read_exact(&mut header_bytes)?;
    let header = ResponseHeader::decode(&header_bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut payload = vec![0u8; header.payload_len as usize];
    stream.read_exact(&mut payload)?;
    if header.status == 0 {
        let records =
            decode_records(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Reply::Sorted {
            job_id: header.job_id,
            records,
        })
    } else {
        let code = code_for_status(header.status)
            .map_or_else(|| format!("BON{:03}", header.status), ToString::to_string);
        Ok(Reply::ServerError {
            job_id: header.job_id,
            code,
            message: String::from_utf8_lossy(&payload).into_owned(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_records::{U32Rec, U64Rec};

    #[test]
    fn header_roundtrip_request_and_response() {
        let req = RequestHeader {
            record_width: 4,
            job_id: 0xDEAD_BEEF_0123,
            payload_len: 4096,
        };
        assert_eq!(RequestHeader::decode(&req.encode()), Ok(req));
        let resp = ResponseHeader {
            status: 77,
            job_id: 7,
            payload_len: 12,
        };
        assert_eq!(ResponseHeader::decode(&resp.encode()), Ok(resp));
    }

    #[test]
    fn magic_spells_bnsj_on_the_wire() {
        let frame = encode_request::<U32Rec>(1, &[]);
        assert_eq!(&frame[0..4], b"BNSJ");
    }

    #[test]
    fn bad_magic_and_version_map_to_their_codes() {
        let mut buf = RequestHeader {
            record_width: 4,
            job_id: 1,
            payload_len: 0,
        }
        .encode();
        buf[0] ^= 0xFF;
        let err = RequestHeader::decode(&buf).expect_err("magic corrupted");
        assert_eq!(err.code(), codes::WIRE_BAD_MAGIC);
        assert!(!err.recoverable(), "desync closes the connection");

        let mut buf = RequestHeader {
            record_width: 4,
            job_id: 1,
            payload_len: 0,
        }
        .encode();
        buf[4] = 9;
        let err = RequestHeader::decode(&buf).expect_err("version bumped");
        assert_eq!(err.code(), codes::WIRE_BAD_VERSION);
        assert!(err.recoverable(), "framing is intact, connection lives");
    }

    #[test]
    fn validate_orders_oversized_before_width_before_ragged() {
        let h = RequestHeader {
            record_width: 8,
            job_id: 1,
            payload_len: 1 << 30,
        };
        assert_eq!(
            h.validate(4, DEFAULT_MAX_PAYLOAD)
                .expect_err("too big")
                .code(),
            codes::WIRE_PAYLOAD_OVERSIZED
        );
        let h = RequestHeader {
            record_width: 8,
            job_id: 1,
            payload_len: 16,
        };
        assert_eq!(
            h.validate(4, DEFAULT_MAX_PAYLOAD)
                .expect_err("width mismatch")
                .code(),
            codes::WIRE_WIDTH_UNSUPPORTED
        );
        let h = RequestHeader {
            record_width: 4,
            job_id: 1,
            payload_len: 10,
        };
        assert_eq!(
            h.validate(4, DEFAULT_MAX_PAYLOAD)
                .expect_err("ragged")
                .code(),
            codes::WIRE_PAYLOAD_RAGGED
        );
    }

    #[test]
    fn records_roundtrip_through_the_payload_codec() {
        let records: Vec<U64Rec> = (0..100).map(|i| U64Rec::new(i * 17 + 1)).collect();
        let payload = encode_records(&records);
        assert_eq!(payload.len(), 800);
        assert_eq!(decode_records::<U64Rec>(&payload), Ok(records));
    }

    #[test]
    fn full_request_frame_roundtrips() {
        let records: Vec<U32Rec> = (1..=64).map(U32Rec::new).collect();
        let frame = encode_request(99, &records);
        let (header, decoded) =
            decode_request::<U32Rec>(&frame, DEFAULT_MAX_PAYLOAD).expect("decodes");
        assert_eq!(header.job_id, 99);
        assert_eq!(header.record_width, 4);
        assert_eq!(decoded, records);
    }

    #[test]
    fn truncation_at_any_point_is_bon072_not_a_panic() {
        let frame = encode_request(3, &[U32Rec::new(5), U32Rec::new(6)]);
        for cut in 0..frame.len() {
            let err = decode_request::<U32Rec>(&frame[..cut], DEFAULT_MAX_PAYLOAD)
                .expect_err("truncated frame must not decode");
            assert_eq!(err.code(), codes::WIRE_TRUNCATED, "cut at {cut}");
        }
    }

    #[test]
    fn status_numbers_roundtrip_to_codes() {
        for err in [
            WireError::BadMagic { found: 0 },
            WireError::BadVersion { found: 2 },
            WireError::Truncated { context: "x" },
            WireError::Oversized {
                payload_len: 9,
                max_payload: 8,
            },
            WireError::Ragged {
                payload_len: 3,
                record_width: 2,
            },
            WireError::UnsupportedWidth {
                found: 8,
                expected: 4,
            },
            WireError::Closed,
            WireError::JobFailed("BON040 ...".into()),
        ] {
            assert_eq!(code_for_status(err.status()), Some(err.code()));
            assert!(
                codes::lookup(err.code()).is_some(),
                "{} must be registered",
                err.code()
            );
            assert!(err.to_string().contains(err.code()));
        }
        assert_eq!(code_for_status(0), None);
    }

    #[test]
    fn error_response_frames_carry_code_in_status_and_payload() {
        let err = WireError::UnsupportedWidth {
            found: 16,
            expected: 4,
        };
        let mut buf = Vec::new();
        write_response_err(&mut buf, 41, &err).expect("in-memory write");
        let reply: Reply<U32Rec> = read_response(&mut buf.as_slice()).expect("decodes");
        match reply {
            Reply::ServerError {
                job_id,
                code,
                message,
            } => {
                assert_eq!(job_id, 41);
                assert_eq!(code, codes::WIRE_WIDTH_UNSUPPORTED);
                assert!(message.contains("BON075"), "{message}");
            }
            other => panic!("expected ServerError, got {other:?}"),
        }
    }
}
