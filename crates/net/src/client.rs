//! Blocking client for the sort service.
//!
//! [`Client`] speaks the frame protocol of [`crate::frame`] over one
//! TCP connection. Requests pipeline: [`Client::send`] may be called
//! many times before the first [`Client::recv`], and the server streams
//! responses back in *completion* order — match them to requests by the
//! echoed job id, not by position.

use std::io::{self, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};

use bonsai_records::wire::WireRecord;

use crate::frame::{self, Reply, RequestHeader};

/// One connection to a sort server, typed by the record it sorts.
#[derive(Debug)]
pub struct Client<R: WireRecord> {
    stream: TcpStream,
    _records: PhantomData<fn() -> R>,
}

impl<R: WireRecord> Client<R> {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            _records: PhantomData,
        })
    }

    /// The local address of this connection.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.stream.local_addr()
    }

    /// Sends one sort job without waiting for its result. `job_id` is
    /// an opaque tag echoed back in the response — use it to pair
    /// pipelined requests with replies.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn send(&mut self, job_id: u64, records: &[R]) -> io::Result<()> {
        frame::write_request(&mut self.stream, job_id, records)
    }

    /// Receives the next response frame (sorted records or a `BON07x`
    /// server error), blocking until one arrives.
    ///
    /// # Errors
    ///
    /// `io::ErrorKind::UnexpectedEof` once the server closes the
    /// connection; `io::ErrorKind::InvalidData` if the response cannot
    /// be decoded.
    pub fn recv(&mut self) -> io::Result<Reply<R>> {
        frame::read_response(&mut self.stream)
    }

    /// Convenience round trip: send one job, wait for one response.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn sort(&mut self, job_id: u64, records: &[R]) -> io::Result<Reply<R>> {
        self.send(job_id, records)?;
        self.recv()
    }

    /// Writes raw bytes to the stream, bypassing the frame encoder.
    /// This exists to *test* the server's malformed-frame handling
    /// (`tests/loopback.rs`); a correct client never needs it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Sends the graceful-shutdown control frame (`record_width == 0`,
    /// empty payload, job id = `token`) and returns the server's
    /// acknowledgement — `Reply::Sorted` with zero records on success,
    /// a `BON075` error if the token does not match.
    ///
    /// # Errors
    ///
    /// As [`Client::send`] and [`Client::recv`].
    pub fn request_shutdown(&mut self, token: u64) -> io::Result<Reply<R>> {
        let header = RequestHeader {
            record_width: 0,
            job_id: token,
            payload_len: 0,
        };
        self.stream.write_all(&header.encode())?;
        self.stream.flush()?;
        self.recv()
    }

    /// Half-closes the write side, signalling the server that no more
    /// requests are coming while responses can still be read.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn finish_writes(&mut self) -> io::Result<()> {
        self.stream.shutdown(Shutdown::Write)
    }
}
