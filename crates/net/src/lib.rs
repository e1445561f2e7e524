//! Sort as a service: a framed TCP front end over the Bonsai batch
//! runtime.
//!
//! The paper's sorter is an accelerator you ship data to; this crate
//! is the software analogue of its host interface — a length-framed
//! byte protocol ([`frame`]) carrying fixed-width [`WireRecord`]
//! payloads, a threaded [`Server`] that bridges connections onto
//! [`bonsai_runtime::Runtime`]'s bounded job queue, and a blocking
//! [`Client`]. Everything is `std`-only: the workspace builds offline,
//! so framing, concurrency, and diagnostics use no external crates.
//!
//! Three properties the tests pin down:
//!
//! - **streaming completions** — results leave the server the moment a
//!   job finishes ([`bonsai_runtime::Runtime::submit_with_reply`]), in
//!   completion order, paired to requests by echoed job id;
//! - **backpressure** — the runtime's bounded queue, a per-client
//!   in-flight cap ([`ServerConfig::max_inflight_per_client`]) and a
//!   fixed cap on open connections keep a flood of clients from
//!   ballooning server memory;
//! - **failure isolation** — malformed frames get stable `BON07x`
//!   error responses (see `docs/diagnostics.md`), and only the
//!   desynchronizing kinds close that one connection; a failing or
//!   panicking job comes back as `BON077` on its own connection while
//!   every other client keeps sorting.
//!
//! # Example
//!
//! ```
//! use bonsai_net::{Client, Reply, Server, ServerConfig};
//! use bonsai_records::U32Rec;
//!
//! let server = Server::<U32Rec>::bind("127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::<U32Rec>::connect(server.local_addr())?;
//!
//! let records: Vec<U32Rec> = (1..=256).rev().map(U32Rec::new).collect();
//! match client.sort(7, &records)? {
//!     Reply::Sorted { job_id, records } => {
//!         assert_eq!(job_id, 7);
//!         assert!(records.windows(2).all(|w| w[0] <= w[1]));
//!     }
//!     Reply::ServerError { code, message, .. } => panic!("{code}: {message}"),
//! }
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.jobs_ok, 1);
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod frame;
pub mod server;

pub use bonsai_records::wire::WireRecord;
pub use client::Client;
pub use frame::{Reply, WireError, DEFAULT_MAX_PAYLOAD, HEADER_BYTES, MAGIC, VERSION};
pub use server::{Server, ServerConfig, ServerStats};
