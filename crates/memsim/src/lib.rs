//! Off-chip memory hierarchy models for the Bonsai simulator.
//!
//! The paper's performance model (Table II) depends on off-chip memory
//! only through a handful of parameters: sustained bandwidth `β_DRAM`,
//! I/O-bus bandwidth `β_I/O`, capacities, the number of banks, and the
//! requirement that accesses be batched into 1–4 KB bursts to reach peak
//! bandwidth (§II, §V-A). This crate models exactly those properties at
//! cycle granularity:
//!
//! - [`Port`]: a read or write channel moving a fixed number of bytes per
//!   cycle, with per-burst setup latency,
//! - [`Memory`]: a banked memory (DDR4 DRAM, HBM, or throttled variants)
//!   built from ports, with capacity accounting,
//! - [`DataLoader`]: the round-robin batched reader of §V-A that keeps
//!   every AMT leaf buffer fed while saturating the memory ports,
//! - [`WriteDrain`]: the symmetric batched writer at the tree root.
//!
//! All cycle counts are in kernel-clock cycles (250 MHz by default, as in
//! §VI-A).
//!
//! # Example
//!
//! ```
//! use bonsai_memsim::MemoryConfig;
//!
//! let dram = MemoryConfig::ddr4_aws_f1();
//! // 4 banks x 32 B/cycle x 250 MHz = 32 GB/s aggregate read bandwidth.
//! assert_eq!(dram.peak_read_bytes_per_cycle(), 128);
//! assert!((dram.peak_read_bandwidth() - 32e9).abs() < 1e-3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod loader;
mod memory;

pub use config::{LoaderConfig, MemoryConfig, DEFAULT_FREQ_HZ, LEAF_BUFFER_BATCHES};
pub use loader::{DataLoader, WriteDrain};
pub use memory::{Memory, Port, PortStats};
