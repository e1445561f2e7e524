//! Bitonic compare-and-exchange networks.
//!
//! The Bonsai hardware mergers are built from *bitonic half-mergers*: fully
//! pipelined networks that merge two sorted `k`-record tuples per cycle
//! (§II-A of the paper, after Batcher 1968 and Farmahini-Farahani 2008).
//! The 16-record presorter of §VI-C1 is a full bitonic *sorting* network.
//!
//! This crate implements both as explicit compare-and-exchange (CAS)
//! schedules — the same schedule the hardware wires up — so that
//!
//! - the functional result is exactly what the FPGA datapath computes, and
//! - the structural statistics (pipeline depth, CAS count) feed the
//!   resource model's `Θ(k·log k)` logic-utilization estimates.
//!
//! # Example
//!
//! ```
//! use bonsai_bitonic::HalfMerger;
//! use bonsai_records::U32Rec;
//!
//! let hm = HalfMerger::new(4);
//! let a: Vec<U32Rec> = [1u32, 3, 5, 7].map(U32Rec::new).to_vec();
//! let b: Vec<U32Rec> = [2u32, 4, 6, 8].map(U32Rec::new).to_vec();
//! let merged = hm.merge(&a, &b);
//! assert_eq!(merged, [1u32, 2, 3, 4, 5, 6, 7, 8].map(U32Rec::new).to_vec());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod network;
mod presorter;

pub use network::{merge_network, sorter_network, Network};
pub use presorter::{HalfMerger, Presorter};
