//! End-to-end Bonsai sorting systems (§IV of the paper).
//!
//! Three complete sorters built from the AMT engine, the memory models
//! and the Bonsai optimizer:
//!
//! - [`DramSorter`]: the latency-optimized DRAM-scale sorter of §IV-A
//!   (single `AMT(32, 256)`-class tree on AWS F1),
//! - [`HbmSorter`]: the unrolled high-bandwidth-memory sorter of §IV-B
//!   (λ_unrl trees with idle-halving merge-down stages),
//! - [`SsdSorter`]: the two-phase terabyte-scale SSD sorter of §IV-C
//!   (throughput-optimal pipelined phase one, FPGA reprogramming,
//!   latency-optimal wide-leaf phase two).
//!
//! Each sorter really sorts data (through the fast functional path, or
//! cycle-accurately via [`DramSorter::simulate`]) and reports timing for
//! the *target hardware*, flagged by [`Timing`] as `Simulated` (from the
//! cycle-level engine) or `Modeled` (from the validated analytic model,
//! the paper's own methodology for projected results).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
mod dram;
pub mod external;
mod hbm;
mod report;
mod ssd;

pub use dram::{DramSorter, SorterError};
pub use external::{ExternalSortStats, ExternalSorter};
pub use hbm::HbmSorter;
pub use report::{Phase, SorterReport, Timing};
pub use ssd::SsdSorter;
