//! Cycle-level behavioral models of the Bonsai hardware datapath.
//!
//! The AMT (§II of the paper) is a binary tree of *k-mergers* joined by
//! *couplers*, fed through FIFOs by the data loader, with *zero append* /
//! *zero filter* units delimiting sorted runs with a reserved terminal
//! record (§V-B). This crate models each of those components at cycle
//! granularity:
//!
//! - [`Edge`]: one tree edge — a child merger's output FIFO and its
//!   parent's input FIFO (the 512-bit-wide BRAM FIFOs of Figure 7) as one
//!   bounded ring of plain records with an exact capacity per side, the
//!   coupler between the two levels being a cursor move,
//! - [`MergeStep`]: one merger's cycle over its three edges, emitting up
//!   to `k` records per cycle with the same stall, back-pressure and
//!   single-cycle flush semantics as the hardware unit built from two
//!   bitonic half-mergers (§II-A); [`KMerger`] is a merge step that owns
//!   its edges.
//!
//! The *zero append* and *zero filter* units live where the streams
//! are: the pass simulation in `bonsai-amt` appends a terminal after
//! every run it feeds a leaf and strips terminals from the root's output
//! as it writes the next pass's input.
//!
//! The model is *throughput- and occupancy-accurate*: a merger moves `k`
//! records per cycle exactly when the hardware would (inputs available and
//! no output back-pressure), stalls when the hardware would stall, and
//! spends one cycle emitting the terminal record when a run pair finishes
//! (the paper's single-cycle state flush). The CAS-level data movement of
//! the half-mergers is modeled structurally in `bonsai-bitonic`.
//!
//! # Example
//!
//! ```
//! use bonsai_merge_hw::KMerger;
//! use bonsai_records::{Record, U32Rec};
//!
//! let mut m: KMerger<U32Rec> = KMerger::new(4, 16);
//! // One sorted run per input, each followed by the terminal record.
//! for v in [1u32, 3, 5] { m.push_left(U32Rec::new(v)).unwrap(); }
//! m.push_left(U32Rec::TERMINAL).unwrap();
//! for v in [2u32, 4, 6] { m.push_right(U32Rec::new(v)).unwrap(); }
//! m.push_right(U32Rec::TERMINAL).unwrap();
//!
//! let mut out = Vec::new();
//! for _ in 0..8 {
//!     m.tick();
//!     while let Some(r) = m.pop_output() { out.push(r); }
//! }
//! let vals: Vec<u32> = out.iter().filter(|r| !r.is_terminal()).map(|r| r.0).collect();
//! assert_eq!(vals, vec![1, 2, 3, 4, 5, 6]);
//! assert!(out.last().unwrap().is_terminal());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod edge;
mod merger;

pub use edge::{Edge, FifoFullError};
pub use merger::{KMerger, MergeStep, MergerStats, Side};
