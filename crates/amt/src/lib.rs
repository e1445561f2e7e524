//! The Adaptive Merge Tree (AMT) — the core architecture of the Bonsai
//! paper (§II).
//!
//! An `AMT(p, ℓ)` is a complete binary tree of hardware mergers that
//! merges `ℓ` sorted runs concurrently and outputs `p` records per cycle
//! at the root: a `p`-merger at the root, two `p/2`-mergers below it, and
//! so on (1-mergers once `2^k > p`), with couplers concatenating tuples
//! between levels. Sorting runs the data through the tree in recursive
//! *stages*: stage `k` turns `ℓ^(k-1)·a`-record runs into `ℓ^k·a`-record
//! runs, so `ceil(log_ℓ(N/a))` stages sort `N` records from `a`-record
//! presorted runs.
//!
//! This crate provides:
//!
//! - [`AmtConfig`] / [`MergeTree`]: tree construction from `(p, ℓ)` and
//!   the cycle-level tree simulation built on `bonsai-merge-hw`,
//! - [`SimEngine`]: a full cycle-approximate merge-sort engine that
//!   streams real data through the tree, fed by the `bonsai-memsim` data
//!   loader, producing sorted output plus cycle-exact timing
//!   ([`SortReport`]),
//! - [`functional`]: a fast, functionally identical execution path
//!   (loser-tree `ℓ`-way merges) for data sizes where cycle simulation
//!   is unnecessary.
//!
//! # Example
//!
//! ```
//! use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
//! use bonsai_gensort::dist::uniform_u32;
//!
//! let data = uniform_u32(10_000, 1);
//! let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
//! let mut engine = SimEngine::new(cfg);
//! let (sorted, report) = engine.sort(data.clone());
//! assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
//! assert!(report.total_cycles > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
pub mod dag;
mod engine;
mod error;
pub mod functional;
mod loser_tree;
pub mod passsim;
mod report;
pub mod schedule;
mod tree;
mod unrolled;

pub use cache::{CompiledShape, ShapeCache};
pub use config::{AmtConfig, SimEngineConfig};
pub use dag::{PassPlan, SortPlan, VIRTUAL_WORKERS};
pub use engine::SimEngine;
pub use error::SortError;
/// [`functional::kway_merge`] under the name the loser tree was first
/// exported with; the one kernel stands behind both.
pub use functional::kway_merge as loser_tree_merge;
pub use loser_tree::LoserTree;
pub use report::{PassReport, SortReport};
pub use tree::{MergeTree, TreeStats};
pub use unrolled::{UnrolledReport, UnrolledSim};
