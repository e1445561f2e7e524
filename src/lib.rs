//! Bonsai: high-performance adaptive merge tree sorting.
//!
//! This is the umbrella crate of the Bonsai workspace — a full
//! reproduction of *“Bonsai: High-Performance Adaptive Merge Tree
//! Sorting”* (ISCA 2020) as a Rust library with a cycle-approximate
//! hardware simulator standing in for the paper's FPGA implementation.
//!
//! It re-exports every sub-crate under one namespace so applications can
//! depend on a single crate:
//!
//! - [`records`]: record/key abstractions and sorted-run bookkeeping,
//! - [`bitonic`]: compare-and-exchange networks (presorter, half-merger),
//! - [`merge_hw`]: cycle-level merger / FIFO / coupler models,
//! - [`memsim`]: DRAM / HBM / SSD memory models and the data loader,
//! - [`amt`]: the Adaptive Merge Tree engine (the paper's architecture),
//! - [`model`]: the Bonsai analytical models and configuration optimizer,
//! - [`sorters`]: end-to-end DRAM / HBM / SSD sorting systems,
//! - [`runtime`]: batch sort-job runtime (bounded queue, worker pool),
//! - [`net`]: sort-as-a-service framed TCP front end over the runtime,
//! - [`baselines`]: CPU radix-sort baseline and published-number models,
//! - [`gensort`]: workload generation (including gensort 100-byte records).
//!
//! Its own [`core`] module adds the [`core::Bonsai`] front door: pick a
//! platform, let Bonsai choose the tree, sort.
//!
//! # Quick start
//!
//! ```
//! use bonsai::model::{ArrayParams, BonsaiOptimizer, HardwareParams};
//!
//! let hw = HardwareParams::aws_f1();
//! let array = ArrayParams::from_bytes(1 << 30, 4); // 1 GiB of u32 records
//! let optimizer = BonsaiOptimizer::new(hw);
//! let best = optimizer.latency_optimal(&array).expect("feasible config");
//! println!("optimal AMT: p = {}, l = {}", best.config.throughput_p, best.config.leaves_l);
//! ```

pub mod core;

pub use bonsai_amt as amt;
pub use bonsai_baselines as baselines;
pub use bonsai_bitonic as bitonic;
pub use bonsai_gensort as gensort;
pub use bonsai_memsim as memsim;
pub use bonsai_merge_hw as merge_hw;
pub use bonsai_model as model;
pub use bonsai_net as net;
pub use bonsai_records as records;
pub use bonsai_runtime as runtime;
pub use bonsai_sorters as sorters;
