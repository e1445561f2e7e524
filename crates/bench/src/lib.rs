//! The Bonsai benchmark harness: one regenerator per table and figure
//! of the paper's evaluation (ISCA 2020).
//!
//! Each `experiments::*` module computes the rows of one exhibit and
//! each `src/bin/*.rs` binary prints them:
//!
//! | Exhibit | Binary | Content |
//! |---|---|---|
//! | Table I | `table1` | ms/GB across platforms and sizes |
//! | Table IV | `table4` | DRAM-sorter resource breakdown |
//! | Table V | `table5` | 2 TB SSD sort time breakdown |
//! | Table VI | `table6` | building-block LUT/throughput |
//! | Figure 5 | `fig5` | optimal-AMT sort time vs DRAM bandwidth |
//! | Figures 8/9 | `fig8_9` | simulated vs predicted AMT sort times |
//! | Figure 10 | `fig10` | LUT utilization vs resource model |
//! | Figure 11 | `fig11` | DRAM sorter vs CPU/GPU/FPGA baselines |
//! | Figure 12 | `fig12` | bandwidth-efficiency at 16 GB |
//! | Figure 13 | `fig13` | latency/GB from 0.5 GB to 1024 TB |
//!
//! `cargo run -p bonsai-bench --bin make_all --release` regenerates
//! everything at once. Every number here is simulated or modeled time;
//! host time is measured by `bonsai-benchmark` (`crates/benchmark`) and
//! nowhere else.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod lint;
pub mod table;
