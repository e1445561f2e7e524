//! Lowering a [`SimEngineConfig`] into the pipeline-graph IR of
//! `bonsai_check::graph`.
//!
//! The IR makes the composed dataflow explicit — read memory channels →
//! data loader → leaf FIFOs → merger/coupler tree → write drain → write
//! memory channels — with every edge annotated by its FIFO depth (in
//! records), producer credits and peak byte rate. The graph analyses
//! (`BON030`–`BON037`) then certify deadlock freedom, min-cut bandwidth
//! feasibility and dead-component absence *before* a single cycle is
//! simulated; see `docs/GRAPH_IR.md` for the schema.
//!
//! Lowering rules (all derived from the hardware model, §V):
//!
//! - one read [`NodeKind::MemoryChannel`] per memory bank; leaf `j`
//!   streams from channel `j mod banks`, so a channel serving no leaf is
//!   dead hardware (`BON034`),
//! - leaf edges carry `buffer_records` of FIFO (the §V-A double buffer)
//!   with one credit per batch in the buffer,
//! - internal tree edges use the simulator's FIFO sizing rule
//!   `max(8·width, 16)` with credit-per-slot flow control,
//! - a [`NodeKind::Coupler`] appears wherever the parent merger is wider
//!   than its children (serial-to-parallel conversion, §II),
//! - the write-back path buffers `batch_bytes / payload_bytes` records
//!   per channel, where the payload width defaults to the record width
//!   ([`LowerOptions::payload_bytes`] overrides it for key-payload
//!   layouts; an explicit zero is `BON017`).

use bonsai_check::graph::{Edge, NodeKind, PipelineGraph};
use bonsai_check::{codes, Diagnostic};

use crate::config::SimEngineConfig;

/// Options that refine the lowering without being part of the engine
/// configuration proper.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowerOptions {
    /// Width in bytes of the payload actually written back per record.
    /// `None` uses the loader's full record width. `Some(0)` is rejected
    /// with `BON017` — the write path would buffer infinitely many
    /// records per batch.
    pub payload_bytes: Option<u64>,
}

/// The sustained root throughput the graph must carry: `p` records per
/// cycle of `record_bytes` each (the `p·f·r` term of Eq. 1, divided by
/// the clock).
#[must_use]
pub fn required_bytes_per_cycle(config: &SimEngineConfig) -> u64 {
    config.amt.p as u64 * config.loader.record_bytes
}

/// Lowers an engine configuration into the pipeline-graph IR.
///
/// Fails (returning the shape diagnostics) only when the configuration
/// cannot be given a graph at all: a non-power-of-two tree shape
/// (`BON001`/`BON002`), a zero record width (`BON004`, every edge rate
/// divides by it) or an explicit zero payload width (`BON017`).
/// Everything else — including zero banks or zero credits — lowers to a
/// graph so the graph analyses can localize the problem.
pub fn lower_to_graph(
    config: &SimEngineConfig,
    opts: &LowerOptions,
) -> Result<PipelineGraph, Vec<Diagnostic>> {
    let amt = config.amt;
    let loader = config.loader;
    let memory = config.memory;

    let mut fatal = bonsai_check::check_amt_shape(amt.p, amt.l);
    if loader.record_bytes == 0 {
        fatal.push(
            Diagnostic::error(
                codes::RECORD_WIDTH_ZERO,
                "cannot lower to a pipeline graph: record width is zero",
            )
            .with("record_bytes", loader.record_bytes),
        );
    }
    let payload_bytes = opts.payload_bytes.unwrap_or(loader.record_bytes);
    if opts.payload_bytes == Some(0) {
        fatal.push(
            Diagnostic::error(
                codes::WRITE_PAYLOAD_ZERO,
                "cannot lower to a pipeline graph: write-back payload width is zero",
            )
            .with("payload_bytes", 0),
        );
    }
    fatal.retain(Diagnostic::is_error);
    if !fatal.is_empty() {
        return Err(fatal);
    }

    let r = loader.record_bytes;
    let batch_records = loader.batch_bytes / r;
    let buffer_records = batch_records * loader.buffer_batches;
    let levels = amt.levels();
    // With zero banks there is still one (0-bank) channel node per
    // direction so BON035 can name the offender.
    let n_channels = memory.banks.max(1);
    let banks_per_channel = if memory.banks == 0 { 0 } else { 1 };

    let mut g = PipelineGraph::new();
    let source = g.add_node("source", NodeKind::Source, 0);
    let sink = g.add_node("sink", NodeKind::Sink, 0);
    let loader_node = g.add_node("loader", NodeKind::Loader, 1);
    let drain = g.add_node("drain", NodeKind::WriteDrain, 1);

    // Read channels. A channel moves `banks_per_channel ·
    // read_bytes_per_cycle` bytes per cycle and charges the burst setup
    // as pipeline latency.
    let read_rate = banks_per_channel as u64 * memory.read_bytes_per_cycle;
    let chan_fifo = batch_records.max(1);
    let mut read_channels = Vec::with_capacity(n_channels);
    for c in 0..n_channels {
        let node = g.add_node(
            format!("chan_r{c}"),
            NodeKind::MemoryChannel {
                banks: banks_per_channel,
                write: false,
            },
            memory.burst_setup_cycles,
        );
        g.add_edge(Edge {
            from: source,
            to: node,
            fifo_depth: chan_fifo,
            credits: 2,
            bytes_per_cycle: read_rate,
        });
        read_channels.push(node);
    }
    // Leaf j streams through channel j mod banks
    // (`MemoryConfig::bank_for_leaf`); only channels serving at least
    // one leaf connect to the loader (the rest are dead).
    let serving = memory
        .banks_serving(amt.l)
        .max(usize::from(memory.banks == 0));
    for (c, &node) in read_channels.iter().enumerate() {
        if c < serving {
            g.add_edge(Edge {
                from: node,
                to: loader_node,
                fifo_depth: chan_fifo,
                credits: 2,
                bytes_per_cycle: read_rate,
            });
        }
    }

    // The merger tree, root (level 0) to bottom (level levels-1). The
    // simulator sizes inter-level FIFOs as max(8·width, 16) records
    // (`tree.rs`), and every FIFO slot is a send credit.
    let mut level_nodes: Vec<Vec<usize>> = Vec::with_capacity(levels);
    for k in 0..levels {
        let width = amt.merger_width_at_level(k);
        let nodes = (0..amt.mergers_at_level(k))
            .map(|i| {
                g.add_node(
                    format!("merger_l{k}_{i}"),
                    NodeKind::Merger { level: k, width },
                    1,
                )
            })
            .collect();
        level_nodes.push(nodes);
    }
    for k in 0..levels.saturating_sub(1) {
        let w_parent = amt.merger_width_at_level(k);
        let w_child = amt.merger_width_at_level(k + 1);
        let internal_fifo = (8 * w_parent as u64).max(16);
        for (i, &parent) in level_nodes[k].iter().enumerate() {
            // A coupler converts two half-width streams into the
            // parent's tuple width when the width doubles.
            let feed = if w_parent > w_child {
                let coupler = g.add_node(
                    format!("coupler_l{k}_{i}"),
                    NodeKind::Coupler {
                        level: k,
                        width: w_parent,
                    },
                    1,
                );
                g.add_edge(Edge {
                    from: coupler,
                    to: parent,
                    fifo_depth: internal_fifo,
                    credits: internal_fifo,
                    bytes_per_cycle: w_parent as u64 * r,
                });
                coupler
            } else {
                parent
            };
            for child_slot in 0..2 {
                g.add_edge(Edge {
                    from: level_nodes[k + 1][2 * i + child_slot],
                    to: feed,
                    fifo_depth: internal_fifo,
                    credits: internal_fifo,
                    bytes_per_cycle: w_child as u64 * r,
                });
            }
        }
    }

    // Leaf edges: the loader refills each bottom-merger input buffer in
    // batches; the buffer holds `buffer_records` and grants one credit
    // per buffered batch (§V-A's "two full read batches").
    let bottom = levels - 1;
    let w_bottom = amt.merger_width_at_level(bottom);
    for &merger in &level_nodes[bottom] {
        for _ in 0..2 {
            g.add_edge(Edge {
                from: loader_node,
                to: merger,
                fifo_depth: buffer_records,
                credits: loader.buffer_batches,
                bytes_per_cycle: w_bottom as u64 * r,
            });
        }
    }

    // Root output: the simulator's 2k+1-deep root FIFO into the drain.
    let root_fifo = 2 * amt.p as u64 + 1;
    g.add_edge(Edge {
        from: level_nodes[0][0],
        to: drain,
        fifo_depth: root_fifo,
        credits: root_fifo,
        bytes_per_cycle: amt.p as u64 * r,
    });

    // Write channels: batches stripe round-robin over every bank, and
    // each channel buffers one batch of write-back payloads.
    let write_rate = banks_per_channel as u64 * memory.write_bytes_per_cycle;
    let write_fifo = loader.batch_bytes / payload_bytes;
    for c in 0..n_channels {
        let node = g.add_node(
            format!("chan_w{c}"),
            NodeKind::MemoryChannel {
                banks: banks_per_channel,
                write: true,
            },
            memory.burst_setup_cycles,
        );
        g.add_edge(Edge {
            from: drain,
            to: node,
            fifo_depth: write_fifo,
            credits: 2,
            bytes_per_cycle: write_rate,
        });
        g.add_edge(Edge {
            from: node,
            to: sink,
            fifo_depth: write_fifo,
            credits: 2,
            bytes_per_cycle: write_rate,
        });
    }

    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmtConfig;
    use bonsai_memsim::MemoryConfig;

    fn dram(p: usize, l: usize) -> SimEngineConfig {
        SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4)
    }

    fn lower(config: &SimEngineConfig) -> PipelineGraph {
        lower_to_graph(config, &LowerOptions::default()).expect("lowers")
    }

    /// The graph findings for `config` against its own required rate.
    fn graph_diags(config: &SimEngineConfig) -> Vec<Diagnostic> {
        lower(config)
            .analyze_all(required_bytes_per_cycle(config))
            .diagnostics
    }

    #[test]
    fn paper_shapes_lower_and_pass_every_analysis() {
        for (p, l) in [(4, 16), (8, 64), (16, 256), (32, 64)] {
            let cfg = dram(p, l);
            let diags = graph_diags(&cfg);
            assert!(diags.is_empty(), "AMT({p},{l}): {diags:?}");
        }
        // Tiny trees need a memory with no more banks than leaves,
        // otherwise the spare read channels are (correctly) dead.
        for (p, l) in [(1, 2), (2, 4)] {
            let cfg = SimEngineConfig::with_memory(
                AmtConfig::new(p, l),
                4,
                MemoryConfig::ddr4_single_bank(),
            );
            let diags = graph_diags(&cfg);
            assert!(diags.is_empty(), "AMT({p},{l}): {diags:?}");
        }
    }

    #[test]
    fn node_count_matches_tree_arithmetic() {
        let cfg = dram(4, 16);
        let g = lower(&cfg);
        // 15 mergers + 3 couplers (one l0, two l1) + loader + drain +
        // 4 read channels + 4 write channels + source + sink = 30.
        assert_eq!(g.nodes.len(), 30);
        let couplers = g
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Coupler { .. }))
            .count();
        assert_eq!(couplers, 3);
    }

    #[test]
    fn max_flow_is_bounded_by_root_rate() {
        let cfg = dram(32, 64);
        let g = lower(&cfg);
        // p=32, r=4: the tree carries exactly 128 B/cyc, as does the
        // 4-bank DDR4 read side.
        assert_eq!(g.max_flow_bytes_per_cycle(), Some(128));
        assert_eq!(required_bytes_per_cycle(&cfg), 128);
    }

    #[test]
    fn zero_buffer_batches_deadlocks() {
        let mut cfg = dram(4, 16);
        cfg.loader.buffer_batches = 0;
        let diags = graph_diags(&cfg);
        assert!(
            diags.iter().any(|d| d.code == codes::GRAPH_DEADLOCK),
            "{diags:?}"
        );
    }

    #[test]
    fn shallow_leaf_buffer_trips_fifo_check() {
        // p=8, l=4: bottom mergers are 4-wide and need 5-record FIFOs,
        // but 32-byte batches of 16-byte records double-buffer only 4.
        let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(8, 4), 16);
        cfg.loader.batch_bytes = 32;
        let diags = graph_diags(&cfg);
        let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
        assert!(!errors.is_empty());
        assert!(
            errors
                .iter()
                .all(|d| d.code == codes::GRAPH_FIFO_BELOW_FLUSH),
            "{errors:?}"
        );
    }

    #[test]
    fn oversubscribed_tree_fails_min_cut() {
        // p=32 of 8-byte records needs 256 B/cyc; DDR4 reads 128.
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(32, 64), 8);
        let diags = graph_diags(&cfg);
        let bw: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::GRAPH_BANDWIDTH_INFEASIBLE)
            .collect();
        assert_eq!(bw.len(), 1, "{diags:?}");
        let cut = &bw[0]
            .context
            .iter()
            .find(|(k, _)| *k == "bottleneck")
            .unwrap()
            .1;
        assert!(
            cut.contains("chan_r"),
            "cut should be the read channels: {cut}"
        );
    }

    #[test]
    fn unused_channels_are_dead_components() {
        // 4 leaves cannot cover 32 HBM channels: 28 read channels idle.
        let cfg = SimEngineConfig::with_memory(AmtConfig::new(2, 4), 4, MemoryConfig::hbm_u50());
        let diags = graph_diags(&cfg);
        let dead: Vec<_> = diags
            .iter()
            .filter(|d| d.code == codes::GRAPH_DEAD_COMPONENT)
            .collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert!(dead[0]
            .context
            .iter()
            .any(|(k, v)| *k == "count" && v == "28"));
    }

    #[test]
    fn zero_banks_lower_to_zero_bank_channels() {
        let mut cfg = dram(4, 16);
        cfg.memory.banks = 0;
        let diags = graph_diags(&cfg);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::GRAPH_CHANNEL_ZERO_BANKS),
            "{diags:?}"
        );
    }

    #[test]
    fn zero_payload_is_rejected_at_lowering() {
        let cfg = dram(4, 16);
        let err = lower_to_graph(
            &cfg,
            &LowerOptions {
                payload_bytes: Some(0),
            },
        )
        .unwrap_err();
        assert!(
            err.iter().any(|d| d.code == codes::WRITE_PAYLOAD_ZERO),
            "{err:?}"
        );
    }

    #[test]
    fn zero_record_width_is_rejected_at_lowering() {
        let mut cfg = dram(4, 16);
        cfg.loader.record_bytes = 0;
        let err = lower_to_graph(&cfg, &LowerOptions::default()).unwrap_err();
        assert!(
            err.iter().any(|d| d.code == codes::RECORD_WIDTH_ZERO),
            "{err:?}"
        );
    }

    #[test]
    fn graph_round_trips_through_json() {
        let g = lower(&dram(8, 64));
        let back = PipelineGraph::from_json(&g.to_json()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn critical_path_scales_with_depth() {
        let shallow = lower(&dram(4, 16));
        let deep = lower(&dram(4, 256));
        let a = shallow.critical_path_cycles().unwrap();
        let b = deep.critical_path_cycles().unwrap();
        assert!(
            b > a,
            "deeper tree must have a longer fill path: {a} vs {b}"
        );
    }
}
