//! Property tests for the pipeline-graph analyses.
//!
//! Two invariants, exercised over a spread of analyzer-accepted
//! configurations with a seeded deterministic RNG:
//!
//! 1. every accepted configuration lowers to a graph that passes the
//!    deadlock and min-cut analyses (and all the rest of `analyze_all`),
//! 2. corrupting exactly one edge annotation flips exactly one
//!    diagnostic — the one that owns that annotation (`credits` →
//!    `BON030`, `fifo_depth` → `BON031`, `bytes_per_cycle` → `BON032`).
//!
//! The second property is what makes the diagnostics actionable: a
//! single bad annotation must not cascade into a wall of unrelated
//! errors.

use bonsai_amt::graph::{lower_to_graph, required_bytes_per_cycle, LowerOptions};
use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_check::codes;
use bonsai_check::graph::{NodeKind, PipelineGraph};
use bonsai_memsim::MemoryConfig;
use bonsai_rng::Rng;

/// A spread of configurations the shape checks accept: the four paper
/// tree shapes on DDR4, tiny trees on a single-bank memory (so no read
/// channel is legitimately idle) and an SSD-throttled shape.
fn accepted_configs() -> Vec<(String, SimEngineConfig)> {
    let mut out = Vec::new();
    for (p, l) in [(4, 16), (8, 64), (16, 256), (32, 64)] {
        out.push((
            format!("dram_p{p}_l{l}"),
            SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4),
        ));
    }
    for (p, l) in [(1, 2), (2, 4)] {
        out.push((
            format!("single_p{p}_l{l}"),
            SimEngineConfig::with_memory(AmtConfig::new(p, l), 4, MemoryConfig::ddr4_single_bank()),
        ));
    }
    out.push((
        "ssd_p8_l64".into(),
        SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::throttled_to_ssd()),
    ));
    out
}

fn lowered(cfg: &SimEngineConfig) -> (PipelineGraph, u64) {
    let g = lower_to_graph(cfg, &LowerOptions::default()).expect("accepted config must lower");
    let required = required_bytes_per_cycle(cfg);
    (g, required)
}

/// How many random corruption trials to run per configuration and
/// annotation kind.
const TRIALS: usize = 8;

#[test]
fn accepted_configs_pass_deadlock_and_min_cut() {
    for (name, cfg) in accepted_configs() {
        let (g, required) = lowered(&cfg);
        assert_eq!(g.validate(), Vec::new(), "{name}");
        assert_eq!(g.analyze_deadlock(), Vec::new(), "{name}");
        assert_eq!(g.analyze_bandwidth(required), Vec::new(), "{name}");
        let all = g.analyze_all(required).diagnostics;
        assert!(all.is_empty(), "{name}: {all:?}");
    }
}

#[test]
fn zeroing_credits_on_one_edge_flips_exactly_bon030() {
    let mut rng = Rng::seed_from_u64(0xB05A_0030);
    for (name, cfg) in accepted_configs() {
        let (clean, required) = lowered(&cfg);
        for _ in 0..TRIALS {
            let idx = rng.next_u64() as usize % clean.edges.len();
            let mut g = clean.clone();
            g.edges[idx].credits = 0;
            let diags = g.analyze_all(required).diagnostics;
            assert_eq!(diags.len(), 1, "{name} edge {idx}: {diags:?}");
            assert_eq!(diags[0].code, codes::GRAPH_DEADLOCK, "{name} edge {idx}");
        }
    }
}

#[test]
fn zeroing_fifo_depth_on_one_edge_flips_exactly_bon031() {
    let mut rng = Rng::seed_from_u64(0xB05A_0031);
    for (name, cfg) in accepted_configs() {
        let (clean, required) = lowered(&cfg);
        for _ in 0..TRIALS {
            let idx = rng.next_u64() as usize % clean.edges.len();
            let mut g = clean.clone();
            g.edges[idx].fifo_depth = 0;
            let diags = g.analyze_all(required).diagnostics;
            assert_eq!(diags.len(), 1, "{name} edge {idx}: {diags:?}");
            assert_eq!(
                diags[0].code,
                codes::GRAPH_FIFO_BELOW_FLUSH,
                "{name} edge {idx}"
            );
        }
    }
}

#[test]
fn zeroing_byte_rate_on_the_root_edge_flips_exactly_bon032() {
    // The root -> drain edge is the one link every record crosses, so
    // zeroing its rate always starves the min cut.
    for (name, cfg) in accepted_configs() {
        let (clean, required) = lowered(&cfg);
        let root_edge = clean
            .edges
            .iter()
            .position(|e| matches!(clean.nodes[e.to].kind, NodeKind::WriteDrain))
            .expect("every lowered graph has a root->drain edge");
        let mut g = clean.clone();
        g.edges[root_edge].bytes_per_cycle = 0;
        let diags = g.analyze_all(required).diagnostics;
        assert_eq!(diags.len(), 1, "{name}: {diags:?}");
        assert_eq!(diags[0].code, codes::GRAPH_BANDWIDTH_INFEASIBLE, "{name}");
        let bottleneck = &diags[0]
            .context
            .iter()
            .find(|(k, _)| *k == "bottleneck")
            .expect("BON032 localizes the cut")
            .1;
        assert!(bottleneck.contains("drain"), "{name}: {bottleneck}");
    }
}

#[test]
fn zeroing_byte_rate_on_any_edge_never_cascades_past_bon032() {
    // An arbitrary edge may carry spare capacity (a parallel leaf edge,
    // say), so zeroing it is allowed to go unnoticed — but when it does
    // surface, the only diagnostic is the bandwidth one.
    let mut rng = Rng::seed_from_u64(0xB05A_0032);
    for (name, cfg) in accepted_configs() {
        let (clean, required) = lowered(&cfg);
        for _ in 0..TRIALS {
            let idx = rng.next_u64() as usize % clean.edges.len();
            let mut g = clean.clone();
            g.edges[idx].bytes_per_cycle = 0;
            let diags = g.analyze_all(required).diagnostics;
            assert!(diags.len() <= 1, "{name} edge {idx}: {diags:?}");
            for d in &diags {
                assert_eq!(
                    d.code,
                    codes::GRAPH_BANDWIDTH_INFEASIBLE,
                    "{name} edge {idx}"
                );
            }
        }
    }
}

#[test]
fn the_three_annotations_map_to_three_distinct_codes() {
    // Same edge, three corruptions, three different diagnostics: the
    // annotation -> code mapping is injective.
    let (clean, required) = lowered(&accepted_configs()[0].1);
    let root_edge = clean
        .edges
        .iter()
        .position(|e| matches!(clean.nodes[e.to].kind, NodeKind::WriteDrain))
        .unwrap();
    let mut seen = Vec::new();
    for corrupt in [
        (|e: &mut bonsai_check::graph::Edge| e.credits = 0) as fn(&mut _),
        |e| e.fifo_depth = 0,
        |e| e.bytes_per_cycle = 0,
    ] {
        let mut g = clean.clone();
        corrupt(&mut g.edges[root_edge]);
        let diags = g.analyze_all(required).diagnostics;
        assert_eq!(diags.len(), 1, "{diags:?}");
        seen.push(diags[0].code);
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen,
        vec![
            codes::GRAPH_DEADLOCK,
            codes::GRAPH_FIFO_BELOW_FLUSH,
            codes::GRAPH_BANDWIDTH_INFEASIBLE,
        ]
    );
}
