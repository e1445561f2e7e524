//! One test per registered `BONxxx` code: every code must be emitted by
//! the check that owns it (or, for sanitizer codes whose trigger
//! requires a broken datapath, provably wired into the probe API), with
//! the severity the registry declares.

use bonsai_check::{codes, has_errors, Diagnostic, Severity};
use bonsai_model::check::analyze_engine;

/// Asserts `diags` contains `code` and that its severity matches the
/// registry entry.
fn assert_emits(diags: &[Diagnostic], code: &str) {
    let d = diags
        .iter()
        .find(|d| d.code == code)
        .unwrap_or_else(|| panic!("expected {code} in {diags:?}"));
    let info = codes::lookup(code).expect("code must be registered");
    assert_eq!(
        d.severity, info.severity,
        "{code} severity drifted from registry"
    );
}

#[test]
fn bon001_p_not_power_of_two() {
    assert_emits(
        &bonsai_check::check_amt_shape(6, 16),
        codes::P_NOT_POWER_OF_TWO,
    );
    assert_emits(
        &bonsai_check::check_amt_shape(0, 16),
        codes::P_NOT_POWER_OF_TWO,
    );
    assert!(bonsai_amt::AmtConfig::try_new(6, 16).is_err());
}

#[test]
fn bon002_l_not_power_of_two() {
    assert_emits(
        &bonsai_check::check_amt_shape(4, 12),
        codes::L_NOT_POWER_OF_TWO,
    );
    assert_emits(
        &bonsai_check::check_amt_shape(4, 1),
        codes::L_NOT_POWER_OF_TWO,
    );
    assert!(bonsai_amt::AmtConfig::try_new(4, 1).is_err());
}

#[test]
fn bon003_p_exceeds_leaves_is_warning() {
    let diags = bonsai_check::check_amt_shape(32, 16);
    assert_emits(&diags, codes::P_EXCEEDS_LEAVES);
    assert!(!has_errors(&diags), "BON003 must not reject the config");
    assert!(bonsai_amt::AmtConfig::try_new(32, 16).is_ok());
}

#[test]
fn bon004_record_width_zero() {
    assert_emits(
        &bonsai_check::check_loader_shape(4096, 0),
        codes::RECORD_WIDTH_ZERO,
    );
    assert!(bonsai_memsim::LoaderConfig::try_new(4096, 0).is_err());
}

#[test]
fn bon005_batch_not_record_multiple() {
    assert_emits(
        &bonsai_check::check_loader_shape(4096, 3),
        codes::BATCH_NOT_RECORD_MULTIPLE,
    );
    assert!(bonsai_memsim::LoaderConfig::try_new(4096, 3).is_err());
}

#[test]
fn bon010_batch_below_bus_width() {
    assert_emits(
        &bonsai_check::check_loader_against_memory(16, 32, 8, 1 << 30),
        codes::BATCH_BELOW_BUS_WIDTH,
    );
}

#[test]
fn bon012_batch_zero() {
    assert_emits(&bonsai_check::check_loader_shape(0, 4), codes::BATCH_ZERO);
    assert!(bonsai_memsim::LoaderConfig::try_new(0, 4).is_err());
}

#[test]
fn bon013_zero_banks() {
    assert_emits(
        &bonsai_check::check_memory_shape(0, 32, 32),
        codes::MEMORY_ZERO_BANKS,
    );
    assert!(bonsai_memsim::MemoryConfig::try_new(0, 32, 32, 1 << 30, 8).is_err());
}

#[test]
fn bon014_zero_bandwidth() {
    assert_emits(
        &bonsai_check::check_memory_shape(4, 0, 32),
        codes::MEMORY_ZERO_BANDWIDTH,
    );
    assert_emits(
        &bonsai_check::check_memory_shape(4, 32, 0),
        codes::MEMORY_ZERO_BANDWIDTH,
    );
    assert!(bonsai_memsim::MemoryConfig::try_new(4, 32, 0, 1 << 30, 8).is_err());
}

#[test]
fn bon015_capacity_below_batch() {
    assert_emits(
        &bonsai_check::check_loader_against_memory(4096, 32, 8, 1000),
        codes::CAPACITY_BELOW_BATCH,
    );
}

#[test]
fn bon016_burst_efficiency_low() {
    // 64-byte batch on a 32 B/cycle port: 2 transfer cycles vs 8 setup
    // cycles -> efficiency 20%.
    let diags = bonsai_check::check_loader_against_memory(64, 32, 8, 1 << 30);
    assert_emits(&diags, codes::BURST_EFFICIENCY_LOW);
    assert!(!has_errors(&diags));
}

#[test]
fn bon020_lut_budget_exceeded() {
    assert_emits(
        &bonsai_check::check_lut_budget(2000.0, 1000.0),
        codes::LUT_BUDGET_EXCEEDED,
    );
    // Through the resource model: 16 copies of the paper's biggest tree.
    let diags = bonsai_model::check::check_full_config(
        &bonsai_model::ComponentLibrary::paper(),
        &bonsai_model::HardwareParams::aws_f1(),
        &bonsai_model::FullConfig {
            throughput_p: 32,
            leaves_l: 256,
            unroll: 16,
            pipeline: 1,
        },
        32,
        None,
    );
    assert_emits(&diags, codes::LUT_BUDGET_EXCEEDED);
}

#[test]
fn bon021_bram_budget_exceeded() {
    assert_emits(
        &bonsai_check::check_bram_budget(1 << 22, 1 << 21),
        codes::BRAM_BUDGET_EXCEEDED,
    );
    // Two pipelined copies of an l=256 tree need 4 MiB of leaf BRAM.
    let diags = bonsai_model::check::check_full_config(
        &bonsai_model::ComponentLibrary::paper(),
        &bonsai_model::HardwareParams::aws_f1(),
        &bonsai_model::FullConfig {
            throughput_p: 1,
            leaves_l: 256,
            unroll: 1,
            pipeline: 2,
        },
        32,
        None,
    );
    assert_emits(&diags, codes::BRAM_BUDGET_EXCEEDED);
}

#[test]
fn bon022_p_exceeds_max() {
    assert_emits(
        &bonsai_check::check_tool_limits(64, 64, 32, 256),
        codes::P_EXCEEDS_MAX,
    );
}

#[test]
fn bon023_l_exceeds_max() {
    assert_emits(
        &bonsai_check::check_tool_limits(16, 512, 32, 256),
        codes::L_EXCEEDS_MAX,
    );
}

#[test]
fn bon024_copies_zero() {
    assert_emits(&bonsai_check::check_copies(0, 1), codes::COPIES_ZERO);
    assert_emits(&bonsai_check::check_copies(1, 0), codes::COPIES_ZERO);
}

#[test]
fn bon025_presort_not_power_of_two() {
    assert_emits(
        &bonsai_check::check_presort(10, 1024),
        codes::PRESORT_NOT_POWER_OF_TWO,
    );
    assert_emits(
        &bonsai_check::check_presort(0, 1024),
        codes::PRESORT_NOT_POWER_OF_TWO,
    );
}

#[test]
fn bon026_presort_exceeds_batch() {
    let diags = bonsai_check::check_presort(2048, 1024);
    assert_emits(&diags, codes::PRESORT_EXCEEDS_BATCH);
    assert!(!has_errors(&diags));
}

// --- Pipeline dataflow codes (BON03x) --------------------------------

fn dram(p: usize, l: usize, record_bytes: u64) -> bonsai_amt::SimEngineConfig {
    bonsai_amt::SimEngineConfig::dram_sorter(bonsai_amt::AmtConfig::new(p, l), record_bytes)
}

/// The one `code` finding in `diags`, as `(name, value)` context pairs.
fn context_of(diags: &[Diagnostic], code: &str) -> Vec<(&'static str, String)> {
    let found: Vec<_> = diags.iter().filter(|d| d.code == code).collect();
    assert_eq!(found.len(), 1, "expected one {code} in {diags:?}");
    found[0].context.clone()
}

#[test]
fn bon031_fifo_below_flush() {
    // 4-wide bottom mergers need 5-record FIFOs; 32-byte batches of
    // 16-byte records double-buffer only 4.
    let mut cfg = dram(8, 4, 16);
    cfg.loader.batch_bytes = 32;
    let diags = analyze_engine(&cfg);
    assert_emits(&diags, codes::GRAPH_FIFO_BELOW_FLUSH);
    // Exactly four offenders: all named, none elided.
    let edges = "loader->merger_l1_0 (depth 4, need 5), loader->merger_l1_0 (depth 4, need 5), \
                 loader->merger_l1_1 (depth 4, need 5), loader->merger_l1_1 (depth 4, need 5)";
    assert_eq!(
        context_of(&diags, codes::GRAPH_FIFO_BELOW_FLUSH),
        [("edges", edges.to_string()), ("count", "4".to_string())]
    );
    // At the boundary the buffer suffices: two one-record batches hold
    // the two records a 1-wide bottom merger needs.
    let mut cfg = dram(2, 4, 32);
    cfg.loader.batch_bytes = 32;
    let diags = analyze_engine(&cfg);
    assert!(
        !diags
            .iter()
            .any(|d| d.code == codes::GRAPH_FIFO_BELOW_FLUSH),
        "{diags:?}"
    );
}

#[test]
fn bon032_min_cut_below_required() {
    // p=32 of 8-byte records needs 256 B/cyc; DDR4 reads 128.
    let diags = analyze_engine(&dram(32, 64, 8));
    assert_emits(&diags, codes::GRAPH_BANDWIDTH_INFEASIBLE);
    let bottleneck = "source->chan_r0 (32 B/cyc), source->chan_r1 (32 B/cyc), \
                      source->chan_r2 (32 B/cyc), source->chan_r3 (32 B/cyc)";
    assert_eq!(
        context_of(&diags, codes::GRAPH_BANDWIDTH_INFEASIBLE),
        [
            ("max_flow_bytes_per_cycle", "128".to_string()),
            ("required_bytes_per_cycle", "256".to_string()),
            ("bottleneck", bottleneck.to_string()),
        ]
    );
}

#[test]
fn bon032_write_side_bottleneck() {
    // Every preset writes as fast as it reads; a memory that writes a
    // quarter as fast cuts the pipeline at its write channels.
    let mut cfg = dram(32, 64, 4);
    cfg.memory = bonsai_memsim::MemoryConfig {
        write_bytes_per_cycle: 8,
        ..bonsai_memsim::MemoryConfig::ddr4_aws_f1()
    };
    let diags = analyze_engine(&cfg);
    assert_emits(&diags, codes::GRAPH_BANDWIDTH_INFEASIBLE);
    let bottleneck = "drain->chan_w0 (8 B/cyc), drain->chan_w1 (8 B/cyc), \
                      drain->chan_w2 (8 B/cyc), drain->chan_w3 (8 B/cyc)";
    assert_eq!(
        context_of(&diags, codes::GRAPH_BANDWIDTH_INFEASIBLE),
        [
            ("max_flow_bytes_per_cycle", "32".to_string()),
            ("required_bytes_per_cycle", "128".to_string()),
            ("bottleneck", bottleneck.to_string()),
        ]
    );
}

/// Pins the engine pass over the 5 040-point lattice p ∈ {1..32} ×
/// ℓ ∈ {2..256} × r ∈ {4, 8, 16} × batch ∈ {32..1024, 4096} B × the
/// five memory presets: how often each code fires.
/// The dataflow codes judge the whole memory, as every simulated sort
/// uses it: `BON032` fires only where all the banks together read or
/// write less than the root's `p·r` bytes per cycle.
#[test]
fn engine_pass_code_counts_over_the_lattice() {
    use bonsai_memsim::{LoaderConfig, MemoryConfig};
    let presets = [
        MemoryConfig::ddr4_aws_f1(),
        MemoryConfig::ddr4_single_bank(),
        MemoryConfig::hbm_u50(),
        MemoryConfig::throttled_to_ssd(),
        MemoryConfig::ssd_direct(),
    ];
    let mut counts = std::collections::BTreeMap::new();
    let mut points = 0;
    for (memory, p, l) in presets
        .into_iter()
        .flat_map(|m| [1, 2, 4, 8, 16, 32].map(|p| (m, p)))
        .flat_map(|(m, p)| (1..=8).map(move |k| (m, p, 1 << k)))
    {
        for record_bytes in [4, 8, 16] {
            for batch_bytes in [32, 64, 128, 256, 512, 1024, 4096] {
                let cfg = bonsai_amt::SimEngineConfig {
                    amt: bonsai_amt::AmtConfig { p, l },
                    loader: LoaderConfig {
                        batch_bytes,
                        record_bytes,
                    },
                    memory,
                    presort: Some(16),
                };
                points += 1;
                for d in analyze_engine(&cfg) {
                    *counts.entry(d.code).or_insert(0) += 1;
                }
            }
        }
    }
    assert_eq!(points, 5_040);
    assert_eq!(
        counts.into_iter().collect::<Vec<_>>(),
        [
            (codes::P_EXCEEDS_LEAVES, 1_050),
            (codes::BURST_EFFICIENCY_LOW, 2_736),
            (codes::PRESORT_EXCEEDS_BATCH, 1_440),
            (codes::GRAPH_FIFO_BELOW_FLUSH, 170),
            (codes::GRAPH_BANDWIDTH_INFEASIBLE, 2_128),
        ]
    );
}

// --- Simulation-runtime codes (BON04x) -------------------------------

#[test]
fn bon040_pass_livelock_is_a_structured_error() {
    let data = bonsai_gensort::dist::uniform_u32(50_000, 1);
    // A 10-cycle bound livelocks immediately on a real pass; the engine
    // must surface BON040 instead of panicking mid-sort.
    let mut engine = bonsai_amt::SimEngine::try_new(dram(4, 16, 4))
        .expect("valid config")
        .with_max_pass_cycles(10);
    let err = engine.try_sort(data.clone()).unwrap_err();
    assert_emits(
        std::slice::from_ref(&err.diagnostic),
        codes::SIM_PASS_LIVELOCK,
    );
    assert_eq!(err.code(), codes::SIM_PASS_LIVELOCK);
    assert_eq!(err.stage, 1, "first pass trips the bound");

    // The per-group sort reports the identical error: its first failing
    // group is in the same pass.
    let mut engine = bonsai_amt::SimEngine::try_new(dram(4, 16, 4))
        .expect("valid config")
        .with_max_pass_cycles(10);
    let pipelined = engine.try_sort_pipelined(data, 1).unwrap_err();
    assert_eq!(err, pipelined);
}

#[test]
fn engine_try_new_reports_bon004_instead_of_panicking() {
    let mut cfg = dram(4, 16, 4);
    cfg.loader.record_bytes = 0;
    let diags = bonsai_amt::SimEngine::try_new(cfg).unwrap_err();
    assert_emits(&diags, codes::RECORD_WIDTH_ZERO);
}

// --- Runtime-topology codes (BON05x) ---------------------------------

/// Shorthand: shape-check a runtime config on a fixed 8-core host.
fn runtime_shape(workers: usize, queue_depth: usize) -> Vec<Diagnostic> {
    bonsai_check::check_runtime_shape(workers, queue_depth, 8)
}

#[test]
fn bon054_oversubscribed_host() {
    let diags = runtime_shape(9, 16);
    assert_emits(&diags, codes::RUNTIME_OVERSUBSCRIBED);
    assert!(!has_errors(&diags));
    assert_eq!(
        diags[0].context,
        [("workers", "9".to_string()), ("cores", "8".to_string())]
    );
    assert!(runtime_shape(8, 16).is_empty());
    // The `0` sentinel is one worker per core: never more than the host.
    assert!(runtime_shape(0, 16).is_empty());
}

#[test]
fn bon055_queue_shallower_than_pool() {
    let diags = runtime_shape(8, 2);
    assert_emits(&diags, codes::RUNTIME_QUEUE_BELOW_WORKERS);
    assert!(!has_errors(&diags));
    assert!(runtime_shape(8, 8).is_empty());
    // The queue clamps a depth of 0 to one slot: it starves a pool of
    // two or more exactly like a depth of 1, and one worker not at all.
    assert_emits(&runtime_shape(2, 0), codes::RUNTIME_QUEUE_BELOW_WORKERS);
    assert!(runtime_shape(1, 0).is_empty());
    // The auto-sized pool (`0`) states no worker count to contradict.
    assert!(runtime_shape(0, 0).is_empty());
}

#[test]
fn default_runtime_config_is_shape_clean_on_any_host() {
    let cfg = bonsai_runtime::RuntimeConfig::default();
    for cores in [1, 2, 8, 64] {
        assert!(
            bonsai_check::check_runtime_shape(cfg.workers, cfg.queue_depth, cores).is_empty(),
            "default config must stay clean on a {cores}-core host"
        );
    }
}

// --- External-sorter codes (BON09x) ----------------------------------

#[test]
fn bon090_external_sorter_rejects_each_bad_argument() {
    use bonsai_sorters::ExternalSorter;
    for (budget, fan_in) in [(0, 256), (1 << 20, 1), (1 << 20, 0)] {
        let diag = ExternalSorter::try_new(budget, fan_in).unwrap_err();
        assert_emits(&[diag], codes::EXTERNAL_SORTER_INVALID);
    }
    assert!(ExternalSorter::try_new(1 << 20, 2).is_ok());
}

// --- Sanitizer codes (BON1xx) ---------------------------------------
//
// BON102 has a reachable trigger from outside (violating the sorted-run
// input contract). The remaining probes guard invariants that hold by
// construction in this codebase, so their tests pin down the registry
// entry and the diagnostic shape; the end-to-end test in
// `accept_then_run.rs` asserts they stay silent on real runs.

#[test]
fn bon101_fifo_overflow_registered_as_error() {
    let info = codes::lookup(codes::SAN_FIFO_OVERFLOW).expect("registered");
    assert_eq!(info.severity, Severity::Error);
    let d = Diagnostic::error(codes::SAN_FIFO_OVERFLOW, "overflow").with("node", 3);
    assert!(d.to_string().contains("BON101"));
}

#[test]
fn bon102_out_of_order_fires_on_contract_violation() {
    use bonsai_merge_hw::{KMerger, Side};
    use bonsai_records::{Record, U32Rec};
    let mut m: KMerger<U32Rec> = KMerger::new(2, 16);
    for v in [9u32, 1] {
        m.push_input(Side::Left, U32Rec::new(v)).unwrap();
    }
    m.push_input(Side::Left, U32Rec::TERMINAL).unwrap();
    m.push_input(Side::Right, U32Rec::new(5)).unwrap();
    m.push_input(Side::Right, U32Rec::TERMINAL).unwrap();
    for _ in 0..16 {
        m.tick();
        while m.pop_output().is_some() {}
    }
    let diags = m.sanitize_check();
    assert_emits(&diags, codes::SAN_OUT_OF_ORDER);
}

#[test]
fn bon103_record_conservation_clean_on_correct_merge() {
    use bonsai_merge_hw::{KMerger, Side};
    use bonsai_records::{Record, U32Rec};
    let info = codes::lookup(codes::SAN_RECORD_CONSERVATION).expect("registered");
    assert_eq!(info.severity, Severity::Error);
    // A correct merge must NOT emit BON103 even at full throughput.
    let mut m: KMerger<U32Rec> = KMerger::new(4, 32);
    for side in [Side::Left, Side::Right] {
        for v in 1..=20u32 {
            m.push_input(side, U32Rec::new(v)).unwrap();
        }
        m.push_input(side, U32Rec::TERMINAL).unwrap();
    }
    for _ in 0..32 {
        m.tick();
        while m.pop_output().is_some() {}
    }
    assert!(m.is_drained());
    assert_eq!(m.sanitize_check(), Vec::new());
}

#[test]
fn bon104_pass_conservation_registered_as_error() {
    let info = codes::lookup(codes::SAN_PASS_CONSERVATION).expect("registered");
    assert_eq!(info.severity, Severity::Error);
}

#[test]
fn bon105_byte_accounting_clean_on_real_loader() {
    use bonsai_memsim::{DataLoader, LoaderConfig, Memory, MemoryConfig, WriteDrain};
    let info = codes::lookup(codes::SAN_BYTE_ACCOUNTING).expect("registered");
    assert_eq!(info.severity, Severity::Error);
    // Probe holds mid-flight, not just at rest.
    let cfg = LoaderConfig::paper_default(4);
    let mut mem = Memory::new(MemoryConfig::ddr4_aws_f1());
    let mut loader = DataLoader::new(cfg, vec![10_000, 5_000]);
    let mut drain = WriteDrain::new(cfg);
    for c in 0..500 {
        loader.tick(c, &mut mem);
        let a = loader.available(0);
        loader.consume(0, a);
        let n = a.min(drain.free_space());
        drain.push_records(n);
        drain.tick(c, &mut mem);
        assert_eq!(loader.sanitize_check(), Vec::new(), "cycle {c}");
        assert_eq!(drain.sanitize_check(), Vec::new(), "cycle {c}");
    }
}

#[test]
fn bon106_flush_protocol_registered_as_error() {
    let info = codes::lookup(codes::SAN_FLUSH_PROTOCOL).expect("registered");
    assert_eq!(info.severity, Severity::Error);
}

// --- Documentation sync ----------------------------------------------

/// The codes `docs/diagnostics.md` lists under "Retired codes", and the
/// doc with that section cut out.
fn split_retired(doc: &str) -> (Vec<String>, String) {
    let start = doc
        .find("\n## Retired codes\n")
        .expect("docs/diagnostics.md has a Retired codes section");
    let end = doc[start + 1..]
        .find("\n## ")
        .map_or(doc.len(), |i| start + 1 + i);
    let retired = doc[start..end]
        .lines()
        .filter_map(|l| l.strip_prefix("### "))
        .map(|l| l.chars().take(6).collect())
        .collect();
    (retired, [&doc[..start], &doc[end..]].concat())
}

/// Every `BONxxx` token in `text` that is neither registered nor in
/// `retired`.
fn unknown_codes(text: &str, retired: &[String]) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|token| {
            token.strip_prefix("BON").is_some_and(|digits| {
                digits.len() == 3 && digits.chars().all(|c| c.is_ascii_digit())
            })
        })
        .filter(|token| codes::lookup(token).is_none() && !retired.iter().any(|c| c == token))
        .map(str::to_owned)
        .collect()
}

/// `docs/diagnostics.md` is the user-facing catalogue and, under
/// "Retired codes", the record of every number that left the registry.
/// Every registered code must have a live section; every retired code
/// must stay unregistered (so re-registering a retired number fails
/// here); and the doc must not mention a code that is neither.
#[test]
fn diagnostics_doc_covers_every_registered_code() {
    let doc = include_str!("../../../docs/diagnostics.md");
    let (retired_codes, live) = split_retired(doc);
    assert!(!retired_codes.is_empty(), "no retired code is recorded");
    for info in codes::ALL {
        assert!(
            live.contains(&format!("### {}", info.code)),
            "docs/diagnostics.md is missing a live section for {} ({})",
            info.code,
            info.summary
        );
    }
    for code in &retired_codes {
        assert!(
            codes::lookup(code).is_none(),
            "{code} is listed under Retired codes but registered again"
        );
    }
    let unknown = unknown_codes(doc, &retired_codes);
    assert!(
        unknown.is_empty(),
        "docs/diagnostics.md references {unknown:?}, neither registered nor retired"
    );
}

/// The prose docs a reader is sent to. `crates/benchmark/README.md` is
/// left out: it belongs to the benchmark crate, which changes only with
/// the benchmark.
const PROSE_DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "docs/SIMULATOR.md",
    "docs/MODEL_CHECKER.md",
    "EXPERIMENTS.md",
];

/// File extensions that mark a token as a path into the repository.
const PATH_EXTENSIONS: [&str; 6] = ["rs", "md", "toml", "json", "txt", "yml"];

/// The workspace's binary and example target names: the stems of every
/// `src/bin/*.rs` and `examples/*.rs`, at the root and in each crate,
/// plus every `name` of a `[[bin]]` / `[[example]]` manifest table.
fn workspace_targets(root: &std::path::Path) -> (Vec<String>, Vec<String>) {
    let stems = |dir: std::path::PathBuf| -> Vec<String> {
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                (path.extension()? == "rs")
                    .then(|| path.file_stem()?.to_str().map(str::to_owned))?
            })
            .collect()
    };
    let mut packages = vec![root.to_path_buf()];
    packages.extend(
        std::fs::read_dir(root.join("crates"))
            .expect("crates/ is readable")
            .map(|entry| entry.expect("crates/ entry").path()),
    );
    let (mut bins, mut examples) = (Vec::new(), Vec::new());
    for package in packages {
        bins.extend(stems(package.join("src/bin")));
        examples.extend(stems(package.join("examples")));
        let manifest = std::fs::read_to_string(package.join("Cargo.toml")).unwrap_or_default();
        let mut table = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                table = line;
            } else if let Some(name) = line
                .strip_prefix("name = \"")
                .and_then(|rest| rest.strip_suffix('"'))
            {
                match table {
                    "[[bin]]" => bins.push(name.to_owned()),
                    "[[example]]" => examples.push(name.to_owned()),
                    _ => {}
                }
            }
        }
    }
    (bins, examples)
}

/// Every name the prose docs cite resolves: a path with a file
/// extension (or one under a top-level directory) exists, from the
/// repository root or from the doc's own directory; every
/// `--bin NAME` / `--example NAME` is a workspace target; and every
/// `BONxxx` is registered or retired.
#[test]
fn prose_docs_cite_only_names_that_exist() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (retired, _) = split_retired(include_str!("../../../docs/diagnostics.md"));
    let (bins, examples) = workspace_targets(&root);
    let top_level: Vec<String> = std::fs::read_dir(&root)
        .expect("the repository root is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .collect();
    let mut faults = Vec::new();
    for doc in PROSE_DOCS {
        let text = std::fs::read_to_string(root.join(doc)).expect("the doc is readable");
        let dir = std::path::Path::new(doc).parent().expect("a relative path");
        let is_path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
        for token in text.split(|c: char| !is_path_char(c)) {
            let token = token.trim_end_matches('.');
            let has_extension = token
                .rsplit_once('.')
                .is_some_and(|(stem, ext)| !stem.is_empty() && PATH_EXTENSIONS.contains(&ext));
            let under_top_level = token
                .split_once('/')
                .is_some_and(|(first, _)| top_level.iter().any(|t| t == first));
            if (has_extension || under_top_level)
                && !root.join(token).exists()
                && !root.join(dir).join(token).exists()
            {
                faults.push(format!("{doc}: no such path `{token}`"));
            }
        }
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let name = pair[1].trim_end_matches(|c: char| !c.is_ascii_alphanumeric());
            let known = match pair[0].trim_start_matches(['`', '(']) {
                "--bin" => &bins,
                "--example" => &examples,
                _ => continue,
            };
            if !known.iter().any(|t| t == name) {
                faults.push(format!("{doc}: no workspace target `{} {name}`", pair[0]));
            }
        }
        for code in unknown_codes(&text, &retired) {
            faults.push(format!("{doc}: {code} is neither registered nor retired"));
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
