//! The analyzer's soundness contract: any configuration the static pass
//! (`bonsai_model::check::analyze_engine`) accepts — no error-severity
//! diagnostics — must run the cycle simulation end to end, produce
//! sorted output, trip **zero** sanitizer probes, and finish within the
//! static cycle ceiling (`bonsai_model::check::static_cycle_ceiling`),
//! the oracle every accepted simulation is held to.
//!
//! Configurations are drawn from a seeded generator so the sweep is
//! deterministic but covers shapes no in-repo experiment uses.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
use bonsai_check::{codes, has_errors, Diagnostic};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::{LoaderConfig, MemoryConfig};
use bonsai_model::check::{analyze_engine, static_cycle_ceiling};
use bonsai_model::ArrayParams;
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

/// Draws a config from a space that includes both valid and invalid
/// shapes; the analyzer is the referee.
fn draw_config(rng: &mut Rng) -> SimEngineConfig {
    let p = [1usize, 2, 3, 4, 6, 8, 16][rng.below_usize(7)];
    let l = [2usize, 4, 8, 12, 16, 64, 100][rng.below_usize(7)];
    let batch_bytes = [64u64, 100, 512, 4096][rng.below_usize(4)];
    let record_bytes = [4u64, 8, 16][rng.below_usize(3)];
    let presort = [None, Some(2usize), Some(8), Some(10), Some(16)][rng.below_usize(5)];
    let memory = [
        MemoryConfig::ddr4_aws_f1(),
        MemoryConfig::ddr4_single_bank(),
        MemoryConfig::hbm_u50(),
        MemoryConfig::throttled_to_ssd(),
        MemoryConfig::ssd_direct(),
    ][rng.below_usize(5)];
    SimEngineConfig {
        amt: AmtConfig { p, l },
        loader: LoaderConfig {
            batch_bytes,
            record_bytes,
        },
        memory,
        presort,
    }
}

/// Draws per sweep. 77 of them survive the analysis, so this simulates
/// 77 accepted configurations.
const TRIALS: u64 = 400;

#[test]
fn analyzer_accepted_configs_run_clean_under_the_sanitizer() {
    let mut rng = Rng::seed_from_u64(0xB045A1);
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    for trial in 0..TRIALS {
        let cfg = draw_config(&mut rng);
        if has_errors(&analyze_engine(&cfg)) {
            rejected += 1;
            continue;
        }
        accepted += 1;
        let n = 500 + rng.below_usize(2_500);
        let data = uniform_u32(n, trial);
        let mut engine = SimEngine::new(cfg);
        let (out, report) = engine.sort(data.clone());
        assert!(
            out.windows(2).all(|w| w[0] <= w[1]),
            "trial {trial}: accepted config {cfg:?} produced unsorted output"
        );
        assert_eq!(out.len(), data.len(), "trial {trial}: record count changed");
        assert_eq!(
            engine.sanitizer_diagnostics(),
            &[] as &[Diagnostic],
            "trial {trial}: sanitizer probe fired on analyzer-accepted config {cfg:?}"
        );
        let array = ArrayParams {
            n_records: n as u64,
            record_bytes: cfg.loader.record_bytes,
        };
        if let Some(ceiling) = static_cycle_ceiling(&cfg, &array) {
            assert!(
                report.total_cycles <= ceiling,
                "trial {trial}: {cfg:?} simulated {} cycles > static ceiling {ceiling}",
                report.total_cycles
            );
        }
    }
    // Both referee outcomes occur, and the verdict is pinned: a check
    // that starts or stops rejecting a drawn shape shows up here.
    assert_eq!((accepted, rejected), (77, 323));
}

/// What `BON065` used to report, kept as a fact about the simulator:
/// it relaxes the §V-B flush contract (refilling mid-tuple), so a
/// configuration the analyzer rejects with `BON031` — 4-wide bottom
/// mergers need 5 buffered records, two 2-record batches hold 4 — still
/// completes a correct sort in simulation.
#[test]
fn bon031_config_still_completes_in_simulation() {
    let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(8, 4), 16);
    cfg.loader.batch_bytes = 32;
    let errors: Vec<_> = analyze_engine(&cfg)
        .into_iter()
        .filter(Diagnostic::is_error)
        .collect();
    assert!(!errors.is_empty());
    assert!(
        errors
            .iter()
            .all(|d| d.code == codes::GRAPH_FIFO_BELOW_FLUSH),
        "{errors:?}"
    );
    let data = uniform_u32(512, 1);
    let mut expected = data.clone();
    expected.sort_unstable();
    let (out, _) = SimEngine::try_new(cfg)
        .expect("shape checks alone accept it")
        .try_sort(data)
        .expect("the simulator completes the sort");
    assert_eq!(out, expected);
}

/// The paper's shapes, and two trees with fewer leaves than banks: the
/// loader issues each burst on any free bank port, so every bank serves
/// and the analyzer accepts them.
#[test]
fn every_paper_preset_is_analyzer_clean_and_sanitizer_clean() {
    let presets = [
        SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
        SimEngineConfig::dram_sorter(AmtConfig::new(8, 64), 4),
        SimEngineConfig::dram_sorter(AmtConfig::new(2, 8), 4).without_presort(),
        SimEngineConfig::dram_sorter(AmtConfig::new(2, 2), 4),
        SimEngineConfig::with_memory(AmtConfig::new(4, 4), 4, MemoryConfig::hbm_u50()),
    ];
    for cfg in presets {
        let diags = analyze_engine(&cfg);
        assert!(!has_errors(&diags), "preset {cfg:?} rejected: {diags:?}");
        let data = uniform_u32(3_000, 77);
        let mut engine = SimEngine::new(cfg);
        let (out, report) = engine.sort(data);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert!(engine.sanitizer_diagnostics().is_empty());
        let array = ArrayParams {
            n_records: out.len() as u64,
            record_bytes: cfg.loader.record_bytes,
        };
        let ceiling = static_cycle_ceiling(&cfg, &array).expect("bounded");
        assert!(
            report.total_cycles <= ceiling,
            "{cfg:?} simulated {} cycles > static ceiling {ceiling}",
            report.total_cycles
        );
    }
}

#[test]
fn analyzer_rejects_each_hostile_axis() {
    // One deliberately broken axis at a time, holding the rest valid.
    let valid = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    assert!(!has_errors(&analyze_engine(&valid)));

    let mut bad_p = valid;
    bad_p.amt = AmtConfig { p: 6, l: 16 };
    assert!(has_errors(&analyze_engine(&bad_p)));

    let mut bad_l = valid;
    bad_l.amt = AmtConfig { p: 4, l: 12 };
    assert!(has_errors(&analyze_engine(&bad_l)));

    let mut bad_batch = valid;
    bad_batch.loader.batch_bytes = 10; // not a record multiple
    assert!(has_errors(&analyze_engine(&bad_batch)));

    let mut bad_presort = valid;
    bad_presort.presort = Some(10);
    assert!(has_errors(&analyze_engine(&bad_presort)));

    // Regression: a zero record width must come back as BON004, not
    // crash the analyzer in the presort cross-check's division.
    let mut zero_record = valid;
    zero_record.loader.record_bytes = 0;
    let diags = analyze_engine(&zero_record);
    assert!(diags.iter().any(|d| d.code == "BON004"), "{diags:?}");
}

/// Data already sorted, reversed, and duplicate-heavy must also run
/// clean — adversarial *data* is not the analyzer's concern, so the
/// sanitizer is the only line of defense.
#[test]
fn adversarial_data_never_trips_probes_on_valid_configs() {
    use bonsai_gensort::dist::Distribution;
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    for d in [
        Distribution::Sorted,
        Distribution::Reverse,
        Distribution::FewDistinct(2),
    ] {
        let data: Vec<U32Rec> = d.generate_u32(2_000, 9);
        let mut engine = SimEngine::new(cfg);
        let (out, _) = engine.sort(data);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert!(
            engine.sanitizer_diagnostics().is_empty(),
            "probe fired on {d:?}"
        );
    }
}
