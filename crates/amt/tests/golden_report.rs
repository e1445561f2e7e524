//! Golden timing reports: what the simulator computes, pinned.
//!
//! The reference per-cycle loop and the event-driven fast path share
//! `PassSim::step`, and through it `MergeTree::tick`, `KMerger::tick`
//! and `DataLoader::tick` — so the equivalence suites, which compare
//! the two loops with each other, cannot see a change in what a merger,
//! coupler or loader does *in* a cycle: both loops would move together.
//! This suite pins the absolute numbers instead. `golden_report.txt`
//! holds every field of the `SortReport` for a fixed corpus, recorded
//! once (at the commit before the datapath was rebuilt for host speed;
//! the `shape-` rows — one-node, 128- and 256-leaf trees — at the
//! commit before the tree's worklists became multi-word bitsets) and
//! never regenerated by a change that only claims to make the
//! simulator faster; any drift in a simulated cycle, stall, byte or
//! fast-forward count fails here with the case and field in the
//! message.
//!
//! Each case runs on the fused engine (`sort`) and on the per-group sort
//! (`try_sort_pipelined`), on the fast path (full report) and on the
//! reference loop (`normalized()` report, since that loop fast-forwards
//! nothing). Its rows keep the `dag` name.
//!
//! To record a new table after a change that *means* to move simulated
//! numbers: `cargo test -p bonsai-amt --test golden_report -- --ignored
//! --nocapture print_golden | grep '^golden' | cut -f2- >
//! crates/amt/tests/golden_report.txt`, and say in the change why.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, SortReport};
use bonsai_gensort::dist::Distribution;
use bonsai_memsim::MemoryConfig;
use bonsai_records::{KvRec, Record, U32Rec};

const GOLDEN: &str = include_str!("golden_report.txt");

const SIZES: [usize; 5] = [0, 1, 17, 2_048, 30_000];

/// Every field of the report that is simulated or derived from
/// simulated counts, one pass per `;`-separated group.
fn render(report: &SortReport) -> String {
    let mut s = format!(
        "n={} r={} total={} ff={}",
        report.n_records, report.record_bytes, report.total_cycles, report.fast_forwarded_cycles
    );
    for p in &report.passes {
        write!(
            s,
            "; s{} cyc={} rec={} rin={} rout={} br={} bw={} is={} os={} ff={}",
            p.stage,
            p.cycles,
            p.records,
            p.runs_in,
            p.runs_out,
            p.bytes_read,
            p.bytes_written,
            p.input_stalls,
            p.output_stalls,
            p.fast_forwarded_cycles
        )
        .expect("writing to a String");
    }
    s
}

/// Runs one case every way and returns `(key, rendered report)` per
/// golden row, asserting along the way that every way sorts.
fn rows<R: Record>(case: &str, cfg: SimEngineConfig, data: &[R]) -> Vec<(String, String)> {
    let mut want = data.iter().map(|r| r.sanitize()).collect::<Vec<_>>();
    want.sort();
    let mut out = Vec::new();
    for (reference, loop_name) in [(false, "fast"), (true, "ref")] {
        let engine = || SimEngine::new(cfg).with_reference_loop(reference);
        let shape = |report: SortReport| {
            if reference {
                render(&report.normalized())
            } else {
                render(&report)
            }
        };

        let (sorted, report) = engine().sort(data.to_vec());
        assert_eq!(sorted, want, "{case} fused {loop_name}: output");
        out.push((format!("{case} fused {loop_name}"), shape(report)));

        let (sorted, report) = engine()
            .try_sort_pipelined(data.to_vec(), 1)
            .expect("sorts");
        assert_eq!(sorted, want, "{case} dag {loop_name}: output");
        out.push((format!("{case} dag {loop_name}"), shape(report)));
    }
    out
}

fn dram(record_bytes: u64) -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), record_bytes)
}

/// DRAM `AMT(4, 16)`, r = 4, five key distributions.
fn dram_rows() -> Vec<(String, String)> {
    let dists = [
        ("uniform", Distribution::Uniform),
        ("skewed", Distribution::Skewed { hot_fraction: 0.1 }),
        ("almost", Distribution::AlmostSorted(0.05)),
        ("reverse", Distribution::Reverse),
        ("equal", Distribution::FewDistinct(1)),
    ];
    let mut out = Vec::new();
    for (name, dist) in dists {
        for n in SIZES {
            let data = dist.generate_u32(n, 0x601D + n as u64);
            out.extend(rows(&format!("dram-r4/{name}/{n}"), dram(4), &data));
        }
    }
    out
}

/// The `sim_ssd` shape: `AMT(8, 64)` on the direct-SSD stream with
/// 128 KiB batches — almost every cycle fast-forwards.
fn ssd_rows() -> Vec<(String, String)> {
    let mut cfg =
        SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::ssd_direct());
    cfg.loader.batch_bytes = 131_072;
    let mut out = Vec::new();
    for n in SIZES {
        let data: Vec<U32Rec> = Distribution::Uniform.generate_u32(n, 0x55D0 + n as u64);
        out.extend(rows(&format!("ssd-r4/uniform/{n}"), cfg, &data));
    }
    out
}

/// HBM `AMT(8, 64)`: 32 banks, the tree (not memory) binds.
fn hbm_rows() -> Vec<(String, String)> {
    let cfg = SimEngineConfig::with_memory(AmtConfig::new(8, 64), 4, MemoryConfig::hbm_u50());
    let mut out = Vec::new();
    for n in SIZES {
        let data = Distribution::Uniform.generate_u32(n, 0x4B30 + n as u64);
        out.extend(rows(&format!("hbm-r4/uniform/{n}"), cfg, &data));
    }
    out
}

/// Record widths 8 and 16 on the DRAM shape: fewer records per batch,
/// wider FIFO slots.
fn wide_rows() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for n in SIZES {
        let data = Distribution::Uniform.generate_u64(n, 0x0808 + n as u64);
        out.extend(rows(&format!("wide-r8/uniform/{n}"), dram(8), &data));
        let data: Vec<KvRec> = Distribution::Skewed { hot_fraction: 0.1 }
            .generate_u32(n, 0x1616 + n as u64)
            .into_iter()
            .enumerate()
            .map(|(i, r)| KvRec::new(u64::from(r.0), i as u64 + 1))
            .collect();
        out.extend(rows(&format!("wide-r16/skewed/{n}"), dram(16), &data));
    }
    out
}

/// Shapes whose worklists the other families never reach: DRAM
/// `AMT(32, 256)` (what the adaptive planner realizes for large jobs —
/// 255 nodes and 128 leaf-level nodes, so several 64-bit worklist
/// words), SSD `AMT(8, 128)` (two words, nearly every cycle
/// fast-forwarded) and the single-node `AMT(2, 2)` (the root is also
/// the leaf level).
fn shape_rows() -> Vec<(String, String)> {
    let wide = SimEngineConfig::dram_sorter(AmtConfig::new(32, 256), 4);
    let mut ssd =
        SimEngineConfig::with_memory(AmtConfig::new(8, 128), 4, MemoryConfig::ssd_direct());
    ssd.loader.batch_bytes = 131_072;
    let single = SimEngineConfig::dram_sorter(AmtConfig::new(2, 2), 4);
    let mut out = Vec::new();
    for (name, cfg, seed) in [
        ("shape-dram-p32-l256", wide, 0x3225_u64),
        ("shape-ssd-p8-l128", ssd, 0x0812),
        ("shape-dram-p2-l2", single, 0x0202),
    ] {
        for n in SIZES {
            let data = Distribution::Uniform.generate_u32(n, seed + n as u64);
            out.extend(rows(&format!("{name}/uniform/{n}"), cfg, &data));
        }
    }
    out
}

fn golden() -> BTreeMap<&'static str, &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.split_once('\t').expect("golden row is `key<TAB>report`"))
        .collect()
}

fn assert_golden(family: &str, rows: Vec<(String, String)>) {
    let golden = golden();
    let recorded = golden.keys().filter(|k| k.starts_with(family)).count();
    assert_eq!(
        rows.len(),
        recorded,
        "{family}: golden table has {recorded} rows, the suite ran {}",
        rows.len()
    );
    for (key, got) in rows {
        let want = golden
            .get(key.as_str())
            .unwrap_or_else(|| panic!("{key}: no golden row"));
        assert_eq!(&got, want, "{key}: simulated report moved");
    }
}

#[test]
fn dram_reports_match_the_recorded_table() {
    assert_golden("dram-r4/", dram_rows());
}

#[test]
fn ssd_reports_match_the_recorded_table() {
    assert_golden("ssd-r4/", ssd_rows());
}

#[test]
fn hbm_reports_match_the_recorded_table() {
    assert_golden("hbm-r4/", hbm_rows());
}

#[test]
fn wide_record_reports_match_the_recorded_table() {
    assert_golden("wide-", wide_rows());
}

#[test]
fn wide_and_single_node_shape_reports_match_the_recorded_table() {
    assert_golden("shape-", shape_rows());
}

/// Prints the table in the golden file's format (see the module docs).
#[test]
#[ignore = "recording tool, not a check"]
fn print_golden() {
    for (key, row) in [
        dram_rows(),
        ssd_rows(),
        hbm_rows(),
        wide_rows(),
        shape_rows(),
    ]
    .concat()
    {
        println!("golden\t{key}\t{row}");
    }
}
