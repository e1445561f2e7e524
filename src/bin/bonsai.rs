//! The `bonsai` command-line tool: plan AMT configurations, generate
//! benchmark data, sort files externally, and validate results.
//!
//! ```sh
//! bonsai plan --size 16GB --record-bytes 4 --platform f1
//! bonsai gensort --records 1000000 --out data.gensort
//! bonsai sort --format u32 --in input.bin --out sorted.bin --mem-budget 64MB
//! bonsai valsort --format u32 --in sorted.bin
//! bonsai project --size 2TB
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use bonsai::gensort::io::{generate_gensort_file, read_wire_file, valsort};
use bonsai::model::{ArrayParams, BonsaiOptimizer, HardwareParams};
use bonsai::records::{KvRec, Packed16, U32Rec, U64Rec};
use bonsai::sorters::{DramSorter, ExternalSorter, SsdSorter};
use bonsai_check::{codes, Diagnostic};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = Flags::parse(&args[1..]);
    let result = match command.as_str() {
        "plan" => cmd_plan(&flags),
        "gensort" => cmd_gensort(&flags),
        "sort" => cmd_sort(&flags),
        "valsort" => cmd_valsort(&flags),
        "project" => cmd_project(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
bonsai — adaptive merge tree sorting (ISCA 2020 reproduction)

USAGE:
  bonsai plan     --size <N[KB|MB|GB|TB]> [--record-bytes <r>] [--platform f1|hbm|ssd] [--beta <GB/s>] [--top <k>]
  bonsai gensort  --records <n> --out <file> [--seed <s>]
  bonsai sort     --in <file> --out <file> [--format u32|u64|kv16|packed16] [--mem-budget <bytes-ish>] [--fan-in <l>]
  bonsai valsort  --in <file> [--format u32|u64|kv16|packed16]
  bonsai project  --size <N[..]> [--record-bytes <r>]
";

/// Minimal `--key value` flag parser.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            if let Some(key) = args[i].strip_prefix("--") {
                let value = args.get(i + 1).cloned().unwrap_or_default();
                out.push((key.to_string(), value));
                i += 2;
            } else {
                i += 1;
            }
        }
        Self(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
}

/// Parses "16GB", "512MB", "2TB", or raw byte counts.
fn parse_size(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = if let Some(d) = s.strip_suffix("TB") {
        (d, 1_000_000_000_000u64)
    } else if let Some(d) = s.strip_suffix("GB") {
        (d, 1_000_000_000)
    } else if let Some(d) = s.strip_suffix("MB") {
        (d, 1_000_000)
    } else if let Some(d) = s.strip_suffix("KB") {
        (d, 1_000)
    } else {
        (s, 1)
    };
    let value = digits
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("bad size `{s}`: {e}"))?;
    value
        .checked_mul(mult)
        .ok_or_else(|| format!("bad size `{s}`: more than {} bytes", u64::MAX))
}

/// `--record-bytes`, 4 by default; a zero width is `BON004`.
fn record_bytes(flags: &Flags) -> Result<u64, String> {
    let record_bytes: u64 = flags
        .get("record-bytes")
        .unwrap_or("4")
        .parse()
        .map_err(|e| format!("bad --record-bytes: {e}"))?;
    if record_bytes == 0 {
        let zero = Diagnostic::error(codes::RECORD_WIDTH_ZERO, "record width must be positive")
            .with("record_bytes", record_bytes);
        return Err(zero.to_string());
    }
    Ok(record_bytes)
}

fn platform(flags: &Flags) -> Result<HardwareParams, String> {
    let mut hw = match flags.get("platform").unwrap_or("f1") {
        "f1" => HardwareParams::aws_f1(),
        "hbm" => HardwareParams::hbm_u50(),
        "ssd" => HardwareParams::aws_f1_ssd(),
        other => return Err(format!("unknown platform `{other}` (f1|hbm|ssd)")),
    };
    if let Some(beta) = flags.get("beta") {
        let gbps: f64 = beta.parse().map_err(|e| format!("bad --beta: {e}"))?;
        if gbps.is_nan() || gbps <= 0.0 {
            let bad = Diagnostic::error(
                codes::MEMORY_ZERO_BANDWIDTH,
                "memory bandwidth must be positive",
            )
            .with("beta_gb_s", gbps);
            return Err(bad.to_string());
        }
        hw = hw.with_beta_dram(gbps * 1e9);
    }
    Ok(hw)
}

fn cmd_plan(flags: &Flags) -> Result<(), String> {
    let bytes = parse_size(flags.required("size")?)?;
    let record_bytes = record_bytes(flags)?;
    let top: usize = flags
        .get("top")
        .unwrap_or("5")
        .parse()
        .map_err(|e| format!("bad --top: {e}"))?;
    let hw = platform(flags)?;
    let array = ArrayParams::new(bytes / record_bytes, record_bytes);
    let opt = BonsaiOptimizer::new(hw);
    let ranked = opt.ranked_by_latency(&array);
    if ranked.is_empty() {
        return Err("no feasible AMT configuration on this platform".into());
    }
    println!(
        "top {} configurations for {} of {}-byte records on {} GB/s memory:",
        top.min(ranked.len()),
        flags.required("size")?,
        record_bytes,
        hw.beta_dram / 1e9
    );
    for (i, c) in ranked.iter().take(top).enumerate() {
        println!(
            "  #{} {:<26} presort {:<3} {} stages  {:>9} LUT  {:>8.3} s",
            i + 1,
            c.config.to_string(),
            c.presort,
            c.stages,
            c.lut,
            c.latency_s
        );
    }
    Ok(())
}

fn cmd_gensort(flags: &Flags) -> Result<(), String> {
    let n: u64 = flags
        .required("records")?
        .parse()
        .map_err(|e| format!("bad --records: {e}"))?;
    let out = PathBuf::from(flags.required("out")?);
    let seed: u64 = flags
        .get("seed")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("bad --seed: {e}"))?;
    generate_gensort_file(&out, n, seed).map_err(|e| e.to_string())?;
    println!(
        "wrote {n} gensort records ({} bytes) to {}",
        n * 100,
        out.display()
    );
    Ok(())
}

fn cmd_sort(flags: &Flags) -> Result<(), String> {
    let input = PathBuf::from(flags.required("in")?);
    let output = PathBuf::from(flags.required("out")?);
    let budget = parse_size(flags.get("mem-budget").unwrap_or("256MB"))? as usize;
    let fan_in: usize = flags
        .get("fan-in")
        .unwrap_or("256")
        .parse()
        .map_err(|e| format!("bad --fan-in: {e}"))?;
    let sorter = ExternalSorter::try_new(budget, fan_in).map_err(|d| d.to_string())?;
    let stats = match flags.get("format").unwrap_or("u32") {
        "u32" => sorter.sort_file::<U32Rec>(&input, &output),
        "u64" => sorter.sort_file::<U64Rec>(&input, &output),
        "kv16" => sorter.sort_file::<KvRec>(&input, &output),
        "packed16" => sorter.sort_file::<Packed16>(&input, &output),
        other => return Err(format!("unknown format `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "sorted {} records: {} initial runs, {} merge passes, {} bytes written",
        stats.records, stats.initial_runs, stats.merge_passes, stats.bytes_written
    );
    Ok(())
}

fn cmd_valsort(flags: &Flags) -> Result<(), String> {
    let input = PathBuf::from(flags.required("in")?);
    let summary = match flags.get("format").unwrap_or("u32") {
        "u32" => read_wire_file::<U32Rec>(&input).map(|r| valsort(&r)),
        "u64" => read_wire_file::<U64Rec>(&input).map(|r| valsort(&r)),
        "kv16" => read_wire_file::<KvRec>(&input).map(|r| valsort(&r)),
        "packed16" => read_wire_file::<Packed16>(&input).map(|r| valsort(&r)),
        other => return Err(format!("unknown format `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    println!(
        "records: {}\nunordered pairs: {}\nduplicate keys: {}\nchecksum: {:#018x}",
        summary.records, summary.unordered, summary.duplicates, summary.checksum
    );
    if summary.is_sorted() {
        println!("SORTED");
        Ok(())
    } else {
        Err("file is NOT sorted".into())
    }
}

fn cmd_project(flags: &Flags) -> Result<(), String> {
    let bytes = parse_size(flags.required("size")?)?;
    let record_bytes = record_bytes(flags)?;
    let report = match DramSorter::new(HardwareParams::aws_f1()).project(bytes, record_bytes) {
        Ok(r) => r,
        Err(_) => SsdSorter::new(HardwareParams::aws_f1_ssd()).project(bytes, record_bytes),
    };
    println!("{} via {}", report.name, report.config);
    for phase in &report.phases {
        println!("  {:<44} {:>10.2} s", phase.name, phase.seconds);
    }
    println!(
        "total {:.2} s  ({:.0} ms/GB, {:.2} GB/s)",
        report.seconds(),
        report.ms_per_gb(),
        report.throughput() / 1e9
    );
    Ok(())
}
