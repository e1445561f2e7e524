//! `bonsai-lint`: the static configuration pass for CI.
//!
//! With no arguments, lints every configuration the experiment suite
//! and examples construct — the one engine pass
//! (`bonsai_model::check::analyze_engine`: shape checks, the pipeline
//! dataflow checks for FIFO flush depth and min-cut bandwidth, the
//! latency-bound certification and the static throughput floor) plus
//! one model-vs-simulation drift probe — and exits non-zero if any
//! error-severity `BONxxx` diagnostic fires. With overrides, lints a
//! single raw configuration instead — the hook CI uses to prove the
//! linter rejects a deliberately broken config:
//!
//! ```sh
//! bonsai-lint                        # lint the whole in-repo suite
//! bonsai-lint --p 6 --l 16           # BON001: p not a power of two
//! bonsai-lint --p 32 --record-bytes 8  # BON032: min-cut infeasible
//! bonsai-lint --json                 # machine-readable report
//! ```
//!
//! The runtime's worker count and queue depth are judged where they
//! arrive: `bonsai-serve` prints its BON05x findings at startup.

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_bench::lint;
use bonsai_memsim::MemoryConfig;
use std::process::ExitCode;

const USAGE: &str = "usage: bonsai-lint [--p N] [--l N] [--batch-bytes N] \
[--record-bytes N] [--presort N] [--memory ddr4|single|hbm|ssd] [--json]

Without overrides, lints every in-repo experiment configuration (shape
checks, pipeline dataflow checks, latency-bound certification, static
throughput floor, drift probe). With overrides, lints a single raw
engine configuration.

  --json             emit the report as a JSON object for CI annotation

exit codes:
  0  no error-severity diagnostics (warnings allowed)
  1  at least one BONxxx error diagnostic fired
  2  invalid command line (unknown flag or malformed value)";

fn usage_error() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The command line after the program name.
struct Args(std::iter::Skip<std::env::Args>);

impl Args {
    /// The integer value of `flag`, or a usage error.
    fn int(&mut self, flag: &str) -> u64 {
        self.0
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("bonsai-lint: {flag} needs an integer value");
                usage_error()
            })
    }
}

fn main() -> ExitCode {
    // Engine flags are parsed straight onto the CLI's default engine,
    // the paper's DRAM sorter, AMT(32, 64) on 4-byte records.
    let mut engine = SimEngineConfig::dram_sorter(AmtConfig { p: 32, l: 64 }, 4);
    let mut engine_flags = false;
    let mut json = false;
    let mut args = Args(std::env::args().skip(1));
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--p" => engine.amt.p = args.int(&flag) as usize,
            "--l" => engine.amt.l = args.int(&flag) as usize,
            "--batch-bytes" => engine.loader.batch_bytes = args.int(&flag),
            "--record-bytes" => engine.loader.record_bytes = args.int(&flag),
            "--presort" => engine.presort = Some(args.int(&flag) as usize),
            "--memory" => {
                engine.memory = match args.0.next().as_deref() {
                    Some("ddr4") => MemoryConfig::ddr4_aws_f1(),
                    Some("single") => MemoryConfig::ddr4_single_bank(),
                    Some("hbm") => MemoryConfig::hbm_u50(),
                    Some("ssd") => MemoryConfig::throttled_to_ssd(),
                    other => {
                        eprintln!("bonsai-lint: --memory wants ddr4|single|hbm|ssd, got {other:?}");
                        usage_error()
                    }
                };
            }
            other => {
                eprintln!("bonsai-lint: unknown flag {other}");
                usage_error()
            }
        }
        // Every flag but `--json` either left the loop or set an
        // engine field.
        engine_flags |= flag != "--json";
    }

    let findings = if engine_flags {
        vec![lint::lint_engine(&engine)]
    } else {
        lint::lint_all()
    };
    let (report, errors, _warnings) = if json {
        let (json, errors, warnings) = lint::render_json(&findings);
        (format!("{json}\n"), errors, warnings)
    } else {
        lint::render(&findings)
    };
    print!("{report}");
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
