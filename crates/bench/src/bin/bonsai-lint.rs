//! `bonsai-lint`: the static configuration pass for CI.
//!
//! With no arguments, lints every configuration the experiment suite
//! and examples construct — the one engine pass
//! (`bonsai_model::check::analyze_engine`: shape checks, the pipeline
//! dataflow checks for deadlock, FIFO flush depth, min-cut bandwidth
//! and dead components, the latency-bound certification and the static
//! throughput floor) plus one model-vs-simulation drift
//! probe — and exits non-zero if any error-severity `BONxxx`
//! diagnostic fires. With overrides, lints a
//! single raw configuration instead — the hook CI uses to prove the
//! linter rejects a deliberately broken config:
//!
//! ```sh
//! bonsai-lint                        # lint the whole in-repo suite
//! bonsai-lint --p 6 --l 16           # BON001: p not a power of two
//! bonsai-lint --buffer-batches 0     # BON030: zero-credit deadlock
//! bonsai-lint --p 32 --record-bytes 8  # BON032: min-cut infeasible
//! bonsai-lint --json                 # machine-readable report
//! ```
//!
//! `--runtime` switches to the BON05x runtime-topology pass over the
//! parallel sort runtime's thread/queue shape instead of the engine
//! configuration:
//!
//! ```sh
//! bonsai-lint --runtime                         # lint in-repo topologies
//! bonsai-lint --runtime --workers 8 --cores 4   # BON054
//! bonsai-lint --runtime --workers 8 --queue-depth 0 --cores 16  # BON055
//! bonsai-lint --runtime --reprogram-us 0        # BON080: shape thrash
//! bonsai-lint --runtime --cache-shapes 1        # BON082: cache misses
//! ```

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_bench::lint::{self, LintFinding, ProbeExtras};
use bonsai_memsim::MemoryConfig;
use bonsai_runtime::{AdaptiveConfig, PassScheduler, RuntimeConfig};
use std::process::ExitCode;

/// The parsed command line. Every value is held once: flags are parsed
/// straight onto the defaults of the configuration they describe, and
/// the `*_flags` markers only remember which mode's flags were seen.
#[derive(Debug)]
struct Cli {
    /// Engine flags land here; the default is the paper's DRAM sorter,
    /// AMT(32, 64) on 4-byte records.
    engine: SimEngineConfig,
    /// Runtime and adaptive flags land here.
    runtime: RuntimeConfig,
    extras: ProbeExtras,
    engine_flags: bool,
    runtime_flags: bool,
    runtime_mode: bool,
    json: bool,
}

/// Every mode funnels its findings through this one serializer so
/// `--json`'s schema and the 0/1 exit contract are identical across
/// config-lint and `--runtime`.
fn emit(findings: &[LintFinding], json: bool) -> ExitCode {
    let (report, errors, _warnings) = if json {
        let (json, errors, warnings) = lint::render_json(findings);
        (format!("{json}\n"), errors, warnings)
    } else {
        lint::render(findings)
    };
    print!("{report}");
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const USAGE: &str = "usage: bonsai-lint [--p N] [--l N] [--batch-bytes N] \
[--record-bytes N] [--buffer-batches N] [--presort N] \
[--memory ddr4|single|hbm|ssd] [--banks N] [--payload-bytes N] \
[--json]
       bonsai-lint --runtime [--workers N] [--queue-depth N] [--cores N] \
[--cache-shapes N] [--reprogram-us N] [--json]

Without overrides, lints every in-repo experiment configuration (shape
checks, pipeline dataflow checks, latency-bound certification, static
throughput floor, drift probe) plus every in-repo runtime topology. With
overrides, lints a single raw engine configuration.

  --json             emit the report as a JSON object for CI annotation

`--runtime` runs the BON05x thread/queue topology pass instead. Without
further overrides it lints the in-repo runtime shapes; with overrides it
judges one raw topology (docs/diagnostics.md, Runtime topology):

  --workers N        job workers, one thread each (0 = one per core)
  --queue-depth N    bounded job-queue depth (0 holds one job)
  --cores N          judge against an N-core host (default: this host)

Any adaptive-scheduler flag selects the adaptive scheduler, which
additionally runs the BON08x knob checks (docs/diagnostics.md,
Adaptive runtime); unset knobs keep the runtime's lint-clean
`AdaptiveConfig` defaults:

  --cache-shapes N    compiled-shape cache capacity; below the
                      runtime's two job classes is the cache-miss
                      probe (BON082)
  --reprogram-us N    modeled shape-switch cost in microseconds; 0 is
                      the shape-thrash probe (BON080)

Every runtime finding is a warning: --runtime exits 0 or 2.

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

/// Parses one engine flag onto `engine`/`extras`; `false` if `flag` is
/// not an engine flag.
fn engine_flag(
    flag: &str,
    args: &mut Args,
    engine: &mut SimEngineConfig,
    extras: &mut ProbeExtras,
) -> bool {
    match flag {
        "--p" => engine.amt.p = args.int(flag) as usize,
        "--l" => engine.amt.l = args.int(flag) as usize,
        "--batch-bytes" => engine.loader.batch_bytes = args.int(flag),
        "--record-bytes" => engine.loader.record_bytes = args.int(flag),
        "--buffer-batches" => engine.loader.buffer_batches = args.int(flag),
        "--presort" => engine.presort = Some(args.int(flag) as usize),
        "--banks" => extras.banks = Some(args.int(flag) as usize),
        "--payload-bytes" => extras.payload_bytes = Some(args.int(flag)),
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
        _ => return false,
    }
    true
}

/// Parses one runtime-topology flag onto `runtime`; `false` if `flag`
/// is not one.
fn runtime_flag(flag: &str, args: &mut Args, runtime: &mut RuntimeConfig) -> bool {
    match flag {
        "--workers" => runtime.workers = args.int(flag) as usize,
        "--queue-depth" => runtime.queue_depth = args.int(flag) as usize,
        _ => return false,
    }
    true
}

/// Parses one adaptive-scheduler knob onto `adaptive`; `false` if
/// `flag` is not one.
fn adaptive_flag(flag: &str, args: &mut Args, adaptive: &mut AdaptiveConfig) -> bool {
    match flag {
        "--cache-shapes" => adaptive.cache_shapes = args.int(flag) as usize,
        "--reprogram-us" => adaptive.reprogram_cost_us = args.int(flag),
        _ => return false,
    }
    true
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        engine: SimEngineConfig::dram_sorter(AmtConfig { p: 32, l: 64 }, 4),
        runtime: RuntimeConfig::default(),
        extras: ProbeExtras::default(),
        engine_flags: false,
        runtime_flags: false,
        runtime_mode: false,
        json: false,
    };
    let mut args = Args(std::env::args().skip(1));
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--json" => cli.json = true,
            "--runtime" => cli.runtime_mode = true,
            "--cores" => cli.extras.cores = Some(args.int("--cores") as usize),
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            f if engine_flag(f, &mut args, &mut cli.engine, &mut cli.extras) => {
                cli.engine_flags = true;
            }
            f if runtime_flag(f, &mut args, &mut cli.runtime) => {
                cli.runtime_flags = true;
            }
            f if adaptive_flag(f, &mut args, &mut cli.runtime.adaptive) => {
                cli.runtime_flags = true;
                // A knob of the adaptive scheduler only means something
                // under it, and selecting it arms the BON08x pass.
                cli.runtime.scheduler = PassScheduler::Adaptive;
            }
            other => {
                eprintln!("bonsai-lint: unknown flag {other}");
                usage_error()
            }
        }
    }
    cli
}

fn main() -> ExitCode {
    let cli = parse_args();

    // Each mode's flags only make sense in that mode; a mixed line is a
    // usage error, not a silently ignored knob.
    if cli.runtime_mode && cli.engine_flags {
        eprintln!("bonsai-lint: --runtime cannot be combined with engine flags");
        usage_error();
    }
    if !cli.runtime_mode && cli.runtime_flags {
        eprintln!("bonsai-lint: runtime topology flags need --runtime");
        usage_error();
    }

    if cli.runtime_mode {
        let findings = if cli.runtime_flags || cli.extras.cores.is_some() {
            vec![lint::lint_runtime(&cli.runtime, &cli.extras)]
        } else {
            lint::lint_runtime_all()
        };
        return emit(&findings, cli.json);
    }

    let findings = if cli.engine_flags {
        vec![lint::lint_engine(&cli.engine, &cli.extras)]
    } else {
        lint::lint_all()
    };
    emit(&findings, cli.json)
}
