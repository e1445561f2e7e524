//! `bonsai-serve` — run the sort service on a TCP port.
//!
//! ```text
//! bonsai-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!              [--adaptive] [--max-payload-mb N]
//!              [--max-inflight N] [--shutdown-token N]
//!              [--amt-p N] [--amt-l N] [--quiet]
//! ```
//!
//! Each of the `--workers` job workers sorts one job at a time on its
//! own thread. `--adaptive` selects `PassScheduler::Adaptive` (per-job
//! shape selection, two-lane queue); the default is
//! `PassScheduler::Fifo`. An invalid `--amt-p`/`--amt-l` shape prints
//! its `BONxxx` diagnostics and exits 1, like any other bad argument. A
//! `--workers`/`--queue-depth` pair that wastes threads on this host
//! (`BON054`, `BON055`) is printed the same way, as a warning, and the
//! server starts anyway.
//!
//! Sorts 4-byte `U32Rec` records (the protocol rejects other widths
//! with `BON075`). Prints `listening on ADDR` once ready, then serves
//! until a client sends the shutdown-token control frame (see
//! `--shutdown-token`); on shutdown it prints the lifetime counters
//! and exits 0.

use std::process::ExitCode;

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_check::check_runtime_shape;
use bonsai_net::{Server, ServerConfig};
use bonsai_records::U32Rec;
use bonsai_runtime::PassScheduler;

struct Args {
    addr: String,
    config: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut addr = "127.0.0.1:7040".to_string();
    let mut config = ServerConfig {
        log: true,
        ..ServerConfig::default()
    };
    let mut amt_p: usize = 4;
    let mut amt_l: usize = 16;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = value("--addr")?,
            "--workers" => {
                config.runtime.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--queue-depth" => {
                config.runtime.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("--queue-depth: {e}"))?;
            }
            "--adaptive" => config.runtime.scheduler = PassScheduler::Adaptive,
            "--max-payload-mb" => {
                let mb: u32 = value("--max-payload-mb")?
                    .parse()
                    .map_err(|e| format!("--max-payload-mb: {e}"))?;
                config.max_payload = mb.saturating_mul(1 << 20);
            }
            "--max-inflight" => {
                config.max_inflight_per_client = value("--max-inflight")?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?;
            }
            "--shutdown-token" => {
                config.shutdown_token = Some(
                    value("--shutdown-token")?
                        .parse()
                        .map_err(|e| format!("--shutdown-token: {e}"))?,
                );
            }
            "--amt-p" => {
                amt_p = value("--amt-p")?
                    .parse()
                    .map_err(|e| format!("--amt-p: {e}"))?;
            }
            "--amt-l" => {
                amt_l = value("--amt-l")?
                    .parse()
                    .map_err(|e| format!("--amt-l: {e}"))?;
            }
            "--quiet" => config.log = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let amt = AmtConfig::try_new(amt_p, amt_l).map_err(|diagnostics| {
        // One line per finding, each under the same prefix as `main`'s.
        let lines: Vec<String> = diagnostics.iter().map(ToString::to_string).collect();
        lines.join("\nbonsai-serve: ")
    })?;
    config.engine = SimEngineConfig::dram_sorter(amt, 4);
    Ok(Args { addr, config })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bonsai-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    let runtime = &args.config.runtime;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    for warning in check_runtime_shape(runtime.workers, runtime.queue_depth, cores) {
        eprintln!("bonsai-serve: {warning}");
    }
    let server = match Server::<U32Rec>::bind(&args.addr, args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("bonsai-serve: bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    server.wait();
    let stats = server.shutdown();
    println!(
        "shutdown: connections={} jobs_ok={} jobs_failed={} jobs_rejected={} wire_errors={}",
        stats.connections, stats.jobs_ok, stats.jobs_failed, stats.jobs_rejected, stats.wire_errors
    );
    ExitCode::SUCCESS
}
