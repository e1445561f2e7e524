//! `bonsai-loadgen` — drive a sort server over loopback (or anywhere).
//!
//! ```text
//! bonsai-loadgen [--addr HOST:PORT] [--clients N] [--jobs N]
//!                [--records N] [--seed N] [--window N]
//! bonsai-loadgen --shutdown TOKEN [--addr HOST:PORT]
//! ```
//!
//! Normal mode splits `--jobs` across `--clients` concurrent
//! connections, pipelines up to `--window` jobs per connection, and
//! verifies every reply: each job id acknowledged exactly once, output
//! equal to the sanitize-then-sort of its input (the engine's own
//! contract). Prints the aggregate `jobs/sec`; exits nonzero on any
//! mismatch, drop, or duplicate.
//!
//! `--shutdown` sends the graceful-shutdown control frame.

use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

use bonsai_gensort::dist::uniform_u32;
use bonsai_net::{Client, Reply};
use bonsai_records::{Record, U32Rec};

struct Args {
    addr: String,
    clients: u64,
    jobs: u64,
    records: usize,
    seed: u64,
    window: usize,
    shutdown: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        addr: "127.0.0.1:7040".to_string(),
        clients: 1,
        jobs: 16,
        records: 4096,
        seed: 42,
        window: 4,
        shutdown: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => parsed.addr = value("--addr")?,
            "--clients" => {
                parsed.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?;
            }
            "--jobs" => {
                parsed.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
            }
            "--records" => {
                parsed.records = value("--records")?
                    .parse()
                    .map_err(|e| format!("--records: {e}"))?;
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--window" => {
                parsed.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?;
            }
            "--shutdown" => {
                parsed.shutdown = Some(
                    value("--shutdown")?
                        .parse()
                        .map_err(|e| format!("--shutdown: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.clients == 0 || parsed.window == 0 {
        return Err("--clients and --window must be nonzero".into());
    }
    Ok(parsed)
}

struct Tally {
    ok: u64,
    failed: u64,
}

fn recv_one(
    client: &mut Client<U32Rec>,
    pending: &mut HashMap<u64, Vec<U32Rec>>,
    tally: &mut Tally,
) -> Result<(), String> {
    match client.recv().map_err(|e| format!("recv: {e}"))? {
        Reply::Sorted { job_id, records } => {
            let expected = pending
                .remove(&job_id)
                .ok_or_else(|| format!("job {job_id}: duplicate or unknown acknowledgement"))?;
            if records == expected {
                tally.ok += 1;
                Ok(())
            } else {
                Err(format!("job {job_id}: sorted output mismatch"))
            }
        }
        Reply::ServerError {
            job_id,
            code,
            message,
        } => {
            pending
                .remove(&job_id)
                .ok_or_else(|| format!("job {job_id}: duplicate or unknown acknowledgement"))?;
            eprintln!("loadgen: job {job_id} failed server-side: {code}: {message}");
            tally.failed += 1;
            Ok(())
        }
    }
}

fn run_client(args: &Args, client_idx: u64, jobs: u64) -> Result<Tally, String> {
    let mut client =
        Client::<U32Rec>::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    // Job ids restart at 0 on every connection — deliberately colliding
    // across clients to exercise the runtime's ticket-based attribution.
    let mut pending: HashMap<u64, Vec<U32Rec>> = HashMap::new();
    let mut tally = Tally { ok: 0, failed: 0 };
    for job in 0..jobs {
        let seed = args
            .seed
            .wrapping_add(client_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(job.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let data = uniform_u32(args.records, seed);
        let mut expected: Vec<U32Rec> = data.iter().map(|r| r.sanitize()).collect();
        expected.sort_unstable();
        if pending.insert(job, expected).is_some() {
            return Err(format!("job {job}: id reused while still pending"));
        }
        client.send(job, &data).map_err(|e| format!("send: {e}"))?;
        while pending.len() >= args.window {
            recv_one(&mut client, &mut pending, &mut tally)?;
        }
    }
    while !pending.is_empty() {
        recv_one(&mut client, &mut pending, &mut tally)?;
    }
    Ok(tally)
}

fn run_load(args: &Args) -> Result<(), String> {
    let start = Instant::now();
    let tallies: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let base = args.jobs / args.clients;
        let extra = args.jobs % args.clients;
        for client_idx in 0..args.clients {
            let jobs = base + u64::from(client_idx < extra);
            handles.push(scope.spawn(move || run_client(args, client_idx, jobs)));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = start.elapsed();

    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    for (idx, tally) in tallies.into_iter().enumerate() {
        match tally {
            Ok(t) => {
                ok += t.ok;
                failed += t.failed;
            }
            Err(e) => errors.push(format!("client {idx}: {e}")),
        }
    }
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "loadgen: clients={} jobs={} records={} ok={ok} failed={failed} elapsed={:.3}s rate={:.1} jobs/sec",
        args.clients,
        args.jobs,
        args.records,
        secs,
        ok as f64 / secs,
    );
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("loadgen: {e}");
        }
        return Err("some clients failed".into());
    }
    if failed > 0 {
        return Err(format!("{failed} jobs failed server-side"));
    }
    if ok != args.jobs {
        return Err(format!("expected {} acknowledgements, got {ok}", args.jobs));
    }
    println!("exactly-once: every job acknowledged once, sorted output verified");
    Ok(())
}

fn run_shutdown(args: &Args, token: u64) -> Result<(), String> {
    let mut client =
        Client::<U32Rec>::connect(&args.addr).map_err(|e| format!("connect {}: {e}", args.addr))?;
    match client
        .request_shutdown(token)
        .map_err(|e| format!("shutdown request: {e}"))?
    {
        Reply::Sorted { records, .. } if records.is_empty() => {
            println!("shutdown acknowledged");
            Ok(())
        }
        Reply::Sorted { .. } => Err("unexpected payload in shutdown acknowledgement".into()),
        Reply::ServerError { code, message, .. } => Err(format!("{code}: {message}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("bonsai-loadgen: {message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = if let Some(token) = args.shutdown {
        run_shutdown(&args, token)
    } else {
        run_load(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("bonsai-loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
