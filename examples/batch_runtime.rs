//! Batch sorting under heavy traffic: a bounded job queue feeding a
//! worker pool, with per-job failure isolation. Every result comes back
//! on the reply channel its job was submitted with.
//!
//! ```sh
//! cargo run --release --example batch_runtime
//! ```

use std::sync::mpsc;

use bonsai::amt::{AmtConfig, SimEngineConfig};
use bonsai::gensort::dist::uniform_u32;
use bonsai::runtime::{JobError, Runtime, RuntimeConfig, SortJob};

fn main() {
    // 1. Start the pool: `workers: 0` means one worker per core, and
    //    the bounded queue gives submitters backpressure — a producer
    //    can never race more than `queue_depth` jobs ahead.
    let runtime = Runtime::start(RuntimeConfig {
        workers: 0,
        queue_depth: 8,
        // Cap each job's simulation at 100M cycles per pass: a
        //    pathological job fails with BON040 instead of hogging a
        //    worker for hours.
        max_pass_cycles: Some(100_000_000),
        ..RuntimeConfig::default()
    });

    // 2. Submit a stream of jobs. Every job carries its own engine
    //    configuration; this batch mixes two AMT shapes.
    let shapes = [
        SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
        SimEngineConfig::dram_sorter(AmtConfig::new(8, 64), 4),
    ];
    //    All six jobs share one reply channel.
    let (tx, rx) = mpsc::channel();
    let jobs = 6u64;
    for id in 0..jobs {
        let cfg = shapes[(id % 2) as usize];
        runtime
            .submit_with_reply(SortJob::new(id, cfg, uniform_u32(100_000, id)), tx.clone())
            .expect("runtime open");
    }
    // Each job's sender goes with its result, so once ours is dropped
    // the channel ends after the last reply.
    drop(tx);

    // 3. Collect. Results arrive in completion order; sorting by the
    //    ticket `submit_with_reply` returned restores submission order.
    //    A failed job (invalid config, BON040 livelock) fails alone —
    //    the batch keeps sorting.
    let mut results: Vec<_> = rx.iter().collect();
    results.sort_by_key(|r| r.ticket);
    for r in &results {
        match &r.result {
            Ok(out) => {
                assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
                println!(
                    "job {}: {} records in {} merge stages, {} cycles ({:.1} ms wall)",
                    r.id,
                    out.sorted.len(),
                    out.report.stages(),
                    out.report.total_cycles,
                    r.wall.as_secs_f64() * 1e3
                );
            }
            Err(JobError::Invalid(diagnostics)) => {
                println!("job {}: rejected — {diagnostics:?}", r.id);
            }
            Err(JobError::Sim(err)) => {
                println!("job {}: failed — {err}", r.id);
            }
            Err(JobError::Panic(msg)) => {
                println!("job {}: panicked — {msg}", r.id);
            }
        }
    }
    assert_eq!(results.len() as u64, jobs);
    // Every job has replied: closing the queue and joining the workers
    // is all that is left.
    runtime.finish();
    println!("batch of {jobs} jobs complete");
}
