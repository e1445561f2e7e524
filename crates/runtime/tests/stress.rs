//! Randomized contention stress for the queue and the runtime.
//!
//! The model checker (`tests/mc_class_queue.rs`,
//! `tests/mc_pool_shutdown.rs`) proves the protocols correct at small
//! sizes; these tests hammer the
//! real `std::sync` build at realistic sizes — many producers and
//! consumers, randomized pacing from `bonsai-rng`, worker counts 1 / 2 /
//! all-cores, one and all-cores DAG workers per job — under a wall-clock
//! watchdog, so a wedge
//! (missed wakeup, stuck backpressure) fails in seconds instead of
//! hanging CI.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::U32Rec;
use bonsai_rng::Rng;
use bonsai_runtime::{ClassQueue, Classed, JobClass, Runtime, RuntimeConfig, SortJob};

/// Fails the test if `f` has not finished within `secs` seconds — the
/// watchdog that turns a concurrency wedge into a fast, attributable
/// failure. Runs `f` on a helper thread; on timeout the process aborts
/// with the test's name in the panic message.
fn with_watchdog<F: FnOnce() + Send + 'static>(name: &'static str, secs: u64, f: F) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("stress body panicked"),
        Err(_) => panic!("{name}: wedged — no progress within {secs}s"),
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A value that picks its lane by parity, so the churn below crosses
/// both lanes and the fairness stride.
struct Item(u64);

impl Classed for Item {
    fn job_class(&self) -> JobClass {
        if self.0.is_multiple_of(2) {
            JobClass::Latency
        } else {
            JobClass::Throughput
        }
    }
}

/// Randomized MPMC churn through one queue: every pushed value must be
/// popped exactly once, across a grid of producer/consumer counts and
/// queue depths, with random per-thread pacing.
#[test]
fn queue_contention_roundtrip_under_randomized_pacing() {
    with_watchdog("queue_contention_roundtrip", 60, || {
        let mut rng = Rng::seed_from_u64(0xC0FF_EE00);
        for round in 0..6 {
            let producers = rng.range_usize(1, 5);
            let consumers = rng.range_usize(1, 5);
            let depth = rng.range_usize(1, 9);
            let per_producer = 200;
            let queue = Arc::new(ClassQueue::<Item>::new(depth, 4));
            let popped_sum = Arc::new(AtomicUsize::new(0));
            let popped_count = Arc::new(AtomicUsize::new(0));

            let consumer_handles: Vec<_> = (0..consumers)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    let sum = Arc::clone(&popped_sum);
                    let count = Arc::clone(&popped_count);
                    std::thread::spawn(move || {
                        while let Some(Item(v)) = queue.pop() {
                            sum.fetch_add(v as usize, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            let producer_handles: Vec<_> = (0..producers)
                .map(|p| {
                    let queue = Arc::clone(&queue);
                    let mut rng = Rng::seed_from_u64(round as u64 * 31 + p as u64);
                    std::thread::spawn(move || {
                        for i in 0..per_producer {
                            let value = (p * per_producer + i) as u64 + 1;
                            assert!(queue.push(Item(value)).is_ok(), "closed after producers");
                            if rng.chance_percent(10) {
                                std::thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            for h in producer_handles {
                h.join().unwrap();
            }
            queue.close();
            for h in consumer_handles {
                h.join().unwrap();
            }

            let n = producers * per_producer;
            assert_eq!(popped_count.load(Ordering::Relaxed), n);
            assert_eq!(
                popped_sum.load(Ordering::Relaxed),
                n * (n + 1) / 2,
                "round {round}: {producers}p/{consumers}c depth {depth} lost or duplicated items"
            );
        }
    });
}

/// The full runtime under batch traffic at workers 1 / 2 / all-cores,
/// with a shallow queue forcing real backpressure: every job replies
/// once, and the outputs in ticket order are identical across shapes.
#[test]
fn runtime_batch_identical_across_worker_shapes_and_modes() {
    with_watchdog("runtime_batch_shapes", 240, || {
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let mut rng = Rng::seed_from_u64(0xBA7C);
        let jobs: Vec<Vec<U32Rec>> = (0..6)
            .map(|_| uniform_u32(rng.range_usize(2_000, 6_000), rng.next_u64()))
            .collect();

        let mut reference: Option<Vec<Vec<U32Rec>>> = None;
        for workers in [1, 2, available_cores()] {
            let runtime = Runtime::start(RuntimeConfig {
                workers,
                queue_depth: 2,
                ..RuntimeConfig::default()
            });
            let (tx, rx) = mpsc::channel();
            for (id, data) in jobs.iter().enumerate() {
                runtime
                    .submit_with_reply(SortJob::new(id as u64, cfg, data.clone()), tx.clone())
                    .expect("runtime open");
            }
            drop(tx);
            runtime.finish();
            let mut results: Vec<_> = rx.iter().collect();
            results.sort_by_key(|r| r.ticket);
            assert_eq!(results.len(), jobs.len());
            let sorted: Vec<Vec<U32Rec>> = results
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    assert_eq!(r.id, i as u64, "one submitter: tickets follow ids");
                    r.result.expect("valid jobs sort").sorted
                })
                .collect();
            match &reference {
                None => reference = Some(sorted),
                Some(expected) => {
                    assert_eq!(&sorted, expected, "workers={workers} changed the output");
                }
            }
        }
    });
}

/// Backpressure-heavy churn: more submitters than workers, a depth-1
/// queue, and randomized job sizes — every submitted job must come back
/// exactly once. This is the seam where a lost `not_full` wakeup would
/// park a submitter forever; the watchdog makes that loud.
#[test]
fn runtime_concurrent_submitters_with_tiny_queue() {
    with_watchdog("runtime_concurrent_submitters", 120, || {
        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
        let runtime = Arc::new(Runtime::start(RuntimeConfig {
            workers: 2,
            queue_depth: 1,
            ..RuntimeConfig::default()
        }));
        let (tx, rx) = mpsc::channel();
        let submitters: Vec<_> = (0..3u64)
            .map(|s| {
                let runtime = Arc::clone(&runtime);
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut rng = Rng::seed_from_u64(s);
                    for j in 0..4u64 {
                        let id = s * 4 + j;
                        let data = uniform_u32(rng.range_usize(500, 2_500), id);
                        runtime
                            .submit_with_reply(SortJob::new(id, cfg, data), tx.clone())
                            .expect("runtime open");
                    }
                })
            })
            .collect();
        drop(tx);
        for h in submitters {
            h.join().unwrap();
        }
        let runtime = Arc::into_inner(runtime).expect("all submitters joined");
        let start = Instant::now();
        runtime.finish();
        assert!(start.elapsed() < Duration::from_secs(110), "finish stalled");
        let mut results: Vec<_> = rx.iter().collect();
        assert_eq!(results.len(), 12, "every submitted job came back");
        // In ticket order (true submission order). With three racing
        // submitters that interleaving is nondeterministic, so assert
        // the invariants, not one particular interleaving: tickets are
        // unique, each id arrives exactly once, each submitter's own ids
        // appear in its submission order, and every output is sorted.
        results.sort_by_key(|r| r.ticket);
        let mut seen = [false; 12];
        for r in &results {
            let id = usize::try_from(r.id).unwrap();
            assert!(!seen[id], "id {id} delivered twice");
            seen[id] = true;
            let out = r.result.as_ref().expect("jobs sort");
            assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]));
        }
        assert!(seen.iter().all(|&s| s), "every id came back");
        assert!(
            results.windows(2).all(|w| w[0].ticket < w[1].ticket),
            "every job has its own ticket"
        );
        for s in 0..3u64 {
            let own: Vec<u64> = results
                .iter()
                .filter(|r| r.id / 4 == s)
                .map(|r| r.id)
                .collect();
            assert_eq!(
                own,
                vec![s * 4, s * 4 + 1, s * 4 + 2, s * 4 + 3],
                "submitter {s}'s jobs keep their submission order"
            );
        }
    });
}
