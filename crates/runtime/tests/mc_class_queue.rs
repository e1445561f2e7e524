//! Exhaustive model checking of the two-lane [`ClassQueue`] protocol.
//!
//! The class queue is a bounded Mutex+Condvar queue (shared capacity
//! across both lanes, `wait_while` parking, broadcast close) with a
//! second lane and a fairness stride in its pop policy. These tests
//! instantiate the *production* queue with
//! `bonsai_mc::sync::McSync` and explore every schedule (within the
//! preemption budget) of:
//!
//! - mixed-class push/pop/close with concurrent producers+consumers,
//! - backpressure handoff through a capacity-1 queue,
//! - drain-after-close (queued work of both classes still delivers),
//! - the broadcast-shutdown wakeup with multiple parked consumers,
//! - the starvation bound: with stride `s`, at most `s` latency items
//!   bypass a waiting throughput item before it is served;
//! - the lent pop, `try_pop_latency`, racing a blocking consumer, a
//!   mixed-class producer and `close`: exactly-once delivery, the
//!   `not_full` wakeup it owes a blocked producer, and a stride bound
//!   it leaves alone.

use std::sync::Arc;

use bonsai_mc::sync::{self, McSync};
use bonsai_mc::Checker;
use bonsai_runtime::{ClassQueue, Classed, JobClass};

/// Minimal classed item: a payload tagged with its scheduling lane.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Item {
    value: u32,
    class: JobClass,
}

impl Item {
    fn latency(value: u32) -> Self {
        Self {
            value,
            class: JobClass::Latency,
        }
    }

    fn throughput(value: u32) -> Self {
        Self {
            value,
            class: JobClass::Throughput,
        }
    }
}

impl Classed for Item {
    fn job_class(&self) -> JobClass {
        self.class
    }
}

/// 2 producers (one per class) + 2 consumers through a capacity-1
/// queue, closed by the coordinator after the producers drain: every
/// schedule must deliver both items exactly once and terminate — no
/// deadlock, no lost wakeup across the two lanes' shared condvars.
///
/// Five threads at the default preemption budget explode the space, so
/// this config runs at budget 1 — still exhaustive within the bound,
/// with every switch at a blocking point (where queue bugs live) free.
#[test]
fn mixed_class_push_pop_close_is_exhaustively_clean() {
    use bonsai_mc::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering;

    let stats = Checker::new()
        .preemption_budget(1)
        .max_schedules(1_000_000)
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(1, 4));
            let sum = Arc::new(AtomicUsize::new(0));
            let count = Arc::new(AtomicUsize::new(0));
            let producers: Vec<_> = [Item::latency(1), Item::throughput(2)]
                .into_iter()
                .map(|item| {
                    let queue = Arc::clone(&queue);
                    sync::thread::spawn(move || {
                        queue.push(item).expect("queue closes after producers");
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    let sum = Arc::clone(&sum);
                    let count = Arc::clone(&count);
                    sync::thread::spawn(move || {
                        while let Some(item) = queue.pop() {
                            sum.fetch_add(item.value as usize, Ordering::SeqCst);
                            count.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            queue.close();
            for c in consumers {
                c.join().unwrap();
            }
            assert_eq!(count.load(Ordering::SeqCst), 2, "both items delivered");
            assert_eq!(sum.load(Ordering::SeqCst), 3, "delivered exactly 1 and 2");
        })
        .expect("the class-queue protocol must be schedule-clean");
    assert!(
        stats.complete,
        "exploration must exhaust the budgeted space"
    );
    assert!(stats.schedules > 100, "2p/2c/cap-1 is not a trivial space");
}

/// Backpressure focus: one producer pushes three mixed-class items
/// through a capacity-1 queue while a consumer drains it. Capacity 1
/// means at most one item is ever queued, so delivery order must equal
/// push order on every schedule — the lanes cannot reorder what never
/// coexists — and the blocked `push` must hand off cleanly.
#[test]
fn class_queue_backpressure_handoff_is_exhaustively_clean() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(1, 4));
            let consumer = {
                let queue = Arc::clone(&queue);
                sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        got.push(item.value);
                    }
                    assert_eq!(got, vec![7, 8, 9], "capacity-1 order is push order");
                })
            };
            queue.push(Item::throughput(7)).unwrap();
            queue.push(Item::latency(8)).unwrap();
            queue.push(Item::throughput(9)).unwrap();
            queue.close();
            consumer.join().unwrap();
        })
        .expect("backpressure handoff must be schedule-clean");
    assert!(stats.complete);
}

/// Drain-after-close: items of both classes queued before `close` must
/// still deliver, latency lane first, on every schedule of the
/// consumer/closer interleaving.
#[test]
fn queued_work_of_both_classes_drains_after_close() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(4, 4));
            queue.push(Item::throughput(1)).unwrap();
            queue.push(Item::latency(2)).unwrap();
            let consumer = {
                let queue = Arc::clone(&queue);
                sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        got.push(item.value);
                    }
                    assert_eq!(got, vec![2, 1], "latency lane drains first");
                })
            };
            queue.close();
            consumer.join().unwrap();
        })
        .expect("drain-after-close must be schedule-clean");
    assert!(stats.complete);
}

/// Broadcast shutdown: two consumers parked on an *empty* class queue
/// must both observe `close` (the same lost-wakeup scenario the
/// `mc_pool_shutdown.rs` mutation test seeds — `close` must
/// `notify_all`).
#[test]
fn broadcast_close_wakes_every_parked_consumer() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(1, 4));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    sync::thread::spawn(move || {
                        assert!(queue.pop().is_none(), "nothing was ever pushed");
                    })
                })
                .collect();
            queue.close();
            for c in consumers {
                c.join().unwrap();
            }
        })
        .expect("broadcast close must wake every parked consumer");
    assert!(stats.complete);
}

/// The starvation bound, checked under every schedule: with stride 1
/// and the queue preloaded `[T, L, L]`, a lone consumer must serve the
/// throughput item after at most one latency bypass — pop order is
/// exactly `L, T, L`. The preload happens before the consumer spawns,
/// so the only nondeterminism is the consumer/closer interleaving the
/// fairness accounting must survive.
#[test]
fn fairness_stride_bound_holds_on_every_schedule() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(4, 1));
            queue.push(Item::throughput(10)).unwrap();
            queue.push(Item::latency(20)).unwrap();
            queue.push(Item::latency(21)).unwrap();
            let consumer = {
                let queue = Arc::clone(&queue);
                sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        got.push(item.value);
                    }
                    assert_eq!(
                        got,
                        vec![20, 10, 21],
                        "stride 1 admits one bypass, then serves throughput"
                    );
                })
            };
            queue.close();
            consumer.join().unwrap();
        })
        .expect("the fairness bound must be schedule-clean");
    assert!(stats.complete);
}

/// One delivery counter per item value `0..n`: every item must be taken
/// exactly once, by whichever thread.
fn delivery_counters(n: usize) -> Arc<Vec<sync::atomic::AtomicUsize>> {
    Arc::new((0..n).map(|_| sync::atomic::AtomicUsize::new(0)).collect())
}

/// A lender (a worker inside a throughput job, polling twice) races a
/// blocking consumer and a producer pushing `L0, T1, L2` through a
/// capacity-1 queue, closed once producer and lender are done. Every
/// item is delivered exactly once and every schedule terminates. A
/// lent pop that skipped `notify_one(not_full)` deadlocks here: the
/// producer parks on the full queue, the lender empties it, and the
/// consumer, woken for the item the lender took, parks again.
#[test]
fn lent_pops_deliver_exactly_once_and_wake_a_blocked_producer() {
    use std::sync::atomic::Ordering;

    let stats = Checker::new()
        .preemption_budget(1)
        .max_schedules(1_000_000)
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(1, 4));
            let delivered = delivery_counters(3);
            let producer = {
                let queue = Arc::clone(&queue);
                sync::thread::spawn(move || {
                    for item in [Item::latency(0), Item::throughput(1), Item::latency(2)] {
                        queue.push(item).expect("queue closes after the producer");
                    }
                })
            };
            let consumer = {
                let queue = Arc::clone(&queue);
                let delivered = Arc::clone(&delivered);
                sync::thread::spawn(move || {
                    while let Some(item) = queue.pop() {
                        delivered[item.value as usize].fetch_add(1, Ordering::SeqCst);
                    }
                })
            };
            let lender = {
                let queue = Arc::clone(&queue);
                let delivered = Arc::clone(&delivered);
                sync::thread::spawn(move || {
                    for _ in 0..2 {
                        if let Some(item) = queue.try_pop_latency() {
                            assert_eq!(item.class, JobClass::Latency, "lent a throughput job");
                            delivered[item.value as usize].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            };
            producer.join().unwrap();
            lender.join().unwrap();
            queue.close();
            consumer.join().unwrap();
            for (value, count) in delivered.iter().enumerate() {
                assert_eq!(count.load(Ordering::SeqCst), 1, "item {value}");
            }
        })
        .expect("lending must be schedule-clean");
    assert!(
        stats.complete,
        "exploration must exhaust the budgeted space"
    );
    assert!(
        stats.schedules > 100,
        "4 threads at cap 1 is not a trivial space"
    );
}

/// `pop`'s stride bound with a lender racing the consumer: stride 1,
/// the queue preloaded `[T10, L20, L21, L22]`, the lender polling twice.
/// Whichever latency items the lender takes, the consumer pops exactly
/// one latency item before the throughput one: lent pops are not
/// bypasses, so they neither count toward the streak (which would
/// serve T10 first) nor escape it.
#[test]
fn fairness_stride_bound_holds_with_a_lender() {
    use std::sync::atomic::Ordering;

    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(4, 1));
            queue.push(Item::throughput(10)).unwrap();
            for value in 20..23 {
                queue.push(Item::latency(value)).unwrap();
            }
            let delivered = delivery_counters(23);
            let consumer = {
                let queue = Arc::clone(&queue);
                let delivered = Arc::clone(&delivered);
                sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        delivered[item.value as usize].fetch_add(1, Ordering::SeqCst);
                        got.push(item.value);
                    }
                    assert_eq!(
                        got.iter().position(|&v| v == 10),
                        Some(1),
                        "stride 1 admits one bypass by pop: {got:?}"
                    );
                })
            };
            let lender = {
                let queue = Arc::clone(&queue);
                let delivered = Arc::clone(&delivered);
                sync::thread::spawn(move || {
                    for _ in 0..2 {
                        if let Some(item) = queue.try_pop_latency() {
                            delivered[item.value as usize].fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            };
            lender.join().unwrap();
            queue.close();
            consumer.join().unwrap();
            for value in [10, 20, 21, 22] {
                assert_eq!(delivered[value].load(Ordering::SeqCst), 1, "item {value}");
            }
        })
        .expect("the stride bound must survive lending");
    assert!(stats.complete);
}
