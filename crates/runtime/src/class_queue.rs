//! The runtime's one job queue: bounded, blocking, two lanes.
//!
//! [`ClassQueue`] is the backpressure seam of the batch runtime —
//! producers calling [`ClassQueue::push`] on a full queue block until a
//! worker drains a slot, so a submitter can never race ahead of the pool
//! by more than the configured depth (one capacity shared by both lanes)
//! — and `close` is a broadcast: every parked producer and consumer
//! wakes to observe the shutdown. `pop` prefers the **latency** lane:
//! small deadline-bound jobs overtake the queue position of large
//! throughput-class jobs. A throughput job already running is not
//! preempted either: its worker takes latency jobs with the
//! non-blocking [`ClassQueue::try_pop_latency`] at the job's yield
//! points (the runtime *lends* the worker; see
//! [`PassScheduler::Adaptive`](crate::PassScheduler::Adaptive)).
//!
//! Pure priority starves the throughput lane under a steady latency
//! stream, so a *fairness stride* bounds the bypass: after `stride`
//! consecutive latency-lane pops while the throughput lane waits, one
//! throughput job is dispatched regardless. A `stride` of 0 keeps pure
//! priority; the runtime always builds its queue with a stride of 4.
//!
//! Items name their own lane via [`Classed`]. When every item reports
//! [`JobClass::Latency`] — what [`PassScheduler::Fifo`](crate::PassScheduler::Fifo)
//! does — the queue *is* a FIFO: one lane, zero reordering.
//!
//! The queue is generic over the [`SyncOps`] facade: production builds
//! use [`StdSync`] (plain `std::sync`, the default type parameter, zero
//! overhead), while `tests/mc_class_queue.rs` instantiates it with
//! `bonsai_mc::sync::McSync` and model-checks the protocol and the
//! starvation bound under every interleaving.

use std::collections::VecDeque;

use bonsai_mc::facade::{StdSync, SyncOps};

/// Why a push did not enqueue; the item is handed back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was closed.
    Closed(T),
}

/// Scheduling class of one job: which lane of the [`ClassQueue`] it
/// waits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobClass {
    /// Small or deadline-bound: dispatched ahead of queued
    /// throughput-class jobs, or run at a yield point of a running one.
    #[default]
    Latency,
    /// Large batch work: optimized for aggregate bytes/second, may be
    /// overtaken while queued; while running it lends its worker to
    /// queued latency jobs at yield points, never for more than a
    /// quarter of its own time.
    Throughput,
}

/// Items that know their scheduling class.
pub trait Classed {
    /// Which [`ClassQueue`] lane this item waits in.
    fn job_class(&self) -> JobClass;
}

struct ClassState<T> {
    latency: VecDeque<T>,
    throughput: VecDeque<T>,
    closed: bool,
    /// Consecutive latency-lane pops while the throughput lane was
    /// non-empty; reset by every throughput dispatch.
    latency_streak: u32,
}

impl<T> ClassState<T> {
    fn len(&self) -> usize {
        self.latency.len() + self.throughput.len()
    }
}

/// A bounded two-lane MPMC queue: FIFO within each lane, latency lane
/// first, with a stride-bounded fairness guarantee for the throughput
/// lane.
pub struct ClassQueue<T: Send + Classed, S: SyncOps = StdSync> {
    state: S::Mutex<ClassState<T>>,
    capacity: usize,
    fairness_stride: u32,
    not_full: S::Condvar,
    not_empty: S::Condvar,
}

impl<T: Send + Classed, S: SyncOps> std::fmt::Debug for ClassQueue<T, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClassQueue")
            .field("capacity", &self.capacity)
            .field("fairness_stride", &self.fairness_stride)
            .field("len", &self.len())
            .finish()
    }
}

impl<T: Send + Classed, S: SyncOps> ClassQueue<T, S> {
    /// Creates a queue holding at most `capacity ≥ 1` items across both
    /// lanes. `fairness_stride` bounds how many consecutive latency
    /// pops may bypass a waiting throughput job (0 = pure priority,
    /// which can starve it).
    #[must_use]
    pub fn new(capacity: usize, fairness_stride: u32) -> Self {
        Self {
            state: S::mutex_named(
                "class_queue.state",
                ClassState {
                    latency: VecDeque::new(),
                    throughput: VecDeque::new(),
                    closed: false,
                    latency_streak: 0,
                },
            ),
            capacity: capacity.max(1),
            fairness_stride,
            not_full: S::condvar_named("class_queue.not_full"),
            not_empty: S::condvar_named("class_queue.not_empty"),
        }
    }

    /// Items currently queued across both lanes.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        S::lock(&self.state).len()
    }

    /// Enqueues `item` in its class's lane, blocking while the queue is
    /// full.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] when the queue was closed before a slot
    /// freed up; the item is handed back.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let guard = S::lock(&self.state);
        let mut guard = S::wait_while(&self.not_full, &self.state, guard, |s| {
            !s.closed && s.len() >= self.capacity
        });
        if guard.closed {
            return Err(PushError::Closed(item));
        }
        match item.job_class() {
            JobClass::Latency => guard.latency.push_back(item),
            JobClass::Throughput => guard.throughput.push_back(item),
        }
        drop(guard);
        S::notify_one(&self.not_empty);
        Ok(())
    }

    /// Dequeues the next item by lane policy, blocking while both lanes
    /// are empty. Returns `None` once the queue is closed *and*
    /// drained.
    pub fn pop(&self) -> Option<T> {
        let guard = S::lock(&self.state);
        let mut guard = S::wait_while(&self.not_empty, &self.state, guard, |s| {
            s.len() == 0 && !s.closed
        });
        let yield_to_throughput = !guard.throughput.is_empty()
            && (guard.latency.is_empty()
                || (self.fairness_stride > 0 && guard.latency_streak >= self.fairness_stride));
        let item = if yield_to_throughput {
            guard.latency_streak = 0;
            guard.throughput.pop_front()
        } else {
            let item = guard.latency.pop_front();
            if item.is_some() && !guard.throughput.is_empty() {
                // Only bypasses count toward the streak: latency pops
                // with an empty throughput lane starve nobody.
                guard.latency_streak += 1;
            }
            item
        };
        drop(guard);
        if item.is_some() {
            S::notify_one(&self.not_full);
        }
        item
    }

    /// Dequeues the latency lane's head without blocking; `None` when
    /// that lane is empty, whatever the throughput lane holds. A closed
    /// queue still drains.
    ///
    /// This is the *lent* pop: a worker running a throughput job takes
    /// a latency job at one of the job's yield points. It is not a
    /// bypass in [`ClassQueue::pop`]'s sense — no worker was free to
    /// dispatch a waiting throughput job — so it leaves the fairness
    /// streak alone, and `pop`'s stride bound holds as before. What a
    /// running job lends is bounded by the runtime, in time.
    pub fn try_pop_latency(&self) -> Option<T> {
        let item = S::lock(&self.state).latency.pop_front();
        if item.is_some() {
            S::notify_one(&self.not_full);
        }
        item
    }

    /// Closes the queue: both lanes still drain, further pushes fail,
    /// and blocked poppers wake up to observe the shutdown.
    pub fn close(&self) {
        S::lock(&self.state).closed = true;
        // Shutdown is a broadcast: every parked producer and consumer
        // must observe `closed`, so `notify_one` would be a lost-wakeup
        // bug here (the mutation test in `tests/mc_pool_shutdown.rs`
        // proves it).
        S::notify_all(&self.not_empty);
        S::notify_all(&self.not_full);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Debug, PartialEq, Eq)]
    struct Item(i32, JobClass);

    impl Classed for Item {
        fn job_class(&self) -> JobClass {
            self.1
        }
    }

    fn lat(v: i32) -> Item {
        Item(v, JobClass::Latency)
    }

    fn thr(v: i32) -> Item {
        Item(v, JobClass::Throughput)
    }

    #[test]
    fn latency_lane_overtakes_queued_throughput_jobs() {
        let q = ClassQueue::<Item>::new(8, 4);
        q.push(thr(100)).unwrap();
        q.push(lat(1)).unwrap();
        q.push(lat(2)).unwrap();
        assert_eq!(q.pop(), Some(lat(1)));
        assert_eq!(q.pop(), Some(lat(2)));
        assert_eq!(q.pop(), Some(thr(100)));
    }

    #[test]
    fn all_latency_items_are_plain_fifo() {
        // The Fifo scheduler tags everything Latency: the queue must
        // then be a plain bounded FIFO.
        let q = ClassQueue::<Item>::new(8, 4);
        for i in 0..5 {
            q.push(lat(i)).unwrap();
        }
        q.close();
        assert!(matches!(q.push(lat(99)), Err(PushError::Closed(_))));
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|i| i.0).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.pop().is_none(), "closed and drained stays empty");
    }

    #[test]
    fn fairness_stride_bounds_the_bypass() {
        // stride 2: after two latency bypasses a throughput job runs.
        let q = ClassQueue::<Item>::new(16, 2);
        q.push(thr(100)).unwrap();
        q.push(thr(101)).unwrap();
        for i in 0..6 {
            q.push(lat(i)).unwrap();
        }
        q.close();
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|i| i.0).collect();
        assert_eq!(order, vec![0, 1, 100, 2, 3, 101, 4, 5]);
    }

    #[test]
    fn zero_stride_is_pure_priority() {
        let q = ClassQueue::<Item>::new(16, 0);
        q.push(thr(100)).unwrap();
        for i in 0..5 {
            q.push(lat(i)).unwrap();
        }
        q.close();
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|i| i.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 100]);
    }

    #[test]
    fn capacity_spans_both_lanes_and_push_blocks_until_a_slot_frees() {
        let q = Arc::new(ClassQueue::<Item>::new(2, 4));
        q.push(thr(100)).unwrap();
        q.push(lat(1)).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(lat(2)))
        };
        // The producer is blocked until this pop frees a slot.
        assert_eq!(q.pop(), Some(lat(1)));
        producer.join().unwrap().unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn try_pop_latency_takes_only_the_latency_lane() {
        let q = ClassQueue::<Item>::new(4, 1);
        assert_eq!(q.try_pop_latency(), None, "empty");
        q.push(thr(100)).unwrap();
        assert_eq!(q.try_pop_latency(), None, "throughput only");
        for i in 0..3 {
            q.push(lat(i)).unwrap();
        }
        // Lent pops leave the streak alone: stride 1 still admits
        // exactly one bypass before `pop` serves the throughput job.
        assert_eq!(q.try_pop_latency(), Some(lat(0)));
        assert_eq!(q.try_pop_latency(), Some(lat(1)));
        assert_eq!(q.pop(), Some(lat(2)));
        q.push(lat(3)).unwrap();
        assert_eq!(q.pop(), Some(thr(100)));
        q.close();
        assert_eq!(q.try_pop_latency(), Some(lat(3)), "closed still drains");
        assert_eq!(q.try_pop_latency(), None, "closed and drained");
    }

    #[test]
    fn try_pop_latency_frees_a_slot_for_a_blocked_push() {
        let q = Arc::new(ClassQueue::<Item>::new(1, 4));
        q.push(lat(1)).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(thr(2)))
        };
        // Nothing but the lent pop frees a slot for the producer.
        assert_eq!(q.try_pop_latency(), Some(lat(1)));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(thr(2)));
    }

    #[test]
    fn pop_blocks_until_an_item_arrives() {
        let q = Arc::new(ClassQueue::<Item>::new(4, 4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        q.push(thr(7)).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(thr(7)));
    }
}
