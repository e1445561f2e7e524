//! A simulated sort runs on its caller's thread: every entry point of
//! `SimEngine`, whatever `workers` says, compares every record on the
//! thread that called it and starts no other thread.
//!
//! This file holds a single test on purpose: an integration-test binary
//! is its own process, so the `/proc/self/task` count (the way the
//! runtime's leak tests count threads) is not disturbed by other tests'
//! threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::ThreadId;

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::Record;

/// Thread count of this process via /proc (Linux-only; 0 elsewhere, so
/// the count assertions pass trivially and the `ThreadId` ones remain).
fn count_own_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, Iterator::count)
}

/// The thread the sorts are called from.
static CALLER: OnceLock<ThreadId> = OnceLock::new();
/// Comparisons made on any other thread.
static ELSEWHERE: AtomicUsize = AtomicUsize::new(0);
/// Comparisons made so far, and the most threads one of them saw.
static COMPARISONS: AtomicUsize = AtomicUsize::new(0);
static MOST_THREADS: AtomicUsize = AtomicUsize::new(0);

/// A `U32Rec` that notes where each comparison runs: off the caller's
/// thread, and (every 256th) how many threads the process has.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct Spy(u32);

impl PartialOrd for Spy {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Spy {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        if CALLER.get() != Some(&std::thread::current().id()) {
            ELSEWHERE.fetch_add(1, Ordering::Relaxed);
        }
        if COMPARISONS
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(256)
        {
            MOST_THREADS.fetch_max(count_own_threads(), Ordering::Relaxed);
        }
        self.0.cmp(&other.0)
    }
}

impl Record for Spy {
    type Key = u32;
    const WIDTH_BYTES: usize = 4;
    const TERMINAL: Self = Self(0);
    const MAX: Self = Self(u32::MAX);

    fn key(&self) -> u32 {
        self.0
    }

    fn sanitize(self) -> Self {
        Self(self.0.max(1))
    }
}

#[test]
fn a_simulated_sort_never_spawns() {
    CALLER.set(std::thread::current().id()).expect("set once");
    let before = count_own_threads();
    // 20 000 records on a 2-leaf tree: 1 250 presorted runs, so the
    // first per-group pass has 625 groups to spread, if anything did.
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 2), 4);
    let data: Vec<Spy> = uniform_u32(20_000, 33)
        .into_iter()
        .map(|r| Spy(r.0))
        .collect();
    let mut want = data.iter().map(|r| r.sanitize()).collect::<Vec<_>>();
    want.sort_unstable_by_key(|r| r.0);

    // `workers = 0` used to mean one thread per core.
    let pipelined = SimEngine::new(cfg)
        .try_sort_pipelined(data.clone(), 0)
        .expect("sorts");
    let mut polls = 0u64;
    let yielding = SimEngine::new(cfg)
        .try_sort_yielding(data.clone(), &mut || polls += 1)
        .expect("sorts");
    let (fused, _) = SimEngine::new(cfg).try_sort(data).expect("sorts");

    assert!(pipelined.0 == want, "per-group output");
    assert!(fused == want, "fused output");
    assert!(yielding == pipelined, "a yielding sort is the same sort");
    assert!(polls > 625, "{polls} polls");
    assert!(COMPARISONS.load(Ordering::Relaxed) > 100_000);
    assert_eq!(
        ELSEWHERE.load(Ordering::Relaxed),
        0,
        "a comparison ran off the calling thread"
    );
    if before > 0 {
        assert_eq!(
            MOST_THREADS.load(Ordering::Relaxed),
            before,
            "a thread was spawned"
        );
    }
    assert_eq!(count_own_threads(), before);
}
