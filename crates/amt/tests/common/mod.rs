//! A counting global allocator for the allocation-contract tests.
//!
//! The counts are per thread, so what the test harness's own thread
//! allocates while a test runs is not charged to the measured section.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const` initializers and no destructors: reading these inside the
    // allocator never allocates or registers a TLS destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed since the counters were armed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The high-water mark of `LIVE`.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Notes one allocation (or reallocation) that moved this thread's live
/// bytes by `grown`.
fn note_alloc(grown: isize) {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
    note_bytes(grown);
}

fn note_bytes(grown: isize) {
    if ARMED.get() {
        let live = LIVE.get() + grown;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_bytes(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// What a measured section did to its thread's heap.
pub struct HeapUse {
    /// Heap allocations, reallocations included.
    pub allocs: u64,
    /// The high-water mark of its live bytes: bytes it allocated minus
    /// bytes it freed, counted from where it began. Freeing what it was
    /// handed counts too, so the mark is what the section held at its
    /// peak beyond what it started with.
    #[allow(dead_code)] // not every test target reads it
    pub peak_bytes: isize,
}

/// Runs `f` with this thread's counters armed; returns its result and
/// what it did to the heap.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, HeapUse) {
    ALLOCS.set(0);
    LIVE.set(0);
    PEAK.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    let heap = HeapUse {
        allocs: ALLOCS.get(),
        peak_bytes: PEAK.get(),
    };
    (out, heap)
}

/// Runs `f` with this thread's counters armed; returns its result and
/// the number of heap allocations (including reallocations) it made.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, heap) = measure(f);
    (out, heap.allocs)
}
