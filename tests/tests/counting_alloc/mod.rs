//! A process-wide counting allocator for the allocation tests: each test
//! binary that declares `mod counting_alloc;` installs it as its global
//! allocator and reads the counters below — whichever it needs.
//!
//! The counters are per thread: each reads what the calling thread has
//! allocated and freed. A test runs on a thread of its own, and so does
//! the simulation it drives, while the test harness's main thread records
//! the results of the tests that finish meanwhile; counted process-wide,
//! those allocations landed in whichever count was open at the time.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::thread::LocalKey;

struct CountingAlloc;

thread_local! {
    static ALLOCS_HERE: Cell<u64> = const { Cell::new(0) };
    static LIVE_HERE: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES_HERE: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES_HERE: Cell<i64> = const { Cell::new(0) };
}

/// One of the calling thread's counters, read as the atomics it replaces
/// were (the ordering is moot for a thread's own counter).
pub struct Counter<T: 'static>(&'static LocalKey<Cell<T>>);

impl<T: Copy + Default + std::ops::Add<Output = T>> Counter<T> {
    pub fn load(&self, _order: Ordering) -> T {
        self.0.with(Cell::get)
    }

    fn add(&self, delta: T) -> T {
        // Const-initialized and without a destructor, the counters stay
        // readable while a thread is torn down; `try_with` costs nothing.
        self.0.try_with(|c| c.replace(c.get() + delta) + delta).unwrap_or_default()
    }
}

/// Allocations made so far, reallocations included.
pub static ALLOCS: Counter<u64> = Counter(&ALLOCS_HERE);
/// Heap blocks allocated and not yet freed (a reallocation keeps its one).
pub static LIVE: Counter<i64> = Counter(&LIVE_HERE);
/// Bytes requested by the blocks in [`LIVE`] (a reallocation moves it by
/// its size delta).
pub static LIVE_BYTES: Counter<i64> = Counter(&LIVE_BYTES_HERE);
/// The most [`LIVE_BYTES`] has read since the last [`reset_peak`].
pub static PEAK_BYTES: Counter<i64> = Counter(&PEAK_BYTES_HERE);

/// Start a new peak window at the live bytes as they stand, and return them.
pub fn reset_peak() -> i64 {
    let now = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.add(now - PEAK_BYTES.load(Ordering::Relaxed));
    now
}

/// `delta` more bytes live.
fn grow(delta: i64) {
    let now = LIVE_BYTES.add(delta);
    let _ = PEAK_BYTES_HERE.try_with(|peak| peak.set(peak.get().max(now)));
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the only added state is the calling thread's counters, which
// allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.add(1);
        LIVE.add(1);
        grow(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.add(-1);
        LIVE_BYTES.add(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.add(1);
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
