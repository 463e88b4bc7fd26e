//! A process-wide counting allocator for the allocation tests: each test
//! binary that declares `mod counting_alloc;` installs it as its global
//! allocator and reads the counters below — whichever it needs.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct CountingAlloc;

/// Allocations made so far, reallocations included.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Heap blocks allocated and not yet freed (a reallocation keeps its one).
pub static LIVE: AtomicI64 = AtomicI64::new(0);
/// Bytes requested by the blocks in [`LIVE`] (a reallocation moves it by
/// its size delta).
pub static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// The most [`LIVE_BYTES`] has read since the last [`reset_peak`].
pub static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Start a new peak window at the live bytes as they stand, and return them.
pub fn reset_peak() -> i64 {
    let now = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(now, Ordering::Relaxed);
    now
}

/// `delta` more bytes live.
fn grow(delta: i64) {
    let now = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the only added state is relaxed counters that publish
// nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        grow(layout.size() as i64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
