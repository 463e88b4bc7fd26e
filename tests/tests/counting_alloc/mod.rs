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

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the only added state is two relaxed counters that publish
// nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
