//! Host-noise control: peak-RSS accounting and the counting allocator.
//!
//! On the VM this benchmark is gated on, the first touch of a page the guest
//! has never used costs ~12 µs at the hypervisor, against ~2 µs for a page
//! the guest has touched before — even after the process that touched it
//! freed it. A 2.7 GB workload therefore reads several times slower the
//! first time round. The run protocol (`workloads::run`) pays that cost in
//! a discarded cold set-up pass; this module does the accounting around it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation so traced runs can report allocations per
/// event and per node — one relaxed add per allocation.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method defers to `System` with the caller's arguments
// unchanged; the only added state is a relaxed atomic counter that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Current resident set, kB (`VmRSS`).
pub fn vm_rss_kb() -> Option<u64> {
    status_kb("VmRSS:")
}

/// Peak resident set since the last reset, kB (`VmHWM`).
pub fn vm_hwm_kb() -> Option<u64> {
    status_kb("VmHWM:")
}

/// Peak-RSS accounting for one run: `VmHWM` reset after the cold pass, with
/// the maximum of sampled `VmRSS` as the fallback where the reset is not
/// permitted.
pub struct PeakRss {
    reset_ok: bool,
    sampled_kb: u64,
    pinned: Option<(f64, &'static str)>,
}

impl PeakRss {
    /// Reset the kernel's high-water mark (`echo 5 > /proc/self/clear_refs`)
    /// and start sampling.
    pub fn start() -> Self {
        let before = vm_hwm_kb();
        let wrote = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        let after = vm_hwm_kb();
        // The write can succeed without effect on kernels that lack the
        // feature; trust it only if the mark actually came down to the RSS.
        let reset_ok = wrote
            && match (before, after, vm_rss_kb()) {
                (Some(b), Some(a), Some(rss)) => a <= b && a <= rss + rss / 8 + 1024,
                _ => false,
            };
        let mut p = PeakRss {
            reset_ok,
            sampled_kb: 0,
            pinned: None,
        };
        p.sample();
        p
    }

    /// Take one `VmRSS` sample (call at window edges and phase boundaries).
    pub fn sample(&mut self) {
        if let Some(kb) = vm_rss_kb() {
            self.sampled_kb = self.sampled_kb.max(kb);
        }
    }

    /// Fix the reported peak at this instant. Workloads call it when their
    /// pinned minimum of windows is done: windows run past that fill the
    /// time budget, and a run on a faster host must not report more memory
    /// just because it fitted more of them in.
    pub fn pin(&mut self) {
        self.pinned = Some(self.peak_now());
    }

    fn peak_now(&mut self) -> (f64, &'static str) {
        self.sample();
        match (self.reset_ok, vm_hwm_kb()) {
            (true, Some(kb)) => (kb as f64 / 1024.0, "VmHWM"),
            _ => (self.sampled_kb as f64 / 1024.0, "max sampled VmRSS"),
        }
    }

    /// Peak resident set in MB — at the [`pin`](Self::pin) if there was
    /// one, else now — and where the number came from.
    pub fn peak_mb(&mut self) -> (f64, &'static str) {
        match self.pinned {
            Some(p) => p,
            None => self.peak_now(),
        }
    }
}

/// One line describing the host, for the report header.
pub fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    format!("{cpu}, {threads} thread(s)")
}
