//! Peak-allocation tracking — the measurement behind Table III.
//!
//! A counting wrapper around the system allocator: binaries opt in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: dkc_bench::mem::TrackingAllocator = dkc_bench::mem::TrackingAllocator;
//! ```
//!
//! after which [`reset_peak`] / [`peak_bytes`] bracket a measured region.
//! This reproduces the paper's space-consumption comparison without
//! depending on OS-specific RSS probes.

#![allow(unsafe_code)] // implementing GlobalAlloc requires it; isolated here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// Counting global allocator (see module docs).
pub struct TrackingAllocator;

// SAFETY: delegates every allocation verbatim to `System`, only adjusting
// atomic counters around the calls.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed)
                    + (new_size - layout.size());
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Live heap bytes right now (as seen by the tracking allocator).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Highest live-byte watermark since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the watermark to the current live size and returns that baseline.
/// The extra memory of a region is `peak_bytes() - baseline`.
pub fn reset_peak() -> usize {
    let cur = CURRENT.load(Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

/// Convenience: runs `f` and reports `(result, extra peak bytes)` relative
/// to the live heap at entry. Only meaningful in binaries that installed
/// [`TrackingAllocator`]; otherwise the byte count is 0.
pub fn with_peak_tracking<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = reset_peak();
    let out = f();
    let peak = peak_bytes();
    (out, peak.saturating_sub(baseline))
}

/// Convenience: runs `f` and reports `(result, live bytes f left
/// allocated)` — the heap its result holds, provided no other thread
/// allocates meanwhile. Only meaningful in binaries that installed
/// [`TrackingAllocator`]; otherwise the byte count is 0.
pub fn with_live_tracking<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = current_bytes();
    let out = f();
    (out, current_bytes().saturating_sub(before))
}

/// Total successful allocation calls since process start (frees are not
/// subtracted — this counts *events*, not live objects).
pub fn alloc_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

/// Convenience: runs `f` and reports `(result, allocation calls inside f)`.
/// Deterministic for single-threaded regions under a fixed toolchain —
/// the bench suite gates it exactly. Only meaningful in binaries that
/// installed [`TrackingAllocator`]; otherwise the count is 0.
pub fn with_alloc_tracking<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = alloc_count();
    let out = f();
    (out, alloc_count() - before)
}
