//! Counting global allocator: live bytes, their peak, and the number and
//! total size of allocations, all relative to the last [`start`].
//!
//! The counters sit behind a static flag that is **off** during timed
//! rounds (one relaxed load per call is all a timed repair pays) and on
//! only for the counted pass. At `threads = 1` the program allocates in a
//! fixed order, so every number repeats exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator `lib.rs` installs as `#[global_allocator]`.
pub struct CountingAlloc;

// Statistics only: none of these publishes other data, so `Relaxed` is
// enough (the counted pass reads them after joining every worker).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Signed: memory allocated before `start` may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// What the allocator saw since the last [`start`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounts {
    /// Bytes allocated and not yet freed (negative when memory that
    /// predates `start` was freed).
    pub live_bytes: i64,
    /// The highest value `live_bytes` reached.
    pub peak_bytes: i64,
    /// Allocation calls (`realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
}

/// Zeroes the counters and turns counting on.
pub fn start() {
    ENABLED.store(false, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ALLOCS.store(0, Relaxed);
    ALLOC_BYTES.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
}

/// Turns counting off and returns the totals.
pub fn stop() -> AllocCounts {
    ENABLED.store(false, Relaxed);
    snapshot()
}

/// The counters as they stand (spans read this at open and close).
pub fn snapshot() -> AllocCounts {
    AllocCounts {
        live_bytes: LIVE.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed),
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Relaxed),
    }
}
