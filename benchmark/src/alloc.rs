//! The counting global allocator behind `allocs_per_task` and
//! `peak_heap_mb`.
//!
//! Disarmed (every pass but the counted one) an allocation costs one
//! relaxed flag load on top of the system allocator. Armed, it counts
//! allocations and tracks the live-byte delta since arming and its peak,
//! so "peak live heap minus live heap at first issue" is read directly.
//! The counters are statistics, never synchronisation: relaxed ordering
//! throughout (the mining worker of `serve_fleet` allocates concurrently,
//! which is why that workload's counts are not exactly repeatable).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator with counters in front.
pub struct Counting;

#[inline]
fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator
// state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What the counters saw between [`arm`] and [`disarm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counted {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Highest live-byte count above the level at arming.
    pub peak_bytes: u64,
}

/// Zeroes the counters and starts counting.
pub fn arm() {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// Stops counting and returns what was seen since [`arm`].
pub fn disarm() -> Counted {
    ARMED.store(false, Relaxed);
    Counted { allocs: ALLOCS.load(Relaxed), peak_bytes: PEAK.load(Relaxed).max(0) as u64 }
}
