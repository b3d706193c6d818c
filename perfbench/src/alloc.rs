//! A counting global allocator for the `*.allocs_per_*` layer metrics.
//!
//! Counting is off by default and switched on only around the traced runs,
//! so the end-to-end runs pay one relaxed load per allocation and nothing
//! else. The benchmark is single-threaded, so a span reads the counter
//! before and after the calls it wraps and the difference is exactly the
//! allocations those calls made.

// The allocator forwards to `System`; implementing `GlobalAlloc` is the only
// way to observe allocations from safe code's point of view, and the crate
// forbids every other use of `unsafe`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Allocations (including reallocations) made while counting was on.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Whether allocations are being counted.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The `System` allocator with an allocation counter in front.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note(&self) {
        // Relaxed: the counter publishes no other data and the benchmark
        // reads it from the thread that allocates.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory that the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far.
#[inline]
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Turns counting on or off, returning the previous setting.
pub fn set_counting(on: bool) -> bool {
    COUNTING.swap(on, Ordering::Relaxed)
}
