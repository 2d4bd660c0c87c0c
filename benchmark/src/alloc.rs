//! A counting wrapper around the system allocator: live bytes, and their
//! peak, in allocations of 64 KiB and more.
//!
//! The process's resident set cannot be gated: `VmHWM` of identical
//! `rebuild-sparse` runs reads 64 MB or 89 MB, as thread arenas, the mmap
//! threshold and huge pages fall. Bytes the program asked for repeat.
//! Only large allocations are counted — score columns, signals, matrices and
//! adjacency arrays are where the megabytes are — so the walk's thousands of
//! small allocations per query pay one compare and no atomic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations below this size are not counted.
const COUNTED_FROM: usize = 64 * 1024;

// Relaxed: the counters are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    if size >= COUNTED_FROM {
        let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(size: usize) {
    if size >= COUNTED_FROM {
        LIVE.fetch_sub(size, Ordering::Relaxed);
    }
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // Forwarded, not defaulted: `System` gets zeroed pages from the kernel
    // without touching them, and the product's timing depends on that.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from this allocator, so from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller vouches
        // for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}

/// Live bytes in counted allocations, in MB.
#[cfg(test)]
pub fn live_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / 1e6
}

/// The most that were live at once since the last `reset_peak`, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / 1e6
}

/// Starts a new peak at what is live now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate and reset the peak concurrently, so only lower
    // bounds hold here.
    #[test]
    fn large_allocations_are_live_and_peak() {
        let block: Vec<u8> = Vec::with_capacity(8_000_000);
        assert!(live_mb() >= 8.0);
        reset_peak();
        assert!(peak_mb() >= 8.0);
        drop(block);
    }
}
