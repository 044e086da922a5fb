//! A counting global allocator: live bytes, their high-water mark, and
//! the number of allocations, for the whole process (benchmark clients
//! and the in-process server alike). Memory the program maps itself
//! (the mmap read path) never passes through here, so it is excluded.
//!
//! With the `counting-alloc` feature off the wrapper is not installed
//! and every reading is zero; that build exists to measure the
//! wrapper's own cost.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

#[cfg(feature = "counting-alloc")]
#[global_allocator]
static GLOBAL: Counting = Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are the ones callers get; the
// counters are plain relaxed statistics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is exactly `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // which is exactly `System.realloc`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            COUNT.fetch_add(1, Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

/// Bytes currently allocated.
fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Start a new high-water window at the current live heap.
fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// High-water mark since the last [`reset_peak`].
fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Allocations (including reallocations) made so far.
pub fn count() -> u64 {
    COUNT.load(Relaxed)
}

/// The heap a timed section added on top of what was live when it
/// started: open with [`Window::open`], read with [`Window::peak_mb`].
pub struct Window {
    base: usize,
}

impl Window {
    pub fn open() -> Window {
        reset_peak();
        Window { base: live() }
    }

    /// Highest heap growth over the window's start, in MB (10^6 bytes).
    pub fn peak_mb(&self) -> f64 {
        peak().saturating_sub(self.base) as f64 / 1e6
    }
}
