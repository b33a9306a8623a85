//! A counting global allocator: allocation counts and bytes per thread,
//! and the process's live and peak live bytes.
//!
//! Counts are deterministic for a deterministic program, which makes them
//! the tight cost counter next to noisy wall time. A `realloc` counts as
//! one allocation of its new size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The counting allocator; install with `#[global_allocator]`.
pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisers without `Drop` never allocate or register a
    // destructor, so the allocator may touch them.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn grown(size: usize) {
    let size = size as u64;
    let live = LIVE.fetch_add(size, Relaxed) + size;
    PEAK.fetch_max(live, Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + size));
}

fn shrunk(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only updates counters besides, so `System`'s guarantees
// carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded with the caller's layout.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grown(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which got it from
        // `System`, with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrunk(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; the caller guarantees `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrunk(layout.size());
            grown(new_size);
        }
        p
    }
}

/// Allocation totals at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Allocations made.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl Counts {
    /// The allocations made between `earlier` and `self`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts { allocs: self.allocs - earlier.allocs, bytes: self.bytes - earlier.bytes }
    }
}

/// Totals of the calling thread.
pub fn thread() -> Counts {
    Counts { allocs: THREAD_ALLOCS.with(Cell::get), bytes: THREAD_BYTES.with(Cell::get) }
}

/// Restarts peak tracking at the current live size and returns that size.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

/// The highest live size since the last [`reset_peak`].
pub fn peak() -> u64 {
    PEAK.load(Relaxed)
}
