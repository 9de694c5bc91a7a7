//! Counting global allocator: every end-to-end and per-layer allocation
//! figure in the benchmark comes from this one counter.
//!
//! The counter wraps [`System`] and adds two relaxed atomic increments per
//! allocation. It counts calls and requested bytes (a `realloc` counts as
//! one call and its new size), never frees: the metrics are allocator
//! *pressure*, which is what an optimisation of a hot path moves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator installed by `main.rs`.
pub struct Counting;

// Statistics only: they publish no other data, so `Relaxed` is enough.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the counter; subtract two to scope a region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl Snapshot {
    /// The counter right now.
    pub fn now() -> Self {
        Snapshot { calls: CALLS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }

    /// Allocations since `earlier`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot { calls: self.calls - earlier.calls, bytes: self.bytes - earlier.bytes }
    }

    /// Component-wise sum.
    pub fn plus(self, other: Snapshot) -> Snapshot {
        Snapshot { calls: self.calls + other.calls, bytes: self.bytes + other.bytes }
    }
}
