//! Counting global allocator: allocator calls (process-wide and per
//! thread) and live / high-water heap bytes.
//!
//! Every call forwards to [`System`] with the same entry point the program
//! would use without the benchmark (`alloc_zeroed` stays lazily zeroed,
//! `realloc` may still grow in place), so the measured program pays only
//! the relaxed atomic updates on top of its own allocator traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The allocator installed by this crate.
#[derive(Debug)]
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and destructor-free, so reading it inside the
    // allocator never allocates or recurses.
    static THREAD_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    THREAD_CALLS.with(|c| c.set(c.get() + 1));
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged; the bookkeeping touches only atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note_alloc(l.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `l`.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note_alloc(l.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        LIVE.fetch_sub(l.size() as i64, Ordering::Relaxed);
        // SAFETY: `p` was allocated by this allocator with layout `l`, as
        // `GlobalAlloc::realloc` requires of the caller.
        unsafe { System.realloc(p, l, new_size) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE.fetch_sub(l.size() as i64, Ordering::Relaxed);
        // SAFETY: `p` was allocated by this allocator with layout `l`.
        unsafe { System.dealloc(p, l) }
    }
}

/// Allocator calls made by every thread so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Allocator calls made by the current thread so far.
pub fn thread_calls() -> u64 {
    THREAD_CALLS.with(Cell::get)
}

/// Bytes currently allocated.
pub fn live_bytes() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Highest live size since the last [`reset_peak`].
pub fn peak_bytes() -> i64 {
    PEAK.load(Ordering::Relaxed)
}
