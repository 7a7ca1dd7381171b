//! A counting global allocator for the traced replay.
//!
//! Counting is off unless [`set_counting`] turns it on, so the served
//! (untraced) phase pays one relaxed load per allocation and nothing
//! else. While on, every allocation bumps a per-thread count (read
//! around single evaluator calls, which run on one worker thread) and
//! one of [`SLOTS`] cache-line-padded process-wide counters (summed
//! around whole requests, whose work spans the engine's short-lived
//! worker threads). Threads take slots round robin, so concurrent
//! threads almost never share a counter's cache line; a single shared
//! counter would make the two search workers contend on every
//! allocation and inflate the traced times it is meant to explain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);

const SLOTS: usize = 64;

#[repr(align(128))]
struct Slot(AtomicU64);

static TOTALS: [Slot; SLOTS] = [const { Slot(AtomicU64::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator never allocates or registers anything.
    static THREAD: Cell<u64> = const { Cell::new(0) };
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count() {
    // ordering: Relaxed throughout — a statistics switch and counters;
    // none of them publishes other data.
    if COUNTING.load(Ordering::Relaxed) {
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
        let slot = SLOT
            .try_with(|s| {
                if s.get() == usize::MAX {
                    // ordering: Relaxed — slot numbers only spread threads out.
                    s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
                }
                s.get()
            })
            .unwrap_or(0);
        // ordering: Relaxed — a counter, read after its threads are joined.
        TOTALS[slot].0.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are passed through unchanged; the
// counting touches only atomics and a const thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    // ordering: Relaxed — see `count`; the replay thread flips it while
    // no search is running.
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations (and reallocations) counted on the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD.try_with(Cell::get).unwrap_or(0)
}

/// Allocations counted on every thread.
pub fn total_allocs() -> u64 {
    // ordering: Relaxed — statistics read after the threads that
    // bumped them were joined.
    TOTALS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}
