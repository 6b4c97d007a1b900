//! A counting global allocator.
//!
//! Counting is off until [`set_counting`] turns it on, so untimed-overhead
//! runs pay one relaxed load per allocation. While on, every allocation bumps
//! a process-wide total and a per-thread counter. The per-thread counter is
//! what layer attribution reads: a timing wrapper samples it before and after
//! a call on the thread that makes the call, so allocations made on pooled
//! workers land on the layer that made them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static TOTAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count() {
    // Relaxed throughout: the counters publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        TOTAL.fetch_add(1, Ordering::Relaxed);
        // `try_with` because allocations can happen while a thread's locals
        // are being torn down.
        let _ = THREAD.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and a `const`-initialised
// thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted on any thread so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Allocations counted on the calling thread so far.
pub fn thread() -> u64 {
    THREAD.with(Cell::get)
}
