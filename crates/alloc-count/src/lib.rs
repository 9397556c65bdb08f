//! A counting global allocator for allocation-budget tests.
//!
//! Install it in a test binary (the `#[global_allocator]` attribute is
//! safe code; the `unsafe` lives here):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: esg_alloc_count::CountingAlloc = esg_alloc_count::CountingAlloc;
//! ```
//!
//! then call [`start`] on the thread to measure and read [`count`].
//! Only allocation calls (`alloc`, `alloc_zeroed` and `realloc`) made by
//! a thread that called [`start`] are counted, so the test harness's
//! other threads cannot perturb the figure. Frees are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and drop-free: reading them never allocates and
    // registers no destructor, so the allocator may touch them.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls on threads that
/// called [`start`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingAlloc;

fn note() {
    // `try_with`: the allocator can run during thread teardown.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

#[allow(unsafe_code)]
// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// this thread's drop-free cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts counting the calling thread's allocations, from zero.
pub fn start() {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
}

/// Stops counting on the calling thread; [`count`] keeps its value.
pub fn stop() {
    COUNTING.with(|on| on.set(false));
}

/// Allocation calls the calling thread made since its last [`start`]
/// (only while counting, and only with [`CountingAlloc`] installed).
pub fn count() -> u64 {
    COUNT.with(Cell::get)
}
