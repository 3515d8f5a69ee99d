//! Thread-local counting allocator behind `core.client_allocs_per_op`.
//!
//! Every heap allocation made by a thread bumps that thread's counter,
//! so the client loop can report how many allocations one operation
//! costs on the client side without the target reactor's or the sync
//! worker's allocations leaking into the number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates and never observes a torn
    // down slot.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `System` plus a per-thread allocation count.
pub struct CountingAlloc;

#[inline]
fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from
        // `System`, and `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}
