//! Allocation counts: a [`GlobalAlloc`] over [`System`] counting, per
//! thread, the allocations and reallocations asked of it and their bytes.
//! A count repeats exactly on every run of one binary, so it is gated like
//! a message counter (DESIGN §8). Only a binary that installs [`Counting`]
//! as its `#[global_allocator]` counts; elsewhere [`measure`] reads zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls and bytes so far; const-initialised, so it never allocates.
    static COUNT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The counting allocator.
pub struct Counting;

fn count(bytes: usize) {
    // A thread being torn down may allocate after its locals are gone.
    let _ = COUNT.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f`, returning what it did with the allocation calls and bytes
/// this thread made meanwhile.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = COUNT.with(Cell::get);
    let done = f();
    let (calls_after, bytes_after) = COUNT.with(Cell::get);
    (done, calls_after - calls, bytes_after - bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[global_allocator]
    static COUNTING: Counting = Counting;

    #[test]
    fn a_sized_vec_is_one_call_of_its_size() {
        for n in [1usize, 64, 4_096] {
            let (_, calls, bytes) = measure(|| Vec::<u8>::with_capacity(n));
            assert_eq!((calls, bytes), (1, n as u64));
        }
    }

    #[test]
    fn another_thread_does_not_count_in_this_window() {
        // Spawning allocates a little here; the MiB is the other thread's.
        let (capacity, _, bytes) = measure(|| {
            std::thread::spawn(|| Vec::<u8>::with_capacity(1 << 20).capacity())
                .join()
                .expect("thread ran")
        });
        assert_eq!(capacity, 1 << 20);
        assert!(bytes < 1 << 20, "the other thread's MiB counted here");
    }
}
