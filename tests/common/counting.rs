//! The counting allocator of the allocation-budget tests: heap calls and
//! bytes by thread, counts that cannot flake the way a resident-set size
//! or a timing does. A test crate includes this file with
//! `#[path = "common/counting.rs"] mod counting;` and installs it itself:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: counting::Counting = counting::Counting;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Calls, bytes, and calls of exactly each size handed to [`mark`];
/// `live`, the bytes allocated less the bytes freed — what is still held;
/// and `peak`, the most `live` reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
    pub of: [u64; 3],
    pub live: i64,
    pub peak: i64,
}

thread_local! {
    /// Allocated by this thread (tests run on parallel threads). A
    /// `realloc` is one call of its new size, and holds the difference.
    static ALLOCS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0, of: [0; 3], live: 0, peak: 0 }) };
    /// The block sizes this thread counts in [`Allocs::of`]; nothing is
    /// ever allocated with size 0.
    static MARKED: Cell<[usize; 3]> = const { Cell::new([0; 3]) };
}

/// Count, from now on, this thread's allocations of exactly these sizes.
#[allow(dead_code)]
pub fn mark(sizes: [usize; 3]) {
    MARKED.with(|m| m.set(sizes));
}

/// One call of `bytes`, which changes what is held by `held`.
fn count(bytes: usize, held: i64) {
    let marked = MARKED.with(Cell::get);
    ALLOCS.with(|c| {
        let a = c.get();
        c.set(Allocs {
            calls: a.calls + 1,
            bytes: a.bytes + bytes as u64,
            of: std::array::from_fn(|i| a.of[i] + u64::from(bytes == marked[i])),
            live: a.live + held,
            peak: a.peak.max(a.live + held),
        });
    });
}

/// A block of `bytes` freed.
fn free(bytes: usize) {
    ALLOCS.with(|c| {
        let a = c.get();
        c.set(Allocs {
            live: a.live - bytes as i64,
            ..a
        });
    });
}

pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// thread-local `Cell`s with no destructor, touched without allocating.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64);
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `f`'s result, and what `f` allocated on this thread; `peak` is the most
/// it held at once.
pub fn allocs<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    // The high-water mark restarts at what is held now, and the caller's
    // (an enclosing `allocs`) is put back after.
    let before = ALLOCS.with(|c| {
        c.replace(Allocs {
            peak: c.get().live,
            ..c.get()
        })
    });
    let out = f();
    let after = ALLOCS.with(|c| {
        let a = c.get();
        c.replace(Allocs {
            peak: a.peak.max(before.peak),
            ..a
        })
    });
    let spent = Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        of: std::array::from_fn(|i| after.of[i] - before.of[i]),
        live: after.live - before.live,
        peak: after.peak - before.live,
    };
    (out, spent)
}
