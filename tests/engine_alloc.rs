//! What a processor costs the engine, pinned as heap allocations — calls
//! and bytes, counts that cannot flake the way a resident-set size does.
//!
//! Allocated per processor by one collective call, `Sim::new` to the
//! returned run, at P = 2^14 on `LogP(L=60, o=4, g=8)`:
//!
//! | call, engine                         | parent: calls, bytes | now: calls, bytes | bound: calls, bytes |
//! |--------------------------------------|----------------------|-------------------|---------------------|
//! | optimal broadcast, classic           | 2.35, 1,086          | 1.35, 712         | 1.6, 800            |
//! | optimal broadcast, 8 lanes           | 2.62, 1,096          | 1.62, 721         | 1.9, 810            |
//! | reduce-broadcast all-reduce, classic | 4.10, 1,400          | 3.16, 896         | 3.4, 1,020          |
//! | reduce-broadcast all-reduce, 8 lanes | 5.20, 1,443          | 4.26, 939         | 4.5, 1,060          |
//!
//! Allocations of exactly 256 bytes: 16,383 / 16,391 (broadcast /
//! all-reduce; one a receiving processor) → 0 / 7; bound P / 100.
//!
//! (The all-reduce call builds its two child-list trees itself, inside
//! the count.) What went: the 256-byte `BinaryHeap` buffer every receiving
//! processor allocated for its first message — an inbox is now a chain
//! through the message slab — the 192-byte first command buffer where one
//! send is all a rank ever queues, and the second copy of the
//! per-processor statistics made while every queue was still alive.

use logp::algos::allreduce::run_allreduce_reduce_bcast;
use logp::algos::broadcast::run_tree_broadcast;
use logp::core::broadcast::optimal_broadcast_tree;
use logp::core::LogP;
use logp::sim::SimConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Calls, bytes, and calls of exactly 256 bytes.
#[derive(Clone, Copy, Debug)]
struct Allocs {
    calls: u64,
    bytes: u64,
    of_256: u64,
}

thread_local! {
    /// Allocated by this thread (tests run on parallel threads). A
    /// `realloc` is one call of its new size.
    static ALLOCS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0, of_256: 0 }) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| {
        let a = c.get();
        c.set(Allocs {
            calls: a.calls + 1,
            bytes: a.bytes + bytes as u64,
            of_256: a.of_256 + u64::from(bytes == 256),
        });
    });
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` with no destructor, touched without allocating.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` allocates on this thread.
fn allocs(f: impl FnOnce()) -> Allocs {
    let before = ALLOCS.with(Cell::get);
    f();
    let after = ALLOCS.with(Cell::get);
    Allocs {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        of_256: after.of_256 - before.of_256,
    }
}

fn machine(p: u32) -> LogP {
    LogP::new(60, 4, 8, p).expect("valid model")
}

/// The classic engine and the eight lanes `coll_512k` runs on.
fn engines() -> [(&'static str, SimConfig); 2] {
    [
        ("classic", SimConfig::default()),
        ("8 lanes", SimConfig::default().with_shards(8)),
    ]
}

fn broadcast(m: &LogP, config: SimConfig) -> Allocs {
    let children = optimal_broadcast_tree(m).children();
    allocs(|| {
        let run = run_tree_broadcast(m, &children, config);
        assert_eq!(run.messages, u64::from(m.p) - 1);
    })
}

fn allreduce(m: &LogP, config: SimConfig) -> Allocs {
    let values = vec![1.0; m.p as usize];
    allocs(|| {
        let run = run_allreduce_reduce_bcast(m, &values, config);
        assert_eq!(run.value, f64::from(m.p));
    })
}

/// One of the two collective calls, counted.
type Call = fn(&LogP, SimConfig) -> Allocs;

#[test]
fn a_processor_costs_a_bounded_number_of_bytes_and_calls() {
    let m = machine(1 << 14);
    let p = f64::from(m.p);
    let [classic, lanes] = engines();
    // The header table's rows, with its bound column.
    let rows = [
        ("broadcast", broadcast as Call, &classic, 1.6, 800.0),
        ("broadcast", broadcast, &lanes, 1.9, 810.0),
        ("all-reduce", allreduce, &classic, 3.4, 1_020.0),
        ("all-reduce", allreduce, &lanes, 4.5, 1_060.0),
    ];
    for (call, run, (engine, config), max_calls, max_bytes) in rows {
        let a = run(&m, config.clone());
        let (calls, bytes) = (a.calls as f64 / p, a.bytes as f64 / p);
        println!(
            "{call}, {engine}: {calls:.2} calls, {bytes:.0} bytes a processor, {} of 256 bytes",
            a.of_256
        );
        assert!(calls <= max_calls, "{call}, {engine}: {calls} calls");
        assert!(bytes <= max_bytes, "{call}, {engine}: {bytes} bytes");
        // No inbox buffer: nothing of 256 bytes once per processor.
        assert!(
            a.of_256 * 100 <= u64::from(m.p),
            "{call}, {engine}: {} allocations of 256 bytes",
            a.of_256
        );
    }
}

#[test]
fn the_2p_th_processor_costs_what_the_p_th_did() {
    let (small, big) = (machine(1 << 13), machine(1 << 14));
    for (engine, config) in engines() {
        for (call, run) in [("broadcast", broadcast as Call), ("all-reduce", allreduce)] {
            let (a, b) = (run(&small, config.clone()), run(&big, config.clone()));
            assert!(
                b.calls as f64 <= 2.1 * a.calls as f64 && b.bytes as f64 <= 2.1 * a.bytes as f64,
                "{call}, {engine}: {b:?} at 2P, {a:?} at P"
            );
        }
    }
}
