//! What a processor costs the engine, and the reliable-delivery layer over
//! it, pinned as heap allocations — calls and bytes, counts that cannot
//! flake the way a resident-set size does.
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
//!
//! The same collectives made reliable (`Reliable<TreeProc>` on every
//! rank) over the `hier_faulted` workload's network — 2 % dropped, 1 %
//! duplicated, 2 % delayed — with its retry policy; "parent" is the
//! endpoint that kept two B-trees a processor:
//!
//! | call, engine                  | parent: calls, bytes | now: calls, bytes | bound: calls, bytes |
//! |-------------------------------|----------------------|-------------------|---------------------|
//! | reliable broadcast, classic   | 7.04, 2,294          | 5.82, 1,882       | 6.2, 2,000          |
//! | reliable broadcast, 8 lanes   | 8.21, 2,331          | 6.99, 1,920       | 7.4, 2,040          |
//! | reliable all-reduce, classic  | 12.42, 3,683         | 9.99, 2,710       | 10.6, 2,880         |
//! | reliable all-reduce, 8 lanes  | 13.65, 3,473         | 11.21, 2,500      | 11.9, 2,660         |
//!
//! Allocations of exactly 104 bytes (a `BTreeSet<u64>` leaf, one per peer
//! heard from): 16,391 / 32,774 (broadcast / all-reduce) → 4; of exactly
//! 320 bytes (the leaf of the per-source map): 16,383 / 16,392 → 0; bound
//! P / 100 each. What went: those two, and the 632-byte leaf of the
//! unacked-sends map that every rank kept after its only send was acked.
//! An endpoint now holds a ring of 48-byte slots (one, for a rank that
//! sends once) and one flat table of `(src, seq)` (84 bytes up to three
//! peers). On the lanes the reliable broadcast doubles by 2.09 from 2^13
//! to 2^14, where the message slab takes one more doubling step (64 bytes
//! a processor, as it did at the parent).

use logp::algos::allreduce::{run_allreduce_reduce_bcast, run_reliable_allreduce};
use logp::algos::broadcast::{run_reliable_broadcast, run_tree_broadcast};
use logp::core::broadcast::optimal_broadcast_tree;
use logp::core::LogP;
use logp::sim::{FaultPlan, RetryConfig, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Block sizes that only a per-processor container allocates: a
/// `BTreeSet<u64>` leaf, the inbox `BinaryHeap`'s first buffer, a
/// `BTreeMap<ProcId, BTreeSet<u64>>` leaf.
const MARKED: [usize; 3] = [104, 256, 320];

/// Calls, bytes, and calls of exactly each [`MARKED`] size.
#[derive(Clone, Copy, Debug)]
struct Allocs {
    calls: u64,
    bytes: u64,
    of: [u64; 3],
}

thread_local! {
    /// Allocated by this thread (tests run on parallel threads). A
    /// `realloc` is one call of its new size.
    static ALLOCS: Cell<Allocs> = const { Cell::new(Allocs { calls: 0, bytes: 0, of: [0; 3] }) };
}

fn count(bytes: usize) {
    ALLOCS.with(|c| {
        let a = c.get();
        c.set(Allocs {
            calls: a.calls + 1,
            bytes: a.bytes + bytes as u64,
            of: std::array::from_fn(|i| a.of[i] + u64::from(bytes == MARKED[i])),
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
        of: std::array::from_fn(|i| after.of[i] - before.of[i]),
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

/// The `hier_faulted` workload's network — 2 % dropped, 1 % duplicated,
/// 2 % delayed by up to 2L — and its retry policy.
fn lossy(m: &LogP) -> (FaultPlan, RetryConfig) {
    let plan = FaultPlan::new(1)
        .with_drop_ppm(20_000)
        .with_dup_ppm(10_000)
        .with_delay(20_000, 2 * m.l);
    (plan, RetryConfig::for_tree(m, 64).with_max_retries(16))
}

fn reliable_broadcast(m: &LogP, config: SimConfig) -> Allocs {
    let (plan, retry) = lossy(m);
    allocs(|| {
        let run = run_reliable_broadcast(m, &plan, retry, config).expect("nobody crashes");
        assert_eq!(run.arrivals.len(), m.p as usize);
        assert!(run.retries > 0);
    })
}

fn reliable_allreduce(m: &LogP, config: SimConfig) -> Allocs {
    let (plan, retry) = lossy(m);
    let values = vec![1.0; m.p as usize];
    allocs(|| {
        let run = run_reliable_allreduce(m, &values, &plan, retry, config).expect("nobody crashes");
        assert_eq!(run.value, f64::from(m.p));
    })
}

/// One of the four collective calls, counted.
type Call = fn(&LogP, SimConfig) -> Allocs;

const CALLS: [(&str, Call); 4] = [
    ("broadcast", broadcast),
    ("all-reduce", allreduce),
    ("reliable broadcast", reliable_broadcast),
    ("reliable all-reduce", reliable_allreduce),
];

#[test]
fn a_processor_costs_a_bounded_number_of_bytes_and_calls() {
    let m = machine(1 << 14);
    let p = f64::from(m.p);
    let [classic, lanes] = engines();
    // The header table's rows, with its bound column.
    let [bcast, allred, rel_bcast, rel_allred] = CALLS;
    let rows = [
        (bcast, &classic, 1.6, 800.0),
        (bcast, &lanes, 1.9, 810.0),
        (allred, &classic, 3.4, 1_020.0),
        (allred, &lanes, 4.5, 1_060.0),
        (rel_bcast, &classic, 6.2, 2_000.0),
        (rel_bcast, &lanes, 7.4, 2_040.0),
        (rel_allred, &classic, 10.6, 2_880.0),
        (rel_allred, &lanes, 11.9, 2_660.0),
    ];
    for ((call, run), (engine, config), max_calls, max_bytes) in rows {
        let a = run(&m, config.clone());
        let (calls, bytes) = (a.calls as f64 / p, a.bytes as f64 / p);
        println!(
            "{call}, {engine}: {calls:.2} calls, {bytes:.0} bytes a processor, {:?} of {MARKED:?} bytes",
            a.of
        );
        assert!(calls <= max_calls, "{call}, {engine}: {calls} calls");
        assert!(bytes <= max_bytes, "{call}, {engine}: {bytes} bytes");
        // No inbox buffer and no tree node: nothing of a marked size once
        // per processor.
        for (of, size) in a.of.into_iter().zip(MARKED) {
            assert!(
                of * 100 <= u64::from(m.p),
                "{call}, {engine}: {of} allocations of {size} bytes"
            );
        }
    }
}

#[test]
fn the_2p_th_processor_costs_what_the_p_th_did() {
    let (small, big) = (machine(1 << 13), machine(1 << 14));
    for (engine, config) in engines() {
        for (call, run) in CALLS {
            let (a, b) = (run(&small, config.clone()), run(&big, config.clone()));
            println!(
                "{call}, {engine}: calls x {:.3}, bytes x {:.3}",
                b.calls as f64 / a.calls as f64,
                b.bytes as f64 / a.bytes as f64
            );
            assert!(
                b.calls as f64 <= 2.1 * a.calls as f64 && b.bytes as f64 <= 2.1 * a.bytes as f64,
                "{call}, {engine}: {b:?} at 2P, {a:?} at P"
            );
        }
    }
}
