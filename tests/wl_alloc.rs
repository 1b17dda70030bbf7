//! The `.wl` front end's cost, pinned as heap allocations per node — a
//! count, so it cannot flake the way a timing does.
//!
//! Allocations per node on the 20,000-node program below:
//!
//! | call                 | parent of PR 13 | now    | bound |
//! |----------------------|-----------------|--------|-------|
//! | `load_workload`      | 11.466          | 2.319  | 3.0   |
//! | `Workload::validate` | 2.684           | 0.0027 | 0.05  |
//!
//! `validate` is `run_workload`'s check-and-lower with the plan dropped
//! (a few dozen flat arrays, whatever the size of the program). What is
//! left in `load_workload` is the output itself: a label `String` per
//! node, and a dependency `Vec` and a span `Vec` per node that has an
//! `after:` list (two thirds of the nodes here).

use logp::core::rng::CounterRng;
use logp::wl::load_workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// thread-local `Cell` with no destructor, touched without allocating.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const PROCS: u32 = 64;

/// Emits `n<i>: <body>[ after: ...]` lines, remembering each processor's
/// eight newest nodes as `after:` candidates.
struct Gen {
    rng: CounterRng,
    out: String,
    recent: Vec<Vec<u32>>,
    emitted: u32,
}

impl Gen {
    fn node(&mut self, proc: u32, body: std::fmt::Arguments<'_>) {
        let _ = write!(self.out, "n{}: {body}", self.emitted);
        let seen = &mut self.recent[proc as usize];
        let want = (self.rng.next_in(2) as usize).min(seen.len());
        for k in 0..want {
            // Distinct by construction: the k-th newest.
            let d = seen[seen.len() - 1 - k];
            let _ = write!(self.out, "{}n{d}", if k == 0 { " after: " } else { ", " });
        }
        self.out.push('\n');
        if seen.len() == 8 {
            seen.remove(0);
        }
        seen.push(self.emitted);
        self.emitted += 1;
    }
}

/// A valid program of exactly `nodes` nodes on 64 processors: send/recv
/// pairs, computes and timers with `after:` lists into the processor's
/// recent nodes, and a barrier round every 2,000 steps.
fn program(nodes: u32) -> String {
    let mut g = Gen {
        rng: CounterRng::new(0x0041_4c4c_4f43),
        out: format!("workload alloc\nprocs {PROCS}\n"),
        recent: vec![Vec::new(); PROCS as usize],
        emitted: 0,
    };
    let p = u64::from(PROCS);
    let mut step = 0u32;
    while g.emitted < nodes {
        step += 1;
        let left = nodes - g.emitted;
        if step.is_multiple_of(2_000) && left >= PROCS {
            for q in 0..PROCS {
                g.node(q, format_args!("barrier @{q}"));
            }
        } else if left >= 2 && g.rng.next_in(1) == 0 {
            let src = g.rng.next_in(p - 1) as u32;
            let dst = (src + 1 + g.rng.next_in(p - 2) as u32) % PROCS;
            let tag = g.rng.next_in(2);
            g.node(src, format_args!("send {src} -> {dst} tag={tag} data=7"));
            g.node(dst, format_args!("recv {src} -> {dst} tag={tag}"));
        } else {
            let q = g.rng.next_in(p - 1) as u32;
            let kw = if g.rng.next_in(1) == 0 {
                "compute"
            } else {
                "timer"
            };
            let cycles = 1 + g.rng.next_in(9);
            g.node(q, format_args!("{kw} {cycles} @{q}"));
        }
    }
    g.out
}

#[test]
fn front_end_allocations_per_node_stay_bounded() {
    const N: u32 = 20_000;
    let text = program(N);
    let (wl, load) = allocs(|| load_workload(&text));
    let wl = wl.expect("generated program loads");
    assert_eq!(wl.nodes.len() as u32, N);
    let (ok, lower) = allocs(|| wl.validate());
    ok.expect("validates");
    let per_node = |a: u64| a as f64 / f64::from(N);
    println!(
        "load_workload {:.3} allocs/node, validate {:.4} allocs/node",
        per_node(load),
        per_node(lower)
    );
    assert!(per_node(load) <= 3.0, "load_workload: {load} allocations");
    assert!(per_node(lower) <= 0.05, "validate: {lower} allocations");
}

#[test]
fn loader_allocations_grow_linearly() {
    const N: u32 = 5_000;
    let (small, big) = (program(N), program(8 * N));
    let (a, small_allocs) = allocs(|| load_workload(&small));
    let (b, big_allocs) = allocs(|| load_workload(&big));
    assert_eq!(a.expect("loads").nodes.len() as u32, N);
    assert_eq!(b.expect("loads").nodes.len() as u32, 8 * N);
    assert!(
        big_allocs as f64 <= 8.5 * small_allocs as f64,
        "load_workload(8N) made {big_allocs} allocations, load_workload(N) {small_allocs}"
    );
}
