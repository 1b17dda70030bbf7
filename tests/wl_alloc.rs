//! The `.wl` front end's cost, pinned as heap allocations — calls and
//! bytes, counts that cannot flake the way a timing does.
//!
//! Calls per node on the 20,000-node program below (about one `after:`
//! entry a node):
//!
//! | call                            | parent of PR 13 | parent of the arena | now    | bound       |
//! |---------------------------------|-----------------|---------------------|--------|-------------|
//! | `load_workload`                 | 11.466          | 2.319               | 0.0034 | 0.1         |
//! | `validate` on a loaded workload | 2.684           | 0.0027              | 0      | 0 (exactly) |
//! | `validate` after an append      |                 |                     | 0.0030 | 0 < · ≤ 0.05 |
//!
//! Peak live bytes a node while `validate` checks and lowers the same
//! program, parsed but not yet validated (the plan it keeps included):
//!
//! | call                            | with the ordering graph | now  | bound |
//! |---------------------------------|-------------------------|------|-------|
//! | `validate` on a parsed workload | 72.0                    | 63.1 | 66    |
//!
//! The cycle check is a dry run of the plan; the global ordering graph is
//! built only to name a cycle once one is proven, so it is not among them.
//!
//! `load_workload` writes every token into the node arena's four buffers
//! and checks-and-lowers once; the plan that makes stays with the arena
//! (its seal), so `validate` and `run_workload` on a loaded workload lower
//! nothing: the first run allocates exactly what the second does. An
//! append drops the seal, and the next `validate` is `lower` again — a few
//! dozen flat arrays, whatever the size of the program.

use logp::core::rng::CounterRng;
use logp::core::LogP;
use logp::sim::SimConfig;
use logp::wl::{load_workload, parse_workload, run_workload, Op};
use std::fmt::Write as _;

#[path = "common/counting.rs"]
mod counting;
use counting::allocs;

#[global_allocator]
static GLOBAL: counting::Counting = counting::Counting;

const PROCS: u32 = 64;
/// Bound on `validate`'s peak live bytes a node (see the table above).
const PEAK_PER_NODE: f64 = 66.0;

/// Emits `n<i>: <body>[ after: ...]` lines, remembering each processor's
/// eight newest nodes as `after:` candidates.
struct Gen {
    rng: CounterRng,
    out: String,
    recent: Vec<Vec<u32>>,
    emitted: u32,
    /// `after:` entries written so far.
    deps: u64,
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
        self.deps += want as u64;
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
/// recent nodes, and a barrier round every 2,000 steps. Returns the text
/// and the number of `after:` entries in it.
fn program(nodes: u32) -> (String, u64) {
    let mut g = Gen {
        rng: CounterRng::new(0x0041_4c4c_4f43),
        out: format!("workload alloc\nprocs {PROCS}\n"),
        recent: vec![Vec::new(); PROCS as usize],
        emitted: 0,
        deps: 0,
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
    (g.out, g.deps)
}

#[test]
fn front_end_allocations_per_node_stay_bounded() {
    const N: u32 = 20_000;
    let (text, deps) = program(N);
    let (wl, load) = allocs(|| load_workload(&text));
    let mut wl = wl.expect("generated program loads");
    assert_eq!(wl.nodes.len() as u32, N);
    let (ok, sealed) = allocs(|| wl.validate());
    ok.expect("validates");
    let per_node = |calls: u64| calls as f64 / f64::from(N);
    println!(
        "load_workload {:.4} allocs/node, {} bytes/node",
        per_node(load.calls),
        load.bytes / u64::from(N)
    );
    assert!(per_node(load.calls) <= 0.1, "load_workload: {load:?}");
    assert_eq!(sealed.calls, 0, "validate on a loaded workload");

    // The interpreter starts from the loader's plan: its first run
    // allocates what its second does, to the byte.
    let m = LogP::fig3();
    let run = |wl: &logp::wl::Workload| {
        let (run, cost) = allocs(|| run_workload(wl, &m, SimConfig::default()));
        (run.expect("runs").node_times, cost)
    };
    let ((times, first), (_, second)) = (run(&wl), run(&wl));
    assert_eq!(
        first, second,
        "run_workload after load_workload lowered something"
    );

    // An append drops the plan: the next check is a whole `lower` again,
    // still a few dozen arrays, and the next run pays for its edge lists.
    wl.node("tail", 0, Op::Compute { cycles: 1 }, &[]);
    let (ok, relower) = allocs(|| wl.validate());
    ok.expect("still valid");
    println!("validate after an append: {relower:?}");
    assert!(relower.calls > 0, "the append was not checked");
    assert!(per_node(relower.calls) <= 0.05, "validate: {relower:?}");
    wl.node("tail2", 0, Op::Compute { cycles: 1 }, &[N]);
    let (grown, unsealed) = run(&wl);
    assert_eq!(grown[..N as usize], times[..]);
    assert!(
        unsealed.bytes >= second.bytes + 4 * deps,
        "an unsealed run ({unsealed:?}) allocates an array per edge kind on top of {second:?}"
    );
}

#[test]
fn loader_allocations_grow_linearly() {
    const N: u32 = 5_000;
    let ((small, _), (big, _)) = (program(N), program(8 * N));
    let (a, small_allocs) = allocs(|| load_workload(&small));
    let (b, big_allocs) = allocs(|| load_workload(&big));
    assert_eq!(a.expect("loads").nodes.len() as u32, N);
    assert_eq!(b.expect("loads").nodes.len() as u32, 8 * N);
    assert!(
        big_allocs.calls as f64 <= 8.5 * small_allocs.calls as f64
            && big_allocs.bytes as f64 <= 8.5 * small_allocs.bytes as f64,
        "load_workload(8N) made {big_allocs:?}, load_workload(N) {small_allocs:?}"
    );
}

/// Check-and-lower's high-water mark on a parsed program, in bytes a node:
/// the plan it keeps and the flat arrays it works in. It held the global
/// ordering graph as well (its offsets, its edges and a count of waits a
/// vertex) while the cycle check was Kahn's toposort over it.
#[test]
fn check_and_lower_holds_no_ordering_graph() {
    const N: u32 = 20_000;
    let (text, _) = program(N);
    let wl = parse_workload(&text).expect("generated program parses");
    let (ok, lowered) = allocs(|| wl.validate());
    ok.expect("validates");
    let peak = lowered.peak as f64 / f64::from(N);
    println!("validate: peak {peak:.1} bytes a node, {lowered:?}");
    assert!(
        peak <= PEAK_PER_NODE,
        "validate held {peak:.1} bytes a node"
    );
}
