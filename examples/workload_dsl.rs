//! Workload DSL walkthrough: write a program as text, load it with real
//! error reporting, run it on the classic engine, then re-run the same
//! program bit-identically on the sharded engine and print the engine
//! vitals.
//!
//! ```sh
//! cargo run --release --example workload_dsl
//! ```
//!
//! The golden corpus under `examples/workloads/` holds larger programs
//! (the paper's optimal broadcast, summation, and all-reduce) runnable
//! with `logp-bench wl_run`; `docs/WORKLOADS.md` has the grammar.

use logp::prelude::*;
use logp::wl::{load_workload, run_workload, to_text};

fn main() {
    // 1. A workload is a labeled DAG of send/recv/compute/barrier/timer
    //    statements; `after:` names same-processor dependencies, and
    //    cross-processor ordering rides on send/recv channel pairing.
    let text = "\
workload scatter_gather
procs 4

# Processor 0 prepares, then scatters to 1..3.
prep:  compute 10 @0
tx1:   send 0 -> 1 data=101 after: prep
tx2:   send 0 -> 2 data=102 after: prep
tx3:   send 0 -> 3 data=103 after: prep
rx1:   recv 0 -> 1
rx2:   recv 0 -> 2
rx3:   recv 0 -> 3

# Everyone works, then meets at a barrier.
w1:    compute 25 @1 after: rx1
w2:    compute 40 @2 after: rx2
w3:    compute 15 @3 after: rx3
sync0: barrier @0
sync1: barrier @1 after: w1
sync2: barrier @2 after: w2
sync3: barrier @3 after: w3

# Gather the results back on distinct tags.
u1:    send 1 -> 0 tag=1 after: sync1
u2:    send 2 -> 0 tag=2 after: sync2
u3:    send 3 -> 0 tag=3 after: sync3
g1:    recv 1 -> 0 tag=1
g2:    recv 2 -> 0 tag=2
g3:    recv 3 -> 0 tag=3
";
    // Loader errors carry a line:column span, the offending token, and
    // usually a "did you mean" hint — try breaking a statement above.
    let wl = load_workload(text).unwrap_or_else(|e| panic!("load failed: {e}"));
    println!(
        "loaded `{}`: {} nodes over {} processors",
        wl.name,
        wl.nodes.len(),
        wl.procs
    );

    // 2. Run it on the classic engine, on the paper's Figure 3 machine.
    let m = LogP::fig3();
    let classic = run_workload(&wl, &m, SimConfig::default()).expect("runs");
    println!(
        "\nclassic engine:   completion {} cycles",
        classic.completion
    );
    for (node, &t) in wl.nodes.iter().zip(classic.node_times.iter()) {
        if node.label.starts_with('g') {
            println!("  {:<5} finished at {t}", node.label);
        }
    }

    // 3. The same program on the sharded engine — 4 calendar lanes —
    //    must agree bit-for-bit.
    let cfg = SimConfig::default().with_shards(4);
    let sharded = run_workload(&wl, &m, cfg).expect("runs");
    assert_eq!(sharded.completion, classic.completion);
    assert_eq!(sharded.node_times, classic.node_times);
    let v = &sharded.result.vitals;
    println!(
        "\nsharded engine:   completion {} cycles (bit-identical), \
         {} lanes, {} windows, {} events",
        sharded.completion, v.lanes, v.windows, v.events
    );

    // 4. Programs round-trip through their canonical text form.
    let canon = to_text(&wl);
    assert_eq!(load_workload(&canon).expect("canonical text loads"), wl);
    println!("\ncanonical text round-trips ({} bytes)", canon.len());
}
