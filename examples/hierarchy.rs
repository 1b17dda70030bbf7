//! Hierarchical LogP walkthrough: describe a cluster of multi-core
//! nodes as nested levels, see what topology awareness buys a
//! collective, and recover the structure by black-box probing.
//!
//! ```sh
//! cargo run --release --example hierarchy
//! ```
//!
//! The full handbook is `docs/HIERARCHY.md`; the crossover sweep this
//! example samples one point of is `logp-bench hier_sweep`.

use logp::algos::hier::{run_flat_broadcast_on, run_hier_allreduce, run_hier_broadcast};
use logp::calib::hier::{calibrate_hier, HierSimMachine};
use logp::calib::CalibConfig;
use logp::core::hier::{
    flat_broadcast_time_on, hier_allreduce_time, hier_broadcast_time, Hierarchy,
};
use logp::prelude::*;
use logp::wl::{load_workload, run_workload_hier};

fn main() {
    // A 32-rank machine: 4 nodes of 8 ranks. Inside a node messages see
    // the paper's Fig. 3 parameters; between nodes the wire is ~17x
    // longer and the NIC a bit slower.
    let h = Hierarchy::two_level((6, 2, 4), 8, (100, 10, 12), 4).expect("valid machine");
    println!("machine: {h}");
    println!(
        "rank 11 sits in node {} (path {:?})",
        h.path(11)[0],
        h.path(11)
    );
    println!(
        "  2 -> 5  pays the inner level: 2o+L = {} cycles",
        h.params_between(2, 5).point_to_point()
    );
    println!(
        "  2 -> 29 pays the outer level: 2o+L = {} cycles",
        h.params_between(2, 29).point_to_point()
    );

    // Broadcast: the hierarchical schedule (one long-haul send per
    // node, then cheap local trees) vs the topology-oblivious optimal
    // tree of the flat projection, both on the same machine.
    let hier = run_hier_broadcast(&h, 1.0, SimConfig::default());
    let flat = run_flat_broadcast_on(&h, 1.0, SimConfig::default());
    println!(
        "\nbroadcast to {} ranks: hierarchical {} vs flat-optimal {} cycles",
        h.p(),
        hier.completion,
        flat.completion
    );
    // The closed forms predicted exactly these numbers.
    assert_eq!(hier.completion, hier_broadcast_time(&h));
    assert_eq!(flat.completion, flat_broadcast_time_on(&h));

    // All-reduce along the same tree family, lanes aligned to nodes.
    let values: Vec<f64> = (0..h.p()).map(|q| q as f64).collect();
    let ar = run_hier_allreduce(&h, &values, SimConfig::default().with_shards(4));
    println!(
        "all-reduce: sum {} in {} cycles ({} messages)",
        ar.value, ar.completion, ar.messages
    );
    assert_eq!(ar.completion, hier_allreduce_time(&h));

    // Workloads run on hierarchies too: same DSL, level-aware prices.
    let wl = load_workload(&format!(
        "workload pair\nprocs {}\nnear: send 0 -> 1 data=7\ngot_near: recv 0 -> 1\n\
         far: send 0 -> 8 data=7\ngot_far: recv 0 -> 8\n",
        h.p()
    ))
    .expect("valid workload");
    let run = run_workload_hier(&wl, &h, SimConfig::default()).expect("runs");
    println!(
        "workload: node-local recv at {} cycles, cross-node recv at {}",
        run.node_times[1], run.node_times[3]
    );

    // Finally, close the loop: probe the machine as a black box and
    // recover both the structure and the per-level parameters.
    let cal = calibrate_hier(&mut HierSimMachine::new(h.clone()), &CalibConfig::quick());
    println!(
        "\nprobing recovered {} levels with group sizes {:?}",
        cal.depth(),
        cal.group_sizes
    );
    assert_eq!(cal.hierarchy, h, "calibration must round-trip exactly");
    println!("recovered machine: {}", cal.hierarchy);
}
