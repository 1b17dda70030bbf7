//! Hierarchical-vs-flat collectives on two-level machines: the
//! crossover sweep and the CI pins behind `docs/HIERARCHY.md`.
//!
//! The experiment: fix a cheap intra-node level (the Fig. 3 machine,
//! `L=6, o=2, g=4`, 8 ranks per node, 4 nodes) and sweep the
//! inter-node latency upward. At every point run three collectives —
//! broadcast, summation, all-reduce — twice: along the *hierarchical*
//! schedule (per-level leaders, per-level optimal trees, long-haul
//! sends first) and along the *topology-oblivious* flat-optimal tree
//! of the machine's projection, both executed on the same hierarchical
//! engine. The table shows where topology awareness starts paying and
//! by how much; the analytic columns come from the closed-form
//! evaluators in `logp_core::hier` and must equal the simulation
//! cycle-for-cycle.
//!
//! The check runs the correctness pins instead of the sweep:
//!
//! 1. **flat-projection identity** — on five flat machines (the four
//!    calibrated presets plus the Fig. 3 example), every corpus
//!    workload run through a depth-1 [`Hierarchy`] is bit-identical
//!    (full `SimResult`) to the plain flat-engine run, classic and
//!    sharded. A one-level hierarchy *is* the flat machine, to the
//!    last event.
//! 2. **analytic closure** — simulated completion equals the analytic
//!    evaluation exactly, for both schedules, across the whole sweep
//!    grid.
//! 3. **crossover oracle** — the hierarchical schedule beats the flat
//!    one exactly where the analytic formulas predict (sign agreement
//!    at every grid point), and the sweep range genuinely exhibits the
//!    crossover (flat wins at the bottom, hierarchy wins at the top).
//! 4. **lane invariance** — hierarchical runs are bit-identical across
//!    lane counts {2, 4, 8}, with lanes aligned to topology boundaries.
//!
//! Prints the sweep as a table; its columns are model cycles, not wall
//! clock.

use logp_algos::allreduce::run_allreduce_reduce_bcast;
use logp_algos::broadcast::run_optimal_broadcast;
use logp_algos::hier::{
    flat_tree, hier_tree, run_tree_allreduce_on, run_tree_broadcast_on, run_tree_reduce_on,
};
use logp_algos::reduce::run_sum_schedule;
use logp_bench::Args;
use logp_core::hier::{
    flat_allreduce_time_on, flat_broadcast_time_on, flat_sum_time_on, hier_allreduce_time,
    hier_broadcast_time, hier_sum_time, Hierarchy,
};
use logp_core::summation::{min_sum_time, optimal_sum_schedule};
use logp_core::{Cycles, LogP};
use logp_sim::{ObsLog, SimConfig};
use logp_wl::{
    preset, run_workload, run_workload_hier, workload_from_obslog, Workload, PRESET_NAMES,
};

/// Inner level of every swept machine: the Fig. 3 example, 8 ranks per
/// node.
const INNER: (Cycles, Cycles, Cycles) = (6, 2, 4);
const NODE_SIZE: u32 = 8;
const NODES: u32 = 4;

/// Swept inter-node latencies. The low end is *cheaper* than the
/// intra-node level (degenerate on purpose: the flat schedule must win
/// there), the high end is deep cluster territory.
fn sweep_l_out() -> Vec<Cycles> {
    vec![2, 4, 6, 10, 16, 24, 40, 64, 100, 160, 260, 400]
}

fn machine(l_out: Cycles) -> Hierarchy {
    // Outer overhead/gap track the inner NIC: only the wire lengthens.
    Hierarchy::two_level(INNER, NODE_SIZE, (l_out, 2, 4), NODES).expect("valid two-level machine")
}

/// The corpus collectives for one machine — the optimal broadcast, the
/// optimal summation (sized to the machine's minimum feasible deadline for
/// 4P inputs) and the reduce-then-broadcast all-reduce — as the programs
/// their built-in runs executed: each run's lifecycle log, replayed.
fn corpus_workloads(m: &LogP) -> Vec<Workload> {
    let cfg = || SimConfig::default().with_msg_log(true);
    let replay = |log: &ObsLog, procs, name| {
        workload_from_obslog(log, procs, name).expect("a fault-free run replays")
    };
    let sched = optimal_sum_schedule(m, min_sum_time(m, 4 * m.p as u64, m.p));
    let values: Vec<f64> = (0..m.p).map(f64::from).collect();
    let bcast = run_optimal_broadcast(m, cfg()).result;
    let sum = run_sum_schedule(&sched, cfg()).result;
    let ared = run_allreduce_reduce_bcast(m, &values, cfg()).result;
    vec![
        replay(&bcast.obs, m.p, "optimal_broadcast"),
        replay(&sum.obs, sched.procs().max(1), "optimal_summation"),
        replay(&ared.obs, m.p, "allreduce_reduce_bcast"),
    ]
}

struct Point {
    l_out: Cycles,
    // (hier, flat) simulated completions per collective.
    bcast: (Cycles, Cycles),
    sum: (Cycles, Cycles),
    allreduce: (Cycles, Cycles),
}

fn run_point(l_out: Cycles) -> Point {
    let h = machine(l_out);
    let ht = hier_tree(&h);
    let ft = flat_tree(&h);
    let vals: Vec<f64> = (0..h.p()).map(|q| (q % 13) as f64).collect();
    let cfg = SimConfig::default;
    let bcast = (
        run_tree_broadcast_on(&h, &ht, 1.0, cfg()).completion,
        run_tree_broadcast_on(&h, &ft, 1.0, cfg()).completion,
    );
    let sum = (
        run_tree_reduce_on(&h, &ht, &vals, cfg()).per_proc[0],
        run_tree_reduce_on(&h, &ft, &vals, cfg()).per_proc[0],
    );
    let allreduce = (
        run_tree_allreduce_on(&h, &ht, &ht, &vals, cfg()).completion,
        run_tree_allreduce_on(&h, &ft, &ft, &vals, cfg()).completion,
    );
    Point {
        l_out,
        bcast,
        sum,
        allreduce,
    }
}

/// Pin 1: a depth-1 hierarchy is the flat machine, to the last event,
/// on all five oracle presets × three corpus collectives, classic and
/// sharded. (The summation schedule can use fewer than P processors;
/// the flat machine is re-dimensioned to the workload before the
/// depth-1 hierarchy is built from it, so both sides see the same P.)
fn check_flat_projection_identity() {
    for name in PRESET_NAMES {
        let m = preset(name).expect("known preset");
        for wl in corpus_workloads(&m) {
            let mflat = m.with_p(wl.procs);
            for shards in [0u32, 4] {
                let cfg = || {
                    let c = SimConfig::default();
                    if shards == 0 {
                        c
                    } else {
                        c.with_shards(shards)
                    }
                };
                let flat = run_workload(&wl, &mflat, cfg()).expect("flat run");
                let hier =
                    run_workload_hier(&wl, &Hierarchy::flat(&mflat), cfg()).expect("depth-1 run");
                assert_eq!(
                    flat.result, hier.result,
                    "depth-1 hierarchy diverged from flat on {name} / {} ({shards} shards)",
                    wl.name
                );
            }
        }
    }
    eprintln!(
        "check: depth-1 hierarchy ≡ flat engine on {} presets × 3 collectives ... ok",
        PRESET_NAMES.len()
    );
}

/// Pins 2 + 3: exact analytic closure at every grid point, and the
/// crossover lands where the formulas say.
fn check_closure_and_crossover() {
    let mut signs = Vec::new();
    for l_out in sweep_l_out() {
        let h = machine(l_out);
        let pt = run_point(l_out);
        assert_eq!(
            pt.bcast.0,
            hier_broadcast_time(&h),
            "bcast closure, L={l_out}"
        );
        assert_eq!(
            pt.bcast.1,
            flat_broadcast_time_on(&h),
            "flat bcast closure, L={l_out}"
        );
        assert_eq!(pt.sum.0, hier_sum_time(&h), "sum closure, L={l_out}");
        assert_eq!(
            pt.sum.1,
            flat_sum_time_on(&h),
            "flat sum closure, L={l_out}"
        );
        assert_eq!(
            pt.allreduce.0,
            hier_allreduce_time(&h),
            "allreduce closure, L={l_out}"
        );
        assert_eq!(
            pt.allreduce.1,
            flat_allreduce_time_on(&h),
            "flat allreduce closure, L={l_out}"
        );
        // Sign agreement is implied by exact closure; assert it anyway
        // so a future loosening of the closure pins cannot silently
        // take the oracle with it.
        let analytic = hier_broadcast_time(&h) as i64 - flat_broadcast_time_on(&h) as i64;
        let simulated = pt.bcast.0 as i64 - pt.bcast.1 as i64;
        assert_eq!(
            analytic.signum(),
            simulated.signum(),
            "crossover sign mismatch at L={l_out}"
        );
        signs.push(simulated.signum());
    }
    assert_eq!(
        *signs.first().unwrap(),
        1,
        "flat must win when the outer level is cheaper than the inner"
    );
    assert_eq!(
        *signs.last().unwrap(),
        -1,
        "hierarchy must win on a deep cluster"
    );
    let cross = signs.windows(2).position(|w| w[0] >= 0 && w[1] < 0);
    assert!(cross.is_some(), "the sweep must bracket the crossover");
    eprintln!(
        "check: analytic ≡ simulated on {} grid points; crossover after L_out = {} ... ok",
        sweep_l_out().len(),
        sweep_l_out()[cross.unwrap()]
    );
}

/// Pin 4: the lane count does not change hierarchical results.
fn check_lane_invariance() {
    let h = machine(100);
    let ht = hier_tree(&h);
    let vals: Vec<f64> = (0..h.p()).map(|q| q as f64).collect();
    let run = |cfg: SimConfig| run_tree_allreduce_on(&h, &ht, &ht, &vals, cfg);
    let classic = run(SimConfig::default());
    let two = run(SimConfig::default().with_shards(2));
    assert_eq!(
        (classic.completion, classic.value, classic.messages),
        (two.completion, two.value, two.messages),
        "classic vs lanes diverged on the hierarchical all-reduce"
    );
    for shards in [4u32, 8] {
        assert_eq!(
            two.result,
            run(SimConfig::default().with_shards(shards)).result,
            "lane counts 2 vs {shards} diverged"
        );
    }
    eprintln!("check: hierarchical all-reduce invariant across lanes 2/4/8 ... ok");
}

pub fn check(_: &Args) {
    check_flat_projection_identity();
    check_closure_and_crossover();
    check_lane_invariance();
    println!("hier_sweep --check: all pins hold");
}

pub fn run(_: &Args) {
    println!(
        "\nhierarchical vs flat-optimal collectives, {NODES} nodes × {NODE_SIZE} ranks, \
         inner (L,o,g) = {INNER:?}, outer (o,g) = (2,4):"
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "L_out", "bcast hier", "bcast flat", "sum hier", "sum flat", "ared hier", "ared flat"
    );
    for pt in sweep_l_out().into_iter().map(run_point) {
        let mark = if pt.bcast.0 < pt.bcast.1 { " <" } else { "" };
        println!(
            "{:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}{mark}",
            pt.l_out, pt.bcast.0, pt.bcast.1, pt.sum.0, pt.sum.1, pt.allreduce.0, pt.allreduce.1
        );
    }
}
