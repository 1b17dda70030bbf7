//! Integration tests for the hierarchical LogP extension, spanning
//! logp-core (model + analytic evaluators), logp-sim (per-pair engine
//! parameters, per-level capacity, topology-aligned lanes), logp-algos
//! (executable level-aware collectives), logp-calib (clustered probing)
//! and logp-wl (hierarchical workload runs). The normative description
//! of what is pinned here is `docs/HIERARCHY.md`.

use logp::algos::broadcast::run_optimal_broadcast;
use logp::algos::hier::{
    flat_tree, hier_tree, run_flat_broadcast_on, run_hier_allreduce, run_hier_broadcast,
    run_hier_sum, run_tree_allreduce_on, run_tree_broadcast_on, run_tree_reduce_on,
};
use logp::calib::hier::{calibrate_hier, HierSimMachine};
use logp::calib::CalibConfig;
use logp::core::broadcast::{optimal_broadcast_tree, tree_broadcast_times};
use logp::core::hier::{
    eval_allreduce, eval_broadcast, eval_reduce, flat_allreduce_time_on, flat_broadcast_time_on,
    flat_sum_time_on, hier_allreduce_time, hier_broadcast_time, hier_sum_time, Hierarchy, Level,
};
use logp::prelude::*;
use logp::wl::{preset, run_workload, run_workload_hier, workload_from_obslog, PRESET_NAMES};

/// The steep two-level machine used throughout: local links an order
/// of magnitude cheaper than the fabric.
fn steep() -> Hierarchy {
    Hierarchy::two_level((6, 2, 4), 8, (100, 10, 12), 4).unwrap()
}

/// A three-level machine: socket → node → cluster.
fn three_level() -> Hierarchy {
    Hierarchy::new(vec![
        Level::new(4, 1, 2, 4).unwrap(),     // socket: 4 ranks
        Level::new(20, 4, 6, 2).unwrap(),    // node: 2 sockets
        Level::new(300, 12, 16, 3).unwrap(), // cluster: 3 nodes
    ])
    .unwrap()
}

fn vals(p: u32) -> Vec<f64> {
    (0..p).map(|q| (q % 7) as f64 + 0.5).collect()
}

// -------------------------------------------------------------------
// Flat-projection identity: a depth-1 hierarchy IS the flat machine.
// -------------------------------------------------------------------

/// On all five oracle presets, a broadcast executed through a depth-1
/// `Hierarchy` (which exercises the engine's per-pair parameter path)
/// reproduces the flat closed form cycle-for-cycle, per processor.
#[test]
fn depth_one_hierarchy_matches_flat_closed_forms_on_all_presets() {
    for name in PRESET_NAMES {
        let m = preset(name).unwrap();
        let h = Hierarchy::flat(&m);
        let tree = optimal_broadcast_tree(&m).children();
        let run = run_tree_broadcast_on(&h, &tree, 2.5, SimConfig::default());
        assert_eq!(
            run.per_proc,
            tree_broadcast_times(&m, &tree),
            "depth-1 broadcast diverged from the flat closed form on {name}"
        );
    }
}

/// Workload-level identity: same DAG (the optimal broadcast's, replayed
/// from its run), same config, full `SimResult` equality between the flat
/// engine and a depth-1 hierarchy — classic and sharded. (The
/// `hier_sweep --check` CI pin extends this to all three corpus
/// collectives.)
#[test]
fn depth_one_hierarchy_runs_workloads_bit_identically() {
    for name in PRESET_NAMES {
        let m = preset(name).unwrap();
        let recorded = run_optimal_broadcast(&m, SimConfig::default().with_msg_log(true));
        let wl = workload_from_obslog(&recorded.result.obs, m.p, "optimal_broadcast").unwrap();
        for shards in [0u32, 4] {
            let cfg = || {
                let c = SimConfig::default();
                if shards == 0 {
                    c
                } else {
                    c.with_shards(shards)
                }
            };
            let flat = run_workload(&wl, &m, cfg()).unwrap();
            let hier = run_workload_hier(&wl, &Hierarchy::flat(&m), cfg()).unwrap();
            assert_eq!(
                flat.result, hier.result,
                "workload diverged on {name} at {shards} shards"
            );
        }
    }
}

// -------------------------------------------------------------------
// Analytic-vs-simulated closure, per collective.
// -------------------------------------------------------------------

/// Simulated per-processor times equal the analytic evaluators exactly
/// — for both the hierarchical and the topology-oblivious tree, on
/// two- and three-level machines, for all three collectives.
#[test]
fn analytic_evaluators_close_with_simulation() {
    for h in [steep(), three_level()] {
        let v = vals(h.p());
        for tree in [hier_tree(&h), flat_tree(&h)] {
            let b = run_tree_broadcast_on(&h, &tree, 1.0, SimConfig::default());
            assert_eq!(b.per_proc, eval_broadcast(&h, &tree), "broadcast closure");
            let r = run_tree_reduce_on(&h, &tree, &v, SimConfig::default());
            assert_eq!(r.per_proc, eval_reduce(&h, &tree), "reduce closure");
            let a = run_tree_allreduce_on(&h, &tree, &tree, &v, SimConfig::default());
            assert_eq!(
                a.per_proc,
                eval_allreduce(&h, &tree, &tree),
                "allreduce closure"
            );
        }
    }
}

/// The convenience time formulas agree with the convenience runners.
#[test]
fn closed_form_times_match_runner_completions() {
    let h = steep();
    let v = vals(h.p());
    let cfg = SimConfig::default;
    assert_eq!(
        run_hier_broadcast(&h, 1.0, cfg()).completion,
        hier_broadcast_time(&h)
    );
    assert_eq!(
        run_flat_broadcast_on(&h, 1.0, cfg()).completion,
        flat_broadcast_time_on(&h)
    );
    assert_eq!(run_hier_sum(&h, &v, cfg()).per_proc[0], hier_sum_time(&h));
    assert_eq!(
        run_hier_allreduce(&h, &v, cfg()).completion,
        hier_allreduce_time(&h)
    );
    assert!(hier_sum_time(&h) <= flat_sum_time_on(&h));
    assert!(hier_allreduce_time(&h) <= flat_allreduce_time_on(&h));
}

// -------------------------------------------------------------------
// Lane-count invariance on hierarchical machines.
// -------------------------------------------------------------------

/// Hierarchical collective runs are bit-identical across lane counts and
/// agree with the classic engine on the collective outcome. Lane partitions align to topology
/// boundaries, so no lane splits a group.
#[test]
fn hierarchical_runs_are_lane_invariant() {
    for h in [steep(), three_level()] {
        let t = hier_tree(&h);
        let v = vals(h.p());
        let run = |cfg: SimConfig| run_tree_allreduce_on(&h, &t, &t, &v, cfg);
        let classic = run(SimConfig::default());
        let two = run(SimConfig::default().with_shards(2));
        for shards in [4u32, 8] {
            assert_eq!(
                two.result,
                run(SimConfig::default().with_shards(shards)).result,
                "lane counts 2 vs {shards} diverged"
            );
        }
        assert_eq!(
            (classic.completion, classic.value, classic.messages),
            (two.completion, two.value, two.messages),
            "classic vs sharded outcome diverged"
        );
    }
}

// -------------------------------------------------------------------
// Crossover, calibration, workload plumbing.
// -------------------------------------------------------------------

/// The acceptance oracle in miniature: on the steep machine the
/// hierarchical schedule wins every collective; on a degenerate
/// hierarchy (outer links as cheap as inner) the flat-optimal tree
/// wins — and in both regimes the analytic formulas predicted it.
#[test]
fn crossover_has_the_predicted_sign_in_both_regimes() {
    let deep = steep();
    assert!(hier_broadcast_time(&deep) < flat_broadcast_time_on(&deep));
    assert!(
        run_hier_broadcast(&deep, 1.0, SimConfig::default()).completion
            < run_flat_broadcast_on(&deep, 1.0, SimConfig::default()).completion
    );

    let degenerate = Hierarchy::two_level((6, 2, 4), 8, (2, 2, 4), 4).unwrap();
    assert!(hier_broadcast_time(&degenerate) > flat_broadcast_time_on(&degenerate));
    assert!(
        run_hier_broadcast(&degenerate, 1.0, SimConfig::default()).completion
            > run_flat_broadcast_on(&degenerate, 1.0, SimConfig::default()).completion
    );
}

/// Clustered probing recovers a three-level machine level-for-level
/// and the result round-trips through `Hierarchy::from_estimates`.
#[test]
fn clustered_probing_recovers_a_three_level_machine() {
    let truth = three_level();
    let cal = calibrate_hier(
        &mut HierSimMachine::new(truth.clone()),
        &CalibConfig::quick(),
    );
    assert_eq!(cal.depth(), 3);
    assert_eq!(cal.group_sizes, vec![4, 8, 24]);
    assert_eq!(cal.hierarchy, truth);
}

/// `run_workload_hier` prices messages by level: the same DAG completes
/// faster when its traffic stays inside a node than when the hierarchy
/// says the endpoints sit on different nodes.
#[test]
fn workloads_pay_level_aware_prices() {
    let h = steep();
    let wl = logp::wl::load_workload(&format!(
        "workload pair\nprocs {}\na: send 0 -> 1 data=1\nb: recv 0 -> 1\n\
         c: send 0 -> 8 data=1\nd: recv 0 -> 8\n",
        h.p()
    ))
    .unwrap();
    let run = run_workload_hier(&wl, &h, SimConfig::default()).unwrap();
    // Node-local delivery (0 -> 1) uses the inner level; cross-node
    // (0 -> 8) pays the outer one.
    let inner = h.level(0);
    let outer = h.level(1);
    assert_eq!(run.node_times[1], inner.point_to_point());
    // The second send leaves one gap after the first.
    assert_eq!(
        run.node_times[3],
        inner.g.max(inner.o) + outer.point_to_point()
    );

    // Mismatched processor counts are a loadable-but-unrunnable error,
    // reported, not panicked.
    let wrong =
        logp::wl::load_workload("workload w\nprocs 3\nx: send 0 -> 1\ny: recv 0 -> 1\n").unwrap();
    let invalid = |wl: &logp::wl::Workload| match run_workload_hier(wl, &h, SimConfig::default()) {
        Err(logp::wl::WlRunError::Invalid(e)) => e.msg,
        other => panic!("expected an invalid-workload error, got {other:?}"),
    };
    assert!(invalid(&wrong).starts_with("workload uses 3 processors but the hierarchy has"));
    // The program is checked before the shape: wrong on both counts, it
    // reports what is wrong with the program.
    let mut both = wrong.clone();
    both.node("y", 2, logp::wl::Op::Compute { cycles: 1 }, &[]);
    assert!(invalid(&both).starts_with("duplicate label `y`"));
}

/// Determinism under jitter: a seeded noisy hierarchical run is
/// reproducible and still computes the right value.
#[test]
fn seeded_jitter_is_deterministic_on_hierarchies() {
    let h = steep();
    let v = vals(h.p());
    let cfg = || SimConfig::default().with_jitter(3).with_seed(42);
    let a = run_hier_allreduce(&h, &v, cfg());
    let b = run_hier_allreduce(&h, &v, cfg());
    assert_eq!(a.result, b.result);
    assert_eq!(a.value, v.iter().sum::<f64>());
}
