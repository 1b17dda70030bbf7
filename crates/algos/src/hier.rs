//! Hierarchical collectives: level-aware broadcast, summation and
//! all-reduce for clusters of multi-core machines.
//!
//! The schedules come from `logp_core::hier`: leaders are elected per
//! level (the lowest rank of each group), the flat-optimal tree of
//! §3.3 runs *within* each level with that level's parameters, and a
//! sender's child list is ordered outermost level first so long-haul
//! messages leave before cheap local ones
//! ([`logp_core::hier::hier_broadcast_children`]). This module makes
//! those schedules executable on the engine's hierarchical machine
//! ([`logp_sim::Sim::new_hier`]) and pairs every hierarchical runner
//! with a *topology-oblivious* comparator — the flat-optimal tree of
//! the hierarchy's projection, executed on the same machine — so the
//! hier-vs-flat crossover is measurable by simulation and predicted
//! closed-form by [`logp_core::hier::eval_broadcast`] /
//! [`logp_core::hier::eval_reduce`] / [`logp_core::hier::eval_allreduce`]
//! (the closure is pinned cycle-exactly in `tests/hierarchy.rs`).
//!
//! The normative handbook is `docs/HIERARCHY.md`; the crossover sweep
//! lives in the `hier_sweep` bench binary.

use crate::tree::{owned, run_tree, Phases, Wire};
use logp_core::broadcast::optimal_broadcast_tree;
use logp_core::hier::{hier_broadcast_children, Hierarchy};
use logp_core::{Children, Cycles, ProcId, Tree};
use logp_sim::{Sim, SimConfig, SimResult};

/// One combine cycle per received partial, as every plain reduction in
/// this workspace (and `logp_core::hier::eval_reduce`) pays.
const WIRE: Wire = Wire {
    up: 0xB1,
    down: 0xB2,
    combine: 1,
    before: Vec::new(),
    between: 0,
};

/// Result of one hierarchical (or flat-on-hierarchical) collective run.
#[derive(Debug, Clone)]
pub struct HierRun {
    /// The collective's value: the broadcast datum, or the reduced sum.
    pub value: f64,
    /// Completion time: the last involved processor's finish instant.
    pub completion: Cycles,
    /// Per-processor finish instants, indexed by rank. For broadcasts
    /// this is the time each rank holds the datum; for reductions the
    /// time each rank's partial is complete (root: the total); for
    /// all-reduce the time each rank holds the final value.
    pub per_proc: Vec<Cycles>,
    pub messages: u64,
    /// The underlying engine result (stats, trace, obs, metrics).
    pub result: SimResult,
}

// ---------------------------------------------------------------------
// Tree builders and runners
// ---------------------------------------------------------------------

/// The hierarchical tree: per-level leader election + per-level optimal
/// trees (re-exported from `logp_core` for callers composing their own
/// runs).
pub fn hier_tree(h: &Hierarchy) -> Tree {
    hier_broadcast_children(h)
}

/// The topology-oblivious comparator tree: the flat-optimal broadcast
/// tree of the hierarchy's projection ([`Hierarchy::flat_projection`]).
pub fn flat_tree(h: &Hierarchy) -> Tree {
    optimal_broadcast_tree(&h.flat_projection()).children()
}

/// Run the tree program on the hierarchical machine and index its finals
/// by rank.
fn run_on(
    h: &Hierarchy,
    phases: Phases<'_>,
    value: impl Fn(ProcId) -> f64,
    config: SimConfig,
) -> HierRun {
    let p = h.p();
    let sim = Sim::new_hier(h, config);
    let run = run_tree(sim, &WIRE, 0, 0..p, phases, value, None)
        .expect("every rank finishes exactly once");
    let mut per_proc = vec![0; p as usize];
    for &(q, _, t) in &run.finals {
        per_proc[q as usize] = t;
    }
    let root = run.finals.iter().find(|f| f.0 == 0);
    HierRun {
        value: root.expect("rank 0 finished").1,
        completion: per_proc.iter().copied().max().unwrap_or(0),
        per_proc,
        messages: run.result.stats.total_msgs,
        result: run.result,
    }
}

/// Broadcast `value` from rank 0 along an explicit tree (a [`Tree`], or
/// child lists) on the hierarchical machine. [`HierRun::per_proc`]
/// matches [`logp_core::hier::eval_broadcast`] cycle-exactly on
/// jitter-free configurations.
///
/// # Panics
///
/// This and the two runners below panic with the
/// [`logp_core::TreeError`]'s message, before any simulation starts, when
/// a tree they are given does not span the machine from rank 0.
pub fn run_tree_broadcast_on<C: Children + ?Sized>(
    h: &Hierarchy,
    children: &C,
    value: f64,
    config: SimConfig,
) -> HierRun {
    run_on(h, Phases::Down(owned(children)), |_| value, config)
}

/// Reduce (sum) `values` to rank 0 up the reverse of an explicit tree.
/// The root's [`HierRun::per_proc`] entry is the reduction's completion
/// and matches [`logp_core::hier::eval_reduce`] cycle-exactly on
/// jitter-free configurations.
pub fn run_tree_reduce_on<C: Children + ?Sized>(
    h: &Hierarchy,
    children: &C,
    values: &[f64],
    config: SimConfig,
) -> HierRun {
    run_sum(h, Phases::Up(&owned(children)), values, config)
}

/// All-reduce: sum `values` up the reverse of `up`, broadcast the total
/// down `down`. Matches [`logp_core::hier::eval_allreduce`]
/// cycle-exactly on jitter-free configurations.
pub fn run_tree_allreduce_on<U, D>(
    h: &Hierarchy,
    up: &U,
    down: &D,
    values: &[f64],
    config: SimConfig,
) -> HierRun
where
    U: Children + ?Sized,
    D: Children + ?Sized,
{
    run_sum(h, Phases::UpDown(&owned(up), owned(down)), values, config)
}

/// A collective with an up phase: the root must end up with the sum.
fn run_sum(h: &Hierarchy, phases: Phases<'_>, values: &[f64], config: SimConfig) -> HierRun {
    assert_eq!(values.len(), h.p() as usize);
    let run = run_on(h, phases, |q| values[q as usize], config);
    let expect: f64 = values.iter().sum();
    let tol = 1e-12 * expect.abs().max(1.0);
    assert!(
        (run.value - expect).abs() <= tol,
        "root holds a wrong total: {} vs {expect}",
        run.value
    );
    run
}

/// Hierarchical broadcast from rank 0 (per-level leaders + per-level
/// optimal trees).
pub fn run_hier_broadcast(h: &Hierarchy, value: f64, config: SimConfig) -> HierRun {
    run_on(h, Phases::Down(hier_tree(h)), |_| value, config)
}

/// Topology-oblivious broadcast comparator: the flat-optimal tree on
/// the same hierarchical machine.
pub fn run_flat_broadcast_on(h: &Hierarchy, value: f64, config: SimConfig) -> HierRun {
    run_on(h, Phases::Down(flat_tree(h)), |_| value, config)
}

/// Hierarchical summation to rank 0.
pub fn run_hier_sum(h: &Hierarchy, values: &[f64], config: SimConfig) -> HierRun {
    run_sum(h, Phases::Up(&hier_tree(h)), values, config)
}

/// Topology-oblivious summation comparator.
pub fn run_flat_sum_on(h: &Hierarchy, values: &[f64], config: SimConfig) -> HierRun {
    run_sum(h, Phases::Up(&flat_tree(h)), values, config)
}

/// Hierarchical all-reduce (reduce and broadcast along the same
/// hierarchical tree).
pub fn run_hier_allreduce(h: &Hierarchy, values: &[f64], config: SimConfig) -> HierRun {
    let t = hier_tree(h);
    run_sum(h, Phases::UpDown(&t, t.clone()), values, config)
}

/// Topology-oblivious all-reduce comparator.
pub fn run_flat_allreduce_on(h: &Hierarchy, values: &[f64], config: SimConfig) -> HierRun {
    let t = flat_tree(h);
    run_sum(h, Phases::UpDown(&t, t.clone()), values, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logp_core::hier::{
        eval_allreduce, eval_broadcast, eval_reduce, flat_allreduce_time_on,
        flat_broadcast_time_on, flat_sum_time_on, hier_allreduce_time, hier_broadcast_time,
        hier_sum_time,
    };
    use logp_core::LogP;

    fn steep() -> Hierarchy {
        // Local links ~10x cheaper than the fabric: hierarchy pays off.
        Hierarchy::two_level((6, 2, 4), 8, (60, 10, 12), 4).unwrap()
    }

    fn vals(p: u32) -> Vec<f64> {
        (0..p).map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn broadcast_simulation_matches_analytic() {
        for h in [steep(), Hierarchy::flat(&LogP::fig3())] {
            for tree in [hier_tree(&h), flat_tree(&h)] {
                let run = run_tree_broadcast_on(&h, &tree, 7.5, SimConfig::default());
                assert_eq!(run.per_proc, eval_broadcast(&h, &tree));
            }
        }
    }

    #[test]
    fn reduce_simulation_matches_analytic() {
        let h = steep();
        for tree in [hier_tree(&h), flat_tree(&h)] {
            let run = run_tree_reduce_on(&h, &tree, &vals(h.p()), SimConfig::default());
            assert_eq!(run.per_proc, eval_reduce(&h, &tree));
        }
    }

    #[test]
    fn allreduce_simulation_matches_analytic() {
        let h = steep();
        for tree in [hier_tree(&h), flat_tree(&h)] {
            let run = run_tree_allreduce_on(&h, &tree, &tree, &vals(h.p()), SimConfig::default());
            assert_eq!(run.per_proc, eval_allreduce(&h, &tree, &tree));
        }
    }

    #[test]
    fn hier_beats_flat_on_a_steep_machine() {
        let h = steep();
        let v = vals(h.p());
        let cfg = SimConfig::default;
        assert!(
            run_hier_broadcast(&h, 1.0, cfg()).completion
                < run_flat_broadcast_on(&h, 1.0, cfg()).completion
        );
        assert!(run_hier_sum(&h, &v, cfg()).completion < run_flat_sum_on(&h, &v, cfg()).completion);
        assert!(
            run_hier_allreduce(&h, &v, cfg()).completion
                < run_flat_allreduce_on(&h, &v, cfg()).completion
        );
        // And the analytic formulas predicted exactly these numbers.
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
            run_flat_sum_on(&h, &v, cfg()).per_proc[0],
            flat_sum_time_on(&h)
        );
        assert_eq!(
            run_hier_allreduce(&h, &v, cfg()).completion,
            hier_allreduce_time(&h)
        );
        assert_eq!(
            run_flat_allreduce_on(&h, &v, cfg()).completion,
            flat_allreduce_time_on(&h)
        );
    }

    #[test]
    fn correct_under_jitter_and_shards() {
        let h = steep();
        let v = vals(h.p());
        for cfg in [
            SimConfig::default().with_jitter(3).with_seed(7),
            SimConfig::default().with_shards(4),
        ] {
            let run = run_hier_allreduce(&h, &v, cfg);
            assert_eq!(run.value, v.iter().sum::<f64>());
        }
    }

    #[test]
    fn single_rank_hierarchy_is_free() {
        let h = Hierarchy::flat(&LogP::new(6, 2, 4, 1).unwrap());
        let run = run_hier_allreduce(&h, &[5.0], SimConfig::default());
        assert_eq!(run.value, 5.0);
        assert_eq!(run.completion, 0);
        assert_eq!(run.messages, 0);
    }
}
