//! Executable broadcast algorithms (§3.3, Figure 3).
//!
//! The analytic trees come from `logp-core::broadcast`; this module runs
//! any [`Tree`] as the down phase of the one tree program
//! (`crate::tree`), so the simulated completion can be checked against
//! (and visualized beside) the closed-form prediction.

use crate::resilient::{survivor_tree_children, ResilientError, SurvivorMap};
use crate::tree::{owned, run_tree, Phases, Run, Wire};
use logp_core::broadcast::{optimal_broadcast_tree, shape_children, TreeShape};
use logp_core::{Children, Cycles, LogP, ProcId, Tree};
use logp_sim::reliable::RetryConfig;
use logp_sim::{FaultPlan, Sim, SimConfig, SimResult};

/// Tag used by broadcast messages.
pub const TAG_BCAST: u32 = 0x42;

const WIRE: Wire = Wire {
    up: 0,
    down: TAG_BCAST,
    combine: 0,
    before: Vec::new(),
    between: 0,
};
/// The datum on the wire (no runner reports it).
const DATUM: f64 = 0xBEEF as f64;

/// Outcome of a simulated broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastRun {
    /// Simulated completion time (last processor holds the datum).
    pub completion: Cycles,
    /// Per-processor (id, time-held) pairs in arrival order.
    pub arrivals: Vec<(ProcId, Cycles)>,
    /// Messages delivered (must be `P - 1`).
    pub messages: u64,
    /// The full result of the single measured run — trace, lifecycle
    /// log, and metrics (whatever `config` enabled), so callers never
    /// re-run the simulation just to obtain them.
    pub result: SimResult,
}

/// Run a broadcast from processor 0 along an explicit tree: a [`Tree`],
/// or child lists.
///
/// # Panics
///
/// With the [`logp_core::TreeError`]'s message, before any simulation
/// starts, when `children` does not span the machine from processor 0.
pub fn run_tree_broadcast<C: Children + ?Sized>(
    m: &LogP,
    children: &C,
    config: SimConfig,
) -> BroadcastRun {
    broadcast_down(m, owned(children), config)
}

fn broadcast_down(m: &LogP, tree: Tree, config: SimConfig) -> BroadcastRun {
    let sim = Sim::new(*m, config);
    let run = run_tree(sim, &WIRE, 0, 0..m.p, Phases::Down(tree), |_| DATUM, None)
        .expect("every processor receives the datum exactly once");
    let (arrivals, completion) = arrivals(&run);
    BroadcastRun {
        completion,
        arrivals,
        messages: run.result.stats.total_msgs,
        result: run.result,
    }
}

/// Per-rank (id, time-held) pairs in arrival order, and the last of them.
fn arrivals(run: &Run<f64>) -> (Vec<(ProcId, Cycles)>, Cycles) {
    let arrivals: Vec<_> = run.finals.iter().map(|&(q, _, t)| (q, t)).collect();
    let completion = arrivals.iter().map(|a| a.1).max().unwrap_or(0);
    (arrivals, completion)
}

/// Run the optimal broadcast of §3.3.
pub fn run_optimal_broadcast(m: &LogP, config: SimConfig) -> BroadcastRun {
    broadcast_down(m, optimal_broadcast_tree(m).children(), config)
}

/// Run a baseline tree shape.
pub fn run_shape_broadcast(m: &LogP, shape: TreeShape, config: SimConfig) -> BroadcastRun {
    broadcast_down(m, shape_children(shape, m.p), config)
}

// ---------------------------------------------------------------------
// Fault-tolerant variants (see `crate::resilient` and
// `docs/FAILURE_MODEL.md`).
// ---------------------------------------------------------------------

/// Outcome of a broadcast degraded to a fault plan's survivors.
#[derive(Debug, Clone)]
pub struct ResilientBcastRun {
    /// Simulated time at which the last *survivor* held the datum.
    pub completion: Cycles,
    /// Per-survivor (id, time-held) pairs in arrival order.
    pub arrivals: Vec<(ProcId, Cycles)>,
    /// Retransmissions performed across all endpoints (`0` for the
    /// unreliable survivor broadcast).
    pub retries: u64,
    /// Wire messages delivered, acks included.
    pub messages: u64,
    /// Full result of the run (trace/log/metrics as `config` enabled).
    pub result: SimResult,
}

/// Broadcast over the plan's survivors only, with plain (unreliable)
/// sends: the optimal single-item tree is rebuilt on the `k`-survivor
/// machine and re-rooted at the lowest-numbered survivor.
///
/// With a crash-only plan (no message faults) the completion equals
/// `optimal_broadcast_time` of the `k`-processor machine — the
/// degradation oracle `fault_sweep`'s companion bench `degradation`
/// checks against.
pub fn run_survivor_broadcast(
    m: &LogP,
    plan: &FaultPlan,
    config: SimConfig,
) -> Result<ResilientBcastRun, ResilientError> {
    run_resilient(m, plan, None, config)
}

/// Broadcast that completes correctly under message loss: the survivor
/// tree of [`run_survivor_broadcast`] with every edge carried by a
/// reliable endpoint (ack / timeout / retransmit, at-most-once delivery).
/// Crashed processors — including a crashed physical root — are excluded
/// up front.
pub fn run_reliable_broadcast(
    m: &LogP,
    plan: &FaultPlan,
    retry: RetryConfig,
    config: SimConfig,
) -> Result<ResilientBcastRun, ResilientError> {
    run_resilient(m, plan, Some(retry), config)
}

fn run_resilient(
    m: &LogP,
    plan: &FaultPlan,
    retry: Option<RetryConfig>,
    config: SimConfig,
) -> Result<ResilientBcastRun, ResilientError> {
    let map = SurvivorMap::new(m.p, plan)?;
    let children = survivor_tree_children(m, &map);
    let sim = Sim::new(*m, config.with_faults(plan.clone()));
    let ranks = map.survivors().iter().copied();
    let phases = Phases::Down(children);
    let run = run_tree(sim, &WIRE, map.root(), ranks, phases, |_| DATUM, retry)?;
    // Logical completion: the last survivor's delivery. `stats.completion`
    // would also count trailing stale retransmission timers.
    let (arrivals, completion) = arrivals(&run);
    Ok(ResilientBcastRun {
        completion,
        arrivals,
        retries: run.retries,
        messages: run.result.stats.total_msgs,
        result: run.result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logp_core::broadcast::{
        optimal_broadcast_time, shape_broadcast_time, tree_broadcast_times,
    };

    #[test]
    fn figure3_simulated_equals_analytic() {
        let m = LogP::fig3();
        let run = run_optimal_broadcast(&m, SimConfig::default());
        assert_eq!(run.completion, 24);
        assert_eq!(run.completion, optimal_broadcast_time(&m));
        assert_eq!(run.messages, 7);
        let mut times: Vec<Cycles> = run.arrivals.iter().map(|a| a.1).collect();
        times.sort_unstable();
        assert_eq!(times, vec![0, 10, 14, 18, 20, 22, 24, 24]);
    }

    #[test]
    fn simulation_matches_analysis_across_machines_and_shapes() {
        for (l, o, g, p) in [(6, 2, 4, 8), (5, 2, 4, 16), (12, 3, 4, 33), (2, 1, 2, 64)] {
            let m = LogP::new(l, o, g, p).unwrap();
            for shape in [
                TreeShape::Flat,
                TreeShape::Linear,
                TreeShape::Binary,
                TreeShape::Binomial,
            ] {
                let run = run_shape_broadcast(&m, shape, SimConfig::default());
                assert_eq!(
                    run.completion,
                    shape_broadcast_time(&m, shape),
                    "simulated vs analytic mismatch for {shape:?} on {m}"
                );
            }
            let run = run_optimal_broadcast(&m, SimConfig::default());
            assert_eq!(run.completion, optimal_broadcast_time(&m));
        }
    }

    #[test]
    fn per_processor_arrivals_match_tree_times() {
        let m = LogP::new(9, 2, 3, 12).unwrap();
        let children = shape_children(TreeShape::Binomial, m.p);
        let run = run_tree_broadcast(&m, &children, SimConfig::default());
        let analytic = tree_broadcast_times(&m, &children);
        for (p, t) in &run.arrivals {
            assert_eq!(*t, analytic[*p as usize], "processor {p}");
        }
    }

    #[test]
    fn survivor_broadcast_matches_submachine_oracle() {
        // Crash two of 16: completion equals the optimal broadcast time
        // of the induced 14-processor machine — graceful degradation.
        let m = LogP::new(6, 2, 4, 16).unwrap();
        let plan = FaultPlan::new(1).with_crash(3, 0).with_crash(11, 0);
        let run = run_survivor_broadcast(&m, &plan, SimConfig::default()).unwrap();
        assert_eq!(run.arrivals.len(), 14);
        assert_eq!(run.completion, optimal_broadcast_time(&m.with_p(14)));
        assert_eq!(run.retries, 0);
    }

    #[test]
    fn crashed_root_re_roots_and_all_crashed_errors() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let plan = FaultPlan::new(1).with_crash(0, 0);
        let run = run_survivor_broadcast(&m, &plan, SimConfig::default()).unwrap();
        // Survivor 1 becomes the root (holds the datum at time 0).
        assert!(run.arrivals.contains(&(1, 0)));
        assert_eq!(run.arrivals.len(), 7);
        let mut all = FaultPlan::new(2);
        for q in 0..8 {
            all = all.with_crash(q, 0);
        }
        assert_eq!(
            run_survivor_broadcast(&m, &all, SimConfig::default()).unwrap_err(),
            crate::resilient::ResilientError::AllCrashed
        );
    }

    #[test]
    fn reliable_broadcast_survives_drops() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        // 5% drops: still covers everyone; retransmissions do the work.
        let plan = FaultPlan::new(0xD0_5E).with_drop_ppm(50_000);
        let run = run_reliable_broadcast(
            &m,
            &plan,
            RetryConfig::for_tree(&m, 4),
            SimConfig::default(),
        )
        .unwrap();
        assert_eq!(run.arrivals.len(), 8);
        let lossless = run_reliable_broadcast(
            &m,
            &FaultPlan::new(0xD0_5E),
            RetryConfig::for_tree(&m, 4),
            SimConfig::default(),
        )
        .unwrap();
        assert!(run.completion >= lossless.completion);
    }

    #[test]
    fn broadcast_correct_under_latency_jitter() {
        // Jitter shortens latencies; the broadcast still covers everyone
        // and cannot take longer than the deterministic bound.
        let m = LogP::new(10, 2, 3, 32).unwrap();
        let bound = optimal_broadcast_time(&m);
        for seed in 0..5 {
            let cfg = SimConfig::default().with_jitter(9).with_seed(seed);
            let run = run_optimal_broadcast(&m, cfg);
            assert_eq!(run.arrivals.len(), 32);
            assert!(run.completion <= bound);
        }
    }
}
