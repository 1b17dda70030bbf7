//! Executable summation (§3.3, Figure 4).
//!
//! `run_optimal_sum` executes a `logp-core::summation::SumSchedule` on the
//! simulator with real floating-point data and checks that the root holds
//! the correct total at exactly the schedule's deadline. Every summation
//! here is the one tree program of `crate::tree` run up the reverse of
//! a tree, one addition charged per partial combined; what makes the
//! schedule optimal is the local work it passes the driver beside that
//! (paper, Figure 4 right panel):
//!
//! * before its part starts, each rank computes an initial chain of local
//!   input additions, timed so it goes idle exactly when its earliest
//!   child's partial sum arrives (a leaf: its whole budget);
//! * after every received partial but its last: the reception (`o`), the
//!   combine, and `s - o - 1` further local additions, where
//!   `s = max(g, o+1)`;
//! * after the last combine, the rank transmits its partial sum to its
//!   parent.
//!
//! A binomial-tree reduction with evenly distributed inputs serves as the
//! baseline the optimal schedule is compared against: the same program
//! with each rank's local additions before its part and nothing between.

use crate::resilient::{survivor_binomial_children, ResilientError, SurvivorMap};
use crate::tree::{run_tree, Phases, Run, Wire};
use logp_core::summation::{optimal_sum_schedule, SumSchedule};
use logp_core::{Cycles, LogP, ProcId, Tree};
use logp_sim::reliable::RetryConfig;
use logp_sim::{FaultPlan, Sim, SimConfig, SimResult};

/// Tag for partial-sum messages.
pub const TAG_PARTIAL: u32 = 0x50;

/// One addition per partial combined; a runner adds its local work.
const WIRE: Wire = Wire {
    up: TAG_PARTIAL,
    down: 0,
    combine: 1,
    before: Vec::new(),
    between: 0,
};

/// The reliable summation has always combined on receipt; its results
/// are pinned to that.
const RELIABLE: Wire = Wire {
    up: TAG_PARTIAL,
    down: 0,
    combine: 0,
    before: Vec::new(),
    between: 0,
};

/// Result of running a summation schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SumRun {
    /// The computed total.
    pub total: f64,
    /// When the root completed.
    pub completion: Cycles,
    /// Processors used.
    pub procs: u32,
    /// Total inputs summed.
    pub inputs: u64,
    /// The full result of the single measured run — trace, lifecycle
    /// log, and metrics (whatever `config` enabled).
    pub result: SimResult,
}

/// The sum of the synthetic inputs `first..first + count`.
fn inputs_sum(first: u64, count: u64) -> f64 {
    (first..first + count).map(|v| v as f64).sum()
}

/// A plain summation's run rooted at processor 0, as its runner reports it.
fn plain(run: Run<f64>, procs: u32, inputs: u64) -> SumRun {
    let &(_, total, done) = run
        .finals
        .iter()
        .find(|f| f.0 == 0)
        .expect("the root finishes");
    SumRun {
        total,
        completion: done.max(run.result.stats.completion),
        procs,
        inputs,
        result: run.result,
    }
}

/// Execute an optimal summation schedule with synthetic input values
/// `0, 1, 2, …` distributed per the schedule.
pub fn run_sum_schedule(sched: &SumSchedule, config: SimConfig) -> SumRun {
    let m = sched.model;
    let s = m.g.max(m.o + 1);
    let parents: Vec<Option<ProcId>> = sched.nodes.iter().map(|n| n.parent).collect();
    let tree = Tree::from_parents(&parents).expect("a schedule is a tree");
    let before = sched.nodes.iter().map(|node| {
        let (k, t) = (node.children.len() as u64, node.complete_at);
        if k == 0 {
            // A leaf completes at t having performed t additions.
            t
        } else {
            // Idle exactly at the earliest arrival:
            // t - (k-1)s - o - 1 additions from time 0.
            t - (k - 1) * s - m.o - 1
        }
    });
    let wire = Wire {
        before: before.collect(),
        between: s - m.o - 1,
        ..WIRE
    };
    // Inputs 0, 1, 2, … dealt out in processor order.
    let first: Vec<u64> = sched
        .nodes
        .iter()
        .scan(0, |next, node| {
            *next += node.local_inputs;
            Some(*next - node.local_inputs)
        })
        .collect();
    let value = |q: ProcId| inputs_sum(first[q as usize], sched.nodes[q as usize].local_inputs);
    let sim = Sim::new(m.with_p(sched.procs()), config);
    let run = run_tree(
        sim,
        &wire,
        0,
        0..sched.procs(),
        Phases::Up(&tree),
        value,
        None,
    )
    .expect("summation schedule terminates");
    plain(run, sched.procs(), sched.total_inputs)
}

/// Build and execute the optimal schedule for time budget `t`.
pub fn run_optimal_sum(m: &LogP, t: Cycles, config: SimConfig) -> SumRun {
    let sched = optimal_sum_schedule(m, t);
    run_sum_schedule(&sched, config)
}

/// Baseline: binomial-tree reduction of `n` evenly distributed values.
pub fn run_binomial_sum(m: &LogP, n: u64, config: SimConfig) -> SumRun {
    let p = u64::from(m.p);
    // `n` values dealt out in contiguous runs.
    let count = |q: ProcId| n / p + u64::from(u64::from(q) < n % p);
    let first = |q: ProcId| u64::from(q) * (n / p) + u64::from(q).min(n % p);
    let wire = Wire {
        before: (0..m.p).map(|q| count(q).saturating_sub(1)).collect(),
        ..WIRE
    };
    let value = |q| inputs_sum(first(q), count(q));
    let tree = Tree::binomial(m.p);
    let sim = Sim::new(*m, config);
    let run = run_tree(sim, &wire, 0, 0..m.p, Phases::Up(&tree), value, None)
        .expect("binomial sum terminates");
    plain(run, m.p, n)
}

/// Summation of `n` synthetic inputs `0, 1, 2, …` that tolerates the
/// fault plan: inputs are distributed round-robin over the *survivors*,
/// combined up a binomial tree rebuilt on survivor ranks (re-rooted if
/// processor 0 crashes), with every partial sum carried reliably
/// (ack / timeout / retransmit, duplicates suppressed). Errors when the
/// plan crashes every processor.
pub fn run_reliable_sum(
    m: &LogP,
    n: u64,
    plan: &FaultPlan,
    retry: RetryConfig,
    config: SimConfig,
) -> Result<SumRun, ResilientError> {
    let map = SurvivorMap::new(m.p, plan)?;
    let k = map.k();
    let up = survivor_binomial_children(m.p, &map);
    // Survivor rank r owns inputs {r, r + k, r + 2k, …} ∩ [0, n).
    let local = |q| {
        let r = map.rank_of(q).expect("only survivors take part");
        (r as u64..n).step_by(k as usize).map(|v| v as f64).sum()
    };
    let sim = Sim::new(*m, config.with_faults(plan.clone()));
    let ranks = map.survivors().iter().copied();
    let root = map.root();
    let run = run_tree(
        sim,
        &RELIABLE,
        root,
        ranks,
        Phases::Up(&up),
        local,
        Some(retry),
    )?;
    let (_, total, done) = run.finals.iter().find(|f| f.0 == root).expect("finished");
    Ok(SumRun {
        total: *total,
        // Logical completion: the root's last combine. `stats.completion`
        // would also count trailing stale retransmission timers.
        completion: *done,
        procs: k,
        inputs: n,
        result: run.result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use logp_core::summation::{min_sum_time, sum_capacity_bounded};

    /// Figure 4 golden test: the executable schedule completes at exactly
    /// T = 28 with the correct total of 79 inputs.
    #[test]
    fn figure4_executes_on_time() {
        let m = LogP::fig4();
        let run = run_optimal_sum(&m, 28, SimConfig::default());
        assert_eq!(run.inputs, 79);
        assert_eq!(run.procs, 8);
        assert_eq!(
            run.completion, 28,
            "schedule must complete exactly at its deadline"
        );
        let expected: f64 = (0..79).map(|v| v as f64).sum();
        assert_eq!(run.total, expected);
    }

    #[test]
    fn schedules_complete_exactly_at_deadline() {
        for (l, o, g, p, t) in [
            (5, 2, 4, 8, 28),
            (6, 2, 4, 16, 40),
            (3, 1, 2, 8, 20),
            (10, 0, 2, 32, 35),
            (4, 3, 2, 8, 30),
        ] {
            let m = LogP::new(l, o, g, p).unwrap();
            let run = run_optimal_sum(&m, t, SimConfig::default());
            assert_eq!(run.completion, t, "deadline missed on {m} T={t}");
            assert_eq!(run.inputs, sum_capacity_bounded(&m, t, p));
            let expected: f64 = (0..run.inputs).map(|v| v as f64).sum();
            assert_eq!(run.total, expected, "wrong sum on {m} T={t}");
        }
    }

    #[test]
    fn binomial_sum_is_correct() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        for n in [8u64, 100, 1000] {
            let run = run_binomial_sum(&m, n, SimConfig::default());
            let expected: f64 = (0..n).map(|v| v as f64).sum();
            assert_eq!(run.total, expected, "n={n}");
        }
    }

    #[test]
    fn optimal_beats_binomial_for_equal_inputs() {
        let m = LogP::fig4();
        // Find the optimal time for some n, then check binomial is slower
        // (or equal) for the same n.
        for n in [50u64, 79, 150] {
            let t = min_sum_time(&m, n, m.p);
            let opt = run_optimal_sum(&m, t, SimConfig::default());
            assert!(opt.inputs >= n);
            let base = run_binomial_sum(&m, n, SimConfig::default());
            assert!(
                base.completion >= t,
                "binomial {} beat optimal {} for n={n}",
                base.completion,
                t
            );
        }
    }

    #[test]
    fn reliable_sum_correct_under_drops_and_crashes() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let retry = RetryConfig::for_model(&m);
        // 5% drops, no crashes: full total.
        let plan = FaultPlan::new(0x5EED).with_drop_ppm(50_000);
        let run = run_reliable_sum(&m, 100, &plan, retry.clone(), SimConfig::default()).unwrap();
        assert_eq!(run.total, (0..100).map(|v| v as f64).sum::<f64>());
        assert_eq!(run.procs, 8);
        // Crash the root: re-roots and still sums all 100 inputs (inputs
        // live on survivors only, so nothing is lost with them).
        let plan = FaultPlan::new(0x5EED)
            .with_drop_ppm(50_000)
            .with_crash(0, 0);
        let run = run_reliable_sum(&m, 100, &plan, retry, SimConfig::default()).unwrap();
        assert_eq!(run.total, (0..100).map(|v| v as f64).sum::<f64>());
        assert_eq!(run.procs, 7);
    }

    #[test]
    fn sum_correct_under_latency_jitter() {
        // Jitter reorders message arrivals; addition is commutative so the
        // result must be unchanged (the paper's correctness criterion:
        // correct under all interleavings consistent with the bound L).
        let m = LogP::new(8, 2, 3, 16).unwrap();
        for seed in 0..5 {
            let cfg = SimConfig::default().with_jitter(7).with_seed(seed);
            let run = run_optimal_sum(&m, 40, cfg);
            let expected: f64 = (0..run.inputs).map(|v| v as f64).sum();
            assert_eq!(run.total, expected);
            assert!(run.completion <= 40, "jitter can only speed things up");
        }
    }
}
