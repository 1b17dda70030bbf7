//! All-reduce: every processor ends with the global sum.
//!
//! Not a named example in the paper, but the natural composition of its
//! two §3.3 primitives — a summation into the root followed by the
//! optimal broadcast — and the workhorse of iterative numerical codes.
//! Two strategies:
//!
//! * **reduce + broadcast**: binomial combine to processor 0, then the
//!   optimal LogP broadcast tree back out;
//! * **recursive doubling (butterfly)**: `⌈log2 P⌉` rounds of pairwise
//!   exchange — twice the bandwidth, half the rounds; which wins depends
//!   on the machine point, exactly the kind of adaptivity the paper
//!   advocates.

use crate::resilient::{
    survivor_binomial_children, survivor_tree_children, ResilientError, SurvivorMap,
};
use crate::step::{run_steps, Arrival, Out, Steps};
use crate::tree::{run_tree, Phases, Wire};
use logp_core::broadcast::optimal_broadcast_tree;
use logp_core::{Cycles, LogP, ProcId, Tree};
use logp_sim::reliable::RetryConfig;
use logp_sim::{FaultPlan, Sim, SimConfig, SimResult};

const TAG_UP: u32 = 0x91;
const TAG_DOWN: u32 = 0x92;
const TAG_XCHG: u32 = 0x93;

/// One combine addition per received partial sum.
const PLAIN: Wire = Wire {
    up: TAG_UP,
    down: TAG_DOWN,
    combine: 1,
    before: Vec::new(),
    between: 0,
};
/// The reliable all-reduce has always combined on receipt; its results
/// are pinned to that.
const RELIABLE: Wire = Wire {
    up: TAG_UP,
    down: TAG_DOWN,
    combine: 0,
    before: Vec::new(),
    between: 0,
};

/// Result of an all-reduce run.
#[derive(Debug, Clone)]
pub struct AllReduceRun {
    /// The reduced value (identical on every processor, asserted).
    pub value: f64,
    pub completion: Cycles,
    pub messages: u64,
    /// The underlying engine result (stats, trace, obs, metrics).
    pub result: SimResult,
}

// ---------------------------------------------------------------------
// Strategy 1: binomial reduce, then optimal broadcast.
// ---------------------------------------------------------------------

/// Reduce-then-broadcast all-reduce over one value per processor.
pub fn run_allreduce_reduce_bcast(m: &LogP, values: &[f64], config: SimConfig) -> AllReduceRun {
    let p = m.p;
    assert_eq!(values.len(), p as usize);
    // Up tree: binomial (trailing-zeros convention); down tree: the
    // optimal broadcast tree — arrival-ordered ids happen to be 0..P, and
    // tree node ids coincide with processor ids here.
    let up = Tree::binomial(p);
    let down = optimal_broadcast_tree(m).children();
    let (sim, phases) = (Sim::new(*m, config), Phases::UpDown(&up, down));
    let run = run_tree(sim, &PLAIN, 0, 0..p, phases, |q| values[q as usize], None)
        .expect("every processor finishes exactly once");
    finish(&run.finals, run.result, values.iter().sum())
}

// ---------------------------------------------------------------------
// Strategy 2: recursive doubling (butterfly exchange).
// ---------------------------------------------------------------------

/// One rank of the butterfly: at step `s` it swaps partials with the rank
/// whose id differs in bit `s`, and adds the one it gets.
struct Doubling {
    me: ProcId,
    rounds: u32,
    value: f64,
}

impl Steps for Doubling {
    type Final = f64;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        out.send_f64(self.me ^ (1 << s), TAG_XCHG, 0, self.value);
    }

    fn expect(&self, _: u32) -> usize {
        1
    }

    fn fold(&mut self, _: u32, msgs: &[Arrival]) -> Cycles {
        self.value += msgs[0].value();
        1 // the combine addition
    }

    fn finish(&mut self) -> f64 {
        self.value
    }

    fn steps(&self) -> u32 {
        self.rounds
    }
}

/// Recursive-doubling all-reduce (requires power-of-two `P`).
pub fn run_allreduce_doubling(m: &LogP, values: &[f64], config: SimConfig) -> AllReduceRun {
    let p = m.p;
    assert!(
        (p as u64).is_power_of_two(),
        "doubling requires power-of-two P"
    );
    assert_eq!(values.len(), p as usize);
    let rounds = logp_core::cost::log2_exact(p as u64);
    let run = run_steps(Sim::new(*m, config), 0..p, None, |q| Doubling {
        me: q,
        rounds,
        value: values[q as usize],
    })
    .expect("every rank folds its last step once");
    finish(&run.finals, run.result, values.iter().sum())
}

// ---------------------------------------------------------------------
// Fault-tolerant variant: the same two trees over the survivors, every
// edge carried by a reliable endpoint.
// ---------------------------------------------------------------------

/// All-reduce that tolerates the fault plan: the *survivors'* values are
/// combined up a binomial tree over survivor ranks and broadcast back
/// down the survivors' optimal tree, with every edge reliable (ack /
/// timeout / retransmit). `values` is indexed by physical processor;
/// crashed processors' entries do not contribute. Errors when everyone
/// crashes.
pub fn run_reliable_allreduce(
    m: &LogP,
    values: &[f64],
    plan: &FaultPlan,
    retry: RetryConfig,
    config: SimConfig,
) -> Result<AllReduceRun, ResilientError> {
    assert_eq!(values.len(), m.p as usize);
    let map = SurvivorMap::new(m.p, plan)?;
    let up = survivor_binomial_children(m.p, &map);
    let down = survivor_tree_children(m, &map);
    let sim = Sim::new(*m, config.with_faults(plan.clone()));
    let ranks = map.survivors().iter().copied();
    let (phases, value) = (Phases::UpDown(&up, down), |q| values[q as usize]);
    let run = run_tree(
        sim,
        &RELIABLE,
        map.root(),
        ranks,
        phases,
        value,
        Some(retry),
    )?;
    let expect = map.survivors().iter().map(|&q| values[q as usize]).sum();
    // Logical completion (in `finish`): the last survivor's final value,
    // not the tail of stale retransmission timers in `stats.completion`.
    Ok(finish(&run.finals, run.result, expect))
}

/// Every final must be the expected total; completion is the last one.
fn finish(finals: &[(ProcId, f64, Cycles)], result: SimResult, expect: f64) -> AllReduceRun {
    // Different processors combine in different orders (especially under
    // recursive doubling), so totals agree only up to floating-point
    // association — the standard all-reduce caveat.
    let tol = 1e-12 * expect.abs().max(1.0);
    for (q, v, _) in finals {
        assert!(
            (*v - expect).abs() <= tol,
            "processor {q} holds a wrong total: {v} vs {expect}"
        );
    }
    AllReduceRun {
        value: expect,
        completion: finals.iter().map(|f| f.2).max().unwrap_or(0),
        messages: result.stats.total_msgs,
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(p: u32) -> Vec<f64> {
        (0..p).map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn both_strategies_agree_on_the_value() {
        let m = LogP::new(6, 2, 4, 16).unwrap();
        let v = vals(16);
        let a = run_allreduce_reduce_bcast(&m, &v, SimConfig::default());
        let b = run_allreduce_doubling(&m, &v, SimConfig::default());
        assert_eq!(a.value, b.value);
        assert_eq!(a.value, 136.0);
    }

    #[test]
    fn doubling_uses_more_messages_fewer_rounds() {
        let m = LogP::new(6, 2, 4, 16).unwrap();
        let v = vals(16);
        let a = run_allreduce_reduce_bcast(&m, &v, SimConfig::default());
        let b = run_allreduce_doubling(&m, &v, SimConfig::default());
        // Reduce+broadcast: 2(P-1) messages; doubling: P·log2 P.
        assert_eq!(a.messages, 30);
        assert_eq!(b.messages, 64);
        // With cheap bandwidth (small g), the shallower butterfly wins.
        assert!(
            b.completion < a.completion,
            "doubling {} vs r+b {}",
            b.completion,
            a.completion
        );
    }

    #[test]
    fn crossover_depends_on_the_machine() {
        // With expensive bandwidth (large g) the message-frugal
        // reduce+broadcast catches up or wins — the paper's adaptivity
        // argument. (At minimum the gap must shrink.)
        let v = vals(16);
        let cheap = LogP::new(6, 2, 1, 16).unwrap();
        let dear = LogP::new(6, 2, 60, 16).unwrap();
        let ratio = |m: &LogP| {
            let a = run_allreduce_reduce_bcast(m, &v, SimConfig::default());
            let b = run_allreduce_doubling(m, &v, SimConfig::default());
            a.completion as f64 / b.completion as f64
        };
        assert!(
            ratio(&dear) < ratio(&cheap),
            "expensive bandwidth must favor the frugal strategy"
        );
    }

    #[test]
    fn correct_under_jitter() {
        let m = LogP::new(10, 2, 3, 8).unwrap();
        let v = vals(8);
        for seed in 0..4 {
            let cfg = SimConfig::default().with_jitter(8).with_seed(seed);
            let a = run_allreduce_reduce_bcast(&m, &v, cfg.clone());
            let b = run_allreduce_doubling(&m, &v, cfg);
            assert_eq!(a.value, 36.0, "seed {seed}");
            assert_eq!(b.value, 36.0, "seed {seed}");
        }
    }

    #[test]
    fn reliable_allreduce_survives_drops_and_crashes() {
        let m = LogP::new(6, 2, 4, 16).unwrap();
        let v = vals(16);
        let retry = RetryConfig::for_model(&m);
        let plan = FaultPlan::new(0xA11).with_drop_ppm(50_000);
        let a = run_reliable_allreduce(&m, &v, &plan, retry.clone(), SimConfig::default()).unwrap();
        assert_eq!(a.value, 136.0);
        // Crash two (values 3 and 9 drop out of the sum).
        let plan = FaultPlan::new(0xA11)
            .with_drop_ppm(50_000)
            .with_crash(2, 0)
            .with_crash(8, 0);
        let b = run_reliable_allreduce(&m, &v, &plan, retry, SimConfig::default()).unwrap();
        assert_eq!(b.value, 136.0 - 3.0 - 9.0);
    }

    #[test]
    fn single_value_edge() {
        let m = LogP::new(6, 2, 4, 1).unwrap();
        let run = run_allreduce_reduce_bcast(&m, &[5.0], SimConfig::default());
        assert_eq!(run.value, 5.0);
        assert_eq!(run.messages, 0);
    }
}
