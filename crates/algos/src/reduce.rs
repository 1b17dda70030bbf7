//! Executable summation (§3.3, Figure 4).
//!
//! `run_optimal_sum` executes a `logp-core::summation::SumSchedule` on the
//! simulator with real floating-point data and checks that the root holds
//! the correct total at exactly the schedule's deadline. The schedule's
//! computation pattern per processor (paper, Figure 4 right panel):
//!
//! * an initial chain of local input additions, timed so the processor
//!   goes idle exactly when its earliest child's partial sum arrives;
//! * per received message: the reception (`o`), one combine addition, and
//!   `s - o - 1` further local additions, where `s = max(g, o+1)`;
//! * after the last combine, transmit the partial sum to the parent.
//!
//! A binomial-tree reduction with evenly distributed inputs serves as the
//! baseline the optimal schedule is compared against.

use crate::resilient::{survivor_binomial_children, ResilientError, SurvivorMap};
use crate::tree::{run_tree, Phases, Wire};
use logp_core::summation::{optimal_sum_schedule, SumSchedule};
use logp_core::{Cycles, LogP, ProcId, Tree};
use logp_sim::reliable::RetryConfig;
use logp_sim::{Ctx, Data, FaultPlan, Message, Process, SharedCell, Sim, SimConfig, SimResult};

/// Tag for partial-sum messages.
pub const TAG_PARTIAL: u32 = 0x50;

/// The reliable summation has always combined on receipt; its results
/// are pinned to that.
const RELIABLE: Wire = Wire {
    up: TAG_PARTIAL,
    down: 0,
    combine: 0,
};

const TAG_CHUNK: u64 = 1;
const TAG_FINAL: u64 = 2;

struct SumProc {
    /// Values this processor owns.
    local: Vec<f64>,
    parent: Option<ProcId>,
    /// Number of children (messages to combine).
    k: u64,
    /// Initial local-addition chain length, in additions.
    initial_chain: Cycles,
    /// Per-message trailing work: 1 combine + (s - o - 1) local additions.
    chunk: Cycles,
    received: u64,
    partial: f64,
    out: SharedCell<SumOutcome>,
}

/// What the host observes after the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SumOutcome {
    /// The root's total.
    pub total: f64,
    /// Simulated time at which the root finished its last addition.
    pub root_done_at: Cycles,
}

impl SumProc {
    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(parent) = self.parent {
            ctx.send(parent, TAG_PARTIAL, Data::F64(self.partial));
        } else {
            let outcome = SumOutcome {
                total: self.partial,
                root_done_at: ctx.now(),
            };
            self.out.with(|o| *o = outcome.clone());
        }
    }
}

impl Process for SumProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.partial = self.local.iter().sum();
        // `initial_chain` additions of local inputs; for a leaf this is
        // the whole job.
        ctx.compute(
            self.initial_chain,
            if self.k == 0 { TAG_FINAL } else { TAG_CHUNK },
        );
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        assert_eq!(msg.tag, TAG_PARTIAL);
        self.partial += msg.data.as_f64();
        self.received += 1;
        if self.received < self.k {
            // Combine (1 cycle) plus the between-messages local chain.
            ctx.compute(self.chunk, TAG_CHUNK);
        } else {
            // Last combine: 1 cycle, then ship/record.
            ctx.compute(1, TAG_FINAL);
        }
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        if tag == TAG_FINAL {
            self.finish(ctx);
        }
        // TAG_CHUNK: now idle; the engine will deliver the next partial
        // sum, whose arrival the schedule aligned with this moment.
    }
}

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

/// Execute an optimal summation schedule with synthetic input values
/// `0, 1, 2, …` distributed per the schedule.
pub fn run_sum_schedule(sched: &SumSchedule, config: SimConfig) -> SumRun {
    let m = sched.model;
    let s = m.g.max(m.o + 1);
    let out: SharedCell<SumOutcome> = SharedCell::new();
    let mut sim = Sim::new(m.with_p(sched.procs().max(1)), config);
    let mut next_value = 0u64;
    for node in &sched.nodes {
        let local: Vec<f64> = (0..node.local_inputs)
            .map(|_| {
                let v = next_value as f64;
                next_value += 1;
                v
            })
            .collect();
        let k = node.children.len() as u64;
        let t = node.complete_at;
        let initial_chain = if k == 0 {
            // A leaf completes at t having performed t additions.
            t
        } else {
            // Idle exactly at the earliest arrival:
            // t - (k-1)s - o - 1 additions from time 0.
            t - (k - 1) * s - m.o - 1
        };
        sim.set_process(
            node.proc,
            Box::new(SumProc {
                local,
                parent: node.parent,
                k,
                initial_chain,
                chunk: s - m.o,
                received: 0,
                partial: 0.0,
                out: out.clone(),
            }),
        );
    }
    let result = sim.run().expect("summation schedule terminates");
    let outcome = out.get();
    SumRun {
        total: outcome.total,
        completion: outcome.root_done_at.max(result.stats.completion),
        procs: sched.procs(),
        inputs: sched.total_inputs,
        result,
    }
}

/// Build and execute the optimal schedule for time budget `t`.
pub fn run_optimal_sum(m: &LogP, t: Cycles, config: SimConfig) -> SumRun {
    let sched = optimal_sum_schedule(m, t);
    run_sum_schedule(&sched, config)
}

/// Baseline: binomial-tree reduction of `n` evenly distributed values.
/// Returns (total, completion).
pub fn run_binomial_sum(m: &LogP, n: u64, config: SimConfig) -> SumRun {
    struct Node {
        partial: f64,
        /// Compute steps that must finish before shipping: one local chain
        /// plus one combine per expected message.
        steps_needed: u32,
        steps_done: u32,
        peer_when_done: Option<ProcId>,
        local_adds: Cycles,
        out: SharedCell<SumOutcome>,
    }
    impl Process for Node {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.compute(self.local_adds, 0);
        }
        fn on_compute_done(&mut self, _tag: u64, ctx: &mut Ctx<'_>) {
            self.steps_done += 1;
            if self.steps_done == self.steps_needed {
                if let Some(parent) = self.peer_when_done {
                    ctx.send(parent, TAG_PARTIAL, Data::F64(self.partial));
                    ctx.halt();
                } else {
                    let oc = SumOutcome {
                        total: self.partial,
                        root_done_at: ctx.now(),
                    };
                    self.out.with(|o| *o = oc.clone());
                    ctx.halt();
                }
            }
        }
        fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
            self.partial += msg.data.as_f64();
            // One combine addition per received partial.
            ctx.compute(1, 1);
        }
    }

    let p = m.p;
    let out: SharedCell<SumOutcome> = SharedCell::new();
    // Each processor combines its children's partials, then sends to its
    // parent in the canonical binomial tree.
    let tree = Tree::binomial(p);
    let mut parent = vec![None; p as usize];
    for (q, kids) in tree.iter().enumerate() {
        for &c in kids {
            parent[c as usize] = Some(q as ProcId);
        }
    }
    let mut sim = Sim::new(*m, config);
    let mut start = 0u64;
    for i in 0..p {
        // `n` values dealt out in contiguous runs.
        let count = n / p as u64 + if (i as u64) < n % p as u64 { 1 } else { 0 };
        let local: f64 = (start..start + count).map(|v| v as f64).sum();
        start += count;
        sim.set_process(
            i,
            Box::new(Node {
                partial: local,
                steps_needed: tree[i as usize].len() as u32 + 1,
                steps_done: 0,
                peer_when_done: parent[i as usize],
                local_adds: count.saturating_sub(1),
                out: out.clone(),
            }),
        );
    }
    let result = sim.run().expect("binomial sum terminates");
    let oc = out.get();
    SumRun {
        total: oc.total,
        completion: oc.root_done_at.max(result.stats.completion),
        procs: p,
        inputs: n,
        result,
    }
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
