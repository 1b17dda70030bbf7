//! Seeded generator of random *valid* workload DAGs, for differential
//! testing (classic vs sharded vs lane counts, with and without fault
//! plans).
//!
//! Programs are acyclic and validator-clean by construction: explicit
//! dependencies only point to earlier nodes on the same processor, every
//! send is created together with its recv, self-sends are excluded, and
//! a barrier round adds one node on *every* processor. Generation is a
//! pure function of `(seed, config)` via counter-mode SplitMix64, so a
//! failing seed reproduces anywhere.

use crate::ir::{NodeId, Op, Payload, Workload};
use logp_core::rng::CounterRng;
use logp_core::ProcId;

/// Shape bounds for generated workloads.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Minimum processor count (inclusive), >= 2 so sends exist.
    pub min_procs: u32,
    /// Maximum processor count (inclusive).
    pub max_procs: u32,
    /// Maximum generation steps (each step adds 1..=P nodes).
    pub max_steps: u32,
    /// Allow barrier rounds.
    pub barriers: bool,
    /// Allow timers.
    pub timers: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            min_procs: 2,
            max_procs: 8,
            max_steps: 24,
            barriers: true,
            timers: true,
        }
    }
}

/// Generate a random valid workload. The result always passes
/// [`Workload::validate`] (pinned by test over many seeds) and never
/// deadlocks under fault-free execution.
pub fn gen_workload(seed: u64, cfg: &FuzzConfig) -> Workload {
    let mut rng = CounterRng::new(seed ^ 0x574c_4447_454e); // "WLDGEN"
                                                            // NB: `next_in(b)` is inclusive — it samples 0..=b.
    let procs = cfg.min_procs + rng.next_in((cfg.max_procs - cfg.min_procs) as u64) as u32;
    let steps = 3 + rng.next_in((cfg.max_steps.max(3) - 3) as u64) as u32;
    let mut wl = Workload::new(format!("fuzz_{seed}"), procs);
    // Earlier nodes per processor, candidates for `after:` edges.
    let mut on_proc: Vec<Vec<NodeId>> = vec![Vec::new(); procs as usize];
    let mut n = 0u32;
    let label = |n: &mut u32| {
        let l = format!("n{n}");
        *n += 1;
        l
    };
    for _ in 0..steps {
        let choice = rng.next_in(9);
        match choice {
            // Send/recv pair on a random channel.
            0..=3 => {
                let src = rng.next_in(procs as u64 - 1) as ProcId;
                let dst = (src + 1 + rng.next_in(procs as u64 - 2) as u32) % procs;
                let tag = rng.next_in(2) as u32;
                let payload = match rng.next_in(2) {
                    0 => Payload::Empty,
                    1 => Payload::Word(rng.next_u64() & 0xFFFF),
                    _ => Payload::Block(1 + rng.next_in(3) as u32),
                };
                let sdeps = pick_deps(&mut rng, &on_proc[src as usize]);
                let s = wl.node(label(&mut n), src, Op::Send { dst, tag, payload }, &sdeps);
                on_proc[src as usize].push(s);
                let rdeps = pick_deps(&mut rng, &on_proc[dst as usize]);
                let r = wl.node(label(&mut n), dst, Op::Recv { src, tag }, &rdeps);
                on_proc[dst as usize].push(r);
            }
            // Compute.
            4..=6 => {
                let q = rng.next_in(procs as u64 - 1) as ProcId;
                let deps = pick_deps(&mut rng, &on_proc[q as usize]);
                let id = wl.node(
                    label(&mut n),
                    q,
                    Op::Compute {
                        cycles: rng.next_in(16),
                    },
                    &deps,
                );
                on_proc[q as usize].push(id);
            }
            // Timer (compute if disabled).
            7..=8 => {
                let q = rng.next_in(procs as u64 - 1) as ProcId;
                let deps = pick_deps(&mut rng, &on_proc[q as usize]);
                let cycles = 1 + rng.next_in(23);
                let op = if cfg.timers {
                    Op::Timer { cycles }
                } else {
                    Op::Compute { cycles }
                };
                let id = wl.node(label(&mut n), q, op, &deps);
                on_proc[q as usize].push(id);
            }
            // Barrier round: one node on every processor.
            _ => {
                if !cfg.barriers {
                    continue;
                }
                for q in 0..procs {
                    let deps = pick_deps(&mut rng, &on_proc[q as usize]);
                    let id = wl.node(label(&mut n), q, Op::Barrier, &deps);
                    on_proc[q as usize].push(id);
                }
            }
        }
    }
    debug_assert!(wl.validate().is_ok(), "generator must emit valid DAGs");
    wl
}

/// Up to two distinct dependencies among a processor's earlier nodes.
fn pick_deps(rng: &mut CounterRng, earlier: &[NodeId]) -> Vec<NodeId> {
    let want = rng.next_in(2) as usize;
    let mut deps = Vec::new();
    for _ in 0..want.min(earlier.len()) {
        let d = earlier[rng.next_in(earlier.len() as u64 - 1) as usize];
        if !deps.contains(&d) {
            deps.push(d);
        }
    }
    deps
}
