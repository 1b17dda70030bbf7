//! Broadcasting `k` items (the companion problem to Figure 3's single
//! datum; Karp, Sahay, Santos & Schauser's TR treats it alongside the
//! single-item optimum).
//!
//! Three portable strategies, whose crossover depends on the machine —
//! the paper's central "adapt to the parameters" message:
//!
//! * **pipelined optimal tree**: stream the k items down the single-item
//!   optimal tree; each internal node forwards item after item. Deep
//!   fan-out trees pay their depth once but keep every link busy;
//! * **binomial tree**: lower depth, higher per-node fan-out — each extra
//!   child multiplies the per-item occupancy of a node;
//! * **scatter + all-gather**: split the vector into `P` blocks, scatter
//!   block `d` to processor `d`, then ring all-gather — the
//!   bandwidth-optimal strategy for large `k` (every processor moves
//!   ~`2k` items instead of `k·fanout`).

use crate::resilient::{survivor_tree_children, ResilientError, SurvivorMap};
use crate::step::{run_steps, Arrival, Out, Steps};
use crate::tree::Run;
use logp_core::broadcast::{optimal_broadcast_tree, shape_children, TreeShape};
use logp_core::{Cycles, LogP, ProcId, Tree};
use logp_sim::reliable::RetryConfig;
use logp_sim::{FaultPlan, Sim, SimConfig, SimResult};
use std::ops::Range;
use std::sync::Arc;

const TAG_ITEM: u32 = 0x100; // Pair(index, value)
const TAG_BLOCK: u32 = 0x101; // the same, in the ring phase

/// Result of a run.
#[derive(Debug, Clone)]
pub struct KBcastRun {
    pub completion: Cycles,
    pub messages: u64,
    /// Full result of the single measured run (trace/log/metrics as
    /// enabled by `config`), so callers never re-run for a trace.
    pub result: SimResult,
}

// ---------------------------------------------------------------------
// Tree pipelining (works for any tree).
// ---------------------------------------------------------------------

/// One rank of the pipeline: one step, in which the root streams the
/// items item-major to its children (every subtree's pipeline keeps
/// moving), and every other rank relays each item down its part of the
/// tree as it arrives.
struct Pipe {
    /// The run's one tree; this rank forwards to `tree[me]`.
    tree: Arc<Tree>,
    me: ProcId,
    root: bool,
    items: Vec<u64>,
}

impl Steps for Pipe {
    type Final = Vec<u64>;

    fn send(&mut self, _: u32, out: &mut Out<'_, '_>) {
        if self.root {
            for (idx, &v) in self.items.iter().enumerate() {
                for &c in self.relay(0) {
                    out.send(c, TAG_ITEM, idx, v);
                }
            }
        }
    }

    fn expect(&self, _: u32) -> usize {
        if self.root {
            0
        } else {
            self.items.len()
        }
    }

    fn fold(&mut self, _: u32, msgs: &[Arrival]) -> Cycles {
        for a in msgs {
            self.items[a.idx()] = a.word;
        }
        0
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.items)
    }

    fn steps(&self) -> u32 {
        1
    }

    fn relay(&self, _: u32) -> &[ProcId] {
        &self.tree[self.me as usize]
    }
}

/// Stream `items` from `root` down `children` to every rank of `ranks`,
/// over plain sends or (given `retry`) reliable ones.
fn run_tree_pipeline(
    sim: Sim,
    root: ProcId,
    ranks: impl Iterator<Item = ProcId>,
    children: Tree,
    items: &[u64],
    retry: Option<RetryConfig>,
) -> Result<KBcastRun, ResilientError> {
    let tree = Arc::new(children);
    let run = run_steps(sim, ranks, retry, |q| Pipe {
        tree: tree.clone(),
        me: q,
        root: q == root,
        items: if q == root {
            items.to_vec()
        } else {
            vec![0; items.len()]
        },
    })?;
    Ok(delivered(run, items))
}

/// Every rank must hold `items`; completion is the last full vector, not
/// the tail of stale retransmission timers in `stats.completion`.
fn delivered(run: Run<Vec<u64>>, items: &[u64]) -> KBcastRun {
    for (q, got, _) in &run.finals {
        assert_eq!(got, items, "processor {q} received a wrong vector");
    }
    KBcastRun {
        completion: run.finals.iter().map(|f| f.2).max().unwrap_or(0),
        messages: run.result.stats.total_msgs,
        result: run.result,
    }
}

/// Stream `items` down the single-item optimal tree.
pub fn run_kbcast_optimal_tree(m: &LogP, items: &[u64], config: SimConfig) -> KBcastRun {
    let children = optimal_broadcast_tree(m).children();
    run_tree_pipeline(Sim::new(*m, config), 0, 0..m.p, children, items, None)
        .expect("every processor finishes exactly once")
}

/// Stream `items` down the binomial tree.
pub fn run_kbcast_binomial(m: &LogP, items: &[u64], config: SimConfig) -> KBcastRun {
    let children = shape_children(TreeShape::Binomial, m.p);
    run_tree_pipeline(Sim::new(*m, config), 0, 0..m.p, children, items, None)
        .expect("every processor finishes exactly once")
}

/// Pipelined k-item broadcast that tolerates the fault plan: `items`
/// stream down the optimal single-item tree rebuilt over the survivors
/// (re-rooted if processor 0 crashes), every edge reliable. Errors when
/// everyone crashes.
pub fn run_reliable_kbroadcast(
    m: &LogP,
    items: &[u64],
    plan: &FaultPlan,
    retry: RetryConfig,
    config: SimConfig,
) -> Result<KBcastRun, ResilientError> {
    let map = SurvivorMap::new(m.p, plan)?;
    let children = survivor_tree_children(m, &map);
    let sim = Sim::new(*m, config.with_faults(plan.clone()));
    let ranks = map.survivors().iter().copied();
    run_tree_pipeline(sim, map.root(), ranks, children, items, Some(retry))
}

// ---------------------------------------------------------------------
// Scatter + ring all-gather.
// ---------------------------------------------------------------------

/// One rank of the scatter + ring all-gather over `p` blocks of `k`
/// items. Step 0 is the scatter: rank 0 sends every other rank its block,
/// and each of them waits for its own. Step `r + 1` is ring round `r`: a
/// rank passes right the block that started `r` hops upstream, and keeps
/// the one that arrives from the left.
struct ScatterGather {
    me: ProcId,
    p: u32,
    /// Every item; a rank's own block and those that have come by are
    /// filled in.
    items: Vec<u64>,
}

impl ScatterGather {
    /// The items of block `d`: the `d`-th contiguous chunk, sizes
    /// differing by at most 1.
    fn block(&self, d: ProcId) -> Range<usize> {
        let (k, p, d) = (self.items.len(), self.p as usize, d as usize);
        let (base, extra) = (k / p, k % p);
        let lo = d * base + d.min(extra);
        lo..lo + base + usize::from(d < extra)
    }
}

impl Steps for ScatterGather {
    type Final = Vec<u64>;

    fn send(&mut self, s: u32, out: &mut Out<'_, '_>) {
        let (me, p) = (self.me, self.p);
        match s {
            // The root ships each item once, not P-1 times: this is what
            // makes the strategy bandwidth-bound rather than root-bound.
            0 if me == 0 => {
                for d in 1..p {
                    for i in self.block(d) {
                        out.send(d, TAG_ITEM, i, self.items[i]);
                    }
                }
            }
            0 => {}
            s => {
                for i in self.block((me + p + 1 - s) % p) {
                    out.send((me + 1) % p, TAG_BLOCK, i, self.items[i]);
                }
            }
        }
    }

    fn expect(&self, s: u32) -> usize {
        match s {
            0 if self.me == 0 => 0,
            0 => self.block(self.me).len(),
            s => self.block((self.me + self.p - s) % self.p).len(),
        }
    }

    fn fold(&mut self, _: u32, msgs: &[Arrival]) -> Cycles {
        for a in msgs {
            self.items[a.idx()] = a.word;
        }
        0
    }

    fn finish(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.items)
    }

    fn steps(&self) -> u32 {
        self.p
    }
}

/// Scatter + ring all-gather broadcast of `items`.
pub fn run_kbcast_scatter_gather(m: &LogP, items: &[u64], config: SimConfig) -> KBcastRun {
    let p = m.p;
    assert!(p >= 2);
    let run = run_steps(Sim::new(*m, config), 0..m.p, None, |q| ScatterGather {
        me: q,
        p,
        items: if q == 0 {
            items.to_vec()
        } else {
            vec![0; items.len()]
        },
    })
    .expect("every rank folds its last step once");
    delivered(run, items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(k: usize) -> Vec<u64> {
        (0..k as u64).map(|i| i * 7 + 1).collect()
    }

    #[test]
    fn all_strategies_deliver_everything() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let v = items(24);
        for run in [
            run_kbcast_optimal_tree(&m, &v, SimConfig::default()),
            run_kbcast_binomial(&m, &v, SimConfig::default()),
            run_kbcast_scatter_gather(&m, &v, SimConfig::default()),
        ] {
            assert!(run.completion > 0);
        }
    }

    #[test]
    fn single_item_reduces_to_figure3() {
        let m = LogP::fig3();
        let run = run_kbcast_optimal_tree(&m, &[42], SimConfig::default());
        assert_eq!(run.completion, 24);
        assert_eq!(run.messages, 7);
    }

    #[test]
    fn scatter_gather_wins_for_large_k() {
        // Tree pipelining makes the root send k·fanout messages;
        // scatter+all-gather moves ~2k per processor. For large k on a
        // bandwidth-tight machine the latter wins.
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let v = items(256);
        let tree = run_kbcast_optimal_tree(&m, &v, SimConfig::default());
        let sg = run_kbcast_scatter_gather(&m, &v, SimConfig::default());
        assert!(
            sg.completion < tree.completion,
            "scatter-gather {} vs tree {}",
            sg.completion,
            tree.completion
        );
    }

    #[test]
    fn tree_wins_for_small_k() {
        // One or two items: the ring's P-1 serial rounds lose to the
        // optimal tree's depth.
        let m = LogP::new(6, 2, 4, 16).unwrap();
        let v = items(1);
        let tree = run_kbcast_optimal_tree(&m, &v, SimConfig::default());
        let sg = run_kbcast_scatter_gather(&m, &v, SimConfig::default());
        assert!(
            tree.completion < sg.completion,
            "tree {} vs scatter-gather {}",
            tree.completion,
            sg.completion
        );
    }

    #[test]
    fn reliable_kbroadcast_survives_drops_and_crashes() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let v = items(12);
        let retry = RetryConfig::for_tree(&m, 4);
        let plan = FaultPlan::new(0x6B).with_drop_ppm(50_000).with_crash(0, 0);
        let run = run_reliable_kbroadcast(&m, &v, &plan, retry, SimConfig::default()).unwrap();
        assert!(run.completion > 0);
    }

    #[test]
    fn correct_under_jitter() {
        let m = LogP::new(10, 2, 3, 8).unwrap();
        let v = items(40);
        for seed in 0..3 {
            let cfg = SimConfig::default().with_jitter(9).with_seed(seed);
            // The run functions assert delivery internally.
            run_kbcast_optimal_tree(&m, &v, cfg.clone());
            run_kbcast_binomial(&m, &v, cfg.clone());
            run_kbcast_scatter_gather(&m, &v, cfg);
        }
    }

    #[test]
    fn message_counts_are_as_analyzed() {
        let m = LogP::new(6, 2, 4, 8).unwrap();
        let k = 64usize;
        let v = items(k);
        let tree = run_kbcast_binomial(&m, &v, SimConfig::default());
        // Tree: every non-root processor receives each item once.
        assert_eq!(tree.messages, (8 - 1) * k as u64);
        let sg = run_kbcast_scatter_gather(&m, &v, SimConfig::default());
        // Scatter: k - k/P items leave the root; ring: (P-1) rounds each
        // moving k/P per processor... total = (k - k/P) + (P-1)·k ≈ ...
        // just assert it is within 2x of the tree's total but with the
        // root sending far less.
        assert!(sg.messages <= 2 * tree.messages);
    }
}
