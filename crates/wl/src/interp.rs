//! The DAG interpreter: a [`Process`] that executes any validated
//! [`Workload`] on the simulator — classic or sharded engine, any lane
//! count, with identical results. What it runs is the checked
//! plan the workload's node arena carries ([`Workload::validate`] makes and
//! keeps it; a loaded workload has it already), so a run lowers only a
//! program nobody checked since its last append.
//!
//! Execution model (the task-graph idiom): a node *fires* once every
//! dependency has completed — explicit `after:` edges, the implicit
//! same-channel send→recv pairing, and the implicit barrier fence (a
//! barrier waits for every earlier node on its processor and gates
//! every later one). Ready nodes on one processor fire in
//! declaration order, so a workload's node order is part of its
//! semantics (exactly like statement order inside a hand-written
//! handler). Sends complete at issue (the engine then charges `o` and
//! paces the gap), computes complete at `on_compute_done`, timers at
//! `on_timer`, barriers at `on_barrier_release`, and recvs when their
//! matching message is delivered.
//!
//! Determinism: the interpreter keeps no clocks, no randomness, and no
//! host-order-dependent state; everything it does is a pure function of
//! the engine's deterministic callback sequence, so workload runs are
//! bit-identical across lane counts — the same bar as every built-in
//! `Process`.

use crate::ir::{Op, Span, WlError, Workload};
use crate::lower::Plan;
use logp_core::hier::Hierarchy;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Message, ProcStats, Process, SharedCell, Sim, SimConfig, SimError, SimResult};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Completion-time slot for a node that never completed.
pub const UNSET: Cycles = Cycles::MAX;

/// The interpreter: one per processor, all sharing the lowered plan.
/// Nodes are named by local index: position among this processor's
/// nodes, in declaration order.
struct WlProc {
    plan: Arc<Plan>,
    /// This processor's first slot and first recv-table entry in the plan.
    base: usize,
    recv_base: usize,
    /// Unfinished dependency count per local node.
    deps_left: Vec<u32>,
    /// Completion cycle per local node ([`UNSET`] until it completes).
    done_at: Vec<Cycles>,
    /// Recv delivered (may precede readiness).
    delivered: Vec<bool>,
    /// Deliveries so far on each channel, kept at the channel's first
    /// entry in this processor's stretch of the recv table.
    chan_next: Vec<u32>,
    /// Ready nodes not yet fired; the smallest local index fires first.
    ready: BinaryHeap<Reverse<u32>>,
    /// Barrier nodes entered but not yet released, FIFO.
    barrier_fifo: VecDeque<u32>,
    remaining: usize,
    halted: bool,
    /// Per-node completion cycle of the whole run, indexed by node id;
    /// this processor's share is written when it is dropped.
    times: SharedCell<Vec<Cycles>>,
    /// Deliveries with no matching recv left on their channel.
    unmatched: SharedCell<u64>,
}

impl WlProc {
    fn new(
        plan: Arc<Plan>,
        p: ProcId,
        times: SharedCell<Vec<Cycles>>,
        unmatched: SharedCell<u64>,
    ) -> Self {
        let p = p as usize;
        let slots = plan.proc_start[p] as usize..plan.proc_start[p + 1] as usize;
        let recvs = (plan.recv_start[p + 1] - plan.recv_start[p]) as usize;
        WlProc {
            base: slots.start,
            recv_base: plan.recv_start[p] as usize,
            deps_left: plan.indeg[slots.clone()].to_vec(),
            done_at: vec![UNSET; slots.len()],
            delivered: vec![false; slots.len()],
            chan_next: vec![0; recvs],
            ready: BinaryHeap::new(),
            barrier_fifo: VecDeque::new(),
            remaining: slots.len(),
            halted: false,
            times,
            unmatched,
            plan,
        }
    }

    /// Mark a node complete and queue its newly ready successors.
    fn finish(&mut self, li: u32, ctx: &mut Ctx<'_>) {
        let i = li as usize;
        if self.done_at[i] != UNSET {
            return;
        }
        self.done_at[i] = ctx.now();
        self.remaining -= 1;
        let plan = &*self.plan;
        let slot = self.base + i;
        let succs = plan.succ_start[slot] as usize..plan.succ_start[slot + 1] as usize;
        for &s in &plan.succs[succs] {
            let s = s - self.base as u32;
            let left = &mut self.deps_left[s as usize];
            *left -= 1;
            if *left == 0 {
                self.ready.push(Reverse(s));
            }
        }
    }

    /// Issue a ready node's operation.
    fn fire(&mut self, li: u32, ctx: &mut Ctx<'_>) {
        match self.plan.ops[self.base + li as usize] {
            Op::Send { dst, tag, payload } => {
                ctx.send(dst, tag, payload.to_data());
                self.finish(li, ctx);
            }
            Op::Recv { .. } => {
                if self.delivered[li as usize] {
                    self.finish(li, ctx);
                }
                // Otherwise wait for on_message; deps_left is already 0,
                // so delivery alone completes the node.
            }
            Op::Compute { cycles } => ctx.compute(cycles, li as u64),
            Op::Timer { cycles } => ctx.timer(cycles, li as u64),
            Op::Barrier => {
                ctx.barrier();
                self.barrier_fifo.push_back(li);
            }
        }
    }

    /// Fire ready nodes in local (declaration) order until quiescent,
    /// then halt if the plan is exhausted.
    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(Reverse(li)) = self.ready.pop() {
            self.fire(li, ctx);
        }
        if self.remaining == 0 && !self.halted {
            self.halted = true;
            ctx.halt();
        }
    }

    /// A callback's whole job: node `li` is done, run what that frees.
    fn complete(&mut self, li: u32, ctx: &mut Ctx<'_>) {
        self.finish(li, ctx);
        self.drive(ctx);
    }
}

impl Drop for WlProc {
    /// Publish this processor's completion times, once, when the engine
    /// lets go of it — whether or not its schedule finished.
    fn drop(&mut self) {
        // The cell's lock may be poisoned while a failed run unwinds.
        if std::thread::panicking() {
            return;
        }
        let ids = &self.plan.global[self.base..self.base + self.done_at.len()];
        self.times.with(|t| {
            for (&id, &at) in ids.iter().zip(&self.done_at) {
                t[id as usize] = at;
            }
        });
    }
}

impl Process for WlProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let n = self.deps_left.len() as u32;
        let ready = (0..n).filter(|&li| self.deps_left[li as usize] == 0);
        self.ready = ready.map(Reverse).collect();
        self.drive(ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        let (plan, key) = (&*self.plan, (msg.src, msg.tag));
        let keys = &plan.recv_key[self.recv_base..self.recv_base + self.chan_next.len()];
        let first = keys.partition_point(|k| *k < key);
        let at = first + self.chan_next.get(first).map_or(0, |&n| n as usize);
        if keys.get(at) != Some(&key) {
            // No recv left on this channel (stray or duplicated message).
            self.unmatched.with(|u| *u += 1);
            return;
        }
        self.chan_next[first] += 1;
        let li = plan.recv_slot[self.recv_base + at] - self.base as u32;
        self.delivered[li as usize] = true;
        if self.deps_left[li as usize] == 0 {
            self.complete(li, ctx);
        }
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.complete(tag as u32, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        self.complete(tag as u32, ctx);
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(li) = self.barrier_fifo.pop_front() {
            self.complete(li, ctx);
        }
    }
}

/// Why a workload run failed.
#[derive(Debug)]
pub enum WlRunError {
    /// The workload failed validation (never reached the engine).
    Invalid(WlError),
    /// The engine rejected the run.
    Sim(SimError),
    /// The run quiesced with nodes never completing — a recv whose
    /// message the fault plan dropped, or a crashed processor's
    /// unfinished schedule.
    Incomplete {
        /// Label of the first (declaration-order) unfinished node.
        node: String,
        /// Processor it was assigned to.
        proc: ProcId,
        /// Nodes that did complete.
        completed: usize,
        /// Total nodes in the workload.
        total: usize,
    },
}

impl std::fmt::Display for WlRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WlRunError::Invalid(e) => write!(f, "invalid workload: {e}"),
            WlRunError::Sim(e) => write!(f, "simulation failed: {e}"),
            WlRunError::Incomplete {
                node,
                proc,
                completed,
                total,
            } => write!(
                f,
                "run quiesced with {completed}/{total} nodes complete; \
                 first unfinished: `{node}` on processor {proc}"
            ),
        }
    }
}

impl std::error::Error for WlRunError {}

/// Result of interpreting a workload.
#[derive(Debug)]
pub struct WlRun {
    /// Completion time of the whole run (last event).
    pub completion: Cycles,
    /// Completion cycle of every node, indexed by [`crate::NodeId`].
    pub node_times: Vec<Cycles>,
    /// Deliveries that matched no recv (0 unless the fault plan
    /// duplicates messages).
    pub unmatched: u64,
    /// The engine's full result (stats, trace, observability).
    pub result: SimResult,
}

/// Interpret a workload on machine `m` (re-dimensioned to the
/// workload's processor count) under `config` — classic engine by
/// default, sharded with [`SimConfig::with_shards`]. Runs the checked plan
/// [`Workload::validate`] keeps — the one a loaded workload already
/// carries, else made here and kept for the next run — so there is no way
/// in for an unchecked program; never panics on bad input.
pub fn run_workload(wl: &Workload, m: &LogP, config: SimConfig) -> Result<WlRun, WlRunError> {
    let plan = wl.plan().map_err(WlRunError::Invalid)?;
    run_on(wl, plan, Sim::new(m.with_p(wl.procs), config))
}

/// Interpret a workload on a hierarchical machine: every message pays
/// the (L, o, g) of its endpoints' lowest common level, per-level
/// capacity windows apply, and sharded lanes align to topology
/// boundaries. Unlike [`run_workload`], the machine is not
/// re-dimensioned — a hierarchy's shape is its processor count, so
/// `wl.procs` must equal `h.p()`. The program is checked before the shape
/// is: an invalid program on the wrong shape reports its validation
/// error, and a valid one leaves its plan with the workload either way.
pub fn run_workload_hier(
    wl: &Workload,
    h: &Hierarchy,
    config: SimConfig,
) -> Result<WlRun, WlRunError> {
    let plan = wl.plan().map_err(WlRunError::Invalid)?;
    if wl.procs != h.p() {
        let msg = format!(
            "workload uses {} processors but the hierarchy has {}",
            wl.procs,
            h.p()
        );
        return Err(WlRunError::Invalid(WlError::at(Span::NONE, msg).with_help(
            "size the workload's `procs` to the hierarchy's total rank count",
        )));
    }
    run_on(wl, plan, Sim::new_hier(h, config))
}

fn run_on(wl: &Workload, plan: Arc<Plan>, mut sim: Sim) -> Result<WlRun, WlRunError> {
    let times = SharedCell::of(vec![UNSET; wl.nodes.len()]);
    let unmatched = SharedCell::of(0u64);
    sim.set_all(|p| {
        Box::new(WlProc::new(
            plan.clone(),
            p,
            times.clone(),
            unmatched.clone(),
        ))
    });
    let result = sim.run().map_err(WlRunError::Sim)?;
    let node_times = times.get();
    if let Some(i) = node_times.iter().position(|&t| t == UNSET) {
        let completed = node_times.iter().filter(|&&t| t != UNSET).count();
        let stuck = wl.nodes.at(i);
        return Err(WlRunError::Incomplete {
            node: stuck.label.to_string(),
            proc: stuck.proc,
            completed,
            total: node_times.len(),
        });
    }
    Ok(WlRun {
        completion: result.stats.completion,
        node_times,
        unmatched: unmatched.get(),
        result,
    })
}

/// The engine-independent projection of a run, for classic-vs-sharded
/// comparisons: completion, delivered/dropped message counts, and
/// per-processor cycle accounting. (Raw event counts differ across
/// engines by design — the sharded engine elides `Release` events.)
pub fn projection(r: &SimResult) -> (Cycles, u64, u64, Vec<ProcStats>) {
    (
        r.stats.completion,
        r.stats.total_msgs,
        r.stats.msgs_dropped,
        r.stats.procs.clone(),
    )
}
