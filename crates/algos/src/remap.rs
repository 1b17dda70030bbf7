//! All-to-all data remapping (§4.1.2–4.1.4, Figures 6 and 8).
//!
//! The FFT's hybrid layout needs one "all-to-all" step: every processor
//! sends `n/P²` elements to every other processor. The paper contrasts:
//!
//! * a **naive** schedule — every processor sends destination-block by
//!   destination-block starting at processor 0, so all `P` processors
//!   flood destination 0 first, then 1, … : "All but L/g processors will
//!   stall on the first send and then one will send to processor 0 every
//!   g cycles";
//! * a **staggered** schedule — processor `i` starts with the block for
//!   destination `i+1` and wraps around, so at any moment each
//!   destination is targeted by one sender: contention-free;
//! * **staggered + barrier** — a (hardware) barrier every block to stop
//!   asynchronous drift from re-introducing contention (Figure 8
//!   "Synchronized");
//! * **double network** — both CM-5 data networks, i.e. `g/2` (Figure 8
//!   "Double Net").
//!
//! Each element also costs `local` cycles of memory traffic at the sender
//! (§4.1.4's "roughly 1 µs of local computation per data point").
//!
//! Every all-to-all in the crate is one program: `RemapProc` runs a
//! rank's elements under a schedule, and an `Elements` description says
//! what the elements carry. [`run_remap`]'s elements are tagged words;
//! the FFT's ([`crate::fft::parallel`]) are its twiddled phase-I outputs,
//! with its local phases charged before the first element and after the
//! rank is done.

use crate::tree::{execute, Finals, Run};
use logp_core::cost::staggered_remap_time;
use logp_core::{Cycles, LogP, ProcId};
use logp_sim::{Ctx, Data, Message, Process, SharedCell, Sim, SimConfig};

/// Tag for remap payload elements.
pub const TAG_REMAP: u32 = 0x9E;

/// The communication schedule for the remap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemapSchedule {
    /// Destination blocks in order 0, 1, 2, … for every sender.
    Naive,
    /// Processor `i` starts at destination `i+1` and wraps.
    Staggered,
    /// Staggered with a barrier between destination blocks.
    StaggeredBarrier,
}

/// Parameters of a remap experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapSpec {
    /// Elements per (source, destination) pair — the paper's `n/P²`.
    pub elems_per_pair: u64,
    /// Local load/store cost per element at the sender, cycles.
    pub local_cost: Cycles,
    /// Communication schedule.
    pub schedule: RemapSchedule,
}

impl RemapSpec {
    /// Total elements each processor transmits.
    pub fn elems_per_proc(&self, p: u32) -> u64 {
        self.elems_per_pair * (p as u64 - 1)
    }

    /// Destination of element `i` of sender `me`: blocks of
    /// `elems_per_pair` elements, one block a destination, in schedule
    /// order and skipping `me`.
    fn dest(&self, me: ProcId, p: u32, i: u64) -> ProcId {
        let b = (i / self.elems_per_pair) as ProcId;
        match self.schedule {
            RemapSchedule::Naive => b + ProcId::from(b >= me),
            RemapSchedule::Staggered | RemapSchedule::StaggeredBarrier => (me + 1 + b) % p,
        }
    }
}

/// What a rank's elements carry; [`RemapProc`] calls it.
pub(crate) trait Elements: Send + 'static {
    /// What the rank reports once it has sent and received every element.
    type Final: Send + 'static;
    /// The payload of element `i`, bound for `dst`.
    fn element(&mut self, i: u64, dst: ProcId) -> Data;
    /// File an element `src` sent.
    fn receive(&mut self, src: ProcId, data: &Data);
    /// What the rank holds at the end.
    fn finish(&mut self) -> Self::Final;
}

const TAG_BEFORE: u64 = 6;
const TAG_LOADED: u64 = 7;
const TAG_AFTER: u64 = 8;

/// One processor's remap program: for each element in schedule order,
/// `local_cost` cycles of load, then a send; under
/// [`RemapSchedule::StaggeredBarrier`] a barrier after every destination
/// block. Receptions interleave via the engine's active-message polling.
/// The rank is done when it has sent every element and received as many;
/// it reports then.
struct RemapProc<E: Elements> {
    elems: E,
    spec: RemapSpec,
    /// Cycles charged before the first element and after done, if any.
    work: Option<(Cycles, Cycles)>,
    /// Elements this rank sends, and as many it receives.
    total: u64,
    next: u64,
    received: u64,
    sent_since_barrier: u64,
    out: SharedCell<Finals<E::Final>>,
}

impl<E: Elements> RemapProc<E> {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        if self.next < self.total {
            if self.spec.schedule == RemapSchedule::StaggeredBarrier
                && self.sent_since_barrier == self.spec.elems_per_pair
            {
                self.sent_since_barrier = 0;
                ctx.barrier();
                return; // resume from on_barrier_release
            }
            ctx.compute(self.spec.local_cost, TAG_LOADED);
        } else {
            self.maybe_finish(ctx);
        }
    }

    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.next >= self.total && self.received >= self.total {
            if let Some((_, after)) = self.work {
                ctx.compute(after, TAG_AFTER);
            }
            let rec = (ctx.me(), self.elems.finish(), ctx.now());
            self.out.with(|o| o.push(rec));
        }
    }
}

impl<E: Elements> Process for RemapProc<E> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        match self.work {
            Some((before, _)) => ctx.compute(before, TAG_BEFORE),
            None => self.step(ctx),
        }
    }

    fn on_compute_done(&mut self, tag: u64, ctx: &mut Ctx<'_>) {
        match tag {
            // The load for element `next` completed; transmit it and
            // schedule the next load. (The load compute is issued lazily
            // in `step` so receptions can interleave at each element
            // boundary.)
            TAG_LOADED => {
                let me = ctx.me();
                let dst = self.spec.dest(me, ctx.procs(), self.next);
                let data = self.elems.element(self.next, dst);
                self.next += 1;
                self.sent_since_barrier += 1;
                ctx.send(dst, TAG_REMAP, data);
            }
            TAG_AFTER => return,
            _ => {}
        }
        self.step(ctx);
    }

    fn on_barrier_release(&mut self, ctx: &mut Ctx<'_>) {
        self.step(ctx);
    }

    fn on_message(&mut self, msg: &Message, ctx: &mut Ctx<'_>) {
        debug_assert_eq!(msg.tag, TAG_REMAP);
        self.received += 1;
        self.elems.receive(msg.src, &msg.data);
        self.maybe_finish(ctx);
    }
}

/// Run `elems(rank)` on every processor of `sim` under `spec`, charging
/// `work`'s cycles before each rank's first element and after it is done;
/// a rank's final is stamped with the time it was done.
pub(crate) fn remap<E: Elements>(
    sim: Sim,
    spec: &RemapSpec,
    work: Option<(Cycles, Cycles)>,
    mut elems: impl FnMut(ProcId) -> E,
) -> Run<E::Final> {
    let p = sim.model().p;
    let total = spec.elems_per_proc(p);
    let prog = |q, out| RemapProc {
        elems: elems(q),
        spec: *spec,
        work,
        total,
        next: 0,
        received: 0,
        sent_since_barrier: 0,
        out,
    };
    execute(sim, 0..p, None, prog).expect("every rank sends and receives every element")
}

/// §4.1.2's elements: each carries its sender and index, and a rank sums
/// what it receives into a checksum.
struct Tagged {
    me: ProcId,
    sum: f64,
}

impl Elements for Tagged {
    type Final = f64;

    fn element(&mut self, i: u64, _dst: ProcId) -> Data {
        Data::F64(((self.me as u64) << 32 | i) as f64)
    }

    fn receive(&mut self, _src: ProcId, data: &Data) {
        self.sum += data.as_f64();
    }

    fn finish(&mut self) -> f64 {
        self.sum
    }
}

/// Result of a remap run.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapRun {
    /// Simulated completion (all elements delivered everywhere).
    pub completion: Cycles,
    /// The paper's predicted time for the contention-free schedule:
    /// `n/P · max(local + 2o, g) + L`.
    pub predicted: Cycles,
    /// Total messages delivered.
    pub messages: u64,
    /// Aggregate stall cycles across processors (contention indicator).
    pub total_stall: Cycles,
    /// Payload checksum (for correctness verification).
    pub checksum: f64,
}

impl RemapRun {
    /// Effective per-processor bandwidth in bytes/cycle given a payload
    /// size per message.
    pub fn bytes_per_cycle(&self, payload_bytes: u64, elems_per_proc: u64) -> f64 {
        if self.completion == 0 {
            return 0.0;
        }
        (elems_per_proc * payload_bytes) as f64 / self.completion as f64
    }
}

/// Run a remap experiment.
pub fn run_remap(m: &LogP, spec: &RemapSpec, config: SimConfig) -> RemapRun {
    assert!(m.p >= 2, "remap needs at least two processors");
    let run = remap(Sim::new(*m, config), spec, None, |me| Tagged {
        me,
        sum: 0.0,
    });
    RemapRun {
        completion: run.finals.iter().map(|f| f.2).max().unwrap_or(0),
        predicted: staggered_remap_time(m, spec.elems_per_proc(m.p), spec.local_cost),
        messages: run.result.stats.total_msgs,
        total_stall: run.result.stats.procs.iter().map(|s| s.stall).sum(),
        // Summed in finishing order, from +0.0.
        checksum: run.finals.iter().fold(0.0, |acc, f| acc + f.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm5_like(p: u32) -> LogP {
        LogP::new(60, 20, 40, p).unwrap()
    }

    #[test]
    fn staggered_matches_prediction_closely() {
        let m = cm5_like(8);
        let spec = RemapSpec {
            elems_per_pair: 16,
            local_cost: 10,
            schedule: RemapSchedule::Staggered,
        };
        let run = run_remap(&m, &spec, SimConfig::default());
        let ratio = run.completion as f64 / run.predicted as f64;
        assert!(
            (0.9..=1.3).contains(&ratio),
            "staggered should track the prediction: sim {} vs predicted {}",
            run.completion,
            run.predicted
        );
    }

    #[test]
    fn naive_is_much_slower_than_staggered() {
        let m = cm5_like(16);
        let mk = |schedule| RemapSpec {
            elems_per_pair: 8,
            local_cost: 10,
            schedule,
        };
        let naive = run_remap(&m, &mk(RemapSchedule::Naive), SimConfig::default());
        let stag = run_remap(&m, &mk(RemapSchedule::Staggered), SimConfig::default());
        assert!(
            naive.completion as f64 > 1.5 * stag.completion as f64,
            "naive {} vs staggered {}",
            naive.completion,
            stag.completion
        );
        assert!(naive.total_stall > stag.total_stall * 2);
    }

    #[test]
    fn all_schedules_deliver_all_elements() {
        let m = cm5_like(6);
        for schedule in [
            RemapSchedule::Naive,
            RemapSchedule::Staggered,
            RemapSchedule::StaggeredBarrier,
        ] {
            let spec = RemapSpec {
                elems_per_pair: 4,
                local_cost: 10,
                schedule,
            };
            let run = run_remap(&m, &spec, SimConfig::default());
            assert_eq!(run.messages, 6 * 5 * 4, "{schedule:?}");
        }
    }

    #[test]
    fn checksums_agree_across_schedules_and_jitter() {
        let m = cm5_like(5);
        let base = run_remap(
            &m,
            &RemapSpec {
                elems_per_pair: 3,
                local_cost: 0,
                schedule: RemapSchedule::Naive,
            },
            SimConfig::default(),
        );
        for schedule in [RemapSchedule::Staggered, RemapSchedule::StaggeredBarrier] {
            for seed in 0..3 {
                let cfg = SimConfig::default().with_jitter(30).with_seed(seed);
                let run = run_remap(
                    &m,
                    &RemapSpec {
                        elems_per_pair: 3,
                        local_cost: 0,
                        schedule,
                    },
                    cfg,
                );
                assert_eq!(run.checksum, base.checksum, "{schedule:?} seed {seed}");
            }
        }
    }

    #[test]
    fn barrier_schedule_bounds_drift_contention() {
        // With drift, the plain staggered schedule develops contention
        // (stalls); the barrier variant keeps stalls lower. This mirrors
        // Figure 8's "Synchronized" curve.
        let m = cm5_like(16);
        let drift_cfg = || SimConfig::default().with_drift(150).with_seed(11);
        let stag = run_remap(
            &m,
            &RemapSpec {
                elems_per_pair: 32,
                local_cost: 10,
                schedule: RemapSchedule::Staggered,
            },
            drift_cfg(),
        );
        let sync = run_remap(
            &m,
            &RemapSpec {
                elems_per_pair: 32,
                local_cost: 10,
                schedule: RemapSchedule::StaggeredBarrier,
            },
            drift_cfg(),
        );
        assert!(
            sync.total_stall <= stag.total_stall,
            "barrier must not increase contention: sync {} vs stag {}",
            sync.total_stall,
            stag.total_stall
        );
    }

    #[test]
    fn double_network_helps_but_is_overhead_limited() {
        // Fig. 8: doubling bandwidth (g/2) gains only ~15% because o and
        // the local loop dominate.
        let m = cm5_like(8);
        let spec = RemapSpec {
            elems_per_pair: 32,
            local_cost: 10,
            schedule: RemapSchedule::Staggered,
        };
        let single = run_remap(&m, &spec, SimConfig::default());
        let double = run_remap(&m.double_network(), &spec, SimConfig::default());
        assert!(double.completion <= single.completion);
        let gain = single.completion as f64 / double.completion as f64;
        assert!(
            gain < 1.35,
            "double network should give a modest gain (overhead-limited), got {gain}"
        );
    }
}
